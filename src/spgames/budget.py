"""Node-count budgets for the exhaustive searches.

Every combinatorial search in this package counts the nodes it expands
against a budget and fails loudly (`BudgetExceededError`) instead of
silently returning a wrong or partial answer.
"""

from __future__ import annotations

from .errors import BudgetExceededError, _integer

DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudget:
    """Counts search nodes and raises once the cap is exceeded.

    A single budget object is shared by all searches spawned from one
    top-level call, so the cap applies per call, not per recursion level.
    A search an instance remembers (`model._Memo.recall`) is charged, on
    each repeat, the nodes it spent when it ran.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.limit = _integer(limit, name="budget limit", minimum=1)
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} nodes exceeded"
            )

    def require(self, amount: int) -> None:
        """Fail upfront when a search is known to need `amount` nodes."""
        if amount > self.limit - self.used:
            raise BudgetExceededError(
                f"search needs {amount} nodes but only "
                f"{self.limit - self.used} of {self.limit} remain"
            )

    @classmethod
    def ensure(cls, budget: "int | SearchBudget | None") -> "SearchBudget":
        if budget is None:
            return cls()
        if isinstance(budget, SearchBudget):
            return budget
        return cls(budget)
