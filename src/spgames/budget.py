"""Node-count budgets for the exhaustive searches.

Every combinatorial search in this package counts the nodes it expands
against a budget and fails loudly (`BudgetExceededError`) instead of
silently returning a wrong or partial answer.  A search may charge
many nodes at once for work it knows the count of but skips, and it
fails at the same node, with the same message and count, as if nothing
had been skipped.  A remembered search pays through `try_spend`, called
only by `model._Memo.recall`, whose docstring states the charge rule:
when the budget cannot pay, the search runs again node by node.  The
greedy deadline scan pays its candidates, and the release-date subset
program each of its blocks, with one `spend`, which fails on the node
after the limit, as that many single spends would.
"""

from __future__ import annotations

from .errors import BudgetExceededError, _integer

DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudget:
    """Counts search nodes and raises once the cap is exceeded.

    A single budget object is shared by all searches spawned from one
    top-level call, so the cap applies per call, not per recursion level.
    A search an instance remembers is charged, on each repeat, the nodes
    it spent when it ran (`model._Memo.recall`); the greedy deadline scan
    charges all its candidates in one spend, and the subset program each
    block of subsets.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.limit = _integer(limit, name="budget limit", minimum=1)
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        """Spend `amount` nodes as that many single spends would: when the
        budget cannot pay them all, it fails on the node after its limit."""
        if amount > self.limit - self.used:
            self.used = max(self.used + 1, self.limit + 1)
            raise BudgetExceededError(
                f"search budget of {self.limit} nodes exceeded"
            )
        self.used += amount

    def try_spend(self, amount: int) -> bool:
        """Spend `amount` nodes and return True when the budget can pay
        them all; otherwise spend nothing and return False."""
        if amount > self.limit - self.used:
            return False
        self.used += amount
        return True

    @classmethod
    def ensure(cls, budget: "int | SearchBudget | None") -> "SearchBudget":
        if budget is None:
            return cls()
        if isinstance(budget, SearchBudget):
            return budget
        return cls(budget)
