"""Per-layer counters for the traced run.

`Tracer.install` wraps public functions of `spgames` wherever they are
bound: in their home module, in every module that imported them by
name (including the package itself, whose `best_response` attribute is
the function, not the submodule) and, for `is_member`, on each
feasibility class.  Each wrapper adds to a call counter and to a self
time, which is its inclusive time minus the time spent in nested
wrapped calls.  Hot leaf calls are only counted, never stored one by
one, so the cost per call stays a few list operations.

`Tracer.verify` checks that nothing outside the tracer still holds an
original function (a namespace, a dispatch table, a closure cell), so
that a later import site cannot silently drop calls from the trace.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
import types

SYSTEM_KINDS = ("ExplicitSystem", "SingleMachineSystem",
                "IdenticalMachinesSystem", "UnrelatedMachinesSystem",
                "SharedSymmetricSystem")

# (metric prefix, module, function, stats reported, result counter)
FUNCTIONS = (
    ("feasibility.feasible_subsets", "feasibility", "feasible_subsets",
     ("calls", "self_s", "sets_out"), len),
    ("feasibility.max_cardinality_feasible", "feasibility",
     "max_cardinality_feasible", ("calls", "self_s"), None),
    ("best_response.coalition_best_response", "best_response",
     "coalition_best_response", ("calls", "self_s"), None),
    ("best_response.best_response", "best_response", "best_response",
     ("calls", "self_s"), None),
    ("equilibria.enumerate_nash", "equilibria", "enumerate_nash",
     ("calls", "self_s", "profiles_out"), len),
    ("equilibria.verify_collusion", "equilibria", "verify_collusion",
     ("calls", "self_s", "pass_ratio"), lambda report: int(report.verdict)),
    ("equilibria.enumerate_spe_outcomes", "equilibria", "enumerate_spe_outcomes",
     ("calls", "self_s", "outcomes_out"), len),
    ("equilibria.verify_nash", "equilibria", "verify_nash",
     ("calls", "self_s"), None),
    ("equilibria.greedy_sequential_outcome", "equilibria",
     "greedy_sequential_outcome", ("calls", "self_s"), None),
    ("metrics.compute_opt", "metrics", "compute_opt", ("calls", "self_s"), None),
    ("metrics.empirical_poa", "metrics", "empirical_poa",
     ("calls", "self_s"), None),
    ("metrics.empirical_sequential_poa", "metrics", "empirical_sequential_poa",
     ("calls", "self_s"), None),
    ("metrics.empirical_collusion_poa", "metrics", "empirical_collusion_poa",
     ("calls", "self_s"), None),
    ("model.welfare", "model", "welfare", ("calls", "self_s"), None),
    ("factory.generate", "factory", "generate", ("calls", "self_s"), None),
    ("report.paper_suite_rows", "report", "paper_suite_rows", ("self_s",), None),
    ("report.rows_to_tsv", "report", "rows_to_tsv", ("self_s",), None),
    ("report.rows_to_json", "report", "rows_to_json", ("self_s",), None),
    ("serialize.dumps_document", "serialize", "dumps_document", ("self_s",), None),
)

# Calls whose SearchBudget can be read without changing their code path:
# each turns a missing or integer budget into a SearchBudget exactly as
# `SearchBudget.ensure` would, and none of them reaches the memoised
# `best_response` path, which a budget would bypass.
BUDGET_READERS = frozenset({
    "metrics.empirical_poa", "metrics.empirical_sequential_poa",
    "metrics.empirical_collusion_poa", "equilibria.greedy_sequential_outcome"})


class TracingError(RuntimeError):
    """A wrapped function is still bound somewhere in its original form."""


class _Stat:
    __slots__ = ("calls", "self_s", "out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.out = 0


def _module(name: str):
    # `spgames.best_response` as an attribute is the re-exported function,
    # so modules are always reached through the import system.
    return importlib.import_module(f"spgames.{name}")


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.nodes = 0
        self._stack: list[float] = []
        self._budget_depth = 0
        self._originals: list[tuple[str, object]] = []
        self._own: set[int] = set()  # ids of the tracer's own references

    def _wrap(self, name: str, fn, counter=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        if counter is None and name not in BUDGET_READERS:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.calls += 1
                    stat.self_s += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
        else:
            signature = inspect.signature(fn)
            reads_budget = name in BUDGET_READERS
            search_budget = _module("budget").SearchBudget

            def wrapper(*args, **kwargs):
                budget = None
                if reads_budget:
                    bound = signature.bind(*args, **kwargs)
                    given = bound.arguments.get("budget")
                    budget = (given if isinstance(given, search_budget)
                              else search_budget() if given is None
                              else search_budget(int(given)))
                    bound.arguments["budget"] = budget
                    args, kwargs = bound.args, bound.kwargs
                    used_before = budget.used
                    self._budget_depth += 1
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.calls += 1
                    stat.self_s += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    if reads_budget:
                        self._budget_depth -= 1
                        if self._budget_depth == 0:
                            self.nodes += budget.used - used_before
                if counter is not None:
                    stat.out += counter(result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        self._own.update(id(cell) for cell in wrapper.__closure__)
        return wrapper

    def install(self) -> None:
        feasibility = _module("feasibility")
        for kind in SYSTEM_KINDS:
            cls = getattr(feasibility, kind)
            original = cls.__dict__["is_member"]
            self._remember(f"{kind}.is_member", original)
            setattr(cls, "is_member",
                    self._wrap(f"feasibility.is_member.{kind}", original))
        for prefix, module, attr, _, counter in FUNCTIONS:
            original = getattr(_module(module), attr)
            self._remember(f"{module}.{attr}", original)
            wrapper = self._wrap(prefix, original, counter)
            sites = 0
            for namespace in self._module_namespaces():
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        sites += 1
            if sites == 0:
                raise TracingError(f"{module}.{attr} is bound nowhere")
        self.verify()

    def _remember(self, label: str, original) -> None:
        entry = (label, original)
        self._originals.append(entry)
        self._own.add(id(entry))

    @staticmethod
    def _module_namespaces():
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if isinstance(namespace, dict):
                yield namespace

    def verify(self) -> None:
        """Raise if anything but the tracer still holds an original."""
        missed = []
        for label, original in self._originals:
            for holder in gc.get_referrers(original):
                if id(holder) in self._own:
                    continue
                if isinstance(holder, dict):
                    # A loop, not a comprehension: a comprehension would put
                    # `original` in a closure cell of this very frame.
                    for key, value in holder.items():
                        if value is original:
                            missed.append(f"{label} as {key!r}")
                elif isinstance(holder, (list, tuple, types.CellType)):
                    missed.append(f"{label} in a {type(holder).__name__}")
        if missed:
            raise TracingError("original functions still bound: "
                               + "; ".join(missed))

    def self_total(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for kind in SYSTEM_KINDS:
            stat = self.stats[f"feasibility.is_member.{kind}"]
            out[f"feasibility.is_member.{kind}.calls"] = stat.calls
            out[f"feasibility.is_member.{kind}.self_s"] = stat.self_s
        for prefix, _, _, stats, _ in FUNCTIONS:
            stat = self.stats[prefix]
            values = {"calls": stat.calls, "self_s": stat.self_s,
                      "pass_ratio": stat.out / stat.calls if stat.calls else 0.0}
            for name in stats:
                out[f"{prefix}.{name}"] = values.get(name, stat.out)
        info = _module("best_response")._best_response_cached.cache_info()
        out["best_response.cache_hits"] = info.hits
        out["best_response.cache_misses"] = info.misses
        out["budget.nodes"] = self.nodes
        return out
