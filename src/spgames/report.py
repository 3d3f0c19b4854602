"""The bound-reproduction suite: measured ratios against their bounds.

One row per (family, parameters, concept, alpha, k).  Most rows are
measured by an exhaustive worst-equilibrium search (method "enumerated").
A collusion family with more than `DEFAULT_NODE_BUDGET` (n+1)^|J|
assignments is measured on its constructed worst equilibrium, certified
by the coalition verifier (method "constructed").  The branch and bound
reaches n = 4 as well, so the route is no search limit and ignores the
caller's budget: it is kept so that the published rows and bytes stay
the same whatever the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .bounds import (RationalInterval, bound_collusion,
                     bound_sequential_symmetric, ratio_within_sequential_bound)
from .budget import DEFAULT_NODE_BUDGET
from .equilibria import greedy_sequential_outcome, verify_collusion
from .factory import GeneratorSpec, generate, reference_profiles
from .metrics import (compute_opt, empirical_collusion_poa, empirical_poa,
                      empirical_sequential_poa)
from .model import welfare
from .serialize import decimal_str, rational_str


@dataclass(frozen=True)
class ReportRow:
    family: str
    params: str
    concept: str
    alpha: Fraction
    k: Optional[int]
    measured: Fraction
    bound: Union[Fraction, RationalInterval]
    satisfied: bool
    method: str


def _row_from_poa(family: str, params: str, result) -> ReportRow:
    return ReportRow(family=family, params=params, concept=result.concept,
                     alpha=result.alpha, k=result.k, measured=result.ratio,
                     bound=result.bound, satisfied=result.bound_satisfied,
                     method="enumerated")


def _sequential_greedy_row(n: int, budget) -> ReportRow:
    spec = GeneratorSpec.make("ex_seq", n=n)
    instance = generate(spec)
    references = reference_profiles(spec)
    opt_value = welfare(instance, references["opt"])
    # The reference optimum packs every item, so matching the total weight
    # certifies optimality without a search.
    assert opt_value == sum(instance.weights.values())
    outcome = greedy_sequential_outcome(instance, range(n), Fraction(1),
                                        selector="deadline", budget=budget)
    measured = opt_value / instance.weight_of(outcome.all_items())
    return ReportRow(family="ex_seq", params=f"n={n}", concept="spe-greedy",
                     alpha=Fraction(1), k=None, measured=measured,
                     bound=bound_sequential_symmetric(Fraction(1)),
                     satisfied=ratio_within_sequential_bound(measured, Fraction(1)),
                     method="greedy-path")


def _collusion_row(n: int, k: int, alpha: Fraction, budget) -> ReportRow:
    spec = GeneratorSpec.make("ex_collusion", n=n, k=k, alpha=alpha)
    instance = generate(spec)
    params = f"n={n},k={k},alpha={rational_str(alpha)}"
    if (instance.n + 1) ** len(instance.item_ids) <= DEFAULT_NODE_BUDGET:
        return _row_from_poa("ex_collusion", params,
                             empirical_collusion_poa(instance, k, alpha, budget))
    # Measure the constructed equilibrium, certified by the coalition
    # verifier, whose report carries the welfare it validated.
    bad = reference_profiles(spec)["bad_equilibrium"]
    report = verify_collusion(instance, bad, k, alpha, budget)
    _, opt_value = compute_opt(instance, budget)
    measured = opt_value / report.welfare
    bound = bound_collusion(alpha, n, k)
    return ReportRow(family="ex_collusion", params=params, concept="collusion",
                     alpha=alpha, k=k, measured=measured, bound=bound,
                     satisfied=report.verdict and measured <= bound,
                     method="constructed")


def paper_suite_rows(budget: int | None = None) -> list[ReportRow]:
    """All rows of the reproduction suite, in a fixed order."""
    rows: list[ReportRow] = []

    trivial = generate(GeneratorSpec.make("ex_trivial"))
    rows.append(_row_from_poa("ex_trivial", "-",
                              empirical_poa(trivial, Fraction(1), budget)))
    rows.append(_row_from_poa("ex_trivial", "-",
                              empirical_sequential_poa(trivial, Fraction(1), budget)))
    rows.append(_row_from_poa("ex_trivial", "-",
                              empirical_collusion_poa(trivial, 2, Fraction(1), budget)))

    for p, q in ((1, 1), (3, 2), (2, 1), (3, 1)):
        instance = generate(GeneratorSpec.make("ex_asym", p=p, q=q))
        rows.append(_row_from_poa("ex_asym", f"p={p},q={q}",
                                  empirical_poa(instance, Fraction(p, q), budget)))

    for p, q, n in ((3, 2, 3), (2, 1, 4)):
        instance = generate(GeneratorSpec.make("ex_sym", p=p, q=q, n=n))
        rows.append(_row_from_poa("ex_sym", f"p={p},q={q},n={n}",
                                  empirical_poa(instance, Fraction(p, q), budget)))

    for n in (3, 5):
        rows.append(_sequential_greedy_row(n, budget))

    for n, k, alpha in ((3, 2, Fraction(1)), (4, 2, Fraction(1)),
                        (4, 3, Fraction(1)), (3, 2, Fraction(3, 2))):
        rows.append(_collusion_row(n, k, alpha, budget))

    return rows


def _bound_text(bound) -> str:
    if isinstance(bound, RationalInterval):
        return decimal_str((bound.lo + bound.hi) / 2)
    return rational_str(bound)


def rows_to_tsv(rows: list[ReportRow]) -> str:
    header = ("family", "params", "concept", "alpha", "k", "measured",
              "measured_decimal", "bound", "satisfied", "method")
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join((
            row.family, row.params, row.concept, rational_str(row.alpha),
            str(row.k) if row.k is not None else "-",
            rational_str(row.measured), decimal_str(row.measured),
            _bound_text(row.bound), "yes" if row.satisfied else "no",
            row.method)))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ReportRow]) -> list[dict]:
    out = []
    for row in rows:
        if isinstance(row.bound, RationalInterval):
            bound = {"lo": rational_str(row.bound.lo),
                     "hi": rational_str(row.bound.hi)}
        else:
            bound = rational_str(row.bound)
        out.append({
            "family": row.family,
            "params": row.params,
            "concept": row.concept,
            "alpha": rational_str(row.alpha),
            "k": row.k,
            "measured": rational_str(row.measured),
            "measured_decimal": decimal_str(row.measured),
            "bound": bound,
            "satisfied": row.satisfied,
            "method": row.method,
        })
    return out
