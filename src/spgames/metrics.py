"""Centralized optimum and empirical price-of-anarchy measurements.

All ratios are exact rationals.  The worst Nash and k-collusion profile
is the first of least welfare in the order of `enumerate_nash`, found by
the branch and bound of `equilibria.worst_equilibrium` without listing
the others; the Nash measurement is the collusion one at k = 1.  The
worst sequential outcome is the first of least welfare over all orders,
in `permutations` order, found by the min recursion of
`equilibria.least_sequential_outcome` without listing any outcome.
Correctness of "worst" is the point, so no heuristics are used.  The
practical envelope for the exhaustive operations is small instances
(around n <= 4 and |J| <= 16).  Repeated items widen it: items that
weigh the same and that every system treats alike are walked once per
orbit, not once per relabelling (`model._Memo`), so `ex_seq(4)`, 16 jobs
in four classes, takes its worst Nash profile in about 54k nodes.

The optimum is branch and bound on the search kernel (`search.py`).
Its tie-break is the first maximum in the kernel's post-order, which
lists assignments in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional, Union

from .budget import SearchBudget
from .best_response import check_alpha
from .bounds import (RationalInterval, bound_collusion, bound_nash,
                     bound_sequential_symmetric, ratio_within_sequential_bound)
from .equilibria import least_sequential_outcome, worst_equilibrium
# Unused here, but `perfbench/selftest.py` checks that this binding is traced.
from .equilibria import enumerate_nash  # noqa: F401
from .model import Instance, Profile, restrict_available
from .search import best, spell

Bound = Union[Fraction, RationalInterval, None]


@dataclass(frozen=True)
class PoAResult:
    """An empirical price-of-anarchy measurement against its bound.

    `ratio` is exactly `opt_welfare / worst_equilibrium_welfare` (defined
    as 1 when both are zero, which only happens together).
    `bound_satisfied` is decided in exact rational arithmetic, or by a
    certified enclosure when the bound involves exp(1/alpha).
    """

    concept: str
    alpha: Fraction
    opt_welfare: Fraction
    worst_equilibrium_welfare: Fraction
    ratio: Fraction
    bound: Bound
    bound_satisfied: bool
    worst_profile: Profile
    opt_profile: Profile
    k: Optional[int] = None
    orders_examined: Optional[int] = None


def compute_opt(instance: Instance,
                budget: int | SearchBudget | None = None,
                available: Iterable[str] | None = None
                ) -> tuple[Profile, Fraction]:
    """Maximum-welfare valid profile by branch and bound.

    Items are assigned in id order to a player or to nobody; the upper
    bound at a node is its weight plus that of the items not yet decided.
    Ties are broken by the lexicographically smallest assignment vector
    (players in index order before "nobody"), which the search's
    post-order visits first, so the walk meets one assignment per orbit
    of repeated items (`_Memo.previous`).
    `available` restricts the assignable items (the full ground set by
    default).  The instance remembers the optimum of each item set
    (`_Memo.recall`, table `optima`) and charges a repeat the nodes of
    the search it replaces.
    """
    shared = SearchBudget.ensure(budget)
    memo = instance._memo
    ids = (instance.ordered_ids if available is None
           else sorted(restrict_available(instance, available)))
    weight, scale = instance.integer_weights

    def search() -> tuple[tuple[frozenset[str], ...], int]:
        # Any pool is walked on `_Memo.bit`, so on the instance's kept tests.
        sets, value = best(list(map(memo.bit.__getitem__, ids)),
                           [weight[i] for i in ids],
                           [memo.test(player) for player in range(instance.n)],
                           shared, post=True, previous=memo.previous(ids))
        return tuple(spell(T, instance.ordered_ids) for T in sets), value

    sets, value = memo.recall(memo.optima, memo.mask(ids), shared, search)
    return Profile._spelt(sets), Fraction(value, scale)


def _ratio(opt_value: Fraction, worst_value: Fraction) -> Fraction:
    if worst_value == 0:
        # A zero-welfare equilibrium forces a zero-welfare optimum:
        # otherwise some player could still grab a positive-weight item.
        if opt_value != 0:
            raise RuntimeError(
                "zero-welfare equilibrium with positive optimum; "
                "equilibrium verification is inconsistent")
        return Fraction(1)
    return opt_value / worst_value


def empirical_poa(instance: Instance, alpha,
                  budget: int | SearchBudget | None = None) -> PoAResult:
    """Ratio of the optimum to the worst approximate Nash profile, the
    k = 1 collusion measurement checked against the alpha + 1 bound."""
    result = empirical_collusion_poa(instance, 1, alpha, budget)
    bound = bound_nash(result.alpha)
    return replace(result, concept="nash", k=None, bound=bound,
                   bound_satisfied=result.ratio <= bound)


def empirical_sequential_poa(instance: Instance, alpha,
                             budget: int | SearchBudget | None = None
                             ) -> PoAResult:
    """Worst ratio over all player orders and all sequential outcomes.

    The worst outcome comes from `equilibria.least_sequential_outcome`,
    which examines one order per class of orders that give the players'
    systems in one sequence; every order is covered, so `orders_examined`
    is n!.  Always checked against alpha + 1; for instances built on a
    shared symmetric base, additionally against the certified enclosure
    of exp(1/alpha) / (exp(1/alpha) - 1).
    """
    factor = check_alpha(alpha)
    shared = SearchBudget.ensure(budget)
    _, scale = instance.integer_weights
    sets, least = least_sequential_outcome(instance, factor, shared)
    worst_profile, worst_value = Profile._spelt(sets), Fraction(least, scale)
    opt_profile, opt_value = compute_opt(instance, shared)
    ratio = _ratio(opt_value, worst_value)
    if instance.symmetric:
        bound: Bound = bound_sequential_symmetric(factor)
        # The enclosure decides most ratios; only one inside it is refined.
        satisfied = ratio <= bound.lo or (
            ratio < bound.hi and ratio_within_sequential_bound(ratio, factor))
    else:
        bound = bound_nash(factor)
        satisfied = ratio <= bound
    return PoAResult(concept="spe", alpha=factor, opt_welfare=opt_value,
                     worst_equilibrium_welfare=worst_value, ratio=ratio,
                     bound=bound, bound_satisfied=satisfied,
                     worst_profile=worst_profile, opt_profile=opt_profile,
                     orders_examined=factorial(instance.n))


def empirical_collusion_poa(instance: Instance, k: int, alpha,
                            budget: int | SearchBudget | None = None
                            ) -> PoAResult:
    """Ratio of the optimum to the worst approximate k-collusion profile.

    Ties go to the order of `enumerate_nash`.  The bound alpha +
    (n-k)/(n-1) needs n >= 2; for a single player only the ratio is
    reported.
    """
    factor = check_alpha(alpha)
    shared = SearchBudget.ensure(budget)
    worst_profile, worst_value = worst_equilibrium(instance, factor, k, shared)
    opt_profile, opt_value = compute_opt(instance, shared)
    ratio = _ratio(opt_value, worst_value)
    if instance.n >= 2:
        bound: Bound = bound_collusion(factor, instance.n, k)
        satisfied = ratio <= bound
    else:
        bound = None
        satisfied = True
    return PoAResult(concept="collusion", alpha=factor, opt_welfare=opt_value,
                     worst_equilibrium_welfare=worst_value, ratio=ratio,
                     bound=bound, bound_satisfied=satisfied,
                     worst_profile=worst_profile, opt_profile=opt_profile, k=k)
