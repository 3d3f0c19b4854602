"""Exact and approximate best responses for single players and coalitions.

Both are branch and bound on the search kernel (`search.py`), with
weights scaled to exact integers; verdicts never depend on floating
point.  Ties are resolved deterministically:

* single-player best responses return the maximum-weight set that is
  smallest in item-id lexicographic order (sets compared as sorted
  tuples, so the empty set is smallest): the first maximum in the
  kernel's pre-order, which lists one player's sets in that order;
* coalition responses minimize the tuple of per-member sets under the
  same order, which no visit order gives, so ties are explored and
  compared.  A one-player coalition agrees exactly with the
  single-player search.

One alpha rule, `within_alpha`, decides every concept: alpha times the
held weight must reach the best reply's weight, ties passing.  `deviation`
asks `best_response` for one member and `coalition_best_response` for
more, so the k = 1 collusion check is the Nash check.  An integer budget
is one `SearchBudget` per call; with none, one-player replies are memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

from .budget import SearchBudget
from .errors import InputError
from .model import Instance, _check_player_index, restrict_available
from .search import best


@dataclass(frozen=True)
class DeviationWitness:
    """A profitable deviation certifying an equilibrium violation.

    `proposed` is aligned with `players` (0-based indices); replaying the
    proposed sets must strictly beat alpha times the old joint value.
    """

    players: tuple[int, ...]
    proposed: tuple[frozenset[str], ...]
    old_value: Fraction
    new_value: Fraction


def check_alpha(alpha) -> Fraction:
    try:
        out = Fraction(alpha)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"alpha is not a rational: {alpha!r}") from exc
    if out < 1:
        raise InputError(f"alpha must be >= 1, got {out}")
    return out


def within_alpha(factor: Fraction, held, best) -> bool:
    """Whether `held` is within `factor` of `best`, ties included."""
    return factor.numerator * held >= best * factor.denominator


def _joint_best(instance: Instance, members: tuple[int, ...],
                available: Iterable[str], budget: SearchBudget
                ) -> tuple[tuple[frozenset[str], ...], Fraction]:
    """Best disjoint member sets from `available` by branch and bound.

    One member takes the first best set in pre-order, the lexicographically
    smallest; several compare the tuple of sorted sets on ties.
    """
    ids = sorted(available)
    weight, scale = instance.integer_weights
    tests = [instance.players[m].is_member for m in members]
    key = None if len(members) == 1 else (
        lambda sets: tuple(tuple(sorted(s)) for s in sets))
    sets, value = best(ids, [weight[i] for i in ids], tests, budget, key=key)
    return sets, Fraction(value, scale)


@lru_cache(maxsize=1 << 16)
def _best_response_cached(instance: Instance, player: int,
                          available: frozenset[str]
                          ) -> tuple[frozenset[str], Fraction]:
    (chosen,), value = _joint_best(instance, (player,), available, SearchBudget())
    return chosen, value


def best_response(instance: Instance, player: int, available: Iterable[str],
                  budget: int | SearchBudget | None = None
                  ) -> tuple[frozenset[str], Fraction]:
    """Maximum-weight feasible subset of `available` for one player.

    Returns the set and its weight.  With the default budget, results are
    memoized per (instance, player, availability), which the enumeration
    routines rely on heavily.
    """
    _check_player_index(instance, player)
    pool = restrict_available(instance, available)
    if budget is None:
        return _best_response_cached(instance, player, pool)
    (chosen,), value = _joint_best(instance, (player,), pool,
                                   SearchBudget.ensure(budget))
    return chosen, value


def deviation(instance: Instance, members: tuple[int, ...],
              pool: Iterable[str], held: Fraction, factor: Fraction,
              budget: SearchBudget | None) -> Optional[DeviationWitness]:
    """The members' best reply in `pool` when it beats `factor` times
    their `held` weight, else None."""
    if len(members) == 1:
        chosen, value = best_response(instance, members[0], pool, budget)
        proposed = (chosen,)
    else:
        proposed, value = coalition_best_response(instance, members, pool, budget)
    if within_alpha(factor, held, value):
        return None
    return DeviationWitness(members, proposed, held, value)


def is_alpha_best_response(instance: Instance, player: int,
                           available: Iterable[str], chosen: Iterable[str],
                           alpha, budget: int | SearchBudget | None = None
                           ) -> Union[bool, DeviationWitness]:
    """Whether `chosen` is within a factor alpha of the best available set.

    The candidate pool is `available` united with `chosen`: a deviating
    player may always keep its own items.  Returns True, or the maximizing
    deviation as a witness (check the result with `is True`).
    """
    _check_player_index(instance, player)
    factor = check_alpha(alpha)
    budget = budget if budget is None else SearchBudget.ensure(budget)
    held = restrict_available(instance, chosen)
    if not instance.players[player].is_member(held, budget):
        raise InputError(
            f"chosen set {sorted(held)} is not feasible for player {player + 1}")
    pool = restrict_available(instance, available) | held
    return deviation(instance, (player,), pool, instance.weight_of(held),
                     factor, budget) or True


def coalition_best_response(instance: Instance, coalition: Iterable[int],
                            available: Iterable[str],
                            budget: int | SearchBudget | None = None
                            ) -> tuple[tuple[frozenset[str], ...], Fraction]:
    """Best joint reallocation of `available` among the coalition members.

    Returns pairwise-disjoint feasible sets, one per member in ascending
    player order, maximizing the joint weight.  Exhaustive item-to-member
    assignment search with infeasible-set and remaining-weight pruning.
    """
    members = tuple(sorted(set(int(i) for i in coalition)))
    if not members:
        raise InputError("coalition must be nonempty")
    for member in members:
        _check_player_index(instance, member)
    return _joint_best(instance, members, restrict_available(instance, available),
                       SearchBudget.ensure(budget))
