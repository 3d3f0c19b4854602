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
held weight must reach the best reply's weight, ties passing.  Scaling
every weight by one constant keeps that rule, so the verifiers compare
weights on the instance's integer scale (`Instance.integer_weights`)
and build `Fraction`s only for returned values and witnesses.
`deviation` asks one search, `_reply`, for one member or more, so the
k = 1 collusion check is the Nash check.  Every call spends one
`SearchBudget`, the caller's or a default one.  Each instance remembers
its replies for its life (`Instance._memo`), for any number of members
and under any budget; a repeat is charged the nodes its search spent, so
every node count and budget error is as if the search ran again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .budget import SearchBudget
from .errors import InputError, _fraction
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
    return _fraction(alpha, name="alpha", minimum=1)


def within_alpha(factor: Fraction, held, best) -> bool:
    """Whether `held` is within `factor` of `best`, ties included; the two
    weights on one scale."""
    return factor.numerator * held >= best * factor.denominator


def _joint_best(instance: Instance, members: tuple[int, ...],
                available: Iterable[str], budget: SearchBudget
                ) -> tuple[tuple[frozenset[str], ...], int]:
    """Best disjoint member sets from `available` by branch and bound, and
    their weight on the instance's integer scale.

    One member takes the first best set in pre-order, the lexicographically
    smallest; several compare the tuple of sorted sets on ties.
    """
    _best_response_cached.misses += 1
    ids = sorted(available)
    weight, _ = instance.integer_weights
    tests = [instance.players[m].is_member for m in members]
    key = None if len(members) == 1 else (
        lambda sets: tuple(tuple(sorted(s)) for s in sets))
    return best(ids, [weight[i] for i in ids], tests, budget, key=key)


class _ReplyCounts:
    """How many replies `_reply` gave in this process and how many of them
    `_joint_best` searched: two integers, referencing no instance."""

    asked = misses = 0

    @property
    def hits(self) -> int:
        return self.asked - self.misses

    def cache_info(self) -> "_ReplyCounts":
        return self


# Read only by `perfbench/tracing.py`, which looks up this name and calls
# `cache_info()`, as it would on an `lru_cache`.
_best_response_cached = _ReplyCounts()


def _reply(instance: Instance, members: tuple[int, ...],
           pool: frozenset[str], budget: SearchBudget
           ) -> tuple[tuple[frozenset[str], ...], int]:
    """The members' best sets in `pool` and their integer-scaled weight,
    recalled from the instance's memo (`_Memo.recall`, table `replies`)
    under the members' kinds and the pool: players of one kind have equal
    systems, so their searches spend alike and return alike."""
    memo = instance._memo
    _best_response_cached.asked += 1
    return memo.recall(
        memo.replies, (tuple(map(memo.kinds.__getitem__, members)),
                       memo.mask(pool)), budget,
        lambda: _joint_best(instance, members, pool, budget))


def best_response(instance: Instance, player: int, available: Iterable[str],
                  budget: int | SearchBudget | None = None
                  ) -> tuple[frozenset[str], Fraction]:
    """Maximum-weight feasible subset of `available` for one player.

    Returns the set and its weight.  The instance remembers the reply
    (`_reply`) for its life, so a repeat, here or in any verifier, is
    charged the nodes of the search it replaces.
    """
    _check_player_index(instance, player)
    pool = restrict_available(instance, available)
    (chosen,), value = _reply(instance, (player,), pool,
                              SearchBudget.ensure(budget))
    return chosen, Fraction(value, instance.integer_weights[1])


def deviation(instance: Instance, members: tuple[int, ...],
              pool: frozenset[str], held: int, factor: Fraction,
              budget: SearchBudget) -> Optional[DeviationWitness]:
    """The members' best reply in `pool` when it beats `factor` times
    their `held` weight, else None.

    `held` is an integer on the scale of `Instance.integer_weights` (as
    `scaled_weight_of` gives it); the witness carries both weights as
    `Fraction`s.
    """
    proposed, value = _reply(instance, members, pool, budget)
    if within_alpha(factor, held, value):
        return None
    scale = instance.integer_weights[1]
    return DeviationWitness(members, proposed, Fraction(held, scale),
                            Fraction(value, scale))


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
    budget = SearchBudget.ensure(budget)
    held = restrict_available(instance, chosen)
    if not instance.players[player].is_member(held, budget):
        raise InputError(
            f"chosen set {sorted(held)} is not feasible for player {player + 1}")
    pool = restrict_available(instance, available) | held
    return deviation(instance, (player,), pool,
                     instance.scaled_weight_of(held), factor, budget) or True


def coalition_best_response(instance: Instance, coalition: Iterable[int],
                            available: Iterable[str],
                            budget: int | SearchBudget | None = None
                            ) -> tuple[tuple[frozenset[str], ...], Fraction]:
    """Best joint reallocation of `available` among the coalition members.

    Returns pairwise-disjoint feasible sets, one per member in ascending
    player order, maximizing the joint weight.  Exhaustive item-to-member
    assignment search with infeasible-set and remaining-weight pruning,
    remembered on the instance as `best_response` replies are (`_reply`).
    """
    members = tuple(sorted({_check_player_index(instance, member)
                            for member in coalition}))
    if not members:
        raise InputError("coalition must be nonempty")
    proposed, value = _reply(
        instance, members, restrict_available(instance, available),
        SearchBudget.ensure(budget))
    return proposed, Fraction(value, instance.integer_weights[1])
