"""Equilibrium concepts: approximate Nash, sequential (subgame perfect)
outcomes, and coalition-proof (k-collusion) profiles.

Sequential outcomes exploit the payoff structure of set packing games:
once a player moves, rational later players cannot touch its items, so a
node's value for the mover is decided by the per-node optimum and
backward induction collapses to forward branching over the actions that
are within a factor alpha of that optimum.

Nash enumeration walks the search kernel (`search.py`): the pre-order
of one player's tree lists that player's feasible sets, and the
post-order of the players' joint tree lists assignments in the output
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterable, Optional

from .budget import SearchBudget
from .errors import InputError
from .best_response import (DeviationWitness, best_response, check_alpha,
                            coalition_best_response, is_alpha_best_response)
from .feasibility import max_cardinality_feasible
from .model import Instance, Profile, welfare
from .search import walk


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of one equilibrium verification.

    A False verdict always carries a witness that can be replayed through
    payoffs and feasibility checks.
    """

    concept: str
    alpha: Fraction
    verdict: bool
    welfare: Fraction
    witness: Optional[DeviationWitness] = None
    k: Optional[int] = None
    order: Optional[tuple[int, ...]] = None


def check_order(instance: Instance, order: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(i) for i in order)
    if sorted(out) != list(range(instance.n)):
        raise InputError(
            f"order {out} is not a permutation of 0..{instance.n - 1}")
    return out


def verify_nash(instance: Instance, profile: Profile, alpha,
                budget: int | SearchBudget | None = None) -> EquilibriumReport:
    """Check the approximate unilateral-deviation condition for every player."""
    factor = check_alpha(alpha)
    total = welfare(instance, profile)
    for player in range(instance.n):
        others: set[str] = set()
        for k in range(instance.n):
            if k != player:
                others |= profile.items_of(k)
        available = instance.item_ids - others
        result = is_alpha_best_response(instance, player, available,
                                        profile.items_of(player), factor, budget)
        if result is not True:
            return EquilibriumReport(concept="nash", alpha=factor, verdict=False,
                                     welfare=total, witness=result)
    return EquilibriumReport(concept="nash", alpha=factor, verdict=True,
                             welfare=total)


def enumerate_nash(instance: Instance, alpha,
                   budget: int | SearchBudget | None = None
                   ) -> tuple[Profile, ...]:
    """All valid profiles satisfying the approximate Nash condition.

    Iterates item-to-player assignments (each item goes to one player or
    to nobody), never extending a player's set beyond its feasible sets.
    The order of the returned profiles follows the lexicographic
    assignment order with players before "nobody".
    """
    factor = check_alpha(alpha)
    shared = SearchBudget.ensure(budget)
    ids = instance.ordered_ids
    weight, _ = instance.integer_weights
    weights = [weight[i] for i in ids]
    shared.require((instance.n + 1) ** len(ids))
    families = []
    for system in instance.players:
        family = walk(ids, weights, [system.is_member], shared)
        families.append({T: value for (T,), value in family})

    @cache
    def top(player: int, available: frozenset[str]) -> int:
        return max(value for T, value in families[player].items()
                   if T <= available)

    out: list[Profile] = []
    tests = [lambda T, _, family=family: T in family for family in families]
    for sets, _ in walk(ids, weights, tests, shared, post=True):
        free = instance.item_ids.difference(*sets)
        if all(factor * families[player][T] >= top(player, free | T)
               for player, T in enumerate(sets)):
            out.append(Profile(sets))
    return tuple(out)


def greedy_sequential_outcome(instance: Instance, order: Iterable[int],
                              alpha=Fraction(1), selector: str = "exact",
                              budget: int | SearchBudget | None = None
                              ) -> Profile:
    """One pass of sequential play in `order`.

    selector "exact": each player takes its best response among the
    remaining items.  selector "deadline": each player scans remaining
    jobs by decreasing deadline, determines the maximum allocatable count
    m, and takes the first ceil(m / alpha) jobs of that scan; this
    requires a scheduling instance with equal item weights.
    """
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    shared = SearchBudget.ensure(budget)
    remaining = set(instance.item_ids)
    sets: list[frozenset[str]] = [frozenset() for _ in range(instance.n)]

    if selector == "exact":
        for player in sequence:
            chosen, _ = best_response(instance, player, frozenset(remaining), shared)
            sets[player] = chosen
            remaining -= chosen
    elif selector == "deadline":
        if len({instance.weights[i] for i in instance.item_ids}) > 1:
            raise InputError("deadline selector requires equal item weights")
        for player in sequence:
            scan = max_cardinality_feasible(instance.players[player],
                                            frozenset(remaining),
                                            prefer_largest_deadline=True,
                                            budget=shared)
            take = math.ceil(Fraction(len(scan)) / factor)
            chosen = frozenset(scan[:take])
            sets[player] = chosen
            remaining -= chosen
    else:
        raise InputError(f"unknown selector {selector!r}")
    return Profile(tuple(sets))


def enumerate_spe_outcomes(instance: Instance, order: Iterable[int], alpha,
                           budget: int | SearchBudget | None = None
                           ) -> tuple[Profile, ...]:
    """All outcomes of approximately optimal sequential play under `order`.

    At each node the mover may take any feasible subset of the remaining
    items whose weight is within a factor alpha of the node optimum; the
    outcomes of all such choice combinations are collected.  Subtrees are
    shared across nodes with equal remaining-item sets.  The mover's sets
    come in lexicographic order from the kernel's one-member pre-order,
    with the instance's integer weights; the alpha test compares
    cross-multiplied integers.
    """
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    shared = SearchBudget.ensure(budget)
    n = instance.n
    weight, _ = instance.integer_weights
    memo: dict[tuple[int, frozenset[str]],
               tuple[tuple[frozenset[str], ...], ...]] = {}

    def completions(depth: int, available: frozenset[str]
                    ) -> tuple[tuple[frozenset[str], ...], ...]:
        if depth == n:
            return ((),)
        key = (depth, available)
        cached = memo.get(key)
        if cached is not None:
            return cached
        system = instance.players[sequence[depth]]
        ids = sorted(available & system.universe())
        weighted = list(walk(ids, [weight[i] for i in ids], [system.is_member],
                             shared))
        node_optimum = max(value for _, value in weighted)
        out: list[tuple[frozenset[str], ...]] = []
        for (action,), value in weighted:
            if factor.numerator * value < node_optimum * factor.denominator:
                continue
            shared.spend()
            for tail in completions(depth + 1, available - action):
                out.append((action,) + tail)
        memo[key] = tuple(out)
        return memo[key]

    profiles = []
    for choice in completions(0, instance.item_ids):
        sets: list[frozenset[str]] = [frozenset() for _ in range(n)]
        for position, action in enumerate(choice):
            sets[sequence[position]] = action
        profiles.append(Profile(tuple(sets)))
    return tuple(profiles)


def verify_spe_outcome(instance: Instance, profile: Profile,
                       order: Iterable[int], alpha,
                       budget: int | SearchBudget | None = None
                       ) -> EquilibriumReport:
    """Whether a profile is realizable by approximately optimal sequential
    play under `order`: every player's set must be within a factor alpha
    of its node optimum along the play path."""
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    total = welfare(instance, profile)
    available = set(instance.item_ids)
    for player in sequence:
        chosen = profile.items_of(player)
        best_set, best_value = best_response(instance, player,
                                             frozenset(available), budget)
        held_value = instance.weight_of(chosen)
        if factor * held_value < best_value:
            witness = DeviationWitness(players=(player,), proposed=(best_set,),
                                       old_value=held_value, new_value=best_value)
            return EquilibriumReport(concept="spe", alpha=factor, verdict=False,
                                     welfare=total, witness=witness,
                                     order=sequence)
        available -= chosen
    return EquilibriumReport(concept="spe", alpha=factor, verdict=True,
                             welfare=total, order=sequence)


def verify_collusion(instance: Instance, profile: Profile, k: int, alpha,
                     budget: int | SearchBudget | None = None
                     ) -> EquilibriumReport:
    """Check the joint-deviation condition for every coalition of at most
    k players.

    A coalition may reallocate its own items plus all unclaimed items.
    Coalitions are examined in lexicographic order by size; verification
    stops at the first violation, while a True verdict means all
    coalitions were checked.
    """
    factor = check_alpha(alpha)
    if not 1 <= k <= instance.n:
        raise InputError(f"k must be between 1 and {instance.n}, got {k}")
    total = welfare(instance, profile)
    shared = SearchBudget.ensure(budget)
    unclaimed = instance.item_ids - profile.all_items()

    for size in range(1, k + 1):
        for coalition in combinations(range(instance.n), size):
            held: set[str] = set()
            for member in coalition:
                held |= profile.items_of(member)
            pool = frozenset(held) | unclaimed
            proposed, joint_value = coalition_best_response(
                instance, coalition, pool, shared)
            held_value = instance.weight_of(held)
            if factor * held_value < joint_value:
                witness = DeviationWitness(players=coalition, proposed=proposed,
                                           old_value=held_value,
                                           new_value=joint_value)
                return EquilibriumReport(concept="collusion", alpha=factor,
                                         verdict=False, welfare=total,
                                         witness=witness, k=k)
    return EquilibriumReport(concept="collusion", alpha=factor, verdict=True,
                             welfare=total, k=k)
