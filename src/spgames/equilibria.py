"""Equilibrium concepts: approximate Nash, sequential (subgame perfect)
outcomes, and coalition-proof (k-collusion) profiles.

Sequential outcomes exploit the payoff structure of set packing games:
once a player moves, rational later players cannot touch its items, so a
node's value for the mover is decided by the per-node optimum and
backward induction collapses to forward branching over the actions that
are within a factor alpha of that optimum (`_acceptable`, the one rule
for a node's actions).  Each instance remembers the walk behind these
actions for its life (`Instance._memo`), keyed on the mover's kind and
the items left as a mask; alpha only filters the walk's sets.  A repeat
is charged the nodes its walk spent, so every node count and budget
error is as if the walk ran again.
`enumerate_spe_outcomes` lists every outcome of one order.
`least_sequential_outcome`, the worst outcome of
`metrics.empirical_sequential_poa`, lists none: it takes a minimum over
the same branching, memoised on the sequence of systems still to move,
and examines one order per class of orders with the same sequence.

Nash and k-collusion profiles come from one walk of the search kernel
(`search.py`) in `_equilibria`: the pre-order of one player's tree lists
its feasible sets, and the post-order of the players' joint tree lists
assignments in the output order.  Branch and bound drops a subtree where
some player can no longer be alpha-satisfied, or where every leaf reaches
a caller's bound on welfare.  Asked after an assignment's last item, the
prune is the Nash test, then asks the coalitions of 2..k players.
`enumerate_nash` and `enumerate_collusion` list the profiles;
`worst_equilibrium` lowers the bound to each one, and walks relabelled
assignments once when all players share one system.

Every verifier asks `best_response.deviation`, the one alpha rule (a
tie passes), for a reply from the items no outsider holds (Nash,
collusion) or those left when the player moves (SPE).  It compares
weights on the instance's integer scale (`Instance.scaled_weight_of`);
only the welfare and a witness's values are built as `Fraction`s.  For
one player the former are its own items plus the unclaimed ones, so the
Nash check is the collusion check at k = 1.  Each verifier spends one
`SearchBudget` per call, the caller's or a default one, on its validation
and on every reply.  The instance remembers the replies as it does the
SPE actions, and charges a repeat the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Optional

from .budget import SearchBudget
from .errors import InputError, _integer
from .best_response import (DeviationWitness, best_response, check_alpha,
                            deviation, within_alpha)
from .feasibility import max_cardinality_feasible
from .model import Instance, Profile, welfare
from .search import Sets, walk

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
    out = tuple(_integer(i, name="order entry") for i in order)
    if sorted(out) != list(range(instance.n)):
        raise InputError(
            f"order {out} is not a permutation of 0..{instance.n - 1}")
    return out


def check_k(instance: Instance, k: int) -> None:
    if not 1 <= _integer(k, name="k") <= instance.n:
        raise InputError(f"k must be between 1 and {instance.n}, got {k}")


def verify_nash(instance: Instance, profile: Profile, alpha,
                budget: int | SearchBudget | None = None) -> EquilibriumReport:
    """Check the approximate unilateral-deviation condition for every player."""
    factor = check_alpha(alpha)
    budget = SearchBudget.ensure(budget)
    total = welfare(instance, profile, budget)
    witness = _first_deviation(instance, profile, 1, 1, factor, budget)
    return EquilibriumReport("nash", factor, witness is None, total, witness)


def _equilibria(instance: Instance, factor: Fraction, k: int,
                budget: SearchBudget, least: list[Optional[int]],
                interchangeable: bool = False
                ) -> Iterator[tuple[Sets, int]]:
    """Yield (sets, integer welfare) of every approximate k-collusion
    profile (Nash at k = 1) below the welfare `least[0]` (None: no bound),
    which the caller may lower between profiles, in `enumerate_nash` order.

    Each distinct system's feasible sets are walked once, as the family of
    every player of its kind (`kinds` of the instance's memo).  Then a
    branch and bound over the joint tree in post-order: call the items
    before `item` that nobody holds "skipped"; they stay free below the
    node.  So in any Nash leaf below it, player i holds at least w(S_i)
    and top(i, skipped | S_i) / alpha, where `top(p, pool)`, memoised per
    system, is p's best weight within `pool`.  A node is dropped when some
    player cannot reach alpha-satisfaction even with every undecided item
    it can hold, or when the sum of those lower bounds reaches `least[0]`:
    later leaves lose ties in post-order; the sum is never below alpha
    times the node's welfare.  After a node's last item nothing is
    undecided and `skipped` is every free item, so the prune is the Nash
    test and the welfare bound; a node passing both then faces the
    coalitions of 2..k players (k >= 2).  `interchangeable` (all players
    have one system) walks relabelled assignments once.
    """
    ids = instance.ordered_ids
    weight, _ = instance.integer_weights
    weights = [weight[i] for i in ids]
    kind = instance._memo.kinds
    families: list[dict[frozenset[str], int]] = []
    for player, first in enumerate(kind):
        families.append(families[first] if first < player else {
            T: value for (T,), value in walk(
                ids, weights, [instance.players[player].is_member], budget)})
    tops: dict[tuple[int, frozenset[str]], int] = {}

    def top(player: int, available: frozenset[str]) -> int:
        key = kind[player], available
        found = tops.get(key)
        if found is None:
            found = tops[key] = max(value for T, value
                                    in families[player].items()
                                    if T <= available)
        return found

    num, den = factor.numerator, factor.denominator
    before = [frozenset(ids[:item]) for item in range(len(ids) + 1)]
    reach = []  # reach[p][item]: weight of the items from `item` on p can hold
    for family in families:
        universe = frozenset().union(*family)
        reach.append(list(accumulate(
            reversed([w if i in universe else 0
                      for i, w in zip(ids, weights)]), initial=0))[::-1])

    def prune(sets: Sets, value: int, item: int) -> bool:
        if least[0] is not None and value >= least[0]:
            return True
        skipped = before[item].difference(*sets)
        bound = 0
        for player, T in enumerate(sets):
            held, best = families[player][T], top(player, skipped | T)
            if not within_alpha(factor, held + reach[player][item], best):
                return True
            bound += max(num * held, den * best)
        if least[0] is not None and bound >= num * least[0]:
            return True
        return item == len(ids) and k > 1 and _first_deviation(
            instance, Profile(sets), 2, k, factor, budget) is not None

    tests = [lambda T, _, family=family: T in family for family in families]
    yield from walk(ids, weights, tests, budget, post=True, prune=prune,
                    interchangeable=interchangeable)


def enumerate_nash(instance: Instance, alpha,
                   budget: int | SearchBudget | None = None
                   ) -> tuple[Profile, ...]:
    """All valid profiles satisfying the approximate Nash condition: the
    pruned walk of `_equilibria` at k = 1 over item-to-player assignments
    (each item to one player or to nobody).  Profiles come in the
    lexicographic assignment order with players before "nobody".
    """
    return enumerate_collusion(instance, 1, alpha, budget)


def enumerate_collusion(instance: Instance, k: int, alpha,
                        budget: int | SearchBudget | None = None
                        ) -> tuple[Profile, ...]:
    """The profiles of `enumerate_nash` that pass `verify_collusion` at k,
    in the same order, listed by the same walk."""
    check_k(instance, k)
    factor = check_alpha(alpha)
    return tuple(Profile(sets) for sets, _ in _equilibria(
        instance, factor, k, SearchBudget.ensure(budget), [None]))


def worst_equilibrium(instance: Instance, alpha, k: int = 1,
                      budget: int | SearchBudget | None = None
                      ) -> tuple[Profile, Fraction]:
    """The first least-welfare approximate k-collusion profile (Nash at
    k = 1) in the order of `enumerate_nash`, and its welfare.

    `_equilibria` with its bound lowered to each profile it yields, so the
    last one yielded is the answer.  When every player has the same
    system, relabelled assignments are walked once; the first
    least-welfare profile is the first of its relabellings, so it is
    among those walked.
    """
    factor = check_alpha(alpha)
    check_k(instance, k)
    least: list[Optional[int]] = [None]
    interchangeable = not any(instance._memo.kinds)
    found = None
    for sets, value in _equilibria(instance, factor, k,
                                   SearchBudget.ensure(budget), least,
                                   interchangeable):
        least[0], found = value, sets
    if found is None:
        raise RuntimeError("no equilibrium found, though one always exists")
    return Profile(found), Fraction(least[0], instance.integer_weights[1])


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
    items whose weight is within a factor alpha of the node optimum
    (`_acceptable`); the outcomes of all such choice combinations are
    collected depth first, actions in lexicographic order.  Subtrees are
    shared across nodes with equal remaining-item sets within the call;
    a node's actions are remembered on the instance across calls and
    orders, each reuse spending the nodes of the walk it replaces.
    """
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    budget = SearchBudget.ensure(budget)
    n = instance.n

    @cache
    def completions(depth: int, available: frozenset[str]) -> tuple[Sets, ...]:
        if depth == n:
            return ((),)
        out: list[Sets] = []
        for action, _ in _acceptable(instance, sequence[depth], available,
                                     factor, budget):
            budget.spend()
            out.extend((action,) + tail
                       for tail in completions(depth + 1, available - action))
        return tuple(out)

    turn = [sequence.index(player) for player in range(n)]
    return tuple(Profile(tuple(choice[t] for t in turn))
                 for choice in completions(0, instance.item_ids))


def least_sequential_outcome(instance: Instance, factor: Fraction,
                             budget: SearchBudget) -> tuple[Sets, int]:
    """The first least-welfare outcome of `enumerate_spe_outcomes` over all
    orders in `permutations` order: the players' sets and their welfare on
    the instance's integer weights.

    Orders that give the same sequence of systems have the same outcomes,
    in the same order, up to relabelling, so only the first order of each
    class is examined (`_first_orders`), and a strict `<` keeps the first
    class.  `least(kinds, available)`, memoised on that key across
    classes, is the least welfare the movers of `kinds` reach from
    `available`: the minimum, over the first mover's acceptable actions,
    of the action's value plus the rest's, where a strict `<` keeps the
    first argmin in depth-first order.  An action whose own value reaches
    the least so far is skipped without spending a node, since the rest
    adds a welfare of at least 0; every other action spends one.
    """
    kind = instance._memo.kinds

    @cache
    def least(kinds: tuple[int, ...], available: frozenset[str]
              ) -> tuple[int, Sets]:
        if not kinds:
            return 0, ()
        found: Optional[tuple[int, Sets]] = None
        for action, value in _acceptable(instance, kinds[0], available,
                                         factor, budget):
            if found is not None and value >= found[0]:
                continue
            budget.spend()
            rest, tail = least(kinds[1:], available - action)
            if found is None or value + rest < found[0]:
                found = value + rest, (action,) + tail
        return found

    found = None
    for order in _first_orders(kind):
        value, choice = least(tuple(kind[p] for p in order), instance.item_ids)
        if found is None or value < found[0]:
            found = value, order, choice
    value, order, choice = found
    return tuple(choice[order.index(player)]
                 for player in range(instance.n)), value


def _first_orders(kind: list[int], order: tuple[int, ...] = ()
                  ) -> Iterator[tuple[int, ...]]:
    """The first order of each class of player orders with one sequence of
    `kind`s, in `permutations` order, extending `order`.

    Each position tries, in player order, the lowest-index unused player
    of each kind, so no two orders of a class are met and the n! orders
    are never walked.
    """
    if len(order) == len(kind):
        yield order
    tried = set()
    for player in range(len(kind)):
        if player not in order and kind[player] not in tried:
            tried.add(kind[player])
            yield from _first_orders(kind, order + (player,))


def _acceptable(instance: Instance, player: int, available: frozenset[str],
                factor: Fraction, budget: SearchBudget
                ) -> list[tuple[frozenset[str], int]]:
    """The sets of `available` the mover may take: `player`'s feasible sets
    in lexicographic order (the kernel's one-member pre-order), with their
    integer weights, kept when within a factor alpha of the best.

    The walk does not depend on alpha; only the filter after it does.  So
    the instance's memo recalls each walk (`_Memo.recall`, table
    `acceptable`) under the player's kind and `available`: its optimum
    and every (set mask, integer weight) pair in pre-order.  Every call
    filters the pairs by alpha, then decodes the kept masks.
    """
    memo = instance._memo
    weight, _ = instance.integer_weights
    system = instance.players[player]

    def search() -> tuple[int, tuple[tuple[int, int], ...]]:
        ids = sorted(available & system.universe())
        walked = tuple((memo.mask(action), value) for (action,), value in walk(
            ids, [weight[i] for i in ids], [system.is_member], budget))
        return max(value for _, value in walked), walked

    optimum, walked = memo.recall(
        memo.acceptable, (memo.kinds[player], memo.mask(available)), budget,
        search)
    ids = instance.ordered_ids
    return [(frozenset(ids[j] for j in range(mask.bit_length())
                       if mask >> j & 1), value)
            for mask, value in walked if within_alpha(factor, value, optimum)]


def verify_spe_outcome(instance: Instance, profile: Profile,
                       order: Iterable[int], alpha,
                       budget: int | SearchBudget | None = None
                       ) -> EquilibriumReport:
    """Whether a profile is realizable by approximately optimal sequential
    play under `order`: every player's set must be within a factor alpha
    of its node optimum along the play path."""
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    budget = SearchBudget.ensure(budget)
    total = welfare(instance, profile, budget)
    available = instance.item_ids
    for player in sequence:
        chosen = profile.items_of(player)
        witness = deviation(instance, (player,), available,
                            instance.scaled_weight_of(chosen), factor, budget)
        if witness:
            break
        available -= chosen
    return EquilibriumReport("spe", factor, witness is None, total, witness,
                             order=sequence)


def _first_deviation(instance: Instance, profile: Profile, start: int, k: int,
                     factor: Fraction, budget: SearchBudget
                     ) -> Optional[DeviationWitness]:
    """The first deviation of a coalition of `start` to k players, by size
    then in order."""
    unclaimed = instance.item_ids - profile.all_items()
    for size in range(start, k + 1):
        for coalition in combinations(range(instance.n), size):
            held = frozenset().union(*map(profile.items_of, coalition))
            witness = deviation(instance, coalition, held | unclaimed,
                                instance.scaled_weight_of(held), factor,
                                budget)
            if witness:
                return witness
    return None


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
    check_k(instance, k)
    shared = SearchBudget.ensure(budget)
    total = welfare(instance, profile, shared)
    witness = _first_deviation(instance, profile, 1, k, factor, shared)
    return EquilibriumReport("collusion", factor, witness is None, total,
                             witness, k=k)
