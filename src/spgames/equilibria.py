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
is charged as `_Memo.recall` states, so every node count and budget
error is as if the walk ran again.  The branching carries the items
left as a mask and takes actions as masks; only the outcomes it returns
are spelt out.
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
prune is the Nash test, then asks the coalitions of 2..k players.  A
coalition's joint reply weighs at most the sum of its members' single
best weights in its pool, so when alpha times what the coalition holds
reaches that sum, it cannot deviate and asks no joint reply
(`_first_deviation`); the walk reads those single weights from its kept
families, the verifier from one-member replies.
`enumerate_nash` and `enumerate_collusion` list the profiles;
`worst_equilibrium` lowers the bound to each one, and such a bounded
walk reads the game's symmetries from the instance's memo
(`model._Memo`): it walks relabelled assignments once when all players
share one system, and assignments that permute repeated items once.
The walk and its prune work on item masks.  Each kind's family, with
its best weight within each pool and the weight it can reach from each
item on, is kept on the memo too, so every k, alpha and call on the
instance shares them.

Every verifier applies one alpha rule (a tie passes,
`best_response.within_alpha`) to a reply from the items no outsider
holds (Nash, collusion) or those left when the player moves (SPE).
`verify_spe_outcome`, like `is_alpha_best_response`, asks
`best_response.deviation` for it; the Nash and collusion checks
(`_first_deviation`) ask `_reply` and compare its weight inline.  For
one player the items no outsider holds are its own plus the unclaimed
ones, so the Nash check is the collusion check at k = 1.  A verifier
validates the profile by the pass behind `welfare` and
`validate_profile` (`model._packing`), which masks each set once, over
`ordered_ids` with its weight on the instance's integer scale
(`Instance.integer_weights`), and tests it on its mask by its kind's
one mask test (`_Memo.test`).  The verifier takes those masks and
weights: every pool is then a union or difference of masks and every
held weight an integer sum; only the welfare and a witness are built
as `Fraction`s and frozensets.  Each verifier spends one `SearchBudget`
per call, the caller's or a default one, on its validation and on
every reply.  The instance remembers the
replies as it does the SPE actions, and every reply, the coalition
checks' (`_first_deviation`) too, is read through `best_response._reply`,
so a repeat is charged by `_Memo.recall`'s one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .budget import SearchBudget
from .errors import InputError, _integer
from .best_response import (DeviationWitness, _reply, _witness, check_alpha,
                            deviation)
# Unused here, but `perfbench/selftest.py` checks that this binding is traced.
from .best_response import best_response  # noqa: F401
from .feasibility import _mask_scan
from .model import Instance, Profile, _packing
from .search import Sets, spell, walk

# One set per player, as a sequential outcome hands them out.
Choice = tuple[frozenset[str], ...]


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
    total, sets, weights = _packing(instance, profile, budget, masked=True)
    witness = _first_deviation(instance, sets, weights, 1, 1, factor, budget)
    return EquilibriumReport("nash", factor, witness is None, total, witness)


def _equilibria(instance: Instance, factor: Fraction, k: int,
                budget: SearchBudget,
                least: Optional[list[Optional[int]]] = None
                ) -> Iterator[tuple[Sets, int]]:
    """Yield (set masks over `ordered_ids`, integer welfare) of every
    approximate k-collusion profile (Nash at k = 1) in `enumerate_nash`
    order; with `least`, only those below the welfare `least[0]` (None:
    no bound yet), which the caller may lower between profiles.

    Each player's family is its kind's (`kinds` of the instance's memo):
    every feasible set as a mask with its weight, from one walk the memo
    keeps (`_Memo.families`, read by `_Memo.recall`), in descending
    weight, with the kind's reach: for each item, the weight of the items
    from it on that some set of the family holds.  Then a branch and
    bound over the joint tree in post-order: call the items before `item`
    that nobody holds "skipped"; they stay free below the node.  So in
    any Nash leaf below it, player i holds at least w(S_i) and
    top(i, skipped | S_i) / alpha, where top is i's best weight within
    that pool: the first set of the family inside it, kept per pool
    beside the kind's family.  A node is dropped when some player cannot
    reach alpha-satisfaction even with every undecided item it can hold,
    or when the sum of those lower bounds reaches `least[0]`: later
    leaves lose ties in post-order; the sum is never below alpha times
    the node's welfare.  After a node's last item nothing is undecided
    and `skipped` is every free item, so the prune is the Nash test and
    the welfare bound; a node passing both then faces the coalitions of
    2..k players (k >= 2), asked on the node's masks and family weights.
    Each member's single best weight in a coalition's pool, which bounds
    the coalition's reply (`_first_deviation`), is read from its kind's
    tops by the Nash test's own lookup (`top`), so the bound spends no
    node.  The prune runs once per node and item: it reads each player's
    family, tops and reach by index from one tuple per table, and takes
    the members' union as their sum, since their sets are disjoint.  It
    spells out no set.  A bounded walk walks each orbit of the game's
    symmetries once: relabelled assignments when every player has one
    system (`_Memo.kinds`), and assignments that permute repeated items
    (`_Memo.previous`).  A listing walks every assignment.
    """
    ids = instance.ordered_ids
    weight, _ = instance.integer_weights
    weights = [weight[i] for i in ids]
    bits = [1 << j for j in range(len(ids))]
    memo = instance._memo
    kind = memo.kinds
    if least is None:
        least, interchangeable, previous = [None], False, None
    else:
        interchangeable, previous = not any(kind), memo.previous(ids)

    def family(player: int) -> tuple[dict[int, int], dict[int, int],
                                      list[int]]:
        walked = [(T, value) for (T,), value in walk(
            bits, weights, [memo.test(player)], budget)]
        members = dict(sorted(walked, key=lambda pair: -pair[1]))
        universe = reduce(or_, members)
        reach = list(accumulate(reversed(
            [w if universe & b else 0 for b, w in zip(bits, weights)]),
            initial=0))[::-1]
        return members, {}, reach

    families: list[tuple[dict[int, int], dict[int, int], list[int]]] = []
    for player, first in enumerate(kind):
        families.append(families[first] if first < player else memo.recall(
            memo.families, first, budget, family, first))
    # Per player: its family, its kind's tops (pool mask to best weight),
    # and reach[item], the weight of the items from `item` on that the
    # player can hold.
    held_of, tops_of, reach_of = zip(*families)
    players = range(instance.n)
    num, den = factor.numerator, factor.denominator
    size = len(ids)

    def top(player: int, pool: int) -> int:
        tops = tops_of[player]
        best = tops.get(pool)
        if best is None:
            for S, best in held_of[player].items():
                if S & pool == S:
                    break
            tops[pool] = best
        return best

    def prune(sets: Sets, value: int, item: int) -> bool:
        if least[0] is not None and value >= least[0]:
            return True
        # Member sets are disjoint, so their sum is their union.
        skipped = ((1 << item) - 1) & ~sum(sets)
        bound = 0
        # Indexing by player measured a little faster than enumerate here.
        for player in players:
            T = sets[player]
            held, pool = held_of[player][T], skipped | T
            # A kept top is read inline: this runs per node and player.
            best = tops_of[player].get(pool)
            if best is None:
                best = top(player, pool)
            if num * (held + reach_of[player][item]) < den * best:
                return True
            bound += max(num * held, den * best)
        if least[0] is not None and bound >= num * least[0]:
            return True
        return item == size and k > 1 and _first_deviation(
            instance, sets, [held_of[p][T] for p, T in enumerate(sets)],
            2, k, factor, budget, top) is not None

    tests = [lambda T, _, members=members: T in members
             for members in held_of]
    yield from walk(bits, weights, tests, budget, post=True, prune=prune,
                    interchangeable=interchangeable, previous=previous)


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
    ids = instance.ordered_ids
    return tuple(Profile._spelt(tuple(spell(T, ids) for T in sets))
                 for sets, _ in _equilibria(instance, factor, k,
                                            SearchBudget.ensure(budget)))


def worst_equilibrium(instance: Instance, alpha, k: int = 1,
                      budget: int | SearchBudget | None = None
                      ) -> tuple[Profile, Fraction]:
    """The first least-welfare approximate k-collusion profile (Nash at
    k = 1) in the order of `enumerate_nash`, and its welfare.

    `_equilibria` with its bound lowered to each profile it yields, so the
    last one yielded is the answer.  When every player has the same
    system, relabelled assignments are walked once, and assignments that
    permute repeated items are walked once (`_Memo.previous`).  Both are
    symmetries of the game, so the first least-welfare profile is the
    first of its orbit under them, and it is among those walked.
    """
    factor = check_alpha(alpha)
    check_k(instance, k)
    least: list[Optional[int]] = [None]
    found = None
    for sets, value in _equilibria(instance, factor, k,
                                   SearchBudget.ensure(budget), least):
        least[0], found = value, sets
    if found is None:
        raise RuntimeError("no equilibrium found, though one always exists")
    ids = instance.ordered_ids
    return (Profile._spelt(tuple(spell(T, ids) for T in found)),
            Fraction(least[0], instance.integer_weights[1]))


def greedy_sequential_outcome(instance: Instance, order: Iterable[int],
                              alpha=Fraction(1), selector: str = "exact",
                              budget: int | SearchBudget | None = None
                              ) -> Profile:
    """One pass of sequential play in `order`.

    selector "exact": each player takes its best response among the
    remaining items (`best_response._reply`).  selector "deadline": each
    player scans remaining jobs by decreasing deadline, determines the
    maximum allocatable count m, and takes the first ceil(m / alpha) jobs
    of that scan (`max_cardinality_feasible`); this requires a scheduling
    instance with equal item weights, compared on the instance's
    `integer_weights`.  Either way the items left are one mask, bit j
    for `ordered_ids[j]`; each kind of player scans it by one
    `feasibility._mask_scan`, built once per call.  On zero-release
    machines with one processing time, that scan walks the kind's
    deadline classes, so a player's work follows the classes it looks at
    and the jobs it keeps, not the jobs left; a budget still counts one
    node per job left in the player's universe, paid in one spend.
    """
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    shared = SearchBudget.ensure(budget)
    sets: list[frozenset[str]] = [frozenset() for _ in range(instance.n)]

    ids = instance.ordered_ids
    left = (1 << len(ids)) - 1
    if selector == "exact":
        for player in sequence:
            (chosen,), _ = _reply(instance, (player,), left, shared)
            sets[player] = spell(chosen, ids)
            left &= ~chosen
    elif selector == "deadline":
        if len(set(instance.integer_weights[0].values())) > 1:
            raise InputError("deadline selector requires equal item weights")
        kinds = instance._memo.kinds
        scans: dict[int, Callable[[int, SearchBudget], list[int]]] = {}
        for player in sequence:
            kind = kinds[player]
            if kind not in scans:
                scans[kind] = _mask_scan(instance.players[kind], ids)
            bits = scans[kind](left, shared)
            taken = bits[:math.ceil(Fraction(len(bits)) / factor)]
            sets[player] = frozenset(ids[b.bit_length() - 1] for b in taken)
            left ^= sum(taken)
    else:
        raise InputError(f"unknown selector {selector!r}")
    return Profile._spelt(tuple(sets))


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
    orders, each reuse spending the nodes of the walk it replaces.  The
    branching runs on masks over `ordered_ids`: `completions` keys on the
    depth and the mask of the items left, and each distinct action is
    spelt once, when the outcomes are built.
    """
    sequence = check_order(instance, order)
    factor = check_alpha(alpha)
    budget = SearchBudget.ensure(budget)
    n = instance.n
    subtrees: dict[tuple[int, int], tuple[Sets, ...]] = {}

    def completions(depth: int, available: int) -> tuple[Sets, ...]:
        if depth == n:
            return ((),)
        found = subtrees.get((depth, available))
        if found is not None:
            return found
        out: list[Sets] = []
        for action, _ in _acceptable(instance, sequence[depth], available,
                                     factor, budget):
            budget.spend()
            out.extend((action,) + tail for tail in completions(
                depth + 1, available & ~action))
        found = subtrees[depth, available] = tuple(out)
        return found

    ids = instance.ordered_ids
    choices = completions(0, (1 << len(ids)) - 1)
    spelt = {mask: spell(mask, ids)
             for mask in {mask for choice in choices for mask in choice}}
    turn = [sequence.index(player) for player in range(n)]
    return tuple(Profile._spelt(tuple([spelt[choice[t]] for t in turn]))
                 for choice in choices)


def least_sequential_outcome(instance: Instance, factor: Fraction,
                             budget: SearchBudget) -> tuple[Choice, int]:
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
    adds a welfare of at least 0; every other action spends one.  Only
    actions that take the lowest-id available items of each class of
    repeated items are walked (`_acceptable` with `leaders`): swapping two
    class-mates in `available` maps the subgame onto itself, and moves the
    first argmin earlier unless it already takes the lower one.  The
    recursion runs on masks over `ordered_ids`, actions and the items
    left alike; only the returned choice is spelt out.
    """
    kind, ids = instance._memo.kinds, instance.ordered_ids
    subgames: dict[tuple[tuple[int, ...], int], tuple[int, Sets]] = {}

    def least(kinds: tuple[int, ...], available: int) -> tuple[int, Sets]:
        if not kinds:
            return 0, ()
        found = subgames.get((kinds, available))
        if found is not None:
            return found
        for action, value in _acceptable(instance, kinds[0], available,
                                         factor, budget, leaders=True):
            if found is not None and value >= found[0]:
                continue
            budget.spend()
            rest, tail = least(kinds[1:], available & ~action)
            if found is None or value + rest < found[0]:
                found = value + rest, (action,) + tail
        subgames[kinds, available] = found
        return found

    found = None
    for order in _first_orders(kind):
        value, choice = least(tuple(kind[p] for p in order),
                              (1 << len(ids)) - 1)
        if found is None or value < found[0]:
            found = value, order, choice
    value, order, choice = found
    return tuple(spell(choice[order.index(player)], ids)
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


def _acceptable(instance: Instance, player: int, available: int,
                factor: Fraction, budget: SearchBudget, leaders: bool = False
                ) -> list[tuple[int, int]]:
    """The sets of the `available` mask the mover may take: `player`'s
    feasible sets in lexicographic order (the kernel's one-member
    pre-order), as masks over `ordered_ids` with their integer weights,
    kept when within a factor alpha of the best.

    The walk does not depend on alpha; only the filter after it does.  So
    the instance's memo recalls each walk (`_Memo.recall`, table
    `acceptable`, charged by its rule) under the player's kind and
    `available`: its optimum and every (set mask, integer weight) pair in
    pre-order (`_actions`).  Every call keeps the pairs of weight at
    least ceil(optimum / alpha), which is `within_alpha` on integers.

    With `leaders`, only the sets that lead their orbit are walked: those
    that hold the class-mate before each of their items in the mover's
    pool (`_Memo.previous`), that is, the lowest-id items of each class.
    Each set is a swap of one of them of equal weight, so the optimum is
    the same.  Such a walk is recalled with True appended to the key.
    """
    memo = instance._memo
    key = ((memo.kinds[player], available, True) if leaders
           else (memo.kinds[player], available))
    optimum, walked = memo.recall(memo.acceptable, key, budget, _actions,
                                  instance, player, available, budget,
                                  leaders)
    least = -(-optimum * factor.denominator // factor.numerator)
    return [pair for pair in walked if pair[1] >= least]


def _actions(instance: Instance, player: int, available: int,
             budget: SearchBudget, leaders: bool,
             ids: Optional[list[str]] = None
             ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The walk behind `_acceptable`: the optimum of `player` in the
    `available` mask, and every (set mask, integer weight) pair in
    pre-order, each item walked with its bit over `ordered_ids`
    (`_Memo.bit`) and tested by the kind's kept test (`_Memo.test`), so
    the masks are kept as they come.  The pool is spelt only here, into
    `ids`, the pool's items in the player's universe in id order.  A
    leader walk of a pool without class-mates is the listing, so it
    recalls the listing's entry, which then holds the one walk for both
    keys; a miss there walks the `ids` already spelt."""
    memo = instance._memo
    if ids is None:
        ids = sorted(spell(available, instance.ordered_ids)
                     & instance.players[player].universe())
    previous = memo.previous(ids) if leaders else None
    if leaders and previous is None:
        return memo.recall(memo.acceptable, (memo.kinds[player], available),
                           budget, _actions, instance, player, available,
                           budget, False, ids)
    weight, _ = instance.integer_weights
    walked = tuple((action, value) for (action,), value in walk(
        [memo.bit[i] for i in ids], [weight[i] for i in ids],
        [memo.test(player)], budget, previous=previous))
    return max(value for _, value in walked), walked


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
    total, sets, weights = _packing(instance, profile, budget, masked=True)
    available = (1 << len(instance.ordered_ids)) - 1
    for player in sequence:
        witness = deviation(instance, (player,), available, weights[player],
                            factor, budget)
        if witness:
            break
        available &= ~sets[player]
    return EquilibriumReport("spe", factor, witness is None, total, witness,
                             order=sequence)


def _first_deviation(instance: Instance, sets: Sequence[int],
                     weights: Sequence[int], start: int, k: int,
                     factor: Fraction, budget: SearchBudget,
                     single: Optional[Callable[[int, int], int]] = None
                     ) -> Optional[DeviationWitness]:
    """The first deviation of a coalition of `start` to k players, by size
    then in order, from the players' set masks over `ordered_ids` and
    their integer weights.

    A coalition's pool is the mask of its own items and the unclaimed
    ones, and its held weight the sum of its members'.  Its joint reply
    weighs at most the sum of its members' single best weights in that
    pool, since the reply's sets are each feasible there.  So a coalition
    of two or more first sums `single(member, pool)` in member order,
    stopping once the sum passes alpha times what it holds, and is
    settled without a joint search when alpha times its held weight
    reaches the whole sum.  By default `single` is the member's one-member
    `_reply`; the collusion walk passes its kinds' kept tops.  Only a
    coalition the sum does not settle asks its joint `_reply`, so the
    first deviating coalition and its witness are those of the full
    check.  Every reply is charged by `_Memo.recall`'s rule, so the check
    spends and fails as a fresh one does.  A witness is built only for
    the coalition that deviates.
    """
    num, den = factor.numerator, factor.denominator
    if single is None:
        def single(member: int, pool: int) -> int:
            return _reply(instance, (member,), pool, budget)[1]
    unclaimed = (1 << len(instance.ordered_ids)) - 1
    for T in sets:
        unclaimed &= ~T
    for size in range(start, k + 1):
        for coalition in combinations(range(len(sets)), size):
            pool, held = unclaimed, 0
            for member in coalition:
                pool |= sets[member]
                held += weights[member]
            if size > 1:
                bound = 0
                for member in coalition:
                    bound += single(member, pool)
                    if num * held < den * bound:
                        break
                else:
                    continue
            proposed, value = _reply(instance, coalition, pool, budget)
            if num * held < den * value:
                return _witness(instance, coalition, proposed, held, value)
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
    total, sets, weights = _packing(instance, profile, shared, masked=True)
    witness = _first_deviation(instance, sets, weights, 1, k, factor, shared)
    return EquilibriumReport("collusion", factor, witness is None, total,
                             witness, k=k)
