"""Independent brute-force oracles used to cross-check the search code.

Everything here enumerates candidate spaces directly (subsets,
assignments, permutations) without any of the pruning or tie-break
machinery of the package search paths, so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from spgames import (DeviationWitness, Instance, Profile, Violation,
                     validate_profile)


def weight_of(instance: Instance, items) -> Fraction:
    """Total `Item.weight` of `items`, summed as `Fraction`s."""
    weights = {item.id: item.weight for item in instance.items}
    return sum((weights[i] for i in items), Fraction(0))


def all_subsets(pool):
    items = sorted(pool)
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


@lru_cache(maxsize=16)
def feasible_table(instance: Instance, player: int) -> frozenset[frozenset[str]]:
    """Every member of the player's family, asked subset by subset; kept
    for the last few instances, since every oracle below reads it."""
    system = instance.players[player]
    return frozenset(T for T in all_subsets(instance.item_ids)
                     if system.is_member(T))


def brute_best_response(instance: Instance, player: int, available
                        ) -> tuple[frozenset[str], Fraction]:
    """Max-weight feasible subset; ties to the set smallest in item-id
    lexicographic order (compared as sorted tuples)."""
    return _brute_best(instance, player, frozenset(available))


@lru_cache(maxsize=1024)
def _brute_best(instance: Instance, player: int, available: frozenset[str]
                ) -> tuple[frozenset[str], Fraction]:
    """`brute_best_response`, kept per pool: the Nash checks of many
    profiles ask the same pool."""
    table = feasible_table(instance, player)
    best = None
    for T in all_subsets(available):
        if T not in table:
            continue
        value = weight_of(instance, T)
        key = (-value, tuple(sorted(T)))
        if best is None or key < best[0]:
            best = (key, T, value)
    assert best is not None
    return best[1], best[2]


def brute_opt(instance: Instance, available=None) -> tuple[Profile, Fraction]:
    """Max-welfare assignment; ties to the lexicographically smallest
    assignment vector (players in index order before 'nobody')."""
    pool = sorted(instance.item_ids if available is None else available)
    n = instance.n
    tables = [feasible_table(instance, p) for p in range(n)]
    best_value = None
    best_sets = None
    sets = [frozenset() for _ in range(n)]

    def walk(idx: int, value: Fraction) -> None:
        nonlocal best_value, best_sets
        if idx == len(pool):
            if best_value is None or value > best_value:
                best_value, best_sets = value, tuple(sets)
            return
        item = pool[idx]
        for player in range(n):
            grown = sets[player] | {item}
            if grown in tables[player]:
                sets[player] = grown
                walk(idx + 1, value + instance.weights[item])
                sets[player] = grown - {item}
        walk(idx + 1, value)

    walk(0, Fraction(0))
    return Profile(best_sets), best_value


def brute_coalition(instance: Instance, coalition, pool
                    ) -> tuple[tuple[frozenset[str], ...], Fraction]:
    """Full joint enumeration over item-to-member assignments; ties to the
    smallest tuple of per-member sorted sets."""
    return _brute_joint(instance, tuple(sorted(coalition)), frozenset(pool))


@lru_cache(maxsize=1024)
def _brute_joint(instance: Instance, members: tuple[int, ...],
                 pool: frozenset[str]
                 ) -> tuple[tuple[frozenset[str], ...], Fraction]:
    """`brute_coalition`, kept per pool, as `_brute_best` is."""
    items = sorted(pool)
    tables = [feasible_table(instance, m) for m in members]
    best = None
    sets = [frozenset() for _ in members]

    def walk(idx: int, value: Fraction) -> None:
        nonlocal best
        if idx == len(items):
            key = (-value, tuple(tuple(sorted(s)) for s in sets))
            if best is None or key < best[0]:
                best = (key, tuple(sets), value)
            return
        item = items[idx]
        for slot in range(len(members)):
            grown = sets[slot] | {item}
            if grown in tables[slot]:
                sets[slot] = grown
                walk(idx + 1, value + instance.weights[item])
                sets[slot] = grown - {item}
        walk(idx + 1, value)

    walk(0, Fraction(0))
    assert best is not None
    return best[1], best[2]


def nash_pools(instance: Instance, profile: Profile):
    """Each player with the items no other player holds."""
    out = []
    for player in range(instance.n):
        others = [s for other, s in enumerate(profile.sets) if other != player]
        out.append(((player,), instance.item_ids.difference(*others)))
    return out


def collusion_pools(instance: Instance, profile: Profile, k: int):
    """Each coalition of at most k players, by size and then in
    lexicographic order, with its own items plus the unclaimed ones."""
    unclaimed = instance.item_ids - profile.all_items()
    out = []
    for size in range(1, k + 1):
        for coalition in combinations(range(instance.n), size):
            own = frozenset().union(*(profile.sets[m] for m in coalition))
            out.append((coalition, own | unclaimed))
    return out


def spe_pools(instance: Instance, profile: Profile, order):
    """Each mover in `order` with the items left when it moves."""
    out = []
    left = instance.item_ids
    for player in order:
        out.append(((player,), left))
        left = left - profile.sets[player]
    return out


def brute_first_deviation(instance: Instance, profile: Profile, alpha, pools):
    """The first (members, pool) whose best reply beats alpha times the
    members' held weight, as a witness; None when there is none."""
    for members, pool in pools:
        if len(members) == 1:
            chosen, value = brute_best_response(instance, members[0], pool)
            proposed = (chosen,)
        else:
            proposed, value = brute_coalition(instance, members, pool)
        held = sum((weight_of(instance, profile.sets[m]) for m in members),
                   Fraction(0))
        if value > Fraction(alpha) * held:
            return DeviationWitness(tuple(members), proposed, held, value)
    return None


def brute_enumerate_nash(instance: Instance, alpha) -> list[Profile]:
    """Definition check over every item-to-player assignment."""
    pool = sorted(instance.item_ids)
    n = instance.n
    out = []
    labels = [None] * len(pool)

    def walk(idx: int) -> None:
        if idx == len(pool):
            sets = [frozenset(pool[i] for i in range(len(pool))
                              if labels[i] == player) for player in range(n)]
            profile = Profile(tuple(sets))
            if validate_profile(instance, profile):
                return
            if brute_first_deviation(instance, profile, alpha,
                                     nash_pools(instance, profile)) is None:
                out.append(profile)
            return
        for choice in list(range(n)) + [None]:
            labels[idx] = choice
            walk(idx + 1)
        labels[idx] = None

    walk(0)
    return out


def brute_spe_outcomes(instance: Instance, order, alpha) -> list[Profile]:
    """Every outcome of approximately optimal sequential play, depth first.

    Each mover in `order` may take any feasible set of the items left whose
    weight is within alpha of the best such set, tried in sorted-tuple
    order; the alpha rule is applied to the rational weights.
    """
    factor = Fraction(alpha)
    tables = [sorted(feasible_table(instance, p), key=lambda T: tuple(sorted(T)))
              for p in range(instance.n)]
    out = []
    sets = [frozenset() for _ in range(instance.n)]

    def walk(depth: int, left: frozenset) -> None:
        if depth == len(order):
            out.append(Profile(tuple(sets)))
            return
        player = order[depth]
        moves = [T for T in tables[player] if T <= left]
        top = max(weight_of(instance, T) for T in moves)
        for T in moves:
            if factor * weight_of(instance, T) >= top:
                sets[player] = T
                walk(depth + 1, left - T)
        sets[player] = frozenset()

    walk(0, instance.item_ids)
    return out


def schedulable_by_permutations(jobs) -> bool:
    """jobs: list of (release, processing, deadline) fractions."""
    for order in permutations(range(len(jobs))):
        clock = Fraction(0)
        ok = True
        for j in order:
            release, processing, deadline = jobs[j]
            start = max(clock, release)
            clock = start + processing
            if clock > deadline:
                ok = False
                break
        if ok:
            return True
    return len(jobs) == 0


def brute_partition(items, count: int, fits) -> bool:
    """Whether some assignment of `items` to `count` numbered parts has
    every part accepted by `fits(p, part)`.  Tries every assignment."""
    items = sorted(items)
    return any(
        all(fits(p, [i for i, a in zip(items, assignment) if a == p])
            for p in range(count))
        for assignment in product(range(count), repeat=len(items)))


def edf_checks(jobs) -> int:
    """Jobs an earliest-deadline-first prefix check looks at before it
    decides.  jobs: list of (id, processing, deadline) with zero release.

    Jobs go by (deadline, id); the count stops at the first job that
    finishes late, or covers them all.
    """
    clock = Fraction(0)
    for checked, (_, processing, deadline) in enumerate(
            sorted(jobs, key=lambda job: (job[2], job[0])), start=1):
        clock += processing
        if clock > deadline:
            return checked
    return len(jobs)


def brute_max_cardinality_scan(is_member, pool) -> tuple[str, ...]:
    """The documented pick of `max_cardinality_feasible`, by enumeration.

    `pool` is in scan order.  An item is kept when some feasible set of
    maximum cardinality contains the kept items and it, and otherwise
    only later items of the scan.
    """
    members = [T for T in all_subsets(pool) if is_member(T)]
    target = max(len(T) for T in members)
    chosen: list[str] = []
    for index, item in enumerate(pool):
        kept = frozenset(chosen) | {item}
        reach = kept | frozenset(pool[index + 1:])
        if any(len(T) == target and kept <= T <= reach for T in members):
            chosen.append(item)
    return tuple(chosen)


def simulate_deadline_rounds(n: int, alpha: Fraction) -> list[int]:
    """Independent simulation of sequential play on the deadline grid.

    Works purely on per-deadline-class counts: n classes with n unit jobs
    each, class k due at time k; a count vector fits one machine exactly
    when every prefix sum (by deadline) is at most the deadline.  Each
    player greedily fills from the largest class down and keeps
    ceil(m / alpha) of its picks, preferring large deadlines.  Once a job
    of a class does not fit, no other job of it does, so the player moves
    on to the next class.
    """
    remaining = {k: n for k in range(1, n + 1)}

    def fits(counts: dict[int, int]) -> bool:
        running = 0
        for deadline in sorted(counts):
            running += counts[deadline]
            if running > deadline:
                return False
        return True

    allocations = []
    for _ in range(n):
        picked: dict[int, int] = {}
        picks_in_order = []
        for deadline in range(n, 0, -1):
            for _ in range(remaining[deadline]):
                picked[deadline] = picked.get(deadline, 0) + 1
                if fits(picked):
                    picks_in_order.append(deadline)
                else:
                    picked[deadline] -= 1
                    break
        m = len(picks_in_order)
        keep = -(-m * alpha.denominator // alpha.numerator)  # ceil(m / alpha)
        for deadline in picks_in_order[keep:]:
            picked[deadline] -= 1
        for deadline, count in picked.items():
            remaining[deadline] -= count
        allocations.append(keep if m else 0)
    return allocations


def series_exp_enclosure(t: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """The truncated exponential series of t and that sum plus the tail
    bound t^terms / terms! / (1 - t / (terms + 1)), term by term."""
    partial = Fraction(0)
    term = Fraction(1)
    for i in range(terms):
        partial += term
        term = term * t / (i + 1)
    return partial, partial + term / (1 - t / (terms + 1))


def replay_deviation(instance: Instance, profile: Profile, witness,
                     alpha) -> bool:
    """Re-verify a deviation witness from first principles."""
    factor = Fraction(alpha)
    outside: set[str] = set()
    for player in range(instance.n):
        if player not in witness.players:
            outside |= profile.items_of(player)
    taken: set[str] = set()
    old_value = Fraction(0)
    new_value = Fraction(0)
    for player, proposed in zip(witness.players, witness.proposed):
        if proposed & outside or proposed & taken:
            return False
        if not instance.players[player].is_member(proposed):
            return False
        taken |= proposed
        old_value += weight_of(instance, profile.items_of(player))
        new_value += weight_of(instance, proposed)
    if old_value != witness.old_value or new_value != witness.new_value:
        return False
    return new_value > factor * old_value


def brute_violations(instance: Instance, profile: Profile) -> list[Violation]:
    """What `validate_profile` documents, in its order: a size mismatch
    alone; else per player its unknown items, or an infeasible set, looked
    up in the player's feasible table; then every overlapping pair."""
    if len(profile.sets) != instance.n:
        return [Violation("size_mismatch", players=())]
    out = []
    for player, chosen in enumerate(profile.sets):
        unknown = chosen - instance.item_ids
        if unknown:
            out.append(Violation("unknown_item", players=(player,),
                                 items=unknown))
        elif chosen not in feasible_table(instance, player):
            out.append(Violation("infeasible_set", players=(player,),
                                 items=chosen))
    for a, b in combinations(range(instance.n), 2):
        shared = profile.sets[a] & profile.sets[b]
        if shared:
            out.append(Violation("overlap", players=(a, b), items=shared))
    return out


def reference_walk(bits, weights, tests, budget, post=False, floor=None,
                   prune=None, interchangeable=False, previous=None):
    """`search.walk` as its docstring states it, by recursion.

    A node yields itself first in pre-order and last in post-order.  In
    between, for each item from the one after its last taken item, it
    asks `prune`, which drops the rest of the node, the node included;
    after its last item it asks once more.  It stops once its value plus
    the weight of the items left cannot reach `floor[0]`, read before
    every attempt, since a yield below may raise it.  It tries the item
    in each member's set in member order, one node per attempt, and
    walks each child that member's test accepts.  An attempt is skipped,
    spending nothing, when the member before is empty (`interchangeable`)
    or the item's class-mate `previous[item]` is held by no member up to
    this one.  With several members, each member's verdict on a mask is
    asked once.
    """
    width, size = len(tests), len(bits)
    verdicts = [{} for _ in tests]

    def verdict(member, mask):
        if width == 1:
            return tests[member](mask, budget)
        if mask not in verdicts[member]:
            verdicts[member][mask] = tests[member](mask, budget)
        return verdicts[member][mask]

    def node(sets, value, first):
        if not post:
            yield sets, value
        dropped = yield from children(sets, value, first)
        if post and not dropped:
            yield sets, value

    def children(sets, value, first):
        """Walk the node's children; True when the prune drops the node."""
        def closed(item):
            return item == size or floor is not None and \
                value + sum(weights[item:]) < floor[0]

        for item in range(first, size + 1):
            if prune and prune(sets, value, item):
                return True
            if closed(item):
                return False
            for member in range(width):
                if member and closed(item):
                    return False
                if interchangeable and member and not sets[member - 1]:
                    break
                if previous and previous[item] >= 0 and not any(
                        bits[previous[item]] & T for T in sets[:member + 1]):
                    continue
                budget.spend()
                grown = sets[member] | bits[item]
                if verdict(member, grown):
                    child = sets[:member] + (grown,) + sets[member + 1:]
                    yield from node(child, value + weights[item], item + 1)
        return False

    yield from node((0,) * width, 0, 0)
