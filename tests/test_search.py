"""The call sites of the search kernel against the brute-force oracles.

Instances are small explicit games whose weights include 0 and
non-integers, so ties and the integer scaling of weights both occur.
"""

from fractions import Fraction
from itertools import permutations

from hypothesis import example, given, settings, strategies as st

from spgames import (BudgetExceededError, ExplicitSystem, Instance, Item,
                     SearchBudget, best_response, coalition_best_response,
                     compute_opt, empirical_sequential_poa, enumerate_nash,
                     enumerate_spe_outcomes, feasible_subsets,
                     random_symmetric)
from spgames.equilibria import enumerate_collusion
from spgames.search import spell, walk

from oracles import (all_subsets, brute_best_response, brute_coalition,
                     brute_enumerate_nash, brute_first_deviation, brute_opt,
                     brute_spe_outcomes, collusion_pools, reference_walk)

WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
IDS = ("a", "b", "c", "d", "e")

exhaustive = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def games(draw, max_set=None, shared=False, systems=None,
          weights=WEIGHTS) -> Instance:
    """Item weights come from `weights`; `max_set` caps the size of the
    players' maximal sets; with `shared` every player gets one and the
    same system, and with `systems` each player gets one of that many."""
    ids = IDS[:draw(st.integers(1, len(IDS)))]
    drawn = draw(st.lists(st.sampled_from(weights), min_size=len(ids),
                          max_size=len(ids)))
    family = st.lists(st.frozensets(st.sampled_from(ids), max_size=max_set),
                      min_size=1, max_size=3).map(
                          lambda sets: ExplicitSystem(maximal_sets=tuple(sets)))
    count = draw(st.integers(1, 3))
    if shared:
        players = [draw(family)] * count
    elif systems:
        pool = [draw(family) for _ in range(systems)]
        players = [draw(st.sampled_from(pool)) for _ in range(count)]
    else:
        players = [draw(family) for _ in range(count)]
    return Instance(items=tuple(map(Item, ids, drawn)), players=tuple(players))


@st.composite
def games_with_pool(draw) -> tuple[Instance, frozenset[str]]:
    game = draw(games())
    return game, draw(st.frozensets(st.sampled_from(sorted(game.item_ids))))


@exhaustive
@given(games())
def test_compute_opt_matches_oracle(game):
    assert compute_opt(game) == brute_opt(game)


@exhaustive
@given(games_with_pool(), st.data())
def test_best_response_matches_oracle(game_pool, data):
    game, pool = game_pool
    player = data.draw(st.integers(0, game.n - 1))
    assert best_response(game, player, pool) == brute_best_response(game, player, pool)


@exhaustive
@given(games_with_pool(), st.data())
def test_coalition_best_response_matches_oracle(game_pool, data):
    game, pool = game_pool
    coalition = data.draw(st.frozensets(st.integers(0, game.n - 1), min_size=1))
    assert coalition_best_response(game, coalition, pool) == \
        brute_coalition(game, coalition, pool)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(games(), st.sampled_from((Fraction(1), Fraction(3, 2))))
def test_enumerate_nash_matches_oracle_in_order(game, alpha):
    assert list(enumerate_nash(game, alpha)) == brute_enumerate_nash(game, alpha)


@st.composite
def games_with_k(draw) -> tuple[Instance, int]:
    game = draw(st.one_of(games(), games(shared=True)))
    return game, draw(st.integers(1, game.n))


# Two Nash profiles of this game ({b}, {c} and its relabelling) fall to
# the coalition of both players, which random games rarely show.
_SPLIT = ExplicitSystem(maximal_sets=(frozenset({"a"}), frozenset({"b", "c"})))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(games_with_k(), st.sampled_from((Fraction(1), Fraction(3, 2))))
@example((Instance(items=tuple(Item(i, 1) for i in "abc"),
                   players=(_SPLIT, _SPLIT)), 2), Fraction(1))
def test_enumerate_collusion_matches_oracle_in_order(game_k, alpha):
    """The k-collusion listing is the oracle's Nash list, in its order,
    less the profiles some coalition of at most k players can improve."""
    game, k = game_k
    assert list(enumerate_collusion(game, k, alpha)) == [
        profile for profile in brute_enumerate_nash(game, alpha)
        if brute_first_deviation(game, profile, alpha,
                                 collusion_pools(game, profile, k)) is None]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(games(), st.sampled_from((Fraction(1), Fraction(3, 2))))
def test_spe_outcomes_and_worst_match_oracle_in_order(game, alpha):
    """Every order lists the oracle's outcomes in the oracle's order, and
    the worst outcome is the first of least welfare over the orders in
    `permutations` order."""
    outcomes = []
    for order in permutations(range(game.n)):
        listed = brute_spe_outcomes(game, order, alpha)
        assert list(enumerate_spe_outcomes(game, order, alpha)) == listed
        outcomes += listed
    worst = min(outcomes, key=lambda p: game.weight_of(p.all_items()))
    least = game.weight_of(worst.all_items())
    opt = brute_opt(game)[1]
    result = empirical_sequential_poa(game, alpha)
    assert result.worst_profile == worst
    assert result.worst_equilibrium_welfare == least
    assert result.ratio == (opt / least if least else 1)


@exhaustive
@given(games(systems=2), st.sampled_from((Fraction(1), Fraction(3, 2))))
@example(random_symmetric(n=3, copies=3, seed=10), Fraction(3, 2))
def test_worst_outcome_classes_orders_by_sequence_of_systems(game, alpha):
    """Orders that give the players' systems in one sequence have one
    worst outcome up to relabelling; orders that give them in another
    need not: the example's three systems differ, its worst welfare is
    27, and the first order alone reaches 28."""
    outcomes = [profile for order in permutations(range(game.n))
                for profile in brute_spe_outcomes(game, order, alpha)]
    worst = min(outcomes, key=lambda p: game.weight_of(p.all_items()))
    result = empirical_sequential_poa(game, alpha)
    assert result.worst_profile == worst
    assert result.worst_equilibrium_welfare == game.weight_of(worst.all_items())


@exhaustive
@given(games_with_pool())
def test_feasible_subsets_lists_members_in_sorted_tuple_order(game_pool):
    game, pool = game_pool
    for system in game.players:
        members = [T for T in all_subsets(pool) if system.is_member(T)]
        assert list(feasible_subsets(system, pool)) == \
            sorted(members, key=lambda T: tuple(sorted(T)))


def _walked(game):
    """The game's ids, each id's bit, and each player's test on masks."""
    ids = game.ordered_ids
    return (ids, [1 << j for j in range(len(ids))],
            [lambda mask, budget, system=system: system.is_member(
                spell(mask, ids), budget) for system in game.players])


def _restricted_growth(sets) -> bool:
    """Whether each member's first item comes after the previous member's."""
    firsts = [min(T) if T else None for T in sets]
    return all(later is None or earlier is not None and earlier < later
               for earlier, later in zip(firsts, firsts[1:]))


@exhaustive
@given(games(shared=True), st.booleans())
def test_interchangeable_walk_keeps_first_relabelling(game, post):
    """Equal members walk only the assignments whose members open in
    index order, in the same order, for no more nodes."""
    ids, bits, tests = _walked(game)
    weights = [1] * len(ids)
    plain, fewer = SearchBudget(), SearchBudget()
    every = list(walk(bits, weights, tests, plain, post))
    kept = list(walk(bits, weights, tests, fewer, post, interchangeable=True))
    assert kept == [node for node in every
                    if _restricted_growth([spell(T, ids) for T in node[0]])]
    assert fewer.used <= plain.used


@exhaustive
@given(games(), st.integers(0, 5))
def test_prune_drops_the_subtree_and_the_node(game, cut):
    """A node pruned before trying `cut` is never yielded in post-order,
    and neither is any node below it."""
    ids, bits, tests = _walked(game)

    def prune(sets, value, item):
        return item == cut and not any(sets)

    every = list(walk(bits, [1] * len(ids), tests, SearchBudget(), post=True))
    kept = list(walk(bits, [1] * len(ids), tests, SearchBudget(), post=True,
                     prune=prune))
    taken = sum(bits[:cut])
    assert kept == [node for node in every
                    if cut > len(ids) or any(T & taken for T in node[0])]


@exhaustive
@given(games(), st.booleans(), st.integers(0, 6))
def test_prune_after_the_last_item_filters_the_nodes(game, interchangeable,
                                                     mod):
    """A prune that is True only after a node's last item drops exactly
    the nodes it rejects from the post-order, at no change in nodes."""
    ids, bits, tests = _walked(game)
    weights = [1 + ord(i[0]) % 3 for i in ids]

    def rejects(sets, value):
        return (value + sets[0].bit_count()) % 7 == mod

    def prune(sets, value, item):
        return item == len(ids) and rejects(sets, value)

    plain, pruned = SearchBudget(), SearchBudget()
    every = list(walk(bits, weights, tests, plain, post=True,
                      interchangeable=interchangeable))
    kept = list(walk(bits, weights, tests, pruned, post=True, prune=prune,
                     interchangeable=interchangeable))
    assert kept == [node for node in every if not rejects(*node)]
    assert pruned.used == plain.used


class _LoggedBudget(SearchBudget):
    """A budget that logs every spend."""

    def __init__(self, limit: int, log: list):
        super().__init__(limit)
        self.log = log

    def spend(self, amount: int = 1) -> None:
        self.log.append(("spend", amount))
        super().spend(amount)


@st.composite
def walk_setups(draw) -> dict:
    """Everything one walk takes, drawn: up to five items with small
    integer weights, one to three members with explicit families as
    maximal masks, either order, class-mates, the two symmetry rules, a
    prune that also reads a bound, a floor and a budget limit; and how the
    caller reacts to a yield: lower the prune's bound to the node's value
    (as `_equilibria`'s caller does) and raise the floor past it (as
    `best` does)."""
    size = draw(st.integers(0, 5))
    width = draw(st.integers(1, 3))
    masks = st.integers(0, (1 << size) - 1)
    family = st.lists(masks, min_size=1, max_size=3)
    if draw(st.booleans()):
        families = [draw(family)] * width
    else:
        families = [draw(family) for _ in range(width)]
    previous = None
    if draw(st.booleans()):
        previous = [draw(st.integers(-1, item - 1)) for item in range(size)]
    return {
        "weights": draw(st.lists(st.integers(0, 3), min_size=size,
                                 max_size=size)),
        "families": families,
        "costs": [draw(st.integers(0, 1)) for _ in range(width)],
        "post": draw(st.booleans()),
        "interchangeable": draw(st.booleans()),
        "previous": previous,
        "prune": draw(st.one_of(st.none(), st.tuples(st.integers(3, 8),
                                                      st.integers(1, 2)))),
        "lower": draw(st.booleans()),
        "floor": draw(st.one_of(st.none(), st.integers(0, 6))),
        "raise": draw(st.booleans()),
        "limit": draw(st.sampled_from((3, 10, 25, 10**6))),
    }


def _walk_log(walker, setup: dict) -> list:
    """Every prune ask with its arguments, test call, spend and yield of
    one walk, in order, and how it ended."""
    log: list = []
    size = len(setup["weights"])
    budget = _LoggedBudget(setup["limit"], log)
    least = [None]
    floor = None if setup["floor"] is None else [setup["floor"]]

    def test(member):
        maxima, cost = setup["families"][member], setup["costs"][member]

        def decide(mask, spent):
            log.append(("test", member, mask))
            spent.spend(cost)
            return any(mask & M == mask for M in maxima)
        return decide

    def prune(sets, value, item):
        log.append(("prune", sets, value, item))
        if least[0] is not None and value >= least[0]:
            return True
        # Never at the root's first item, so every walk gets past it.
        modulus, offset = setup["prune"]
        key = sum((m + 1) * T for m, T in enumerate(sets))
        return (3 * key + 5 * value + 7 * item + offset) % modulus == 0

    walked = walker([1 << j for j in range(size)], setup["weights"],
                    [test(m) for m in range(len(setup["families"]))], budget,
                    post=setup["post"], floor=floor,
                    prune=None if setup["prune"] is None else prune,
                    interchangeable=setup["interchangeable"],
                    previous=setup["previous"])
    try:
        for sets, value in walked:
            log.append(("yield", sets, value))
            if setup["lower"] and (least[0] is None or value < least[0]):
                least[0] = value
            if setup["raise"] and floor and value >= floor[0]:
                floor[0] = value + 1
    except BudgetExceededError:
        log.append(("exceeded", budget.used))
    return log


@settings(max_examples=600, deadline=None, derandomize=True)
@given(walk_setups())
def test_walk_keeps_its_contract(setup):
    """The kernel asks, tests, spends and yields exactly as the reference
    walk of its docstring does, in the same order, and runs out of budget
    at the same node."""
    assert _walk_log(walk, setup) == _walk_log(reference_walk, setup)


def test_deep_pool_needs_no_recursion():
    ids = [f"i{k:04d}" for k in range(1200)]
    game = Instance(items=tuple(Item(i, Fraction(1)) for i in ids),
                    players=(ExplicitSystem(maximal_sets=(frozenset(ids),)),))
    assert compute_opt(game)[1] == 1200
    assert best_response(game, 0, game.item_ids, budget=10**6)[1] == 1200
