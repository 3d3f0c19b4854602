"""Item classes and the searches that walk one assignment per item orbit.

Two items are class-mates when they weigh the same and swapping them
maps every system's family onto itself.  The searches that return a
first optimum or a first least profile walk one assignment per orbit of
class-mates; these tests check the classes and compare those searches
with the brute-force oracles on games built from repeated items.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from hypothesis import example, given, settings, strategies as st

from spgames import (ExplicitSystem, FeasibilitySystem,
                     IdenticalMachinesSystem, Instance, Item, JobWindow,
                     Profile, SearchBudget, SharedSymmetricSystem,
                     SingleMachineSystem, TimeWindow, UnrelatedMachinesSystem,
                     best_response, coalition_best_response, compute_opt,
                     empirical_poa, empirical_sequential_poa,
                     enumerate_spe_outcomes, ex_asym, ex_collusion, ex_seq,
                     ex_sym, welfare)
from spgames.equilibria import worst_equilibrium

from oracles import (brute_best_response, brute_coalition,
                     brute_enumerate_nash, brute_first_deviation, brute_opt,
                     brute_spe_outcomes, collusion_pools)

ALPHAS = (Fraction(1), Fraction(3, 2), Fraction(2))


def classes(game: Instance) -> list[list[str]]:
    """The item classes of more than one item, each sorted."""
    out: dict[str, list[str]] = {}
    for item, leader in game._memo.mates.items():
        out.setdefault(leader, []).append(item)
    return sorted(map(sorted, out.values()))


def unit_game(*players, weights=None) -> Instance:
    ids = sorted(set().union(*(p.universe() for p in players)))
    weights = weights or [1] * len(ids)
    return Instance(items=tuple(map(Item, ids, weights)), players=players)


class TestClasses:
    def test_light_and_heavy_jobs_of_the_symmetric_construction(self):
        game = ex_sym(3, 2, 3)
        assert classes(game) == [["p01", "p02"],
                                 [f"q{i:02d}" for i in range(1, 8)]]

    def test_p_and_q_jobs_of_the_asymmetric_construction(self):
        assert classes(ex_asym(3, 2)) == [["p01", "p02", "p03"],
                                          ["q01", "q02"]]

    def test_collusion_construction_has_no_class(self):
        game = ex_collusion(4, 2, 1)
        assert classes(game) == []
        assert game._memo.previous(game.ordered_ids) is None

    def test_deadline_classes_of_the_sequential_construction(self):
        assert classes(ex_seq(3)) == [["d01_01", "d01_02", "d01_03"],
                                      ["d02_01", "d02_02", "d02_03"],
                                      ["d03_01", "d03_02", "d03_03"]]

    def test_explicit_swap_that_breaks_one_maximal_set(self):
        # Swapping b and c exchanges {a, b} and {a, c}, but takes {b, d}
        # to {c, d}, which is no member.
        sets = [frozenset("ab"), frozenset("ac"), frozenset("bd")]
        assert classes(unit_game(ExplicitSystem(maximal_sets=sets))) == []
        closed = ExplicitSystem(maximal_sets=sets + [frozenset("cd")])
        # Now a and d swap too: {a, b} and {b, d}, {a, c} and {c, d}.
        assert classes(unit_game(closed)) == [["a", "d"], ["b", "c"]]

    def test_every_system_must_keep_its_family(self):
        # Player 1 can swap a and b; player 2 cannot.
        one = ExplicitSystem(maximal_sets=[frozenset("ab")])
        two = ExplicitSystem(maximal_sets=[frozenset("a")])
        assert classes(unit_game(one, one)) == [["a", "b"]]
        assert classes(unit_game(one, two)) == []

    def test_class_mates_weigh_the_same(self):
        family = ExplicitSystem(maximal_sets=[frozenset("abc")])
        assert classes(unit_game(family, weights=[1, 2, 1])) == [["a", "c"]]

    def test_unrelated_machines_with_one_differing_processing_time(self):
        window = TimeWindow(0, 2)
        times = {("m1", "a"): 1, ("m1", "b"): 1, ("m2", "a"): 1, ("m2", "b"): 1}

        def system(processing):
            return UnrelatedMachinesSystem(machines=("m1", "m2"),
                                           processing=processing,
                                           jobs={"a": window, "b": window})

        assert classes(unit_game(system(times))) == [["a", "b"]]
        assert classes(unit_game(system({**times, ("m2", "b"): 2}))) == []
        absent = {k: v for k, v in times.items() if k != ("m2", "b")}
        assert classes(unit_game(system(absent))) == []

    def test_machine_jobs_share_a_class_by_window(self):
        short, long = JobWindow(0, 1, 1), JobWindow(0, 1, 2)
        jobs = {"a": short, "b": long, "c": short}
        for system in (SingleMachineSystem(jobs),
                       IdenticalMachinesSystem(copies=2, jobs=jobs),
                       SharedSymmetricSystem(SingleMachineSystem(jobs), 2)):
            assert classes(unit_game(system)) == [["a", "c"]]

    def test_previous_reads_the_pool(self):
        memo = ex_asym(3, 2)._memo
        assert memo.previous(["p01", "p03", "q01", "q02"]) == [-1, 0, -1, 2]
        assert memo.previous(["p02", "q02"]) is None


class TestOrbitWalks:
    def test_worst_nash_of_the_sequential_construction(self):
        # Walking every relabelling of the deadline classes spent 9,942,451
        # nodes at alpha 3/2.
        for alpha, ratio, worst in ((Fraction(1), Fraction(4, 3), 12),
                                    (Fraction(3, 2), Fraction(16, 9), 9),
                                    (Fraction(2), Fraction(2), 8)):
            result = empirical_poa(ex_seq(4), alpha, SearchBudget(100_000))
            assert (result.ratio, result.worst_equilibrium_welfare) == (
                ratio, worst)
            assert result.bound_satisfied

    def test_worst_sequential_outcome_of_the_sequential_construction(self):
        # Walking and trying every action of each mover spent 6,598,996
        # nodes.
        budget = SearchBudget(10**6)
        result = empirical_sequential_poa(ex_seq(4), 1, budget)
        assert (budget.used, result.ratio) == (6_773, Fraction(4, 3))

    def test_leader_walks_only_for_pools_with_class_mates(self):
        # c and d are class-mates outside the players' universe: once a or
        # b is taken, the mover's pool holds no two class-mates, and its
        # leader walk is the listing.  Its entry recalls the listing's, so
        # it holds the listing's very result for the listing's nodes: no
        # second walk ran and no second tuple was built.
        base = ExplicitSystem(maximal_sets=[frozenset("ab")])
        players = (SharedSymmetricSystem(base, 1),) * 2

        def fresh() -> Instance:
            return Instance(items=tuple(map(Item, "abcd", [1] * 4)),
                            players=players)

        game = fresh()
        assert classes(game) == [["a", "b"], ["c", "d"]]
        calls = [lambda g, b, alpha=alpha: empirical_sequential_poa(g, alpha, b)
                 for alpha in ALPHAS]
        calls += [lambda g, b, order=order: enumerate_spe_outcomes(g, order, 1, b)
                  for order in ((0, 1), (1, 0))]
        for call in calls:
            warm, cold = SearchBudget(10**6), SearchBudget(10**6)
            assert call(game, warm) == call(fresh(), cold)
            assert warm.used == cold.used
        memo = game._memo
        walked = aliased = 0
        for key, (nodes, result) in memo.acceptable.items():
            if len(key) == 3:
                assert key[2] is True
                pool = [i for i in game.ordered_ids
                        if key[1] & memo.bit[i] and i in base.universe()]
                listing = memo.acceptable.get(key[:2])
                if memo.previous(pool) is not None:
                    walked += 1
                    assert listing is None or listing[1] is not result
                else:
                    aliased += 1
                    assert (result is listing[1], nodes) == (True, listing[0])
        assert (walked, aliased) == (1, 2)

    def test_a_repeated_leader_read_reads_no_class_record(self, monkeypatch):
        # The second pass finds every walk in the memo, the leader walks
        # too: it needs no pool's class record, and spends what the first
        # pass spent.
        game = ex_seq(3)
        first, second = SearchBudget(10**6), SearchBudget(10**6)
        result = empirical_sequential_poa(game, 1, first)
        memo_type, reads = type(game._memo), []
        previous = memo_type.previous
        monkeypatch.setattr(memo_type, "previous", lambda memo, ids: (
            reads.append(ids), previous(memo, ids))[1])
        assert empirical_sequential_poa(game, 1, second) == result
        assert (reads, second.used) == ([], first.used)

    def test_a_user_defined_system_has_no_class(self):
        class Pair(FeasibilitySystem):
            def universe(self):
                return frozenset("ab")

            def is_member(self, items, budget=None):
                return frozenset(items) <= self.universe()

        game = unit_game(Pair())
        assert classes(game) == []
        assert worst_equilibrium(game, 1) == (
            Profile((frozenset("ab"),)), 2)

    def test_a_subclass_that_narrows_membership_has_no_class(self):
        class WithoutB(SingleMachineSystem):
            def is_member(self, items, budget=None):
                items = frozenset(items)
                return "b" not in items and super().is_member(items, budget)

        # Any two of three unit jobs due at 2 fit; the subclass drops b,
        # so swapping a and b, or b and c, breaks the family.
        jobs = {i: JobWindow(0, 1, 2) for i in "abc"}
        assert classes(unit_game(SingleMachineSystem(jobs))) == [["a", "b", "c"]]
        game = unit_game(WithoutB(jobs), WithoutB(jobs))
        assert classes(game) == []
        assert compute_opt(game) == brute_opt(game)
        assert compute_opt(game)[1] == 2
        for alpha in ALPHAS:
            assert worst_equilibrium(game, alpha) == _first_least(
                game, brute_enumerate_nash(game, alpha))

    def test_a_subclass_that_keeps_membership_keeps_its_classes(self):
        class Hashed(ExplicitSystem):
            def __hash__(self):
                return super().__hash__()

        assert classes(unit_game(Hashed(maximal_sets=[frozenset("ab")]))) == [
            ["a", "b"]]
        shared = SharedSymmetricSystem(Hashed(maximal_sets=[frozenset("ab")]), 2)
        assert classes(unit_game(shared)) == [["a", "b"]]


IDS = "abcdefg"
WINDOWS = st.builds(JobWindow, st.sampled_from((0, 1)), st.sampled_from((1, 2)),
                    st.integers(1, 4))


@st.composite
def systems(draw, kind_of: list[int], kinds: int):
    """One system over the items, whose data depend on each item's kind
    only: items of one kind are interchangeable in it, except in an
    explicit family left open, which holds one set of each orbit drawn."""
    ids = IDS[:len(kind_of)]
    shape = draw(st.sampled_from(("single", "identical", "unrelated",
                                  "explicit")))
    if shape == "explicit":
        groups = [[i for i, k in zip(ids, kind_of) if k == kind]
                  for kind in range(kinds)]
        closed, sets = draw(st.booleans()), []
        for _ in range(draw(st.integers(1, 3))):
            counts = [draw(st.integers(0, len(group))) for group in groups]
            # Every set with these counts per kind: the orbit of one.
            orbit = [frozenset().union(*choice) for choice in product(*(
                map(frozenset, combinations(group, count))
                for group, count in zip(groups, counts)))]
            sets += orbit if closed else [draw(st.sampled_from(orbit))]
        return ExplicitSystem(maximal_sets=sets)
    if shape == "unrelated":
        machines = ("m1", "m2")[:draw(st.integers(1, 2))]
        # Few windows, so kinds often share one and differ in time only.
        windows = [TimeWindow(draw(st.sampled_from((0, 1))),
                              draw(st.sampled_from((1, 2))))
                   for _ in range(kinds)]
        times = [[draw(st.sampled_from((None, 1, 2))) for _ in machines]
                 for _ in range(kinds)]
        return UnrelatedMachinesSystem(
            machines=machines, jobs={i: windows[k] for i, k in zip(ids, kind_of)},
            processing={(m, i): times[k][j] for i, k in zip(ids, kind_of)
                        for j, m in enumerate(machines) if times[k][j]})
    windows = [draw(WINDOWS) for _ in range(kinds)]
    jobs = {i: windows[k] for i, k in zip(ids, kind_of)}
    if shape == "single":
        return SingleMachineSystem(jobs)
    return IdenticalMachinesSystem(copies=2, jobs=jobs)


@st.composite
def repeated_games(draw) -> Instance:
    """2 or 3 players over 2 to 7 items (5 for three players) of at most
    three kinds; the players share one system or draw one each."""
    n = draw(st.sampled_from((2, 3)))
    size = draw(st.sampled_from(range(2, 8 if n == 2 else 6)))
    kinds = draw(st.sampled_from((1, 2, 3)))
    kind_of = draw(st.lists(st.integers(0, kinds - 1), min_size=size,
                            max_size=size))
    # Weights are drawn per item, so items the systems treat alike need
    # not weigh the same.
    weight = draw(st.lists(st.sampled_from((1, 2)), min_size=size,
                           max_size=size))
    if draw(st.booleans()):
        players = (draw(systems(kind_of, kinds)),) * n
    else:
        players = tuple(draw(systems(kind_of, kinds)) for _ in range(n))
    return Instance(items=tuple(map(Item, IDS, weight)), players=players)


def _first_least(game, profiles):
    worst = min(welfare(game, p) for p in profiles)
    return next(p for p in profiles if welfare(game, p) == worst), worst


@settings(max_examples=100, deadline=None, derandomize=True)
@given(repeated_games(), st.sampled_from(ALPHAS))
@example(ex_seq(2), Fraction(3, 2))
def test_orbit_walks_match_the_oracles(game, alpha):
    """Every search that walks one assignment per orbit returns the
    oracle's first answer: the worst equilibrium at every k, the optimum,
    the best and joint replies, and the worst sequential outcome."""
    assert compute_opt(game) == brute_opt(game)
    for player in range(game.n):
        assert best_response(game, player, game.item_ids) == \
            brute_best_response(game, player, game.item_ids)
        pool = game.ordered_ids[1:]
        assert best_response(game, player, pool) == \
            brute_best_response(game, player, pool)
    members = tuple(range(game.n))
    assert coalition_best_response(game, members, game.item_ids) == \
        brute_coalition(game, members, game.item_ids)
    nash = brute_enumerate_nash(game, alpha)
    for k in range(1, game.n + 1):
        stable = [p for p in nash if brute_first_deviation(
            game, p, alpha, collusion_pools(game, p, k)) is None]
        assert worst_equilibrium(game, alpha, k) == _first_least(game, stable)
    outcomes = [p for order in permutations(range(game.n))
                for p in brute_spe_outcomes(game, order, alpha)]
    worst, least = _first_least(game, outcomes)
    result = empirical_sequential_poa(game, alpha)
    assert (result.worst_profile, result.worst_equilibrium_welfare) == (
        worst, least)
