"""Equilibrium verification, enumeration, and sequential play."""

import math
import random
from fractions import Fraction
from importlib import import_module
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from spgames import (BudgetExceededError, ExplicitSystem, GeneratorSpec,
                     IdenticalMachinesSystem, InputError, Instance, Item,
                     JobWindow, Profile, SearchBudget, SharedSymmetricSystem,
                     SingleMachineSystem, TimeWindow,
                     UnrelatedMachinesSystem, best_response,
                     coalition_best_response, compute_opt,
                     empirical_collusion_poa, empirical_sequential_poa,
                     enumerate_nash, enumerate_spe_outcomes, ex_asym,
                     ex_collusion, ex_seq, ex_sym, ex_trivial, generate,
                     greedy_sequential_outcome, is_alpha_best_response,
                     max_cardinality_feasible, random_explicit, random_symmetric, reference_profiles,
                     verify_collusion, verify_nash, verify_spe_outcome,
                     welfare)
from spgames.best_response import within_alpha
from spgames.equilibria import (EquilibriumReport, enumerate_collusion,
                                worst_equilibrium)

from oracles import (brute_best_response, brute_coalition,
                     brute_enumerate_nash, brute_first_deviation,
                     brute_max_cardinality_scan,
                     brute_spe_outcomes, collusion_pools, nash_pools,
                     replay_deviation, simulate_deadline_rounds, spe_pools)
from test_search import WEIGHTS, games


def sets_of(profile: Profile) -> list[list[str]]:
    return [sorted(s) for s in profile.sets]


class TestVerifyNash:
    def test_blocked_player_makes_single_item_profile_stable(self):
        game = ex_trivial()
        profile = Profile((frozenset({"2"}), frozenset()))
        assert verify_nash(game, profile, 1).verdict

    def test_free_item_breaks_stability_with_witness(self):
        game = ex_trivial()
        profile = Profile((frozenset({"1"}), frozenset()))
        report = verify_nash(game, profile, 1)
        assert not report.verdict
        assert report.witness.players == (1,)
        assert report.witness.proposed == (frozenset({"2"}),)
        assert replay_deviation(game, profile, report.witness, 1)

    def test_symmetric_light_job_split_is_three_halves_stable(self):
        game = ex_sym(3, 2, 3)
        bad = reference_profiles(
            GeneratorSpec.make("ex_sym", p=3, q=2, n=3))["bad_equilibrium"]
        assert verify_nash(game, bad, Fraction(3, 2)).verdict
        assert not verify_nash(game, bad, 1).verdict

    def test_invalid_profile_is_an_input_error(self):
        game = ex_trivial()
        with pytest.raises(InputError):
            verify_nash(game, Profile((frozenset({"2"}), frozenset({"2"}))), 1)


class TestEnumerateNash:
    def test_two_item_game_has_exactly_two_equilibria(self):
        game = ex_trivial()
        out = enumerate_nash(game, 1)
        assert [sets_of(p) for p in out] == [[["1"], ["2"]], [["2"], []]]

    def test_single_player_takes_its_item(self):
        game = Instance(items=(Item("1", 3),),
                        players=(ExplicitSystem(maximal_sets=(frozenset({"1"}),)),))
        out = enumerate_nash(game, 1)
        assert [sets_of(p) for p in out] == [[["1"]]]

    def test_alpha_two_list_matches_definition_check(self):
        game = ex_trivial()
        ours = {p for p in enumerate_nash(game, 2)}
        brute = {p for p in brute_enumerate_nash(game, 2)}
        assert ours == brute
        assert {p for p in enumerate_nash(game, 1)} <= ours

    def test_matches_definition_check_on_corpus_slice(self, corpus):
        for game in corpus[::40]:
            for alpha in (1, Fraction(3, 2)):
                ours = set(enumerate_nash(game, alpha))
                brute = set(brute_enumerate_nash(game, alpha))
                assert ours == brute


    def test_budget_caps_the_walk_not_the_assignment_count(self):
        # 5^12 assignments, but the pruned walk lists both profiles in
        # 14,601 nodes.
        game = ex_collusion(4, 2, 1)
        assert len(enumerate_nash(game, 1)) == 2
        with pytest.raises(BudgetExceededError):
            enumerate_nash(game, 1, budget=1000)

    def test_listing_skips_subtrees_without_a_satisfiable_player(self):
        # Walking every feasible assignment takes 681,393 nodes here.
        game = ex_collusion(4, 2, 1)
        budget = SearchBudget()
        assert len(enumerate_nash(game, 1, budget)) == 2
        assert budget.used == 14_601
        with pytest.raises(BudgetExceededError):
            enumerate_nash(game, 1, budget=14_600)


class TestGreedySequential:
    def test_exact_selector_first_mover_takes_lex_best(self):
        game = ex_trivial()
        outcome = greedy_sequential_outcome(game, (0, 1), 1, "exact")
        assert sets_of(outcome) == [["1"], ["2"]]

    def test_deadline_selector_matches_independent_simulation(self):
        for n, alpha in ((3, Fraction(1)), (5, Fraction(1)), (5, Fraction(3, 2))):
            game = ex_seq(n)
            outcome = greedy_sequential_outcome(game, range(n), alpha, "deadline")
            allocations = [len(outcome.items_of(i)) for i in range(n)]
            assert allocations == simulate_deadline_rounds(n, alpha)

    def test_deadline_welfare_values(self):
        assert welfare(ex_seq(3), greedy_sequential_outcome(
            ex_seq(3), range(3), 1, "deadline")) == 7
        assert welfare(ex_seq(5), greedy_sequential_outcome(
            ex_seq(5), range(5), 1, "deadline")) == 18

    def test_empty_instance_yields_empty_profile(self):
        game = Instance(items=(),
                        players=(ExplicitSystem(maximal_sets=(frozenset(),)),))
        outcome = greedy_sequential_outcome(game, (0,), 1, "exact")
        assert sets_of(outcome) == [[]]

    def test_deadline_selector_needs_equal_weights(self):
        game = ex_sym(3, 2, 3)  # light and heavy weights differ
        with pytest.raises(InputError):
            greedy_sequential_outcome(game, range(3), 1, "deadline")

    def test_unknown_selector_rejected(self):
        with pytest.raises(InputError):
            greedy_sequential_outcome(ex_trivial(), (0, 1), 1, "fancy")

    # The scan spends one node per candidate, the ones after a full
    # machine in one spend.  The counts are pinned, so a faster scan
    # cannot move the point where a budget stops it.  n = 31 is the
    # largest size the benchmark plays.
    @pytest.mark.parametrize("n, nodes", [(6, 140), (9, 465), (12, 1098),
                                          (31, 18834)])
    def test_budget_stops_the_deadline_scan(self, n, nodes):
        game = ex_seq(n)
        counted = SearchBudget(10**9)
        outcome = greedy_sequential_outcome(game, range(n), 1, "deadline",
                                            budget=counted)
        assert counted.used == nodes
        with pytest.raises(BudgetExceededError):
            greedy_sequential_outcome(game, range(n), 1, "deadline",
                                      budget=nodes - 1)
        assert greedy_sequential_outcome(game, range(n), 1, "deadline",
                                         budget=nodes) == outcome
        # A budget that runs out mid-game stops on the node after its
        # last, as a scan that looked at every candidate would: charging
        # a full machine's leftovers at once must not overshoot it.
        short = SearchBudget(nodes // 2)
        with pytest.raises(BudgetExceededError,
                           match=f"budget of {nodes // 2} nodes exceeded"):
            greedy_sequential_outcome(game, range(n), 1, "deadline",
                                      budget=short)
        assert short.used == short.limit + 1

    def test_deadline_play_at_scale(self):
        # 128 players over 16,384 jobs: a scan that looked at every job
        # left for each player made this play cubic in n.
        game = ex_seq(128)
        counted = SearchBudget(10**9)
        outcome = greedy_sequential_outcome(game, range(128), 1, "deadline",
                                            budget=counted)
        kept = [len(outcome.items_of(i)) for i in range(128)]
        assert kept == simulate_deadline_rounds(128, Fraction(1))
        assert sum(kept) == 10_421
        assert counted.used == 1_325_572

    def test_deadline_selector_compares_exact_weights(self):
        # Equal weights that are not integers still pass; unequal ones
        # whose integer forms differ are refused.
        def unit_jobs_weighing(*weights):
            jobs = {f"j{k}": JobWindow(0, 1, k + 1)
                    for k in range(len(weights))}
            return Instance(
                items=tuple(Item(f"j{k}", weight)
                            for k, weight in enumerate(weights)),
                players=(SingleMachineSystem(jobs=jobs),) * 2)

        thirds = unit_jobs_weighing(Fraction(1, 3), Fraction(1, 3),
                                    Fraction(1, 3))
        outcome = greedy_sequential_outcome(thirds, (0, 1), 1, "deadline")
        assert sets_of(outcome) == [["j0", "j1", "j2"], []]
        mixed = unit_jobs_weighing(Fraction(1, 3), Fraction(1, 2))
        with pytest.raises(InputError, match="equal item weights"):
            greedy_sequential_outcome(mixed, (0, 1), 1, "deadline")


class TestSpeOutcomes:
    def test_both_orders_of_the_two_item_game(self):
        game = ex_trivial()
        first = enumerate_spe_outcomes(game, (0, 1), 1)
        assert {tuple(sets_of(p)[0]) + tuple(sets_of(p)[1]) for p in first} == {
            ("1", "2"), ("2",)}
        second = enumerate_spe_outcomes(game, (1, 0), 1)
        assert [sets_of(p) for p in second] == [[["1"], ["2"]]]

    def test_single_player_outcomes_are_alpha_best_sets(self):
        game = Instance(
            items=(Item("a", 2), Item("b", 1)),
            players=(ExplicitSystem(maximal_sets=(frozenset({"a"}),
                                                  frozenset({"b"}))),))
        exact = enumerate_spe_outcomes(game, (0,), 1)
        assert [sets_of(p) for p in exact] == [[["a"]]]
        loose = enumerate_spe_outcomes(game, (0,), 2)
        assert {frozenset(p.items_of(0)) for p in loose} == {
            frozenset({"a"}), frozenset({"b"})}

    def test_greedy_path_is_one_of_the_outcomes(self, small_corpus):
        for game in small_corpus[:25]:
            for order in permutations(range(game.n)):
                greedy = greedy_sequential_outcome(game, order, 1, "exact")
                assert greedy in enumerate_spe_outcomes(game, order, 1)

    def test_membership_check_agrees_with_enumeration(self, small_corpus):
        for game in small_corpus[:15]:
            order = tuple(range(game.n))
            outcomes = set(enumerate_spe_outcomes(game, order, 1))
            for profile in outcomes:
                assert verify_spe_outcome(game, profile, order, 1).verdict

    def test_unrealizable_outcome_refuted_with_witness(self):
        game = ex_trivial()
        profile = Profile((frozenset({"2"}), frozenset()))
        report = verify_spe_outcome(game, profile, (1, 0), 1)
        assert not report.verdict
        assert report.witness.players == (1,)

    def test_every_outcome_is_a_nash_profile(self, small_corpus):
        # Sequential outcomes stay stable in the one-shot game.
        for game in small_corpus[:30]:
            for order in permutations(range(game.n)):
                for alpha in (1, Fraction(3, 2), 2):
                    for profile in enumerate_spe_outcomes(game, order, alpha):
                        assert verify_nash(game, profile, alpha).verdict


ALPHAS = (Fraction(1), Fraction(3, 2), Fraction(2))


@st.composite
def uniform_deadline_games(draw) -> tuple[Instance, list]:
    """Two or three players over up to 8 unit-weight jobs, each with its
    own zero-release table of one length on 1 to 3 machines: identical
    machines or shared copies of one machine.  The players hold different
    jobs, so the jobs of a class left to a player need not be its lowest
    ids.  A job is due at its length times a whole slot count, plus half
    a length half the time, so two deadlines often share a slot count.
    Also returns each player's fit test: in deadline order, the k-th job
    (from 0) ends at (k // machines + 1) lengths."""
    ids = [f"j{k}" for k in range(draw(st.integers(1, 8)))]
    due = {i: draw(st.integers(0, 4)) + draw(st.sampled_from((0, Fraction(1, 2))))
           for i in ids}
    players, fits = [], []
    for _ in range(draw(st.integers(2, 3))):
        length = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
        jobs = {i: JobWindow(0, length, length * due[i])
                for i in ids if draw(st.booleans())}
        machines = draw(st.integers(1, 3))
        players.append(IdenticalMachinesSystem(copies=machines, jobs=jobs)
                       if draw(st.booleans()) else
                       SharedSymmetricSystem(SingleMachineSystem(jobs), machines))

        def fit(items, jobs=jobs, machines=machines, length=length) -> bool:
            deadlines = sorted(jobs[i].deadline for i in items)
            return all((k // machines + 1) * length <= deadline
                       for k, deadline in enumerate(deadlines))

        fits.append(fit)
    return Instance(items=tuple(Item(i, 1) for i in ids),
                    players=tuple(players)), fits


def scanned_deadline_play(game: Instance, order, alpha, fits
                          ) -> tuple[Profile, int]:
    """Deadline play by enumeration, and its nodes: each player takes the
    first ceil(m / alpha) jobs of the documented largest-deadline scan of
    the jobs left in its universe, one node per such job."""
    remaining, nodes = game.item_ids, 0
    sets = [frozenset()] * game.n
    for player in order:
        system = game.players[player]
        deadlines = system.job_deadlines()
        pool = sorted(remaining & system.universe(),
                      key=lambda i: (-deadlines[i], i))
        nodes += len(pool)
        scan = brute_max_cardinality_scan(fits[player], pool)
        sets[player] = frozenset(scan[:math.ceil(len(scan) / alpha)])
        remaining -= sets[player]
    return Profile(tuple(sets)), nodes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(uniform_deadline_games(), st.sampled_from(ALPHAS), st.data())
def test_deadline_play_keeps_each_players_scan(drawn, alpha, data):
    game, fits = drawn
    order = data.draw(st.permutations(range(game.n)), label="order")
    expected, nodes = scanned_deadline_play(game, order, alpha, fits)
    counted = SearchBudget(10**6)
    assert greedy_sequential_outcome(game, order, alpha, "deadline",
                                     counted) == expected
    assert counted.used == nodes
    if nodes < 2:
        return
    short = SearchBudget(data.draw(st.integers(1, nodes - 1), label="limit"))
    with pytest.raises(BudgetExceededError,
                       match=f"budget of {short.limit} nodes exceeded"):
        greedy_sequential_outcome(game, order, alpha, "deadline", short)
    assert short.used == short.limit + 1


@st.composite
def mixed_deadline_games(draw) -> Instance:
    """One to three players over up to 6 unit-weight jobs, each on a
    system that slot counts do not decide: one or two machines whose
    first job is released at 1, identical machines whose first two jobs
    take 1 and 2, or unrelated machines.  Every player holds a job."""
    ids = [f"j{k}" for k in range(draw(st.integers(1, 6)))]
    players = []
    for _ in range(draw(st.integers(1, 3))):
        held = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        kind = draw(st.sampled_from(("released", "lengths", "unrelated")))
        due = {i: draw(st.integers(0, 6)) + draw(st.sampled_from(
            (0, Fraction(1, 2)))) for i in held}
        if kind == "unrelated":
            machines = ("m1", "m2")[:draw(st.integers(1, 2))]
            players.append(UnrelatedMachinesSystem(machines, {
                (m, i): draw(st.integers(1, 3)) for m in machines
                for i in held if draw(st.booleans())}, {
                i: TimeWindow(draw(st.integers(0, 1)), 1 + due[i])
                for i in held}))
            continue
        release = {i: draw(st.integers(0, 2)) for i in held}
        length = {i: draw(st.sampled_from((1, 2))) for i in held}
        if kind == "released":
            release[held[0]] = 1
        else:
            release = dict.fromkeys(held, 0)
            length.update(zip(held, (1, 2)))
        jobs = {i: JobWindow(release[i], length[i],
                             release[i] + length[i] + due[i] - 1)
                for i in held}
        copies = draw(st.integers(1, 2))
        players.append(SharedSymmetricSystem(SingleMachineSystem(jobs), copies)
                       if kind == "released" else
                       IdenticalMachinesSystem(copies=copies, jobs=jobs))
    return Instance(items=tuple(Item(i, 1) for i in ids),
                    players=tuple(players))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_deadline_games(), st.sampled_from(ALPHAS), st.data())
def test_deadline_play_keeps_each_players_scan_off_slot_counts(game, alpha,
                                                               data):
    """Off slot counts, each player keeps the documented scan of the jobs
    left to it and spends what its own `max_cardinality_feasible` spends
    on them, and a short budget fails as those scans would, in turn, on
    one budget: on the node after its limit, release dates included."""
    order = data.draw(st.permutations(range(game.n)), label="order")
    fits = [system.is_member for system in game.players]
    expected, _ = scanned_deadline_play(game, order, alpha, fits)

    def scans(budget: SearchBudget) -> None:
        remaining = game.item_ids
        for player in order:
            max_cardinality_feasible(game.players[player], remaining,
                                     True, budget)
            remaining -= expected.items_of(player)

    own = SearchBudget(10**6)
    scans(own)
    counted = SearchBudget(10**6)
    assert greedy_sequential_outcome(game, order, alpha, "deadline",
                                     counted) == expected
    assert counted.used == own.used
    if own.used < 2:
        return
    limit = data.draw(st.integers(1, own.used - 1), label="limit")
    failures = []
    for call in (scans, lambda budget: greedy_sequential_outcome(
            game, order, alpha, "deadline", budget)):
        short = SearchBudget(limit)
        with pytest.raises(BudgetExceededError) as caught:
            call(short)
        failures.append((short.used, str(caught.value)))
    assert failures[0] == failures[1]
    assert failures[0][0] == limit + 1


@st.composite
def seeded_games(draw) -> tuple:
    """A small seeded random game, symmetric or explicit, as its builder
    and arguments, so that a test can build fresh copies."""
    n, seed = draw(st.integers(1, 3)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return random_symmetric, {"n": n, "copies": draw(st.integers(1, 3)),
                                  "seed": seed}
    return random_explicit, {"n": n, "items": draw(st.integers(1, 5)),
                             "max_weight": 4, "seed": seed}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.builds(Fraction, st.integers(0, 12), st.integers(1, 3)),
                min_size=1, max_size=6),
       st.sampled_from(ALPHAS))
def test_spe_actions_are_the_sets_within_alpha(weights, alpha):
    """A lone mover over singletons may take exactly the sets, the empty
    one first, whose weight `within_alpha` keeps, ties included: the
    least weight the actions are filtered by is exact."""
    ids = [f"i{k}" for k in range(len(weights))]
    game = Instance(items=tuple(map(Item, ids, weights)), players=(
        ExplicitSystem(maximal_sets=tuple(frozenset({i}) for i in ids)),))
    actions = [(frozenset(), 0)] + [(frozenset({i}), w)
                                    for i, w in zip(ids, weights)]
    assert [outcome.sets[0] for outcome in enumerate_spe_outcomes(
        game, (0,), alpha)] == [action for action, weight in actions
                                if within_alpha(alpha, weight, max(weights))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_games(), st.sampled_from(ALPHAS))
def test_remembered_spe_actions_answer_and_spend_as_a_walk(built, alpha):
    """A fresh instance lists the oracle's outcomes in every order.  One
    that has already run the sequential PoA and every order, at every
    alpha, lists the same and spends as many nodes: a budget one node
    short of a fresh call's spending runs out on it too."""
    build, params = built
    warm = build(**params)
    orders = list(permutations(range(warm.n)))
    for factor in ALPHAS:
        empirical_sequential_poa(warm, factor)
        for order in orders:
            enumerate_spe_outcomes(warm, order, factor)
    for order in orders:
        game, budget = build(**params), SearchBudget()
        cold = enumerate_spe_outcomes(game, order, alpha, budget)
        assert list(cold) == brute_spe_outcomes(game, order, alpha)
        spent = SearchBudget()
        assert enumerate_spe_outcomes(warm, order, alpha, spent) == cold
        assert spent.used == budget.used
        if budget.used > 1:
            with pytest.raises(BudgetExceededError):
                enumerate_spe_outcomes(warm, order, alpha, budget.used - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_games(), st.data())
def test_kept_families_answer_and_spend_as_a_fresh_walk(built, data):
    """One instance answers the worst equilibrium for every k and alpha,
    in a drawn order, as a fresh instance answers each call: the same
    profile and welfare for the same nodes, though later calls read the
    families and best weights in pool that earlier ones kept."""
    build, params = built
    warm = build(**params)
    calls = data.draw(st.permutations(
        [(k, alpha) for k in range(1, warm.n + 1) for alpha in ALPHAS]))
    for k, alpha in calls:
        fresh, spent = SearchBudget(), SearchBudget()
        assert worst_equilibrium(warm, alpha, k, spent) == \
            worst_equilibrium(build(**params), alpha, k, fresh)
        assert spent.used == fresh.used


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_games(), st.sampled_from(ALPHAS), st.data())
def test_remembered_spe_actions_run_out_as_a_walk(built, alpha, data):
    """Under a budget too small for the call, an instance that has already
    run every order at every alpha fails as a fresh one does: with the
    same message, after the same nodes."""
    build, params = built
    warm = build(**params)
    for factor in ALPHAS:
        empirical_sequential_poa(warm, factor)
        for order in permutations(range(warm.n)):
            enumerate_spe_outcomes(warm, order, factor)
    order = data.draw(st.permutations(range(warm.n)), label="order")
    for call in (lambda game, budget: empirical_sequential_poa(
                     game, alpha, budget),
                 lambda game, budget: enumerate_spe_outcomes(
                     game, order, alpha, budget)):
        full = SearchBudget()
        call(build(**params), full)
        if full.used < 2:
            continue
        limit = data.draw(st.integers(1, full.used - 1), label="limit")
        failures = []
        for game in (build(**params), warm):
            budget = SearchBudget(limit)
            with pytest.raises(BudgetExceededError) as caught:
                call(game, budget)
            failures.append((budget.used, str(caught.value)))
        assert failures[0] == failures[1]


def _same_as_fresh(build, params, warm, call):
    """`call(game, budget)` on `warm` answers as on a fresh instance and
    spends as many nodes, twice over (the second a repeat), and a budget
    one node short runs out on both, at the node after its limit and
    with one message; returns the answer."""
    budget = SearchBudget()
    cold = call(build(**params), budget)
    for _ in range(2):
        spent = SearchBudget()
        assert call(warm, spent) == cold
        assert spent.used == budget.used
    if budget.used > 1:
        limit, failures = budget.used - 1, []
        for game in (build(**params), warm):
            short = SearchBudget(limit)
            with pytest.raises(BudgetExceededError) as caught:
                call(game, short)
            failures.append((short.used, str(caught.value)))
        assert failures[0] == failures[1]
        assert failures[0][0] == limit + 1
    return cold


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeded_games(), st.sampled_from(ALPHAS), st.data())
def test_remembered_replies_answer_and_spend_as_searches(built, alpha, data):
    """An instance that has measured its collusion PoA at every k and
    alpha in {1, 3/2} answers every reply, verifier and optimum as a fresh
    one does and spends as many nodes; the replies are the oracles'."""
    build, params = built
    warm = build(**params)
    for k in range(1, warm.n + 1):
        for factor in (Fraction(1), Fraction(3, 2)):
            empirical_collusion_poa(warm, k, factor)
    fresh = build(**params)
    profile = data.draw(st.sampled_from(
        enumerate_nash(fresh, alpha) + (compute_opt(fresh)[0],)),
        label="profile")
    ids = sorted(warm.item_ids)
    pools = [warm.item_ids, data.draw(st.frozensets(st.sampled_from(ids))
                                      if ids else st.just(frozenset()),
                                      label="pool")]
    same = lambda call: _same_as_fresh(build, params, warm, call)  # noqa: E731

    same(lambda game, b: verify_nash(game, profile, alpha, b))
    for k in range(1, warm.n + 1):
        same(lambda game, b: verify_collusion(game, profile, k, alpha, b))
    same(lambda game, b: compute_opt(game, b))
    for pool in pools:
        same(lambda game, b: compute_opt(game, b, pool))
        for player in range(warm.n):
            assert same(lambda game, b: best_response(game, player, pool, b)
                        ) == brute_best_response(fresh, player, pool)
        for size in range(1, warm.n + 1):
            for coalition in combinations(range(warm.n), size):
                assert same(lambda game, b: coalition_best_response(
                    game, coalition, pool, b)) == brute_coalition(
                        fresh, coalition, pool)


def _verifier_calls(game, profile):
    """Every verifier's call on `profile` at every alpha, k, order and
    player, each with the oracle pools its first deviation is sought in."""
    calls = []
    for alpha in ALPHAS:
        calls.append((lambda g, b, alpha=alpha: verify_nash(
            g, profile, alpha, b), alpha, nash_pools(game, profile)))
        for k in range(1, game.n + 1):
            calls.append((lambda g, b, k=k, alpha=alpha: verify_collusion(
                g, profile, k, alpha, b), alpha,
                collusion_pools(game, profile, k)))
        for order in permutations(range(game.n)):
            calls.append((lambda g, b, order=order, alpha=alpha:
                          verify_spe_outcome(g, profile, order, alpha, b),
                          alpha, spe_pools(game, profile, order)))
        for (player,), pool in nash_pools(game, profile):
            calls.append((lambda g, b, player=player, pool=pool, alpha=alpha:
                          is_alpha_best_response(
                              g, player, pool - profile.sets[player],
                              profile.sets[player], alpha, b),
                          alpha, [((player,), pool)]))
    return calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeded_games(), st.data())
def test_warm_verifiers_answer_and_spend_as_fresh_ones(built, data):
    """An instance that has already run every verifier on every candidate
    profile answers each verifier as a fresh one does, for as many nodes,
    with the oracles' verdict and witness.  A budget one node short fails
    on both at the node after its limit with one message, including when
    the warm instance remembers a reply the budget cannot pay."""
    build, params = built
    fresh = build(**params)
    candidates = (enumerate_spe_outcomes(fresh, range(fresh.n), 1)[:2]
                  + enumerate_nash(fresh, 1)[:2] + (compute_opt(fresh)[0],
                  Profile(tuple(frozenset() for _ in range(fresh.n)))))
    warm = build(**params)
    for candidate in candidates:
        for call, _, _ in _verifier_calls(warm, candidate):
            call(warm, None)
    profile = data.draw(st.sampled_from(candidates), label="profile")
    for call, alpha, pools in _verifier_calls(fresh, profile):
        report = _same_as_fresh(build, params, warm, call)
        witness = brute_first_deviation(fresh, profile, alpha, pools)
        if isinstance(report, EquilibriumReport):
            assert (report.verdict, report.witness) == (witness is None,
                                                        witness)
        else:
            assert report == (witness or True)


def test_reply_counts_see_every_remembered_reply():
    """The counters the benchmark's tracer reads: every reply a verifier or
    a public function asks counts once in `asked`, and every search once
    in `misses`.  A Nash check on a fresh instance asks one reply per
    player and searches each distinct one; a repeat asks as many and
    searches none.  So do a collusion check at k = 2, whose pairs first
    ask their members' single replies, and the public replies."""
    # The package's `best_response` is the function; the counters live on
    # its module.
    counts = import_module("spgames.best_response")._best_response_cached
    game = random_symmetric(n=3, copies=2, seed=8)
    memo = game._memo
    profile = enumerate_nash(game, 1)[0]
    # Players 2 and 3 are of one kind and hold nothing: they ask one reply.
    assert memo.kinds == (0, 0, 0)
    assert profile.sets[1] == profile.sets[2] == frozenset()
    start = counts.asked, counts.misses

    def asked(calls: int, searches: int) -> None:
        assert (counts.asked, counts.misses) == (start[0] + calls,
                                                 start[1] + searches)
        assert len(memo.replies) == searches

    assert verify_nash(game, profile, 1).verdict
    asked(game.n, 2)
    verify_nash(game, profile, 1)
    asked(2 * game.n, 2)
    # The three singles are remembered.  Each pair pools the unclaimed
    # items with what it holds.  Player 1's two pairs pool its items too:
    # their members' single replies there, which are the Nash check's of
    # player 1, sum past what they hold, so each pair asks two singles
    # and a joint reply, searched once for both pairs.  Players 2 and 3
    # reach nothing in the unclaimed items alone, so their two singles
    # settle the last pair: 3 + 3 + 3 + 2 = 11 replies per check.
    for repeat in range(2):
        assert verify_collusion(game, profile, 2, 1).verdict
        asked(2 * game.n + 11 * (repeat + 1), 3)
    # A pool no check asked: one search for the three players of one
    # kind, one for the pairs, one for the whole coalition.
    pool = game.item_ids - {min(profile.sets[0])}
    for player in range(game.n):
        assert best_response(game, player, pool) == brute_best_response(
            game, player, pool)
    asked(31, 4)
    for coalition in combinations(range(game.n), 2):
        assert coalition_best_response(game, coalition, pool) == (
            brute_coalition(game, coalition, pool))
    asked(34, 5)
    coalition_best_response(game, range(game.n), pool)
    asked(35, 6)


def test_players_of_one_kind_share_one_reply():
    game = random_symmetric(n=3, copies=1, seed=4)
    memo = game._memo
    assert memo.kinds == (0, 0, 0)
    replies = [best_response(game, player, game.item_ids)
               for player in range(3)]
    assert replies[1:] == replies[:2] and len(memo.replies) == 1
    pairs = [coalition_best_response(game, pair, game.item_ids)
             for pair in combinations(range(3), 2)]
    assert pairs[1:] == pairs[:2] and len(memo.replies) == 2


def test_collusion_listings_of_the_four_player_construction():
    """The listings of `ex_collusion(4, 2, 3/2)` at alpha 3/2: a Nash
    leaf's coalitions are mostly settled by their members' kept single
    weights, and each joint reply the rest ask is paid for."""
    game = ex_collusion(4, 2, Fraction(3, 2))
    for k, count, nodes in ((2, 2_402, 48_377), (3, 2_401, 50_552)):
        budget = SearchBudget()
        assert len(enumerate_collusion(game, k, Fraction(3, 2), budget)) == count
        assert budget.used == nodes


# `SearchBudget.used` of `empirical_collusion_poa` on the first twelve
# games of the benchmark's collusion corpus, each call on a fresh
# instance, at k = 1..n and alpha 1 then 3/2 for each k.
CORPUS_NODES = {
    0: (13, 13),
    1: (38, 40, 64, 92),
    2: (276, 345, 444, 401, 525, 563),
    3: (34, 37),
    4: (34, 30, 48, 58),
    5: (133, 133, 157, 167, 202, 257),
    6: (35, 38),
    7: (103, 137, 211, 189),
    8: (42, 42, 52, 46, 67, 61),
    9: (13, 13),
    10: (73, 81, 89, 129),
    11: (218, 224, 329, 599, 527, 797),
}


@pytest.mark.parametrize("seed", sorted(CORPUS_NODES))
def test_nodes_of_the_collusion_corpus(seed):
    """The Nash and collusion walks, with the optimum, spend exactly the
    pinned nodes on random games."""
    n = 1 + seed % 3
    spent = []
    for k in range(1, n + 1):
        for alpha in (Fraction(1), Fraction(3, 2)):
            game = random_explicit(n=n, items=3 + seed % 4, max_weight=8,
                                   seed=seed)
            budget = SearchBudget()
            empirical_collusion_poa(game, k, alpha, budget)
            spent.append(budget.used)
    assert tuple(spent) == CORPUS_NODES[seed]


def test_single_replies_settle_the_constructed_equilibrium():
    """The bad equilibrium of `ex_collusion(4, 3, 1)` resists every
    coalition of up to three players, and each coalition's single replies
    already show it: the check searches no joint reply."""
    counts = import_module("spgames.best_response")._best_response_cached
    spec = GeneratorSpec.make("ex_collusion", n=4, k=3, alpha=Fraction(1))
    game = generate(spec)
    start = counts.misses
    assert verify_collusion(game, reference_profiles(spec)["bad_equilibrium"],
                            3, 1).verdict
    assert counts.misses - start == len(game._memo.replies) > 0
    assert all(len(kinds) == 1 for kinds, _ in game._memo.replies)


class TestVerifyCollusion:
    def test_pair_can_rescue_the_blocked_optimum(self):
        game = ex_trivial()
        profile = Profile((frozenset({"2"}), frozenset()))
        report = verify_collusion(game, profile, 2, 1)
        assert not report.verdict
        assert report.witness.players == (0, 1)
        assert report.witness.proposed == (frozenset({"1"}), frozenset({"2"}))
        assert replay_deviation(game, profile, report.witness, 1)

    def test_constructed_equilibrium_resists_pairs(self):
        spec = GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(1))
        game = generate(spec)
        bad = reference_profiles(spec)["bad_equilibrium"]
        assert verify_collusion(game, bad, 2, 1).verdict
        assert not verify_collusion(game, bad, 3, 1).verdict

    def test_k_one_equals_nash_verdict(self, small_corpus):
        rng = random.Random(71)
        for game in small_corpus[:25]:
            profiles = enumerate_nash(game, Fraction(3, 2))
            if not profiles:
                continue
            profile = profiles[rng.randrange(len(profiles))]
            for alpha in (1, Fraction(3, 2)):
                nash = verify_nash(game, profile, alpha).verdict
                assert verify_collusion(game, profile, 1, alpha).verdict == nash

    def test_monotone_in_k_and_alpha(self, small_corpus):
        for game in small_corpus[:20]:
            for profile in enumerate_nash(game, 1)[:4]:
                verdicts = [verify_collusion(game, profile, k, 1).verdict
                            for k in range(1, game.n + 1)]
                # Once a coalition size breaks the profile, larger ones do too.
                assert verdicts == sorted(verdicts, reverse=True)
                if game.n >= 2 and not verify_collusion(game, profile, 2, 1).verdict:
                    assert verify_collusion(game, profile, 2, 10).verdict or True
                    for alpha in (Fraction(3, 2), 2):
                        low = verify_collusion(game, profile, 2, alpha).verdict
                        high = verify_collusion(game, profile, 2, alpha + 1).verdict
                        assert high or not low

    def test_witnesses_replay(self, small_corpus):
        for game in small_corpus[:25]:
            if game.n < 2:
                continue
            for profile in enumerate_nash(game, 1)[:3]:
                report = verify_collusion(game, profile, game.n, 1)
                if not report.verdict:
                    assert replay_deviation(game, profile, report.witness, 1)

    def test_k_out_of_range_rejected(self):
        game = ex_trivial()
        with pytest.raises(InputError):
            verify_collusion(game, Profile((frozenset(), frozenset())), 3, 1)


SYM_SPEC = GeneratorSpec.make("ex_sym", p=2, q=1, n=4)
VERIFIERS = {
    "nash": lambda game, profile, budget: verify_nash(game, profile, 2, budget),
    "spe": lambda game, profile, budget: verify_spe_outcome(
        game, profile, range(game.n), 2, budget),
    "collusion": lambda game, profile, budget: verify_collusion(
        game, profile, game.n, 2, budget)}


class TestOneBudgetPerCall:
    # An integer budget caps the whole call, not each reply inside it.
    @pytest.mark.parametrize("concept", sorted(VERIFIERS))
    @pytest.mark.parametrize("profile_name", ["bad_equilibrium", "first_spe"])
    def test_an_integer_budget_caps_the_whole_call(self, concept, profile_name):
        game = generate(SYM_SPEC)
        profile = (enumerate_spe_outcomes(game, range(game.n), 2)[0]
                   if profile_name == "first_spe"
                   else reference_profiles(SYM_SPEC)[profile_name])
        verify = VERIFIERS[concept]
        counted = SearchBudget(10**9)
        report = verify(game, profile, counted)
        with pytest.raises(BudgetExceededError):
            verify(game, profile, counted.used - 1)
        assert verify(game, profile, counted.used) == report


    def test_validation_spends_the_callers_budget(self, monkeypatch):
        # Single machines make a default budget for a membership test
        # given none, so a verifier that validates outside its budget
        # makes one.
        game = ex_asym(3, 2)
        profile = reference_profiles(
            GeneratorSpec.make("ex_asym", p=3, q=2))["bad_equilibrium"]
        budget = SearchBudget()
        made = []
        original = SearchBudget.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SearchBudget, "__init__", counting)
        verify_collusion(game, profile, 2, 1, budget=budget)
        assert made == [] and budget.used > 0


COLLUSION_SPEC = GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(1))


@st.composite
def games_with_profile(draw, weights=WEIGHTS) -> tuple[Instance, Profile]:
    """A game with item weights from `weights` and a valid profile: half
    the time a Nash profile, so that larger coalitions get to deviate;
    otherwise each player in turn takes one of its maximal sets or a part
    of it, less the items taken before it."""
    game = draw(games(max_set=3, weights=weights))
    stable = enumerate_nash(game, 1)
    if stable and draw(st.booleans()):
        return game, draw(st.sampled_from(stable))
    taken: frozenset[str] = frozenset()
    sets = []
    for system in game.players:
        maximal = draw(st.sampled_from(system.maximal_sets))
        if maximal and draw(st.booleans()):
            maximal = draw(st.frozensets(st.sampled_from(sorted(maximal))))
        sets.append(maximal - taken)
        taken |= maximal
    return game, Profile(tuple(sets))


# Random games rarely let a larger coalition deviate where no player
# does, so the examples pin two that do: a pair in the two-item game and
# all three players in the collusion construction.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(games_with_profile(),
       st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
@example((ex_trivial(), Profile((frozenset({"2"}), frozenset()))), Fraction(1))
@example((generate(COLLUSION_SPEC),
          reference_profiles(COLLUSION_SPEC)["bad_equilibrium"]), Fraction(1))
def test_verifiers_match_the_oracles(game_profile, alpha):
    game, profile = game_profile
    assert_verifiers_match_the_oracles(game, profile, alpha)


def assert_verifiers_match_the_oracles(game, profile, alpha):
    """Every verdict and witness of the three verifiers is the oracles';
    returns the reports."""
    reports = []

    def expect(report, pools):
        witness = brute_first_deviation(game, profile, alpha, pools)
        assert (report.verdict, report.witness) == (witness is None, witness)
        reports.append(report)

    nash = verify_nash(game, profile, alpha)
    expect(nash, nash_pools(game, profile))
    assert verify_nash(game, profile, alpha, 10**6) == nash
    single = verify_collusion(game, profile, 1, alpha)
    assert (single.verdict, single.witness) == (nash.verdict, nash.witness)
    for k in range(1, game.n + 1):
        expect(verify_collusion(game, profile, k, alpha),
               collusion_pools(game, profile, k))
    for order in permutations(range(game.n)):
        expect(verify_spe_outcome(game, profile, order, alpha),
               spe_pools(game, profile, order))
    return reports


# The two-item game's pair deviates where neither player does, so its
# single replies settle nothing there.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(games_with_profile())
@example((ex_trivial(), Profile((frozenset({"2"}), frozenset()))))
def test_coalitions_the_single_replies_settle_match_the_oracles(game_profile):
    """Skipping a coalition whose members' single replies sum within alpha
    of what it holds changes no listing, verdict or witness: at every
    k >= 2 and alpha, the listing is the oracle's Nash list less the
    profiles some coalition of at most k players improves, and the
    verifier answers the oracle on the drawn profile and on the first
    Nash profiles."""
    game, profile = game_profile
    for alpha in ALPHAS:
        nash = brute_enumerate_nash(game, alpha)
        for k in range(2, game.n + 1):
            assert list(enumerate_collusion(game, k, alpha)) == [
                stable for stable in nash
                if brute_first_deviation(game, stable, alpha, collusion_pools(
                    game, stable, k)) is None]
            for checked in [profile] + nash[:3]:
                report = verify_collusion(game, checked, k, alpha)
                witness = brute_first_deviation(
                    game, checked, alpha, collusion_pools(game, checked, k))
                assert (report.verdict, report.witness) == (witness is None,
                                                            witness)


# Denominators 3, 2, 6 and 4 put the weights on a scale of up to 12, so
# sums cross denominators.
FINE_WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6),
                Fraction(7, 4), Fraction(3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(games_with_profile(FINE_WEIGHTS),
       st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
def test_verifiers_match_the_oracles_across_denominators(game_profile, alpha):
    """The verifiers and the best responses return the oracles' values as
    `Fraction`s, for weights whose sums cross denominators."""
    game, profile = game_profile
    for report in assert_verifiers_match_the_oracles(game, profile, alpha):
        assert type(report.welfare) is Fraction
        if report.witness:
            witness = report.witness
            assert type(witness.old_value) is type(witness.new_value) is Fraction
            # An SPE reply may take a later mover's items, so it replays
            # only through the oracle above.
            assert report.concept == "spe" or replay_deviation(
                game, profile, witness, alpha)
    for (player,), pool in nash_pools(game, profile):
        chosen, value = best_response(game, player, pool)
        assert type(value) is Fraction
        assert (chosen, value) == brute_best_response(game, player, pool)
        found = is_alpha_best_response(game, player, pool - profile.sets[player],
                                       profile.sets[player], alpha)
        witness = brute_first_deviation(game, profile, alpha,
                                        [((player,), pool)])
        assert found == (witness or True)
        if witness:
            assert type(found.old_value) is type(found.new_value) is Fraction
    for coalition, pool in collusion_pools(game, profile, game.n):
        proposed, value = coalition_best_response(game, coalition, pool)
        assert type(value) is Fraction
        assert (proposed, value) == brute_coalition(game, coalition, pool)


class TestPriceOfStability:
    def test_opt_profile_is_a_nash_equilibrium(self):
        # The optimum of any of the constructions is itself stable.
        for spec in (GeneratorSpec.make("ex_trivial"),
                     GeneratorSpec.make("ex_asym", p=3, q=2),
                     GeneratorSpec.make("ex_sym", p=3, q=2, n=3),
                     GeneratorSpec.make("ex_collusion", n=3, k=2,
                                        alpha=Fraction(1))):
            game = generate(spec)
            opt = reference_profiles(spec)["opt"]
            assert verify_nash(game, opt, 1).verdict
