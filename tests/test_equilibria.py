"""Equilibrium verification, enumeration, and sequential play."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from spgames import (BudgetExceededError, ExplicitSystem, GeneratorSpec,
                     InputError, Instance, Item, Profile, SearchBudget,
                     best_response, coalition_best_response, compute_opt,
                     empirical_collusion_poa, empirical_sequential_poa,
                     enumerate_nash, enumerate_spe_outcomes, ex_asym,
                     ex_collusion, ex_seq, ex_sym, ex_trivial, generate,
                     greedy_sequential_outcome, is_alpha_best_response,
                     random_explicit, random_symmetric, reference_profiles,
                     verify_collusion, verify_nash, verify_spe_outcome,
                     welfare)
from spgames.equilibria import enumerate_collusion

from oracles import (brute_best_response, brute_coalition,
                     brute_enumerate_nash, brute_first_deviation,
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

    # The scan spends one node per candidate.  The counts are pinned, so
    # a faster scan cannot move the point where a budget stops it.
    @pytest.mark.parametrize("n, nodes", [(6, 140), (9, 465), (12, 1098)])
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
    one node short runs out on both; returns the answer."""
    budget = SearchBudget()
    cold = call(build(**params), budget)
    for _ in range(2):
        spent = SearchBudget()
        assert call(warm, spent) == cold
        assert spent.used == budget.used
    if budget.used > 1:
        for game in (build(**params), warm):
            with pytest.raises(BudgetExceededError):
                call(game, budget.used - 1)
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
    """The listings of `ex_collusion(4, 2, 3/2)` at alpha 3/2: every joint
    reply a Nash leaf asks is paid for, and k = 3 fits the default
    budget."""
    game = ex_collusion(4, 2, Fraction(3, 2))
    for k, count, nodes in ((2, 2_402, 2_711_311), (3, 2_401, 9_978_226)):
        budget = SearchBudget()
        assert len(enumerate_collusion(game, k, Fraction(3, 2), budget)) == count
        assert budget.used == nodes


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
