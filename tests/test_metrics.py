"""Centralized optimum and the empirical price-of-anarchy measurements."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from spgames import (BudgetExceededError, ExplicitSystem, GeneratorSpec,
                     Instance, Item, RationalInterval, SearchBudget,
                     compute_opt, empirical_collusion_poa, empirical_poa,
                     empirical_sequential_poa, ex_asym, ex_collusion, ex_seq,
                     ex_sym, ex_trivial, generate, greedy_sequential_outcome,
                     random_explicit, random_symmetric,
                     ratio_within_sequential_bound,
                     reference_profiles, verify_collusion, welfare)
from spgames import metrics

from oracles import (brute_enumerate_nash, brute_first_deviation, brute_opt,
                     collusion_pools)
from test_search import exhaustive, games


class TestComputeOpt:
    def test_two_item_game(self):
        profile, value = compute_opt(ex_trivial())
        assert value == 2
        assert [sorted(s) for s in profile.sets] == [["1"], ["2"]]

    def test_asymmetric_machines_pack_everything(self):
        _, value = compute_opt(ex_asym(3, 2))
        assert value == 5

    def test_no_items(self):
        game = Instance(items=(),
                        players=(ExplicitSystem(maximal_sets=(frozenset(),)),))
        profile, value = compute_opt(game)
        assert value == 0 and profile.all_items() == frozenset()

    def test_matches_brute_force_on_corpus(self, corpus):
        for game in corpus[::10]:
            assert compute_opt(game) == brute_opt(game)

    def test_available_restriction(self):
        game = ex_trivial()
        _, value = compute_opt(game, available={"2"})
        assert value == 1

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            compute_opt(ex_asym(3, 2), budget=3)


class TestEmpiricalPoa:
    def test_two_item_game_ratio_two(self):
        result = empirical_poa(ex_trivial(), 1)
        assert result.ratio == 2
        assert result.bound == 2 and result.bound_satisfied
        assert welfare(ex_trivial(), result.worst_profile) == 1

    def test_asymmetric_bound_attained(self):
        result = empirical_poa(ex_asym(3, 2), Fraction(3, 2))
        assert result.ratio == Fraction(5, 2)
        assert result.bound == Fraction(5, 2) and result.bound_satisfied

    def test_symmetric_ratio_thirteen_sixths(self):
        result = empirical_poa(ex_sym(3, 2, 3), Fraction(3, 2))
        assert result.ratio == Fraction(13, 6)
        assert result.bound_satisfied

    def test_players_of_one_system_walk_its_sets_once(self):
        # The three players share one system, so the Nash walk lists its
        # feasible sets once; listing them per player spent 3,007 nodes.
        # The light jobs and the heavy ones are two classes of repeated
        # items, walked once per orbit: 1,759 nodes when each was walked.
        budget = SearchBudget(10**6)
        result = empirical_poa(ex_sym(3, 2, 3), 1, budget)
        assert (budget.used, result.ratio) == (735, Fraction(13, 10))


class TestSequentialPoa:
    def test_two_item_game_over_both_orders(self):
        result = empirical_sequential_poa(ex_trivial(), 1)
        assert result.ratio == 2
        assert result.orders_examined == 2
        assert result.bound == 2 and result.bound_satisfied

    def test_single_player_ratio_one(self):
        game = Instance(items=(Item("a", 4),),
                        players=(ExplicitSystem(maximal_sets=(frozenset({"a"}),)),))
        result = empirical_sequential_poa(game, 1)
        assert result.ratio == 1 and result.orders_examined == 1

    def test_deadline_grid_greedy_ratio_below_certified_bound(self):
        game = ex_seq(3)
        outcome = greedy_sequential_outcome(game, range(3), 1, "deadline")
        opt = welfare(game, reference_profiles(
            GeneratorSpec.make("ex_seq", n=3))["opt"])
        ratio = opt / welfare(game, outcome)
        assert (opt, ratio) == (9, Fraction(9, 7))
        assert ratio_within_sequential_bound(ratio, 1)

    def test_symmetric_instances_report_interval_bound(self):
        game = generate(GeneratorSpec.make("random_symmetric",
                                           n=2, copies=1, seed=5))
        result = empirical_sequential_poa(game, 1)
        assert isinstance(result.bound, RationalInterval)
        assert result.bound_satisfied

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("least", [1, 2, 3, 4])
    def test_verdict_is_the_certified_decision(self, monkeypatch, least, wide):
        # No symmetric game exceeds the bound, so the least welfare is
        # forced: ex_seq(2)'s optimum 4 over 1..4 gives ratios on both
        # sides of it.  A wide enclosure puts 4/3 and 2 inside it, where
        # the verdict must refine it.
        game, real = ex_seq(2), metrics.least_sequential_outcome
        monkeypatch.setattr(metrics, "least_sequential_outcome",
                            lambda *args: (real(*args)[0], least))
        if wide:
            monkeypatch.setattr(metrics, "bound_sequential_symmetric",
                                lambda alpha: RationalInterval(1, 3))
        result = empirical_sequential_poa(game, 1)
        assert result.ratio == Fraction(4, least)
        assert result.bound_satisfied == ratio_within_sequential_bound(
            result.ratio, 1) == (least >= 3)

    # The SPE pins of test_feasibility.py list every outcome of every
    # order of the same game.  ex_sym's players share one system, so its
    # n! orders are one class, of 479,001,600 orders at n = 12.  Its
    # movers walk only the sets that take the lowest-id jobs of each
    # class; walking and trying every action spent 306 and 181,048 nodes.
    @pytest.mark.parametrize("game, alpha, nodes, ratio", [
        (random_symmetric(n=4, copies=3, seed=2), Fraction(1), 405, 1),
        (random_symmetric(n=4, copies=3, seed=2), Fraction(3, 2), 993, 1),
        (ex_sym(2, 1, 4), Fraction(1), 85, 1),
        (ex_sym(2, 1, 12), Fraction(1), 365, 1),
    ], ids=["symmetric-1", "symmetric-1.5", "ex_sym-4", "ex_sym-12"])
    def test_nodes_of_the_least_outcome(self, game, alpha, nodes, ratio):
        budget = SearchBudget(10**6)
        result = empirical_sequential_poa(game, alpha, budget)
        assert (budget.used, result.ratio) == (nodes, ratio)
        assert result.orders_examined == math.factorial(game.n)


class TestCollusionPoa:
    def test_constructed_instance_hits_three_halves(self):
        game = generate(GeneratorSpec.make("ex_collusion", n=3, k=2,
                                           alpha=Fraction(1)))
        result = empirical_collusion_poa(game, 2, 1)
        assert result.ratio == Fraction(3, 2)
        assert result.bound == Fraction(3, 2) and result.bound_satisfied

    def test_two_item_game_pairs_restore_optimum(self):
        result = empirical_collusion_poa(ex_trivial(), 2, 1)
        assert result.ratio == 1

    def test_k_one_reduces_to_plain_poa(self, corpus):
        for game in corpus[::60]:
            plain = empirical_poa(game, 1)
            reduced = empirical_collusion_poa(game, 1, 1)
            assert plain.ratio == reduced.ratio
            assert plain.worst_profile == reduced.worst_profile

    def test_full_coalition_at_alpha_one_recovers_optimum(self, corpus):
        for game in corpus[::60]:
            if game.n < 2:
                continue
            result = empirical_collusion_poa(game, game.n, 1)
            assert result.ratio == 1
            assert result.worst_equilibrium_welfare == result.opt_welfare

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(1), Fraction(3, 2)])
    def test_four_player_construction_is_measured_exactly(self, k, alpha):
        # 16 items: listing every profile would need 5**16 nodes.
        result = empirical_collusion_poa(ex_collusion(4, k, alpha), k, alpha)
        assert result.ratio == alpha + Fraction(4 - k, 3) == result.bound

    def test_single_player_reports_ratio_only(self):
        game = Instance(items=(Item("a", 4),),
                        players=(ExplicitSystem(maximal_sets=(frozenset({"a"}),)),))
        result = empirical_collusion_poa(game, 1, 1)
        assert result.ratio == 1 and result.bound is None


def _first_least_welfare(game, profiles):
    """The reference worst profile: the first of least welfare, in order."""
    worst = min(welfare(game, profile) for profile in profiles)
    return next(p for p in profiles if welfare(game, p) == worst), worst


# Player 1 can take only a; player 0 holding a while c lies free is Nash,
# but the pair rejects it.
CONTESTED = Instance(items=(Item("a", Fraction(1, 2)), Item("c", Fraction(1, 2))),
                     players=(ExplicitSystem(maximal_sets=(frozenset("a"),
                                                           frozenset("c"))),
                              ExplicitSystem(maximal_sets=(frozenset("a"),))))


@exhaustive
@given(games(max_set=2), st.sampled_from((Fraction(1), Fraction(3, 2))))
@example(CONTESTED, Fraction(1))
def test_worst_first_matches_filtered_enumeration(game, alpha):
    """Weights include 0, so several profiles often share the least
    welfare and the tie-break is exercised.  Maximal sets of at most two
    items make players compete for the same items, so coalitions can
    reject the least-welfare Nash profiles; `CONTESTED` always has one."""
    nash = brute_enumerate_nash(game, alpha)
    opt = brute_opt(game)[1]

    def check(result, candidates):
        profile, worst = _first_least_welfare(game, candidates)
        assert result.worst_profile == profile
        assert result.worst_equilibrium_welfare == worst
        assert result.ratio == (opt / worst if worst else 1)

    check(empirical_poa(game, alpha), nash)
    for k in range(1, game.n + 1):
        check(empirical_collusion_poa(game, k, alpha),
              [p for p in nash if verify_collusion(game, p, k, alpha).verdict])


@exhaustive
@given(st.one_of(games(max_set=2), games(max_set=2, shared=True)),
       st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
@example(CONTESTED, Fraction(1))
@example(ex_trivial(), Fraction(1))
def test_worst_equilibrium_matches_the_oracle(game, alpha):
    """The pruned search against the first least-welfare profile of the
    brute-force Nash list, filtered by the brute-force coalition check.
    Shared systems let the walk skip relabelled assignments.  The Nash
    profiles of `ex_trivial` are one weight unit apart, so a bound that
    prunes one unit early shows there."""
    nash = brute_enumerate_nash(game, alpha)
    opt = brute_opt(game)[1]

    def check(result, candidates):
        profile, worst = _first_least_welfare(game, candidates)
        assert (result.worst_profile, result.worst_equilibrium_welfare,
                result.ratio) == (profile, worst, opt / worst if worst else 1)

    check(empirical_poa(game, alpha), nash)
    for k in range(1, game.n + 1):
        check(empirical_collusion_poa(game, k, alpha),
              [p for p in nash if brute_first_deviation(
                  game, p, alpha, collusion_pools(game, p, k)) is None])


# SearchBudget.used by empirical_collusion_poa at alpha 1 when every Nash
# profile was checked against the coalition condition.
FULL_FILTER_NODES = [
    (generate(GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(1))),
     {1: 3125, 2: 3417, 3: 3525}),
    (random_explicit(n=3, items=6, max_weight=8, seed=11),
     {1: 672, 2: 1210, 3: 2002}),
]


@pytest.mark.parametrize("game, full_filter", FULL_FILTER_NODES,
                         ids=["ex_collusion", "random_explicit"])
def test_worst_first_spends_no_more_nodes(game, full_filter):
    used = {}
    for k in full_filter:
        budget = SearchBudget()
        empirical_collusion_poa(game, k, 1, budget)
        used[k] = budget.used
        assert used[k] <= full_filter[k]
    assert sum(used.values()) < sum(full_filter.values())
