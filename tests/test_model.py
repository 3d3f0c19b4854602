"""Core model: payoffs, welfare, profile validation, exact arithmetic."""

import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction
from itertools import permutations
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from spgames import (INFEASIBLE, BudgetExceededError, GeneratorSpec,
                     IdenticalMachinesSystem,
                     InputError, Instance, Item, JobWindow, Payoff, Profile,
                     ExplicitSystem, SearchBudget, SharedSymmetricSystem,
                     SingleMachineSystem,
                     TimeWindow, UnrelatedMachinesSystem, Violation,
                     best_response,
                     bound_collusion, bound_series_b, coalition_best_response,
                     compute_opt, empirical_collusion_poa,
                     empirical_sequential_poa, enumerate_spe_outcomes,
                     ex_asym, ex_seq, ex_trivial, exp_enclosure, generate,
                     is_alpha_best_response, payoff, random_symmetric,
                     validate_profile, verify_collusion, verify_nash,
                     verify_spe_outcome, welfare)
from spgames.best_response import check_alpha
from spgames.equilibria import check_order, enumerate_collusion
from spgames.serialize import (document_to_instance, dumps_document,
                               instance_to_document, loads_document)

from oracles import brute_violations, weight_of


def two_item_game() -> Instance:
    return ex_trivial()


class TestPayoff:
    def test_disjoint_profile_pays_item_weights(self):
        game = two_item_game()
        profile = Profile((frozenset({"1"}), frozenset({"2"})))
        assert payoff(game, profile, 0) == Payoff.finite(1)
        assert payoff(game, profile, 1) == Payoff.finite(1)

    def test_shared_item_is_infeasible_for_both(self):
        game = two_item_game()
        profile = Profile((frozenset({"2"}), frozenset({"2"})))
        assert payoff(game, profile, 0).is_infeasible
        assert payoff(game, profile, 1).is_infeasible

    def test_empty_set_pays_zero(self):
        game = two_item_game()
        profile = Profile((frozenset(), frozenset({"2"})))
        assert payoff(game, profile, 0) == Payoff.finite(0)

    def test_unknown_item_is_an_input_error(self):
        game = two_item_game()
        profile = Profile((frozenset({"7"}), frozenset()))
        with pytest.raises(InputError):
            payoff(game, profile, 0)

    def test_infeasible_own_set_is_an_input_error_not_infeasible(self):
        game = two_item_game()
        profile = Profile((frozenset(), frozenset({"1"})))
        with pytest.raises(InputError):
            payoff(game, profile, 1)

    @pytest.mark.parametrize("player", [2, -1])
    def test_player_out_of_range_is_an_input_error(self, player):
        game = two_item_game()
        with pytest.raises(InputError) as caught:
            payoff(game, Profile((frozenset(), frozenset())), player)
        assert str(caught.value) == (
            f"player index {player} out of range for n=2")

    def test_profile_of_another_size_is_an_input_error(self):
        with pytest.raises(InputError) as caught:
            payoff(two_item_game(), Profile((frozenset(),)), 0)
        assert str(caught.value) == "profile has 1 players, instance has 2"

    def test_infeasible_sorts_below_every_finite_value(self):
        assert INFEASIBLE < Payoff.finite(Fraction(-5))
        assert INFEASIBLE < Payoff.finite(0)
        assert Payoff.finite(Fraction(1, 3)) < Payoff.finite(Fraction(1, 2))
        assert not INFEASIBLE < INFEASIBLE
        assert INFEASIBLE <= INFEASIBLE

    def test_all_four_comparisons_follow_one_order(self):
        ordered = [INFEASIBLE, Payoff.finite(0), Payoff.finite(1)]
        for i, left in enumerate(ordered):
            for j, right in enumerate(ordered):
                assert (left < right, left <= right, left > right,
                        left >= right) == (i < j, i <= j, i > j, i >= j)


class TestWelfare:
    def test_optimum_profile(self):
        game = two_item_game()
        assert welfare(game, Profile((frozenset({"1"}), frozenset({"2"})))) == 2

    def test_single_item_profile(self):
        game = two_item_game()
        assert welfare(game, Profile((frozenset({"2"}), frozenset()))) == 1

    def test_all_empty_profile(self):
        game = two_item_game()
        assert welfare(game, Profile((frozenset(), frozenset()))) == 0

    def test_an_integer_budget_caps_the_whole_validation(self):
        # Each set spends 2 nodes, 4 in all: an int caps them together,
        # as a `SearchBudget` of that limit does.
        machine = SingleMachineSystem({i: JobWindow(0, 1, 3) for i in "abcd"})
        game = Instance(items=tuple(Item(i, 1) for i in "abcd"),
                        players=(machine, machine))
        profile = Profile((frozenset("ab"), frozenset("cd")))
        for limit in (3, SearchBudget(3)):
            for check in (welfare, validate_profile):
                with pytest.raises(BudgetExceededError):
                    check(game, profile, limit)
        assert welfare(game, profile, 4) == 4
        assert validate_profile(game, profile, 4) == []

    def test_overlapping_profile_is_an_error(self):
        game = two_item_game()
        with pytest.raises(InputError):
            welfare(game, Profile((frozenset({"2"}), frozenset({"2"}))))

    def test_welfare_equals_union_weight(self, small_corpus):
        # Per-player sums and set-union accounting must agree on any
        # valid profile; spot-check the all-singleton greedy fill.
        for game in small_corpus:
            sets = []
            taken: set[str] = set()
            for player in range(game.n):
                pick = frozenset()
                for item in game.ordered_ids:
                    if item not in taken and game.players[player].is_member({item}):
                        pick = frozenset({item})
                        taken.add(item)
                        break
                sets.append(pick)
            profile = Profile(tuple(sets))
            if validate_profile(game, profile):
                continue
            assert welfare(game, profile) == weight_of(game, profile.all_items())


class TestWeightOf:
    def test_scaled_weight_is_the_weight_times_the_scale(self):
        game = Instance(items=(Item("a", Fraction(1, 3)), Item("b", Fraction(1, 2)),
                               Item("c", 0)),
                        players=(ExplicitSystem(maximal_sets=(frozenset("abc"),)),))
        assert game.integer_weights[1] == 6
        assert game.scaled_weight_of(["a", "b", "c"]) == 5
        assert game.weight_of(["a", "b"]) == Fraction(5, 6)
        assert game.weight_of([]) == 0

    def test_unknown_item_is_an_input_error(self):
        game = two_item_game()
        with pytest.raises(InputError, match="unknown item id '7'"):
            game.scaled_weight_of(["1", "7"])
        with pytest.raises(InputError, match="unknown item id '7'"):
            game.weight_of(["7"])


def membership_nodes(game: Instance, profile: Profile, limit: int
                     ) -> tuple[int, Optional[str]]:
    """The nodes spent, and the budget error's message if one is raised,
    when each known set of a profile with one set per player is asked
    `is_member` in player order on one budget of `limit`: the rule a
    validation's nodes keep."""
    budget = SearchBudget(limit)
    if profile.n == game.n:
        try:
            for player, chosen in enumerate(profile.sets):
                if chosen <= game.item_ids:
                    game.players[player].is_member(chosen, budget)
        except BudgetExceededError as exc:
            return budget.used, str(exc)
    return budget.used, None


WINDOW = st.builds(JobWindow, st.sampled_from((0, 1)), st.sampled_from((1, 2)),
                   st.integers(1, 4))


@st.composite
def validation_games(draw) -> Instance:
    """2 or 3 players over items 1..5: explicit families, their shared
    copies (with covers), and machines that split a set by a walk, which
    spends nodes: release-date copies and unrelated machines."""
    width = draw(st.integers(2, 5))
    ids = [str(k) for k in range(1, width + 1)]

    def player():
        shape = draw(st.sampled_from(("explicit", "shared", "copies",
                                      "unrelated")))
        if shape in ("explicit", "shared"):
            sets = draw(st.lists(st.frozensets(st.sampled_from(ids)),
                                 max_size=3))
            base = ExplicitSystem(maximal_sets=tuple(sets))
            return (base if shape == "explicit" else
                    SharedSymmetricSystem(base, draw(st.integers(1, 3))))
        jobs = {i: draw(WINDOW) for i in ids}
        if shape == "copies":
            return SharedSymmetricSystem(SingleMachineSystem(jobs),
                                         draw(st.integers(1, 3)))
        return UnrelatedMachinesSystem(
            machines=("m1", "m2"),
            jobs={i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()},
            processing={(m, i): w.processing for i, w in jobs.items()
                        for m in ("m1", "m2")})

    players = tuple(player() for _ in range(draw(st.integers(2, 3))))
    weights = draw(st.lists(st.integers(0, 4), min_size=width,
                            max_size=width))
    return Instance(items=tuple(map(Item, ids, weights)), players=players)


class TestValidateProfile:
    def test_valid_profile_has_no_violations(self):
        game = two_item_game()
        assert validate_profile(game, Profile((frozenset({"1"}), frozenset({"2"})))) == []

    def test_overlap_reported_with_players_and_items(self):
        game = two_item_game()
        out = validate_profile(game, Profile((frozenset({"2"}), frozenset({"2"}))))
        assert len(out) == 1
        assert out[0].kind == "overlap"
        assert out[0].players == (0, 1)
        assert out[0].items == frozenset({"2"})

    def test_infeasible_set_reported(self):
        game = two_item_game()
        out = validate_profile(game, Profile((frozenset({"1"}), frozenset({"1"}))))
        kinds = {v.kind for v in out}
        assert "infeasible_set" in kinds  # player 2 cannot hold item 1
        assert "overlap" in kinds

    def test_unknown_items_reported(self):
        # Player 1's set names an unknown item, so its membership is not
        # asked; player 2 cannot hold item 1, which player 1 holds too.
        game = two_item_game()
        assert validate_profile(game, Profile((frozenset({"7"}),
                                               frozenset({"2"})))) == [
            Violation("unknown_item", players=(0,), items=frozenset({"7"}))]
        assert validate_profile(game, Profile((frozenset({"1", "7"}),
                                               frozenset({"1"})))) == [
            Violation("unknown_item", players=(0,), items=frozenset({"7"})),
            Violation("infeasible_set", players=(1,), items=frozenset({"1"})),
            Violation("overlap", players=(0, 1), items=frozenset({"1"}))]

    def test_size_mismatch_reported(self):
        game = two_item_game()
        out = validate_profile(game, Profile((frozenset(),)))
        assert out and out[0].kind == "size_mismatch"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(validation_games(), st.data())
    def test_matches_the_oracle_in_order_and_in_nodes(self, game, data):
        # The items are 1..width; 0 and x are unknown, and drawn less.
        known = [item.id for item in game.items]
        ids = st.sampled_from(known * 4 + ["0", "x"])
        size = data.draw(st.sampled_from((game.n,) * 5 + (game.n + 1,)))
        profile = Profile(tuple(data.draw(st.frozensets(ids, max_size=4))
                                for _ in range(size)))
        expected = brute_violations(game, profile)
        budget = SearchBudget(10**6)
        assert validate_profile(game, profile, budget) == expected
        # Each known set spends what its `is_member` spends, in order.
        assert (budget.used, None) == membership_nodes(game, profile, 10**6)
        if budget.used >= 2:
            short = SearchBudget(budget.used - 1)
            with pytest.raises(BudgetExceededError) as caught:
                validate_profile(game, profile, short)
            assert (short.used, str(caught.value)) == membership_nodes(
                game, profile, budget.used - 1)
        if expected:
            with pytest.raises(InputError) as caught:
                welfare(game, profile)
            assert str(caught.value) == f"profile is not valid: {expected}"
        else:
            assert welfare(game, profile) == weight_of(game, profile.all_items())

    def test_payoff_infeasible_iff_overlap_involving_player(self, small_corpus):
        rng = random.Random(11)
        for game in small_corpus[:40]:
            sets = []
            for player in range(game.n):
                maximal = game.players[player]
                pool = sorted(maximal.universe())
                pick = [i for i in pool if rng.random() < 0.5]
                while pick and not maximal.is_member(frozenset(pick)):
                    pick.pop()
                sets.append(frozenset(pick))
            profile = Profile(tuple(sets))
            overlaps = [v for v in validate_profile(game, profile)
                        if v.kind == "overlap"]
            assert [(v.players, v.items) for v in overlaps] == [
                ((a, b), sets[a] & sets[b])
                for a in range(game.n) for b in range(a + 1, game.n)
                if sets[a] & sets[b]]
            for player in range(game.n):
                involved = any(player in v.players for v in overlaps)
                assert payoff(game, profile, player).is_infeasible == involved


class TestConstruction:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")], ids=str)
    @pytest.mark.parametrize("build", [
        lambda v: JobWindow(v, 1, 1), lambda v: JobWindow(0, v, 1),
        lambda v: JobWindow(0, 1, v), lambda v: TimeWindow(v, 1),
        lambda v: TimeWindow(0, v),
        lambda v: UnrelatedMachinesSystem(("m",), {("m", "a"): v},
                                          {"a": TimeWindow(0, 1)}),
        lambda v: Item("a", v), check_alpha,
    ], ids=["release", "processing", "deadline", "window-release",
            "window-deadline", "unrelated-processing", "weight", "alpha"])
    def test_non_finite_numbers_are_input_errors(self, build, value):
        with pytest.raises(InputError, match="is not a rational"):
            build(value)

    # Each returned a value, or raised TypeError or ValueError, before
    # every integer argument was read by one reader.
    @pytest.mark.parametrize("call", [
        lambda g, p: generate(GeneratorSpec.make("ex_seq", n=2.5)),
        lambda g, p: generate(GeneratorSpec.make("ex_seq", n=True)),
        lambda g, p: generate(GeneratorSpec.make(
            "random_explicit", n=1, items=2, max_weight=2, seed=-0.5)),
        lambda g, p: ex_asym(True, True),
        lambda g, p: verify_collusion(g, p, True, 1),
        lambda g, p: check_order(g, [0.5, 1.2]),
        lambda g, p: coalition_best_response(g, [0.7], g.item_ids),
        lambda g, p: SearchBudget.ensure("5"),
        lambda g, p: SearchBudget.ensure(2.9),
        lambda g, p: IdenticalMachinesSystem(copies="3",
                                             jobs={"a": JobWindow(0, 1, 1)}),
        lambda g, p: SharedSymmetricSystem(g.players[0], 2.5),
        lambda g, p: bound_series_b(1, 2.5),
        lambda g, p: ex_seq(2.5),
        lambda g, p: enumerate_collusion(g, 1.5, 1),
        lambda g, p: empirical_collusion_poa(g, 2.0, 1),
        lambda g, p: best_response(g, 0.0, g.item_ids),
        lambda g, p: bound_collusion(1, 3, 1.5),
        lambda g, p: exp_enclosure(Fraction(1, 2), 2.5),
        lambda g, p: verify_nash(g, p, 1, budget=0),
    ], ids=["generate-float", "generate-bool", "generate-seed",
            "ex_asym-bool", "verify_collusion-k", "check_order",
            "coalition-member", "ensure-str", "ensure-float",
            "identical-copies", "shared-copies", "series-x", "ex_seq-float",
            "enumerate_collusion-k", "collusion_poa-k", "best_response-player",
            "bound_collusion-k", "exp_enclosure-terms", "verify_nash-budget"])
    def test_integer_arguments_are_input_errors(self, call):
        game = two_item_game()
        profile = Profile((frozenset({"1"}), frozenset({"2"})))
        with pytest.raises(InputError,
                           match=r"must be (an integer|>= 1), got "):
            call(game, profile)

    @pytest.mark.parametrize("order", [[0, 0], [0, 1, 2], [1]])
    def test_order_that_is_not_a_permutation(self, order):
        with pytest.raises(InputError) as caught:
            check_order(two_item_game(), order)
        assert str(caught.value) == (
            f"order {tuple(order)} is not a permutation of 0..1")

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            Item("a", Fraction(-1))

    @pytest.mark.parametrize("item_id", ["", 1, None], ids=repr)
    def test_item_id_is_a_nonempty_string(self, item_id):
        with pytest.raises(InputError) as caught:
            Item(item_id, 1)
        assert str(caught.value) == (
            f"item id must be a nonempty string, got {item_id!r}")

    def test_zero_weight_allowed(self):
        assert Item("a", 0).weight == 0

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(InputError):
            Instance(items=(Item("a", 1), Item("a", 2)),
                     players=(ExplicitSystem(maximal_sets=(frozenset({"a"}),)),))

    def test_descriptor_must_reference_known_items(self):
        with pytest.raises(InputError):
            Instance(items=(Item("a", 1),),
                     players=(ExplicitSystem(maximal_sets=(frozenset({"b"}),)),))

    def test_at_least_one_player(self):
        with pytest.raises(InputError):
            Instance(items=(Item("a", 1),), players=())

    def test_symmetric_exactly_when_every_player_shares_one_base(self):
        items = (Item("a", 1), Item("b", 1))

        def base(*sets):
            return ExplicitSystem(maximal_sets=tuple(map(frozenset, sets)))

        def game(*players):
            return Instance(items=items, players=players)

        # Two spellings of one family are one base; copies may differ.
        one = game(SharedSymmetricSystem(base("a", "b"), 1),
                   SharedSymmetricSystem(base("b", "a"), 2))
        assert one.symmetric
        assert not game(SharedSymmetricSystem(base("a", "b"), 1),
                        base("a", "b")).symmetric
        two = game(SharedSymmetricSystem(base("a", "b"), 1),
                   SharedSymmetricSystem(base("a"), 1))
        assert not two.symmetric
        with pytest.raises(InputError, match="one shared base"):
            instance_to_document(two)
        for original in (one, game(base("a", "b"), base("a"))):
            parsed, _ = document_to_instance(
                loads_document(dumps_document(instance_to_document(original))))
            assert parsed == original
            assert parsed.symmetric == original.symmetric


class CountedSystem(ExplicitSystem):
    """An explicit family that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedSystem.hashes += 1
        return super().__hash__()


class TestInstanceHash:
    def test_equal_instances_hash_equal(self):
        assert ex_seq(6) == ex_seq(6)
        assert hash(ex_seq(6)) == hash(ex_seq(6))
        items = [Item("a", Fraction(1, 2)), Item("b", 2)]
        system = ExplicitSystem(maximal_sets=(frozenset("ab"),))
        assert hash(Instance(items=items, players=[system])) == hash(
            Instance(items=tuple(items), players=(system,)))

    def test_hash_is_computed_once_per_object(self):
        game = Instance(items=(Item("a", 1),),
                        players=(CountedSystem(maximal_sets=(frozenset("a"),)),))
        before = CountedSystem.hashes
        first = hash(game)
        assert {game: 1}[game] == 1 and hash(game) == first
        assert CountedSystem.hashes == before + 1
        # A copy from another process must not trust this process's
        # string hashes, so an unpickled instance hashes afresh.
        copy = pickle.loads(pickle.dumps(game))
        assert copy == game and hash(copy) == first
        assert CountedSystem.hashes == before + 2


class TestInstanceMemo:
    """The memo of the searches (`Instance._memo`) lives and dies with its
    instance, and nothing else keeps an instance alive."""

    @staticmethod
    def searched():
        game = random_symmetric(n=3, copies=2, seed=4)
        for alpha in (1, Fraction(3, 2)):
            empirical_sequential_poa(game, alpha)
            for order in permutations(range(game.n)):
                enumerate_spe_outcomes(game, order, alpha)
        assert game._memo.acceptable
        return game

    def test_memo_dies_with_its_instance(self):
        game = self.searched()
        ref = weakref.ref(game)
        del game
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("call", [
        lambda g, p: best_response(g, 0, g.item_ids),
        lambda g, p: is_alpha_best_response(g, 0, g.item_ids, p.sets[0], 1),
        lambda g, p: verify_nash(g, p, 1),
        lambda g, p: verify_spe_outcome(g, p, range(g.n), 1),
        lambda g, p: verify_collusion(g, p, 2, 1),
        lambda g, p: compute_opt(g)],
        ids=["best_response", "is_alpha_best_response", "verify_nash",
             "verify_spe_outcome", "verify_collusion", "compute_opt"])
    def test_no_call_without_a_budget_keeps_its_instance(self, call):
        game = random_symmetric(n=3, copies=2, seed=4)
        call(game, compute_opt(game)[0])
        assert game._memo.replies or game._memo.optima
        ref = weakref.ref(game)
        del game
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("dup", [lambda g: pickle.loads(pickle.dumps(g)),
                                     copy.copy], ids=["pickle", "copy"])
    def test_a_copy_carries_no_memo(self, dup):
        game = self.searched()
        twin = dup(game)
        assert twin == game and hash(twin) == hash(game)
        assert "_memo" not in twin.__dict__ and "_memo" in game.__dict__
        assert twin._memo is not game._memo and not twin._memo.acceptable


class TestExactArithmetic:
    def test_rationals_canonicalize(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(-3, -6).denominator == 2

    def test_field_laws_on_random_rationals(self):
        rng = random.Random(3)
        for _ in range(300):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) - b == a
