"""Core model: payoffs, welfare, profile validation, exact arithmetic."""

import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction
from itertools import permutations

import pytest

from spgames import (INFEASIBLE, GeneratorSpec, IdenticalMachinesSystem,
                     InputError, Instance, Item, JobWindow, Payoff, Profile,
                     ExplicitSystem, SearchBudget, SharedSymmetricSystem,
                     TimeWindow, UnrelatedMachinesSystem, best_response,
                     bound_collusion, bound_series_b, coalition_best_response,
                     compute_opt, empirical_collusion_poa,
                     empirical_sequential_poa, enumerate_spe_outcomes,
                     ex_asym, ex_seq, ex_trivial, exp_enclosure, generate,
                     is_alpha_best_response, payoff, random_symmetric,
                     validate_profile, verify_collusion, verify_nash,
                     verify_spe_outcome, welfare)
from spgames.best_response import check_alpha
from spgames.equilibria import check_order, enumerate_collusion

from oracles import weight_of


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

    def test_size_mismatch_reported(self):
        game = two_item_game()
        out = validate_profile(game, Profile((frozenset(),)))
        assert out and out[0].kind == "size_mismatch"

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
            overlaps = {v for v in validate_profile(game, profile)
                        if v.kind == "overlap"}
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

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            Item("a", Fraction(-1))

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

    def test_symmetric_players_share_one_base(self):
        items = (Item("a", 1), Item("b", 1))

        def view(*sets):
            base = ExplicitSystem(maximal_sets=tuple(map(frozenset, sets)))
            return SharedSymmetricSystem(base=base, copies=1)

        game = Instance(items=items, players=(view("a", "b"), view("b", "a")),
                        symmetric=True)
        assert game.n == 2
        with pytest.raises(InputError):
            Instance(items=items, players=(view("a", "b"), view("a")),
                     symmetric=True)


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
