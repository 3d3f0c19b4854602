"""Feasibility systems: membership, closure, witnesses, cardinality scans."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from spgames import (BudgetExceededError, ExplicitSystem, FeasibilitySystem,
                     IdenticalMachinesSystem, InputError, Instance, Item,
                     JobWindow, ScheduleWitness, SearchBudget, SharedSymmetricSystem,
                     SingleMachineSystem, TimeWindow, UnrelatedMachinesSystem,
                     compute_opt, empirical_poa, enumerate_spe_outcomes,
                     ex_asym, ex_seq, ex_sym, feasible_subsets,
                     greedy_sequential_outcome, max_cardinality_feasible,
                     random_symmetric, validate_downward_closed,
                     validate_witness)
from spgames.feasibility import _COVER_UNIONS
from spgames.search import spell

from oracles import (all_subsets, brute_max_cardinality_scan,
                     brute_partition, edf_checks, schedulable_by_permutations)


def every_outcome_and_opt(instance, alpha, budget):
    """Every sequential outcome of every order, then the optimum."""
    for order in permutations(range(instance.n)):
        enumerate_spe_outcomes(instance, order, alpha, budget)
    compute_opt(instance, budget)


def unit_jobs(spec: dict[str, tuple]) -> dict[str, JobWindow]:
    return {name: JobWindow(Fraction(r), Fraction(p), Fraction(d))
            for name, (r, p, d) in spec.items()}


class Pairs(FeasibilitySystem):
    """A user-defined oracle: at most two of four items."""

    _ids = frozenset("abcd")

    def is_member(self, items, budget=None):
        return len(frozenset(items)) <= 2


class TestExplicit:
    def test_membership_is_subset_of_some_maximal(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"a", "b"}), frozenset({"c"})))
        assert system.is_member({"a"})
        assert system.is_member({"a", "b"})
        assert system.is_member(set())
        assert not system.is_member({"a", "c"})
        assert not system.is_member({"zzz"})

    def test_antichain_accepted(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"1"}), frozenset({"2"})))
        budget = SearchBudget(10**6)
        assert validate_downward_closed(system, budget)
        assert budget.used == 4

    def test_nested_sets_reduced(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"1"}), frozenset({"1", "2"})))
        assert system.maximal_sets == (frozenset({"1", "2"}),)
        assert system == ExplicitSystem(maximal_sets=(frozenset({"1", "2"}),))
        assert validate_downward_closed(system)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.frozensets(st.sampled_from("abcde")), max_size=5))
    def test_construction_keeps_the_maximal_sets(self, drawn):
        # Drawn families hold dominated sets, duplicates, the empty set or
        # no set at all; no set at all is the family of the empty set.
        system = ExplicitSystem(maximal_sets=tuple(drawn))
        for subset in all_subsets("abcde"):
            assert system.is_member(subset) == any(
                subset <= d for d in drawn or [frozenset()])
        kept = system.maximal_sets
        assert all(not a <= b for a in kept for b in kept if a is not b)
        assert list(kept) == sorted(set(kept), key=lambda s: sorted(s))

        respelled = ExplicitSystem(maximal_sets=tuple(reversed(drawn)) + tuple(
            d - {min(d)} for d in drawn if d) + tuple(drawn) + (frozenset(),))
        assert respelled == system and respelled.maximal_sets == kept
        game = Instance(items=tuple(Item(i, 1) for i in "abcde"),
                        players=(system, respelled))
        assert game._memo.kinds == (0, 0)


class TestDownwardClosure:
    class Even(FeasibilitySystem):
        _ids = frozenset("abcd")

        def is_member(self, items, budget=None):
            return len(frozenset(items)) % 2 == 0

    class PairsWithoutC(FeasibilitySystem):
        _ids = frozenset("abcd")

        def is_member(self, items, budget=None):
            items = frozenset(items)
            return len(items) <= 2 and items != {"c"}

    def test_even_sets_are_not_closed(self):
        # {a, b} is a member and {b}, its subset of mask 2, is not: the
        # check stops at mask 3, after four nodes.
        budget = SearchBudget(10**6)
        assert not validate_downward_closed(self.Even(), budget)
        assert budget.used == 4

    def test_a_dropped_singleton_is_found(self):
        assert not validate_downward_closed(self.PairsWithoutC())

    def test_user_oracle_visits_every_subset(self):
        budget = SearchBudget(10**6)
        assert validate_downward_closed(Pairs(), budget)
        assert budget.used == 16

    def test_any_truthy_verdict_is_read(self):
        class AsSets(FeasibilitySystem):
            # is_member returns the set itself: truthy exactly when nonempty.
            _ids = frozenset("ab")

            def is_member(self, items, budget=None):
                return set(items)

        class NoMembers(AsSets):
            def is_member(self, items, budget=None):
                return set()

        # Every nonempty set is a member and the empty set is not.
        assert not validate_downward_closed(AsSets())
        assert validate_downward_closed(NoMembers())

    def test_universe_past_the_budget_raises(self):
        class Twelve(Pairs):
            _ids = frozenset("abcdefghijkl")

        with pytest.raises(BudgetExceededError):
            validate_downward_closed(Twelve(), budget=100)
        with pytest.raises(BudgetExceededError):
            validate_downward_closed(Twelve(), budget=2**12 - 1)
        assert validate_downward_closed(Twelve(), budget=2**12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sets(st.frozensets(st.sampled_from("abcd"))))
    def test_matches_brute_force_over_any_family(self, family):
        class Listed(FeasibilitySystem):
            _ids = frozenset("abcd")

            def is_member(self, items, budget=None):
                return frozenset(items) in family

        closed = all(below in family for members in family
                     for below in all_subsets(members))
        assert validate_downward_closed(Listed()) == closed


class TestSingleMachine:
    def test_fast_machine_fits_any_three_jobs(self):
        game = ex_asym(3, 2)
        machine = game.players[0]
        for combo in combinations(sorted(game.item_ids), 3):
            assert machine.is_member(frozenset(combo))
        for combo in combinations(sorted(game.item_ids), 4):
            assert not machine.is_member(frozenset(combo))

    def test_slow_machines_take_one_light_job_only(self):
        game = ex_asym(3, 2)
        machine = game.players[1]
        assert machine.is_member({"q01"})
        assert not machine.is_member({"q01", "q02"})
        assert not machine.is_member({"p01"})

    def test_windows_as_dicts_tuples_or_objects(self):
        systems = [SingleMachineSystem({"a": {"release": 0, "processing": 1,
                                              "deadline": 2}}),
                   SingleMachineSystem({"a": (0, 1, 2)}),
                   SingleMachineSystem({"a": JobWindow(0, 1, 2)})]
        assert systems[0] == systems[1] == systems[2]

    def test_empty_set_is_always_feasible(self):
        game = ex_asym(3, 2)
        for system in game.players:
            assert system.is_member(set())

    def test_release_dates_decided_exactly(self):
        jobs = unit_jobs({
            "a": (0, 2, 2),
            "b": (1, 1, 4),
            "c": (2, 1, 3),
        })
        system = SingleMachineSystem(jobs=jobs)
        # a must go first (its window is [0,2]); c must sit in [2,3].
        assert system.is_member({"a", "b", "c"})
        tight = SingleMachineSystem(jobs=unit_jobs({
            "a": (0, 2, 2), "b": (0, 1, 2)}))
        assert not tight.is_member({"a", "b"})

    def test_deadline_prefix_check_matches_order_enumeration(self):
        rng = random.Random(5)
        for round_no in range(120):
            count = rng.randint(1, 7)
            jobs = {}
            for index in range(count):
                processing = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                deadline = Fraction(rng.randint(1, 24), rng.randint(1, 3))
                jobs[f"j{index}"] = JobWindow(Fraction(0), processing, deadline)
            system = SingleMachineSystem(jobs=jobs)
            raw = [(Fraction(0), w.processing, w.deadline) for w in jobs.values()]
            assert system.is_member(set(jobs)) == schedulable_by_permutations(raw)

    def test_release_search_matches_order_enumeration(self):
        rng = random.Random(17)
        for round_no in range(60):
            count = rng.randint(1, 6)
            jobs = {}
            for index in range(count):
                release = Fraction(rng.randint(0, 4))
                processing = Fraction(rng.randint(1, 5), rng.randint(1, 2))
                deadline = release + Fraction(rng.randint(0, 10), rng.randint(1, 2))
                jobs[f"j{index}"] = JobWindow(release, processing, deadline)
            system = SingleMachineSystem(jobs=jobs)
            raw = [(w.release, w.processing, w.deadline) for w in jobs.values()]
            assert system.is_member(set(jobs)) == schedulable_by_permutations(raw)


class TestMultiCopy:
    def base(self) -> SingleMachineSystem:
        return SingleMachineSystem(jobs=unit_jobs({
            "a": (0, 1, 1), "b": (0, 1, 1), "c": (0, 1, 2), "d": (0, 2, 2)}))

    def test_two_copies_split_conflicting_jobs(self):
        doubled = IdenticalMachinesSystem(copies=2, jobs=self.base().jobs)
        assert doubled.is_member({"a", "b"})
        assert not doubled.is_member({"a", "b", "d"})
        assert doubled.is_member({"a", "b", "c"})

    def test_single_copy_matches_base_exactly(self):
        base = self.base()
        shared = SharedSymmetricSystem(base=base, copies=1)
        for subset in all_subsets(base.universe()):
            assert shared.is_member(subset) == base.is_member(subset)

    def test_shared_explicit_base_partitions(self):
        base = ExplicitSystem(maximal_sets=(frozenset({"a", "b"}), frozenset({"c"})))
        shared = SharedSymmetricSystem(base=base, copies=2)
        assert shared.is_member({"a", "b", "c"})
        assert not shared.is_member({"a", "b", "c", "zzz"})
        single = SharedSymmetricSystem(base=base, copies=1)
        assert not single.is_member({"a", "c"})

    def test_explicit_base_has_no_witness_and_spends_nothing(self):
        base = ExplicitSystem(maximal_sets=(frozenset({"a", "b"}), frozenset({"c"})))
        shared = SharedSymmetricSystem(base=base, copies=2)
        budget = SearchBudget(10**6)
        assert shared.is_member({"a", "b", "c"}, budget)
        assert shared.schedule_witness({"a", "b", "c"}, budget) is None
        assert budget.used == 0

    def test_the_empty_set_is_asked_of_a_user_defined_base(self):
        # Split over one copy, the empty set is the base's own fit.
        class Spending(Pairs):
            def is_member(self, items, budget=None):
                SearchBudget.ensure(budget).spend()
                return super().is_member(items)

        for copies in (1, 2, 4):
            budget = SearchBudget(10)
            assert SharedSymmetricSystem(Spending(), copies).is_member(
                (), budget)
            assert budget.used == 1

    # Two or more maximal sets at two or more copies are what the covers
    # and the split walk decide, so the draw asks for two to four sets
    # none of which holds another, and the examples pin such bases.  No
    # set at all is the family of the empty set alone.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.frozensets(st.sampled_from("abcde"), min_size=1),
                    min_size=2, max_size=4, unique=True).filter(
                        lambda drawn: not any(
                            low <= high for low, high in permutations(drawn, 2))),
           st.integers(1, 4))
    @example([], 2)
    @example([frozenset("ab"), frozenset("c")], 2)
    @example([frozenset("abc"), frozenset("cde"), frozenset("ae")], 2)
    @example([frozenset("ab"), frozenset("bc"), frozenset("cd"),
              frozenset("de")], 3)
    def test_explicit_base_matches_every_assignment(self, drawn, copies):
        # `split` builds its covers under a cap of no unions, so with two
        # or more base sets and copies it takes the split walk.
        base = ExplicitSystem(maximal_sets=tuple(drawn))
        shared = SharedSymmetricSystem(base, copies)
        split = SharedSymmetricSystem(base, copies)
        with mock.patch("spgames.feasibility._COVER_UNIONS", 0):
            split._covers

        def fits(p, part):
            return not part or any(set(part) <= s for s in drawn)

        for subset in all_subsets(shared.universe()):
            budget = SearchBudget(10**6)
            expected = brute_partition(subset, copies, fits)
            assert shared.is_member(subset, budget) == expected
            assert not shared.is_member(subset | {"x"}, budget)
            assert budget.used == 0
            assert split.is_member(subset) == expected

    def test_explicit_base_past_the_union_cap_splits(self):
        # Forty disjoint pairs at twenty copies have about C(40, 20)
        # covers; the build stops at its cap and the split walk answers
        # within the caller's budget, as it does without the covers.
        pairs = tuple(frozenset({f"a{k:02d}", f"b{k:02d}"}) for k in range(40))
        shared = SharedSymmetricSystem(ExplicitSystem(maximal_sets=pairs), 20)
        budget = SearchBudget(10**6)
        assert shared.is_member({"a00", "b00"}, budget)
        assert budget.used == 2
        too_many = {f"{side}{k:02d}" for side in "ab" for k in range(21)}
        assert not shared.is_member(too_many, SearchBudget(10**6))
        with pytest.raises(BudgetExceededError):
            shared.is_member(too_many, SearchBudget(100))

    def test_base_without_schedules_has_no_witness(self):
        shared = SharedSymmetricSystem(base=Pairs(), copies=2)
        assert shared.is_member("abcd")
        assert shared.schedule_witness("abcd") is None

    def test_downward_closure_exact_on_oracles(self):
        base = self.base()
        doubled = IdenticalMachinesSystem(copies=2, jobs=base.jobs)
        for system in (base, doubled):
            budget = SearchBudget(10**6)
            assert validate_downward_closed(system, budget)
            assert budget.used >= 2 ** 4

    def test_closure_property_random_removals(self):
        game = ex_asym(3, 2)
        rng = random.Random(9)
        for system in game.players:
            for _ in range(40):
                pool = sorted(game.item_ids)
                chosen: set[str] = set()
                rng.shuffle(pool)
                for item in pool:
                    if system.is_member(chosen | {item}):
                        chosen.add(item)
                while chosen:
                    chosen.discard(rng.choice(sorted(chosen)))
                    assert system.is_member(chosen)


class WithoutC(ExplicitSystem):
    """An explicit family narrowed by its membership: no set holds c."""

    def is_member(self, items, budget=None):
        items = frozenset(items)
        return "c" not in items and super().is_member(items, budget)


class NoC(SingleMachineSystem):
    """One machine narrowed by its membership and its fit: no set holds c."""

    def is_member(self, items, budget=None):
        items = frozenset(items)
        return "c" not in items and super().is_member(items, budget)

    def _fit(self, target, budget):
        return None if "c" in target else super()._fit(target, budget)


class TestMaskTests:
    """`_mask_test(ids)` decides a mask over `ids` as `is_member` decides
    the set it spells, and spends the same nodes."""

    IDS = tuple("abcdefg")  # g is in no system's universe

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1,
                                  max_size=3), min_size=2, max_size=5),
           st.integers(0, 4), st.booleans(), st.booleans())
    @example([], 2, False, False)
    @example([frozenset("ab"), frozenset("c")], 2, False, False)
    @example([frozenset("ab"), frozenset("c")], 2, True, False)
    @example([frozenset("ac"), frozenset("b")], 2, False, True)
    def test_every_mask_as_is_member(self, drawn, copies, split, narrowed):
        # copies 0 stands for the explicit base alone; `split` builds
        # the covers under a cap of no unions, so copies of two or more
        # base sets take the split walk.
        base = (WithoutC if narrowed else ExplicitSystem)(
            maximal_sets=tuple(drawn))
        system = base if copies == 0 else SharedSymmetricSystem(base, copies)
        with mock.patch("spgames.feasibility._COVER_UNIONS",
                        0 if split else _COVER_UNIONS):
            test = system._mask_test(self.IDS)
        for mask in range(1 << len(self.IDS)):
            asked, spelt = SearchBudget(10**6), SearchBudget(10**6)
            assert test(mask, asked) == system.is_member(
                spell(mask, self.IDS), spelt)
            assert asked.used == spelt.used
        # Only the built-in membership decides masks itself, spelling no
        # set; a subclass that narrows it is asked through `is_member`.
        walks = copies >= 2 and split and len(base.maximal_sets) > 1
        with mock.patch("spgames.feasibility.spell", wraps=spell) as spelling:
            for mask in range(1 << len(self.IDS)):
                test(mask, SearchBudget(10**6))
        assert spelling.called == (narrowed or walks)

    def test_a_narrowed_base_narrows_its_copies(self):
        base = WithoutC(maximal_sets=[frozenset("ac"), frozenset("b")])
        for copies in (1, 2, 3):
            shared = SharedSymmetricSystem(base, copies)
            assert not shared.is_member({"c"})
            assert shared.is_member({"a", "b"}) == (copies > 1)
            assert shared._covers is None

    # Three unit jobs due at 3 fit on one machine, so slot counts alone
    # would keep c; the narrowed machine and its copies never do.
    NARROWED = NoC({i: JobWindow(0, 1, 3) for i in "abc"})

    @pytest.mark.parametrize("copies", [1, 2])
    def test_a_narrowed_machine_narrows_its_copies(self, copies):
        shared = SharedSymmetricSystem(self.NARROWED, copies)
        assert not shared.is_member({"c"})
        assert shared.is_member({"a", "b"})

    @pytest.mark.parametrize("copies", [0, 1, 2])
    def test_scans_of_a_narrowed_machine_keep_members(self, copies):
        # copies 0 stands for the narrowed machine alone.
        system = (self.NARROWED if copies == 0
                  else SharedSymmetricSystem(self.NARROWED, copies))
        for largest_deadline_first in (False, True):
            scan = max_cardinality_feasible(system, "abc", largest_deadline_first)
            assert scan == ("a", "b")
            assert system.is_member(scan)

    def test_deadline_play_on_a_narrowed_machine_keeps_members(self):
        game = Instance(items=tuple(Item(i, 1) for i in "abc"),
                        players=(SharedSymmetricSystem(self.NARROWED, 1),) * 2)
        for selector in ("deadline", "exact"):
            profile = greedy_sequential_outcome(game, (0, 1), 1, selector)
            assert profile.sets == (frozenset("ab"), frozenset())
            assert all(map(game.players[0].is_member, profile.sets))

    def test_job_systems_spell_masks_only_off_their_routes(self):
        # Job b is released, so only the split walk decides two copies of
        # the released table; the uniform table is decided by slot counts.
        released = unit_jobs({"a": (0, 1, 1), "b": (1, 1, 2), "c": (0, 2, 3)})
        uniform = unit_jobs({"a": (0, 1, 1), "b": (0, 1, 2), "c": (0, 1, 2)})
        windows = {i: TimeWindow(w.release, w.deadline)
                   for i, w in released.items()}
        times = {("m", i): w.processing for i, w in released.items()}
        ids = ("a", "b", "c", "d", "e")  # e is in no system's universe
        decided = (
            SingleMachineSystem(released),
            SharedSymmetricSystem(SingleMachineSystem(uniform), 1),
            SharedSymmetricSystem(SingleMachineSystem(uniform), 3),
            SharedSymmetricSystem(SingleMachineSystem(released), 1),
            IdenticalMachinesSystem(copies=2, jobs=uniform),
            IdenticalMachinesSystem(copies=1, jobs=released),
            UnrelatedMachinesSystem(("m",), times, windows))
        asked = (
            SharedSymmetricSystem(SingleMachineSystem(released), 2),
            IdenticalMachinesSystem(copies=2, jobs=released),
            UnrelatedMachinesSystem(("m", "n"), {**times, ("n", "c"): 1},
                                    windows),
            self.NARROWED,
            SharedSymmetricSystem(self.NARROWED, 1),
            SharedSymmetricSystem(self.NARROWED, 2),
            SharedSymmetricSystem(Pairs(), 1),
            SharedSymmetricSystem(Pairs(), 2))
        for spells, systems in ((False, decided), (True, asked)):
            for system in systems:
                test = system._mask_test(ids)
                with mock.patch("spgames.feasibility.spell",
                                wraps=spell) as spelling:
                    masked = verdicts_and_nodes(test, len(ids))
                assert spelling.called == spells
                assert masked == verdicts_and_nodes(
                    lambda mask, budget: system.is_member(spell(mask, ids),
                                                          budget), len(ids))


def verdicts_and_nodes(test, width):
    """The verdict of `test` on every mask of `width` bits, with the nodes
    it spent, or None for a budget of 3 nodes it exceeded."""
    out = []
    for mask in range(1 << width):
        for limit in (10**6, 3):
            budget = SearchBudget(limit)
            try:
                out.append((test(mask, budget), budget.used))
            except BudgetExceededError:
                out.append((None, budget.used))
    return out


class TestUnrelated:
    def test_job_runs_only_where_processing_defined(self):
        system = UnrelatedMachinesSystem(
            machines=("m1", "m2"),
            processing={("m1", "a"): Fraction(1), ("m2", "b"): Fraction(1)},
            jobs={"a": TimeWindow(Fraction(0), Fraction(1)),
                  "b": TimeWindow(Fraction(0), Fraction(1))})
        assert system.is_member({"a", "b"})
        only_m1 = UnrelatedMachinesSystem(
            machines=("m1",),
            processing={("m1", "a"): Fraction(1)},
            jobs={"a": TimeWindow(Fraction(0), Fraction(1)),
                  "b": TimeWindow(Fraction(0), Fraction(1))})
        assert not only_m1.is_member({"b"})

    @pytest.mark.parametrize("processing, message", [
        ({("x", "a"): 1}, "processing entry for unknown machine 'x'"),
        ({("m", "b"): 1}, "processing entry for unknown job 'b'"),
        ({("m", "a"): 0}, "processing must be > 0, got 0"),
        # A string key is not split into a machine and a job.
        ({"ma": 1}, "processing key 'ma' is not a (machine, job) pair"),
        ({("m", "a", "b"): 1},
         "processing key ('m', 'a', 'b') is not a (machine, job) pair"),
    ], ids=["machine", "job", "zero", "string-key", "triple-key"])
    def test_processing_entries_are_checked(self, processing, message):
        with pytest.raises(InputError) as caught:
            UnrelatedMachinesSystem(machines=("m",), processing=processing,
                                    jobs={"a": TimeWindow(0, 1)})
        assert str(caught.value) == message

    @pytest.mark.parametrize("machines", [("m", "m"), ()],
                             ids=["repeated", "none"])
    def test_machine_names_are_nonempty_and_unique(self, machines):
        with pytest.raises(InputError) as caught:
            UnrelatedMachinesSystem(machines=machines, processing={},
                                    jobs={"a": TimeWindow(0, 1)})
        assert str(caught.value) == "machine names must be nonempty and unique"

    def test_processing_as_pairs_is_the_map(self):
        jobs = {"a": TimeWindow(0, 1), "b": TimeWindow(0, 1)}
        pairs = ((("m2", "b"), 1), (("m1", "a"), 1))
        as_map = UnrelatedMachinesSystem(("m1", "m2"), dict(pairs), jobs)
        as_pairs = UnrelatedMachinesSystem(("m1", "m2"), pairs, jobs)
        assert as_pairs == as_map and as_pairs.is_member({"a", "b"})


class TestDescriptorErrors:
    def test_duplicate_job_ids(self):
        with pytest.raises(InputError) as caught:
            SingleMachineSystem(jobs=[("a", JobWindow(0, 1, 1)),
                                      ("a", JobWindow(0, 1, 2))])
        assert str(caught.value) == "duplicate job ids in feasibility descriptor"

    JOB = "(release, processing, deadline)"

    @pytest.mark.parametrize("build, message", [
        (lambda: SingleMachineSystem({"a": (0, 1)}), f"{JOB}, got (0, 1)"),
        (lambda: SingleMachineSystem({"a": {"release": 0, "processing": 1}}),
         f"{JOB}, got {{'release': 0, 'processing': 1}}"),
        (lambda: SingleMachineSystem({"a": 1}), f"{JOB}, got 1"),
        (lambda: UnrelatedMachinesSystem(("m",), {}, {"a": (0, 1, 2)}),
         "(release, deadline), got (0, 1, 2)"),
    ], ids=["short-tuple", "dict-without-deadline", "number", "time-window"])
    def test_a_window_of_the_wrong_shape(self, build, message):
        with pytest.raises(InputError) as caught:
            build()
        assert str(caught.value) == f"job 'a' needs a window of {message}"

    @pytest.mark.parametrize("build, message", [
        (lambda: SingleMachineSystem([("a",)]), "jobs entry ('a',) is not a pair"),
        (lambda: SingleMachineSystem(5), "jobs must be a collection, got 5"),
        (lambda: IdenticalMachinesSystem(2, 5),
         "jobs must be a collection, got 5"),
        (lambda: ExplicitSystem(maximal_sets=5),
         "maximal_sets must be a collection, got 5"),
        (lambda: ExplicitSystem(maximal_sets=[5]),
         "maximal set must be a collection, got 5"),
        (lambda: UnrelatedMachinesSystem(("m",), [(("m", "a"),)],
                                         {"a": (0, 1)}),
         "processing entry (('m', 'a'),) is not a pair"),
        (lambda: UnrelatedMachinesSystem(5, {}, {}),
         "machines must be a collection, got 5"),
        (lambda: SharedSymmetricSystem(5, 2),
         "a shared base must be a feasibility system, got 5"),
        (lambda: Instance(items=(Item("a", 1),), players=(5,)),
         "player 1 is not a feasibility system: 5"),
        (lambda: Instance(items=(5,), players=(ExplicitSystem(maximal_sets=[]),)),
         "item 1 is not an Item: 5"),
        (lambda: Instance(items=5, players=(ExplicitSystem(maximal_sets=[]),)),
         "items must be a collection, got 5"),
        (lambda: Instance(items=(), players=5),
         "players must be a collection, got 5"),
    ], ids=["one-element-job", "number-for-jobs", "identical-number-for-jobs",
            "number-for-sets", "number-for-a-set", "one-element-processing",
            "number-for-machines", "number-for-base", "number-for-player",
            "number-for-an-item", "number-for-items", "number-for-players"])
    def test_a_container_of_the_wrong_shape(self, build, message):
        with pytest.raises(InputError) as caught:
            build()
        assert str(caught.value) == message

    def test_a_job_takes_some_time(self):
        with pytest.raises(InputError) as caught:
            JobWindow(0, 0, 1)
        assert str(caught.value) == "processing must be > 0, got 0"

    def test_shared_symmetric_systems_do_not_nest(self):
        inner = SharedSymmetricSystem(
            ExplicitSystem(maximal_sets=(frozenset("a"),)), 1)
        with pytest.raises(InputError) as caught:
            SharedSymmetricSystem(inner, 2)
        assert str(caught.value) == "shared symmetric systems cannot nest"


class TestWitness:
    def test_witness_revalidates_on_scheduling_systems(self):
        game = ex_asym(3, 2)
        for player, selection in ((0, {"p01", "q01", "q02"}), (1, {"q01"})):
            system = game.players[player]
            witness = system.schedule_witness(selection)
            assert witness is not None
            assert validate_witness(system, selection, witness)
            assert witness.scheduled_items() == frozenset(selection)

    def test_witness_intervals_disjoint_and_inside_windows(self):
        jobs = unit_jobs({"a": (0, 2, 2), "b": (1, 1, 4), "c": (2, 1, 3)})
        system = SingleMachineSystem(jobs=jobs)
        witness = system.schedule_witness({"a", "b", "c"})
        assert witness is not None
        (sequence,) = witness.machines
        clock = None
        for item, start in sequence:
            window = jobs[item]
            assert start >= window.release
            assert start + window.processing <= window.deadline
            if clock is not None:
                assert start >= clock
            clock = start + window.processing

    def test_no_witness_for_infeasible_set(self):
        game = ex_asym(3, 2)
        assert game.players[1].schedule_witness({"p01"}) is None

    def test_multi_copy_witness(self):
        base = SingleMachineSystem(jobs=unit_jobs({
            "a": (0, 1, 1), "b": (0, 1, 1)}))
        shared = SharedSymmetricSystem(base=base, copies=2)
        witness = shared.schedule_witness({"a", "b"})
        assert witness is not None
        assert validate_witness(shared, {"a", "b"}, witness)

    def test_multi_copy_witness_over_unrelated_machines(self):
        base = UnrelatedMachinesSystem(
            machines=("m1", "m2"),
            processing={("m1", "a"): 1, ("m2", "b"): 1, ("m1", "c"): 1},
            jobs={name: TimeWindow(0, 2) for name in "abc"})
        shared = SharedSymmetricSystem(base=base, copies=2)
        jobs = {"a", "b", "c"}
        witness = shared.schedule_witness(jobs)
        assert witness is not None
        assert validate_witness(shared, jobs, witness)
        # Witness machine i is base machine i mod 2 of copy i // 2.
        a, b, c = (((job, Fraction(0)),) for job in "abc")
        assert validate_witness(shared, jobs, ScheduleWitness((a, b, c, ())))
        assert not validate_witness(shared, jobs, ScheduleWitness((a, b, (), c)))

    def test_multi_copy_witness_over_identical_machines(self):
        base = IdenticalMachinesSystem(copies=2, jobs=unit_jobs(
            {"a": (0, 1, 1), "b": (0, 1, 1), "c": (0, 1, 1)}))
        shared = SharedSymmetricSystem(base=base, copies=2)
        jobs = {"a", "b", "c"}
        witness = shared.schedule_witness(jobs)
        assert witness is not None and len(witness.machines) == 4
        assert validate_witness(shared, jobs, witness)
        assert not validate_witness(
            shared, jobs, ScheduleWitness(witness.machines + ((),)))


    # Job a is due at 3, job b is released at 1 and due at 3; both take 1.
    TWO_JOBS = {"a": (0, 1, 3), "b": (1, 1, 3)}

    @pytest.mark.parametrize("sequence, items, valid", [
        ((("a", 0), ("b", 1)), {"a", "b"}, True),
        ((("a", 0), ("a", 1), ("b", 2)), {"a", "b"}, False),
        ((("a", 0), ("b", 1)), {"a"}, False),
        ((("b", 0), ("a", 1)), {"a", "b"}, False),
        ((("a", 0), ("b", Fraction(5, 2))), {"a", "b"}, False),
        ((("b", 1), ("a", Fraction(3, 2))), {"a", "b"}, False),
    ], ids=["valid", "run-twice", "other-items", "before-release",
            "past-deadline", "overlap"])
    def test_each_rejection_on_one_machine(self, sequence, items, valid):
        system = SingleMachineSystem(jobs=unit_jobs(self.TWO_JOBS))
        assert validate_witness(system, items,
                                ScheduleWitness((sequence,))) is valid

    def test_a_job_on_two_identical_machines_is_rejected(self):
        system = IdenticalMachinesSystem(copies=2, jobs=unit_jobs(self.TWO_JOBS))
        once = (("a", 0), ("b", 1))
        assert validate_witness(system, {"a", "b"}, ScheduleWitness((once, ())))
        assert not validate_witness(system, {"a", "b"},
                                    ScheduleWitness((once, (("a", 0),))))


class TestMaxCardinality:
    def test_largest_deadline_first_keeps_loose_jobs(self):
        game = ex_seq(5)
        system = game.players[0]
        scan = max_cardinality_feasible(system, game.item_ids,
                                        prefer_largest_deadline=True)
        assert len(scan) == 5
        assert all(item.startswith("d05") for item in scan)

    def test_after_removing_top_class_four_jobs_remain(self):
        game = ex_seq(5)
        system = game.players[1]
        rest = {i for i in game.item_ids if not i.startswith("d05")}
        scan = max_cardinality_feasible(system, rest,
                                        prefer_largest_deadline=True)
        assert len(scan) == 4
        assert all(item.startswith("d04") for item in scan)

    def test_matches_brute_force_cardinality(self):
        game = ex_seq(3)
        system = game.players[0]
        for available in (game.item_ids,
                          {i for i in game.item_ids if not i.startswith("d03")}):
            best = max(len(T) for T in all_subsets(available)
                       if system.is_member(T))
            scan = max_cardinality_feasible(system, available,
                                            prefer_largest_deadline=True)
            assert len(scan) == best

    def test_maximum_found_when_plain_greedy_would_stall(self):
        # The loose-deadline job blocks the machine entirely; the scan must
        # still deliver the true maximum of two jobs.
        jobs = unit_jobs({"a": (0, 10, 10), "b": (0, 4, 9), "c": (0, 4, 9)})
        system = SingleMachineSystem(jobs=jobs)
        scan = max_cardinality_feasible(system, {"a", "b", "c"},
                                        prefer_largest_deadline=True)
        assert set(scan) == {"b", "c"}

    def test_empty_pool(self):
        game = ex_seq(3)
        assert max_cardinality_feasible(game.players[0], frozenset()) == ()

    def test_deadline_scan_requires_scheduling_system(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"a"}),))
        with pytest.raises(InputError):
            max_cardinality_feasible(system, {"a"}, prefer_largest_deadline=True)


class TestBudgets:
    def test_budget_exhaustion_raises_instead_of_lying(self):
        jobs = {f"j{i}": JobWindow(Fraction(i % 3), Fraction(1), Fraction(20))
                for i in range(12)}
        system = SingleMachineSystem(jobs=jobs)
        with pytest.raises(BudgetExceededError):
            system.is_member(set(jobs), budget=50)

    def test_feasible_subsets_budget(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"a", "b", "c", "d"}),))
        with pytest.raises(BudgetExceededError):
            feasible_subsets(system, {"a", "b", "c", "d"}, budget=3)


class TestFeasibleSubsets:
    def test_enumerates_exactly_the_members(self):
        game = ex_asym(3, 2)
        for system in game.players:
            listed = set(feasible_subsets(system, game.item_ids))
            expected = {T for T in all_subsets(game.item_ids)
                        if system.is_member(T)}
            assert listed == expected

    def test_lexicographic_order(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"a", "b"}),))
        listed = feasible_subsets(system, {"a", "b"})
        assert [tuple(sorted(T)) for T in listed] == [
            (), ("a",), ("a", "b"), ("b",)]


def rationals(low: int, high: int):
    return st.builds(Fraction, st.integers(low, high), st.integers(1, 4))


@st.composite
def zero_release_machines(draw):
    """Up to 7 zero-release jobs with rational times, and a system that
    one machine of them decides.  Half the tables give every job the same
    processing time, which the scan treats as a special case.  A deadline
    is its job's processing time plus a slack, which may be negative:
    with deadlines drawn on their own, no greedy pass stalled, and the
    exact search behind the scan never ran."""
    ids = [f"j{index}" for index in range(draw(st.integers(0, 7)))]
    length = draw(rationals(1, 8)) if draw(st.booleans()) else None
    jobs = {}
    for i in ids:
        processing = length or draw(rationals(1, 8))
        jobs[i] = JobWindow(0, processing, processing + draw(rationals(-1, 8)))
    kind = draw(st.sampled_from(("single", "identical", "shared")))
    if kind == "identical":
        return IdenticalMachinesSystem(copies=1, jobs=jobs), jobs
    system = SingleMachineSystem(jobs=jobs)
    if kind == "shared":
        system = SharedSymmetricSystem(base=system, copies=1)
    return system, jobs


def fits_by_permutations(jobs, items) -> bool:
    return schedulable_by_permutations(
        [(Fraction(0), jobs[i].processing, jobs[i].deadline) for i in items])


def assert_short_budget_stops_the_scan(system, available,
                                       largest_deadline_first, data):
    """A slot-count scan under a drawn limit below its one node per
    candidate fails on the node after the limit, even where it charges
    the candidates after a full machine at once."""
    if len(available) < 2:
        return
    short = SearchBudget(data.draw(st.integers(1, len(available) - 1),
                                   label="limit"))
    with pytest.raises(BudgetExceededError,
                       match=f"budget of {short.limit} nodes exceeded"):
        max_cardinality_feasible(system, available, largest_deadline_first,
                                 short)
    assert short.used == short.limit + 1


class TestIntegerView:
    """Zero-release machines, decided on integer times, against brute force."""

    def test_identical_machines_keep_one_table(self):
        # Fits, scans and witnesses all read the one machine's table.
        system = IdenticalMachinesSystem(2, unit_jobs(
            {"a": (0, 1, 1), "b": (0, 1, 1), "c": (0, 1, 2)}))
        assert system.is_member("abc")
        assert max_cardinality_feasible(system, "abc",
                                        prefer_largest_deadline=True) == tuple("cab")
        assert validate_witness(system, "abc", system.schedule_witness("abc"))
        machine = system._as_shared.base
        assert system.integer_view is machine.integer_view
        assert system.position is machine.position

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(zero_release_machines(), st.data())
    def test_membership_and_its_nodes(self, machine, data):
        system, jobs = machine
        items = data.draw(st.frozensets(st.sampled_from(sorted(jobs) + ["x"])))
        budget = SearchBudget(10**6)
        verdict = system.is_member(items, budget)
        if "x" in items:
            assert (verdict, budget.used) == (False, 0)
            return
        assert verdict == fits_by_permutations(jobs, items)
        assert budget.used == edf_checks(
            [(i, jobs[i].processing, jobs[i].deadline) for i in items])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(zero_release_machines(), st.data())
    def test_scan_keeps_the_documented_maximum(self, machine, data):
        system, jobs = machine
        # Drawing the jobs left out makes the whole table the simplest pool.
        available = frozenset(
            i for i in sorted(jobs) if not data.draw(st.booleans(), label=i))
        members = {T for T in all_subsets(available)
                   if fits_by_permutations(jobs, T)}
        for largest_deadline_first in (False, True):
            pool = sorted(available)
            if largest_deadline_first:
                pool.sort(key=lambda i: -jobs[i].deadline)
            budget = SearchBudget(10**6)
            scan = max_cardinality_feasible(system, available,
                                            largest_deadline_first, budget)
            assert frozenset(scan) in members
            assert len(scan) == max(map(len, members))
            assert scan == brute_max_cardinality_scan(members.__contains__, pool)
            if len({jobs[i].processing for i in jobs}) <= 1:
                assert budget.used == len(pool)  # one node per candidate
                assert_short_budget_stops_the_scan(
                    system, available, largest_deadline_first, data)

    def test_nodes_of_a_scan_by_the_kernel(self):
        # ex_sym mixes processing times, so the scan is one kernel search
        # for the first maximum.  The 84 nodes are pinned, so neither the
        # route nor integer times can move the point where a budget stops
        # the scan.
        game = ex_sym(3, 2, 3)
        for largest_deadline_first in (False, True):
            budget = SearchBudget(10**6)
            scan = max_cardinality_feasible(game.players[0], game.item_ids,
                                            largest_deadline_first, budget)
            assert (len(scan), budget.used) == (7, 84)


@st.composite
def released_machines(draw):
    """One machine with 1 to 6 jobs whose rational release dates are
    often, but not always, 0.  A deadline is its job's release and
    processing time plus a slack that may be negative."""
    jobs = {}
    for k in range(draw(st.integers(1, 6))):
        release, processing = draw(rationals(0, 4)), draw(rationals(1, 6))
        jobs[f"j{k}"] = JobWindow(release, processing,
                                  release + processing + draw(rationals(-1, 8)))
    return SingleMachineSystem(jobs), jobs


class TestReleaseDates:
    """One machine with release dates, against brute force."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(released_machines(), st.data())
    def test_verdicts_witnesses_and_nodes(self, machine, data):
        system, jobs = machine
        items = data.draw(st.frozensets(st.sampled_from(sorted(jobs))))
        member_budget, witness_budget = SearchBudget(10**6), SearchBudget(10**6)
        verdict = system.is_member(items, member_budget)
        assert verdict == schedulable_by_permutations(
            [(jobs[i].release, jobs[i].processing, jobs[i].deadline)
             for i in items])
        witness = system.schedule_witness(items, witness_budget)
        assert (witness is not None) == verdict
        if verdict:
            assert validate_witness(system, items, witness)
            assert witness.scheduled_items() == items
        if any(jobs[i].release for i in items):
            # One node per nonempty subset of the first k jobs, for the
            # least k whose jobs have no schedule, else for all of them.
            ids = sorted(items)
            size = next((k for k in range(1, len(ids))
                         if not schedulable_by_permutations(
                             [(jobs[i].release, jobs[i].processing,
                               jobs[i].deadline) for i in ids[:k]])),
                        len(ids))
            nodes = 2 ** size - 1
        else:
            nodes = edf_checks(
                [(i, jobs[i].processing, jobs[i].deadline) for i in items])
        assert member_budget.used == witness_budget.used == nodes

    def test_witness_of_fractional_windows_is_exact(self):
        # Of the orders that end by 23/12, the subset program keeps b, c,
        # a; d waits for its release.
        system = SingleMachineSystem(jobs={
            "a": JobWindow(Fraction(1, 2), Fraction(2, 3), 3),
            "b": JobWindow(0, Fraction(3, 4), Fraction(5, 4)),
            "c": JobWindow(Fraction(1, 3), Fraction(1, 2), 2),
            "d": JobWindow(Fraction(5, 2), Fraction(1, 6), Fraction(17, 6))})
        budget = SearchBudget(100)
        witness = system.schedule_witness("abcd", budget)
        assert witness == ScheduleWitness(((
            ("b", Fraction(0)), ("c", Fraction(3, 4)),
            ("a", Fraction(5, 4)), ("d", Fraction(5, 2))),))
        assert all(type(start) is Fraction for _, start in witness.machines[0])
        assert budget.used == 15

    def test_subset_program_requires_each_block_up_front(self):
        # Blocks of 1, 2, ..., 2**15 subsets spend 2**16 - 1 nodes; the
        # block of 2**16 does not fit in what remains, so its one spend
        # fails on the node after the limit, before the block runs.
        jobs = {f"j{k:02d}": JobWindow(Fraction(k, 2), 1, 40) for k in range(18)}
        budget = SearchBudget(100_000)
        with pytest.raises(BudgetExceededError):
            SingleMachineSystem(jobs).is_member(set(jobs), budget)
        assert budget.used == 100_001

    @pytest.mark.parametrize("machine, nodes", [("single", 3), ("unrelated", 3)])
    def test_subset_program_stops_at_the_first_prefix_without_a_schedule(
            self, machine, nodes):
        # j00 and j01 both end by 2 but need 1.5 each, so the first two
        # jobs have no schedule: blocks of 1 and 2 subsets, not 2**24 - 1
        # nodes.  A split over one unrelated machine is that machine's own
        # fit, so it spends the same 3; walking the id-prefixes, each with
        # its walk node and its earliest-deadline-first checks, spent 5.
        jobs = {f"j{k:02d}": JobWindow(Fraction(k, 2), Fraction(3, 2), 40)
                for k in range(24)}
        jobs["j00"] = jobs["j01"] = JobWindow(0, Fraction(3, 2), 2)
        if machine == "single":
            system = SingleMachineSystem(jobs)
        else:
            system = UnrelatedMachinesSystem(
                ("m",), {("m", i): w.processing for i, w in jobs.items()},
                {i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})
        budget = SearchBudget()
        assert not system.is_member(set(jobs), budget)
        assert budget.used == nodes

    def test_subset_program_fits_an_exact_budget(self):
        jobs = {f"j{k}": JobWindow(Fraction(k, 2), 1, 20) for k in range(10)}
        budget = SearchBudget(2 ** 10 - 1)
        assert SingleMachineSystem(jobs).is_member(set(jobs), budget)
        assert budget.used == 1023


def several_machines(kind: str, jobs: dict[str, JobWindow], count: int = 2):
    """`count` machines of one kind that all run every job as `jobs` says.
    "shared-identical" is count / 2 shared copies of two identical
    machines."""
    if kind == "identical":
        return IdenticalMachinesSystem(copies=count, jobs=jobs)
    if kind == "shared":
        return SharedSymmetricSystem(base=SingleMachineSystem(jobs=jobs),
                                     copies=count)
    if kind == "shared-identical":
        return SharedSymmetricSystem(
            base=IdenticalMachinesSystem(copies=2, jobs=jobs), copies=count // 2)
    machines = tuple(f"m{m}" for m in range(1, count + 1))
    return UnrelatedMachinesSystem(
        machines=machines,
        processing={(m, i): w.processing for m in machines
                    for i, w in jobs.items()},
        jobs={i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})


@st.composite
def multi_machine_systems(draw):
    """Jobs on machines of one kind, the number of machines a witness
    lists, and a brute-force test of one machine's part.  The kinds are
    1 to 3 identical, shared or unrelated machines, and 1 to 3 shared
    copies of two identical or two unrelated machines.  Half the tables
    are packings: each of two machines gets a full load of up to three
    jobs due at one deadline, and the jobs are listed in a drawn order, so
    the first machine a job fits on is often the wrong one and the search
    must go back.  The other half draw up to 5 jobs with release dates and
    their own deadlines.  On unrelated machines outside packings, a job
    has its own time on each machine, or none."""
    kind = draw(st.sampled_from(("identical", "shared", "unrelated",
                                 "shared-identical", "shared-unrelated")))
    over = kind.startswith("shared-")  # copies of a two-machine base
    packing = draw(st.booleans())
    if packing:
        count, horizon = 2, draw(st.integers(3, 6))
        pieces = []
        for _ in range(count):
            cuts = sorted(draw(st.sets(st.integers(1, horizon - 1), max_size=2)))
            pieces += [b - a for a, b in zip([0] + cuts, cuts + [horizon])]
        windows = [(0, piece, horizon) for piece in draw(st.permutations(pieces))]
    else:
        count, windows = 2 if over else draw(st.integers(1, 3)), []
        for _ in range(draw(st.integers(1, 5))):
            release = draw(st.sampled_from((0, 0, 1, Fraction(3, 2))))
            windows.append((release, draw(rationals(1, 3)),
                            release + draw(rationals(2, 12))))
    jobs = {f"j{k}": JobWindow(*window) for k, window in enumerate(windows)}
    if kind.endswith("unrelated"):
        machines = tuple(f"m{m}" for m in range(count))
        processing = {(m, i): w.processing if packing else draw(rationals(1, 3))
                      for m in machines for i, w in jobs.items()
                      if packing or draw(st.booleans())}
        system = UnrelatedMachinesSystem(
            machines, processing,
            {i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})
        durations = [{i: t for (m, i), t in processing.items() if m == machine}
                     for machine in machines]
    else:
        system = (IdenticalMachinesSystem(count, jobs) if kind.endswith("identical")
                  else SharedSymmetricSystem(SingleMachineSystem(jobs), count))
        durations = [{i: w.processing for i, w in jobs.items()}] * count
    if over:
        # Witness machine p is base machine p mod 2 of copy p // 2.
        copies = 1 if packing else draw(st.integers(1, 3))
        system = SharedSymmetricSystem(system, copies)
        count, durations = count * copies, durations * copies

    def fits(p: int, part: list[str]) -> bool:
        return all(i in durations[p] for i in part) and schedulable_by_permutations(
            [(jobs[i].release, durations[p][i], jobs[i].deadline) for i in part])

    return system, sorted(jobs), count, fits


class TestPartition:
    """Players with several machines, decided by one partition search."""

    @pytest.mark.parametrize("kind", ["identical", "shared", "unrelated"])
    def test_a_thousand_jobs_do_not_exhaust_the_stack(self, kind):
        jobs = {f"j{k:04d}": JobWindow(0, 1, 2000) for k in range(1200)}
        system = several_machines(kind, jobs)
        assert system.is_member(jobs)
        witness = system.schedule_witness(jobs)
        assert witness is not None
        assert validate_witness(system, jobs, witness)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(multi_machine_systems(), st.data())
    def test_verdicts_and_witnesses_match_every_assignment(self, machines, data):
        system, ids, count, fits = machines
        whole = data.draw(st.booleans(), label="whole table")
        items = {i for i in ids if whole or data.draw(st.booleans(), label=i)}
        if data.draw(st.integers(0, 7), label="unknown id") == 3:
            items.add("x")
        member = "x" not in items and brute_partition(items, count, fits)
        assert system.is_member(items) == member
        witness = system.schedule_witness(items)
        if member:
            assert len(witness.machines) == count == system._machine_count
            assert validate_witness(system, items, witness)
        else:
            assert witness is None

    JOBS = unit_jobs({"a": (0, 1, 1), "b": (0, 1, 1), "c": (0, 1, 2),
                      "d": (0, 2, 2), "e": (0, 1, 3)})
    RELEASED = unit_jobs({"a": (0, 2, 3), "b": (1, 1, 2), "c": (2, 1, 4),
                          "d": (0, 1, 1)})
    # Two machines hold these only as {a, c} and {b, d, e}.
    PACKED = unit_jobs({"a": (0, 3, 6), "b": (0, 2, 6), "c": (0, 3, 6),
                        "d": (0, 2, 6), "e": (0, 2, 6)})

    @pytest.mark.parametrize("jobs, copies, items, member, nodes", [
        (JOBS, 2, "abc", True, (10, 10)),
        (JOBS, 2, "abd", False, (13, 13)),
        (JOBS, 3, "abcde", True, (23, 23)),
        (RELEASED, 2, "abcd", True, (20, 20)),
        (RELEASED, 2, "abc", True, (12, 12)),
        (PACKED, 2, "abcde", True, (46, 46)),
    ])
    def test_nodes_of_shared_copies(self, jobs, copies, items, member, nodes):
        # (membership, witness) nodes.  The membership counts are pinned
        # from the recursive searches this one replaced.  A witness is the
        # split's own fit, so it spends what membership spends; when it
        # scheduled each part again, it spent 13, 28, 28, 16 and 51 on
        # the members.  Identical machines are the shared copies of one
        # machine, node for node.
        for system in (SharedSymmetricSystem(SingleMachineSystem(jobs), copies),
                       IdenticalMachinesSystem(copies, jobs)):
            member_budget, witness_budget = SearchBudget(10**6), SearchBudget(10**6)
            assert system.is_member(set(items), member_budget) == member
            witness = system.schedule_witness(set(items), witness_budget)
            assert (witness is not None) == member
            assert (member_budget.used, witness_budget.used) == nodes

    # Job c has a release date, so a machine holding it runs the subset
    # program.  In MOVED, job b runs only where job a went first.
    UNRELATED = UnrelatedMachinesSystem(
        machines=("m1", "m2"),
        processing={("m1", "a"): 1, ("m1", "b"): 2, ("m1", "c"): 1,
                    ("m2", "b"): 1, ("m2", "c"): 2, ("m2", "d"): 1},
        jobs={"a": TimeWindow(0, 2), "b": TimeWindow(0, 2),
              "c": TimeWindow(1, 3), "d": TimeWindow(0, 1)})
    MOVED = UnrelatedMachinesSystem(
        machines=("m1", "m2"),
        processing={("m1", "a"): 1, ("m2", "a"): 1, ("m1", "b"): 1,
                    ("m2", "c"): 2},
        jobs={"a": TimeWindow(0, 1), "b": TimeWindow(0, 1), "c": TimeWindow(0, 3)})
    # Three machines: with b on m2 and then on m3, the split asks m1 about
    # {a, c} twice, and the second answer comes from the walk's memo;
    # without the memo this split spends (20, 23) nodes.
    RECALLED = UnrelatedMachinesSystem(
        machines=("m1", "m2", "m3"),
        processing={("m1", "a"): 2, ("m1", "b"): 2, ("m1", "c"): 2,
                    ("m2", "b"): 2, ("m2", "c"): 1, ("m3", "b"): 1,
                    ("m3", "c"): 2},
        jobs={"a": TimeWindow(0, 2), "b": TimeWindow(0, 2), "c": TimeWindow(0, 1)})

    @pytest.mark.parametrize("kind", ["identical", "shared"])
    def test_copies_past_the_item_count_cost_no_memory(self, kind):
        # Both jobs are due at 1, so the split opens a second copy.  Only
        # as many interchangeable parts as items can ever be used.
        jobs = unit_jobs({"a": (0, 1, 1), "b": (0, 1, 1)})
        system = (IdenticalMachinesSystem(10**5, jobs) if kind == "identical"
                  else SharedSymmetricSystem(SingleMachineSystem(jobs), 10**5))
        tracemalloc.start()
        try:
            assert system.is_member({"a", "b"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("kind", ["identical", "shared"])
    def test_a_witness_on_a_billion_machines_costs_no_memory(self, kind):
        # The machine count is a number: checking two machines of 10^9
        # lists none of the others.
        jobs = unit_jobs({"a": (0, 1, 1), "b": (0, 1, 1)})
        system = (IdenticalMachinesSystem(10**9, jobs) if kind == "identical"
                  else SharedSymmetricSystem(SingleMachineSystem(jobs), 10**9))
        witness = ScheduleWitness(((("a", Fraction(0)),), (("b", Fraction(0)),)))
        tracemalloc.start()
        try:
            assert validate_witness(system, {"a", "b"}, witness)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_nodes_of_a_uniform_table_rejected(self):
        # Two unit jobs are due at each of 1..5 and four at 6, so two
        # machines hold at most 12 of the 14.  Slot counts stop at the
        # 13th job by slot count, for membership and witness alike; the
        # split spent 1,727.  A job due before its length ends stops them
        # at once, where the split spent 2.
        tight = {f"j{k:02d}": JobWindow(0, 1, min(k // 2 + 1, 6))
                 for k in range(14)}
        late = {"a": JobWindow(0, 2, 1), "b": JobWindow(0, 2, 4),
                "c": JobWindow(0, 2, 4), "d": JobWindow(0, 2, 4)}
        for jobs, count, nodes in ((tight, 2, (13, 13)), (late, 4, (1, 1))):
            for system in (IdenticalMachinesSystem(count, jobs),
                           SharedSymmetricSystem(SingleMachineSystem(jobs), count)):
                member_budget, witness_budget = SearchBudget(10**6), SearchBudget(10**6)
                assert not system.is_member(jobs, member_budget)
                assert system.schedule_witness(jobs, witness_budget) is None
                assert (member_budget.used, witness_budget.used) == nodes

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(("identical", "shared", "shared-identical")),
           st.integers(1, 2), rationals(1, 3), st.data())
    def test_slot_counts_match_every_assignment(self, kind, half, length, data):
        # Zero-release jobs with one processing time on 2 or 4 machines.
        jobs = {f"j{k}": JobWindow(0, length, length * data.draw(
                    st.integers(-1, 4), label=f"slots of j{k}"))
                for k in range(data.draw(st.integers(1, 6), label="jobs"))}
        count = 2 * half
        system = several_machines(kind, jobs, count)
        items = data.draw(st.frozensets(st.sampled_from(sorted(jobs)), min_size=1),
                          label="items")
        budget = SearchBudget(10**6)
        assert not system.is_member(items | {"x"}, budget)
        assert budget.used == 0
        verdict = system.is_member(items, budget)
        assert verdict == brute_partition(
            items, count, lambda p, part: fits_by_permutations(jobs, part))
        # A rejected set stops at the first job over its slot count.
        assert budget.used == len(items) if verdict else budget.used <= len(items)

    @pytest.mark.parametrize("system, items, nodes", [
        (UNRELATED, "abcd", (15, 15)), (UNRELATED, "abc", (11, 11)),
        (UNRELATED, "ad", (5, 5)), (MOVED, "ab", (10, 10)),
        (MOVED, "abc", (14, 14)), (RECALLED, "abc", (19, 19))])
    def test_nodes_of_unrelated_machines(self, system, items, nodes):
        # (membership, witness) nodes.  A witness is the fit the split
        # found, so it spends what membership spends; when it scheduled
        # each machine again, it spent 20, 15, 7, 12, 17 and 22.
        for method, pinned in zip(("is_member", "schedule_witness"), nodes):
            budget = SearchBudget(10**6)
            assert getattr(system, method)(set(items), budget)
            assert budget.used == pinned

    # ex_asym's players are one-machine unrelated systems, whose split is
    # their machine's own fit; the symmetric game's players hold 3, 2, 3
    # and 2 copies of one explicit base, whose covers decide membership
    # without a split.  RELEASED_GAME's first player splits across two
    # copies of a machine with release dates, and a one-job set of it is
    # one copy's fit.
    SYMMETRIC = random_symmetric(n=4, copies=3, seed=2)
    RELEASED_GAME = Instance(
        items=tuple(Item(i, w) for i, w in zip("abcd", (3, 2, 2, 1))),
        players=(SharedSymmetricSystem(SingleMachineSystem(RELEASED), 2),
                 SharedSymmetricSystem(SingleMachineSystem(RELEASED), 1)))

    @pytest.mark.parametrize("search, args, nodes", [
        (compute_opt, (ex_asym(3, 2),), 21),
        (empirical_poa, (ex_asym(3, 2), Fraction(3, 2)), 188),
        (every_outcome_and_opt, (SYMMETRIC, 1), 1_626),
        (every_outcome_and_opt, (SYMMETRIC, Fraction(3, 2)), 4_050),
        (empirical_poa, (RELEASED_GAME, 1), 251),
    ], ids=["opt-asym", "nash-asym", "spe-symmetric-1", "spe-symmetric-1.5",
            "nash-released"])
    def test_nodes_of_splits_inside_assignment_searches(self, search, args, nodes):
        # Pinned from the partition search the kernel walk replaced; the
        # SPE pins list every outcome of every order, as the sequential
        # measurement did then.  ex_asym's p-jobs and q-jobs are walked
        # once per orbit, which took the two asym pins from 61 and 443;
        # one-member splits fit without a walk, which took them from 46
        # and 374, and the released pin from 256.
        budget = SearchBudget(10**6)
        search(*args, budget)
        assert budget.used == nodes


@st.composite
def witnessed_systems(draw):
    """A system of any of the five kinds over 1 to 5 items, and the number
    of machines its witness lists: an explicit family, one machine, or 1
    to 3 identical or unrelated machines, each perhaps as 1 to 3 shared
    copies.  Half the machine tables have release dates, and half give
    every job one processing time, so slot counts, the subset program and
    the split walk are all drawn."""
    ids = [f"j{k}" for k in range(draw(st.integers(1, 5)))]
    kind = draw(st.sampled_from(("explicit", "single", "identical", "unrelated")))
    count = 1
    if kind == "explicit":
        sets = draw(st.lists(st.frozensets(st.sampled_from(ids)), max_size=3))
        system = ExplicitSystem(maximal_sets=tuple(sets))
    else:
        released = draw(st.booleans())
        length = draw(rationals(1, 3)) if draw(st.booleans()) else None
        jobs = {}
        for i in ids:
            release = draw(st.sampled_from((0, 1, Fraction(3, 2)))) if released else 0
            processing = length or draw(rationals(1, 3))
            jobs[i] = JobWindow(release, processing,
                                release + processing + draw(rationals(-1, 6)))
        if kind == "single":
            system = SingleMachineSystem(jobs)
        else:
            count = draw(st.integers(1, 3))
            system = several_machines(kind, jobs, count)
    if draw(st.booleans()):
        copies = draw(st.integers(1, 3))
        system, count = SharedSymmetricSystem(system, copies), count * copies
    return system, count


class TestWitnessIsTheFit:
    """A witness is the schedule that decided membership."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(witnessed_systems(), st.data())
    def test_witness_exactly_when_member_at_the_same_cost(self, drawn, data):
        system, count = drawn
        items = data.draw(st.frozensets(
            st.sampled_from(sorted(system.universe()) + ["x"])), label="items")
        member_budget, witness_budget = SearchBudget(10**6), SearchBudget(10**6)
        member = system.is_member(items, member_budget)
        witness = system.schedule_witness(items, witness_budget)
        if member and system.job_deadlines() is not None:
            assert len(witness.machines) == count
            assert validate_witness(system, items, witness)
        else:
            assert witness is None
        assert member_budget.used == witness_budget.used


@st.composite
def replayed_systems(draw):
    """A machine system over 1 to 5 jobs, their windows, and the time of
    each job on each machine a witness lists, where it can run there: one
    machine, or 1 to 3 identical or unrelated machines, perhaps as shared
    copies, 4 machines at most.  Half the tables have release dates, and
    half give every job one processing time.  Unrelated machines give a
    job its own time on each, or none."""
    ids = [f"j{k}" for k in range(draw(st.integers(1, 5)))]
    released = draw(st.booleans())
    length = draw(rationals(1, 3)) if draw(st.booleans()) else None
    jobs = {}
    for i in ids:
        release = draw(st.sampled_from((0, 1, Fraction(3, 2)))) if released else 0
        processing = length or draw(rationals(1, 3))
        jobs[i] = JobWindow(release, processing,
                            release + processing + draw(rationals(-1, 6)))
    kind = draw(st.sampled_from(("single", "identical", "unrelated")))
    count = 1 if kind == "single" else draw(st.integers(1, 3))
    if kind == "unrelated":
        machines = tuple(f"m{m}" for m in range(count))
        processing = {(m, i): draw(rationals(1, 3)) for m in machines
                      for i in ids if draw(st.booleans())}
        system = UnrelatedMachinesSystem(
            machines, processing,
            {i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})
        times = [{i: t for (m, i), t in processing.items() if m == machine}
                 for machine in machines]
    else:
        system = (SingleMachineSystem(jobs) if kind == "single"
                  else IdenticalMachinesSystem(count, jobs))
        times = [{i: w.processing for i, w in jobs.items()}] * count
    if draw(st.booleans()):
        copies = draw(st.integers(1, 4 // count))
        system, times = SharedSymmetricSystem(system, copies), times * copies
    return system, jobs, times


class TestWitnessReplaysItsOrder:
    """A witness starts each job as early as its machine's order allows."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(replayed_systems(), st.data())
    def test_each_start_is_the_later_of_release_and_previous_end(self, drawn,
                                                                 data):
        system, jobs, times = drawn
        items = data.draw(st.frozensets(st.sampled_from(sorted(jobs))),
                          label="items")
        member_budget, witness_budget = SearchBudget(10**6), SearchBudget(10**6)
        member = system.is_member(items, member_budget)
        witness = system.schedule_witness(items, witness_budget)
        assert member_budget.used == witness_budget.used

        def fits(p: int, part: list[str]) -> bool:
            return all(i in times[p] for i in part) and schedulable_by_permutations(
                [(jobs[i].release, times[p][i], jobs[i].deadline) for i in part])

        assert member == brute_partition(items, len(times), fits)
        if not member:
            assert witness is None
            return
        assert len(witness.machines) == len(times)
        assert validate_witness(system, items, witness)
        for machine, run in zip(times, witness.machines):
            end = Fraction(0)
            for item, start in run:
                assert start == max(end, jobs[item].release)
                end = start + machine[item]


@st.composite
def scan_systems(draw):
    """A system for each route of the maximum-cardinality scan, with up to
    7 items, and whether it is a uniform zero-release machine system: an
    explicit family, one machine, or two to four identical, shared or
    unrelated machines, where two or four may also be shared copies of
    two identical machines.  Half the machine tables have release dates,
    and half give every job the same processing time."""
    kind = draw(st.sampled_from(("explicit", "single", "identical", "shared",
                                 "shared-identical", "unrelated")))
    ids = [f"j{k}" for k in range(draw(st.integers(1, 7)))]
    if kind == "explicit":
        sets = draw(st.lists(st.frozensets(st.sampled_from(ids)), max_size=4))
        return ExplicitSystem(maximal_sets=tuple(sets)), False
    released = draw(st.booleans())
    length = draw(rationals(1, 3)) if draw(st.booleans()) else None
    jobs = {}
    for i in ids:
        release = draw(st.sampled_from((0, 1, Fraction(3, 2)))) if released else 0
        processing = length or draw(rationals(1, 3))
        jobs[i] = JobWindow(release, processing,
                            release + processing + draw(rationals(-1, 6)))
    uniform = not released and length is not None
    if kind == "single":
        return SingleMachineSystem(jobs), uniform
    count = draw(st.sampled_from((2, 4)) if kind == "shared-identical"
                 else st.integers(2, 4))
    if kind == "unrelated":
        machines = tuple(f"m{m}" for m in range(1, count + 1))
        return UnrelatedMachinesSystem(
            machines=machines,
            processing={(m, i): draw(rationals(1, 3))
                        for m in machines for i in ids if draw(st.booleans())},
            jobs={i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()}
        ), False
    return several_machines(kind, jobs, count), uniform


class TestScanRoutes:
    """The maximum-cardinality scan on every route, against enumeration."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scan_systems(), st.data())
    def test_scan_keeps_the_documented_maximum(self, scanned, data):
        system, uniform = scanned
        available = frozenset(i for i in sorted(system.universe())
                              if not data.draw(st.booleans(), label=i))
        members = {T for T in all_subsets(available) if system.is_member(T)}
        deadlines = system.job_deadlines()
        for largest_deadline_first in (False, True) if deadlines else (False,):
            pool = sorted(available)
            if largest_deadline_first:
                pool.sort(key=lambda i: -deadlines[i])
            budget = SearchBudget(10**6)
            scan = max_cardinality_feasible(system, available,
                                            largest_deadline_first, budget)
            assert frozenset(scan) in members
            assert scan == brute_max_cardinality_scan(members.__contains__, pool)
            if uniform:
                assert budget.used == len(pool)  # one node per candidate
                assert_short_budget_stops_the_scan(
                    system, available, largest_deadline_first, data)

    def test_nodes_of_a_uniform_scan_on_two_machines(self):
        # Two unit jobs are due at each of 1..7 and four at 8, so 16 of
        # the 18 fit.  A greedy scan that asked membership of every
        # candidate spent 18,848 nodes in id order and 280,939 by
        # largest deadline first.
        jobs = {f"j{k:02d}": JobWindow(0, 1, min(k // 2 + 1, 8))
                for k in range(18)}
        system = IdenticalMachinesSystem(copies=2, jobs=jobs)
        for largest_deadline_first in (False, True):
            budget = SearchBudget(10**6)
            scan = max_cardinality_feasible(system, jobs,
                                            largest_deadline_first, budget)
            assert (len(scan), budget.used) == (16, 18)
            assert system.is_member(scan)


@st.composite
def one_machine_jobs(draw):
    """Up to 5 jobs for one machine: zero-release jobs of one processing
    time, which slot counts decide, zero-release jobs of mixed processing
    times, or jobs whose release dates are often, but not always, 0."""
    kind = draw(st.sampled_from(("uniform", "mixed", "released")))
    length = draw(rationals(1, 3))
    jobs = {}
    for k in range(draw(st.integers(0, 5))):
        release = (draw(st.sampled_from((0, 1, Fraction(3, 2))))
                   if kind == "released" else 0)
        processing = length if kind == "uniform" else draw(rationals(1, 3))
        jobs[f"j{k}"] = JobWindow(release, processing,
                                  release + processing + draw(rationals(-1, 6)))
    return jobs


def answers(system, ids):
    """For every mask over `ids`: membership, the mask test's verdict and
    the witness, each with the nodes it spent."""
    test = system._mask_test(ids)
    out = []
    for mask in range(1 << len(ids)):
        items = spell(mask, ids)
        member, masked, witnessed = (SearchBudget(10**6) for _ in range(3))
        out.append((system.is_member(items, member), member.used,
                    test(mask, masked), masked.used,
                    system.schedule_witness(items, witnessed), witnessed.used))
    return out


class TestOneCopy:
    """One copy, or one unrelated machine, is no special case: it answers
    as the system it copies, node for node."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(
        st.lists(st.frozensets(st.sampled_from("abcde")), max_size=4).map(
            lambda sets: ExplicitSystem(maximal_sets=tuple(sets))),
        one_machine_jobs().map(SingleMachineSystem),
        one_machine_jobs().map(lambda jobs: IdenticalMachinesSystem(2, jobs))))
    def test_one_copy_answers_as_its_base(self, base):
        ids = sorted(base.universe()) + ["x"]
        assert (answers(SharedSymmetricSystem(base, 1), ids)
                == answers(base, ids))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(one_machine_jobs(), st.data())
    def test_one_unrelated_machine_answers_as_a_single_machine(self, jobs, data):
        # A job the machine cannot run is in the unrelated system's
        # universe only.
        runs = {i: data.draw(st.integers(0, 3), label=i) > 0 for i in jobs}
        unrelated = UnrelatedMachinesSystem(
            ("m",), {("m", i): w.processing for i, w in jobs.items() if runs[i]},
            {i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})
        single = SingleMachineSystem({i: w for i, w in jobs.items() if runs[i]})
        ids = sorted(jobs) + ["x"]
        assert answers(unrelated, ids) == answers(single, ids)


@st.composite
def machine_systems(draw):
    """A system of one of the four machine kinds over `one_machine_jobs`:
    one machine, 1 to 3 identical machines or shared copies of one, or
    1 or 2 unrelated machines, each job running on each with the table's
    time, a drawn one or not at all."""
    jobs = draw(one_machine_jobs())
    kind = draw(st.sampled_from(("single", "identical", "shared", "unrelated")))
    copies = draw(st.integers(1, 3))
    if kind == "single":
        return SingleMachineSystem(jobs)
    if kind == "identical":
        return IdenticalMachinesSystem(copies, jobs)
    if kind == "shared":
        return SharedSymmetricSystem(SingleMachineSystem(jobs), copies)
    machines = ("m", "n")[:min(copies, 2)]
    times = {(m, i): draw(st.one_of(st.none(), st.just(w.processing),
                                    rationals(1, 3)))
             for m in machines for i, w in jobs.items()}
    return UnrelatedMachinesSystem(
        machines, {key: time for key, time in times.items() if time},
        {i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})


class TestJobMaskTests:
    """A job system's mask test decides every mask as `is_member` decides
    the set it spells, and spends the same nodes, also up to a budget it
    exceeds, whichever route it takes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(machine_systems())
    def test_every_mask_as_is_member(self, system):
        ids = sorted(system.universe()) + ["x"]
        assert verdicts_and_nodes(system._mask_test(ids), len(ids)) == (
            verdicts_and_nodes(lambda mask, budget: system.is_member(
                spell(mask, ids), budget), len(ids)))
