"""Feasibility systems: membership, closure, witnesses, cardinality scans."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spgames import (BudgetExceededError, ExplicitSystem, ScheduleWitness,
                     IdenticalMachinesSystem, InputError, JobWindow,
                     SearchBudget, SharedSymmetricSystem, SingleMachineSystem,
                     TimeWindow, UnrelatedMachinesSystem, antichain_violation,
                     ex_asym, ex_seq, ex_sym, feasible_subsets,
                     max_cardinality_feasible, validate_downward_closed,
                     validate_witness)

from oracles import (all_subsets, brute_max_cardinality_scan,
                     brute_partition, edf_checks, schedulable_by_permutations)


def unit_jobs(spec: dict[str, tuple]) -> dict[str, JobWindow]:
    return {name: JobWindow(Fraction(r), Fraction(p), Fraction(d))
            for name, (r, p, d) in spec.items()}


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
        assert validate_downward_closed(system)

    def test_nested_sets_rejected(self):
        system = ExplicitSystem(maximal_sets=(frozenset({"1"}), frozenset({"1", "2"})))
        assert not validate_downward_closed(system)
        assert antichain_violation(system.maximal_sets) == (
            frozenset({"1"}), frozenset({"1", "2"}))


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

    def test_downward_closure_sampled_on_oracles(self):
        base = self.base()
        assert validate_downward_closed(base, samples=200, seed=1)
        doubled = IdenticalMachinesSystem(copies=2, jobs=base.jobs)
        assert validate_downward_closed(doubled, samples=100, seed=2)

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


class TestIntegerView:
    """Zero-release machines, decided on integer times, against brute force."""

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


def two_machines(kind: str, jobs: dict[str, JobWindow]):
    """Two machines of one kind that both run every job as `jobs` says."""
    if kind == "identical":
        return IdenticalMachinesSystem(copies=2, jobs=jobs)
    if kind == "shared":
        return SharedSymmetricSystem(base=SingleMachineSystem(jobs=jobs), copies=2)
    return UnrelatedMachinesSystem(
        machines=("m1", "m2"),
        processing={(m, i): w.processing for m in ("m1", "m2")
                    for i, w in jobs.items()},
        jobs={i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})


@st.composite
def multi_machine_systems(draw):
    """Jobs on 1 to 3 machines of one kind, and a brute-force test of one
    machine's part.  Half the tables are packings: each of two machines
    gets a full load of up to three jobs due at one deadline, and the
    jobs are listed in a drawn order, so the first machine a job fits on
    is often the wrong one and the search must go back.  The other half
    draw up to 5 jobs with release dates and their own deadlines.  On
    unrelated machines outside packings, a job has its own time on each
    machine, or none."""
    kind = draw(st.sampled_from(("identical", "shared", "unrelated")))
    packing = draw(st.booleans())
    if packing:
        count, horizon = 2, draw(st.integers(3, 6))
        pieces = []
        for _ in range(count):
            cuts = sorted(draw(st.sets(st.integers(1, horizon - 1), max_size=2)))
            pieces += [b - a for a, b in zip([0] + cuts, cuts + [horizon])]
        windows = [(0, piece, horizon) for piece in draw(st.permutations(pieces))]
    else:
        count, windows = draw(st.integers(1, 3)), []
        for _ in range(draw(st.integers(1, 5))):
            release = draw(st.sampled_from((0, 0, 1, Fraction(3, 2))))
            windows.append((release, draw(rationals(1, 3)),
                            release + draw(rationals(2, 12))))
    jobs = {f"j{k}": JobWindow(*window) for k, window in enumerate(windows)}
    if kind == "unrelated":
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
        system = (IdenticalMachinesSystem(count, jobs) if kind == "identical"
                  else SharedSymmetricSystem(SingleMachineSystem(jobs), count))
        durations = [{i: w.processing for i, w in jobs.items()}] * count

    def fits(p: int, part: list[str]) -> bool:
        return all(i in durations[p] for i in part) and schedulable_by_permutations(
            [(jobs[i].release, durations[p][i], jobs[i].deadline) for i in part])

    return system, sorted(jobs), count, fits


class TestPartition:
    """Players with several machines, decided by one partition search."""

    @pytest.mark.parametrize("kind", ["identical", "shared", "unrelated"])
    def test_a_thousand_jobs_do_not_exhaust_the_stack(self, kind):
        jobs = {f"j{k:04d}": JobWindow(0, 1, 2000) for k in range(1200)}
        system = two_machines(kind, jobs)
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
            assert len(witness.machines) == count
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
        (JOBS, 2, "abc", True, (10, 13)),
        (JOBS, 2, "abd", False, (13, 13)),
        (JOBS, 3, "abcde", True, (23, 28)),
        (RELEASED, 2, "abcd", True, (20, 28)),
        (RELEASED, 2, "abc", True, (12, 16)),
        (PACKED, 2, "abcde", True, (46, 51)),
    ])
    def test_nodes_of_shared_copies(self, jobs, copies, items, member, nodes):
        # (membership, witness) nodes, pinned from the recursive searches
        # this one replaced.  Identical machines are the shared copies of
        # one machine, node for node; their membership used to build a
        # witness and spent the witness count.
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

    @pytest.mark.parametrize("system, items, nodes", [
        (UNRELATED, "abcd", (15, 20)), (UNRELATED, "abc", (11, 15)),
        (UNRELATED, "ad", (5, 7)), (MOVED, "ab", (10, 12)),
        (MOVED, "abc", (14, 17))])
    def test_nodes_of_unrelated_machines(self, system, items, nodes):
        # Membership is the split alone; a witness also schedules each
        # machine.  The witness counts are pinned from the recursive
        # search this one replaced.
        for method, pinned in zip(("is_member", "schedule_witness"), nodes):
            budget = SearchBudget(10**6)
            assert getattr(system, method)(set(items), budget)
            assert budget.used == pinned


@st.composite
def scan_systems(draw):
    """A system for each route of the maximum-cardinality scan, with up to
    7 items: an explicit family, one machine, two identical or shared
    machines, or two unrelated machines.  Half the machine tables have
    release dates, and half give every job the same processing time."""
    kind = draw(st.sampled_from(
        ("explicit", "single", "identical", "shared", "unrelated")))
    ids = [f"j{k}" for k in range(draw(st.integers(1, 7)))]
    if kind == "explicit":
        return ExplicitSystem(maximal_sets=tuple(
            draw(st.lists(st.frozensets(st.sampled_from(ids)), max_size=4))))
    released = draw(st.booleans())
    length = draw(rationals(1, 3)) if draw(st.booleans()) else None
    jobs = {}
    for i in ids:
        release = draw(st.sampled_from((0, 1, Fraction(3, 2)))) if released else 0
        processing = length or draw(rationals(1, 3))
        jobs[i] = JobWindow(release, processing,
                            release + processing + draw(rationals(-1, 6)))
    if kind == "unrelated":
        return UnrelatedMachinesSystem(
            machines=("m1", "m2"),
            processing={(m, i): draw(rationals(1, 3))
                        for m in ("m1", "m2") for i in ids
                        if draw(st.booleans())},
            jobs={i: TimeWindow(w.release, w.deadline) for i, w in jobs.items()})
    if kind == "single":
        return SingleMachineSystem(jobs)
    return two_machines(kind, jobs)


class TestScanRoutes:
    """The maximum-cardinality scan on every route, against enumeration."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scan_systems(), st.data())
    def test_scan_keeps_the_documented_maximum(self, system, data):
        available = frozenset(i for i in sorted(system.universe())
                              if not data.draw(st.booleans(), label=i))
        members = {T for T in all_subsets(available) if system.is_member(T)}
        deadlines = system.job_deadlines()
        for largest_deadline_first in (False, True) if deadlines else (False,):
            pool = sorted(available)
            if largest_deadline_first:
                pool.sort(key=lambda i: -deadlines[i])
            scan = max_cardinality_feasible(system, available,
                                            largest_deadline_first)
            assert frozenset(scan) in members
            assert scan == brute_max_cardinality_scan(members.__contains__, pool)
