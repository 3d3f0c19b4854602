"""Downward-closed strategy spaces over an item ground set.

A feasibility system answers one question: is a given set of items an
allowed selection for a player?  Two representations are supported:

* explicit families, stored as their maximal sets (an antichain), where
  membership is a subset test, and
* machine-scheduling oracles, where a set of jobs is allowed exactly when
  it can be scheduled inside the jobs' time windows on the player's
  machine(s).

Both representations are downward closed: removing items from an allowed
set keeps it allowed.  Scheduling oracles with release dates fall back to
a budget-guarded exact search.

A machine system whose release dates are all zero caches one integer
view of its jobs (`IntegerJobs`): every processing time and deadline
scaled once by the lcm of their denominators, addressed by the job's
position in the id-sorted `jobs`.  On one such machine, membership is
the earliest-deadline-first prefix check (Jackson 1955) and, when all
processing times are equal, the maximum-cardinality scan keeps its jobs
on integer keys, finish times and slacks, so neither touches a
`Fraction`.  Their results are item ids, so nothing turns back into
`Fraction` on those paths; schedule witnesses, whose start times are
`Fraction`s, are built from the original windows.

A player with several machines splits a set across them by one
partition search, `_partition`, which keeps an explicit stack.  Items go
in id order into parts, one part per machine, each decided by a
one-machine membership test.  Every attempt to put an item into a part
spends one budget node, on top of what that test spends.  The copies of
a `SharedSymmetricSystem` are interchangeable, so an item may only open
the first empty part; the machines of an `UnrelatedMachinesSystem` are
distinct single machines.  `IdenticalMachinesSystem` is the shared
system of `copies` single machines and answers through it.

Subset enumeration and the maximum-cardinality scan run on the search
kernel (`search.py`), whose one-member pre-order lists a system's sets
in lexicographic order.  The scan's documented pick is the kernel's
first maximum over the scan-ordered pool; a greedy scan serves only
uniform zero-release machines, where every greedily kept set is
maximum.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

from .budget import SearchBudget
from .errors import InputError
from .search import best, integral, walk


def _fraction(value, *, name: str, minimum: Fraction | None = None,
              strict: bool = False) -> Fraction:
    try:
        out = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"{name} is not a rational: {value!r}") from exc
    if minimum is not None:
        if strict and out <= minimum:
            raise InputError(f"{name} must be > {minimum}, got {out}")
        if not strict and out < minimum:
            raise InputError(f"{name} must be >= {minimum}, got {out}")
    return out


@dataclass(frozen=True)
class JobWindow:
    """Time window and duration of one job on one machine kind.

    `release + processing <= deadline` is not required; a job whose window
    cannot hold its processing time is simply never schedulable.
    """

    release: Fraction
    processing: Fraction
    deadline: Fraction

    def __post_init__(self):
        object.__setattr__(self, "release",
                           _fraction(self.release, name="release", minimum=Fraction(0)))
        object.__setattr__(self, "processing",
                           _fraction(self.processing, name="processing",
                                     minimum=Fraction(0), strict=True))
        object.__setattr__(self, "deadline", _fraction(self.deadline, name="deadline"))


@dataclass(frozen=True)
class TimeWindow:
    """Release/deadline pair for jobs whose duration depends on the machine."""

    release: Fraction
    deadline: Fraction

    def __post_init__(self):
        object.__setattr__(self, "release",
                           _fraction(self.release, name="release", minimum=Fraction(0)))
        object.__setattr__(self, "deadline", _fraction(self.deadline, name="deadline"))


@dataclass(frozen=True)
class ScheduleWitness:
    """A concrete schedule certifying membership of a job set.

    One entry per machine (or machine copy): an ordered sequence of
    (item id, start time) pairs.
    """

    machines: tuple[tuple[tuple[str, Fraction], ...], ...]

    def scheduled_items(self) -> frozenset[str]:
        return frozenset(item for seq in self.machines for item, _ in seq)


def _normalize_job_map(jobs, window_type=JobWindow
                       ) -> tuple[tuple[str, JobWindow | TimeWindow], ...]:
    if isinstance(jobs, dict):
        pairs = jobs.items()
    else:
        pairs = jobs
    out = []
    for item_id, window in pairs:
        if not isinstance(window, window_type):
            window = (window_type(**window) if isinstance(window, dict)
                      else window_type(*window))
        out.append((str(item_id), window))
    out.sort(key=lambda p: p[0])
    ids = [p[0] for p in out]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate job ids in feasibility descriptor")
    return tuple(out)


def _schedule_one_machine(jobs: list[tuple[str, JobWindow]],
                          budget: SearchBudget) -> Optional[list[tuple[str, Fraction]]]:
    """Exact single-machine schedule for the given jobs, or None.

    Zero release dates: order by deadline and check every prefix load.
    General release dates: dynamic program over job subsets minimizing the
    completion time, which is exact because starting earlier never hurts.
    """
    if not jobs:
        return []
    if all(window.release == 0 for _, window in jobs):
        ordered = sorted(jobs, key=lambda p: (p[1].deadline, p[0]))
        schedule = []
        clock = Fraction(0)
        for item_id, window in ordered:
            budget.spend()
            start = clock
            clock = start + window.processing
            if clock > window.deadline:
                return None
            schedule.append((item_id, start))
        return schedule

    indexed = sorted(jobs, key=lambda p: p[0])
    n = len(indexed)
    if n > 24:
        budget.require(1 << n)  # subset DP is hopeless here; fail loudly
    finish: dict[int, Fraction] = {0: Fraction(0)}
    parent: dict[int, tuple[int, int]] = {}
    for mask in range(1, 1 << n):
        budget.spend()
        best = None
        choice = None
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            prev = finish.get(mask ^ bit)
            if prev is None:
                continue
            window = indexed[j][1]
            start = max(prev, window.release)
            end = start + window.processing
            if end > window.deadline:
                continue
            if best is None or end < best:
                best = end
                choice = j
        if best is not None:
            finish[mask] = best
            parent[mask] = (mask ^ (1 << choice), choice)
    full = (1 << n) - 1
    if full not in finish:
        return None
    order: list[int] = []
    mask = full
    while mask:
        mask, j = parent[mask]
        order.append(j)
    order.reverse()
    schedule = []
    clock = Fraction(0)
    for j in order:
        item_id, window = indexed[j]
        start = max(clock, window.release)
        clock = start + window.processing
        schedule.append((item_id, start))
    return schedule


class IntegerJobs:
    """Zero-release jobs of one machine kind on an integer clock.

    Processing times and deadlines are scaled once by the lcm of their
    denominators, which keeps every comparison exact.  Jobs are addressed
    by their position in the owner's id-sorted `jobs`, so sorting
    positions sorts ids.
    """

    __slots__ = ("processing", "deadline", "uniform")

    def __init__(self, windows: Sequence[JobWindow]):
        scaled, _ = integral([w.processing for w in windows]
                             + [w.deadline for w in windows])
        self.processing = tuple(scaled[:len(windows)])
        self.deadline = tuple(scaled[len(windows):])
        self.uniform = len(set(self.processing)) <= 1

    def fits(self, positions: Iterable[int], budget: SearchBudget) -> bool:
        """Whether one machine runs these jobs by their deadlines.

        Earliest deadline first, ties by id, is optimal without release
        dates, so checking each prefix load decides the set.  One budget
        node per job checked.
        """
        clock = 0
        for k in sorted(sorted(positions), key=self.deadline.__getitem__):
            budget.spend()
            clock += self.processing[k]
            if clock > self.deadline[k]:
                return False
        return True


def _partition(item_ids: Sequence[str], count: int,
               fits: Callable[[int, list[str]], bool], budget: SearchBudget,
               interchangeable: bool) -> Optional[list[list[str]]]:
    """Split items into `count` parts accepted by `fits(p, part)`, or None.

    Items go in id order, each into the first part in index order that
    still fits with it; an item that fits nowhere sends the one before it
    on to its next part.  Every attempt to put an item into a part spends
    one budget node.  Interchangeable parts are tried only up to the
    first empty one, so no split is met again under a renumbering, and
    only the parts in use are returned; no more of them than items are
    made, so a huge `count` costs nothing.  Pruning a rejected part is
    sound because every family decided here is downward closed.  The
    stack (the part of each placed item) is a list, not Python's call
    stack.
    """
    if interchangeable:
        count = min(count, len(item_ids))
    parts: list[list[str]] = [[] for _ in range(count)]
    placed: list[int] = []
    first = 0  # the first part to try for the next item
    while len(placed) < len(item_ids):
        item = item_ids[len(placed)]
        limit = min(count, sum(map(bool, parts)) + 1) if interchangeable else count
        for p in range(first, limit):
            budget.spend()
            parts[p].append(item)
            if fits(p, parts[p]):
                placed.append(p)
                first = 0
                break
            parts[p].pop()
        else:
            if not placed:
                return None
            p = placed.pop()
            parts[p].pop()
            first = p + 1
    return [part for part in parts if part] if interchangeable else parts


class FeasibilitySystem:
    """Base interface: a downward-closed family of item sets."""

    def universe(self) -> frozenset[str]:
        raise NotImplementedError

    def is_member(self, items: Iterable[str],
                  budget: int | SearchBudget | None = None) -> bool:
        """True when `items` is an allowed selection.

        Ids outside the system's universe make the answer False rather than
        an error, so systems defined over sub-universes compose.
        """
        raise NotImplementedError

    def schedule_witness(self, items: Iterable[str],
                         budget: int | SearchBudget | None = None
                         ) -> Optional[ScheduleWitness]:
        """A concrete schedule for `items`, or None.

        None means either the set is not a member or the system has no
        schedule semantics (explicit families).
        """
        return None

    def job_deadlines(self) -> Optional[dict[str, Fraction]]:
        """Deadline per item for scheduling systems, None otherwise."""
        return None


@dataclass(frozen=True)
class ExplicitSystem(FeasibilitySystem):
    """A family given by its maximal sets; membership is a subset test.

    The representation is expected to be an antichain (no maximal set
    contains another) but this is checked by `validate_downward_closed`,
    not enforced at construction.
    """

    maximal_sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        sets = tuple(sorted({frozenset(str(i) for i in s) for s in self.maximal_sets},
                            key=lambda s: tuple(sorted(s))))
        if not sets:
            sets = (frozenset(),)
        object.__setattr__(self, "maximal_sets", sets)

    @cached_property
    def _union(self) -> frozenset[str]:
        # Computed once per object; not a field, so eq and hash ignore it.
        return frozenset().union(*self.maximal_sets)

    def universe(self) -> frozenset[str]:
        return self._union

    def is_member(self, items, budget=None) -> bool:
        target = frozenset(items)
        return any(target <= maximal for maximal in self.maximal_sets)


class _JobTable:
    """Id lookup and integer view shared by the single and identical
    machine systems, whose jobs carry one window each."""

    jobs: tuple[tuple[str, JobWindow], ...]

    @cached_property
    def position(self) -> dict[str, int]:
        """Index of each job id in the id-sorted `jobs`."""
        return {item: k for k, (item, _) in enumerate(self.jobs)}

    @cached_property
    def integer_view(self) -> Optional[IntegerJobs]:
        """The jobs on an integer clock when every release is 0, else None."""
        windows = [w for _, w in self.jobs]
        if any(w.release != 0 for w in windows):
            return None
        return IntegerJobs(windows)

    def window(self, item: str) -> Optional[JobWindow]:
        k = self.position.get(item)
        return None if k is None else self.jobs[k][1]

    def universe(self) -> frozenset[str]:
        return frozenset(self.position)

    def job_deadlines(self) -> dict[str, Fraction]:
        return {i: w.deadline for i, w in self.jobs}


@dataclass(frozen=True)
class SingleMachineSystem(_JobTable, FeasibilitySystem):
    """Jobs allowed together exactly when one machine can schedule them all."""

    jobs: tuple[tuple[str, JobWindow], ...]

    def __post_init__(self):
        object.__setattr__(self, "jobs", _normalize_job_map(self.jobs))

    def is_member(self, items, budget=None) -> bool:
        if self.integer_view is None:
            return self.schedule_witness(items, budget) is not None
        positions = {self.position.get(i) for i in items}
        return None not in positions and self.integer_view.fits(
            positions, SearchBudget.ensure(budget))

    def schedule_witness(self, items, budget=None) -> Optional[ScheduleWitness]:
        target = frozenset(items)
        if not target <= self.universe():
            return None
        schedule = _schedule_one_machine(
            [(i, self.window(i)) for i in sorted(target)],
            SearchBudget.ensure(budget))
        if schedule is None:
            return None
        return ScheduleWitness(machines=(tuple(schedule),))


@dataclass(frozen=True)
class IdenticalMachinesSystem(_JobTable, FeasibilitySystem):
    """Jobs allowed when they split across `copies` identical machines.

    This is the family of `copies` shared copies of one machine, so
    membership and witnesses are that shared system's.
    """

    copies: int
    jobs: tuple[tuple[str, JobWindow], ...]

    def __post_init__(self):
        if int(self.copies) < 1:
            raise InputError("machine copies must be >= 1")
        object.__setattr__(self, "copies", int(self.copies))
        object.__setattr__(self, "jobs", _normalize_job_map(self.jobs))

    @cached_property
    def _as_shared(self) -> SharedSymmetricSystem:
        return SharedSymmetricSystem(SingleMachineSystem(self.jobs), self.copies)

    def is_member(self, items, budget=None) -> bool:
        return self._as_shared.is_member(items, budget)

    def schedule_witness(self, items, budget=None) -> Optional[ScheduleWitness]:
        return self._as_shared.schedule_witness(items, budget)


@dataclass(frozen=True)
class UnrelatedMachinesSystem(FeasibilitySystem):
    """Named machines with per-machine processing times.

    `processing[(machine, item)]` may be missing, meaning the item cannot
    run on that machine at all.
    """

    machines: tuple[str, ...]
    processing: tuple[tuple[tuple[str, str], Fraction], ...]
    jobs: tuple[tuple[str, TimeWindow], ...]

    def __post_init__(self):
        machines = tuple(str(m) for m in self.machines)
        if len(set(machines)) != len(machines) or not machines:
            raise InputError("machine names must be nonempty and unique")
        object.__setattr__(self, "machines", machines)

        if isinstance(self.processing, dict):
            pairs = self.processing.items()
        else:
            pairs = self.processing
        norm = []
        for key, value in pairs:
            machine, item = key
            norm.append(((str(machine), str(item)),
                         _fraction(value, name="processing",
                                   minimum=Fraction(0), strict=True)))
        norm.sort(key=lambda p: p[0])
        object.__setattr__(self, "processing", tuple(norm))

        object.__setattr__(self, "jobs", _normalize_job_map(self.jobs, TimeWindow))

        known = self.universe()
        for (machine, item), _ in self.processing:
            if machine not in machines:
                raise InputError(f"processing entry for unknown machine {machine!r}")
            if item not in known:
                raise InputError(f"processing entry for unknown job {item!r}")

    @cached_property
    def _single_machines(self) -> tuple[SingleMachineSystem, ...]:
        """Each machine alone, with the jobs that can run on it."""
        times = dict(self.jobs)
        return tuple(
            SingleMachineSystem({item: JobWindow(times[item].release, duration,
                                                 times[item].deadline)
                                 for (m, item), duration in self.processing
                                 if m == machine})
            for machine in self.machines)

    def universe(self) -> frozenset[str]:
        return frozenset(item for item, _ in self.jobs)

    def _split(self, target: frozenset[str], budget: SearchBudget
               ) -> Optional[list[list[str]]]:
        machines = self._single_machines
        return _partition(sorted(target), len(machines),
                          lambda p, part: machines[p].is_member(part, budget),
                          budget, interchangeable=False)

    def is_member(self, items, budget=None) -> bool:
        target = frozenset(items)
        return target <= self.universe() and self._split(
            target, SearchBudget.ensure(budget)) is not None

    def schedule_witness(self, items, budget=None) -> Optional[ScheduleWitness]:
        target = frozenset(items)
        if not target <= self.universe():
            return None
        shared = SearchBudget.ensure(budget)
        parts = self._split(target, shared)
        if parts is None:
            return None
        return ScheduleWitness(machines=tuple(
            machine.schedule_witness(part, shared).machines[0]
            for machine, part in zip(self._single_machines, parts)))

    def job_deadlines(self) -> dict[str, Fraction]:
        return {i: w.deadline for i, w in self.jobs}


@dataclass(frozen=True)
class SharedSymmetricSystem(FeasibilitySystem):
    """A player holding `copies` instances of one shared base system.

    A set is allowed when it splits into at most `copies` disjoint members
    of the base family (one per machine copy, in scheduling terms).
    """

    base: FeasibilitySystem
    copies: int

    def __post_init__(self):
        if int(self.copies) < 1:
            raise InputError("copies must be >= 1")
        object.__setattr__(self, "copies", int(self.copies))
        if isinstance(self.base, SharedSymmetricSystem):
            raise InputError("shared symmetric systems cannot nest")

    def universe(self) -> frozenset[str]:
        return self.base.universe()

    def _split(self, target: frozenset[str], budget: SearchBudget
               ) -> Optional[list[list[str]]]:
        return _partition(sorted(target), self.copies,
                          lambda _, part: self.base.is_member(part, budget),
                          budget, interchangeable=True)

    def is_member(self, items, budget=None) -> bool:
        target = frozenset(items)
        if not target <= self.universe():
            return False
        if self.copies == 1:
            return self.base.is_member(target, budget)
        return self._split(target, SearchBudget.ensure(budget)) is not None

    def schedule_witness(self, items, budget=None) -> Optional[ScheduleWitness]:
        target = frozenset(items)
        if not target <= self.universe():
            return None
        shared = SearchBudget.ensure(budget)
        if self.copies == 1:
            return self.base.schedule_witness(target, shared)
        parts = self._split(target, shared)
        if parts is None:
            return None
        machines = []
        for part in parts:
            part_witness = self.base.schedule_witness(part, shared)
            if part_witness is None:
                return None  # base has no schedule semantics
            machines.extend(part_witness.machines)
        while len(machines) < self.copies:
            machines.append(())
        return ScheduleWitness(machines=tuple(machines))

    def job_deadlines(self) -> Optional[dict[str, Fraction]]:
        return self.base.job_deadlines()


def antichain_violation(maximal_sets: Iterable[frozenset[str]]
                        ) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """A pair (smaller, larger) with smaller <= larger, or None."""
    sets = sorted({frozenset(s) for s in maximal_sets}, key=len)
    for i, small in enumerate(sets):
        for large in sets[i + 1:]:
            if small <= large and small != large:
                return (small, large)
    return None


def _random_feasible_set(system: FeasibilitySystem, rng: random.Random,
                         budget: SearchBudget) -> set[str]:
    chosen: set[str] = set()
    pool = sorted(system.universe())
    rng.shuffle(pool)
    for item in pool:
        if rng.random() < 0.4:
            continue
        if system.is_member(chosen | {item}, budget):
            chosen.add(item)
    return chosen


def validate_downward_closed(system: FeasibilitySystem, samples: int = 100,
                             seed: int = 0,
                             budget: int | SearchBudget | None = None) -> bool:
    """Check the downward-closure contract of a system.

    Explicit families (also as the base of a shared symmetric system) get
    an exact antichain check of their representation.  Scheduling oracles
    get a randomized spot check: draw feasible sets and strip elements one
    by one, asserting membership persists all the way down to the empty
    set.
    """
    shared = SearchBudget.ensure(budget)
    target = system.base if isinstance(system, SharedSymmetricSystem) else system
    if isinstance(target, ExplicitSystem):
        return antichain_violation(target.maximal_sets) is None

    rng = random.Random(seed)
    for _ in range(samples):
        current = _random_feasible_set(system, rng, shared)
        while current:
            current.remove(rng.choice(sorted(current)))
            if not system.is_member(current, shared):
                return False
    return True


def feasible_subsets(system: FeasibilitySystem, pool: Iterable[str],
                     budget: int | SearchBudget | None = None
                     ) -> tuple[frozenset[str], ...]:
    """All members of the system contained in `pool`, in lexicographic order.

    The enumeration extends only feasible sets, which is exhaustive
    because the family is downward closed.
    """
    shared = SearchBudget.ensure(budget)
    ids = sorted(frozenset(pool) & system.universe())
    return tuple(sets[0] for sets, _ in walk(
        ids, [0] * len(ids), [system.is_member], shared))


def _uniform_machine(system: FeasibilitySystem) -> Optional[_JobTable]:
    """The jobs of a zero-release, equal-processing machine system, or None.

    For these, any maximal feasible subset of a pool is also maximum (jobs
    match to fixed time slots, a transversal structure), so a greedy scan
    already yields the maximum cardinality.
    """
    if isinstance(system, SharedSymmetricSystem):
        system = system.base
    if (isinstance(system, _JobTable) and system.integer_view is not None
            and system.integer_view.uniform):
        return system
    return None


def _greedy_scan_zero_release(jobs: IntegerJobs, positions: Iterable[int],
                              budget: SearchBudget) -> list[int]:
    """The jobs of `positions`, in that order, that a greedy scan keeps.

    A job is kept when the kept set stays feasible with it.  Everything
    here is an integer of the view: kept jobs stay in (deadline,
    position) order with their finish times and, at each place, the
    smallest slack (deadline minus finish) from there on.  A candidate
    inserted at a place pushes every later job back by its processing
    time, so it fits exactly when it meets its own deadline and that push
    is at most the smallest later slack.  One budget node per candidate;
    the caller turns the kept positions back into item ids.
    """
    deadline, processing = jobs.deadline, jobs.processing
    keys: list[tuple[int, int]] = []
    finish: list[int] = []
    slack: list[int] = []
    kept: list[int] = []
    for k in positions:
        budget.spend()
        key = (deadline[k], k)
        at = bisect_left(keys, key)
        length = processing[k]
        if (finish[at - 1] if at else 0) + length > key[0]:
            continue
        if at < len(keys) and length > slack[at]:
            continue
        keys.insert(at, key)
        finish = list(accumulate(processing[j] for _, j in keys))
        gaps = [d - f for (d, _), f in zip(keys, finish)]
        slack = list(accumulate(reversed(gaps), min))[::-1]
        kept.append(k)
    return kept


def max_cardinality_feasible(system: FeasibilitySystem, available: Iterable[str],
                             prefer_largest_deadline: bool = False,
                             budget: int | SearchBudget | None = None
                             ) -> tuple[str, ...]:
    """A maximum-cardinality feasible subset of `available`, in scan order.

    The scan order is decreasing deadline (ties by item id) when
    `prefer_largest_deadline` is set, plain item-id order otherwise.  Among
    all maximum-cardinality subsets, the returned one is the set picked by
    a greedy scan that keeps an item whenever the maximum remains
    reachable with it: the lexicographically first in scan order.  That is
    the first maximum of the kernel's one-member pre-order over the
    scan-ordered pool, which one `best` search returns.  Only uniform
    zero-release machines skip that search: there the set a plain greedy
    scan keeps, one node per candidate, is maximum, and no feasible set
    comes before it in scan order.
    """
    shared = SearchBudget.ensure(budget)
    machine = _uniform_machine(system)
    if machine is not None and _machine_count(system) == 1:
        view, position = machine.integer_view, machine.position
        order = sorted({position[i] for i in available if i in position})
        if prefer_largest_deadline:
            # A stable sort keeps equal deadlines in id order.
            order.sort(key=view.deadline.__getitem__, reverse=True)
        return tuple(machine.jobs[k][0]
                     for k in _greedy_scan_zero_release(view, order, shared))
    pool = sorted(frozenset(available) & system.universe())
    if prefer_largest_deadline:
        deadlines = system.job_deadlines()
        if deadlines is None:
            raise InputError(
                "largest-deadline scan requires a scheduling system")
        pool.sort(key=lambda i: (-deadlines[i], i))
    if machine is not None:
        greedy: list[str] = []
        for item in pool:
            shared.spend()
            if system.is_member(frozenset(greedy) | {item}, shared):
                greedy.append(item)
        return tuple(greedy)
    (chosen,), _ = best(pool, [1] * len(pool), [system.is_member], shared)
    return tuple(item for item in pool if item in chosen)


def _machine_count(system: FeasibilitySystem) -> int:
    """Machines a schedule witness for `system` may use."""
    if isinstance(system, SharedSymmetricSystem):
        return system.copies * _machine_count(system.base)
    if isinstance(system, UnrelatedMachinesSystem):
        return len(system.machines)
    if isinstance(system, IdenticalMachinesSystem):
        return system.copies
    return 1


def _window_for(system: FeasibilitySystem, machine: int, item: str
                ) -> Optional[JobWindow]:
    """The window of `item` on witness machine `machine`, or None."""
    if isinstance(system, SharedSymmetricSystem):
        # Each copy of the base lists all of the base's machines in turn.
        return _window_for(system.base, machine % _machine_count(system.base), item)
    if isinstance(system, UnrelatedMachinesSystem):
        system = system._single_machines[machine]
    if isinstance(system, _JobTable):
        return system.window(item)
    return None


def validate_witness(system: FeasibilitySystem, items: Iterable[str],
                     witness: ScheduleWitness) -> bool:
    """Re-check a schedule witness against the system's raw parameters."""
    if witness.scheduled_items() != frozenset(items):
        return False
    if isinstance(system, SingleMachineSystem) and len(witness.machines) != 1:
        return False
    if len(witness.machines) > _machine_count(system):
        return False

    for machine, sequence in enumerate(witness.machines):
        clock = None
        for item, start in sequence:
            window = _window_for(system, machine, item)
            if window is None:
                return False
            if start < window.release:
                return False
            end = start + window.processing
            if end > window.deadline:
                return False
            if clock is not None and start < clock:
                return False
            clock = end
    return True
