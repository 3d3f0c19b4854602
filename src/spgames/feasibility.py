"""Downward-closed strategy spaces over an item ground set.

A feasibility system answers one question: is a given set of items an
allowed selection for a player?  Two representations are supported:

* explicit families, reduced at construction to their maximal sets, so
  no stored set lies inside another, where membership is a subset test,
  and
* machine-scheduling oracles, where a set of jobs is allowed exactly when
  it can be scheduled inside the jobs' time windows on the player's
  machine(s).

Both representations are downward closed by construction: removing items
from an allowed set keeps it allowed.  `validate_downward_closed` decides
the property exactly, for user-defined systems.

Every machine system caches one integer view of its jobs
(`IntegerJobs`): every release date, processing time and deadline
scaled once by the lcm of their denominators, addressed by the job's
position in the id-sorted `jobs`.  It is the only single-machine
scheduler, and it touches no `Fraction`.  A set without release dates is
decided by the earliest-deadline-first prefix check (Jackson 1955); a
release date in the set only switches that check to an exact dynamic
program over its subsets, under the budget.  A job table decides masks
from the same view (`_JobTable._ranked_test`): the ids of a mask's bits
are ranked once, so a search spells no set to test it.

Every system fits a set by one private `_fit(target, budget)`: each
machine's run order as job positions in that machine's table (the
system's `_table(machine)`), or None when the set is not a member.
Membership asks whether a fit exists, and pays for no start time.
`FeasibilitySystem.schedule_witness` reads the same fit and is the one
place start times are computed: it runs each order as early as it
allows, from the windows `validate_witness` checks.  So the schedule
that decided membership is the witness: no part is scheduled twice, and
a witness spends exactly the nodes membership spends.  A witness lists
the system's `_machine_count` machines, idle ones empty; shared copies
list theirs copy by copy, each copy all of its base's machines in turn.  A
system without deadlines (an explicit family) fits a member on no
machine and has no witness.

A player with several machines splits a set across them by one walk of
the search kernel, `_first_split`: one member per machine, each decided
by that machine's `_fit`, the items in id order with unit weights, and a
prune that drops every node that left an item out.  The split is the
first node that holds every item, and its fit is the fits the walk's own
tests found for the final parts.  Every attempt to put an item into a
machine's set spends one budget node, on top of what that test spends;
with several machines the kernel asks each machine's test once per set,
so a set met again spends only its one node.  A split over one member
is that member's own fit, with no walk: the walk would only grow the
set's id-prefixes to the set.  Members that are one object repeated,
the copies of a `SharedSymmetricSystem`, are walked as interchangeable,
so an item may only open the first empty copy; the machines of an
`UnrelatedMachinesSystem` are distinct objects.
`IdenticalMachinesSystem` is the shared system of `copies` single
machines and answers through it; its id lookup and integer view are
that one machine's.

Membership of c shared copies, for every c, takes one of three routes,
each worked out once and kept: the covers with the shared system, the
slot counts with the base's job table.  Both read the base's data, so
they are taken only where that data describes the family
(`_data_describes`):

* covers: over an explicit base with m maximal sets, a set splits into
  at most c disjoint members exactly when it lies inside the union of
  at most min(c, m) maximal sets (give each item to the first that holds
  it).  The system caches those unions once, and membership is one
  subset test per union, with no budget node.  There are up to
  C(m, min(c, m)) maximal ones, so a base whose build would form more
  than `_COVER_UNIONS` unions takes the split walk instead.  One copy's
  covers are the base itself;
* slot counts (`_slots`): on zero-release jobs with one processing
  time, the slot condition below decides the set on all its machines,
  one node per job up to the first that breaks it, and its fit deals the
  jobs in deadline order round-robin over the machines, which the
  condition guarantees.
  On one machine that is earliest deadline first: the same nodes and
  the same order;
* the split walk, for every other base: over one copy, the empty set or
  a one-item set, it is one member, the base's own fit.

Subset enumeration runs on the search kernel (`search.py`), whose
one-member pre-order lists a system's sets in lexicographic order.  The
maximum-cardinality scan has two routes.  On zero-release machines
with one processing time p (on the integer clock), job k has
c_k = deadline_k // p slots per machine, and a set fits on m machines
exactly when, at every level t, at most m * t of its jobs have
c_k <= t.  So the scan keeps what a greedy pass over slot counts keeps,
with no membership test, and charges one node per candidate, all in one
spend before it scans.  In id order a job is kept when every level at or
above its slot count still has a free slot.  By largest deadline,
`_deadline_scan` walks a table's deadline classes (`deadline_classes`,
built on the first scan) as masks, latest first, under one running cap
on the free slots, until no slot is left.  Every largest-deadline scan,
of a pool or of the items left in sequential deadline play, is one
`_mask_scan` on masks, so a player's work follows the classes it looks
at and the jobs it keeps.  Every other system takes the kernel's first
maximum over the scan-ordered pool.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .budget import SearchBudget
from .errors import InputError, _fraction, _integer
from .search import Test, best, integral, spell, walk

# Most unions `SharedSymmetricSystem._covers` forms before it leaves an
# explicit base to the split walk, so also most covers a test scans.
_COVER_UNIONS = 4096


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
    """The schedule that decided membership of a job set.

    One entry per machine of the system, its `_machine_count`, idle
    ones empty: an ordered sequence of (item id, start time) pairs, each
    job started as early as its release and the job before it allow.
    The machines of shared copies come copy by copy, each copy listing
    all of its base's machines in turn.
    """

    machines: tuple[tuple[tuple[str, Fraction], ...], ...]

    def scheduled_items(self) -> frozenset[str]:
        return frozenset(item for seq in self.machines for item, _ in seq)


def _collection(value, name: str) -> Iterator:
    """An iterator over `value`; a value that cannot be iterated is an
    input error naming it."""
    try:
        return iter(value)
    except TypeError:
        raise InputError(f"{name} must be a collection, got {value!r}") from None


def _pairs(entries, name: str) -> Iterator[tuple[object, object]]:
    """The (key, value) pairs of a mapping, or of a collection of pairs;
    an entry that is not a pair is an input error naming it."""
    for entry in _collection(entries.items() if isinstance(entries, dict)
                             else entries, name):
        try:
            key, value = entry
        except (TypeError, ValueError):
            raise InputError(f"{name} entry {entry!r} is not a pair") from None
        yield key, value


def _normalize_job_map(jobs, window_type=JobWindow
                       ) -> tuple[tuple[str, JobWindow | TimeWindow], ...]:
    out = []
    for item_id, window in _pairs(jobs, "jobs"):
        if not isinstance(window, window_type):
            try:
                window = (window_type(**window) if isinstance(window, dict)
                          else window_type(*window))
            except TypeError:
                raise InputError(f"job {item_id!r} needs a window of ("
                                 + ", ".join(window_type.__match_args__)
                                 + f"), got {window!r}") from None
        out.append((str(item_id), window))
    out.sort(key=lambda p: p[0])
    ids = [p[0] for p in out]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate job ids in feasibility descriptor")
    return tuple(out)


class IntegerJobs:
    """The jobs of one machine kind on an integer clock.

    Release dates, processing times and deadlines are scaled once by the
    lcm of their denominators, which keeps every comparison exact.  Jobs
    are addressed by their position in the owner's id-sorted `jobs`, so
    sorting positions sorts ids.  The view decides sets and orders them;
    it computes no start time.
    """

    __slots__ = ("release", "processing", "deadline", "released", "length")

    def __init__(self, windows: Sequence[JobWindow]):
        # Each window object is scaled once: jobs often share one, and
        # telling equal windows apart by value would hash their fractions.
        distinct = list({id(w): w for w in windows}.values())
        scaled, _ = integral([w.release for w in distinct]
                             + [w.processing for w in distinct]
                             + [w.deadline for w in distinct])
        count = len(distinct)
        index = {id(w): j for j, w in enumerate(distinct)}
        at = [index[id(w)] for w in windows]
        self.release = tuple(scaled[j] for j in at)
        self.processing = tuple(scaled[count + j] for j in at)
        self.deadline = tuple(scaled[2 * count + j] for j in at)
        # Positions of the jobs with a release date.
        self.released = frozenset(k for k, r in enumerate(self.release) if r)
        lengths = set(self.processing)
        # The one processing time of every job, or None; None too when
        # a job has a release date, which slot counts do not model.
        self.length = (lengths.pop() if len(lengths) == 1
                       and not self.released else None)

    def schedule(self, positions: Iterable[int], budget: SearchBudget
                 ) -> Optional[list[int]]:
        """The positions of `positions` in a run order that meets every
        deadline, or None.

        Without release dates, earliest deadline first, ties by id, is
        optimal, so checking each prefix load decides the set: one budget
        node per job checked.  With one in the set, a dynamic program over
        the subsets keeps the least completion time of each, which is
        exact because starting earlier never hurts; ties go to the job of
        least id last.  It runs in blocks, one per job in id order: block
        k holds the subsets whose greatest job is the k-th, pays its one
        node per subset in one spend before it runs, and ends at the set
        of the first k jobs.  When that set has no schedule, no superset
        has one, so the program stops there.  The order is the deadline-sorted list, or
        the program's choices backtracked from the whole set, reversed.
        """
        jobs = sorted(positions)
        if self.released.isdisjoint(jobs):
            order, clock = sorted(jobs, key=self.deadline.__getitem__), 0
            for k in order:
                budget.spend()
                clock += self.processing[k]
                if clock > self.deadline[k]:
                    return None
            return order

        finish: list[Optional[int]] = [0]
        last = [0]
        for size in range(1, len(jobs) + 1):
            budget.spend(1 << size - 1)
            prefix = tuple(enumerate(jobs[:size]))
            for mask in range(1 << size - 1, 1 << size):
                best = choice = None
                for j, k in prefix:
                    if not mask >> j & 1:
                        continue
                    prev = finish[mask ^ (1 << j)]
                    if prev is None:
                        continue
                    end = max(prev, self.release[k]) + self.processing[k]
                    if end <= self.deadline[k] and (best is None
                                                    or end < best):
                        best, choice = end, j
                finish.append(best)
                last.append(choice)
            if finish[-1] is None:
                return None
        order, mask = [], len(finish) - 1
        while mask:
            order.append(jobs[last[mask]])
            mask ^= 1 << last[mask]
        order.reverse()
        return order


# Each machine's run order of a set: positions in that machine's job
# table (the system's `_table(machine)`), first job first.
Fit = tuple[Sequence[int], ...]


def _padded(fit: Fit, width: int) -> Fit:
    """`fit` with idle machines appended up to `width` machines."""
    return fit + ((),) * (width - len(fit))


def _first_split(target: frozenset[str],
                 members: Sequence[FeasibilitySystem],
                 budget: SearchBudget) -> Optional[Fit]:
    """`target` split into one part per member, each fitted by its
    member's `_fit`, or None.

    The split is the first node of the kernel's pre-order, over the items
    in id order with unit weights, that holds every item.  A node that
    left an item out is pruned: no node below it holds that item.  When
    the members are one system object repeated they are walked as
    interchangeable.  The result is the fits the walk's tests found for
    the final parts, member by member, each padded with idle machines to
    its member's `_machine_count`.  A split over one member is that
    member's own fit, padded: the walk would only grow the id-prefixes
    of `target`, each a member when `target` is one, and spend a node on
    each.
    """
    if len(members) == 1:
        fit = members[0]._fit(target, budget)
        return None if fit is None else _padded(fit, members[0]._machine_count)
    ids = sorted(target)
    fits = [member._fit for member in members]
    found: list[dict[int, Optional[Fit]]] = [{} for _ in fits]

    def test(member: int) -> Test:
        def fitted(part: int, budget: SearchBudget) -> bool:
            fit = found[member][part] = fits[member](spell(part, ids), budget)
            return fit is not None
        return fitted

    bits = [1 << j for j in range(len(ids))]
    for sets, value in walk(bits, [1] * len(ids),
                            [test(member) for member in range(len(fits))],
                            budget, prune=lambda sets, value, item: value < item,
                            interchangeable=all(member is members[0]
                                                for member in members)):
        if value == len(ids):
            return tuple(machine for member, part in enumerate(sets)
                         for machine in _padded(found[member].get(part, ()),
                                                members[member]._machine_count))
    return None


class FeasibilitySystem:
    """Base interface: a downward-closed family of item sets.

    Subclasses must be downward closed: every search extends members one
    item at a time, and is exhaustive only because of it.  The built-in
    systems are closed by construction; `validate_downward_closed` checks
    a user-defined one exactly, over every subset of its universe.

    Each system computes its item ids once, as the cached property
    `_ids`: not a field, so eq, hash and repr ignore it.
    """

    def universe(self) -> frozenset[str]:
        """The item ids the system is defined over."""
        return self._ids

    def is_member(self, items: Iterable[str],
                  budget: int | SearchBudget | None = None) -> bool:
        """True when `items` is an allowed selection.

        Ids outside the system's universe make the answer False rather than
        an error, so systems defined over sub-universes compose.
        """
        raise NotImplementedError

    def _fit(self, target: frozenset[str], budget: SearchBudget
             ) -> Optional[Fit]:
        """Each machine's run order of `target`, or None when it is not a
        member.  A system without schedules fits a member on no machine.
        """
        return () if self.is_member(target, budget) else None

    def _mask_test(self, ids: Sequence[str]) -> Test:
        """Membership of masks over `ids`, bit j standing for `ids[j]`: the
        one hook by which every search decides masks.  By default it spells
        each mask into the frozenset `is_member` decides.  Every built-in
        system decides masks itself, and spells nothing, where its data
        describes it (`_data_describes`): explicit families and covers by
        their maximal sets, job tables by their integer view; a subclass
        that redefines `is_member` is asked through it, and so is a split
        over two or more members.  Either way the test spends what
        `is_member` spends."""
        return lambda mask, budget: self.is_member(spell(mask, ids), budget)

    def schedule_witness(self, items: Iterable[str],
                         budget: int | SearchBudget | None = None
                         ) -> Optional[ScheduleWitness]:
        """The schedule that decides `items` a member, or None.

        None means either the set is not a member or the system has no
        deadlines (explicit families).  The witness is the system's fit,
        padded with idle machines to `_machine_count`, each job started at
        the later of its release and the end of the job before it.
        """
        target = frozenset(items)
        if self.job_deadlines() is None or not target <= self.universe():
            return None
        fit = self._fit(target, SearchBudget.ensure(budget))
        if fit is None:
            return None
        machines = []
        for machine, order in enumerate(_padded(fit, self._machine_count)):
            table, run, end = self._table(machine), [], Fraction(0)
            for k in order:
                item, window = table.jobs[k]
                start = max(end, window.release)
                end = start + window.processing
                run.append((item, start))
            machines.append(tuple(run))
        return ScheduleWitness(tuple(machines))

    def job_deadlines(self) -> Optional[dict[str, Fraction]]:
        """Deadline per item for scheduling systems, None otherwise."""
        return None

    # The machines a schedule witness may use.
    _machine_count = 1

    def _table(self, machine: int) -> Optional[_JobTable]:
        """The job table of witness machine `machine`, or None for a system
        without schedules."""
        return None

    # The job table and machine count of a system that slot counts
    # decide, else None.
    _slots: Optional[tuple[_JobTable, int]] = None

    def _swap_key(self, item: str) -> object:
        """A value that two items share whenever exchanging them maps the
        family onto itself (`_swaps`), so only items of one key need be
        compared.  A user-defined system keys each item by itself, and so
        forgoes the searches' walk over item orbits (`model._Memo`); so
        does a subclass of a built-in system that redefines its
        membership (`_data_describes`).
        """
        return item

    def _swaps(self, a: str, b: str) -> bool:
        """Whether exchanging items a and b maps the family onto itself,
        decided exactly: by equal keys, unless a system overrides it."""
        return self._swap_key(a) == self._swap_key(b)


@dataclass(frozen=True)
class ExplicitSystem(FeasibilitySystem):
    """The family of every subset of the given sets; membership is a subset
    test.

    Construction reduces the given sets to their maximal members, sorted
    by their sorted items, so two spellings of one family store, compare
    and write alike; with no set given, the family holds the empty set
    alone.
    """

    maximal_sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        distinct = {frozenset(map(str, _collection(given, "maximal set")))
                    for given in _collection(self.maximal_sets, "maximal_sets")}
        kept: list[frozenset[str]] = []
        # Largest first: a set is dominated exactly when a kept one holds it.
        for s in sorted(distinct, key=len, reverse=True):
            if not any(s <= maximal for maximal in kept):
                kept.append(s)
        object.__setattr__(self, "maximal_sets", tuple(
            sorted(kept, key=lambda s: tuple(sorted(s)))) or (frozenset(),))

    @cached_property
    def _ids(self) -> frozenset[str]:
        return frozenset().union(*self.maximal_sets)

    def is_member(self, items, budget=None) -> bool:
        target = frozenset(items)
        return any(target <= maximal for maximal in self.maximal_sets)

    def _mask_test(self, ids) -> Test:
        """A mask is a member when it misses the items outside some
        maximal set; each maximal set's outside is a mask over `ids`, so
        an item not in `ids` is outside none and one not in the universe
        is outside all.  No budget node, as `is_member` spends none."""
        if not _data_describes(self):
            return super()._mask_test(ids)
        bit = {item: 1 << j for j, item in enumerate(ids)}
        everything = (1 << len(ids)) - 1
        outsides = [everything & ~sum(bit.get(item, 0) for item in maximal)
                    for maximal in self.maximal_sets]

        def test(mask: int, budget: SearchBudget) -> bool:
            for outside in outsides:
                if not mask & outside:
                    return True
            return False

        return test

    @cached_property
    def _holders(self) -> Counter:
        """How many maximal sets hold each item."""
        return Counter(chain.from_iterable(self.maximal_sets))

    @cached_property
    def _maximal(self) -> frozenset[frozenset[str]]:
        return frozenset(self.maximal_sets)

    def _swap_key(self, item) -> int:
        return self._holders[item]

    def _swaps(self, a, b) -> bool:
        # The swap moves only the maximal sets that hold one of the two,
        # each to a set that must be maximal too.
        pair = {a, b}
        return all(s ^ pair in self._maximal for s in self.maximal_sets
                   if len(s & pair) == 1)


class _JobTable:
    """Id lookup and integer view shared by the single and identical
    machine systems, whose jobs carry one window each."""

    jobs: tuple[tuple[str, JobWindow], ...]

    @cached_property
    def position(self) -> dict[str, int]:
        """Index of each job id in the id-sorted `jobs`."""
        return {item: k for k, (item, _) in enumerate(self.jobs)}

    @cached_property
    def integer_view(self) -> IntegerJobs:
        """The jobs on an integer clock."""
        return IntegerJobs([w for _, w in self.jobs])

    @cached_property
    def deadline_classes(self) -> tuple[tuple[int, int], ...]:
        """For zero-release jobs of one length: the classes of jobs with
        one deadline, latest first, each as its slot count and its
        positions as a mask (bit k for position k, so bits in id order).
        Built on the first scan that asks."""
        view = self.integer_view
        by_deadline: dict[int, int] = {}
        for k, deadline in enumerate(view.deadline):
            by_deadline[deadline] = by_deadline.get(deadline, 0) | 1 << k
        return tuple((deadline // view.length, positions)
                     for deadline, positions
                     in sorted(by_deadline.items(), reverse=True))

    def _table(self, machine) -> _JobTable:
        return self

    def _ranked_test(self, ids: Sequence[str], machines: Optional[int] = None
                     ) -> Test:
        """Membership of masks over `ids` on this table: by earliest
        deadline first on one machine, or with `machines` by the slot
        condition of `_fits_slots`, spending the nodes those spend.

        An id outside the table makes a mask False at no node, and a
        released job sends it to `IntegerJobs.schedule`.  Every other job
        is one (bit, step, limit) entry in (deadline, position) order, the
        order both routes check: its processing time and deadline, or one
        slot and the slots at its deadline on all `machines`.  A mask
        spends one node per job it holds, up to the first whose running
        sum of steps passes its limit, charged in one spend, which fails
        where those single spends would.
        """
        view = self.integer_view
        spots = [self.position.get(item) for item in ids]
        outside = sum(1 << j for j, k in enumerate(spots) if k is None)
        released = sum(1 << j for j, k in enumerate(spots) if k in view.released)
        ranked = sorted((view.deadline[k], k, j) for j, k in enumerate(spots)
                        if k is not None and k not in view.released)
        entries = [(1 << j, view.processing[k], deadline) if machines is None
                   else (1 << j, 1, machines * (deadline // view.length))
                   for deadline, k, j in ranked]

        def test(mask: int, budget: SearchBudget) -> bool:
            if mask & outside:
                return False
            if mask & released:
                return view.schedule([spots[j] for j in _positions(mask)],
                                     budget) is not None
            clock = nodes = 0
            for bit, step, limit in entries:
                if mask & bit:
                    nodes += 1
                    clock += step
                    if clock > limit:
                        budget.spend(nodes)
                        return False
                    mask ^= bit
                    if not mask:
                        break
            budget.spend(nodes)
            return True

        return test

    @cached_property
    def _slots(self) -> Optional[tuple[_JobTable, int]]:
        """This table and its machine count when slot counts decide the
        system: its jobs have no release date and one processing time,
        and its data describes its family (`_data_describes`).

        Job k fits into one of the first c_k slots of each machine, so the
        slot condition of the module docstring is Hall's condition on
        nested slot sets.  The feasible sets form a matroid: any maximal
        feasible subset of a pool is also maximum, and a greedy scan
        yields the maximum cardinality.
        """
        if self.integer_view.length is None or not _data_describes(self):
            return None
        return self, self._machine_count

    def window(self, item: str) -> Optional[JobWindow]:
        k = self.position.get(item)
        return None if k is None else self.jobs[k][1]

    @cached_property
    def _ids(self) -> frozenset[str]:
        return frozenset(self.position)

    def job_deadlines(self) -> dict[str, Fraction]:
        return {i: w.deadline for i, w in self.jobs}

    def _swap_key(self, item) -> Optional[JobWindow]:
        return self.window(item)


@dataclass(frozen=True)
class SingleMachineSystem(_JobTable, FeasibilitySystem):
    """Jobs allowed together exactly when one machine can schedule them all."""

    jobs: tuple[tuple[str, JobWindow], ...]

    def __post_init__(self):
        object.__setattr__(self, "jobs", _normalize_job_map(self.jobs))

    def _fit(self, target, budget) -> Optional[Fit]:
        positions = {self.position.get(i) for i in target}
        if None in positions:
            return None
        order = self.integer_view.schedule(positions, budget)
        return None if order is None else (order,)

    def is_member(self, items, budget=None) -> bool:
        return self._fit(items, SearchBudget.ensure(budget)) is not None

    def _mask_test(self, ids) -> Test:
        if not _data_describes(self):
            return super()._mask_test(ids)
        return self._ranked_test(ids)


@dataclass(frozen=True)
class IdenticalMachinesSystem(_JobTable, FeasibilitySystem):
    """Jobs allowed when they split across `copies` identical machines.

    This is the family of `copies` shared copies of one machine, so
    membership and fits are that shared system's, and the system's id
    lookup and integer view are that machine's: fits, scans and witnesses
    read one table.
    """

    copies: int
    jobs: tuple[tuple[str, JobWindow], ...]

    def __post_init__(self):
        _integer(self.copies, name="machine copies", minimum=1)
        object.__setattr__(self, "jobs", _normalize_job_map(self.jobs))

    @cached_property
    def _as_shared(self) -> SharedSymmetricSystem:
        return SharedSymmetricSystem(SingleMachineSystem(self.jobs), self.copies)

    position = property(lambda self: self._as_shared.base.position)
    integer_view = property(lambda self: self._as_shared.base.integer_view)
    _machine_count = property(lambda self: self.copies)

    def is_member(self, items, budget=None) -> bool:
        return self._as_shared.is_member(items, budget)

    def _mask_test(self, ids) -> Test:
        if not _data_describes(self):
            return super()._mask_test(ids)
        return self._as_shared._mask_test(ids)

    def _fit(self, target, budget) -> Optional[Fit]:
        return self._as_shared._fit(target, budget)


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
        machines = tuple(map(str, _collection(self.machines, "machines")))
        if len(set(machines)) != len(machines) or not machines:
            raise InputError("machine names must be nonempty and unique")
        object.__setattr__(self, "machines", machines)

        norm = []
        for key, value in _pairs(self.processing, "processing"):
            if not (isinstance(key, tuple) and len(key) == 2):
                raise InputError(f"processing key {key!r} is not a "
                                 "(machine, job) pair")
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

    _machine_count = property(lambda self: len(self.machines))

    def _table(self, machine) -> SingleMachineSystem:
        return self._single_machines[machine]

    @cached_property
    def _ids(self) -> frozenset[str]:
        return frozenset(item for item, _ in self.jobs)

    @cached_property
    def _rows(self) -> dict[str, tuple]:
        """Each job's window and its processing time on each machine,
        None where it cannot run."""
        times = dict(self.processing)
        return {item: (window, tuple(times.get((machine, item))
                                     for machine in self.machines))
                for item, window in self.jobs}

    def _swap_key(self, item) -> Optional[tuple]:
        return self._rows.get(item)

    def _fit(self, target, budget) -> Optional[Fit]:
        """One run order per machine, in machine order, or None."""
        return _first_split(target, self._single_machines, budget)

    def is_member(self, items, budget=None) -> bool:
        target = frozenset(items)
        return target <= self.universe() and self._fit(
            target, SearchBudget.ensure(budget)) is not None

    def _mask_test(self, ids) -> Test:
        """One machine's own test, whose table holds every job that can
        run; `is_member` asked over two or more machines."""
        if len(self.machines) > 1 or not _data_describes(self):
            return super()._mask_test(ids)
        return self._single_machines[0]._mask_test(ids)

    def job_deadlines(self) -> dict[str, Fraction]:
        return {i: w.deadline for i, w in self.jobs}


@dataclass(frozen=True)
class SharedSymmetricSystem(FeasibilitySystem):
    """A player holding `copies` instances of one shared base system.

    A set is allowed when it splits into at most `copies` disjoint members
    of the base family (one per machine copy, in scheduling terms).  At
    every copy count, membership is a fit (`_fit`) by the module
    docstring's routes: slot counts of a uniform zero-release table (the
    table's `_slots`), covers of an explicit base (`_covers`), else the
    split walk.  One copy is no special case: its slot counts are
    earliest deadline first on one machine, its covers are the base
    itself, and its split is one member, the base's own fit.  The
    covers cost time in proportion to their number, which grows like
    C(m, min(copies, m)) for m base sets; a base past `_COVER_UNIONS`
    unions, such as all 120 pairs of 16 items at 4 copies, splits.
    """

    base: FeasibilitySystem
    copies: int

    def __post_init__(self):
        _integer(self.copies, name="copies", minimum=1)
        if not isinstance(self.base, FeasibilitySystem):
            raise InputError("a shared base must be a feasibility system, "
                             f"got {self.base!r}")
        if isinstance(self.base, SharedSymmetricSystem):
            raise InputError("shared symmetric systems cannot nest")

    @cached_property
    def _ids(self) -> frozenset[str]:
        return self.base.universe()

    _machine_count = property(
        lambda self: self.copies * self.base._machine_count)

    def _table(self, machine) -> Optional[_JobTable]:
        # Each copy of the base lists all of the base's machines in turn.
        return self.base._table(machine % self.base._machine_count)

    @cached_property
    def _slots(self) -> Optional[tuple[_JobTable, int]]:
        """The base's table on `copies` times its machines, where slot
        counts decide the base and this system's data describes it."""
        slots = self.base._slots
        if slots is None or not _data_describes(self):
            return None
        return slots[0], self.copies * slots[1]

    @cached_property
    def _covers(self) -> Optional[ExplicitSystem]:
        """The family of this system when the base is explicit and the
        data of both describe them (`_data_describes`), else None.

        Its sets are the unions of at most min(copies, m) of the base's m
        maximal sets, built one base set at a time: unite each cover so
        far with each base set; the family keeps the maximal ones.  With
        one copy, or one base set, that is the base itself.  The build
        forms at most `_COVER_UNIONS` unions and gives None before it
        would pass that, so membership falls back to the split walk and
        its budget.
        """
        if not (isinstance(self.base, ExplicitSystem) and _data_describes(self)):
            return None
        sets = self.base.maximal_sets
        covers, formed = sets, 0
        for _ in range(min(self.copies, len(sets)) - 1):
            formed += len(covers) * len(sets)
            if formed > _COVER_UNIONS:
                return None
            covers = tuple({c | s for c in covers for s in sets})
        return self.base if covers is sets else ExplicitSystem(maximal_sets=covers)

    def is_member(self, items, budget=None) -> bool:
        target = frozenset(items)
        return target <= self.universe() and self._fit(
            target, SearchBudget.ensure(budget)) is not None

    def _mask_test(self, ids) -> Test:
        """The covers' test; the slot counts on the base's table; over one
        copy the base's test, behind the ids outside the universe, which
        `is_member` rejects before it asks the base; else `is_member`
        asked."""
        if self._covers is not None:
            return self._covers._mask_test(ids)
        if self._slots is not None:
            table, machines = self._slots
            return table._ranked_test(ids, machines)
        if self.copies > 1 or not _data_describes(self):
            return super()._mask_test(ids)
        universe, test = self.universe(), self.base._mask_test(ids)
        outside = sum(1 << j for j, item in enumerate(ids) if item not in universe)
        return lambda mask, budget: not mask & outside and test(mask, budget)

    def _fit(self, target, budget) -> Optional[Fit]:
        """Slot counts for a uniform table, the covers for an explicit
        base, which fit a member on no machine, else the split walk.

        No more copies than items are walked, so a huge `copies` costs
        nothing, and the empty set and a one-item set are one copy's fit.
        """
        # The base's route, guarded by the base: a fit reads only the
        # base's family, as the split walk's would.
        slots = self.base._slots
        if slots is not None:
            table, machines = slots
            return _fits_slots(table, self.copies * machines, target, budget)
        if self._covers is not None:
            return () if self._covers.is_member(target) else None
        return _first_split(target,
                            [self.base] * min(self.copies, len(target) or 1),
                            budget)

    def job_deadlines(self) -> Optional[dict[str, Fraction]]:
        return self.base.job_deadlines()

    def _swap_key(self, item) -> object:
        return self.base._swap_key(item)

    def _swaps(self, a, b) -> bool:
        return self.base._swaps(a, b)


_BUILT_IN = (ExplicitSystem, SingleMachineSystem, IdenticalMachinesSystem,
             UnrelatedMachinesSystem, SharedSymmetricSystem)


def _data_describes(system: FeasibilitySystem) -> bool:
    """Whether `system`'s data describes its family, so that a route may
    read the data instead of calling `is_member`.

    Every such route asks this one guard: the covers of an explicit base
    (`SharedSymmetricSystem._covers`), the slot counts of a uniform table
    (`_slots`), the mask tests of built-in systems (`_mask_test`) and
    the swap tests behind `model._Memo.mates`.  A built-in system's data
    (windows, times, maximal sets) describes its family only where
    membership is the built-in's own, and for shared
    copies where the base's is too: a subclass that redefines
    `is_member`, `_fit`, `universe` or `_ids` may narrow the family.  A
    system derived from no built-in class has no data route, and keys
    each item by itself, which is exact.
    """
    return _own_membership(type(system)) and (
        not isinstance(system, SharedSymmetricSystem)
        or _own_membership(type(system.base)))


@cache
def _own_membership(cls: type) -> bool:
    """Whether `cls` decides membership as the built-in class it derives
    from does (True for a class derived from none)."""
    for built_in in _BUILT_IN:
        if issubclass(cls, built_in):
            return all(getattr(cls, name) is getattr(built_in, name)
                       for name in ("is_member", "_fit", "universe", "_ids"))
    return True


def validate_downward_closed(system: FeasibilitySystem,
                             budget: int | SearchBudget | None = None) -> bool:
    """Whether every subset of each member of `system` is a member.

    Built-in systems are closed by construction; the check exists for
    user-defined `FeasibilitySystem` subclasses.  It visits every subset
    of the sorted universe as a bitmask in increasing order, one budget
    node each, and asks the system's mask test (`_mask_test`) about it, on
    the same budget; a universe too large for the budget raises
    `BudgetExceededError`.  A subset's one-smaller subsets have smaller
    masks, so their verdicts are known: the first member with a
    one-smaller subset that is not a member gives False.  When there is
    none, by induction every subset of a member is a member.
    """
    shared = SearchBudget.ensure(budget)
    ids = sorted(system.universe())
    test = system._mask_test(ids)
    member = bytearray()
    for mask in range(1 << len(ids)):
        shared.spend()
        verdict = test(mask, shared)
        if verdict and not all(member[mask ^ 1 << j] for j in _positions(mask)):
            return False
        member.append(bool(verdict))
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
    return tuple(spell(sets[0], ids) for sets, _ in walk(
        [1 << j for j in range(len(ids))], [0] * len(ids),
        [system._mask_test(ids)], shared))


def _fits_slots(machine: _JobTable, machines: int, target: Iterable[str],
                budget: SearchBudget) -> Optional[Fit]:
    """Each machine's round-robin run order of `target`, or None.

    The slot condition of the module docstring, taken over the jobs in
    deadline order, ties by id: the i-th of them (from 1) must have at
    least i / `machines` slots.  One budget node per job looked at; the
    first job over its level's count ends the scan.  The condition keeps
    job i (from 0) inside its deadline when it runs on machine
    i mod `machines`, starting at length * (i // `machines`).
    """
    view = machine.integer_view
    order = sorted(sorted(map(machine.position.__getitem__, target)),
                   key=view.deadline.__getitem__)
    for count, k in enumerate(order, 1):
        budget.spend()
        if count > machines * (view.deadline[k] // view.length):
            return None
    return tuple(order[first::machines]
                 for first in range(min(machines, len(order))))


def _deadline_scan(classes: Sequence[tuple[int, int]], machines: int,
                   pool: int) -> list[int]:
    """The jobs of `pool` that a largest-deadline scan keeps on `machines`
    machines, one bit each, in scan order.

    `classes` are a table's deadline classes, latest first, each a slot
    count and a mask, and a class's free jobs are the pool's bits in it.
    Every job kept so far has a slot count at least the current class's,
    so the slot condition at every level from that count up leaves `cap`
    free slots: the least of `machines` times each count seen, less the
    jobs kept.  A class keeps min(`cap`, its free jobs) of its lowest
    bits, its lowest ids, and the scan stops once `cap` is below 1.  A
    class with no free jobs is skipped before it lowers `cap`.  The
    callers charge every candidate before the scan, so a stop saves
    time, not nodes.
    """
    kept: list[int] = []
    cap = math.inf
    for slot, mask in classes:
        free = pool & mask
        if not free:
            continue
        cap = min(cap, machines * slot)
        if cap < 1:
            break
        keep = min(cap, free.bit_count())
        cap -= keep
        for _ in range(keep):
            lowest = free & -free
            kept.append(lowest)
            free ^= lowest
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
    reachable with it: the lexicographically first in scan order.  By
    largest deadline it is what `_mask_scan` keeps over the sorted
    universe.  In id order, on zero-release machines with one processing
    time, on any number of machines, it is the set a plain greedy scan
    keeps, decided by slot counts (the system's `_slots`): one node per
    candidate is charged in one spend before the scan, and a job is kept
    when every level at or above its slot count still has a free slot.
    Everywhere else it is the first maximum of the kernel's one-member
    pre-order over the pool, which one `best` search returns.
    """
    shared = SearchBudget.ensure(budget)
    available = frozenset(available)
    if prefer_largest_deadline:
        ids = sorted(system.universe())
        kept = _mask_scan(system, ids)(
            sum(1 << j for j, item in enumerate(ids) if item in available), shared)
        return tuple(ids[b.bit_length() - 1] for b in kept)
    slots = system._slots
    if slots is not None:
        machine, machines = slots
        view, position = machine.integer_view, machine.position
        pool = sum(1 << position[i] for i in available if i in position)
        shared.spend(pool.bit_count())
        slots = [(k, view.deadline[k] // view.length) for k in _positions(pool)]
        free = {slot: machines * slot for _, slot in slots}
        kept = []
        for k, slot in slots:
            above = [level for level in free if level >= slot]
            if all(free[level] > 0 for level in above):
                for level in above:
                    free[level] -= 1
                kept.append(machine.jobs[k][0])
        return tuple(kept)
    pool = sorted(available & system.universe())
    (chosen,), _ = best([1 << j for j in range(len(pool))], [1] * len(pool),
                        [system._mask_test(pool)], shared)
    return tuple(item for j, item in enumerate(pool) if chosen >> j & 1)


def _mask_scan(system: FeasibilitySystem, ids: Sequence[str]
               ) -> Callable[[int, SearchBudget], list[int]]:
    """The largest-deadline scan of `max_cardinality_feasible` on item
    masks.

    Bit j of a mask is `ids[j]`, and `ids` are sorted and hold the
    system's universe.  The scan takes the mask of the items left and
    returns the bits it keeps, one int each, in scan order.  On a table
    that slot counts decide, each deadline class is a mask, put on `ids`
    here once, and `_deadline_scan` scans the items left: the scan charges
    the popcount of the pool in one spend, so its cost is one mask per
    class it looks at and one step per job kept, whatever the size of the
    pool.  Any other system is scanned by one `best` search over the items
    left in scan order, on the system's mask test over `ids`.
    """
    slots = system._slots
    if slots is None:
        deadlines = system.job_deadlines()
        if deadlines is None:
            raise InputError("largest-deadline scan requires a scheduling system")
        universe, test = system.universe(), system._mask_test(ids)
        # A stable sort of sorted ids breaks deadline ties by id.
        ranked = sorted((j for j, item in enumerate(ids) if item in universe),
                        key=lambda j: -deadlines[ids[j]])

        def scan(remaining: int, budget: SearchBudget) -> list[int]:
            bits = [1 << j for j in ranked if remaining >> j & 1]
            (chosen,), _ = best(bits, [1] * len(bits), [test], budget)
            return [bit for bit in bits if chosen & bit]

        return scan
    machine, machines = slots
    classes = machine.deadline_classes
    if len(machine.jobs) < len(ids):
        # Some items are not jobs of the table: move each class's bits
        # from table positions to `ids`.
        index = {item: j for j, item in enumerate(ids)}
        bits = [1 << index[item] for item, _ in machine.jobs]
        classes = tuple((slot, sum(map(bits.__getitem__, _positions(mask))))
                        for slot, mask in classes)
    universe = sum(mask for _, mask in classes)

    def scan(remaining: int, budget: SearchBudget) -> list[int]:
        budget.spend((remaining & universe).bit_count())
        return _deadline_scan(classes, machines, remaining)

    return scan


def _positions(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        lowest = mask & -mask
        yield lowest.bit_length() - 1
        mask ^= lowest


def validate_witness(system: FeasibilitySystem, items: Iterable[str],
                     witness: ScheduleWitness) -> bool:
    """Re-check a schedule witness against the system's raw parameters.

    Every item of `items` runs exactly once: the witness schedules that
    set, with as many (item, start) pairs as it has items.
    """
    items = frozenset(items)
    if (witness.scheduled_items() != items
            or sum(map(len, witness.machines)) != len(items)):
        return False
    if len(witness.machines) > system._machine_count:
        return False

    for machine, sequence in enumerate(witness.machines):
        table, clock = system._table(machine), None
        for item, start in sequence:
            window = None if table is None else table.window(item)
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
