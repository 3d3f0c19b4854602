"""Core data model: items, instances, strategy profiles, payoffs, welfare.

All weights and values are exact rationals (`fractions.Fraction`); no
floating point enters any comparison made here.  Each instance also
scales its weights to integers by one constant (`integer_weights`), so
sums and comparisons run on integers: `scaled_weight_of` is the integer
form of `weight_of`, and a `Fraction` is built only for a value that is
returned.  Every type is an immutable value object, so instances and
profiles can be shared freely and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .budget import SearchBudget
from .errors import InputError, _fraction, _integer
from .feasibility import (FeasibilitySystem, SharedSymmetricSystem,
                          _collection, _data_describes)
from .search import Test, integral

T = TypeVar("T")


def _weight(value) -> Fraction:
    out = _fraction(value, name="weight")
    if out < 0:
        raise InputError(f"item weights must be nonnegative, got {out}")
    return out


@dataclass(frozen=True)
class Item:
    """One indivisible item with a nonnegative rational weight."""

    id: str
    weight: Fraction

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InputError(f"item id must be a nonempty string, got {self.id!r}")
        object.__setattr__(self, "weight", _weight(self.weight))


@dataclass(frozen=True)
class Instance:
    """A set packing game: a ground set of items plus one feasibility
    system per player.
    """

    items: tuple[Item, ...]
    players: tuple[FeasibilitySystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(_collection(self.items, "items")))
        object.__setattr__(self, "players",
                           tuple(_collection(self.players, "players")))
        if not self.players:
            raise InputError("an instance needs at least one player")
        for index, item in enumerate(self.items):
            if not isinstance(item, Item):
                raise InputError(f"item {index + 1} is not an Item: {item!r}")
        ids = [item.id for item in self.items]
        if len(set(ids)) != len(ids):
            raise InputError("item ids must be unique within an instance")
        known = set(ids)
        for index, system in enumerate(self.players):
            if not isinstance(system, FeasibilitySystem):
                raise InputError(f"player {index + 1} is not a feasibility "
                                 f"system: {system!r}")
            unknown = system.universe() - known
            if unknown:
                raise InputError(
                    f"player {index + 1} references unknown items: {sorted(unknown)}")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Computed once per object: it rehashes every weight and system.
        return hash((self.items, self.players))

    @cached_property
    def symmetric(self) -> bool:
        """Whether every player is a `SharedSymmetricSystem` view of one
        base family: the symmetric games of the sequential bound."""
        if not all(isinstance(s, SharedSymmetricSystem) for s in self.players):
            return False
        # Equality, not a set: hashing a base rehashes every job window.
        return all(s.base == self.players[0].base for s in self.players)

    @cached_property
    def _memo(self) -> "_Memo":
        return _Memo(self)

    def __getstate__(self) -> dict:
        # String hashes differ between processes: a pickle leaves the
        # cached hash out, and the copy computes its own.  The memo stays
        # with this object too, so a copy starts with none.
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_hash", "_memo")}

    @property
    def n(self) -> int:
        return len(self.players)

    @cached_property
    def weights(self) -> dict[str, Fraction]:
        return {item.id: item.weight for item in self.items}

    @cached_property
    def integer_weights(self) -> tuple[dict[str, int], int]:
        """Every weight scaled to an integer by the lcm of their
        denominators, and that lcm.  Scaling by one positive constant
        keeps every comparison, prune and tie, so the searches run on
        these and divide by the lcm once at the end."""
        scaled, scale = integral([item.weight for item in self.items])
        return dict(zip((item.id for item in self.items), scaled)), scale

    @cached_property
    def item_ids(self) -> frozenset[str]:
        return frozenset(self.weights)

    @cached_property
    def ordered_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.weights))

    def scaled_weight_of(self, items: Iterable[str]) -> int:
        """The weight of `items` on the scale of `integer_weights`."""
        weight, _ = self.integer_weights
        total = 0
        for item_id in items:
            scaled = weight.get(item_id)
            if scaled is None:
                raise InputError(f"unknown item id {item_id!r}")
            total += scaled
        return total

    def weight_of(self, items: Iterable[str]) -> Fraction:
        return Fraction(self.scaled_weight_of(items), self.integer_weights[1])


class _Memo:
    """What the searches keep of one instance, for as long as it lives
    (`Instance._memo`): not a field, so eq, hash and repr ignore it, and
    neither a pickle nor a copy carries it.

    Its symmetry record is computed once per instance:

    * `kinds[p]` is the first player whose system equals player p's; the
      players of one kind answer every search alike, so the tables key on
      kinds, not players;
    * `mates` maps each item that has a class-mate to the first item of
      its class.  Two items are class-mates when they have one integer
      weight and swapping them maps every distinct system's family onto
      itself (`FeasibilitySystem._swaps`, tried only between items of
      equal `_swap_key`s, and only when every system's data describes
      its family, `_data_describes`).
      Such swaps compose, so the classes partition the items, and a game
      without repeated items has no `mates`.  `previous(ids)` reads the
      record for one pool.  The classes are found on the first read, so
      a game that walks nothing never looks for them.

    `mask(items)` is an item set as a mask over `ordered_ids`, from each
    item's `bit`, built on the first mask.  The searches pass masks to
    one another, so `mask` runs only where a public function takes an
    item set.

    `test(player)` is the membership test of the player's kind on those
    masks (`FeasibilitySystem._mask_test` over `ordered_ids`), built on
    the first ask and kept for the kind: explicit families and their
    covers decide a mask against their maximal sets as masks, job tables
    by their integer view, and a user-defined system or a split over two
    or more members spells it for `is_member`.  Every walk whose bits are
    `bit` asks these tests, and so does a verifier's validation of its
    profile (`_validation`).  Nothing is built before the first ask, so
    a game that walks nothing builds no test.

    Each table maps a key to the nodes its search spent and the search's
    result, and `recall` is the one way to read one; its docstring
    states what a read is charged:

    * `acceptable`: (kind, pool mask) to the optimum and every (set mask,
      integer weight) pair of the mover's walk in
      `equilibria._acceptable`, in pre-order; each alpha filters the
      pairs on reading.  With True appended, the key holds the walk of
      the orbit leaders alone, which for a pool without class-mates
      (whose `previous` is None) is the listing, recalled under the
      listing's key;
    * `replies`: (the members' kinds, pool mask) to the members' best sets,
      as masks, and their integer weight (`best_response._reply`);
    * `optima`: the mask of the assignable items to the sets and integer
      welfare of `metrics.compute_opt`;
    * `families`: a kind to its family, as `equilibria._equilibria` walks
      it: every feasible set as a mask over `ordered_ids`, mapped to its
      integer weight, in descending weight; with the kind's tops, each
      pool mask the walk has asked about mapped to the kind's best weight
      within it, filled as the walk asks; and the kind's reach, for each
      index into `ordered_ids` (and one past the last), the integer
      weight of the items from there on that some set of the family
      holds, built by the family's walk.

    The tables do not depend on k or alpha, so every search on the
    instance shares them.
    """

    __slots__ = ("kinds", "_players", "_ids", "_weight", "_mates", "_whole",
                 "_bit", "_tests", "acceptable", "replies", "optima",
                 "families")

    def __init__(self, instance: Instance):
        players = instance.players
        self.kinds = tuple(map(players.index, players))
        self._players, self._ids = players, instance.ordered_ids
        self._weight = instance.integer_weights[0]
        self._mates: Optional[dict[str, str]] = None
        # previous(ordered_ids), boxed once known: it may be None.
        self._whole: Optional[tuple[Optional[list[int]]]] = None
        self._bit: Optional[dict[str, int]] = None
        self._tests: dict[int, Test] = {}
        self.acceptable: dict[tuple, tuple[int, object]] = {}
        self.replies: dict[tuple[tuple[int, ...], int], tuple[int, object]] = {}
        self.optima: dict[int, tuple[int, object]] = {}
        self.families: dict[int, tuple[int, object]] = {}

    @property
    def mates(self) -> dict[str, str]:
        if self._mates is None:
            self._mates = self._find_mates()
        return self._mates

    def _find_mates(self) -> dict[str, str]:
        by_weight: dict[int, list[str]] = {}
        for item in self._ids:
            by_weight.setdefault(self._weight[item], []).append(item)
        groups = [group for group in by_weight.values() if len(group) > 1]
        systems = [self._players[kind] for kind in sorted(set(self.kinds))]
        mates: dict[str, str] = {}
        if not groups or not all(map(_data_describes, systems)):
            return mates
        for group in groups:
            # The first item of each class so far, by swap keys: swaps
            # compose, so an item need only be tried against those.
            firsts: dict[tuple, list[str]] = {}
            for item in group:
                same = firsts.setdefault(tuple(
                    [system._swap_key(item) for system in systems]), [])
                for first in same:
                    if all(system._swaps(first, item) for system in systems):
                        mates[item] = mates[first] = first
                        break
                else:
                    same.append(item)
        return mates

    def previous(self, ids: Sequence[str]) -> Optional[list[int]]:
        """For each item of the pool `ids`, in id order, the index in `ids`
        of the class-mate before it, or -1: what `search.walk` takes to
        walk one assignment per orbit.  None when no item of the pool has
        a class-mate in it, so such a walk pays nothing per attempt.  The
        answer for the whole of `ordered_ids` is kept."""
        whole = ids is self._ids
        if whole and self._whole is not None:
            return self._whole[0]
        mates, out = self.mates, None
        if mates:
            last: dict[str, int] = {}
            out = []
            for index, item in enumerate(ids):
                first = mates.get(item)
                out.append(-1 if first is None else last.get(first, -1))
                if first is not None:
                    last[first] = index
            if all(mate < 0 for mate in out):
                out = None
        if whole:
            self._whole = out,
        return out

    @property
    def bit(self) -> dict[str, int]:
        """Each item's bit over `ordered_ids`, built on the first read."""
        if self._bit is None:
            self._bit = {i: 1 << j for j, i in enumerate(self._ids)}
        return self._bit

    def mask(self, items: Iterable[str]) -> int:
        return sum(map(self.bit.__getitem__, items))

    def test(self, player: int) -> Test:
        """The mask test over `ordered_ids` of `player`'s kind
        (`FeasibilitySystem._mask_test`)."""
        kind = self.kinds[player]
        if kind not in self._tests:
            self._tests[kind] = self._players[kind]._mask_test(self._ids)
        return self._tests[kind]

    @staticmethod
    def recall(table: dict, key, budget: SearchBudget,
               search: Callable[..., T], *args) -> T:
        """What `search(*args)`, run on `budget`, returns for `key`: the one
        read of a table entry, and the charge rule of every search the
        instance remembers.

        A result the table holds spends the nodes its search spent, in one
        `SearchBudget.try_spend`, and searches nothing when the budget can
        pay them.  Any other runs `search` and stores its nodes and
        result; so a repeat the budget cannot pay for fails where and how
        a fresh search fails, and a budget counts, and runs out, as if
        every repeat searched.  A search that recalls another entry stores
        that entry's nodes and result.
        """
        found = table.get(key)
        if found is not None and budget.try_spend(found[0]):
            return found[1]
        before = budget.used
        result = search(*args)
        table[key] = budget.used - before, result
        return result


@dataclass(frozen=True)
class Profile:
    """One item set per player."""

    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "sets", tuple(frozenset(str(i) for i in s) for s in self.sets))

    @classmethod
    def _spelt(cls, sets: tuple[frozenset[str], ...]) -> "Profile":
        """A profile of the frozensets of item ids that the package has
        just built, taken as they are."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "sets", sets)
        return profile

    @property
    def n(self) -> int:
        return len(self.sets)

    def items_of(self, player: int) -> frozenset[str]:
        return self.sets[player]

    def all_items(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.sets:
            out |= s
        return frozenset(out)


@total_ordering
@dataclass(frozen=True)
class Payoff:
    """Either a finite rational payoff or the distinguished infeasible
    outcome a player receives when selections overlap.

    The infeasible payoff compares strictly less than every finite one,
    making the order total without any sentinel number.
    """

    value: Optional[Fraction] = None

    @classmethod
    def finite(cls, value) -> "Payoff":
        return cls(Fraction(value))

    @property
    def is_infeasible(self) -> bool:
        return self.value is None

    def _key(self):
        return (0, Fraction(0)) if self.value is None else (1, self.value)

    def __lt__(self, other: "Payoff") -> bool:
        return self._key() < other._key()


INFEASIBLE = Payoff()


@dataclass(frozen=True)
class Violation:
    """One reason a profile is not a valid packing.

    kind is one of "size_mismatch", "unknown_item", "infeasible_set",
    "overlap"; `players` are 0-based indices.
    """

    kind: str
    players: tuple[int, ...]
    items: frozenset[str] = frozenset()


def _check_player_index(instance: Instance, player: int) -> int:
    if not 0 <= _integer(player, name="player index") < instance.n:
        raise InputError(f"player index {player} out of range for n={instance.n}")
    return player


def payoff(instance: Instance, profile: Profile, player: int) -> Payoff:
    """Payoff of one player under a profile.

    Infeasible exactly when the player's set overlaps another player's;
    otherwise the total weight of the player's items.  The player's own
    set must belong to their feasibility system (an input error, distinct
    from the overlap outcome).
    """
    _check_player_index(instance, player)
    if profile.n != instance.n:
        raise InputError(
            f"profile has {profile.n} players, instance has {instance.n}")
    for s in profile.sets:
        unknown = s - instance.item_ids
        if unknown:
            raise InputError(f"unknown item ids in profile: {sorted(unknown)}")
    own = profile.items_of(player)
    if not instance.players[player].is_member(own):
        raise InputError(
            f"set {sorted(own)} is not feasible for player {player + 1}")
    for other in range(instance.n):
        if other != player and own & profile.items_of(other):
            return INFEASIBLE
    return Payoff.finite(instance.weight_of(own))


def validate_profile(instance: Instance, profile: Profile,
                     budget: int | SearchBudget | None = None
                     ) -> list[Violation]:
    """All reasons a profile fails to be a valid packing; empty when valid.

    Reports every overlapping pair and every per-player feasibility
    failure.  Total: never raises, save `BudgetExceededError` when the
    membership tests together overrun `budget`.
    """
    return _validation(instance, profile, budget, masked=False)[0]


def welfare(instance: Instance, profile: Profile,
            budget: int | SearchBudget | None = None) -> Fraction:
    """Total weight collected by a valid profile.

    By disjointness this equals the weight of the union of all selected
    items.  Raises on invalid profiles: the welfare of an overlapping or
    infeasible selection is undefined.  `budget` caps the membership
    tests of the validation, all of them together.
    """
    return _packing(instance, profile, budget, masked=False)[0]


def _packing(instance: Instance, profile: Profile,
             budget: int | SearchBudget | None, *, masked: bool
             ) -> tuple[Fraction, list[int], list[int]]:
    """The welfare of a valid profile, and `_validation`'s masks and
    integer weights of its sets: `welfare`, and what the verifiers
    search from.  An invalid profile is an input error listing its
    violations."""
    violations, masks, weights = _validation(instance, profile, budget,
                                             masked=masked)
    if violations:
        raise InputError(f"profile is not valid: {violations}")
    return Fraction(sum(weights), instance.integer_weights[1]), masks, weights


def _validation(instance: Instance, profile: Profile,
                budget: int | SearchBudget | None, *, masked: bool
                ) -> tuple[list[Violation], list[int], list[int]]:
    """`validate_profile`'s violations and, for a valid profile, each
    set's weight on the instance's integer scale and, with `masked`, each
    set as a mask over `ordered_ids` (`_Memo.mask`), from one pass.

    Each player's set is weighed, which finds its unknown ids, then
    tested in order, all on one budget, each test spending what
    `is_member` spends.  The verifiers search from masks, so with
    `masked` a set is masked and tested on its mask by its kind's mask
    test (`_Memo.test`), which decides an explicit family's mask faster
    than `is_member` decides its frozenset.  Without `masked` every mask
    is left 0, and `is_member` decides the frozenset: `welfare` tests each
    set once, and in deadline play a set holds a few of a large table's
    latest jobs, which `is_member` sorts alone where building the bit
    table and the kind's mask test, and walking its ranked jobs, cost
    more.  The sets overlap exactly when their sizes sum to more than
    their union's, and only then are the pairs compared.
    """
    if profile.n != instance.n:
        return [Violation("size_mismatch", players=())], [], []
    budget = SearchBudget.ensure(budget)
    memo, (weight, _) = instance._memo, instance.integer_weights
    out: list[Violation] = []
    masks: list[int] = []
    weights: list[int] = []
    for player, items in enumerate(profile.sets):
        try:
            weights.append(sum(map(weight.__getitem__, items)))
        except KeyError:
            out.append(Violation("unknown_item", players=(player,),
                                 items=items - instance.item_ids))
            continue
        mask = memo.mask(items) if masked else 0
        if not (memo.test(player)(mask, budget) if masked else
                instance.players[player].is_member(items, budget)):
            out.append(Violation("infeasible_set", players=(player,),
                                 items=items))
        masks.append(mask)
    if sum(map(len, profile.sets)) > len(profile.all_items()):
        out += [Violation("overlap", players=(a, b),
                          items=profile.sets[a] & profile.sets[b])
                for a, b in combinations(range(instance.n), 2)
                if not profile.sets[a].isdisjoint(profile.sets[b])]
    return out, masks, weights


def restrict_available(instance: Instance, available: Iterable[str]) -> frozenset[str]:
    """Validate and freeze an availability set (must be within the ground set)."""
    out = frozenset(str(i) for i in available)
    unknown = out - instance.item_ids
    if unknown:
        raise InputError(f"availability references unknown items: {sorted(unknown)}")
    return out
