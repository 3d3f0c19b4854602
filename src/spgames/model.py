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
from typing import Callable, Iterable, Optional, TypeVar

from .budget import SearchBudget
from .errors import InputError, _fraction, _integer
from .feasibility import FeasibilitySystem, SharedSymmetricSystem
from .search import integral

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

    `symmetric` marks instances built from a single shared base family
    (all players are `SharedSymmetricSystem` views of the same base); it
    is set by construction, never inferred.
    """

    items: tuple[Item, ...]
    players: tuple[FeasibilitySystem, ...]
    symmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "players", tuple(self.players))
        if not self.players:
            raise InputError("an instance needs at least one player")
        ids = [item.id for item in self.items]
        if len(set(ids)) != len(ids):
            raise InputError("item ids must be unique within an instance")
        known = set(ids)
        for index, system in enumerate(self.players):
            unknown = system.universe() - known
            if unknown:
                raise InputError(
                    f"player {index + 1} references unknown items: {sorted(unknown)}")
        if self.symmetric:
            if not all(isinstance(s, SharedSymmetricSystem) for s in self.players):
                raise InputError("symmetric instances require shared-base players")
            # Equality, not a set: hashing a base rehashes every job window.
            if any(s.base != self.players[0].base for s in self.players):
                raise InputError("symmetric instances require one shared base")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Computed once per object: it rehashes every weight and system.
        return hash((self.items, self.players, self.symmetric))

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

    `kinds[p]` is the first player whose system equals player p's; the
    players of one kind answer every search alike, so the tables key on
    kinds, not players.  `mask(items)` is an item set as a mask over
    `ordered_ids`.  Each table maps a key to the nodes its search spent
    and the search's result, and `recall` is the one way to read one:

    * `acceptable`: (kind, pool mask) to the optimum and every (set mask,
      integer weight) pair of the mover's walk in `equilibria._acceptable`,
      in pre-order; each alpha filters the pairs on reading;
    * `replies`: (the members' kinds, pool mask) to the members' best sets
      and their integer weight (`best_response._reply`);
    * `optima`: the mask of the assignable items to the sets and integer
      welfare of `metrics.compute_opt`.
    """

    __slots__ = ("kinds", "bit", "acceptable", "replies", "optima")

    def __init__(self, instance: Instance):
        players = instance.players
        self.kinds = tuple(map(players.index, players))
        self.bit = {i: 1 << j for j, i in enumerate(instance.ordered_ids)}
        self.acceptable: dict[tuple[int, int], tuple[int, object]] = {}
        self.replies: dict[tuple[tuple[int, ...], int], tuple[int, object]] = {}
        self.optima: dict[int, tuple[int, object]] = {}

    def mask(self, items: Iterable[str]) -> int:
        return sum(map(self.bit.__getitem__, items))

    @staticmethod
    def recall(table: dict, key, budget: SearchBudget,
               search: Callable[[], T]) -> T:
        """What `search()`, run on `budget`, returns for `key`.

        A result the table holds and the budget can pay for spends the
        nodes its search spent, in one `spend`, and searches nothing.  Any
        other runs `search` and stores its nodes and result; so a repeat
        the budget cannot pay for fails where and how a fresh search
        fails, and a budget counts, and runs out, as if every repeat
        searched.
        """
        found = table.get(key)
        if found is not None and found[0] <= budget.limit - budget.used:
            budget.spend(found[0])
            return found[1]
        before = budget.used
        result = search()
        table[key] = budget.used - before, result
        return result


@dataclass(frozen=True)
class Profile:
    """One item set per player."""

    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "sets", tuple(frozenset(str(i) for i in s) for s in self.sets))

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
                     budget: Optional[SearchBudget] = None
                     ) -> list[Violation]:
    """All reasons a profile fails to be a valid packing; empty when valid.

    Reports every overlapping pair and every per-player feasibility
    failure.  Total: never raises, save `BudgetExceededError` when the
    membership tests overrun `budget`.
    """
    if profile.n != instance.n:
        return [Violation("size_mismatch", players=())]
    out: list[Violation] = []
    for index, selected in enumerate(profile.sets):
        unknown = selected - instance.item_ids
        if unknown:
            out.append(Violation("unknown_item", players=(index,),
                                 items=frozenset(unknown)))
        elif not instance.players[index].is_member(selected, budget):
            out.append(Violation("infeasible_set", players=(index,),
                                 items=selected))
    for a in range(instance.n):
        for b in range(a + 1, instance.n):
            shared = profile.items_of(a) & profile.items_of(b)
            if shared:
                out.append(Violation("overlap", players=(a, b),
                                     items=frozenset(shared)))
    return out


def welfare(instance: Instance, profile: Profile,
            budget: Optional[SearchBudget] = None) -> Fraction:
    """Total weight collected by a valid profile.

    By disjointness this equals the weight of the union of all selected
    items.  Raises on invalid profiles: the welfare of an overlapping or
    infeasible selection is undefined.  `budget` caps the membership
    tests of the validation.
    """
    violations = validate_profile(instance, profile, budget)
    if violations:
        raise InputError(f"profile is not valid: {violations}")
    return Fraction(sum(map(instance.scaled_weight_of, profile.sets)),
                    instance.integer_weights[1])


def restrict_available(instance: Instance, available: Iterable[str]) -> frozenset[str]:
    """Validate and freeze an availability set (must be within the ground set)."""
    out = frozenset(str(i) for i in available)
    unknown = out - instance.item_ids
    if unknown:
        raise InputError(f"availability references unknown items: {sorted(unknown)}")
    return out
