"""Deterministic instance generators.

The `ex_*` families reproduce the known tight lower-bound constructions
for the three equilibrium concepts; the `random_*` families produce
seeded instances for property suites.  Every generator is pure: the same
parameters (and seed) always yield the identical instance.

One table, `_FAMILIES`, holds each family's builder, parameter names
and reference-profile builder.  Reference profiles read item ids from
the generated instance, so each id format is written once.  Builders
check their own parameters, so `generate` passes each value as given and
only reports a missing one: a direct call and a spec fail the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, _integer
from .best_response import check_alpha
from .equilibria import greedy_sequential_outcome
from .feasibility import (ExplicitSystem, JobWindow, SharedSymmetricSystem,
                          SingleMachineSystem, TimeWindow,
                          UnrelatedMachinesSystem)
from .model import Instance, Item, Profile


@dataclass(frozen=True)
class GeneratorSpec:
    """An addressable generator call: family name plus its parameters."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown instance family {self.family!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def make(cls, family: str, **params) -> "GeneratorSpec":
        return cls(family=family, params=tuple(sorted(params.items())))

    @property
    def param_map(self) -> dict[str, object]:
        return dict(self.params)


def _pad(count: int) -> int:
    return max(2, len(str(count)))


def ex_trivial() -> Instance:
    """Two unit items, two players; the second player can only take item 2."""
    items = (Item("1", Fraction(1)), Item("2", Fraction(1)))
    players = (ExplicitSystem(maximal_sets=(frozenset({"1"}), frozenset({"2"}))),
               ExplicitSystem(maximal_sets=(frozenset({"2"}),)))
    return Instance(items=items, players=players)


def ex_asym(p: int, q: int) -> Instance:
    """q+1 single-machine players over p + q unit jobs, all due at time 1.

    Player 1's machine runs every job in time 1/p, so it can fit any p
    jobs.  Every other machine runs a q-job in time 1 (one job at most)
    and a p-job in time 2 (never).  The worst Nash profile at
    alpha = p/q parks all q-jobs on player 1.
    """
    _integer(q, name="q", minimum=1)
    _integer(p, name="p", minimum=q)
    width = _pad(max(p, q))
    p_ids = [f"p{i:0{width}d}" for i in range(1, p + 1)]
    q_ids = [f"q{i:0{width}d}" for i in range(1, q + 1)]
    all_ids = p_ids + q_ids
    items = tuple(Item(i, Fraction(1)) for i in all_ids)
    windows = {i: TimeWindow(Fraction(0), Fraction(1)) for i in all_ids}

    players = []
    fast = {("m1", i): Fraction(1, p) for i in all_ids}
    players.append(UnrelatedMachinesSystem(machines=("m1",), processing=fast,
                                           jobs=windows))
    for index in range(2, q + 2):
        name = f"m{index}"
        slow = {(name, i): Fraction(1) for i in q_ids}
        slow.update({(name, i): Fraction(2) for i in p_ids})
        players.append(UnrelatedMachinesSystem(machines=(name,),
                                               processing=slow, jobs=windows))
    return Instance(items=items, players=tuple(players))


def ex_sym(p: int, q: int, n: int) -> Instance:
    """n identical single-machine players sharing one job pool.

    q(n-1) + p light jobs (weight 1) each take a 1/(q(n-1)+p) sliver of
    the unit window; n-1 heavy jobs (weight p) fill the whole window.
    """
    _integer(q, name="q", minimum=1)
    _integer(p, name="p", minimum=q)
    _integer(n, name="n", minimum=2)
    light_count = q * (n - 1) + p
    heavy_count = n - 1
    width = _pad(max(light_count, heavy_count))
    light = [f"q{i:0{width}d}" for i in range(1, light_count + 1)]
    heavy = [f"p{i:0{width}d}" for i in range(1, heavy_count + 1)]
    items = tuple([Item(i, Fraction(1)) for i in light]
                  + [Item(i, Fraction(p)) for i in heavy])
    # Windows are immutable values, so one of each kind serves every job.
    sliver = JobWindow(Fraction(0), Fraction(1, light_count), Fraction(1))
    whole = JobWindow(Fraction(0), Fraction(1), Fraction(1))
    jobs = dict.fromkeys(light, sliver)
    jobs.update(dict.fromkeys(heavy, whole))
    base = SingleMachineSystem(jobs=jobs)
    players = tuple(SharedSymmetricSystem(base=base, copies=1) for _ in range(n))
    return Instance(items=items, players=players)


def ex_seq(n: int) -> Instance:
    """n identical players over n*n unit jobs in n deadline classes.

    Class k holds n jobs with deadline k; all jobs take unit time.  The
    optimum gives each player one job per class; sequential play that
    prefers large deadlines wastes the tight-deadline classes.
    """
    _integer(n, name="n", minimum=1)
    width = _pad(n)
    jobs = {}
    ids = []
    for deadline in range(1, n + 1):
        # One window per class, shared by its n jobs.
        window = JobWindow(Fraction(0), Fraction(1), Fraction(deadline))
        for copy in range(1, n + 1):
            item_id = f"d{deadline:0{width}d}_{copy:0{width}d}"
            ids.append(item_id)
            jobs[item_id] = window
    items = tuple(Item(i, Fraction(1)) for i in sorted(ids))
    base = SingleMachineSystem(jobs=jobs)
    players = tuple(SharedSymmetricSystem(base=base, copies=1) for _ in range(n))
    return Instance(items=items, players=players)


def _collusion_bundles(n: int) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
    """Each player's optimum and equilibrium bundle in `ex_collusion` with n
    players.

    Item x<i>_<j> (j != i, j >= 1) is player i's in the optimum and
    player j's in the equilibrium; x<i>_<0> is player i's private item.
    """
    width = _pad(n)

    def item(i: int, j: int) -> str:
        return f"x{i:0{width}d}_{j:0{width}d}"

    return tuple((frozenset(item(i, j) for j in range(n + 1) if j != i),
                  frozenset(item(j, i) for j in range(1, n + 1) if j != i))
                 for i in range(1, n + 1))


def ex_collusion(n: int, k: int, alpha) -> Instance:
    """Explicit-family instance where coalition-proofness is exactly tight.

    For players i != j there is a unit item owned by player i in the
    optimum and by player j in the equilibrium; each player additionally
    has a private item of weight (n-k) + (n-1)(alpha-1) reachable only in
    the optimum.  Each player may select subsets of its optimum bundle or
    of its equilibrium bundle, never a mix.
    """
    factor = check_alpha(alpha)
    _integer(n, name="n", minimum=2)
    if not 1 <= _integer(k, name="k") <= n:
        raise InputError(f"ex_collusion requires 1 <= k <= n, got k={k}")
    private_weight = Fraction(n - k) + (n - 1) * (factor - 1)
    bundles = _collusion_bundles(n)
    shared = frozenset().union(*(eq for _, eq in bundles))
    items = tuple(Item(i, Fraction(1) if i in shared else private_weight)
                  for i in sorted(frozenset().union(*(opt for opt, _ in bundles))))
    players = tuple(ExplicitSystem(maximal_sets=bundle) for bundle in bundles)
    return Instance(items=items, players=players)


def random_explicit(n: int, items: int, max_weight: int, seed: int) -> Instance:
    """Seeded random instance with explicit per-player families."""
    _integer(n, name="n", minimum=1)
    _integer(items, name="items", minimum=1)
    _integer(max_weight, name="max_weight", minimum=1)
    _integer(seed, name="seed", minimum=0)
    rng = random.Random(seed)
    width = _pad(items)
    ids = [f"i{index:0{width}d}" for index in range(1, items + 1)]
    ground = tuple(Item(i, Fraction(rng.randint(1, max_weight))) for i in ids)
    players = []
    for _ in range(n):
        sets = set()
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, min(4, items))
            sets.add(frozenset(rng.sample(ids, size)))
        players.append(ExplicitSystem(maximal_sets=tuple(sets)))
    return Instance(items=ground, players=tuple(players))


def random_symmetric(n: int, copies: int, seed: int) -> Instance:
    """Seeded random instance on a shared explicit base family."""
    _integer(n, name="n", minimum=1)
    _integer(copies, name="copies", minimum=1)
    _integer(seed, name="seed", minimum=0)
    rng = random.Random(seed)
    item_count = 6
    ids = [f"i{index:02d}" for index in range(1, item_count + 1)]
    ground = tuple(Item(i, Fraction(rng.randint(1, 8))) for i in ids)
    sets = set()
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(1, 3)
        sets.add(frozenset(rng.sample(ids, size)))
    base = ExplicitSystem(maximal_sets=tuple(sets))
    players = tuple(SharedSymmetricSystem(base=base, copies=rng.randint(1, copies))
                    for _ in range(n))
    return Instance(items=ground, players=players)


def _trivial_references(game: Instance) -> dict[str, Profile]:
    """Each player takes its own item, or player 1 takes player 2's."""
    one, two = (frozenset({i}) for i in game.ordered_ids)
    return {"opt": Profile((one, two)),
            "bad_equilibrium": Profile((two, frozenset()))}


def _prefixed(game: Instance, prefix: str) -> list[str]:
    return [i for i in game.ordered_ids if i.startswith(prefix)]


def _asym_references(game: Instance, q: int, **_) -> dict[str, Profile]:
    """The fast machine takes every p-job and each slow one a q-job, or
    the fast machine takes every q-job."""
    q_ids = _prefixed(game, "q")
    return {"opt": Profile((frozenset(_prefixed(game, "p")),)
                           + tuple(frozenset({i}) for i in q_ids)),
            "bad_equilibrium": Profile((frozenset(q_ids),)
                                       + (frozenset(),) * q)}


def _sym_references(game: Instance, q: int, n: int, **_) -> dict[str, Profile]:
    """One player takes every light job and each other a heavy one, or
    each player takes q light jobs."""
    light = _prefixed(game, "q")
    return {"opt": Profile((frozenset(light),) + tuple(
                frozenset({i}) for i in _prefixed(game, "p"))),
            "bad_equilibrium": Profile(tuple(
                frozenset(light[q * player: q * (player + 1)])
                for player in range(n)))}


def _seq_references(game: Instance, n: int) -> dict[str, Profile]:
    """Player p takes copy p of each deadline class, or the outcome of
    sequential play that prefers large deadlines."""
    return {"opt": Profile(tuple(frozenset(game.ordered_ids[player::n])
                                 for player in range(n))),
            "bad_equilibrium": greedy_sequential_outcome(
                game, range(n), Fraction(1), selector="deadline")}


def _collusion_references(game: Instance, n: int, **_) -> dict[str, Profile]:
    """Each player takes its optimum bundle, or its equilibrium bundle."""
    bundles = _collusion_bundles(n)
    return {"opt": Profile(tuple(opt for opt, _ in bundles)),
            "bad_equilibrium": Profile(tuple(eq for _, eq in bundles))}


# Family name: builder, parameter names in the order they are read, and
# reference-profile builder.  `ex_collusion` reads alpha first, so a
# missing alpha is reported before n and k.
_FAMILIES = {
    "ex_trivial": (ex_trivial, (), _trivial_references),
    "ex_asym": (ex_asym, ("p", "q"), _asym_references),
    "ex_sym": (ex_sym, ("p", "q", "n"), _sym_references),
    "ex_seq": (ex_seq, ("n",), _seq_references),
    "ex_collusion": (ex_collusion, ("alpha", "n", "k"), _collusion_references),
    "random_explicit": (random_explicit, ("n", "items", "max_weight", "seed"),
                        None),
    "random_symmetric": (random_symmetric, ("n", "copies", "seed"), None),
}

FAMILIES = tuple(_FAMILIES)
# The families with reference profiles: the paper's constructions.
PAPER_FAMILIES = tuple(name for name, (_, _, references) in _FAMILIES.items()
                       if references is not None)
# Every parameter name, in order of first use.
PARAMETERS = tuple(dict.fromkeys(name for _, names, _ in _FAMILIES.values()
                                 for name in names))


def _arguments(spec: GeneratorSpec) -> dict[str, object]:
    """The parameters the spec's family reads, in reading order, as given:
    the first missing one is an error, then any the family does not read,
    and the builder checks the rest."""
    params = spec.param_map
    names = _FAMILIES[spec.family][1]
    for name in names:
        if name not in params:
            raise InputError(f"missing generator parameter {name!r}")
    unread = sorted(params.keys() - set(names))
    if unread:
        raise InputError(f"unread generator parameters for family "
                         f"{spec.family!r}: {', '.join(map(repr, unread))}")
    return {name: params[name] for name in names}


def generate(spec: GeneratorSpec) -> Instance:
    """Build the instance addressed by a generator spec."""
    return _FAMILIES[spec.family][0](**_arguments(spec))


def reference_profiles(spec: GeneratorSpec) -> dict[str, Profile]:
    """The named optimum and worst-equilibrium profiles of a paper family.

    Not available for the random families.  The instance is generated
    once, and the profiles read its item ids.
    """
    builder, _, references = _FAMILIES[spec.family]
    if references is None:
        raise InputError(
            f"reference profiles are not defined for family {spec.family!r}")
    arguments = _arguments(spec)
    return references(builder(**arguments), **arguments)
