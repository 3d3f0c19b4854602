"""The call sites of the search kernel against the brute-force oracles.

Instances are small explicit games whose weights include 0 and
non-integers, so ties and the integer scaling of weights both occur.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from spgames import (ExplicitSystem, Instance, Item, best_response,
                     coalition_best_response, compute_opt, enumerate_nash,
                     feasible_subsets)

from oracles import (all_subsets, brute_best_response, brute_coalition,
                     brute_enumerate_nash, brute_opt)

WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
IDS = ("a", "b", "c", "d", "e")

exhaustive = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def games(draw, max_set=None) -> Instance:
    """`max_set` caps the size of the players' maximal sets."""
    ids = IDS[:draw(st.integers(1, len(IDS)))]
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(ids),
                            max_size=len(ids)))
    family = st.lists(st.frozensets(st.sampled_from(ids), max_size=max_set),
                      min_size=1, max_size=3)
    players = [ExplicitSystem(maximal_sets=tuple(draw(family)))
               for _ in range(draw(st.integers(1, 3)))]
    return Instance(items=tuple(map(Item, ids, weights)), players=tuple(players))


@st.composite
def games_with_pool(draw) -> tuple[Instance, frozenset[str]]:
    game = draw(games())
    return game, draw(st.frozensets(st.sampled_from(sorted(game.item_ids))))


@exhaustive
@given(games())
def test_compute_opt_matches_oracle(game):
    assert compute_opt(game) == brute_opt(game)


@exhaustive
@given(games_with_pool(), st.data())
def test_best_response_matches_oracle(game_pool, data):
    game, pool = game_pool
    player = data.draw(st.integers(0, game.n - 1))
    assert best_response(game, player, pool) == brute_best_response(game, player, pool)


@exhaustive
@given(games_with_pool(), st.data())
def test_coalition_best_response_matches_oracle(game_pool, data):
    game, pool = game_pool
    coalition = data.draw(st.frozensets(st.integers(0, game.n - 1), min_size=1))
    assert coalition_best_response(game, coalition, pool) == \
        brute_coalition(game, coalition, pool)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(games(), st.sampled_from((Fraction(1), Fraction(3, 2))))
def test_enumerate_nash_matches_oracle_in_order(game, alpha):
    assert list(enumerate_nash(game, alpha)) == brute_enumerate_nash(game, alpha)


@exhaustive
@given(games_with_pool())
def test_feasible_subsets_lists_members_in_sorted_tuple_order(game_pool):
    game, pool = game_pool
    for system in game.players:
        members = [T for T in all_subsets(pool) if system.is_member(T)]
        assert list(feasible_subsets(system, pool)) == \
            sorted(members, key=lambda T: tuple(sorted(T)))


def test_deep_pool_needs_no_recursion():
    ids = [f"i{k:04d}" for k in range(1200)]
    game = Instance(items=tuple(Item(i, Fraction(1)) for i in ids),
                    players=(ExplicitSystem(maximal_sets=(frozenset(ids),)),))
    assert compute_opt(game)[1] == 1200
    assert best_response(game, 0, game.item_ids, budget=10**6)[1] == 1200
