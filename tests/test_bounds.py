"""Closed-form bounds, certified enclosures, and the supporting algebra."""

import random
from fractions import Fraction

import pytest

from spgames import (GeneratorSpec, InputError, RationalInterval,
                     bound_collusion, bound_nash, bound_sequential_symmetric,
                     bound_series_b, compute_opt, enumerate_spe_outcomes,
                     exp_enclosure, generate, ratio_within_sequential_bound,
                     welfare)
from spgames.errors import _fraction

from oracles import series_exp_enclosure

ALPHAS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


class TestClosedForms:
    def test_nash_bound(self):
        assert bound_nash(1) == 2
        assert bound_nash(Fraction(3, 2)) == Fraction(5, 2)

    def test_collusion_bound(self):
        assert bound_collusion(1, 3, 2) == Fraction(3, 2)
        assert bound_collusion(1, 4, 2) == Fraction(5, 3)
        assert bound_collusion(Fraction(3, 2), 3, 2) == 2
        assert bound_collusion(1, 5, 5) == 1

    def test_collusion_bound_domain(self):
        with pytest.raises(InputError):
            bound_collusion(1, 1, 1)
        with pytest.raises(InputError):
            bound_collusion(1, 3, 4)
        with pytest.raises(InputError):
            bound_nash(Fraction(1, 2))


class TestEnclosures:
    def test_exp_enclosure_brackets_known_digits(self):
        e = exp_enclosure(Fraction(1))
        # 50 decimal digits of e
        known = Fraction(
            "271828182845904523536028747135266249775724709369995/" +
            "1" + "0" * 50)
        assert e.lo <= known <= e.hi

    @pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 7), Fraction(1, 2),
                                   Fraction(2, 3), Fraction(1)])
    def test_exp_enclosure_equals_the_series_term_by_term(self, t):
        for terms in range(2, 61):
            e = exp_enclosure(t, terms)
            assert (e.lo, e.hi) == series_exp_enclosure(t, terms)

    def test_interval_endpoints_in_order(self):
        with pytest.raises(InputError) as caught:
            RationalInterval(Fraction(2), Fraction(1))
        assert str(caught.value) == "interval endpoints out of order"
        interval = RationalInterval(Fraction(1), Fraction(2))
        # Closed at both ends; any exact rational is read.
        assert [value in interval for value in (
            Fraction(1), "3/2", 2, Fraction(5, 2), Fraction(99, 100))] == [
                True, True, True, False, False]

    def test_interval_endpoints_are_read_as_rationals(self):
        assert RationalInterval("3", "10") == RationalInterval(3, 10)
        assert RationalInterval("3", "10").width == 7

    def test_a_float_endpoint_is_stored_as_a_rational(self):
        interval = RationalInterval(1, 2.5)
        assert (type(interval.lo), type(interval.hi)) == (Fraction, Fraction)
        assert interval.hi == Fraction(5, 2)

    def test_nan_endpoint_is_an_input_error(self):
        with pytest.raises(InputError, match="interval endpoint is not a "
                           "rational: nan"):
            RationalInterval(float("nan"), 1)

    def test_a_value_that_is_no_rational_is_an_input_error(self):
        with pytest.raises(InputError, match="value is not a rational: 'x'"):
            "x" in RationalInterval(1, 2)

    def test_a_fraction_is_read_as_it_is_and_a_subclass_converted(self):
        class Tagged(Fraction):
            pass

        half = Fraction(1, 2)
        assert _fraction(half, name="alpha") is half
        out = _fraction(Tagged(1, 2), name="alpha")
        assert type(out) is Fraction and out == half
        with pytest.raises(InputError, match="alpha must be >= 1, got 1/2"):
            _fraction(half, name="alpha", minimum=1)

    @pytest.mark.parametrize("t", [Fraction(-1, 2), Fraction(3, 2)])
    def test_exp_enclosure_only_on_the_unit_interval(self, t):
        with pytest.raises(InputError) as caught:
            exp_enclosure(t)
        assert str(caught.value) == (
            "exp enclosure implemented for 0 <= t <= 1 only")

    @pytest.mark.parametrize("alpha", [Fraction(1), Fraction(3, 2)])
    def test_a_ratio_inside_the_enclosure_is_refined(self, alpha):
        # The default enclosure cannot place its own midpoint, so the
        # decision narrows it until one side is certain.
        enclosure = bound_sequential_symmetric(alpha)
        middle = (enclosure.lo + enclosure.hi) / 2
        assert enclosure.lo < middle < enclosure.hi
        narrow = bound_sequential_symmetric(alpha, enclosure.width / 2 ** 64)
        assert middle >= narrow.hi
        assert ratio_within_sequential_bound(middle, alpha) is False
        assert ratio_within_sequential_bound(enclosure.lo, alpha) is True

    def test_sequential_bound_interval_is_tight(self):
        for alpha in ALPHAS:
            enclosure = bound_sequential_symmetric(alpha)
            assert enclosure.width <= Fraction(1, 10 ** 12)
            assert enclosure.lo > alpha  # the bound always exceeds alpha

    def test_sequential_bound_value_for_alpha_one(self):
        enclosure = bound_sequential_symmetric(1)
        assert Fraction("158197/100000") < enclosure.lo
        assert enclosure.hi < Fraction("158198/100000")

    def test_certified_ratio_decision(self):
        assert ratio_within_sequential_bound(Fraction(9, 7), 1)
        assert ratio_within_sequential_bound(Fraction(25, 18), 1)
        assert not ratio_within_sequential_bound(Fraction(8, 5), 1)


class TestSeries:
    def test_starts_at_alpha(self):
        for alpha in ALPHAS:
            assert bound_series_b(alpha, 1) == alpha

    def test_second_term_for_alpha_one(self):
        assert bound_series_b(1, 2) == Fraction(4, 3)

    def test_monotone_and_below_the_limit(self):
        for alpha in (Fraction(1), Fraction(3, 2), Fraction(2)):
            enclosure = bound_sequential_symmetric(alpha)
            previous = None
            for x in range(1, 101):
                value = bound_series_b(alpha, x)
                if previous is not None:
                    assert value > previous
                assert value < enclosure.lo
                previous = value


class TestSandwich:
    def lower_gap_certificate(self, alpha: Fraction) -> bool:
        enclosure = bound_sequential_symmetric(alpha)
        return alpha + Fraction(1, 2) <= enclosure.lo

    def upper_gap_certificate(self, alpha: Fraction) -> bool:
        y = exp_enclosure(1 / alpha, terms=40)
        if alpha == 1:
            # Equality case: x/(x-1) == 1 + 1/(x-1) is a field identity,
            # certified here on both enclosure endpoints.
            return all(x / (x - 1) == 1 + 1 / (x - 1) for x in (y.lo, y.hi))
        e = exp_enclosure(Fraction(1), terms=40)
        bound_hi = y.lo / (y.lo - 1)
        return bound_hi <= alpha + 1 / (e.hi - 1)

    def test_alpha_plus_half_below_bound(self):
        for alpha in ALPHAS:
            assert self.lower_gap_certificate(alpha)

    def test_bound_below_alpha_plus_inverse_gap(self):
        for alpha in ALPHAS:
            assert self.upper_gap_certificate(alpha)


class TestInductionAlgebra:
    def gamma_terms(self, gamma: Fraction, copies: int) -> Fraction:
        top = gamma ** copies
        return (top - (gamma - 1) ** copies) / top

    def test_single_player_share_inequality(self):
        rng = random.Random(77)
        for _ in range(60):
            alpha = Fraction(rng.randint(2, 8), rng.randint(1, 2))
            if alpha < 1:
                alpha = 1 / alpha
            total = rng.randint(1, 20)
            gamma = total * alpha
            for first in range(1, total + 1):
                assert Fraction(first) / gamma >= self.gamma_terms(gamma, first)

    def test_induction_step_inequality(self):
        rng = random.Random(78)
        for _ in range(60):
            alpha = Fraction(rng.randint(2, 8), rng.randint(1, 2))
            if alpha < 1:
                alpha = 1 / alpha
            parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
            total = sum(parts)
            if total > 20:
                continue
            gamma = total * alpha
            running = 0
            previous = Fraction(0)
            for part in parts:
                running += part
                step = (Fraction(part) / gamma
                        + (gamma - part) / gamma * previous)
                current = self.gamma_terms(gamma, running)
                assert step >= current
                previous = current


class TestPerPlayerShareLemma:
    def test_sequential_shares_cover_their_fraction_of_remaining_optimum(self):
        # Every sequential outcome of a symmetric game gives player i at
        # least copies_i / (total_copies * alpha) of the optimum over the
        # items still on the table when it moves.
        specs = [GeneratorSpec.make("ex_seq", n=3),
                 GeneratorSpec.make("random_symmetric", n=2, copies=2, seed=3),
                 GeneratorSpec.make("random_symmetric", n=3, copies=2, seed=8),
                 GeneratorSpec.make("random_symmetric", n=3, copies=1, seed=21)]
        for spec in specs:
            game = generate(spec)
            copies = [p.copies for p in game.players]
            total = sum(copies)
            for alpha in (Fraction(1), Fraction(3, 2)):
                order = tuple(range(game.n))
                for profile in enumerate_spe_outcomes(game, order, alpha)[:6]:
                    remaining = set(game.item_ids)
                    for player in order:
                        _, optimum_here = compute_opt(game,
                                                      available=remaining)
                        share = Fraction(copies[player], total) / alpha
                        held = game.weight_of(profile.items_of(player))
                        assert held >= share * optimum_here
                        remaining -= profile.items_of(player)
