"""Closed-form price-of-anarchy bounds.

The Nash and collusion bounds are exact rationals.  The sequential bound
for symmetric games, exp(1/alpha) / (exp(1/alpha) - 1), is irrational;
it is handled as a certified enclosing interval with exact rational
endpoints (truncated exponential series plus a proven remainder bound),
so that no comparison against it is ever decided by an uncertified
float.  Since measured ratios are rational they can never equal the
irrational bound, and shrinking the interval always yields a definite
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .errors import InputError, _fraction, _integer
from .best_response import check_alpha

DEFAULT_INTERVAL_WIDTH = Fraction(1, 10 ** 12)


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval with exact rational endpoints enclosing a real."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = _fraction(self.lo, name="interval endpoint")
        hi = _fraction(self.hi, name="interval endpoint")
        if lo > hi:
            raise InputError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value) -> bool:
        return self.lo <= _fraction(value, name="value") <= self.hi


def bound_nash(alpha) -> Fraction:
    """Worst-case ratio of the optimum to any approximate Nash profile."""
    return check_alpha(alpha) + 1


def bound_collusion(alpha, n: int, k: int) -> Fraction:
    """Worst-case ratio under coalitions of up to k of n players.

    Undefined for n = 1 (callers should report the plain ratio there).
    """
    factor = check_alpha(alpha)
    _integer(n, name="n", minimum=2)
    if not 1 <= _integer(k, name="k") <= n:
        raise InputError(f"k must be between 1 and {n}, got {k}")
    return factor + Fraction(n - k, n - 1)


def exp_enclosure(t: Fraction, terms: int = 25) -> RationalInterval:
    """Certified rational enclosure of exp(t) for 0 <= t <= 1.

    Lower endpoint: the truncated series.  Upper endpoint: adds the tail
    bound t^terms / terms! * 1 / (1 - t / (terms + 1)), valid because the
    tail is dominated by that geometric series.  For t = p/q and N terms
    both sums are taken on integers over q^N N!: the series is
    sum_{i<N} p^i q^(N-i) N!/i!, and the tail's first term is p^N.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise InputError("exp enclosure implemented for 0 <= t <= 1 only")
    _integer(terms, name="terms", minimum=2)
    p, q = t.numerator, t.denominator
    powers = list(accumulate(repeat(p, terms), mul, initial=1))
    partial, scale = 0, 1
    for i in range(terms - 1, -1, -1):
        scale *= q * (i + 1)  # q^(N-i) N!/i!
        partial += powers[i] * scale
    # 1 - t / (N + 1) = rest / ((N + 1) q)
    rest = (terms + 1) * q - p
    return RationalInterval(
        lo=Fraction(partial, scale),
        hi=Fraction(partial * rest + powers[terms] * (terms + 1) * q,
                    scale * rest))


def bound_sequential_symmetric(alpha,
                               max_width: Fraction = DEFAULT_INTERVAL_WIDTH
                               ) -> RationalInterval:
    """Certified enclosure of exp(1/alpha) / (exp(1/alpha) - 1).

    The enclosure is tightened until its width is at most `max_width`
    (default 1e-12).
    """
    factor = check_alpha(alpha)
    t = 1 / factor
    terms = 12
    while True:
        y = exp_enclosure(t, terms)
        # x / (x - 1) is decreasing in x, so the endpoints swap roles.
        enclosure = RationalInterval(lo=y.hi / (y.hi - 1), hi=y.lo / (y.lo - 1))
        if enclosure.width <= max_width:
            return enclosure
        terms += 8
        if terms > 400:  # pragma: no cover - series converges long before
            raise RuntimeError("exponential enclosure failed to converge")


def ratio_within_sequential_bound(ratio, alpha) -> bool:
    """Certified decision of ratio <= exp(1/alpha)/(exp(1/alpha)-1).

    Shrinks the enclosure until the rational ratio falls strictly on one
    side; this terminates because the bound itself is irrational.
    """
    value = Fraction(ratio)
    width = DEFAULT_INTERVAL_WIDTH
    for _ in range(24):
        enclosure = bound_sequential_symmetric(alpha, width)
        if value <= enclosure.lo:
            return True
        if value >= enclosure.hi:
            return False
        width /= 2 ** 16
    raise RuntimeError(
        "could not separate ratio from the sequential bound")  # pragma: no cover


def bound_series_b(alpha, x: int) -> Fraction:
    """Exact value of (x*alpha)^x / ((x*alpha)^x - (x*alpha - 1)^x).

    This series increases in x toward the sequential bound for symmetric
    games and starts at alpha for x = 1.
    """
    factor = check_alpha(alpha)
    gamma = _integer(x, name="x", minimum=1) * factor
    top = gamma ** x
    return top / (top - (gamma - 1) ** x)
