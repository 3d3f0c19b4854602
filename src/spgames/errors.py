"""Exception types shared across the package, and the two argument readers.

`_integer` reads every integer argument of the library and `_fraction`
every rational one: a value of the wrong kind, or below its minimum, is
an `InputError`, never a silent conversion or a later `TypeError`.
Documents and the command line parse their strings first
(`serialize.parse_rational`, `cli`).
"""

from __future__ import annotations

from fractions import Fraction


class InputError(ValueError):
    """Malformed or inconsistent input: unknown ids, bad parameters, unparsable documents."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget before reaching a definite answer."""


def _integer(value, *, name: str, minimum: int | None = None) -> int:
    """`value`, an `int` that is not a `bool`, at least `minimum`; anything
    else is an input error."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {value}")
    return value


def _fraction(value, *, name: str, minimum: Fraction | None = None,
              strict: bool = False) -> Fraction:
    """`value` as an exact rational, at least (or with `strict`, above)
    `minimum`; anything else, infinities and nan included, is an input
    error.  A `Fraction` itself, not a subclass, is taken as it is."""
    if type(value) is Fraction:
        out = value
    else:
        try:
            out = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError,
                OverflowError) as exc:
            raise InputError(f"{name} is not a rational: {value!r}") from exc
    if minimum is not None:
        if strict and out <= minimum:
            raise InputError(f"{name} must be > {minimum}, got {out}")
        if not strict and out < minimum:
            raise InputError(f"{name} must be >= {minimum}, got {out}")
    return out
