"""Number coercion and formatting shared across the package.

Currency amounts and probabilities are carried as `fractions.Fraction`
internally so closed forms, the simplex solver, and threshold comparisons
are exact.  The "float" mode converts at the reporting boundary: a float
is the correctly rounded value of an exact one, and text prints the exact
value's digits in both modes.
"""

from __future__ import annotations

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

from .errors import InputError

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

Num = Union[int, float, str, Fraction]


def as_fraction(value: Num) -> Fraction:
    """Coerce ints, Fractions, strings, and floats to an exact Fraction.

    Strings accept integers, decimals, and rationals written "p/q".
    Floats are read through their shortest decimal repr, so 0.1 means
    1/10 rather than the underlying binary expansion.
    """
    if isinstance(value, bool):
        raise InputError("booleans are not valid numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        try:
            return Fraction(repr(value))
        except (ValueError, OverflowError):
            raise InputError(f"non-finite value {value!r}") from None
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot parse number {value!r}") from None
    raise InputError(f"unsupported numeric type {type(value).__name__}")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InputError(f"unknown numeric mode {mode!r}; expected one of {MODES}")
    return mode


BEYOND_FLOAT_RANGE = "a number of magnitude 1.8e308 or more is beyond the float range"
SMALLEST_NORMAL = sys.float_info.min


def sig15(value) -> str:
    """Format a number with 15 significant digits (CSV convention).

    A float formats as `"%.15g"`; an int or a Fraction as `sig15_ratio` of
    its numerator and denominator.
    """
    if type(value) is float:
        return "%.15g" % value
    return sig15_ratio(value.numerator, value.denominator)


def sig15_ratio(numerator: int, denominator: int) -> str:
    """`sig15` of the number numerator/denominator (denominator > 0), which
    need not be in lowest terms.

    The digits are those of the nearest float, formatted as `"%.15g"`.  A
    non-zero ratio of magnitude below the smallest normal float, whose
    float keeps fewer digits or none, is rounded exactly instead.  A value
    beyond the float range is an input error.
    """
    try:
        f = numerator / denominator   # rounds correctly in any terms
    except OverflowError:
        raise InputError(BEYOND_FLOAT_RANGE) from None
    if -SMALLEST_NORMAL < f < SMALLEST_NORMAL and numerator:
        return _sig15_exact(numerator, denominator)
    return "%.15g" % f


def _sig15_exact(numerator: int, denominator: int) -> str:
    """numerator/denominator rounded half-even to 15 significant digits, in
    the `%.15g` layout of a magnitude below 1e-5: trailing zeros dropped,
    then e-XXX."""
    with localcontext() as ctx:
        ctx.prec = 15
        rounded = (Decimal(numerator) / denominator).normalize()
    return format(rounded, "e")
