"""Scalar backend helpers.

Values are either exact rationals (int / fractions.Fraction, closed under
+, * and comparison) or binary floats compared with absolute tolerance TOL.
Containers are homogeneous in one backend.  Where an exact container meets
a float one, the exact one is converted to float once, before any
comparison (``meet``), unless float resolution cannot hold it.
"""

from __future__ import annotations

from fractions import Fraction

#: absolute tolerance for float-backend comparisons
TOL = 1e-12
EXACT_TYPES = frozenset((int, Fraction))
SCALAR_TYPES = EXACT_TYPES | {float}


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_integer(x):
    """x as an int when it is integral (int, Fraction or float), else None."""
    integral = x.is_integer() if isinstance(x, float) else x.denominator == 1
    return int(x) if integral else None


def meet(a, b):
    """(a, b) with an exact one replaced by its ``as_float()`` when the
    other is not exact; ``as_float()`` is None where resolution fails."""
    if a.exact != b.exact:
        a, b = (a.as_float() or a, b) if a.exact else (a, b.as_float() or b)
    return a, b


def format_scalar(x) -> object:
    """JSON representation: exact values as "p/q" strings, floats as numbers."""
    if is_exact(x):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def parse_scalar(v) -> object:
    """Inverse of format_scalar; also accepts plain ints and decimal strings."""
    if isinstance(v, str):
        if "/" in v:
            num, den = v.split("/")
            return Fraction(int(num), int(den))
        return Fraction(v)
    if isinstance(v, int):
        return v
    return float(v)
