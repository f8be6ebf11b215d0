"""Scalar backend helpers.

Values are either exact rationals (int / fractions.Fraction, closed under
+, * and comparison) or binary floats compared with absolute tolerance TOL.
Containers are homogeneous in one backend; mixing an exact value with a
float silently demotes the computation to the float backend, which matches
Python's own numeric promotion rules.
"""

from __future__ import annotations

from fractions import Fraction

#: absolute tolerance for float-backend comparisons
TOL = 1e-12


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


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
