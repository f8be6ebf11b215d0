from fractions import Fraction

import pytest

from divergia import CantorParams, JarnikParams
from divergia.scalars import as_integer


@pytest.mark.parametrize("x, want", [
    (4, 4), (Fraction(4), 4), (4.0, 4), (Fraction(9, 2), None), (4.5, None),
])
def test_as_integer(x, want):
    got = as_integer(x)
    assert got == want and type(got) is type(want)


# (theta, m, exact, alpha0): an integral 1/theta gives an exact ratio, and
# alpha0 = 2/theta stays a Fraction for an exact theta and becomes an int
# for an integral float
PARAMS = [
    (Fraction(1, 2), Fraction(1, 4), True, Fraction(4)),
    (0.5, Fraction(1, 4), True, 4),
    (Fraction(2, 5), 0.1767766952966369, False, Fraction(5)),
    (0.4, 0.1767766952966369, False, 5),
    (Fraction(3, 10), 0.09921256574801246, False, Fraction(20, 3)),
]


@pytest.mark.parametrize("theta, m, exact, alpha0", PARAMS)
def test_integral_ratio_and_alpha0(theta, m, exact, alpha0):
    p = CantorParams(theta)
    assert type(p.m) is type(m) and p.m == m
    assert p.exact is exact
    got = JarnikParams(theta).alpha0
    assert type(got) is type(alpha0) and got == alpha0
