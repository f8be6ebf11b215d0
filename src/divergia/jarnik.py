"""Rational-neighborhood sets on [0, 1] and the function families built on
them: the well-approximable family (bumps around p/q with polynomially
shrinking radii) and the zero-dimension family (super-polynomially
shrinking radii with reciprocal heights).

For alpha > 2, the distance-to-nearest-integer condition |qx| <= q^(1-a)
describes the union over p = 0..q of intervals |x - p/q| <= q^(-a); the
slightly fattened variant with radius (q+1) * q^(-a-1) strictly contains
the closure of the thin one, which is what the bump construction needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError
from .funcs import FunctionFamily, bump_from_sets
from .intervals import IntervalUnion

_DOMAIN = (0, 1)


def _radius(q: int, alpha, extra_num: int = 1, extra_den: int = 1):
    """extra * q^(-alpha); exact when alpha is integral."""
    if isinstance(alpha, (int, Fraction)) and Fraction(alpha).denominator == 1:
        alpha = int(alpha)
    elif isinstance(alpha, float) and alpha.is_integer():
        alpha = int(alpha)
    if isinstance(alpha, int):
        return Fraction(extra_num, extra_den * q ** alpha)
    return extra_num / extra_den * q ** (-float(alpha))


def _centered_set(q: int, radius) -> IntervalUnion:
    # a float radius puts the whole set, domain endpoints included, on the
    # float backend
    exact = isinstance(radius, Fraction)
    lo, hi = _DOMAIN if exact else map(float, _DOMAIN)
    comps = []
    for p in range(q + 1):
        c = Fraction(p, q) if exact else p / q
        comps.append((max(lo, c - radius), min(hi, c + radius)))
    return IntervalUnion((lo, hi), comps)


def _check_q_alpha(q: int, alpha):
    if q < 1:
        raise ParameterError(f"q must be a positive integer, got {q}")
    if not alpha > 2:
        raise ParameterError(f"alpha must exceed 2, got {alpha}")


def y_set(q: int, alpha) -> IntervalUnion:
    """{x in [0,1] : |qx| <= q^(1-alpha)} as a union of closed intervals."""
    _check_q_alpha(q, alpha)
    return _centered_set(q, _radius(q, alpha))


def z_set(q: int, alpha) -> IntervalUnion:
    """Fattened variant with radius (q+1)/q * q^(-alpha); its interior
    contains the closure of y_set(q, alpha)."""
    _check_q_alpha(q, alpha)
    return _centered_set(q, _radius(q, alpha, extra_num=q + 1, extra_den=q))


@dataclass(frozen=True)
class JarnikParams:
    """theta in (0, 1) fixes the target dimension; alpha0 = 2/theta > 2."""

    theta: object
    q_max: int = 100

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ParameterError(f"theta must lie in (0, 1), got {self.theta}")
        if self.q_max < 1:
            raise ParameterError("q_max must be >= 1")

    @property
    def alpha0(self):
        if isinstance(self.theta, (int, Fraction)):
            return 2 / Fraction(self.theta)
        a = 2 / self.theta
        return int(a) if a.is_integer() else a


def _bump_value_at(x, q, r_core, r_support, height=1):
    """Pointwise value of one level's bump sum without materializing it.

    Valid because for the radii in use, supports of distinct centers only
    overlap when the cores already cover the whole interval.
    """
    spacing = Fraction(1, q) if isinstance(r_support, Fraction) else 1 / q
    if 2 * r_core >= spacing:
        return height
    if 2 * r_support >= spacing:
        raise ParameterError(
            "partially merged supports need materialized evaluation")
    p = round(x * q)
    p = min(max(p, 0), q)
    c = Fraction(p, q) if isinstance(r_support, Fraction) else p / q
    d = abs(x - c)
    if d <= r_core:
        return height
    if d >= r_support:
        return 0
    return height * (r_support - d) / (r_support - r_core)


def _level_sums(fam, pointwise, n, x):
    """Pointwise value at index n of ``fam``, whose q-th increment is the
    bump sum of level q: ``pointwise(q, x)`` evaluates level q without
    materializing it and raises ParameterError where it cannot, in which
    case the memoized increment of the family is evaluated."""
    total = 0
    for q in range(1, n + 1):
        try:
            total += pointwise(q, x)
        except ParameterError:
            total += fam.increment(q).eval(x)
    return total


def jarnik_family(params: JarnikParams) -> FunctionFamily:
    """rule(n) = sum over q = 1..n of the canonical bump that is 1 on the
    thin neighborhood of the rationals and 0 off the fat one."""
    alpha = params.alpha0

    def fat_radius(q):
        return _radius(q, alpha, extra_num=q + 1, extra_den=q)

    def pointwise(q, x):
        return _bump_value_at(x, q, _radius(q, alpha), fat_radius(q))

    def step_bound(q):
        return min(1.0, float(2 * (q + 1) * fat_radius(q)))

    fam = FunctionFamily(
        _DOMAIN, tag=f"jarnik(alpha0={alpha})", min_index=1,
        max_index=params.q_max,
        increment=lambda q: bump_from_sets(z_set(q, alpha), y_set(q, alpha)),
        value=lambda n, x: _level_sums(fam, pointwise, n, x),
        step_bound=step_bound)
    return fam


@dataclass(frozen=True)
class LiouvilleParams:
    """Bumps at every p/q with width rho(q) = q^(-max(3, ln q)), decaying
    faster than any fixed power of q, and height 1/rho(q) so that every
    level contributes unit-order integral per bump."""

    q_max: int = 50
    float_q_cap: int = field(default=500, repr=False)

    def __post_init__(self):
        if not 1 <= self.q_max <= self.float_q_cap:
            raise ParameterError(
                f"q_max must lie in [1, {self.float_q_cap}] so heights stay "
                f"representable, got {self.q_max}")

    def width(self, q: int) -> float:
        return float(q) ** (-max(3.0, math.log(q))) if q > 1 else 1.0

    def height(self, q: int) -> float:
        return 1.0 / self.width(q)


def liouville_family(params: LiouvilleParams = None) -> FunctionFamily:
    """Max-family whose divergence set has Hausdorff dimension zero.

    Level q adds bumps of height h(q) = 1/rho(q) on cores of half-width
    rho(q)/2 around every p/q, supported within radius rho(q); the
    integral of each interior bump is 1.5, so partial-sum integrals over
    any subinterval grow quadratically in the index while the divergence
    set is squeezed into every polynomial-rate approximation set.
    """
    if params is None:
        params = LiouvilleParams()

    def level(q):
        rho = params.width(q)
        outer = _centered_set(q, rho)
        inner = _centered_set(q, rho / 2)
        return bump_from_sets(outer, inner).scale(params.height(q))

    def pointwise(q, x):
        rho = params.width(q)
        return _bump_value_at(x, q, rho / 2, rho, height=params.height(q))

    # the levels are float, so points are coerced to float
    fam = FunctionFamily(
        _DOMAIN, tag=f"liouville(q_max={params.q_max})", min_index=1,
        max_index=params.q_max, increment=level,
        value=lambda n, x: _level_sums(fam, pointwise, n, float(x)))
    return fam
