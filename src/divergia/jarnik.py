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
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .funcs import FunctionFamily, bump_from_sets
from .intervals import IntervalUnion
from .scalars import EXACT_TYPES, TOL, as_integer, is_exact

_DOMAIN = (0, 1)


def _radius(q: int, alpha, extra_num: int = 1, extra_den: int = 1):
    """extra * q^(-alpha); exact when alpha is integral."""
    k = as_integer(alpha)
    if k is None:
        return extra_num / extra_den * q ** (-float(alpha))
    return Fraction(extra_num, extra_den * q ** k)


def _centered_set(q: int, radius) -> IntervalUnion:
    # a float radius puts the whole set, domain endpoints included, on the
    # float backend
    exact = is_exact(radius)
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
        a = 2 / self.theta
        # an exact alpha0 stays a Fraction, an integral float becomes an int
        return a if is_exact(a) or as_integer(a) is None else int(a)


def _level_reader(q, r_core, r_support, height=1):
    """The function x -> value at x of level q's bump sum, which is
    ``height`` within r_core of the nearest centre p/q, 0 from r_support on
    and linear between, with the level's constants worked out once; None
    where the supports of neighbouring centres partially merge, so that
    the level has to be materialized.

    Valid because for the radii in use, supports of distinct centers only
    overlap when the cores already cover the whole interval.  With exact
    radii an exact x = a/b is read on integers: the distance to the
    nearest centre is e/(b q) with e = min(r, b - r), r = a q mod b, and
    e is compared with the radii by cross-multiplying, so a Fraction is
    built only on a ramp.
    """
    exact = is_exact(r_support)
    spacing = Fraction(1, q) if exact else 1 / q
    if 2 * r_core >= spacing:
        return lambda x: height
    if 2 * r_support >= spacing:
        return None
    span = r_support - r_core
    if exact:
        core_num, core_den = r_core.numerator, r_core.denominator
        sup_num, sup_den = r_support.numerator, r_support.denominator

    def read(x):
        if exact and type(x) in EXACT_TYPES:
            b = x.denominator
            r = x.numerator * q % b
            e, bq = min(r, b - r), b * q
            if e * core_den <= core_num * bq:
                return height
            if e * sup_den >= sup_num * bq:
                return 0
            return height * (r_support - Fraction(e, bq)) / span
        p = min(max(round(x * q), 0), q)
        d = abs(x - (Fraction(p, q) if exact else p / q))
        if d <= r_core:
            return height
        if d >= r_support:
            return 0
        return height * (r_support - d) / span

    return read


def _level_sums(constants):
    """(value(n, x), increment(q)) of a family whose q-th increment is the
    bump sum of level q with ``constants(q)`` = (r_core, r_support,
    height).  Each level's reader and each materialized level are made
    once, under this rule's own lock, so the family's hooks hold no
    reference to the family; a level whose supports partially merge is
    read through its materialized increment, the one the family's rule
    folds.  Both read a level whose float radii are at most TOL apart as a
    ParameterError: its sets could not tell the core from the support."""
    readers, levels = {}, {}
    # reentrant: a merged level's reader materializes the level
    lock = threading.RLock()

    def checked(q):
        r_core, r_support, height = constants(q)
        gap = r_support - r_core
        if not is_exact(gap) and gap <= TOL:
            raise ParameterError(
                f"level q = {q}: radii {gap:.3g} apart, at or below float "
                f"resolution {TOL:g}")
        return r_core, r_support, height

    def increment(q):
        with lock:
            if q not in levels:
                # scaled even by height 1: Liouville's float 1.0 makes its
                # values float
                r_core, r_support, height = checked(q)
                levels[q] = bump_from_sets(
                    _centered_set(q, r_support),
                    _centered_set(q, r_core)).scale(height)
            return levels[q]

    def reader(q):
        with lock:
            if q not in readers:
                readers[q] = _level_reader(q, *checked(q)) \
                    or increment(q).eval
            return readers[q]

    def value(n, x):
        total = 0
        for q in range(1, n + 1):
            total += (readers.get(q) or reader(q))(x)
        return total

    return value, increment


def jarnik_family(params: JarnikParams) -> FunctionFamily:
    """rule(n) = sum over q = 1..n of the canonical bump that is 1 on the
    thin neighborhood of the rationals and 0 off the fat one."""
    alpha = params.alpha0

    def constants(q):
        return _radius(q, alpha), _radius(q, alpha, q + 1, q), 1

    sums, level = _level_sums(constants)

    def step_bound(q):
        return min(1.0, float(2 * (q + 1) * constants(q)[1]))

    return FunctionFamily(
        _DOMAIN, tag=f"jarnik(alpha0={alpha})", min_index=1,
        max_index=params.q_max, increment=level, value=sums,
        step_bound=step_bound)


@dataclass(frozen=True)
class LiouvilleParams:
    """Bumps at every p/q with width rho(q) = q^(-max(3, ln q)), decaying
    faster than any fixed power of q, and height 1/rho(q) so that every
    level contributes unit-order integral per bump."""

    q_max: int = 50

    def __post_init__(self):
        if not 1 <= self.q_max <= 500:
            raise ParameterError(
                "q_max must lie in [1, 500] so heights stay "
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

    def constants(q):
        rho = params.width(q)
        return rho / 2, rho, params.height(q)

    sums, level = _level_sums(constants)
    # the levels are float, so points are coerced to float
    return FunctionFamily(
        _DOMAIN, tag=f"liouville(q_max={params.q_max})", min_index=1,
        max_index=params.q_max, increment=level,
        value=lambda n, x: sums(n, float(x)))
