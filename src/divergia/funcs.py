"""Continuous piecewise-linear functions with exact integration, lazily
indexed monotone function families, and the bump construction that turns a
nested sequence of closed sets into such a family.

Canonical ramp rule for bumps (deterministic choice of the continuous
[0,1]-valued function that is 0 off the outer set and 1 on the inner set):
inside each outer component [A, B],

* value 1 on every inner sub-component;
* between two consecutive inner sub-components the value dips linearly to
  1/2 at the gap midpoint (a shallow tent);
* from an outer edge that is not a domain endpoint the value ramps
  linearly from 0 at the edge to 1 at the nearest inner endpoint;
* from an outer edge that coincides with a domain endpoint the value is 1
  at the endpoint and dips to 1/2 at the midpoint of the edge segment;
* outer components containing no inner component get value 0 throughout.

The mid-segment dip keeps partial sums of bumps strictly below N off the
N-th set of the nest (at any point interior to a complement segment),
which the plain "hold 1 across gaps" rule would violate.

``_component_knots`` is the one implementation of this rule: it gives the
knots on one outer component, which ``bump_from_sets`` concatenates and
the pointwise ``tietze_family`` value interpolates.  On exact inputs it
runs on integers: numerators over one common denominator, doubled so that
a dip (a + b) >> 1 stays an integer and the values 0, 1/2 and 1 are 0, 1
and 2.  ``bump_from_sets`` feeds it the scaled view of its nesting walk
and keeps the sets' endpoint objects as knots; the Tietze value passes
it the nest descent's doubled integers as they come, float nests
included, and divides once per answer: a Fraction on an exact nest at an
exact point, and otherwise the correctly rounded float.  Float sets and
views past ``_MAX_BITS`` run it on the objects.

``PiecewiseLinear.eval`` and ``integral`` rank a Fraction among float knots
by its float, and compare it exactly only with a knot equal to that float.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import truediv
from typing import Callable, Optional

from .errors import ConstructionError, ParameterError, require_same_domain
from .intervals import IntervalUnion
from .scalars import (EXACT_TYPES, SCALAR_TYPES, TOL, format_scalar,
                      is_exact, meet, parse_scalar)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by strictly increasing
    knots covering a compact domain."""

    xs: tuple
    ys: tuple

    def __init__(self, xs, ys):
        xs, ys = tuple(xs), tuple(ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ParameterError("need at least two knots")
        for i in range(1, len(xs)):
            if not xs[i - 1] < xs[i]:
                raise ParameterError(
                    f"knot abscissae must strictly increase at index {i}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def _trusted(cls, xs, ys, exact=None) -> "PiecewiseLinear":
        """The function on knots already known to be valid, as ``_merge``
        yields them, without the check of ``__init__``; ``exact``, when
        the caller knows it, is kept as its backend."""
        self = object.__new__(cls)
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "ys", tuple(ys))
        if exact is not None:
            object.__setattr__(self, "exact", exact)
        return self

    @classmethod
    def from_knots(cls, knots) -> "PiecewiseLinear":
        xs, ys = zip(*knots)
        return cls(xs, ys)

    @classmethod
    def constant(cls, domain, c) -> "PiecewiseLinear":
        lo, hi = domain
        return cls((lo, hi), (c, c))

    @property
    def domain(self):
        return (self.xs[0], self.xs[-1])

    @cached_property
    def exact(self) -> bool:
        return all(is_exact(v) for v in self.xs) and \
            all(is_exact(v) for v in self.ys)

    @cached_property
    def _float_xs(self) -> bool:
        return all(type(v) is float for v in self.xs)

    # -- evaluation -----------------------------------------------------

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        i, on = self._rank(x)
        if i == 0 or (i == len(self.xs) and not on):
            raise ParameterError(f"{x} outside domain {self.domain}")
        return self._at(x, i, on)

    def _rank(self, x):
        """(i, on): the number i of knots at or left of x, as
        ``bisect_right`` counts them, and whether x is knot i - 1.

        A Fraction x among float knots is ranked by float(x): rounding is
        monotone, so every knot other than one equal to float(x) lies on
        the same side of x as of float(x), and only that tie is compared
        exactly.  Each other comparison would build a Fraction of a knot.
        """
        xs = self.xs
        if isinstance(x, Fraction) and self._float_xs:
            try:
                f = float(x)
            except OverflowError:  # past every float: compare exactly
                f = x
            i = bisect.bisect_right(xs, f)
            if not i or xs[i - 1] != f:
                return i, False
            if x < f:
                return i - 1, False
            return i, x == f
        i = bisect.bisect_right(xs, x)
        return i, i > 0 and x == xs[i - 1]

    def _at(self, x, i, on):
        """The value at x, ranked i by ``_rank``, on the domain."""
        if on:
            return self.ys[i - 1]
        return _interpolate(x, self.xs[i - 1], self.xs[i],
                            self.ys[i - 1], self.ys[i])

    def min_value(self):
        return min(self.ys)

    def max_value(self):
        return max(self.ys)

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        xs, ys = [], []
        for x, a, b in _merge(self, other):
            xs.append(x)
            ys.append(a + b)
        # _merge yields at least two strictly increasing knots
        return PiecewiseLinear._trusted(xs, ys)

    def scale(self, c) -> "PiecewiseLinear":
        return PiecewiseLinear(self.xs, tuple(c * y for y in self.ys))

    def sub(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self.add(other.scale(-1))

    def as_float(self) -> Optional["PiecewiseLinear"]:
        """This function on floats; None when two knots round to one."""
        try:
            return PiecewiseLinear(map(float, self.xs), map(float, self.ys))
        except ParameterError:
            return None

    def integral(self, x, y):
        """Trapezoid integral over [x, y] (subset of the domain): exact on
        exact knots.  On float knots the arithmetic is float, so an exact
        cut enters it rounded to float(x), as a float cut would."""
        if x >= y:
            raise ParameterError(f"need x < y, got [{x}, {y}]")
        xs, ys = self.xs, self.ys
        i, on_x = self._rank(x)
        j, on_y = self._rank(y)
        if i == 0 or (j == len(xs) and not on_y):
            raise ParameterError(f"[{x}, {y}] outside domain {self.domain}")
        total = 0
        prev_x, prev_y = x, self._at(x, i, on_x)
        # the knots strictly between x and y
        for k in range(i, j - 1 if on_y else j):
            total += (ys[k] + prev_y) * (xs[k] - prev_x) / 2
            prev_x, prev_y = xs[k], ys[k]
        total += (self._at(y, j, on_y) + prev_y) * (y - prev_x) / 2
        return total

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {"knots": [[format_scalar(x), format_scalar(y)]
                          for x, y in zip(self.xs, self.ys)]}

    @classmethod
    def from_json(cls, doc: dict) -> "PiecewiseLinear":
        return cls.from_knots(
            [(parse_scalar(x), parse_scalar(y)) for x, y in doc["knots"]])


def _interpolate(x, x0, x1, y0, y1):
    """Value at x, x0 <= x <= x1, of the segment from (x0, y0) to (x1, y1):
    exactly what ``y0 + (y1 - y0) * (x - x0) / (x1 - x0)`` gives, type and
    sign of zero included."""
    if y0 != y1:
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    # flat segment: skip the arithmetic, not its type.  A float operand
    # makes the formula y0 + 0.0 (so -0.0 becomes 0.0), and a Fraction
    # with no float makes it a Fraction equal to y0; all-int operands give
    # a float through int / int, so they, and any other type, take the
    # formula.
    kinds = {type(y0), type(y1), type(x), type(x0), type(x1)}
    if float in kinds and kinds <= SCALAR_TYPES:
        return y0 + 0.0
    if Fraction in kinds and kinds <= EXACT_TYPES:
        return y0 if type(y0) is Fraction else Fraction(y0)
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _merge(f: PiecewiseLinear, g: PiecewiseLinear):
    """Yield (x, f(x), g(x)) at every knot of f or g, in increasing order.

    One walk over both knot tuples: a shared knot takes both stored values
    (and f's abscissa, should the two differ in type); elsewhere only the
    other function's current segment is interpolated.  The values are those
    ``eval`` gives, without a bisect per knot.
    """
    require_same_domain(f, g)
    fx, fy, gx, gy = f.xs, f.ys, g.xs, g.ys
    i = j = 0
    # equal domains: both walks start together and end on the same knot.
    # a < b is tested first: in a fold the running sum f holds most knots.
    while i < len(fx):
        a, b = fx[i], gx[j]
        if a < b:
            yield a, fy[i], _interpolate(a, gx[j - 1], b, gy[j - 1], gy[j])
            i += 1
        elif b < a:
            yield b, _interpolate(b, fx[i - 1], a, fy[i - 1], fy[i]), gy[j]
            j += 1
        else:
            yield a, fy[i], gy[j]
            i += 1
            j += 1


# ----------------------------------------------------------------------
# bump construction
# ----------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _object_dip(a, b, ref):
    """The dip of the object rule: the midpoint of [a, b], exact between
    two int ends as ``intervals._half`` gives it, at 1/2 in the backend of
    the inner endpoint ref."""
    x = Fraction(a + b, 2) if type(a) is int and type(b) is int \
        else a + (b - a) / 2
    return x, _HALF if is_exact(ref) else 0.5


def _integer_dip(a, b, ref):
    """The dip of the integer rule: on doubled numerators the midpoint is
    an integer, and the value 1/2 is 1."""
    return (a + b) >> 1, 1


def _component_knots(A, B, inners, lo, hi, dip=_object_dip, one=1):
    """Knots of the canonical bump on one outer component [A, B] of a
    domain [lo, hi], given its nonempty sorted inner sub-components.

    The rule runs on the endpoint objects, or on integer numerators over
    one common denominator, doubled so that every dip stays an integer:
    the caller passes ``_integer_dip`` and ``one`` = 2, and the values 0,
    1/2 and 1 come out as 0, 1 and 2.  Yields the knots in strictly
    increasing order, lazily, so that a pointwise caller computes only
    those left of its point; a repeated abscissa with a different value
    raises ConstructionError.  A float outer end within TOL of a domain
    end reaches it, as the nesting test of ``IntervalUnion._housed``
    counts it.
    """
    def raw():
        p1, qk = inners[0][0], inners[-1][1]
        tol = 0 if is_exact(A) else TOL
        if A > lo + tol:
            yield A, 0
        else:
            yield lo, one
            if p1 > A:
                yield dip(A, p1, p1)
        yield p1, one
        for (_, q), (a, _) in zip(inners, inners[1:]):
            yield q, one
            yield dip(q, a, q)
            yield a, one
        yield qk, one
        if B < hi - tol:
            yield B, 0
        else:
            if B > qk:
                yield dip(qk, B, qk)
            yield hi, one

    last = None
    for knot in raw():
        if last is not None and last[0] == knot[0]:
            if last[1] != knot[1]:
                raise ConstructionError(
                    f"conflicting knot values at x={knot[0]}")
            continue
        last = knot
        yield knot


def _segment(knots, x):
    """The knots (x0, y0) and (x1, y1) of the first segment of ``knots``
    that reaches x, for x at or right of the first knot."""
    x0, y0 = next(knots)
    for x1, y1 in knots:
        if x <= x1:
            break
        x0, y0 = x1, y1
    return x0, y0, x1, y1


def _numbered(pairs, U):
    """(numerator, object) for each component end of U, in order."""
    for (a, b), (u, v) in zip(pairs, U.components):
        yield a, u
        yield b, v


def bump_from_sets(outer: IntervalUnion, inner: IntervalUnion) -> PiecewiseLinear:
    """Canonical continuous [0,1]-valued function equal to 1 on ``inner``
    and 0 off ``outer``; requires inner inside the relative interior of
    outer; mixed-backend sets meet as floats.

    Exact sets run the rule on the doubled numerators of the view that
    the nesting walk reads; the knots keep the sets' endpoint objects, and
    only a dip becomes a new Fraction.  Float sets and views past
    ``_MAX_BITS`` run it on the objects."""
    outer, inner = meet(outer, inner)
    lo, hi = outer.domain
    (S, LO, HI, P, Q), housed = inner._housed(outer, True)
    # each inner component goes under the outer one that holds it, in order
    groups = {}
    for i, j in enumerate(housed):
        if j < 0:
            raise ConstructionError("inner set is not inside the relative "
                                    "interior of the outer set")
        groups.setdefault(j, []).append(i)

    exact = outer.exact and S
    if exact:
        # each end's object by its doubled numerator: where ends are equal
        # the rule yields lo, then the inner ends in order, then hi, and an
        # outer end only where it meets none of them; a dip is X over 2 S
        ends = {}
        for X, end in chain([(LO, lo)], _numbered(P, inner), [(HI, hi)],
                            _numbered(Q, outer)):
            ends.setdefault(X << 1, end)
        values, two = (0, _HALF, 1), S << 1
        pts = [(Fraction(X, two) if c == 1 else ends[X], values[c])
               for j, group in groups.items()
               for X, c in _component_knots(
                   Q[j][0] << 1, Q[j][1] << 1,
                   [(P[i][0] << 1, P[i][1] << 1) for i in group],
                   LO << 1, HI << 1, _integer_dip, 2)]
    else:
        pts = [knot for j, group in groups.items()
               for knot in _component_knots(
                   *outer.components[j],
                   [inner.components[i] for i in group], lo, hi)]
    if not pts or pts[0][0] > lo:
        pts.insert(0, (lo, 0))
    if pts[-1][0] < hi:
        pts.append((hi, 0))
    if exact:
        # the integer walk gives strictly increasing knots, all exact
        return PiecewiseLinear._trusted([x for x, _ in pts],
                                        [y for _, y in pts], exact=True)
    return PiecewiseLinear.from_knots(pts)


# ----------------------------------------------------------------------
# function families
# ----------------------------------------------------------------------

class FunctionFamily:
    """Lazily indexed nondecreasing sequence of piecewise-linear functions
    f_n = g_min + ... + g_n, n >= ``min_index`` (and <= ``max_index`` when
    given).

    The family is built from ``rule(n)``, which gives f_n, or from
    ``increment(n)``, which gives the summand g_n; without a ``rule``,
    ``rule(n)`` left-folds the summands onto the deepest memoized f_k with
    k < n, so only the functions callers ask for are kept.  ``rule`` and
    ``increment`` are memoized for every family; ``increment`` at the first
    index is ``rule(min_index)``, and without a hook it is the difference
    rule(n) - rule(n-1).  Indices and points are checked before any work.

    Optional hooks keep deep indices tractable:

    * ``value(n, x)`` evaluates pointwise without materializing rule(n);
    * ``step_bound(n)`` bounds the integral of increment(n) over any
      subinterval of the domain, enabling certified "never reaches the
      threshold" verdicts.
    """

    def __init__(self, domain, rule=None, tag="", min_index=1,
                 increment: Optional[Callable] = None,
                 value: Optional[Callable] = None,
                 step_bound: Optional[Callable] = None,
                 max_index: Optional[int] = None):
        if rule is None and increment is None:
            raise ParameterError("a family needs a rule or an increment")
        self.domain = tuple(domain)
        self.tag = tag
        self.min_index = min_index
        self.max_index = max_index
        self._rule = rule
        self._increment = increment
        self._value = value
        self.step_bound = step_bound
        self.info = {}
        self._memo = {}
        self._increments = {}
        # reentrant: the fold and the default increment call rule again
        self._lock = threading.RLock()

    def _check(self, n: int, *points):
        if n < self.min_index:
            raise ParameterError(
                f"index {n} below first index {self.min_index}")
        if self.max_index is not None and n > self.max_index:
            raise ParameterError(
                f"index {n} exceeds q_max = {self.max_index}")
        lo, hi = self.domain
        for x in points:
            if not lo <= x <= hi:
                raise ParameterError(f"{x} outside domain {self.domain}")

    def rule(self, n: int) -> PiecewiseLinear:
        self._check(n)
        with self._lock:
            if n not in self._memo:
                self._memo[n] = self._rule(n) if self._rule is not None \
                    else self._fold(n)
            return self._memo[n]

    def _fold(self, n: int) -> PiecewiseLinear:
        k = max((k for k in self._memo if k < n), default=self.min_index)
        if k not in self._memo:
            self._memo[k] = self._increment(k)
        acc = self._memo[k]
        for q in range(k + 1, n + 1):
            acc = acc.add(self.increment(q))
        return acc

    def value(self, n: int, x):
        self._check(n, x)
        return self._read(n, x)

    def _read(self, n: int, x):
        """``value(n, x)`` for a caller that has checked n and x."""
        if self._value is not None:
            return self._value(n, x)
        return self.rule(n).eval(x)

    def increment(self, n: int) -> PiecewiseLinear:
        """rule(n) - rule(n-1), and rule(n) at the first index."""
        self._check(n)
        with self._lock:
            if n not in self._increments:
                if n == self.min_index:
                    inc = self.rule(n)
                elif self._increment is not None:
                    inc = self._increment(n)
                else:
                    inc = self.rule(n).sub(self.rule(n - 1))
                self._increments[n] = inc
            return self._increments[n]


@dataclass(frozen=True)
class MonotoneReport:
    ok: bool
    n_checked: int
    first_violation: Optional[tuple] = None  # (n, x, negative gap)

    def __bool__(self):
        return self.ok


def monotone_check(fam: FunctionFamily, n_max: int) -> MonotoneReport:
    """Verify rule(n+1) >= rule(n) - TOL for all n up to n_max.

    rule(n+1) - rule(n) is the memoized ``increment(n+1)``, and a
    piecewise-linear function takes its minimum at a knot, so each
    increment is read at its knots in order and the first value below -TOL
    is reported; no partial sum is built and no grid is sampled.  At
    n_max = min_index there is nothing to compare, and the check passes.
    """
    fam._check(n_max)
    for n in range(fam.min_index, n_max):
        inc = fam.increment(n + 1)
        for x, d in zip(inc.xs, inc.ys):
            if d < -TOL:
                return MonotoneReport(False, n_checked=n,
                                      first_violation=(n, x, d))
    return MonotoneReport(True, n_checked=n_max)


def tietze_family(nest) -> FunctionFamily:
    """Partial sums of canonical bumps over the levels D_i of a
    ``CantorNest``: D_0 = domain, D_{n+1} inside the relative interior of
    D_n, and rule(n) = sum_{i=0}^{n} bump(D_i, D_{i+1}); on the infinite
    intersection the n-th partial sum equals n + 1, and off D_N every
    partial sum stays strictly below N at interior points.
    """
    domain = nest.params.domain
    exact = nest.params.exact

    def delta(i):
        try:
            return bump_from_sets(nest.level(i), nest.level(i + 1))
        except ConstructionError as err:
            raise ConstructionError(f"level {i}: {err}") from err

    def value(n, x):
        # bump i is 1 while x lies in a child of its level-i component;
        # at the level k where x leaves the nest all deeper bumps vanish.
        # The descent decides that on integers, one level past n, and
        # hands the rule its exit component, children and x doubled over
        # D: the value k + y/2 at x, with y interpolated, is one quotient
        # of integers, a Fraction on an exact nest at an exact x and
        # otherwise rounded once
        k, A, B, children, X, D = nest._descent(n + 1, x)
        if k > n:
            return n + 1
        x0, y0, x1, y1 = _segment(_component_knots(
            A, B, children, 0, D, _integer_dip, 2), X)
        h = x1 - x0
        to = Fraction if exact and is_exact(x) else truediv
        return to((2 * k + y0) * h + (y1 - y0) * (X - x0), 2 * h)

    def step_bound(n):
        # bump n is <= 1 and supported on level n
        return float(nest.measure_level(n))

    tag = f"cantor-tietze(theta={nest.params.theta})"
    return FunctionFamily(domain, tag=tag, min_index=0, increment=delta,
                          value=value, step_bound=step_bound)


def constant_family(domain, values: Callable[[int], object]) -> FunctionFamily:
    """Family of constant functions n -> values(n)."""
    return FunctionFamily(
        domain,
        lambda n: PiecewiseLinear.constant(domain, values(n)),
        tag="constant",
        value=lambda n, x: values(n),
    )
