"""Family combinators and finite-scale verification of the defining
max-family conditions: pointwise divergence thresholding, per-subinterval
integral growth, and superlevel-set structure.

Divergence and integral divergence are not decidable from finite data, so
every verdict here is a surrogate at explicit thresholds (defaults M = 10,
N = 30, ten equal subintervals) that are echoed into each report.  A
"not reached" row is *certified* when the family supplies per-step
integral bounds whose tail provably cannot close the remaining gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Optional

from .errors import ParameterError, require_same_domain
from .funcs import (FunctionFamily, MonotoneReport, PiecewiseLinear,
                    constant_family, monotone_check, tietze_family)
from .ifs import CantorParams, cantor_nest
from .intervals import IntervalUnion
from .jarnik import LiouvilleParams, liouville_family
from .scalars import format_scalar, meet


# ----------------------------------------------------------------------
# combinators
# ----------------------------------------------------------------------

def sum_family(f: FunctionFamily, g: FunctionFamily) -> FunctionFamily:
    """Indexwise sum over the indices both inputs have, with ``value``
    equal to the sum of the inputs' values and knots merged once the
    summands meet by ``scalars.meet``.

    For families bounded below the divergence set of the sum is the union
    of the inputs' divergence sets; that is a limit statement.  At a finite
    (M, N) the flags of nonnegative summands only obey the sandwich
    flags_M(f) | flags_M(g) <= flags_M(f+g) <= flags_M/2(f) | flags_M/2(g):
    the sum can exceed M where neither summand does.
    """
    require_same_domain(f, g)
    min_index = max(f.min_index, g.min_index)
    # a max_index of None is unbounded
    max_index = min((k for k in (f.max_index, g.max_index) if k is not None),
                    default=None)

    return FunctionFamily(
        f.domain,
        # the first increment is this rule, so it keeps bumps below min_index
        lambda n: PiecewiseLinear.add(*meet(f.rule(n), g.rule(n))),
        tag=f"sum({f.tag}, {g.tag})",
        min_index=min_index, max_index=max_index,
        increment=lambda n: PiecewiseLinear.add(
            *meet(f.increment(n), g.increment(n))),
        # the sum's index range and domain hold the inputs' checks
        value=lambda n, x: f._read(n, x) + g._read(n, x),
    )


# ----------------------------------------------------------------------
# superlevel sets
# ----------------------------------------------------------------------

def superlevel_set(f: PiecewiseLinear, M) -> IntervalUnion:
    """Closure of {x : f(x) > M} as an interval union (openness is not
    tracked; isolated touch points where f merely reaches M vanish)."""
    comps = []
    for i in range(len(f.xs) - 1):
        x0, x1 = f.xs[i], f.xs[i + 1]
        y0, y1 = f.ys[i], f.ys[i + 1]
        if y0 <= M and y1 <= M:
            continue
        if y0 > M and y1 > M:
            comps.append((x0, x1))
            continue
        xc = x0 + (M - y0) * (x1 - x0) / (y1 - y0)
        comps.append((x0, xc) if y0 > M else (xc, x1))
    return IntervalUnion(f.domain, comps)


# ----------------------------------------------------------------------
# divergence-set estimation
# ----------------------------------------------------------------------

def _check_threshold(M):
    # inf and nan settle no row, and every row reaches M <= 0 at once
    if not 0 < M < inf:
        raise ParameterError(f"M must be finite and positive, got {M}")


def default_grid(domain, points: int = 1000, q_max: int = 20):
    """Equispaced points plus all reduced rationals p/q with q <= q_max,
    mapped affinely onto the domain."""
    if points < 1:
        raise ParameterError(f"points must be >= 1, got {points}")
    if q_max < 0:
        raise ParameterError(f"q_max must be >= 0, got {q_max}")
    lo, hi = domain
    # each t in [0, 1] as its numerator over L, sorted as integers
    L = lcm(points, *range(1, q_max + 1))
    keys = set(range(0, L + 1, L // points))
    for q in range(1, q_max + 1):
        keys.update(p * (L // q) for p in range(q + 1) if gcd(p, q) == 1)
    span = hi - lo
    if isinstance(span, float):
        # float ends make every point a float: span * t converts t first,
        # and k / L rounds as float(Fraction(k, L)) does
        return [lo + span * (k / L) for k in sorted(keys)]
    return [Fraction(lo * L + span * k, L) for k in sorted(keys)]


@dataclass(frozen=True)
class DivergenceEstimate:
    """Thresholded snapshot of a family: which grid points exceed M at
    index N.  This is a superset-converging approximation of the true
    divergence set, not the set itself."""

    points: tuple
    values: tuple
    flags: tuple
    M: object
    N: int
    tag: str = ""
    note: str = ("flagged set approximates the divergence set from above; "
                 "membership at finite (M, N) is not exact")

    def flagged_points(self):
        return [x for x, f in zip(self.points, self.flags) if f]

    def to_json(self) -> dict:
        return {
            "M": float(self.M), "N": self.N, "family": self.tag,
            "note": self.note,
            "points": [[format_scalar(x), float(v), bool(f)]
                       for x, v, f in
                       zip(self.points, self.values, self.flags)],
        }


def divergence_estimate(fam: FunctionFamily, M=10, N=30,
                        grid=None) -> DivergenceEstimate:
    _check_threshold(M)
    if grid is None:
        grid = default_grid(fam.domain)
    fam._check(N, *grid)
    values = tuple(fam._read(N, x) for x in grid)
    # an exact value meets M as one Fraction, not one from_float per value
    exact_M = Fraction(M)
    flags = tuple(v > (exact_M if type(v) is Fraction else M)
                  for v in values)
    return DivergenceEstimate(points=tuple(grid), values=values, flags=flags,
                              M=M, N=N, tag=fam.tag)


# ----------------------------------------------------------------------
# max-family surrogate check
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubintervalRow:
    x: object
    y: object
    reached_at: Optional[int]          # smallest n with integral > M
    certified_not_reached: bool        # tail bound proves M is unreachable
    integrals: tuple                   # (n, integral) pairs, ascending in n

    @property
    def reached(self) -> bool:
        return self.reached_at is not None


@dataclass(frozen=True)
class MaxFamilyReport:
    monotone: MonotoneReport
    rows: tuple
    M: object
    n_max: int
    tag: str = ""
    grid_note: str = "ten equal subintervals of the domain"

    @property
    def all_reached(self) -> bool:
        return all(r.reached for r in self.rows)

    def to_json(self) -> dict:
        return {
            "family": self.tag, "M": float(self.M), "N_max": self.n_max,
            "grid": self.grid_note,
            "monotone": self.monotone.ok,
            "rows": [{
                "x": format_scalar(r.x), "y": format_scalar(r.y),
                "reached_at": r.reached_at,
                "certified_not_reached": r.certified_not_reached,
                "integrals": [[n, float(v)] for n, v in r.integrals],
            } for r in self.rows],
        }


def max_family_check(fam: FunctionFamily, M=10, n_max=30,
                     subintervals=None) -> MaxFamilyReport:
    """Per-subinterval search for the smallest n whose integral exceeds M,
    scanning incrementally so that deep indices are touched only when a
    subinterval actually needs them."""
    _check_threshold(M)
    fam._check(n_max)
    if subintervals is None:
        cuts = default_grid(fam.domain, points=10, q_max=1)
        subintervals = list(zip(cuts, cuts[1:]))
        grid_note = "ten equal subintervals of the domain"
    else:
        subintervals = [tuple(s) for s in subintervals]
        grid_note = f"{len(subintervals)} caller-supplied subintervals"
    if not subintervals:
        raise ParameterError("need at least one subinterval")
    lo, hi = fam.domain
    for x, y in subintervals:
        if not lo <= x < y <= hi:
            raise ParameterError(f"subinterval [{x}, {y}] not in [{lo}, {hi}]")

    # the step bounds of levels min_index+1..n_max: the sum of those past
    # n bounds everything they can still add
    bounds = None if fam.step_bound is None else [
        fam.step_bound(k) for k in range(fam.min_index + 1, n_max + 1)]

    rows = []
    deepest = fam.min_index
    for x, y in subintervals:
        running = 0
        column = []
        reached_at = None
        certified = False
        for n in range(fam.min_index, n_max + 1):
            running = running + fam.increment(n).integral(x, y)
            column.append((n, running))
            deepest = max(deepest, n)
            if running > M:
                reached_at = n
                break
            if bounds is not None and float(running) + sum(
                    bounds[n - fam.min_index:]) <= float(M):
                certified = True
                break
        rows.append(SubintervalRow(x=x, y=y, reached_at=reached_at,
                                   certified_not_reached=certified,
                                   integrals=tuple(column)))

    # the scan memoized every increment up to the deepest index
    monotone = monotone_check(fam, deepest)

    return MaxFamilyReport(monotone=monotone, rows=tuple(rows), M=M,
                           n_max=n_max, tag=fam.tag, grid_note=grid_note)


# ----------------------------------------------------------------------
# assembled families with prescribed divergence-set dimension
# ----------------------------------------------------------------------

def anydh_family(theta,
                 liouville_params: Optional[LiouvilleParams] = None,
                 ) -> FunctionFamily:
    """Max-family whose divergence set has Hausdorff dimension theta and
    splits into a nowhere dense part (Cantor-type nest) and a dense part
    of dimension zero (super-polynomial rational bumps).

    theta = 0 degenerates to the zero-dimension family alone; theta = 1
    uses the constant family n in place of the nest part.
    """
    if not 0 <= theta <= 1:
        raise ParameterError(f"theta must lie in [0, 1], got {theta}")
    z = liouville_family(liouville_params)
    if theta == 0:
        z.tag = "anydh(theta=0)"
        return z
    if theta == 1:
        d = constant_family(z.domain, lambda n: n)
    else:
        d = tietze_family(cantor_nest(CantorParams(theta)))
    fam = sum_family(d, z)
    fam.tag = f"anydh(theta={theta})"
    return fam
