"""Dimension computations: the similarity-dimension equation for lists of
contraction ratios, and box-counting estimates for interval unions."""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

from .errors import ParameterError
from .intervals import IntervalUnion
from .scalars import format_scalar


def moran_dimension(ratios) -> float:
    """Unique s >= 0 with sum(c_i ** s) == 1, by bisection.

    The sum is strictly decreasing in s, equals len(ratios) >= 1 at s = 0,
    and drops below 1 once s is large enough; the upper bracket doubles
    until it does, with no cap: c ** s underflows long before s overflows.
    """
    ratios = [float(c) for c in ratios]
    if not ratios:
        raise ParameterError("need at least one contraction ratio")
    for c in ratios:
        if not 0 < c < 1:
            raise ParameterError(f"ratio {c} outside (0, 1)")

    def total(s):
        return math.fsum(c ** s for c in ratios)

    lo, hi = 0.0, 1.0
    while total(hi) > 1:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        t = total(mid)
        if abs(t - 1) <= 1e-12:
            return mid
        if t > 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def box_count(A: IntervalUnion, delta) -> int:
    """Number of half-open grid boxes [k*delta, (k+1)*delta) anchored at
    the domain's left endpoint that intersect A.

    A closed endpoint lying exactly on a box boundary belongs to the box
    on its right, which is the deterministic tie-break that makes counts
    portable; the grid never extends past the domain.

    The box index (a - lo) // delta of each end a comes from
    ``IntervalUnion._box_indices``, on integers for an exact set and an
    exact delta.  The indices of the ends in order never decrease, so each
    component shares at most the box it starts in with the one before.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    lo, hi = A.domain
    n_boxes = -((hi - lo) // -delta)  # ceil division
    last = int(n_boxes) - 1
    ks = A._box_indices(delta)
    # the grid stops at the domain's end
    past = bisect.bisect_right(ks, last)
    ks[past:] = [last] * (len(ks) - past)
    starts, ends = ks[::2], ks[1::2]
    return sum(ends) - sum(starts) + len(starts) - sum(
        map(operator.eq, starts[1:], ends))


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting regression result with its per-scale counts."""

    estimate: float
    counts: tuple  # ((delta, N(delta)), ...) with delta decreasing
    slope: float
    intercept: float
    residual: float
    low_confidence: bool = False

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "low_confidence": self.low_confidence,
            "counts": [[format_scalar(d), n] for d, n in self.counts],
        }


def box_dimension(A: IntervalUnion, scales) -> DimensionEstimate:
    """Least-squares slope of log N(delta) against log(1/delta), clamped
    to [0, 1]; flagged low-confidence when the counts never change.

    Needs at least four scales, at least two of them distinct: with one
    distinct scale the regression has no slope."""
    scales = sorted(scales, reverse=True)
    if len(scales) < 4:
        raise ParameterError("need at least four scales")
    if len(set(scales)) < 2:
        raise ParameterError("need at least two distinct scales")
    counts = [(d, box_count(A, d)) for d in scales]
    if any(n == 0 for _, n in counts):
        raise ParameterError("empty set has no box dimension")
    xs = [math.log(1 / float(d)) for d, _ in counts]
    ys = [math.log(n) for _, n in counts]
    n = len(xs)
    mean_x, mean_y = math.fsum(xs) / n, math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = math.fsum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    low_confidence = len({c for _, c in counts}) == 1
    estimate = min(1.0, max(0.0, slope))
    return DimensionEstimate(estimate=estimate, counts=tuple(counts),
                             slope=slope, intercept=intercept,
                             residual=residual,
                             low_confidence=low_confidence)
