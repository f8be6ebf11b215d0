"""Object references for the exact function kernels and the nest descent.

The library runs the ramp rule of ``divergia.funcs`` and the descent of
``divergia.ifs`` on integer numerators where it can; these references run
the same rule on the endpoint objects, written out as a list, and the
descent as a walk through composed Fraction similarities, so that the
integer paths are compared with an independent copy of each rule rather
than with themselves.  A float nest is the exact nest of its dyadic m and
eps, so its references run on their exact values and round once.
``deepest_component`` converts the library's descent into the components
the tests compare with the levels and with these walks.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from operator import truediv

from divergia import ConstructionError, PiecewiseLinear
from divergia.scalars import TOL, is_exact, meet


def _mid(a, b):
    # the exact midpoint between two int ends, as intervals._half gives it
    if type(a) is int and type(b) is int:
        return Fraction(a + b, 2)
    return a + (b - a) / 2


def _half(ref):
    return Fraction(1, 2) if is_exact(ref) else 0.5


def reference_component_knots(A, B, inners, lo, hi):
    """The canonical bump's knots on the outer component [A, B] of the
    domain [lo, hi], over the sorted inner components ``inners``: 1 on each
    inner component, a dip to 1/2 at the midpoint of each gap, a ramp from
    0 at an outer end inside the domain, and a dip to 1/2 next to an outer
    end at a domain end (within TOL on floats).  Equal abscissae keep the
    first knot, and a different value there raises ConstructionError."""
    tol = 0 if is_exact(A) else TOL
    pts = []
    if A > lo + tol:
        pts.append((A, 0))
    else:
        pts.append((lo, 1))
        if inners[0][0] > A:
            pts.append((_mid(A, inners[0][0]), _half(inners[0][0])))
    prev = None
    for a, b in inners:
        if prev is not None:
            pts.append((_mid(prev, a), _half(prev)))
        pts += [(a, 1), (b, 1)]
        prev = b
    if B < hi - tol:
        pts.append((B, 0))
    else:
        if B > prev:
            pts.append((_mid(prev, B), _half(prev)))
        pts.append((hi, 1))
    out = []
    for x, y in pts:
        if out and out[-1][0] == x:
            if out[-1][1] != y:
                raise ConstructionError(f"conflicting knot values at x={x}")
            continue
        out.append((x, y))
    return out


def reference_bump(outer, inner):
    """The bump of ``inner`` in ``outer`` after meet, each inner component
    grouped under the outer one found by a bisect over outer's starts, by
    the reference rule."""
    outer, inner = meet(outer, inner)
    lo, hi = outer.domain
    starts = [c for c, _ in outer.components]
    groups = {}
    for comp in inner.components:
        j = bisect.bisect_right(starts, comp[0]) - 1
        groups.setdefault(j, []).append(comp)
    pts = [knot for j, inners in groups.items()
           for knot in reference_component_knots(*outer.components[j], inners,
                                                 lo, hi)]
    if not pts or pts[0][0] > lo:
        pts.insert(0, (lo, 0))
    if pts[-1][0] < hi:
        pts.append((hi, 0))
    return PiecewiseLinear.from_knots(pts)


def reference_maps(nest):
    """The two maps x -> m*(x + eps) and x -> 1 - m*(x + eps) of the exact
    values of m and eps, as pairs (ratio, offset)."""
    m, eps = Fraction(nest.params.m), Fraction(nest.params.eps)
    return (m, m * eps), (-m, 1 - m * eps)


@functools.cache
def reference_children(nest, ratio, offset):
    """Children of the image of [0, 1] under x -> ratio*x + offset, kept
    for the walks of the next points."""
    out = []
    for r, o in reference_maps(nest):
        c, t = ratio * r, ratio * o + offset
        a, b = (t, c + t) if c >= 0 else (c + t, t)
        out.append(((c, t), (a, b)))
    out.sort(key=lambda item: item[1][0])
    return tuple(out)


def reference_deepest_component(nest, n, x):
    """The descent of the nest's exact values as a walk through the
    composed Fraction similarities, one pair of children per level, from
    the int domain (0, 1)."""
    ratio, offset = 1, 0
    interval = (0, 1)
    children = reference_children(nest, ratio, offset)
    for k in range(n):
        for (c, t), (a, b) in children:
            if a <= x <= b:
                ratio, offset, interval = c, t, (a, b)
                break
        else:
            return k, interval, [iv for _, iv in children]
        children = reference_children(nest, ratio, offset)
    return n, interval, [iv for _, iv in children]


#: the knots of an exit component, kept for the next points that leave there
_exit_knots = functools.cache(reference_component_knots)


def reference_tietze_value(nest, n, x):
    """value(n, x) of the Tietze family of the nest's exact values for an
    exact x: the similarity walk, the reference rule on the exit component
    over the exact domain, and the interpolation formula; the int n + 1
    when x stays in the nest past level n."""
    k, (A, B), children = reference_deepest_component(nest, n + 1, x)
    if k > n:
        return n + 1
    knots = _exit_knots(A, B, tuple(children), 0, 1)
    j = next(j for j in range(1, len(knots)) if x <= knots[j][0])
    (x0, y0), (x1, y1) = knots[j - 1], knots[j]
    return k + (y0 + (y1 - y0) * (x - x0) / (x1 - x0))


def reference_rounded_value(nest, n, x):
    """value(n, x) of the nest's Tietze family for a float nest or a float
    x: the exact value at the exact value of x, rounded once to a float;
    n + 1 when x stays in the nest past level n."""
    value = reference_tietze_value(nest, n, Fraction(x))
    return value if type(value) is int else float(value)


def deepest_component(nest, n, x):
    """The library's descent of x through at most n levels as (k,
    component, children), each end of its integers over their one
    denominator D converted once: ``Fraction(A, D)`` on an exact nest and
    the correctly rounded ``A / D`` on a float nest, as the levels are
    converted.  The level-0 component is the domain, in its own
    objects."""
    k, A, B, children, _, D = nest._descent(n, x)
    to = Fraction if nest.params.exact else truediv
    children = [(to(a, D), to(b, D)) for a, b in children]
    if k == 0:
        return 0, nest.params.domain, children
    return k, (to(A, D), to(B, D)), children
