"""Exact set algebra over finite unions of closed subintervals of [lo, hi].

An IntervalUnion is kept in canonical form: components sorted, pairwise
disjoint and strictly separated (touching or overlapping components are
merged).  Degenerate components [a, a] are allowed; they contribute zero
measure.  On the float backend, components whose gap is below TOL are
merged to avoid spurious slivers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ParameterError, require_same_domain
from .scalars import TOL, format_scalar, is_exact, meet, parse_scalar


def _canonicalize(components, lo, hi, exact):
    comps = []
    for a, b in sorted(components):
        if b < a:
            raise ParameterError(f"interval [{a}, {b}] has negative length")
        if a < lo or b > hi:
            if exact or a < lo - TOL or b > hi + TOL:
                raise ParameterError(
                    f"component [{a}, {b}] escapes domain [{lo}, {hi}]")
            a, b = max(a, lo), min(b, hi)
        if comps and a <= (comps[-1][1] if exact else comps[-1][1] + TOL):
            comps[-1] = (comps[-1][0], max(comps[-1][1], b))
        else:
            comps.append((a, b))
    return tuple(comps)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite disjoint union of closed intervals inside a fixed domain; on
    the exact backend when the domain ends and all endpoints are exact."""

    domain: tuple
    components: tuple
    exact: bool

    def __init__(self, domain, components=()):
        lo, hi = domain
        if not lo < hi:
            raise ParameterError(f"domain [{lo}, {hi}] must have lo < hi")
        components = [tuple(c) for c in components]
        exact = is_exact(lo) and is_exact(hi) and all(
            is_exact(a) and is_exact(b) for a, b in components)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(
            self, "components", _canonicalize(components, lo, hi, exact))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, domain, numerators, denominator):
        """The union of the components [a/S, b/S], S = ``denominator``, of
        integer pairs (a, b) that are already canonical: sorted, strictly
        separated and inside the exact domain.  One pass checks that on the
        integers (a/S is monotone in a), with no sort, and raises
        ParameterError otherwise."""
        lo, hi = domain
        start, top = lo * denominator, hi * denominator
        for a, b in numerators:
            if not start <= a <= b <= top:
                raise ParameterError(f"[{a}, {b}] over {denominator} is out "
                                     f"of canonical order in [{lo}, {hi}]")
            start = b + 1  # the least integer strictly past b
        self = object.__new__(cls)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "exact", True)
        object.__setattr__(self, "components", tuple(
            (Fraction(a, denominator), Fraction(b, denominator))
            for a, b in numerators))
        return self

    @classmethod
    def empty(cls, domain):
        return cls(domain, ())

    @classmethod
    def full(cls, domain):
        return cls(domain, (tuple(domain),))

    # -- basic queries --------------------------------------------------

    def is_empty(self) -> bool:
        return not self.components

    def measure(self):
        """Total length of all components (0 for the empty set)."""
        return sum((b - a for a, b in self.components), 0)

    @cached_property
    def _starts(self):
        """Left endpoints of the components, built at the first point
        query and kept, so that each query is one bisection."""
        return [a for a, _ in self.components]

    def contains_point(self, x) -> bool:
        i = bisect.bisect_right(self._starts, x)
        if i == 0:
            return False
        a, b = self.components[i - 1]
        return a <= x <= b

    def distance_to_point(self, x):
        """Distance from x to the nearest point of the set (inf if empty)."""
        if not self.components:
            return float("inf")
        best = None
        i = bisect.bisect_right(self._starts, x)
        for j in (i - 1, i):
            if 0 <= j < len(self.components):
                a, b = self.components[j]
                d = max(a - x, x - b, 0)
                best = d if best is None else min(best, d)
        return best

    # -- set algebra ----------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        require_same_domain(self, other)
        a, b = meet(self, other)
        return IntervalUnion(a.domain, a.components + b.components)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        require_same_domain(self, other)
        a, b = meet(self, other)
        out = []
        i = j = 0
        a_comps, b_comps = a.components, b.components
        while i < len(a_comps) and j < len(b_comps):
            a1, b1 = a_comps[i]
            a2, b2 = b_comps[j]
            left, right = max(a1, a2), min(b1, b2)
            if left <= right:
                out.append((left, right))
            if b1 < b2:
                i += 1
            else:
                j += 1
        return IntervalUnion(a.domain, out)

    def complement(self) -> "IntervalUnion":
        """Closure of the set complement within the domain."""
        lo, hi = self.domain
        out = []
        cursor = lo
        for a, b in self.components:
            if a > cursor:
                out.append((cursor, a))
            cursor = max(cursor, b)
        if cursor < hi:
            out.append((cursor, hi))
        return IntervalUnion(self.domain, out)

    def _owners(self, other: "IntervalUnion"):
        """Each component of self with the index of the last component of
        other that starts at or before it (-1 for none), in one walk over
        both sorted lists."""
        outer, j = other.components, -1
        for comp in self.components:
            while j + 1 < len(outer) and outer[j + 1][0] <= comp[0]:
                j += 1
            yield j, comp

    def subset_of(self, other: "IntervalUnion") -> bool:
        require_same_domain(self, other)
        tol = 0 if (self.exact and other.exact) else TOL
        return all(j >= 0 and b <= other.components[j][1] + tol
                   for j, (_, b) in self._owners(other))

    def subset_of_relative_interior(self, other: "IntervalUnion") -> bool:
        """True iff every component of self sits strictly inside a component
        of other, except at sides where other reaches a domain endpoint
        (interior is taken relative to the domain)."""
        require_same_domain(self, other)
        lo, hi = self.domain
        tol = 0 if (self.exact and other.exact) else TOL
        for j, (a, b) in self._owners(other):
            if j < 0:
                return False
            c, d = other.components[j]
            if b > d + tol:
                return False
            left_ok = (c < a - tol) or (c <= lo + tol)
            right_ok = (b < d - tol) or (d >= hi - tol)
            if not (left_ok and right_ok):
                return False
        return True

    def as_float(self) -> "IntervalUnion":
        """This set on the float backend, each endpoint converted once."""
        lo, hi = self.domain
        comps = [(float(a), float(b)) for a, b in self.components]
        return IntervalUnion((float(lo), float(hi)), comps)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [format_scalar(v) for v in self.domain],
            "components": [[format_scalar(a), format_scalar(b)]
                           for a, b in self.components],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "IntervalUnion":
        lo, hi = (parse_scalar(v) for v in doc["domain"])
        comps = [(parse_scalar(a), parse_scalar(b))
                 for a, b in doc["components"]]
        return cls((lo, hi), comps)


def hausdorff_distance(A: IntervalUnion, B: IntervalUnion):
    """Hausdorff distance between two nonempty closed interval unions.

    The directed distance sup_{x in A} d(x, B) is attained either at a
    component endpoint of A or at a gap midpoint of B lying inside A.
    """
    require_same_domain(A, B)
    if A.is_empty() and B.is_empty():
        return 0
    if A.is_empty() or B.is_empty():
        raise ParameterError("Hausdorff distance needs both sets nonempty")

    def directed(src, dst):
        candidates = [p for comp in src.components for p in comp]
        for i in range(len(dst.components) - 1):
            gap_mid = (dst.components[i][1] + dst.components[i + 1][0]) / 2
            if src.contains_point(gap_mid):
                candidates.append(gap_mid)
        return max(dst.distance_to_point(x) for x in candidates)

    return max(directed(A, B), directed(B, A))
