"""Exact set algebra over finite unions of closed subintervals of [lo, hi].

An IntervalUnion is kept in canonical form: components sorted, pairwise
disjoint and strictly separated (touching or overlapping components are
merged).  Degenerate components [a, a] are allowed; they contribute zero
measure.  On the float backend, components whose gap is below TOL are
merged to avoid spurious slivers.

Operations on two sets walk their sorted endpoint lists once.  They read
each set's scaled view (``_scaled``): on the exact backend a common
denominator S and every endpoint as an integer numerator over S, so that
the walk compares integers; on the float backend S = 1 and the values
themselves.  Results keep the input endpoint objects and the domain ends,
so they have the values and types that sorting and merging the objects
gives, and they are built without a re-sort or re-check.  One walk,
``_housed``, answers the nesting question (which component of the other
set holds each component): both subset tests and the grouping of
``bump_from_sets`` read it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import merge
from itertools import chain
from math import lcm
from operator import itemgetter

from .errors import ParameterError, require_same_domain
from .scalars import TOL, format_scalar, is_exact, meet, parse_scalar


#: the largest common denominator, in bits, of a scaled view: past it the
#: numerators would cost more than the Fractions, and the walks compare the
#: endpoint objects instead
_MAX_BITS = 1024


def _all_exact(domain, components):
    lo, hi = domain
    return is_exact(lo) and is_exact(hi) and all(
        is_exact(a) and is_exact(b) for a, b in components)


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
        exact = _all_exact(domain, components)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(
            self, "components", _canonicalize(components, lo, hi, exact))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _built(cls, domain, components, exact, scaled=None):
        """The set of ``components`` already in canonical form, unchecked,
        with its scaled view when the caller knows it."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", tuple(domain))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "components", tuple(components))
        if scaled is not None:
            object.__setattr__(self, "_scaled", scaled)
        return self

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
        # the view's denominator also holds the domain ends
        S = lcm(denominator, lo.denominator, hi.denominator)
        pairs = _times(numerators, S // denominator)
        return cls._built(domain, (
            (Fraction(a, denominator), Fraction(b, denominator))
            for a, b in numerators), True, (
            S, lo.numerator * (S // lo.denominator),
            hi.numerator * (S // hi.denominator), pairs))

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
    def _scaled(self):
        """(S, LO, HI, pairs): on the exact backend a common denominator S
        of the domain ends and the endpoints, the domain ends as integers
        LO and HI over S, and each component as its pair of numerators
        over S, or None past ``_MAX_BITS``; on the float backend S = 1 and
        the values themselves."""
        lo, hi = self.domain
        if not self.exact:
            return 1, lo, hi, self.components
        ends = [lo, hi] + [v for comp in self.components for v in comp]
        S = 1
        for d in {v.denominator for v in ends}:
            S = lcm(S, d)
            if S.bit_length() > _MAX_BITS:
                return None
        LO, HI, *nums = [v.numerator * (S // v.denominator) for v in ends]
        return S, LO, HI, list(zip(nums[::2], nums[1::2]))

    @cached_property
    def _offsets(self):
        """The offset from the domain's left end of each component end, in
        order: from a scaled exact view the float (A - LO) / S, which rounds
        correctly as float(a - lo) does, and otherwise a - lo itself."""
        if self.exact and self._scaled:
            S, LO, _, pairs = self._scaled
            return [(x - LO) / S for pair in pairs for x in pair]
        lo = self.domain[0]
        return [x - lo for comp in self.components for x in comp]

    def _box_indices(self, delta):
        """The index (a - lo) // delta of the grid box that holds each
        component end a, in order: floor((A - LO) / (S delta)) on the
        integers of a scaled exact view for an exact delta, and otherwise
        the offset from ``_offsets`` floor-divided by delta."""
        if self.exact and self._scaled and not isinstance(delta, float):
            S, LO, _, pairs = self._scaled
            num, den = delta.numerator * S, delta.denominator
            return [(x - LO) * den // num for pair in pairs for x in pair]
        return [int(x // delta) for x in self._offsets]

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
    #
    # Each walk reads the scaled views of its operands at one denominator
    # and carries the endpoint objects beside them.  Mixed-backend operands
    # meet as floats first.

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        require_same_domain(self, other)
        a, b = meet(self, other)
        S, LO, HI, P, Q = _common(a, b)
        # merge keeps a's component first on a tie, as a stable sort of
        # a's components followed by b's does
        ends, comps = _coalesce(merge(
            zip(P, a.components), zip(Q, b.components), key=itemgetter(0)),
            0 if a.exact else TOL)
        return _walked(a, comps, a.exact, (S, LO, HI, ends))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        require_same_domain(self, other)
        a, b = meet(self, other)
        S, LO, HI, P, Q = _common(a, b)
        A, B = a.components, b.components
        ends, comps = [], []
        i = j = 0
        while i < len(P) and j < len(Q):
            (x1, y1), (x2, y2) = P[i], Q[j]
            # max and min keep a's end on a tie
            x, u = (x2, B[j][0]) if x2 > x1 else (x1, A[i][0])
            y, v = (y2, B[j][1]) if y2 < y1 else (y1, A[i][1])
            if x <= y:
                ends.append((x, y))
                comps.append((u, v))
            if y1 < y2:
                i += 1
            else:
                j += 1
        # the pieces are strictly separated by a gap of a or of b
        return _walked(a, comps, a.exact or _all_exact(a.domain, comps),
                       (S, LO, HI, ends))

    def complement(self) -> "IntervalUnion":
        """Closure of the set complement within the domain."""
        lo, hi = self.domain
        S, LO, HI, P, _ = _common(self, self)

        def gaps():
            X, x = LO, lo  # the cursor, as numerator and object
            for (A, B), (a, b) in zip(P, self.components):
                if A > X:
                    yield (X, A), (x, a)
                if B > X:
                    X, x = B, b
            if X < HI:
                yield (X, HI), (x, hi)

        # canonical form joins two gaps across a degenerate component (or
        # one below TOL on floats); the gaps decide the backend, as the
        # constructor decides it from its input
        pieces = list(gaps())
        exact = self.exact or _all_exact(self.domain, (g for _, g in pieces))
        ends, comps = _coalesce(pieces, 0 if exact else TOL)
        return _walked(self, comps, exact, (S, LO, HI, ends))

    def _housed(self, other: "IntervalUnion", interior: bool):
        """(view, indices): the ``_common`` view (S, LO, HI, P, Q) of self
        and other after they meet, and the index of the component of other
        that holds each component of self, in order, or -1 where none
        does.  One lazy walk pairs each component with the last component
        of other that starts at or before it, which holds it if it
        contains it, and with ``interior`` strictly inside except at sides
        where it reaches a domain end (TOL on floats).  Mixed-backend
        operands meet as floats."""
        require_same_domain(self, other)
        a, b = meet(self, other)
        view = _common(a, b)
        _, lo, hi, P, Q = view
        tol = 0 if a.exact else TOL

        def indices():
            j, last = -1, len(Q) - 1
            for x, y in P:
                while j < last and Q[j + 1][0] <= x:
                    j += 1
                if j >= 0:
                    c, d = Q[j]
                    if y <= d + tol and (not interior or (
                            (c < x - tol or c <= lo + tol)
                            and (y < d - tol or d >= hi - tol))):
                        yield j
                        continue
                yield -1

        return view, indices()

    def subset_of(self, other: "IntervalUnion") -> bool:
        return all(j >= 0 for j in self._housed(other, False)[1])

    def subset_of_relative_interior(self, other: "IntervalUnion") -> bool:
        """True iff every component of self sits strictly inside a component
        of other, except at sides where other reaches a domain endpoint
        (interior is taken relative to the domain)."""
        return all(j >= 0 for j in self._housed(other, True)[1])

    def as_float(self) -> "IntervalUnion":
        """This set on the float backend, each endpoint converted once; a
        float set is itself."""
        if not self.exact:
            return self
        lo, hi = self.domain
        comps = [(float(a), float(b)) for a, b in self.components]
        return IntervalUnion((float(lo), float(hi)), comps)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        end = _ratio if self.exact else _number
        return {
            "domain": [format_scalar(v) for v in self.domain],
            "components": [[end(a), end(b)] for a, b in self.components],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "IntervalUnion":
        """The set of a document: ``p/q`` ends that are already canonical
        go through ``_canonical`` at one common denominator, and any other
        input through the constructor."""
        lo, hi = (parse_scalar(v) for v in doc["domain"])
        comps = doc["components"]
        # _canonical checks the ends against the domain, not the domain
        if is_exact(lo) and is_exact(hi) and lo < hi:
            scaled = _ratios(comps)
            if scaled is not None:
                try:
                    return cls._canonical((lo, hi), *scaled)
                except ParameterError:
                    pass
        return cls((lo, hi), [(parse_scalar(a), parse_scalar(b))
                              for a, b in comps])


def hausdorff_distance(A: IntervalUnion, B: IntervalUnion):
    """Hausdorff distance between two nonempty closed interval unions.

    The directed distance sup_{x in A} d(x, B) is attained either at a
    component endpoint of A or at a gap midpoint of B lying inside A.
    ``_directed`` finds the first candidate point that attains it, on the
    exact backend over the numerators doubled, so that the midpoints stay
    integers, and its distance is then taken on the objects, as a search
    over the candidate points in order gives it.
    """
    require_same_domain(A, B)
    if A.is_empty() and B.is_empty():
        return 0
    if A.is_empty() or B.is_empty():
        raise ParameterError("Hausdorff distance needs both sets nonempty")
    A, B = meet(A, B)
    S, _, _, P, Q = _common(A, B)
    mid = _half
    if A.exact and S:
        P, Q, mid = _times(P, 2), _times(Q, 2), _exact_half

    def directed(src, dst, k):
        # the distance of candidate k of _directed, on the objects
        n = 2 * len(src.components)
        if k < n:
            x = src.components[k // 2][k % 2]
        else:
            x = _half(dst.components[k - n][1], dst.components[k - n + 1][0])
        return dst.distance_to_point(x)

    return max(directed(A, B, _directed(P, Q, mid)),
               directed(B, A, _directed(Q, P, mid)))


# ----------------------------------------------------------------------
# the walks
# ----------------------------------------------------------------------

def _ratio(x):
    return f"{x.numerator}/{x.denominator}"


def _ratios(components):
    """(pairs, S): the ``p/q`` string ends of ``components`` as integer
    numerator pairs over their common denominator S, or None for any other
    input or past ``_MAX_BITS``."""
    try:
        ends = [tuple(map(int, end.split("/")))
                for a, b in components for end in (a, b)]
    except (AttributeError, TypeError, ValueError):
        return None
    if any(len(end) != 2 or end[1] <= 0 for end in ends):
        return None
    S = 1
    for d in {d for _, d in ends}:
        S = lcm(S, d)
        if S.bit_length() > _MAX_BITS:
            return None
    nums = [n * (S // d) for n, d in ends]
    return list(zip(nums[::2], nums[1::2])), S


def _number(x):
    return x if type(x) is float else format_scalar(x)


def _half(b, a):
    s = b + a  # an int of two int ends, halved as a Fraction
    return Fraction(s, 2) if type(s) is int else s / 2


def _exact_half(b, a):
    return (b + a) >> 1  # of two doubled numerators


def _times(pairs, f):
    return pairs if f == 1 else [(a * f, b * f) for a, b in pairs]


def _common(a, b):
    """The scaled views of a and b, of one backend, at one denominator, as
    (S, LO, HI, P, Q) with a's domain ends; past ``_MAX_BITS`` S is None
    and P, Q, LO and HI are the objects."""
    if a._scaled and b._scaled:
        S, LO, HI, P = a._scaled
        T, _, _, Q = b._scaled
        if S == T:
            return S, LO, HI, P, Q
        L = lcm(S, T)
        if L.bit_length() <= _MAX_BITS:
            f = L // S
            return L, LO * f, HI * f, _times(P, f), _times(Q, L // T)
    lo, hi = a.domain
    return None, lo, hi, a.components, b.components


def _walked(a, components, exact, scaled):
    """A walk's result on a's domain, with the walk's numerators as its
    view when they are an exact one."""
    return IntervalUnion._built(a.domain, components, exact,
                                scaled if a.exact and scaled[0] else None)


def _coalesce(stream, tol):
    """The pairs of ``stream``, (numerators, objects) in sorted order, with
    each one that starts at most ``tol`` past the end of the one before
    joined to it, as canonical form joins them: (numerators, objects)."""
    ends, comps = [], []
    for (x, y), (u, v) in stream:
        if ends and x <= ends[-1][1] + tol:
            if y > ends[-1][1]:
                ends[-1] = (ends[-1][0], y)
                comps[-1] = (comps[-1][0], v)
        else:
            ends.append((x, y))
            comps.append((u, v))
    return ends, comps


def _directed(src, dst, mid):
    """The index of the first candidate point whose distance to ``dst``
    is the largest, over sorted disjoint pairs.  The candidates are the
    ends of ``src`` in order (index 2i and 2i + 1 for pair i), then the
    midpoints ``mid(b, a)`` of the gaps (b, a) of ``dst`` that lie in
    ``src`` (index 2 len(src) + g for gap g).  Each distance is the one
    ``distance_to_point`` gives."""
    n = len(dst)

    def distances(points):
        i = 0
        for x in points:
            while i < n and dst[i][0] <= x:
                i += 1
            d = None
            for a, b in dst[max(i - 1, 0):i + 1]:
                e = max(a - x, x - b, 0)
                d = e if d is None else min(d, e)
            yield d

    def mids():
        s, m = 0, len(src)
        for g in range(n - 1):
            x = mid(dst[g][1], dst[g + 1][0])
            while s < m and src[s][0] <= x:
                s += 1
            if s and x <= src[s - 1][1]:
                yield 2 * m + g, x

    found = list(mids())
    candidates = chain(
        enumerate(distances(x for pair in src for x in pair)),
        zip([k for k, _ in found], distances([x for _, x in found])))
    best = k_best = None
    for k, d in candidates:
        if best is None or d > best:
            best, k_best = d, k
    return k_best

