"""The two-map Cantor-type nest on [0, 1].

The nest is driven by the pair L(x) = m*(x + eps), R(x) = 1 - L(x) with
m = (1/2)^(1/theta); their images of [0, 1] are disjoint exactly when
2m(1+eps) < 1, and the invariant set has Hausdorff dimension theta.

Every nest runs on integers: m is a dyadic rational M/2^b (m = 2^-k when
theta = 1/k for an integer k >= 2, and otherwise the float
0.5 ** (1/theta), which is exactly such a rational), and so is a float
eps.  When theta = 1/k the results are exact rationals on the exact
backend; otherwise each endpoint is the float nearest to its exact value,
and a level that floats cannot resolve raises ParameterError.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError
from .intervals import IntervalUnion
from .scalars import TOL, as_integer, is_exact


def _ratio_for(theta):
    """Contraction ratio (1/2)^(1/theta); exact when 1/theta is integral."""
    if not 0 < theta < 1:
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    k = as_integer(1 / theta)
    if k is not None:
        return Fraction(1, 2 ** k)
    m = 0.5 ** (1 / theta)
    if m < sys.float_info.min:
        raise ParameterError(f"theta={theta} makes the ratio (1/2)^(1/theta)"
                             f" = {m} smaller than a normal float")
    return m


@dataclass(frozen=True)
class CantorParams:
    """Parameters of the two-map construction; eps defaults to the midpoint
    of its admissible interval (0, 1/(2m) - 1)."""

    theta: object
    eps: object = None
    m: object = field(init=False, repr=False, compare=False)
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _ratio_for(self.theta)
        eps = self.eps
        if eps is None:
            eps = (1 / (2 * m) - 1) / 2
        elif is_exact(m):
            eps = Fraction(eps)
        else:
            eps = float(eps)
        if not 0 < eps < 1 / (2 * m) - 1:
            raise ParameterError(
                f"eps must lie in (0, 1/(2m)-1) = (0, {1 / (2 * m) - 1}), "
                f"got {eps}")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "exact", is_exact(m))

    @property
    def domain(self):
        one = 1 if self.exact else 1.0
        return (0 * one, one)


class CantorNest:
    """Nested closed sets: level n is the union of the images of [0, 1]
    under the 2^n compositions of L and R.

    L[0, 1] and R[0, 1] mirror each other, so a component's two children
    sit at the same offsets inside it whatever its orientation, and a
    component is just its left end at the level's common width.
    ``_children`` is the one child rule, on integers for every nest: with
    m = M/2^b and eps = e/d, the children of [A, A + W] over S start at
    (A << b) + (W/d) M e and (A << b) + (W << b) - W M - (W/d) M e over
    S 2^b, with width W M.  Levels count in units of 1/S_j, S_j = d 2^(bj),
    so the level-j width is W = d M^j, and the nest keeps the left ends
    and the width of its deepest level.  ``_image`` turns left ends at a
    common width into a set: exact rationals when theta = 1/k, and
    otherwise each endpoint rounded once to the nearest float, raising
    ParameterError at the first level whose float image would merge two
    components.

    Local queries (the deepest component of a level up to n containing a
    point, with its two children) descend the address of the point
    through at most n levels and never build level n: they run the rule
    backwards on integers.  With x = p/q, the position of x in its level-j
    component is X over D = q W, and it becomes (X << b) - E in the left
    child or (X << b) - F in the right one, over D M, whichever lies in
    [0, D M], where E and F are the child offsets at this denominator; if
    neither does, x leaves the nest there.  ``_descent`` is that one
    descent: it returns the exit component, its two children by the child
    rule and x as integers over one denominator, doubled so that the
    midpoint of any two of them is an integer, which is the form the
    integer ramp rule of ``funcs._component_knots`` takes.
    Membership is decided on these integers, never on rounded endpoints.
    """

    def __init__(self, params: CantorParams):
        self.params = params
        M, B = params.m.as_integer_ratio()
        self._M, self._b = M, B.bit_length() - 1
        self._e, self._d = params.eps.as_integer_ratio()
        self._levels = [IntervalUnion.full(params.domain)]
        self._lock = threading.Lock()
        self._starts, self._width = [0], self._d

    def level(self, n: int) -> IntervalUnion:
        if n < 0:
            raise ParameterError("level index must be >= 0")
        with self._lock:
            while len(self._levels) <= n:
                # the deepest level's ends are kept only once its image
                # is built, so a level that raises raises again
                j = len(self._levels)
                starts, W = self._children(self._starts, self._width)
                self._levels.append(self._image(
                    j, starts, W, self._d << (self._b * j)))
                self._starts, self._width = starts, W
            return self._levels[n]

    def _children(self, starts, W):
        """Left ends and width of the children of the components [A, A + W]
        that start at ``starts``, in order: the one child rule."""
        M, b = self._M, self._b
        a = W // self._d * M * self._e
        c = (W << b) - W * M - a
        out = []
        extend = out.extend
        for A in starts:
            A <<= b
            extend((A + a, A + c))
        return out, W * M

    def _image(self, n, starts, W, S):
        """The level-n set of the components [A/S, (A + W)/S] of the sorted
        integer left ends A.  On a float nest each end is converted once,
        to the nearest float by int true division (correct at any size,
        where ``float(A)`` overflows past 1024 bits), raising
        ParameterError where a start falls within TOL of the end before
        it, which the float backend would merge."""
        domain = self.params.domain
        if self.params.exact:
            return IntervalUnion._canonical(
                domain, [(A, A + W) for A in starts], S)
        comps, end = [(A / S, (A + W) / S) for A in starts], -1.0
        for a, b in comps:
            if a <= end + TOL:
                raise ParameterError(f"theta={self.params.theta}: level {n} "
                                     f"of the nest is below float resolution")
            end = b
        return IntervalUnion._built(domain, comps, False)

    def measure_level(self, n: int):
        """Exact level measure: (2m)^n."""
        return (2 * self.params.m) ** n

    def fixed_point_left(self):
        """Fixed point of the left map, m*eps/(1-m); lies in every level.
        On a float nest it is rounded, and the rounded point leaves the
        nest at a deep level (level 16 at theta = 0.3)."""
        m = self.params.m
        return m * self.params.eps / (1 - m)

    def _descent(self, n: int, x):
        """The one descent of the address of x through at most n levels, on
        integers: (k, A, B, children, X, D) for the deepest level k <= n
        whose component [A, B] over D contains x, where children are the
        component's two components (a, b) at level k + 1 and x is X over
        D, every numerator even."""
        if n < 0:
            raise ParameterError("level index must be >= 0")
        # the domain is [0, 1], so x = p/q lies in it when 0 <= p <= q; a
        # float is compared first, for nan and the infinities
        lo, hi = self.params.domain
        if isinstance(x, float) and not lo <= x <= hi:
            raise ParameterError(f"{x} outside domain")
        p, q = x.as_integer_ratio()
        if not 0 <= p <= q:
            raise ParameterError(f"{x} outside domain")
        M, b, d = self._M, self._b, self._d
        X = X0 = p * d
        D = D0 = q * d
        E = q * M * self._e
        G = (D << b) - D * M - 2 * E
        for j in range(n):
            # (X << b) - E in the left child, else (X << b) - F in the
            # right one, with G = F - E; the children, of width D M, are
            # disjoint, and every quantity scales by M per level
            Y, W = (X << b) - E, D * M
            if Y > W:
                Y -= G
            if not 0 <= Y <= W:
                break
            X, D, E, G = Y, W, E * M, G * M
        else:
            j = n
        # x sits at X in the level-j component [A, A + D] over
        # S = D0 2^(bj), and the children are over S 2^b: everything is
        # read over 2 S 2^b
        X0 <<= b * j
        A, s = X0 - X, b + 1
        starts, w = self._children([A], D)
        return (j, A << s, (A + D) << s,
                [(c << 1, (c + w) << 1) for c in starts],
                X0 << s, D0 << (b * j + s))

    def contains(self, n: int, x) -> bool:
        return self._descent(n, x)[0] == n


def cantor_nest(p: CantorParams) -> CantorNest:
    """Indexed rule n -> level-n set of the construction."""
    return CantorNest(p)


def uniform_cantor(p: CantorParams, n: int) -> IntervalUnion:
    """Level n of the equivalent middle-removal construction: each level-n
    component of the nest, of width w, inset by a*w at both ends, where
    a = m*eps/(1-m) is the fixed point of the left map.

    The first removed middle has length (1-2m)(1-m-2m*eps)/(1-m), and
    every level is contained in the corresponding level of the plain nest.
    """
    if n < 0:
        raise ParameterError("level index must be >= 0")
    nest = CantorNest(p)
    starts, W = nest._starts, nest._width
    for _ in range(n):
        starts, W = nest._children(starts, W)
    # a = M e/(d g) with g = 2^b - M, so [A, A + W] over S_n = d 2^(bn)
    # shrinks by a W = (W/d) M e/g at both ends: over S_n g it is
    # [A g + i, (A + W) g - i] with i = (W/d) M e
    g, i = (1 << nest._b) - nest._M, W // nest._d * nest._M * nest._e
    return nest._image(n, [A * g + i for A in starts], W * g - 2 * i,
                       (nest._d << (nest._b * n)) * g)
