"""The two-map Cantor-type nest on [0, 1].

The nest is driven by the pair L(x) = m*(x + eps), R(x) = 1 - L(x) with
m = (1/2)^(1/theta); their images of [0, 1] are disjoint exactly when
2m(1+eps) < 1, and the invariant set has Hausdorff dimension theta.

When theta = 1/k for an integer k >= 2 the ratio m = 2^(-k) is rational
and the whole construction runs on the exact rational backend.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError
from .intervals import IntervalUnion
from .scalars import as_integer, is_exact


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
    component is just its left end at the level's common width w.
    ``_children`` is the one child rule, and the nest keeps the left ends
    and the width of its deepest level.  On an exact nest (theta = 1/k, so
    m = 2^-k, and eps = e/d) the children of [A, A + w] over S start at
    (A << k) + e w/d and (A << k) + f w/d over S 2^k, with the same w and
    f = d (2^k - 1) - e; levels count in units of 1/S_j, S_j = d 2^(kj),
    so w = d.  On a float nest the children of [u, u + w] start at
    u + w m eps and u + w (1 - m - m eps), with width w m.

    Local queries (the deepest component of a level up to n containing a
    point, with its two children) descend the address of the point
    through at most n levels and never build level n.  A float nest steps
    through the child rule, so it meets the components of the levels.  An
    exact nest runs the rule backwards on integers: with x = X/D over
    D = den(x) d, E = den(x) e and F = den(x) f, the position X/D of x in
    its component becomes (X << k) - E in the left child or (X << k) - F
    in the right one, whichever lies in [0, D]; if neither does, x leaves
    the nest there, and only that component and its children are built.
    """

    def __init__(self, params: CantorParams):
        self.params = params
        m, (lo, _) = params.m, params.domain
        self._levels = [IntervalUnion.full(params.domain)]
        self._lock = threading.Lock()
        if params.exact:
            self._shift = k = m.denominator.bit_length() - 1
            e, d = params.eps.numerator, params.eps.denominator
            self._offsets, self._width = (e, d * ((1 << k) - 1) - e), d
        else:
            me = m * params.eps
            self._offsets, self._width = (me, 1 - m - me), 1.0
        self._starts = [lo]

    def level(self, n: int) -> IntervalUnion:
        if n < 0:
            raise ParameterError("level index must be >= 0")
        domain = self.params.domain
        with self._lock:
            while len(self._levels) <= n:
                starts, w = self._starts, self._width = self._children(
                    self._starts, self._width)
                pairs = [(u, u + w) for u in starts]
                if self.params.exact:  # over S_j = d 2^(kj), and w = d
                    level = IntervalUnion._canonical(
                        domain, pairs, w << (self._shift * len(self._levels)))
                else:
                    level = IntervalUnion(domain, pairs)
                self._levels.append(level)
            return self._levels[n]

    def _children(self, starts, w):
        """Left ends and width of the children of the components [A, A + w]
        that start at ``starts``, in order: the one child rule."""
        a, b = self._offsets
        out = []
        extend = out.extend
        if self.params.exact:
            # units of 1/S become units of 1/(S 2^k); offsets scale as w/d
            scale, k = w // self.params.eps.denominator, self._shift
            a, b = a * scale, b * scale
            for A in starts:
                A <<= k
                extend((A + a, A + b))
        else:
            a, b, w = w * a, w * b, w * self.params.m
            for u in starts:
                extend((u + a, u + b))
        return out, w

    def measure_level(self, n: int):
        """Exact level measure: (2m)^n."""
        return (2 * self.params.m) ** n

    def fixed_point_left(self):
        """Fixed point of the left map, m*eps/(1-m); lies in every level."""
        m = self.params.m
        return m * self.params.eps / (1 - m)

    def deepest_component(self, n: int, x):
        """Deepest level k <= n whose component contains x, as (k, component,
        children), where children are the component's two components at
        level k + 1; one descent of the address of x through k levels."""
        if n < 0:
            raise ParameterError("level index must be >= 0")
        lo, hi = self.params.domain
        if not lo <= x <= hi:
            raise ParameterError(f"{x} outside domain")
        if not self.params.exact:
            return self._walk(n, x)
        x = Fraction(x)
        e, f = self._offsets
        d = self.params.eps.denominator
        D, E, G = x.denominator * d, x.denominator * e, x.denominator * (f - e)
        X = X0 = x.numerator * d
        k = self._shift
        for j in range(n):
            # (X << k) - E in the left child, else (X << k) - F in the
            # right one, with G = F - E; the children are disjoint
            Y = (X << k) - E
            if Y > D:
                Y -= G
            if not 0 <= Y <= D:
                return self._rebuild(j, X0, X, D)
            X = Y
        return self._rebuild(n, X0, X, D)

    def _rebuild(self, j, X0, X, D):
        """(j, component, children) from the descent's state at level j:
        x = X0/D sits at X/D in its level-j component, whose left end is
        B = (X0 << kj) - X over D 2^(kj) and whose width is D there."""
        k = self._shift
        B = (X0 << (k * j)) - X
        starts, _ = self._children([B], D)
        S = D << (k * (j + 1))
        children = [(Fraction(c, S), Fraction(c + D, S)) for c in starts]
        if j == 0:
            return 0, self.params.domain, children
        B <<= k
        return j, (Fraction(B, S), Fraction(B + (D << k), S)), children

    def _walk(self, n, x):
        # the float descent of deepest_component, through the child rule
        # from the level-0 component (0.0, 1.0)
        interval, w = self.params.domain, 1.0
        for j in range(n + 1):
            (a, b), w = self._children([interval[0]], w)
            children = [(a, a + w), (b, b + w)]
            if j == n or not (a <= x <= a + w or b <= x <= b + w):
                return j, interval, children
            interval = children[x > a + w]

    def contains(self, n: int, x) -> bool:
        return self.deepest_component(n, x)[0] == n


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
    starts, w = nest._starts, nest._width
    for _ in range(n):
        starts, w = nest._children(starts, w)
    if p.exact:
        # a = e/(d g) with g = 2^k - 1, so [A, A + d] over S_n (w = d)
        # shrinks to [A g + e, (A + d) g - e] over S_n g
        e, g = p.eps.numerator, (1 << nest._shift) - 1
        return IntervalUnion._canonical(
            p.domain, [(A * g + e, (A + w) * g - e) for A in starts],
            (w << (nest._shift * n)) * g)
    a = nest.fixed_point_left()
    lo, hi = w * a, w * (1 - a)
    return IntervalUnion(p.domain, [(u + lo, u + hi) for u in starts])
