"""Contracting similarities on [0, 1] and the two-map Cantor-type nest.

The nest is driven by the pair L(x) = m*(x + eps), R(x) = 1 - L(x) with
m = (1/2)^(1/theta); their images of [0, 1] are disjoint exactly when
2m(1+eps) < 1, and the invariant set has Hausdorff dimension theta.

When theta = 1/k for an integer k >= 2 the ratio m = 2^(-k) is rational
and the whole construction runs on the exact rational backend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConstructionError, ParameterError
from .intervals import IntervalUnion
from .scalars import as_integer, is_exact


@dataclass(frozen=True)
class Similarity:
    """Affine map x -> ratio * x + offset with |ratio| < 1."""

    ratio: object
    offset: object

    def __post_init__(self):
        if not 0 < abs(self.ratio) < 1:
            raise ParameterError(
                f"similarity ratio must satisfy 0 < |c| < 1, got {self.ratio}")

    def __call__(self, x):
        return self.ratio * x + self.offset

    def image(self, interval):
        a, b = (self(interval[0]), self(interval[1]))
        return (a, b) if a <= b else (b, a)


def _ratio_for(theta):
    """Contraction ratio (1/2)^(1/theta); exact when 1/theta is integral."""
    if not 0 < theta < 1:
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    k = as_integer(1 / theta)
    return 0.5 ** (1 / theta) if k is None else Fraction(1, 2 ** k)


@dataclass(frozen=True)
class CantorParams:
    """Parameters of the two-map construction; eps defaults to the midpoint
    of its admissible interval (0, 1/(2m) - 1)."""

    theta: object
    eps: object = None
    m: object = field(init=False, repr=False, compare=False)

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

    @property
    def exact(self) -> bool:
        return is_exact(self.m)

    @property
    def domain(self):
        one = 1 if self.exact else 1.0
        return (0 * one, one)


def cantor_maps(p: CantorParams):
    """The pair (left, right) of similarities; their images of [0, 1] are
    [m*eps, m*(1+eps)] and its reflection, which are disjoint."""
    m, eps = p.m, p.eps
    left = Similarity(m, m * eps)
    right = Similarity(-m, 1 - m * eps)
    return left, right


def apply_ifs(maps, A: IntervalUnion) -> IntervalUnion:
    """Union of the images of A under all maps (one construction step)."""
    lo, hi = A.domain
    comps = []
    for f in maps:
        for comp in A.components:
            a, b = f.image(comp)
            if a < lo or b > hi:
                raise ConstructionError(
                    f"image [{a}, {b}] escapes domain [{lo}, {hi}]")
            comps.append((a, b))
    return IntervalUnion(A.domain, comps, exact=A.exact)


class CantorNest:
    """Nested closed sets: level 0 is [0, 1], each next level is the image
    of the previous one under both maps.

    Besides materializing whole levels, the nest answers local queries
    (the deepest component of a level up to n containing a point, with its
    two children) by one descent of the binary address of the point
    through at most n levels; level n is never built for that, so a
    pointwise value at index n costs one descent of n levels.

    On an exact nest (theta = 1/k, so m = 2^-k) the descent runs on
    integers: with x = X/D over D = den(x) den(eps), the inverse maps
    x/m - eps and (1 - x)/m - eps take the numerator X to (X << k) - E and
    ((D - X) << k) - E, where E = eps D, and x stays in the nest for one
    more level exactly while one of them lies in [0, D].  Only the exit
    level's component and its two children are built, once, from the
    depth, the orientation and the last numerator.  A float nest walks
    the composed similarities instead.
    """

    def __init__(self, params: CantorParams):
        self.params = params
        self.left, self.right = cantor_maps(params)
        self._levels = {0: IntervalUnion.full(params.domain,
                                              exact=params.exact)}
        self._lock = threading.Lock()
        if params.exact:
            self._shift = params.m.denominator.bit_length() - 1
            self._eps = (params.eps.numerator, params.eps.denominator)

    def __call__(self, n: int) -> IntervalUnion:
        return self.level(n)

    def level(self, n: int) -> IntervalUnion:
        if n < 0:
            raise ParameterError("level index must be >= 0")
        with self._lock:
            top = max(self._levels)
            while top < n:
                self._levels[top + 1] = apply_ifs(
                    (self.left, self.right), self._levels[top])
                top += 1
            return self._levels[n]

    def measure_level(self, n: int):
        """Exact level measure: (2m)^n."""
        return (2 * self.params.m) ** n

    def fixed_point_left(self):
        """Fixed point of the left map, m*eps/(1-m); lies in every level."""
        m = self.params.m
        return m * self.params.eps / (1 - m)

    def _children(self, ratio, offset):
        """Child intervals of the component that is the image of [0, 1]
        under x -> ratio*x + offset."""
        out = []
        for f in (self.left, self.right):
            c, t = ratio * f.ratio, ratio * f.offset + offset
            a, b = (t, c + t) if c >= 0 else (c + t, t)
            out.append(((c, t), (a, b)))
        out.sort(key=lambda item: item[1][0])
        return out

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
        e_num, e_den = self._eps
        D, E = x.denominator * e_den, x.denominator * e_num
        X = X0 = x.numerator * e_den
        k = self._shift
        sign = 1
        for j in range(n):
            Y = (X << k) - E
            if not 0 <= Y <= D:
                Y = ((D - X) << k) - E
                if not 0 <= Y <= D:
                    return self._rebuild(j, sign, X0, X, D, E)
                sign = -sign
            X = Y
        return self._rebuild(n, sign, X0, X, D, E)

    def _rebuild(self, j, sign, X0, X, D, E):
        """(j, component, children) from the descent's state at level j.

        The level-j component is the image of [0, 1] under y -> t + c*y
        with c = sign * m^j, and it sends X/D to x = X0/D.  In units of
        1/S, S = D 2^(k(j+1)), the component is [B, B + P] with P = D 2^k,
        and its children, the images of [m eps, m(1 + eps)] and of its
        reflection, are [B + E, B + D + E] and [B + P - D - E, B + P - E].
        """
        k = self._shift
        P, S = D << k, D << (k * (j + 1))
        B = (X0 << (k * (j + 1))) - sign * (X << k)
        if sign < 0:
            B -= P
        children = [(Fraction(B + E, S), Fraction(B + D + E, S)),
                    (Fraction(B + P - D - E, S), Fraction(B + P - E, S))]
        if j == 0:
            return 0, self.params.domain, children
        return j, (Fraction(B, S), Fraction(B + P, S)), children

    def _walk(self, n, x):
        # the descent of deepest_component through composed similarities
        ratio, offset = 1.0, 0.0
        interval = self.params.domain
        children = self._children(ratio, offset)
        for k in range(n):
            for (c, t), (a, b) in children:
                if a <= x <= b:
                    ratio, offset, interval = c, t, (a, b)
                    break
            else:
                return k, interval, [iv for _, iv in children]
            children = self._children(ratio, offset)
        return n, interval, [iv for _, iv in children]

    def component_and_children(self, n: int, x):
        """Component of level n containing x together with its two child
        components at level n + 1, or None when x is off level n."""
        k, interval, children = self.deepest_component(n, x)
        return (interval, children) if k == n else None

    def contains(self, n: int, x) -> bool:
        return self.component_and_children(n, x) is not None


def cantor_nest(p: CantorParams) -> CantorNest:
    """Indexed rule n -> level-n set of the construction."""
    return CantorNest(p)


def uniform_cantor(p: CantorParams, n: int) -> IntervalUnion:
    """Level n of the equivalent middle-removal construction.

    Starts from [m*eps/(1-m), 1 - m*eps/(1-m)] and applies both maps; the
    first removed middle has length (1-2m)(1-m-2m*eps)/(1-m), and every
    level is contained in the corresponding level of the plain nest.
    """
    if n < 0:
        raise ParameterError("level index must be >= 0")
    m, eps = p.m, p.eps
    a = m * eps / (1 - m)
    current = IntervalUnion(p.domain, [(a, 1 - a)], exact=p.exact)
    maps = cantor_maps(p)
    for _ in range(n):
        current = apply_ifs(maps, current)
    return current
