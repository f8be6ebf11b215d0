"""The two-map Cantor-type nest on [0, 1].

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

from .errors import ParameterError
from .intervals import IntervalUnion
from .scalars import as_integer, is_exact


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


class CantorNest:
    """Nested closed sets: level n is the union of the images of [0, 1]
    under the 2^n compositions of L and R.

    Exact levels (theta = 1/k, so m = 2^-k, and eps = e/d) come from an
    integer recurrence.  A level-j component is [A, A + d] over
    S_j = d 2^(kj); with c = e 2^(kj), L sends it to [A + c, A + c + d]
    and R to [S_(j+1) - A - c - d, S_(j+1) - A - c] over S_(j+1), so
    level j + 1 is the left images in order, then the right images
    reversed.  The nest keeps the starts A of its deepest level.  Float
    levels grow composed maps x -> ratio*x + offset through ``_children``.

    Local queries (the deepest component of a level up to n containing a
    point, with its two children) descend the binary address of the point
    through at most n levels and never build level n.  A float nest
    descends through ``_children``, so its components are those of the
    levels.  An exact nest descends on integers: with x = X/D over
    D = den(x) den(eps), the inverse maps x/m - eps and (1 - x)/m - eps
    take X to (X << k) - E and ((D - X) << k) - E, E = eps D, and x stays
    in the nest one more level exactly while one of them lies in [0, D].
    Only the exit level's component and its two children are built, from
    the depth, the orientation and the last numerator.
    """

    def __init__(self, params: CantorParams):
        self.params = params
        m = params.m
        self._levels = [IntervalUnion.full(params.domain)]
        self._lock = threading.Lock()
        if params.exact:
            self._shift = m.denominator.bit_length() - 1
            self._eps = (params.eps.numerator, params.eps.denominator)
            self._starts = [0]
        else:
            self._m_offsets = (m, m * params.eps, 1 - m * params.eps)
            self._maps = [(1.0, 0.0)]

    def level(self, n: int) -> IntervalUnion:
        if n < 0:
            raise ParameterError("level index must be >= 0")
        domain = self.params.domain
        with self._lock:
            while len(self._levels) <= n:
                if self.params.exact:
                    d = self._eps[1]
                    self._starts, S = self._grow(self._starts,
                                                 len(self._levels) - 1)
                    level = IntervalUnion._canonical(
                        domain, [(A, A + d) for A in self._starts], S)
                else:
                    children = [child for ratio, offset in self._maps
                                for child in self._children(ratio, offset)]
                    self._maps = [f for f, _ in children]
                    level = IntervalUnion(domain, [iv for _, iv in children])
                self._levels.append(level)
            return self._levels[n]

    def _grow(self, starts, j):
        """Starts of level j + 1, and S_(j+1), from those of level j."""
        k, (e, d) = self._shift, self._eps
        c, S = e << (k * j), d << (k * (j + 1))
        return [A + c for A in starts] + \
            [S - d - c - A for A in reversed(starts)], S

    def measure_level(self, n: int):
        """Exact level measure: (2m)^n."""
        return (2 * self.params.m) ** n

    def fixed_point_left(self):
        """Fixed point of the left map, m*eps/(1-m); lies in every level."""
        m = self.params.m
        return m * self.params.eps / (1 - m)

    def _children(self, ratio, offset):
        """The maps x -> ratio*(m*x + m*eps) + offset and x -> ratio*(1 -
        m*eps - m*x) + offset, each with its image of [0, 1], ordered left
        to right by the sign of ratio; the images are disjoint."""
        m, me, rest = self._m_offsets
        c, t, u = ratio * m, ratio * me + offset, ratio * rest + offset
        if ratio > 0:
            return [((c, t), (t, c + t)), ((-c, u), (u - c, u))]
        return [((-c, u), (u, u - c)), ((c, t), (c + t, t))]

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
        interval = self.params.domain
        children = self._children(1.0, 0.0)
        for k in range(n):
            for f, (a, b) in children:
                if a <= x <= b:
                    interval = (a, b)
                    break
            else:
                return k, interval, [iv for _, iv in children]
            children = self._children(*f)
        return n, interval, [iv for _, iv in children]

    def contains(self, n: int, x) -> bool:
        return self.deepest_component(n, x)[0] == n


def cantor_nest(p: CantorParams) -> CantorNest:
    """Indexed rule n -> level-n set of the construction."""
    return CantorNest(p)


def uniform_cantor(p: CantorParams, n: int) -> IntervalUnion:
    """Level n of the equivalent middle-removal construction: the images of
    [a, 1 - a], a = m*eps/(1-m), under the 2^n composed maps of the nest.

    The first removed middle has length (1-2m)(1-m-2m*eps)/(1-m), and
    every level is contained in the corresponding level of the plain nest.
    """
    if n < 0:
        raise ParameterError("level index must be >= 0")
    nest = CantorNest(p)
    if p.exact:
        # [A, A + d] over S takes [a, 1 - a], a = e/(d g) with g = 2^k - 1,
        # to [A g + e, (A + d) g - e] over S g, in either orientation
        e, d = nest._eps
        starts, S = [0], d
        for j in range(n):
            starts, S = nest._grow(starts, j)
        g = (1 << nest._shift) - 1
        return IntervalUnion._canonical(
            p.domain, [(A * g + e, (A + d) * g - e) for A in starts], S * g)
    maps = [(1.0, 0.0)]
    for _ in range(n):
        maps = [f for ratio, offset in maps
                for f, _ in nest._children(ratio, offset)]
    a = nest.fixed_point_left()
    comps = [(r * a + t, r * (1 - a) + t) if r > 0 else
             (r * (1 - a) + t, r * a + t) for r, t in maps]
    return IntervalUnion(p.domain, comps)
