"""Quasiarithmetic means over a small closed generator DSL.

A generator F is continuous and strictly monotone; the mean of a tuple is
F^{-1} of the arithmetic mean of the F-values.  The DSL is closed under
four constructors (power, logarithm, scaled exponential, affine image) so
that the curvature ratio F''/F' stays exactly symbolic: it is always of
the form k/x + c, which is what comparability and maximality criteria
consume.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConstructionError, ParameterError
from .funcs import FunctionFamily, PiecewiseLinear
from .scalars import TOL


# ----------------------------------------------------------------------
# generator DSL
# ----------------------------------------------------------------------

class Generator:
    """Base class; subclasses implement evaluation and domain membership."""

    def __call__(self, x) -> float:
        raise NotImplementedError

    def in_domain(self, x) -> bool:
        raise NotImplementedError

    def arrow(self) -> "ArrowExpr":
        """The curvature ratio F''/F' as a symbolic k/x + c expression."""
        raise NotImplementedError

    def scaled(self, lo, hi) -> Callable[[float], float]:
        """F up to a nonzero factor and an additive constant, which change
        neither a quasiarithmetic mean nor the ratio quotient; Power and
        Exp divide by F at the end of [lo, hi] where |F| is largest."""
        return self


def _dominant_end(rate, lo, hi) -> float:
    """The end of [lo, hi] where x^rate or e^(rate x) is largest."""
    return float(hi) if rate > 0 else float(lo)


@dataclass(frozen=True)
class Power(Generator):
    """x -> x^p on the positive half-line, p != 0."""

    p: float

    def __post_init__(self):
        if self.p == 0:
            raise ParameterError("power exponent must be nonzero; "
                                 "use Log for the limiting case")

    def __call__(self, x):
        return float(x) ** self.p

    def in_domain(self, x):
        return x > 0

    def arrow(self):
        return ArrowExpr(over_x=self.p - 1, const=0.0)

    def scaled(self, lo, hi):
        p, ref = self.p, _dominant_end(self.p, lo, hi)
        return lambda x: (float(x) / ref) ** p


@dataclass(frozen=True)
class Log(Generator):
    """x -> ln x on the positive half-line."""

    def __call__(self, x):
        return math.log(x)

    def in_domain(self, x):
        return x > 0

    def arrow(self):
        return ArrowExpr(over_x=-1.0, const=0.0)


@dataclass(frozen=True)
class Exp(Generator):
    """x -> e^(c x) with c != 0."""

    c: float

    def __post_init__(self):
        if self.c == 0:
            raise ParameterError("exponential rate must be nonzero")

    def __call__(self, x):
        return math.exp(self.c * float(x))

    def in_domain(self, x):
        return True

    def arrow(self):
        return ArrowExpr(over_x=0.0, const=float(self.c))

    def scaled(self, lo, hi):
        c, ref = self.c, _dominant_end(self.c, lo, hi)
        return lambda x: math.exp(c * (float(x) - ref))


@dataclass(frozen=True)
class AffineOf(Generator):
    """a * F + b with a != 0; generates the same mean as F."""

    inner: Generator
    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise ParameterError("affine scale must be nonzero")

    def __call__(self, x):
        return self.a * self.inner(x) + self.b

    def in_domain(self, x):
        return self.inner.in_domain(x)

    def arrow(self):
        return self.inner.arrow()

    def scaled(self, lo, hi):
        return self.inner.scaled(lo, hi)


@dataclass(frozen=True)
class ArrowExpr:
    """Symbolic curvature ratio k/x + c."""

    over_x: float
    const: float

    def __call__(self, x):
        if self.over_x == 0:
            return self.const
        return self.over_x / float(x) + self.const


@dataclass(frozen=True)
class GeneratorFamily:
    """Indexed sequence of generators sharing a compact domain."""

    rule: Callable[[int], Generator]
    domain: tuple

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ParameterError("generator family needs lo < hi")


def exp_rate_family() -> GeneratorFamily:
    """F_n = Exp(n) on [0, 1], whose means tend to max."""
    return GeneratorFamily(rule=lambda n: Exp(n), domain=(0.0, 1.0))


def power_rate_family() -> GeneratorFamily:
    """F_n = Power(n) on the positive domain [1, 2]."""
    return GeneratorFamily(rule=lambda n: Power(n), domain=(1.0, 2.0))


def constant_generator_family(gen: Generator, domain) -> GeneratorFamily:
    return GeneratorFamily(rule=lambda n: gen, domain=domain)


# ----------------------------------------------------------------------
# means
# ----------------------------------------------------------------------

def _check_tuple(F: Generator, a: Sequence):
    if not a:
        raise ParameterError("mean of an empty tuple is undefined")
    for v in a:
        if not F.in_domain(v):
            raise ParameterError(f"value {v} outside generator domain")


def qa_mean(F: Generator, a: Sequence) -> float:
    """F^{-1} of the arithmetic mean of F-values, by bisection on
    [min(a), max(a)] (strict monotonicity guarantees the bracket).

    Both sides go through ``F.scaled(min(a), max(a))``, which divides out
    the dominant term, so every scaled term is at most 1 and the mean
    stays finite for rates of either sign far beyond overflow.
    """
    _check_tuple(F, a)
    lo, hi = min(a), max(a)
    if lo == hi:
        return float(lo)

    feval = F.scaled(lo, hi)
    target = math.fsum(feval(v) for v in a) / len(a)
    increasing = feval(hi) > feval(lo)

    lo_f, hi_f = float(lo), float(hi)
    for _ in range(200):
        mid = (lo_f + hi_f) / 2
        val = feval(mid)
        if val == target:
            return mid
        go_right = (val < target) if increasing else (val > target)
        if go_right:
            lo_f = mid
        else:
            hi_f = mid
        if hi_f - lo_f <= TOL:
            break
    if not (hi_f - lo_f <= TOL * max(abs(lo_f), abs(hi_f), 1.0)):
        raise ConstructionError(
            "bisection bracket failed to close; the generator violates "
            "strict monotonicity on the tuple range")
    return (lo_f + hi_f) / 2


def power_mean(p, a: Sequence) -> float:
    """Closed-form p-th power mean (geometric mean at p = 0)."""
    if not a:
        raise ParameterError("mean of an empty tuple is undefined")
    for v in a:
        if not v > 0:
            raise ParameterError(f"power mean needs positive entries, got {v}")
    vals = [float(v) for v in a]
    if p == 0:
        return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))
    p = float(p)
    lo, hi = min(vals), max(vals)
    scaled = Power(p).scaled(lo, hi)
    mean = (math.fsum(scaled(v) for v in vals) / len(vals)) ** (1 / p)
    return mean * _dominant_end(p, lo, hi)


# ----------------------------------------------------------------------
# maximality criteria
# ----------------------------------------------------------------------

def ratio_condition(F: GeneratorFamily, x, y, z, n: int) -> float:
    """The quotient (F_n(x) - F_n(y)) / (F_n(z) - F_n(y)); it tends to 0
    for all x < y < z exactly when the means tend to max.

    ``scaled(z, z)`` factors out F_n(z); a quotient outside the float
    range raises OverflowError.
    """
    if not x < y < z:
        raise ParameterError("need x < y < z")
    gen = F.rule(n).scaled(z, z)
    num = gen(x) - gen(y)
    den = gen(z) - gen(y)
    if den == 0:
        raise ConstructionError(
            "zero denominator: generator is not strictly monotone")
    q = num / den
    if not math.isfinite(q):
        raise OverflowError(f"ratio quotient at n = {n} is not a finite "
                            f"float: {q}")
    return q


@dataclass(frozen=True)
class RatioReport:
    quotients: tuple          # (n, value)
    tol: float
    qa_maximal_indicator: bool

    def __bool__(self):
        return self.qa_maximal_indicator


def ratio_report(F: GeneratorFamily, x, y, z, n_max: int) -> RatioReport:
    """Convergence report of the quotient over n <= n_max; the family is
    tagged as a max-mean indicator when |quotient| falls below 1e-4."""
    if n_max < 1:
        raise ParameterError(f"N must be >= 1, got {n_max}")
    tol = 1e-4
    qs = tuple((n, ratio_condition(F, x, y, z, n))
               for n in range(1, n_max + 1))
    ok = abs(qs[-1][1]) < tol
    return RatioReport(quotients=qs, tol=tol, qa_maximal_indicator=ok)


def arrow_family(F: GeneratorFamily) -> FunctionFamily:
    """Piecewise-linear interpolations of the curvature ratios F_n''/F_n'
    on a uniform grid of 129 knots, ready for integral-growth checks.

    Requires the ratios to be pointwise nondecreasing in n on the grid
    (equivalent to the means being nondecreasing); the second-difference
    interpolation error bound is recorded per index in ``family.info``.
    """
    lo, hi = F.domain
    xs = [lo + (hi - lo) * k / 128 for k in range(129)]

    def arrows(n):
        arrow = F.rule(n).arrow()
        return [arrow(x) for x in xs]

    def rule(n):
        ys = arrows(n)
        if n > 1:
            for x, a, b in zip(xs, arrows(n - 1), ys):
                if b < a - TOL:
                    raise ConstructionError(
                        f"curvature ratios decrease from index {n - 1} to "
                        f"{n} at x = {x}")
        second = max((abs(ys[i - 1] - 2 * ys[i] + ys[i + 1])
                      for i in range(1, len(ys) - 1)), default=0.0)
        info[("interp_error", n)] = second / 2
        return PiecewiseLinear(xs, ys)

    fam = FunctionFamily((lo, hi), rule, tag="curvature-ratio", min_index=1,
                         value=lambda n, x: F.rule(n).arrow()(x))
    # the rule writes to the dict, not to fam, so that fam is in no cycle
    info = fam.info
    # uniform lower bound hypothesis is observable, never assumed
    info["lower_bound_note"] = (
        "integral criterion additionally needs the curvature ratios to be "
        "uniformly bounded below; check min values over the indices you use")
    return fam


@dataclass(frozen=True)
class ComparabilityVerdict:
    relation: str             # "<=", ">=", "==", or "incomparable"
    mean_checks_agree: bool

    def __str__(self):
        if self.relation == "incomparable":
            return "means are not comparable on this domain"
        return f"QA_F {self.relation} QA_G"


def comparability(F: Generator, G: Generator, grid,
                  tuples: int = 100, seed: int = 0) -> ComparabilityVerdict:
    """Order the two means by comparing curvature ratios on the grid, and
    cross-validate on random tuples (the checkable face of the Jensen
    comparison)."""
    grid = list(grid)
    if not grid:
        raise ParameterError("need a nonempty grid")
    af, ag = F.arrow(), G.arrow()
    le = all(af(x) <= ag(x) + TOL for x in grid)
    ge = all(ag(x) <= af(x) + TOL for x in grid)
    relation = {(True, True): "==", (True, False): "<=",
                (False, True): ">="}.get((le, ge), "incomparable")

    rng = random.Random(seed)
    lo, hi = min(grid), max(grid)
    agree = True
    if relation != "incomparable":
        for _ in range(tuples):
            k = rng.randint(2, 5)
            a = [lo + (hi - lo) * rng.random() for _ in range(k)]
            mf, mg = qa_mean(F, a), qa_mean(G, a)
            if relation in ("<=", "==") and mf > mg + 1e-8:
                agree = False
                break
            if relation in (">=", "==") and mg > mf + 1e-8:
                agree = False
                break
    return ComparabilityVerdict(relation=relation, mean_checks_agree=agree)
