"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 6 and 9 rest on limit statements, so each is asserted in the
strongest form that holds at its finite scale:

* 6: I_{f+g} = I_f | I_g holds only in the limit; at (M, N) = (10, 30) the
  sum crosses M at grid points where both parts stay below it.  For
  nonnegative parts with exactly additive values the flags obey
  flags_M(f) | flags_M(g) <= flags_M(f+g) <= flags_M/2(f) | flags_M/2(g),
  which is what the test asserts.
* 9: the e^(c t) mean tends to max(a) as c -> oo, but at c = 50 it is
  exactly 0.9 + ln((1 + e^-35)/2)/50, about 0.0139 below the maximum.  The
  test checks that closed form, the bound 0 < max - mean <= ln(2)/c and a
  deviation that falls strictly in c, below 1e-3 by c = 5000.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from divergia import (CantorParams, IntervalUnion, JarnikParams,
                      LiouvilleParams, PiecewiseLinear, Power, anydh_family,
                      box_dimension, cantor_nest, comparability,
                      default_grid, divergence_estimate, hausdorff_distance,
                      jarnik_family, liouville_family, max_family_check,
                      moran_dimension, power_mean, qa_mean, ratio_condition,
                      sum_family, superlevel_set, tietze_family,
                      uniform_cantor, y_set, z_set)
from divergia.qam import Exp, Log

HALF = Fraction(1, 2)


def dyadic(pairs, den):
    return tuple((Fraction(a, den), Fraction(b, den)) for a, b in pairs)


def test_criterion_01_first_three_levels_bit_exact():
    start = time.monotonic()
    nest = cantor_nest(CantorParams(HALF, eps=HALF))
    assert nest.level(1).components == dyadic([(1, 3), (5, 7)], 8)
    assert nest.level(2).components == dyadic(
        [(5, 7), (9, 11), (21, 23), (25, 27)], 32)
    assert nest.level(3).components == dyadic(
        [(21, 23), (25, 27), (37, 39), (41, 43),
         (85, 87), (89, 91), (101, 103), (105, 107)], 128)
    assert all(nest.level(n).exact for n in (1, 2, 3))
    assert time.monotonic() - start < 1.0


def test_criterion_02_similarity_dimension_closed_form():
    start = time.monotonic()
    for k in range(1, 10):
        theta = k / 10
        m = 0.5 ** (1 / theta)
        assert abs(moran_dimension([m, m]) - theta) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_criterion_03_box_counting_consistency():
    start = time.monotonic()
    scales = [4.0 ** -k for k in range(2, 11)]
    half = box_dimension(cantor_nest(CantorParams(HALF)).level(12), scales)
    assert 0.45 <= half.estimate <= 0.55
    third = box_dimension(
        cantor_nest(CantorParams(Fraction(1, 3))).level(12), scales)
    assert 0.283 <= third.estimate <= 0.383
    assert time.monotonic() - start < 10.0


def test_criterion_04_middle_removal_variant():
    p = CantorParams(HALF)
    nest = cantor_nest(p)
    C0 = uniform_cantor(p, 0)
    assert C0.components == ((Fraction(1, 6), Fraction(5, 6)),)
    C1 = uniform_cantor(p, 1)
    removed = C1.components[1][0] - C1.components[0][1]
    assert removed == Fraction(1, 3)
    for n in range(11):
        U, D = uniform_cantor(p, n), nest.level(n)
        assert U.subset_of(D)
        assert hausdorff_distance(U, D) <= Fraction(1, 4) ** n


def test_criterion_05_partial_sum_values():
    nest = cantor_nest(CantorParams(HALF))
    fam = tietze_family(nest)
    x0 = nest.fixed_point_left()
    for n in range(21):
        assert fam.value(n, x0) == n + 1
    # off the N-th level the partial sums stay strictly below N; checked
    # at every complement-component midpoint, where the values freeze
    # once the point has left the nest
    for N in range(1, 11):
        gaps = nest.level(N).complement()
        for a, b in gaps.components:
            if b == a:
                continue
            x = a + (b - a) / 2
            assert not nest.contains(N, x)
            sup = max(fam.value(n, x) for n in range(31))
            assert sup < N


def test_criterion_06_sum_flags_equal_union_of_flags():
    # the sum can cross M where neither part does (at x=73/200 the parts are
    # 1.32 and 8.83, the sum 10.15), hence the M / M/2 sandwich below
    M, N = 10, 30
    tz = tietze_family(cantor_nest(CantorParams(HALF)))
    lv = liouville_family(LiouvilleParams())
    both = sum_family(tz, lv)
    grid = default_grid((0, 1))
    est_t = divergence_estimate(tz, M=M, N=N, grid=grid)
    est_l = divergence_estimate(lv, M=M, N=N, grid=grid)
    est_s = divergence_estimate(both, M=M, N=N, grid=grid)

    assert min(est_t.values) >= 0 and min(est_l.values) >= 0
    for x, t, l, s in zip(grid, est_t.values, est_l.values, est_s.values):
        assert s == t + l, f"sum at x={x}: {s} != {t} + {l}"

    flag_t = set(est_t.flagged_points())
    flag_l = set(est_l.flagged_points())
    flag_s = set(est_s.flagged_points())
    assert flag_t | flag_l <= flag_s, (
        f"flagged by a part but not by the sum: "
        f"{sorted((flag_t | flag_l) - flag_s)}")
    half_t = set(divergence_estimate(tz, M=M / 2, N=N, grid=grid)
                 .flagged_points())
    half_l = set(divergence_estimate(lv, M=M / 2, N=N, grid=grid)
                 .flagged_points())
    assert flag_s <= half_t | half_l, (
        f"sum exceeds M={M} where both parts are at most M/2: "
        f"{sorted(flag_s - (half_t | half_l))}")


def test_criterion_07_rational_neighborhood_structure():
    for q in range(1, 51):
        assert y_set(q, 4).subset_of_relative_interior(z_set(q, 4))
        assert z_set(q, 4).subset_of(y_set(q, 3))
    fam = jarnik_family(JarnikParams(HALF, q_max=50))
    assert fam.value(30, HALF) >= 15


def test_criterion_08_max_family_surrogate():
    start = time.monotonic()
    report = max_family_check(anydh_family(HALF), M=10, n_max=30)
    assert report.all_reached
    assert report.monotone.ok
    assert len(report.rows) == 10
    for row in report.rows:
        values = [v for _, v in row.integrals]
        assert all(x <= y for x, y in zip(values, values[1:]))
    alone = max_family_check(
        tietze_family(cantor_nest(CantorParams(HALF))), M=10, n_max=30,
        subintervals=[(Fraction(2, 5), Fraction(3, 5))])
    assert not alone.rows[0].reached
    assert alone.rows[0].certified_not_reached
    assert time.monotonic() - start < 30.0


def test_criterion_09_quasiarithmetic_mean_criteria():
    from divergia import GeneratorFamily
    fam = GeneratorFamily(lambda n: Exp(n), (0.0, 1.0))
    assert abs(ratio_condition(fam, 0, 0.5, 1, 20)) < 1e-4

    assert abs(power_mean(100, (1, 2)) - 2) < 0.02

    rng = random.Random(90)
    for F, G in ((Power(1), Power(2)), (Log(), Power(1))):
        grid = [1 + k / 32 for k in range(33)]
        verdict = comparability(F, G, grid, tuples=100, seed=90)
        assert verdict.relation == "<="
        assert verdict.mean_checks_agree
        for _ in range(100):
            a = [1 + rng.random() for _ in range(4)]
            assert qa_mean(F, a) <= qa_mean(G, a) + 1e-8

    # the mean tends to max(a) as c -> oo, but at finite c it sits
    # ln((1 + e^(-c (max - min)))/2)/c below it, within ln(n)/c (n = 2)
    lo, hi = 0.2, 0.9
    value = qa_mean(Exp(50), (lo, hi))
    closed = hi + math.log((1 + math.exp(-50 * (hi - lo))) / 2) / 50
    assert abs(value - closed) < 1e-11, (
        f"qa_mean(Exp(50), (0.2, 0.9)) = {value!r}; the closed form "
        f"0.9 + ln((1 + e^-35)/2)/50 = {closed!r}")
    deviations = []
    for c in (50, 500, 5000):
        deviation = hi - qa_mean(Exp(c), (lo, hi))
        assert 0 < deviation <= math.log(2) / c + 1e-11, (c, deviation)
        deviations.append(deviation)
    assert deviations[0] > deviations[1] > deviations[2], deviations
    assert deviations[-1] < 1e-3, deviations


def test_criterion_10_property_suites_deterministic():
    def interval_algebra_run(seed):
        rng = random.Random(seed)
        trace = []
        for _ in range(10_000):
            comps = [tuple(sorted((Fraction(rng.randint(0, 48), 48),
                                   Fraction(rng.randint(0, 48), 48))))
                     for _ in range(rng.randint(0, 3))]
            A = IntervalUnion((0, 1), comps)
            B = IntervalUnion((0, 1), A.components)
            assert B.components == A.components  # canonical fixed point
            CC = A.complement().complement()
            assert CC.measure() == A.measure()
            assert A.intersect(A).components == A.components
            assert A.union(A).components == A.components
            assert A.intersect(B).measure() <= A.measure() <= \
                A.union(B).measure()
            trace.append((A.components, CC.components))
        return trace

    assert interval_algebra_run(1234) == interval_algebra_run(1234)

    # add/integral exactness on the rational backend
    rng = random.Random(77)
    for _ in range(100):
        cuts = sorted({0, 24} | {rng.randint(1, 23) for _ in range(3)})
        xs = [Fraction(c, 24) for c in cuts]
        f = PiecewiseLinear(xs, [Fraction(rng.randint(-6, 6), 3)
                                 for _ in xs])
        g = PiecewiseLinear(xs, [Fraction(rng.randint(-6, 6), 3)
                                 for _ in xs])
        h = f.add(g)
        assert h.integral(0, 1) == f.integral(0, 1) + g.integral(0, 1)
        mid = Fraction(rng.randint(1, 47), 48)
        assert h.integral(0, 1) == h.integral(0, mid) + h.integral(mid, 1)

    # affine invariance of the quasiarithmetic mean
    from divergia import AffineOf
    rng = random.Random(55)
    for _ in range(100):
        a = [0.2 + rng.random() for _ in range(4)]
        assert qa_mean(AffineOf(Power(2), -3, 7), a) == pytest.approx(
            qa_mean(Power(2), a), abs=1e-10)

    # superlevel sets nest downward in the threshold
    tent = PiecewiseLinear((0, Fraction(1, 4), HALF, 1),
                           (0, 2, Fraction(1, 2), 3))
    prev = None
    for M in (Fraction(1, 4), HALF, 1, 2):
        S = superlevel_set(tent, M)
        if prev is not None:
            assert S.subset_of(prev)
        prev = S
