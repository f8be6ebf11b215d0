import math
from fractions import Fraction
from math import gcd

import pytest

from divergia import (CantorParams, DomainMismatchError, FunctionFamily,
                      JarnikParams, LiouvilleParams, ParameterError,
                      PiecewiseLinear, anydh_family, cantor_nest,
                      constant_family, default_grid, divergence_estimate,
                      jarnik_family, liouville_family, max_family_check,
                      monotone_check, sum_family, superlevel_set,
                      tietze_family)
from divergia.scalars import meet

DOMAIN = (0, 1)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def tz():
    return tietze_family(cantor_nest(CantorParams(HALF)))


@pytest.fixture(scope="module")
def lv():
    return liouville_family(LiouvilleParams())


# ----------------------------------------------------------------------
# combinators
# ----------------------------------------------------------------------

def test_sum_family_pointwise(tz, lv):
    s = sum_family(tz, lv)
    for x in (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)):
        assert s.value(5, x) == pytest.approx(
            float(tz.value(5, x)) + lv.value(5, x))
    assert s.min_index == 1


def test_sum_family_increments_compose(tz, lv):
    s = sum_family(tz, lv)
    inc = s.increment(3)
    ref = tz.increment(3).add(lv.increment(3))
    for x in inc.xs[::7]:
        assert inc.eval(x) == pytest.approx(ref.eval(x))


def test_sum_family_first_increment_keeps_the_first_bump(lv):
    # the sum starts at index 1, so its first increment is rule(1) of each
    # summand, and the Tietze rule(1) carries bump 0 below that index
    tz = tietze_family(cantor_nest(CantorParams(HALF)))
    want = PiecewiseLinear.add(*meet(tz.rule(1), lv.rule(1)))
    assert anydh_family(HALF).increment(1) == want


def test_anydh_increments_meet_as_floats():
    # the exact nest summand is converted to float before the knot merge
    fam = anydh_family(HALF)
    for n in range(1, 8):
        for inc in (fam.increment(n), fam.rule(n)):
            assert {type(v) for v in inc.xs + inc.ys} == {float}


def test_sum_keeps_exact_summand_finer_than_float_resolution(lv):
    # at theta = 1/5 the nest's level-10 knots are closer together than
    # float resolution, so that summand meets the float one exactly
    tz5 = tietze_family(cantor_nest(CantorParams(Fraction(1, 5))))
    assert tz5.increment(10).as_float() is None
    s = sum_family(tz5, lv)
    assert s.increment(10) == tz5.increment(10).add(lv.increment(10))
    assert {type(v) for v in s.increment(9).xs} == {float}


@pytest.mark.parametrize("f_max, g_max, want", [
    (None, None, None), (None, 30, 30), (40, None, 40), (40, 30, 30)])
def test_sum_family_keeps_the_smaller_max_index(f_max, g_max, want):
    def build(max_index):
        return FunctionFamily(
            DOMAIN, lambda n: PiecewiseLinear.constant(DOMAIN, n),
            max_index=max_index)

    assert sum_family(build(f_max), build(g_max)).max_index == want


def test_anydh_stops_where_its_liouville_part_stops():
    assert anydh_family(HALF).max_index == LiouvilleParams().q_max


def test_sum_family_rejects_domain_mismatch(tz):
    other = constant_family((0, 2), lambda n: n)
    with pytest.raises(DomainMismatchError):
        sum_family(tz, other)


# ----------------------------------------------------------------------
# superlevel sets
# ----------------------------------------------------------------------

def test_superlevel_set_exact_crossings():
    tent = PiecewiseLinear((0, HALF, 1), (0, 1, 0))
    S = superlevel_set(tent, HALF)
    assert S.components == ((Fraction(1, 4), Fraction(3, 4)),)
    assert S.exact


def test_superlevel_touch_point_vanishes():
    tent = PiecewiseLinear((0, HALF, 1), (0, 1, 0))
    assert superlevel_set(tent, 1).is_empty()


def test_superlevel_nesting():
    tent = PiecewiseLinear((0, Fraction(1, 4), HALF, 1),
                           (0, 2, Fraction(1, 2), 3))
    prev = None
    for M in (Fraction(1, 4), HALF, 1, 2):
        S = superlevel_set(tent, M)
        if prev is not None:
            assert S.subset_of(prev)
        prev = S


# ----------------------------------------------------------------------
# divergence estimates
# ----------------------------------------------------------------------

def test_default_grid_contents():
    g = default_grid(DOMAIN)
    assert len(g) >= 1001
    assert Fraction(1, 3) in g and Fraction(17, 20) in g
    assert g == sorted(g)
    assert g[0] == 0 and g[-1] == 1


def test_divergence_estimate_flags(tz):
    est = divergence_estimate(tz, M=5, N=10,
                              grid=[Fraction(1, 6), HALF, Fraction(5, 6)])
    assert est.flags == (True, False, True)
    assert est.flagged_points() == [Fraction(1, 6), Fraction(5, 6)]
    doc = est.to_json()
    assert doc["M"] == 5.0 and doc["N"] == 10
    assert "approximates" in doc["note"]


def test_divergence_estimate_checks_each_point_once(monkeypatch):
    # the estimate checks its grid once; the sum's value and each summand
    # read their values unchecked, and flags are exact comparisons with M
    checked = []
    check = FunctionFamily._check
    monkeypatch.setattr(FunctionFamily, "_check", lambda self, n, *points:
                        checked.extend(points) or check(self, n, *points))
    fam = anydh_family(Fraction(1, 3))
    grid = default_grid(fam.domain, points=40, q_max=6)
    est = divergence_estimate(fam, M=2.25, N=6, grid=grid)
    assert checked == grid
    monkeypatch.setattr(FunctionFamily, "_check", check)
    values = [fam.value(6, x) for x in grid]
    assert [(type(v), v) for v in est.values] == \
        [(type(v), v) for v in values]
    assert est.flags == tuple(v > 2.25 for v in values)


def test_divergence_estimate_flags_exact_values_against_float_M(tz):
    # the values 11, 1/2, 11 and 11/7 meet each float M exactly, the last
    # M within a rounding of 11/7
    grid = [Fraction(1, 6), HALF, Fraction(5, 6), Fraction(1, 7)]
    values = [tz.value(10, x) for x in grid]
    for M in (5.0, 0.1, 10.999999999999998, 11.0, float(values[-1])):
        est = divergence_estimate(tz, M=M, N=10, grid=grid)
        assert est.flags == tuple(v > M for v in values)


def test_divergence_estimate_validates(tz):
    with pytest.raises(ParameterError):
        divergence_estimate(tz, M=0)
    with pytest.raises(ParameterError):
        divergence_estimate(tz, M=5, N=10, grid=[Fraction(3, 2)])


@pytest.mark.parametrize("M", [0, -1, Fraction(-1, 2), math.inf,
                               -math.inf, math.nan])
@pytest.mark.parametrize("verdict", [max_family_check, divergence_estimate])
def test_threshold_must_be_finite_and_positive(verdict, M):
    fam = liouville_family()
    with pytest.raises(ParameterError, match="M must be finite and positive"):
        verdict(fam, M=M)
    assert not fam._increments and not fam._memo


# ----------------------------------------------------------------------
# max-family check
# ----------------------------------------------------------------------

def test_constant_family_reaches_threshold():
    fam = constant_family(DOMAIN, lambda n: n)
    rep = max_family_check(fam, M=2, n_max=40)
    assert rep.all_reached and rep.monotone.ok
    # each subinterval has length 1/10, so the integral passes 2 at n = 21
    assert all(r.reached_at == 21 for r in rep.rows)


def test_tietze_alone_certified_not_reached(tz):
    rep = max_family_check(tz, M=10, n_max=30,
                           subintervals=[(Fraction(2, 5), Fraction(3, 5))])
    row = rep.rows[0]
    assert not row.reached
    assert row.certified_not_reached
    # certification kicks in early: the tail bound closes within a few
    # levels, long before n_max
    assert row.integrals[-1][0] < 10


def test_certified_at_the_first_n_whose_tail_fits():
    # zero increments with step bounds 1: levels n+1..10 can still add at
    # most 10 - n, which first fits under M = 3 at n = 7
    zero = PiecewiseLinear.constant(DOMAIN, 0)
    fam = FunctionFamily(DOMAIN, increment=lambda n: zero,
                         step_bound=lambda k: 1.0)
    rep = max_family_check(fam, M=3, n_max=10)
    assert all(r.certified_not_reached and r.integrals[-1][0] == 7
               for r in rep.rows)


def test_liouville_reaches_everywhere(lv):
    rep = max_family_check(lv, M=10, n_max=30)
    assert rep.all_reached and rep.monotone.ok


def test_monotone_violation_detected():
    fam = constant_family(DOMAIN, lambda n: -n)
    rep = max_family_check(fam, M=1, n_max=5)
    assert not rep.monotone.ok


def test_max_family_check_monotone_is_monotone_check():
    # the report names the first increment knot below -tol, not the argmin
    fam = FunctionFamily(
        DOMAIN, lambda n: PiecewiseLinear((0, 1), (-n, -2 * n)))
    rep = max_family_check(fam, M=1, n_max=5)
    deepest = max(n for row in rep.rows for n, _ in row.integrals)
    assert rep.monotone == monotone_check(fam, deepest)
    assert rep.monotone.first_violation == (1, 0, -1)


def test_report_json_shape(tz):
    rep = max_family_check(tz, M=10, n_max=12,
                           subintervals=[(Fraction(2, 5), Fraction(3, 5))])
    doc = rep.to_json()
    assert doc["M"] == 10.0 and doc["N_max"] == 12
    assert doc["rows"][0]["certified_not_reached"] is True


def test_subinterval_validation(tz):
    with pytest.raises(ParameterError):
        max_family_check(tz, n_max=-1)
    with pytest.raises(ParameterError):
        max_family_check(tz, subintervals=[])


@pytest.mark.parametrize("bad", [(HALF, Fraction(1, 3)), (HALF, HALF),
                                 (Fraction(-1, 2), HALF), (HALF, 2)])
def test_subintervals_checked_before_the_scan(bad):
    fam = liouville_family()
    with pytest.raises(ParameterError, match="subinterval"):
        max_family_check(fam, M=10 ** 6, n_max=50,
                         subintervals=[(0, 1), bad])
    assert not fam._increments and not fam._memo


@pytest.mark.parametrize("build, M, n_max", [
    (liouville_family, 10 ** 6, 60),
    (lambda: jarnik_family(JarnikParams(HALF, q_max=20)), 10, 200),
    (lambda: anydh_family(HALF), 10, 60),
], ids=["liouville", "jarnik", "anydh"])
def test_index_past_max_index_fails_before_the_scan(build, M, n_max):
    fam = build()
    with pytest.raises(ParameterError, match="exceeds q_max"):
        max_family_check(fam, M=M, n_max=n_max)
    assert not fam._increments and not fam._memo


# ----------------------------------------------------------------------
# assembled families
# ----------------------------------------------------------------------

def test_anydh_theta_zero_is_liouville_alone():
    fam = anydh_family(0)
    assert fam.tag == "anydh(theta=0)"
    assert fam.value(2, 0.5) == pytest.approx(9.0)


def test_anydh_theta_one_uses_linear_part(lv):
    fam = anydh_family(1)
    # the nest part degenerates to the constant n, added on top of the
    # dense zero-dimension part
    for x in (0.3, 0.5, 0.618):
        assert fam.value(7, x) == pytest.approx(7 + lv.value(7, x))


def test_anydh_generic_theta_passes_check():
    fam = anydh_family(HALF)
    rep = max_family_check(fam, M=4, n_max=30)
    assert rep.all_reached and rep.monotone.ok


def test_anydh_rejects_bad_theta():
    with pytest.raises(ParameterError):
        anydh_family(Fraction(3, 2))


def reference_grid(domain, points, q_max):
    """The grid from a sorted set of Fractions, mapped onto the domain."""
    lo, hi = domain
    ts = {Fraction(k, points) for k in range(points + 1)}
    ts |= {Fraction(p, q) for q in range(1, q_max + 1)
           for p in range(q + 1) if gcd(p, q) == 1}
    return [lo + (hi - lo) * t for t in sorted(ts)]


@pytest.mark.parametrize("domain", [
    (0, 1), (0.0, 1.0), (0, 1.0), (-2, 5), (Fraction(1, 3), 2),
    (0.1, 0.7), (Fraction(1, 7), 0.9), (-1e10, 3.0)])
@pytest.mark.parametrize("points, q_max", [(1000, 20), (10, 1), (7, 5),
                                           (3, 13), (1, 0)])
def test_default_grid_matches_sorted_fractions(domain, points, q_max):
    got = default_grid(domain, points=points, q_max=q_max)
    want = reference_grid(domain, points, q_max)
    assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want]


@pytest.mark.parametrize("points, q_max, match", [
    (0, 20, "points must be >= 1, got 0"),
    (-2, 2, "points must be >= 1, got -2"),
    (1000, -1, "q_max must be >= 0, got -1"),
])
def test_default_grid_rejects_bad_sizes(points, q_max, match):
    # unchecked, zero points divide by zero, negative points keep only
    # the rationals, and a negative q_max reads as 0
    with pytest.raises(ParameterError, match=match):
        default_grid(DOMAIN, points=points, q_max=q_max)
