import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divergia import (AffineOf, ConstructionError, Exp, GeneratorFamily, Log,
                      ParameterError, Power, arrow_family, comparability,
                      constant_generator_family, exp_rate_family,
                      max_family_check, power_mean, power_rate_family,
                      qa_mean, ratio_condition, ratio_report)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def test_generator_evaluation():
    assert Power(2)(3) == 9
    assert Log()(math.e) == pytest.approx(1.0)
    assert Exp(2)(1) == pytest.approx(math.e ** 2)
    assert AffineOf(Power(2), 3, 1)(2) == 13


def test_generator_parameter_validation():
    with pytest.raises(ParameterError):
        Power(0)
    with pytest.raises(ParameterError):
        Exp(0)
    with pytest.raises(ParameterError):
        AffineOf(Log(), 0)


def test_arrow_expressions():
    assert Power(3).arrow()(2) == pytest.approx(1.0)       # (p-1)/x
    assert Log().arrow()(2) == pytest.approx(-0.5)         # -1/x
    assert Exp(5).arrow()(7) == pytest.approx(5.0)         # constant c
    assert AffineOf(Exp(5), 2, 1).arrow()(7) == pytest.approx(5.0)


# ----------------------------------------------------------------------
# means
# ----------------------------------------------------------------------

def test_internality():
    rng = random.Random(3)
    gens = [Power(2), Power(-1), Log(), Exp(3), Exp(-2)]
    for _ in range(40):
        a = [0.1 + rng.random() for _ in range(rng.randint(1, 5))]
        for F in gens:
            m = qa_mean(F, a)
            assert min(a) - 1e-9 <= m <= max(a) + 1e-9


def test_round_trip():
    rng = random.Random(9)
    for F in (Power(3), Log(), Exp(2)):
        for _ in range(20):
            a = [0.2 + rng.random() for _ in range(3)]
            m = qa_mean(F, a)
            target = math.fsum(F(v) for v in a) / len(a)
            assert F(m) == pytest.approx(target, abs=1e-10, rel=1e-10)


def test_affine_invariance():
    rng = random.Random(27)
    for _ in range(30):
        a = [0.2 + rng.random() for _ in range(4)]
        base = Power(2)
        shifted = AffineOf(base, -3.5, 11.0)
        assert qa_mean(shifted, a) == pytest.approx(qa_mean(base, a),
                                                    abs=1e-10)


def test_power_mean_agrees_with_qa_mean():
    rng = random.Random(81)
    for p in (-2, -1, 1, 2, 3):
        for _ in range(10):
            a = [0.2 + rng.random() for _ in range(4)]
            assert power_mean(p, a) == pytest.approx(
                qa_mean(Power(p), a), abs=1e-10)
    for _ in range(10):
        a = [0.2 + rng.random() for _ in range(4)]
        assert power_mean(0, a) == pytest.approx(qa_mean(Log(), a),
                                                 abs=1e-10)


def test_power_mean_classics():
    assert power_mean(1, (1, 2, 3)) == pytest.approx(2.0)
    assert power_mean(0, (1, 4)) == pytest.approx(2.0)
    assert power_mean(-1, (2, 6)) == pytest.approx(3.0)


def test_mean_of_constant_tuple():
    assert qa_mean(Exp(100), (0.4, 0.4, 0.4)) == pytest.approx(0.4)


def test_exp_mean_overflow_free():
    # e^(1000 * 0.9) overflows a float; the shifted computation must not
    m = qa_mean(Exp(1000), (0.2, 0.9))
    assert 0.2 < m <= 0.9
    assert m == pytest.approx(0.9 + math.log(0.5) / 1000, abs=1e-9)


def test_exp_mean_tends_to_max():
    # closed form: 0.9 + ln((1 + e^(-0.7 c))/2)/c, tending to max(a)
    for c in (10, 50, 200):
        m = qa_mean(Exp(c), (0.2, 0.9))
        exact = 0.9 + math.log((1 + math.exp(-0.7 * c)) / 2) / c
        assert m == pytest.approx(exact, abs=1e-9)
    assert abs(qa_mean(Exp(50), (0.2, 0.9)) - 0.9) < math.log(2) / 50 + 1e-9


def test_negative_exp_mean_tends_to_min():
    m = qa_mean(Exp(-200), (0.2, 0.9))
    assert m == pytest.approx(0.2 - math.log(0.5) / 200, abs=1e-9)


@pytest.mark.parametrize("a", [(0, 1), (1, 2, 3.5), (-1.0, 0.3, 0.7)])
@pytest.mark.parametrize("F", [Exp(-1000), AffineOf(Exp(-1000), 2.0, 1.0)],
                         ids=["exp", "affine"])
def test_negative_exp_mean_overflow_free(F, a):
    # e^(-1000 * (min - max)) overflows a float; factoring out the dominant
    # term e^(c * min(a)) keeps every scaled term at most 1
    c, lo = -1000, min(a)
    want = lo + math.log(math.fsum(math.exp(c * (x - lo)) for x in a)
                         / len(a)) / c
    assert qa_mean(F, a) == pytest.approx(want, abs=1e-9)


def _log_power_mean(p, a):
    """p-th power mean by log-sum-exp: finite for any p and positive a."""
    logs = [math.log(v) for v in a]
    top = max(p * t for t in logs)
    lse = top + math.log(math.fsum(math.exp(p * t - top) for t in logs))
    return math.exp((lse - math.log(len(a))) / p)


@pytest.mark.parametrize("mean", [
    lambda: qa_mean(Power(2000), (1, 2)),
    lambda: power_mean(2000, (1, 2)),
    lambda: qa_mean(AffineOf(Power(2000), 2, 1), (1, 2)),
], ids=["qa_mean", "power_mean", "affine"])
def test_steep_power_mean_overflow_free(mean):
    # 2^2000 overflows a float; dividing by the dominant term max(a)^p
    # keeps every scaled term at most 1
    assert mean() == pytest.approx(_log_power_mean(2000, (1, 2)), abs=1e-9)


def test_steep_power_ratio_overflow_free():
    # ((x/z)^n - (y/z)^n) / (1 - (y/z)^n), with every power in the log domain
    x, y, z, n = 1.1, 1.5, 1.9, 2000
    ex = math.exp(n * (math.log(x) - math.log(z)))
    ey = math.exp(n * (math.log(y) - math.log(z)))
    want = (ex - ey) / (1 - ey)
    got = ratio_condition(power_rate_family(), x, y, z, n)
    assert got == pytest.approx(want, rel=1e-9, abs=0)
    assert got < 0


@pytest.mark.parametrize("a", [(1.5, 2.0), (2.0, 3.0)])
def test_affine_power_mean_keeps_the_power_term(a):
    # a^-45.7 is below 1e-8 on these tuples, so adding b = 1 to it before
    # averaging rounds most of it away; the scaled generator never adds b
    got = qa_mean(AffineOf(Power(-45.7), 1.0, 1.0), a)
    assert abs(got - _log_power_mean(-45.7, a)) <= 1e-12


def test_mean_input_validation():
    with pytest.raises(ParameterError):
        qa_mean(Log(), ())
    with pytest.raises(ParameterError):
        qa_mean(Log(), (1.0, -1.0))
    with pytest.raises(ParameterError):
        power_mean(2, (1.0, 0.0))


@given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1,
                max_size=5))
def test_power_mean_ordering(a):
    # p-th power means are nondecreasing in p
    assert power_mean(1, a) <= power_mean(2, a) + 1e-9
    assert power_mean(0, a) <= power_mean(1, a) + 1e-9


# The Exp-only dominant-term code that Generator.scaled replaced, kept as
# the reference the scaled paths must match bit for bit.

def _reference_exp_qa_mean(F, a, tol=1e-12):
    base = F
    while isinstance(base, AffineOf):
        base = base.inner
    lo, hi = min(a), max(a)
    if lo == hi:
        return float(lo)
    shift = float(hi) if base.c > 0 else float(lo)

    def feval(x):
        if shift:
            return math.exp(base.c * (float(x) - shift))
        return F(x)

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
        if hi_f - lo_f <= tol:
            break
    return (lo_f + hi_f) / 2


def _reference_exp_ratio(c, x, y, z):
    ex = math.exp(c * (float(x) - float(z)))
    ey = math.exp(c * (float(y) - float(z)))
    return (ex - ey) / (1.0 - ey)


_rates = st.floats(min_value=-1000, max_value=1000).filter(lambda c: c != 0)
_points = st.floats(min_value=-2, max_value=2)


def _exp_generators(c):
    return st.one_of(
        st.just(Exp(c)),
        st.builds(lambda s, b: AffineOf(Exp(c), s, b),
                  st.floats(-3, 3).filter(lambda s: s != 0),
                  st.floats(-5, 5)),
        st.builds(lambda s: AffineOf(AffineOf(Exp(c), s, 1.0), -1.0),
                  st.floats(0.5, 3)))


@settings(max_examples=400)
@given(st.data(), _rates,
       st.lists(_points, min_size=1, max_size=8),
       st.sampled_from([(), (0.0,), (-0.0, 1.0)]))
def test_exp_mean_matches_reference(data, c, a, ends):
    # An affine image gives exactly its generator's mean.  The reference
    # agrees wherever it shifted; at a shift end of exactly 0 (which ends
    # puts in) it averaged a e^(c x) + b instead, and could round the
    # exponential away against b.
    F = data.draw(_exp_generators(c))
    a = a + list(ends)
    got = qa_mean(F, a)
    want = _reference_exp_qa_mean(Exp(c), a)
    assert type(got) is type(want)
    assert repr(got) == repr(want)
    if (max(a) if c > 0 else min(a)) != 0:
        assert repr(_reference_exp_qa_mean(F, a)) == repr(want)


def test_affine_exp_mean_at_zero_shift():
    # the reference returned 0.5: a e^(-x) + b rounds to the constant 1.0
    F, a = AffineOf(Exp(-1.0), 1.6784685150090963e-219, 1.0), (0.0, -0.0, 1.0)
    want = -math.log((2 + math.exp(-1)) / 3)
    assert _reference_exp_qa_mean(F, a) == 0.5
    assert qa_mean(F, a) == pytest.approx(want, abs=1e-12)


@settings(max_examples=200)
@given(st.data(), _rates, st.lists(_points, min_size=3, max_size=3,
                                   unique=True))
def test_exp_ratio_matches_reference(data, c, probe):
    x, y, z = sorted(probe)
    fam = constant_generator_family(data.draw(_exp_generators(c)),
                                    (-2.0, 2.0))
    try:
        want = _reference_exp_ratio(c, x, y, z)
    except OverflowError:
        with pytest.raises(OverflowError):
            ratio_condition(fam, x, y, z, 1)
        return
    except ZeroDivisionError:
        with pytest.raises(ConstructionError):
            ratio_condition(fam, x, y, z, 1)
        return
    if not math.isfinite(want):
        with pytest.raises(OverflowError):
            ratio_condition(fam, x, y, z, 1)
        return
    got = ratio_condition(fam, x, y, z, 1)
    assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# maximality criteria
# ----------------------------------------------------------------------

def test_ratio_condition_decays_for_exp_family():
    fam = exp_rate_family()
    q5 = abs(ratio_condition(fam, 0, 0.5, 1, 5))
    q20 = abs(ratio_condition(fam, 0, 0.5, 1, 20))
    assert q20 < q5
    assert q20 < 1e-4


def test_ratio_condition_constant_for_fixed_generator():
    fam = constant_generator_family(Power(1), (0.0, 1.0))
    vals = {ratio_condition(fam, 0.1, 0.5, 0.9, n) for n in range(1, 6)}
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(-1.0)


def test_ratio_condition_affine_invariant():
    fam = exp_rate_family()
    aff = GeneratorFamily(lambda n: AffineOf(Exp(n), 2.5, -1), (0.0, 1.0))
    for n in (1, 5, 20):
        assert ratio_condition(fam, 0, 0.5, 1, n) == pytest.approx(
            ratio_condition(aff, 0, 0.5, 1, n), abs=1e-12)


def test_ratio_condition_needs_ordered_probe():
    with pytest.raises(ParameterError):
        ratio_condition(exp_rate_family(), 0.5, 0.5, 1, 3)


def test_ratio_condition_raises_outside_float_range():
    # e^(1490 (z - x)) overflows once F_n(z) is factored out; factoring out
    # F_n(x) instead would divide by a subnormal and return -inf
    fam = GeneratorFamily(lambda n: Exp(-n), (0.0, 1.0))
    with pytest.raises(OverflowError):
        ratio_condition(fam, 0, 0.5, 1, 1490)
    # every term is finite, but the quotient e^700 / (1 - e^(700 ulp))
    # is not
    with pytest.raises(OverflowError):
        ratio_condition(fam, 0, 1 - 2 ** -53, 1, 700)


def test_ratio_report_verdicts():
    pos = ratio_report(exp_rate_family(), 0, 0.5, 1, 20)
    assert pos.qa_maximal_indicator and bool(pos)
    neg = ratio_report(constant_generator_family(Power(1), (0.0, 1.0)),
                       0.1, 0.5, 0.9, 20)
    assert not neg.qa_maximal_indicator


@pytest.mark.parametrize("n_max", [0, -3])
def test_ratio_report_needs_an_index(n_max):
    with pytest.raises(ParameterError, match="N must be >= 1"):
        ratio_report(exp_rate_family(), 0, 0.5, 1, n_max)


def test_arrow_family_integral_criterion_positive():
    fam = arrow_family(exp_rate_family())
    rep = max_family_check(fam, M=2, n_max=30)
    assert rep.all_reached and rep.monotone.ok


def test_arrow_family_integral_criterion_negative():
    fam = arrow_family(constant_generator_family(Exp(1), (0.0, 1.0)))
    rep = max_family_check(fam, M=3, n_max=30)
    assert not rep.all_reached


def test_arrow_family_rejects_decreasing_arrows():
    fam = arrow_family(GeneratorFamily(lambda n: Exp(-n), (0.0, 1.0)))
    fam.rule(1)
    with pytest.raises(ConstructionError):
        fam.rule(2)


def test_arrow_family_interpolation_error_for_curved_arrows():
    fam = arrow_family(power_rate_family())
    fam.rule(3)
    assert fam.info[("interp_error", 3)] >= 0
    assert "lower_bound_note" in fam.info


# ----------------------------------------------------------------------
# comparability
# ----------------------------------------------------------------------

GRID = [1 + k / 32 for k in range(33)]


def test_comparability_power_orders():
    v = comparability(Power(1), Power(2), GRID)
    assert v.relation == "<="
    assert v.mean_checks_agree
    assert str(v) == "QA_F <= QA_G"


def test_comparability_log_below_power():
    v = comparability(Log(), Power(1), GRID)
    assert v.relation == "<=" and v.mean_checks_agree


def test_comparability_equal_generators():
    v = comparability(Power(2), AffineOf(Power(2), 5, -2), GRID)
    assert v.relation == "=="
    assert v.mean_checks_agree


def test_comparability_incomparable():
    # arrows cross: (p-1)/x versus a constant
    v = comparability(Power(3), Exp(1), [0.5 + k / 8 for k in range(33)])
    assert v.relation == "incomparable"
    assert "not comparable" in str(v)


def test_comparability_deterministic_under_seed():
    a = comparability(Power(1), Power(2), GRID, seed=7)
    b = comparability(Power(1), Power(2), GRID, seed=7)
    assert a == b


def test_comparability_needs_grid():
    with pytest.raises(ParameterError):
        comparability(Log(), Power(1), [])
