import math
import random

import pytest
from hypothesis import given
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


def test_ratio_report_verdicts():
    pos = ratio_report(exp_rate_family(), 0, 0.5, 1, 20)
    assert pos.qa_maximal_indicator and bool(pos)
    neg = ratio_report(constant_generator_family(Power(1), (0.0, 1.0)),
                       0.1, 0.5, 0.9, 20)
    assert not neg.qa_maximal_indicator


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
