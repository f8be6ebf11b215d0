import math
from fractions import Fraction

import pytest

from divergia import dimension
from divergia import (CantorParams, IntervalUnion, ParameterError, box_count,
                      box_dimension, cantor_nest, moran_dimension)

DOMAIN = (0, 1)


# ----------------------------------------------------------------------
# similarity-dimension equation
# ----------------------------------------------------------------------

def test_moran_two_equal_ratios_closed_form():
    for c in [0.05 * k for k in range(1, 10)]:
        s = moran_dimension([c, c])
        assert abs(s - math.log(2) / math.log(1 / c)) <= 1e-9


def test_moran_root_past_a_million():
    # ratios near 1 put the root ln 2 / -ln c = 6 931 471.46 far out
    c = 0.9999999
    s = moran_dimension([c, c])
    assert s == pytest.approx(math.log(2) / -math.log(c), rel=1e-9)


def test_moran_single_ratio_is_zero():
    # sum c^s = 1 with one ratio forces s = 0
    assert moran_dimension([0.5]) <= 1e-9


def test_moran_middle_thirds():
    s = moran_dimension([Fraction(1, 3), Fraction(1, 3)])
    assert abs(s - math.log(2) / math.log(3)) <= 1e-9


def test_moran_monotone_in_ratio_count_and_size():
    base = moran_dimension([0.3, 0.3])
    assert moran_dimension([0.3, 0.3, 0.3]) > base
    assert moran_dimension([0.2, 0.2]) < base


def test_moran_can_exceed_one():
    assert moran_dimension([0.9, 0.9]) > 1


def test_moran_rejects_bad_input():
    with pytest.raises(ParameterError):
        moran_dimension([])
    with pytest.raises(ParameterError):
        moran_dimension([1.0])
    with pytest.raises(ParameterError):
        moran_dimension([0.0, 0.5])


# ----------------------------------------------------------------------
# box counting
# ----------------------------------------------------------------------

def test_box_count_full_interval():
    A = IntervalUnion.full(DOMAIN)
    assert box_count(A, Fraction(1, 10)) == 10
    assert box_count(A, Fraction(1, 3)) == 3


def test_box_count_first_nest_level():
    # [1/8,3/8] u [5/8,7/8] at delta = 1/8 meets boxes 1,2,3 and 5,6,7;
    # each right endpoint on a boundary belongs to the box on its right
    D1 = cantor_nest(CantorParams(Fraction(1, 2))).level(1)
    assert box_count(D1, Fraction(1, 8)) == 6
    assert box_count(D1, Fraction(1, 2)) == 2
    assert box_count(D1, Fraction(1, 4)) == 4


def test_box_count_boundary_tie_break():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 2), Fraction(1, 2))])
    # the degenerate point sits on a boundary: counted once, in the box
    # to its right
    assert box_count(A, Fraction(1, 4)) == 1


def test_box_count_grid_clipped_to_domain():
    # endpoint 1 falls on the virtual boundary of a box past the domain;
    # it must be counted in the last in-domain box
    A = IntervalUnion(DOMAIN, [(Fraction(9, 10), 1)])
    assert box_count(A, Fraction(1, 3)) == 1


def test_box_count_rejects_nonpositive_delta():
    with pytest.raises(ParameterError):
        box_count(IntervalUnion.full(DOMAIN), 0)


def test_box_dimension_of_interval_is_one():
    est = box_dimension(IntervalUnion.full(DOMAIN),
                        [2.0 ** -k for k in range(2, 9)])
    assert est.estimate == pytest.approx(1.0, abs=1e-9)
    assert not est.low_confidence


def test_box_dimension_of_point_is_zero():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 3), Fraction(1, 3))])
    est = box_dimension(A, [2.0 ** -k for k in range(2, 9)])
    assert est.estimate == pytest.approx(0.0, abs=1e-9)
    assert est.low_confidence


def test_box_dimension_requires_enough_scales():
    with pytest.raises(ParameterError):
        box_dimension(IntervalUnion.full(DOMAIN), [0.5, 0.25, 0.125])


@pytest.mark.parametrize("scales", [
    [Fraction(1, 4)] * 4,
    [0.25, Fraction(1, 4), 0.25, Fraction(1, 4)],
], ids=["one-scale", "one-scale-two-types"])
def test_box_dimension_needs_two_distinct_scales(scales, monkeypatch):
    # one distinct scale leaves the regression without a slope; the
    # refusal comes before any box is counted
    def refuse(A, delta):
        raise AssertionError("box counted")

    monkeypatch.setattr(dimension, "box_count", refuse)
    A = cantor_nest(CantorParams(Fraction(1, 2))).level(4)
    with pytest.raises(ParameterError, match="distinct"):
        box_dimension(A, scales)


def test_box_dimension_rejects_empty_set():
    with pytest.raises(ParameterError):
        box_dimension(IntervalUnion.empty(DOMAIN),
                      [2.0 ** -k for k in range(2, 9)])


def test_box_dimension_nest_counts_exact():
    nest = cantor_nest(CantorParams(Fraction(1, 2)))
    A = nest.level(12)
    # above the cut-off depth the count is exactly 2^k (one box pair per
    # surviving component cluster)
    for k in range(2, 6):
        assert box_count(A, Fraction(1, 4) ** k) == 2 ** (k + 1)


def test_box_dimension_json():
    est = box_dimension(IntervalUnion.full(DOMAIN),
                        [2.0 ** -k for k in range(2, 9)])
    doc = est.to_json()
    assert set(doc) >= {"estimate", "slope", "intercept", "residual",
                        "low_confidence", "counts"}
    assert len(doc["counts"]) == 7
