import bisect
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divergia import (CantorParams, IntervalUnion, ParameterError,
                      cantor_nest, hausdorff_distance, uniform_cantor)

DOMAIN = (0, 1)


def random_union(rng, max_comps=4, den=60):
    comps = []
    for _ in range(rng.randint(0, max_comps)):
        a = Fraction(rng.randint(0, den), den)
        b = Fraction(rng.randint(0, den), den)
        if b < a:
            a, b = b, a
        comps.append((a, b))
    return IntervalUnion(DOMAIN, comps)


def sample_points(rng, k=12, den=60):
    # oracle points: grid points plus offsets that dodge all endpoints
    pts = [Fraction(i, den) for i in range(den + 1)]
    pts += [Fraction(rng.randint(0, 7 * den - 1) * 2 + 1, 14 * den)
            for _ in range(k)]
    return pts


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------

def test_components_sorted_and_separated():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 2), Fraction(3, 4)),
                               (Fraction(0), Fraction(1, 4))])
    assert A.components == ((Fraction(0), Fraction(1, 4)),
                            (Fraction(1, 2), Fraction(3, 4)))


def test_touching_components_merge():
    A = IntervalUnion(DOMAIN, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    assert A.components == ((0, 1),)


def test_degenerate_components_kept():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 3), Fraction(1, 3))])
    assert A.components == ((Fraction(1, 3), Fraction(1, 3)),)
    assert A.measure() == 0
    assert A.contains_point(Fraction(1, 3))


def test_float_backend_merges_tolerance_slivers():
    A = IntervalUnion((0.0, 1.0), [(0.0, 0.5), (0.5 + 1e-14, 1.0)])
    assert len(A.components) == 1


def test_domain_escape_rejected():
    with pytest.raises(ParameterError):
        IntervalUnion(DOMAIN, [(Fraction(-1, 2), Fraction(1, 2))])
    with pytest.raises(ParameterError):
        IntervalUnion(DOMAIN, [(Fraction(1, 2), Fraction(3, 2))])


def test_negative_length_rejected():
    with pytest.raises(ParameterError):
        IntervalUnion(DOMAIN, [(Fraction(1, 2), Fraction(1, 4))])


def test_bad_domain_rejected():
    with pytest.raises(ParameterError):
        IntervalUnion((1, 0))


# ----------------------------------------------------------------------
# set algebra against a brute-force membership oracle
# ----------------------------------------------------------------------

def test_algebra_matches_membership_oracle():
    rng = random.Random(20260824)
    for _ in range(300):
        A = random_union(rng)
        B = random_union(rng)
        pts = sample_points(rng)
        U, I, C = A.union(B), A.intersect(B), A.complement()
        for x in pts:
            in_a, in_b = A.contains_point(x), B.contains_point(x)
            assert U.contains_point(x) == (in_a or in_b)
            assert I.contains_point(x) == (in_a and in_b)
            if not any(a == x or b == x for a, b in A.components):
                # closure only adds boundary points of A
                assert C.contains_point(x) == (not in_a)


def test_complement_is_involutive_up_to_closure():
    rng = random.Random(7)
    for _ in range(200):
        A = random_union(rng)
        CC = A.complement().complement()
        # double closure-complement contains A and adds no measure
        assert A.subset_of(CC.union(A))
        assert CC.measure() <= A.measure()


def test_measure_monotone_under_union_and_intersection():
    rng = random.Random(11)
    for _ in range(200):
        A, B = random_union(rng), random_union(rng)
        U, I = A.union(B), A.intersect(B)
        assert I.measure() <= min(A.measure(), B.measure())
        assert max(A.measure(), B.measure()) <= U.measure()
        # inclusion-exclusion is exact on the rational backend
        assert U.measure() + I.measure() == A.measure() + B.measure()


def test_subset_relations():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 4), Fraction(1, 2))])
    B = IntervalUnion(DOMAIN, [(Fraction(1, 8), Fraction(5, 8))])
    assert A.subset_of(B)
    assert not B.subset_of(A)
    assert A.subset_of_relative_interior(B)
    assert not B.subset_of_relative_interior(A)


def test_relative_interior_at_domain_endpoints():
    # touching a domain endpoint still counts as interior there
    A = IntervalUnion(DOMAIN, [(0, Fraction(1, 4))])
    B = IntervalUnion(DOMAIN, [(0, Fraction(1, 2))])
    assert A.subset_of_relative_interior(B)
    # but touching an interior boundary of B does not
    C = IntervalUnion(DOMAIN, [(Fraction(1, 4), Fraction(1, 2))])
    assert not C.subset_of_relative_interior(B)


def test_empty_and_full():
    E = IntervalUnion.empty(DOMAIN)
    F = IntervalUnion.full(DOMAIN)
    assert E.is_empty() and not F.is_empty()
    assert E.complement().components == F.components
    assert F.complement().is_empty()
    assert F.measure() == 1


@pytest.mark.parametrize("op, want", [
    ("intersect", ((0.25, 0.5),)),
    ("union", ((0.25, 0.5), (0.75, 1.0))),
])
def test_mixed_backend_operands_meet_as_floats(op, want):
    exact = IntervalUnion((0, 1), [(Fraction(1, 4), Fraction(1, 2))])
    other = IntervalUnion((0.0, 1.0), [(0.0, 1.0)] if op == "intersect"
                          else [(0.75, 1.0)])
    for a, b in ((exact, other), (other, exact)):
        out = getattr(a, op)(b)
        assert out.components == want and not out.exact
        assert out.domain == (0.0, 1.0)
        ends = out.domain + sum(out.components, ())
        assert all(type(v) is float for v in ends)


# ----------------------------------------------------------------------
# metrics and serialization
# ----------------------------------------------------------------------

def test_distance_to_point():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 4), Fraction(1, 2))])
    assert A.distance_to_point(Fraction(1, 3)) == 0
    assert A.distance_to_point(Fraction(1, 8)) == Fraction(1, 8)
    assert A.distance_to_point(1) == Fraction(1, 2)


def test_hausdorff_distance_basic():
    A = IntervalUnion(DOMAIN, [(0, Fraction(1, 2))])
    B = IntervalUnion(DOMAIN, [(0, 1)])
    assert hausdorff_distance(A, B) == Fraction(1, 2)
    assert hausdorff_distance(A, A) == 0


def test_hausdorff_gap_midpoint_case():
    # nearest-point distance peaks strictly inside a gap of B
    A = IntervalUnion(DOMAIN, [(0, 1)])
    B = IntervalUnion(DOMAIN, [(0, Fraction(1, 4)), (Fraction(3, 4), 1)])
    assert hausdorff_distance(A, B) == Fraction(1, 4)


def reference_hausdorff(A, B):
    """Hausdorff distance with the starts list rebuilt at every query."""
    def find(U, x):
        return bisect.bisect_right([a for a, _ in U.components], x)

    def contains(U, x):
        i = find(U, x)
        return i > 0 and U.components[i - 1][0] <= x <= U.components[i - 1][1]

    def distance(U, x):
        best = None
        i = find(U, x)
        for j in (i - 1, i):
            if 0 <= j < len(U.components):
                a, b = U.components[j]
                d = max(a - x, x - b, 0)
                best = d if best is None else min(best, d)
        return best

    def directed(src, dst):
        candidates = [p for comp in src.components for p in comp]
        for i in range(len(dst.components) - 1):
            gap_mid = (dst.components[i][1] + dst.components[i + 1][0]) / 2
            if contains(src, gap_mid):
                candidates.append(gap_mid)
        return max(distance(dst, x) for x in candidates)

    return max(directed(A, B), directed(B, A))


def assert_same_hausdorff(A, B):
    got, want = hausdorff_distance(A, B), reference_hausdorff(A, B)
    assert type(got) is type(want) and got == want


def test_hausdorff_matches_reference_on_cantor_levels():
    for theta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
        params = CantorParams(theta)
        nest = cantor_nest(params)
        for n in range(9):
            assert_same_hausdorff(uniform_cantor(params, n), nest.level(n))
            assert_same_hausdorff(nest.level(n + 1), nest.level(n))


def test_json_round_trip_exact():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 3), Fraction(2, 3)),
                               (Fraction(5, 6), Fraction(5, 6))])
    doc = A.to_json()
    assert doc["components"][0] == ["1/3", "2/3"]
    B = IntervalUnion.from_json(doc)
    assert B.components == A.components and B.exact


def test_json_round_trip_float():
    A = IntervalUnion((0.0, 1.0), [(0.125, 0.25)])
    B = IntervalUnion.from_json(A.to_json())
    assert B.components == A.components


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------

frac = st.fractions(min_value=0, max_value=1, max_denominator=32)
comps = st.lists(st.tuples(frac, frac).map(sorted), max_size=4)


@given(comps)
def test_canonical_form_invariants(cs):
    A = IntervalUnion(DOMAIN, cs)
    for (a1, b1), (a2, b2) in zip(A.components, A.components[1:]):
        assert b1 < a2
    # canonical form is a fixed point
    B = IntervalUnion(DOMAIN, A.components)
    assert B.components == A.components


@given(comps, comps)
def test_union_commutes_intersect_commutes(cs, ds):
    A, B = IntervalUnion(DOMAIN, cs), IntervalUnion(DOMAIN, ds)
    assert A.union(B).components == B.union(A).components
    assert A.intersect(B).components == B.intersect(A).components


@given(comps)
def test_de_morgan_on_measure(cs):
    A = IntervalUnion(DOMAIN, cs)
    assert A.measure() + A.complement().measure() >= 1


def nonempty_union(values, domain):
    return st.lists(st.tuples(values, values).map(sorted), min_size=1,
                    max_size=12).map(lambda cs: IntervalUnion(domain, cs))


@given(st.one_of(
    st.tuples(nonempty_union(frac, DOMAIN), nonempty_union(frac, DOMAIN)),
    st.tuples(nonempty_union(st.floats(0, 1), (0.0, 1.0)),
              nonempty_union(st.floats(0, 1), (0.0, 1.0)))))
def test_hausdorff_matches_reference_on_random_unions(pair):
    assert_same_hausdorff(*pair)
