import bisect
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divergia import (CantorParams, ConstructionError, IntervalUnion,
                      ParameterError, box_count, bump_from_sets, cantor_nest,
                      hausdorff_distance, uniform_cantor)
from divergia.scalars import TOL, meet, parse_scalar

from ramp_reference import reference_bump

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
    # two empty sets are at distance 0; one empty set has no distance
    empty = IntervalUnion(DOMAIN, [])
    assert hausdorff_distance(empty, empty) == 0
    for pair in ((A, empty), (empty, A)):
        with pytest.raises(ParameterError, match="both sets nonempty"):
            hausdorff_distance(*pair)


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
            s = dst.components[i][1] + dst.components[i + 1][0]
            # two int ends give an exact half
            gap_mid = Fraction(s, 2) if type(s) is int else s / 2
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


@pytest.mark.parametrize("components, canonical", [
    ([["1/9", "2/9"], ["7/9", "8/9"]], True),
    ([["0/1", "1/3"], ["2/3", "1/1"], ["5/6", "5/6"]], False),  # unsorted
    ([["0/1", "1/3"], ["1/3", "1/2"]], False),  # touching: merged
    ([["0.25", "1/2"]], False),  # a decimal string
    ([[0, "1/2"]], False),  # an int end
    ([["1/2", "1/-2"]], False),  # a negative denominator
    # denominators whose lcm passes _MAX_BITS
    ([[f"1/{2 ** 600 + 3}"] * 2, [f"1/{2 ** 600 + 1}"] * 2], False),
    ([], True),
])
def test_from_json_tries_the_canonical_path_first(components, canonical):
    # p/q ends that are already canonical are checked on integers at one
    # denominator, and the set keeps that view; any other input goes to
    # the constructor; either way the set is the constructor's
    doc = {"domain": ["0/1", "1/1"], "components": components}
    try:
        want = IntervalUnion((Fraction(0), Fraction(1)),
                             [(parse_scalar(a), parse_scalar(b))
                              for a, b in components])
    except ParameterError as err:
        with pytest.raises(ParameterError, match=re.escape(str(err))):
            IntervalUnion.from_json(doc)
        return
    got = IntervalUnion.from_json(doc)
    assert_same_set(got, want)
    assert ("_scaled" in vars(got)) is canonical


def test_from_json_round_trips_a_deep_level():
    level = cantor_nest(CantorParams(Fraction(1, 3))).level(10)
    back = IntervalUnion.from_json(level.to_json())
    # the document's domain ends are the Fractions "0/1" and "1/1"
    assert typed(back)[1][2:] == typed(level)[1][2:] and back.exact
    assert back._scaled == level._scaled


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


# ----------------------------------------------------------------------
# the canonical-input path and the walking subset tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pairs", [
    [(3, 4), (1, 2)],  # unsorted
    [(1, 3), (2, 4)],  # overlapping
    [(1, 2), (2, 4)],  # touching
    [(2, 1)],  # negative length
    [(-1, 2)],  # before the domain start
    [(1, 2), (3, 9)],  # past the domain end, 8 over 8
])
def test_canonical_path_rejects_noncanonical_input(pairs):
    with pytest.raises(ParameterError):
        IntervalUnion._canonical(DOMAIN, pairs, 8)


def test_canonical_path_matches_the_sorting_constructor():
    pairs = [(0, 1), (2, 2), (3, 8)]
    got = IntervalUnion._canonical(DOMAIN, pairs, 8)
    want = IntervalUnion(DOMAIN, [(Fraction(a, 8), Fraction(b, 8))
                                  for a, b in pairs])
    assert got == want and got.exact
    assert all(type(e) is Fraction for comp in got.components for e in comp)


def brute_subset(A, B, interior):
    """Whether some component of B holds each component of A, by a scan of
    B: it starts at or before the inner start and ends at most TOL (float)
    before the inner end; interior also asks for margins past TOL where B
    does not reach a domain end."""
    lo, hi = A.domain
    tol = 0 if A.exact and B.exact else TOL

    def held(a, b, c, d):
        return c <= a and b <= d + tol and (not interior or (
            (c < a - tol or c <= lo + tol) and (b < d - tol or d >= hi - tol)))

    return all(any(held(a, b, c, d) for c, d in B.components)
               for a, b in A.components)


EXACT_OR_FLOAT = [(DOMAIN, st.integers(0, 64).map(lambda i: Fraction(i, 64)),
                   [0, Fraction(1, 10 ** 13), -Fraction(1, 10 ** 13)]),
                  ((0.0, 1.0), st.floats(0, 1),
                   [0.0, TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL])]
OUTER = [nonempty_union(value, domain) for domain, value, _ in EXACT_OR_FLOAT]


@settings(max_examples=150)
@given(st.integers(0, 1), st.data())
def test_subset_walk_matches_brute_force(backend, data):
    (lo, hi), value, shifts = EXACT_OR_FLOAT[backend]
    outer = data.draw(OUTER[backend])
    comps = outer.components
    ends = [e for comp in comps for e in comp]

    def index(seq):
        return data.draw(st.integers(0, len(seq) - 1))

    def point():
        # anywhere, inside an outer component, or within TOL of an outer end
        kind = data.draw(st.integers(0, 2))
        if kind == 0:
            return data.draw(value)
        if kind == 1:
            c, d = comps[index(comps)]
            return c + data.draw(value) * (d - c)
        return min(max(ends[index(ends)] + shifts[index(shifts)], lo), hi)

    inner = IntervalUnion((lo, hi), [
        sorted((point(), point())) for _ in range(data.draw(st.integers(0, 6)))])
    assert inner.subset_of(outer) is brute_subset(inner, outer, False)
    assert inner.subset_of_relative_interior(outer) is \
        brute_subset(inner, outer, True)


# ----------------------------------------------------------------------
# the walks against references over the endpoint objects
# ----------------------------------------------------------------------

def reference_union(A, B):
    """Sort the concatenated components and merge them, as the
    constructor does."""
    a, b = meet(A, B)
    return IntervalUnion(a.domain, a.components + b.components)


def reference_intersect(A, B):
    a, b = meet(A, B)
    out = []
    i = j = 0
    while i < len(a.components) and j < len(b.components):
        a1, b1 = a.components[i]
        a2, b2 = b.components[j]
        left, right = max(a1, a2), min(b1, b2)
        if left <= right:
            out.append((left, right))
        if b1 < b2:
            i += 1
        else:
            j += 1
    return IntervalUnion(a.domain, out)


def reference_complement(A):
    lo, hi = A.domain
    out, cursor = [], lo
    for a, b in A.components:
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    return IntervalUnion(A.domain, out)


def reference_subset(A, B, interior):
    """Each component of A against the last component of B starting at or
    before it, found by a bisect over B's starts."""
    a, b = meet(A, B)
    lo, hi = a.domain
    tol = 0 if a.exact else TOL
    starts = [c for c, _ in b.components]
    for x, y in a.components:
        j = bisect.bisect_right(starts, x) - 1
        if j < 0:
            return False
        c, d = b.components[j]
        if y > d + tol:
            return False
        if interior and not ((c < x - tol or c <= lo + tol)
                             and (y < d - tol or d >= hi - tol)):
            return False
    return True


def reference_box_count(A, delta):
    lo, hi = A.domain
    last = int(-((hi - lo) // -delta)) - 1
    covered = []
    for a, b in A.components:
        k_min = min(int((a - lo) // delta), last)
        k_max = min(int((b - lo) // delta), last)
        if covered and k_min <= covered[-1][1] + 1:
            covered[-1] = (covered[-1][0], max(covered[-1][1], k_max))
        else:
            covered.append((k_min, k_max))
    return sum(k2 - k1 + 1 for k1, k2 in covered)


def typed(U):
    """A set with the type of every value in it."""
    return U.exact, [(v, type(v)) for comp in (U.domain,) + U.components
                     for v in comp]


def assert_same_set(got, want):
    assert typed(got) == typed(want)


def near(x):
    # within TOL of a grid point, to meet the float merge rule
    return st.sampled_from([0.0, 4e-13, -4e-13, 2e-12]).map(
        lambda e: min(max(x + e, 0.0), 1.0))


# exact ends mix int 0 and 1 with Fractions, so that equal ends of
# different types tie; float ends sit on a grid, near it, or anywhere
EXACT_END = st.one_of(st.fractions(0, 1, max_denominator=12),
                      st.sampled_from([0, 1, Fraction(1, 2)]))
GRID = st.integers(0, 16).map(lambda i: i / 16)
FLOAT_END = st.one_of(GRID, GRID.flatmap(near), st.floats(0, 1))


def unions(end, domain):
    return st.lists(st.tuples(end, end).map(sorted), max_size=6).map(
        lambda cs: IntervalUnion(domain, cs))


EXACT_SET = st.one_of(unions(EXACT_END, DOMAIN),
                      st.just(IntervalUnion.full(DOMAIN)))
FLOAT_SET = unions(FLOAT_END, (0.0, 1.0))
PAIRS = st.one_of(st.tuples(EXACT_SET, EXACT_SET),
                  st.tuples(FLOAT_SET, FLOAT_SET),
                  st.tuples(EXACT_SET, FLOAT_SET),
                  st.tuples(FLOAT_SET, EXACT_SET))
DELTAS = st.sampled_from([Fraction(1, 3), Fraction(1, 16), Fraction(2, 7),
                          1, 0.25, 0.1, 1 / 3, 2.0 ** -7])


@settings(max_examples=300)
@given(PAIRS)
def test_walks_match_references(pair):
    A, B = pair
    assert_same_set(A.union(B), reference_union(A, B))
    assert_same_set(A.intersect(B), reference_intersect(A, B))
    assert_same_set(A.complement(), reference_complement(A))
    for interior in (False, True):
        test = A.subset_of_relative_interior if interior else A.subset_of
        assert test(B) is reference_subset(A, B, interior)


def typed_knots(f):
    return [(v, type(v)) for v in f.xs + f.ys]


def outcome(build, *args):
    """The knots ``build`` gives with their types, or its error message."""
    try:
        return typed_knots(build(*args))
    except ConstructionError as err:
        return str(err)


@settings(max_examples=300)
@given(PAIRS)
def test_bump_walk_matches_reference(pair):
    # the nesting error comes exactly where the reference nesting test
    # fails; otherwise both groupings give the same knots, or the same
    # knot conflict (a float outer end within TOL of a domain end)
    outer, inner = pair
    if not reference_subset(inner, outer, True):
        with pytest.raises(ConstructionError, match="relative interior"):
            bump_from_sets(outer, inner)
    else:
        assert outcome(bump_from_sets, outer, inner) == \
            outcome(reference_bump, outer, inner)


def test_mixed_backend_bump_meets_as_floats():
    outer = IntervalUnion(DOMAIN, [(Fraction(1, 10), Fraction(9, 10))])
    inner = IntervalUnion((0.0, 1.0), [(0.2, 0.8)])
    b = bump_from_sets(outer, inner)
    assert b.xs == (0.0, 0.1, 0.2, 0.8, 0.9, 1.0)
    assert all(type(x) is float for x in b.xs)
    assert typed_knots(b) == typed_knots(reference_bump(outer, inner))


@settings(max_examples=200)
@given(st.one_of(EXACT_SET, FLOAT_SET), DELTAS)
def test_box_count_matches_reference(A, delta):
    got, want = box_count(A, delta), reference_box_count(A, delta)
    assert type(got) is type(want) and got == want


@settings(max_examples=200)
@given(PAIRS.filter(lambda p: not (p[0].is_empty() or p[1].is_empty())))
def test_hausdorff_walk_matches_reference(pair):
    got, want = hausdorff_distance(*pair), reference_hausdorff(*meet(*pair))
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("comps", [
    [(Fraction(1, 4), Fraction(1, 2))],
    [(0, Fraction(1, 3)), (Fraction(2, 3), 1)],
    [(0, 0), (1, 1)],  # int ends on both sides of the gap
])
def test_zero_hausdorff_distance(comps):
    A = IntervalUnion(DOMAIN, comps)
    assert_same_hausdorff(A, A)
    assert hausdorff_distance(A, A) == 0


def test_exact_result_of_a_float_set_is_exact():
    # a float end that no result keeps leaves an exact result, and the
    # gaps decide that before canonical form joins them (not within TOL)
    tiny = Fraction(1, 10 ** 13)
    A = IntervalUnion(DOMAIN, [(Fraction(1, 2), Fraction(1, 2) + tiny),
                               (Fraction(3, 4), 1.0)])
    assert not A.exact
    assert_same_set(A.complement(), reference_complement(A))
    assert A.complement().exact and len(A.complement().components) == 2
    B = IntervalUnion(DOMAIN, [(0.0, Fraction(1, 2))])
    C = IntervalUnion(DOMAIN, [(Fraction(1, 4), 0.75)])
    assert_same_set(B.intersect(C), reference_intersect(B, C))
    assert B.intersect(C).exact


def test_int_gap_midpoint_is_exact():
    # the midpoint of a gap between two int ends is a Fraction, so that an
    # exact set has an exact distance
    A = IntervalUnion(DOMAIN, [(0, 0), (1, 1)])
    B = IntervalUnion.full(DOMAIN)
    assert_same_hausdorff(A, B)
    got = hausdorff_distance(A, B)
    assert type(got) is Fraction and got == Fraction(1, 2)
    C = IntervalUnion((0, 10), [(0, 2), (5, 10)])
    got = hausdorff_distance(C, IntervalUnion.full((0, 10)))
    assert type(got) is Fraction and got == Fraction(3, 2)


def test_int_domain_ends_survive():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 4), Fraction(1, 2))])
    C = A.complement()
    assert C.components == ((0, Fraction(1, 4)), (Fraction(1, 2), 1))
    assert type(C.components[0][0]) is int and type(C.components[1][1]) is int
    full = IntervalUnion.full(DOMAIN)
    assert_same_set(full.union(A), reference_union(full, A))
    assert type(full.union(A).components[0][1]) is int
    assert_same_set(full.intersect(A), reference_intersect(full, A))
    assert_same_set(A.intersect(full), reference_intersect(A, full))


def test_equal_ends_of_different_types_tie_as_sorting_does():
    A = IntervalUnion(DOMAIN, [(Fraction(1, 2), 1)])
    B = IntervalUnion(DOMAIN, [(Fraction(1, 2), Fraction(1))])
    for X, Y in ((A, B), (B, A)):
        assert_same_set(X.union(Y), reference_union(X, Y))
        assert_same_set(X.intersect(Y), reference_intersect(X, Y))
    assert type(A.union(B).components[0][1]) is int
    assert type(B.union(A).components[0][1]) is Fraction


def test_results_carry_their_scaled_view():
    params = CantorParams(Fraction(1, 3))
    A, B = cantor_nest(params).level(4), uniform_cantor(params, 3)
    for U in (A, B, A.union(B), A.intersect(B), A.complement()):
        S, LO, HI, pairs = U._scaled
        assert (Fraction(LO, S), Fraction(HI, S)) == U.domain
        assert [(Fraction(a, S), Fraction(b, S)) for a, b in pairs] == \
            list(U.components)


def test_mixed_backend_subset_meets_as_floats():
    # 0.1 lies above 1/10, so the objects put no start of B at or before
    # 1/10; as floats the exact set starts at 0.1 too
    A = IntervalUnion(DOMAIN, [(Fraction(1, 10), Fraction(1, 2))])
    B = IntervalUnion((0.0, 1.0), [(0.1, 0.5)])
    assert A.subset_of(B)
    assert hausdorff_distance(A, B) == 0.0


def test_as_float_of_a_float_set_is_the_set():
    A = IntervalUnion((0.0, 1.0), [(0.125, 0.25)])
    assert A.as_float() is A
    exact = IntervalUnion(DOMAIN, [(Fraction(1, 8), Fraction(1, 4))])
    assert exact.as_float() == A


def spread_set(rng, den, k=100):
    """k components with ends over random denominators in [den, 2 den)."""
    ends = sorted({Fraction(rng.randrange(1, den), rng.randrange(den, 2 * den))
                   for _ in range(2 * k)})
    return IntervalUnion(DOMAIN, list(zip(ends[::2], ends[1::2])))


def test_float_offsets_round_once():
    # numerators past 2**53 over 3**100: float(A - LO) / S would round
    # twice, and 48 of these 200 offsets would move
    rng = random.Random(3)
    q = 3 ** 100
    ends = sorted({Fraction(rng.randrange(q), q) for _ in range(200)})
    A = IntervalUnion(DOMAIN, list(zip(ends[::2], ends[1::2])))
    assert A._scaled is not None
    assert A._offsets == [float(a) for comp in A.components for a in comp]
    for delta in (1e-3, 1 / 3, 2.0 ** -20):
        assert box_count(A, delta) == reference_box_count(A, delta)


def test_walks_past_the_view_bound_compare_objects():
    # the lcm of 200 random 13-digit denominators has far more than
    # _MAX_BITS bits, so the walks read the Fractions themselves
    A = spread_set(random.Random(5), 10 ** 12)
    assert A._scaled is None
    for B in (A, cantor_nest(CantorParams(Fraction(1, 3))).level(4),
              spread_set(random.Random(6), 10 ** 12, k=20)):
        for X, Y in ((A, B), (B, A)):
            assert_same_set(X.union(Y), reference_union(X, Y))
            assert_same_set(X.intersect(Y), reference_intersect(X, Y))
            assert X.subset_of(Y) is reference_subset(X, Y, False)
            assert X.subset_of_relative_interior(Y) is \
                reference_subset(X, Y, True)
            assert_same_hausdorff(X, Y)
    assert_same_set(A.complement(), reference_complement(A))
    for delta in (Fraction(1, 1000), 1e-3):
        assert box_count(A, delta) == reference_box_count(A, delta)


def test_to_json_formats_each_end_by_its_type():
    # a float set may hold exact ends; they print as p/q, as format_scalar
    # prints them
    A = IntervalUnion((0.0, 1.0), [(0, 0.5), (Fraction(3, 4), 1.0)])
    assert A.to_json()["components"] == [["0/1", 0.5], ["3/4", 1.0]]
    exact = IntervalUnion(DOMAIN, [(0, Fraction(1, 2))])
    assert exact.to_json() == {"domain": ["0/1", "1/1"],
                               "components": [["0/1", "1/2"]]}
