import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divergia import (CantorNest, CantorParams, ParameterError, cantor_nest,
                      hausdorff_distance, uniform_cantor)
from divergia.scalars import TOL
from ramp_reference import (deepest_component, reference_deepest_component,
                            reference_maps)

HALF = Fraction(1, 2)


def frac_comps(pairs, den):
    return tuple((Fraction(a, den), Fraction(b, den)) for a, b in pairs)


# dyadic endpoint lists of the first three levels for theta = eps = 1/2
LEVEL_1 = frac_comps([(1, 3), (5, 7)], 8)
LEVEL_2 = frac_comps([(5, 7), (9, 11), (21, 23), (25, 27)], 32)
LEVEL_3 = frac_comps([(21, 23), (25, 27), (37, 39), (41, 43),
                      (85, 87), (89, 91), (101, 103), (105, 107)], 128)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

def test_default_eps_is_admissible_midpoint():
    p = CantorParams(HALF)
    assert p.m == Fraction(1, 4)
    assert p.eps == HALF  # midpoint of (0, 1)
    q = CantorParams(Fraction(1, 3))
    assert q.m == Fraction(1, 8)
    assert q.eps == Fraction(3, 2)


def test_eps_out_of_range_rejected():
    with pytest.raises(ParameterError):
        CantorParams(HALF, eps=1)
    with pytest.raises(ParameterError):
        CantorParams(HALF, eps=0)


def test_theta_out_of_range_rejected():
    for theta in (0, 1, -1, 2):
        with pytest.raises(ParameterError):
            CantorParams(theta)


@pytest.mark.parametrize("inv", [1075.5, 1030.5, 1022.5])
def test_float_ratio_below_normal_range_rejected(inv):
    # 2^-1075.5 rounds to 0, 2^-1030.5 and 2^-1022.5 are subnormal: the
    # first divided by zero, the second blamed eps, the third ran silently
    theta = 1 / inv
    with pytest.raises(ParameterError, match=f"theta={theta}"):
        CantorParams(theta)


def test_backend_selection():
    assert CantorParams(HALF).exact
    assert CantorParams(Fraction(1, 5)).exact
    assert not CantorParams(0.35).exact
    # float 0.5 still has integral 1/theta, so it stays exact
    assert CantorParams(0.5).exact


# ----------------------------------------------------------------------
# nest levels
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def nest():
    return cantor_nest(CantorParams(HALF))


def test_levels_match_dyadic_lists(nest):
    assert nest.level(0).components == ((0, 1),)
    assert nest.level(1).components == LEVEL_1
    assert nest.level(2).components == LEVEL_2
    assert nest.level(3).components == LEVEL_3


def test_levels_are_nested(nest):
    for n in range(8):
        assert nest.level(n + 1).subset_of_relative_interior(nest.level(n))


def test_measure_decays_exactly(nest):
    for n in range(10):
        assert nest.level(n).measure() == HALF ** n
        assert nest.measure_level(n) == HALF ** n


def test_component_count_doubles(nest):
    for n in range(10):
        assert len(nest.level(n).components) == 2 ** n


def test_fixed_point_lies_in_every_level(nest):
    x = nest.fixed_point_left()
    assert x == Fraction(1, 6)
    for n in range(20):
        assert nest.contains(n, x)


def test_descent_matches_materialized_membership(nest):
    rng = random.Random(41)
    for n in range(8):
        level = nest.level(n)
        for _ in range(40):
            x = Fraction(rng.randint(0, 2048), 2048)
            assert nest.contains(n, x) == level.contains_point(x)


def test_descent_children_match_next_level(nest):
    x = Fraction(1, 6)
    for n in range(6):
        k, (a, b), children = deepest_component(nest, n, x)
        assert k == n and nest.level(n).contains_point(x)
        nxt = nest.level(n + 1)
        for c in children:
            assert nxt.contains_point(c[0]) and nxt.contains_point(c[1])
        assert a <= x <= b


def test_deep_descent_is_cheap(nest):
    # level 60 has 2^60 components; local queries must not materialize it
    assert nest.contains(60, Fraction(1, 6))
    assert not nest.contains(60, HALF)


def test_deepest_component_matches_materialized_levels(nest):
    rng = random.Random(43)
    xs = [Fraction(1, 6), HALF] + [Fraction(rng.randint(0, 2048), 2048)
                                   for _ in range(40)]
    for n in range(8):
        for x in xs:
            k, (a, b), children = deepest_component(nest, n, x)
            assert k == max(i for i in range(n + 1)
                            if nest.level(i).contains_point(x))
            assert (a, b) in nest.level(k).components and a <= x <= b
            assert children == [c for c in nest.level(k + 1).components
                                if a <= c[0] and c[1] <= b]


def test_descent_integers_are_ramp_ready(nest):
    # the exit component, its children and x are even numerators over one
    # denominator, so every midpoint the ramp rule takes is an integer
    for n in range(8):
        for x in (0, 1, Fraction(1, 6), HALF, Fraction(3, 7)):
            k, A, B, children, X, D = nest._descent(n, x)
            (a, b), (c, e) = children
            assert all(v % 2 == 0 for v in (A, B, a, b, c, e, X, D))
            assert 0 <= A < a < b < c < e < B <= D and A <= X <= B
            assert Fraction(X, D) == x


# the descent, read through the tests' conversion, and membership
QUERIES = {"deepest_component": deepest_component,
           "contains": CantorNest.contains}


@pytest.mark.parametrize("query", QUERIES)
def test_negative_level_rejected(nest, query):
    with pytest.raises(ParameterError, match="level index must be >= 0"):
        QUERIES[query](nest, -1, HALF)


@pytest.mark.parametrize("theta", [Fraction(1, 3), 0.4])
@pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(-1, 7), 2, 1.5,
                               -0.25, float("nan"), float("inf")])
@pytest.mark.parametrize("query", QUERIES)
def test_point_outside_domain_rejected(theta, x, query):
    # the descent reads an exact x as p/q on integers and compares a float
    # first, so that nan and the infinities are refused too
    nest = cantor_nest(CantorParams(theta))
    with pytest.raises(ParameterError, match="outside domain"):
        QUERIES[query](nest, 3, x)


def test_float_backend_nest():
    nest = cantor_nest(CantorParams(0.35))
    lv3 = nest.level(3)
    assert len(lv3.components) == 8
    assert not lv3.exact
    total = sum(b - a for a, b in lv3.components)
    m = 0.5 ** (1 / 0.35)
    assert abs(total - (2 * m) ** 3) < 1e-12


# ----------------------------------------------------------------------
# uniform middle-removal variant
# ----------------------------------------------------------------------

def test_uniform_cantor_start_and_removed_middle():
    p = CantorParams(HALF)
    C0 = uniform_cantor(p, 0)
    assert C0.components == ((Fraction(1, 6), Fraction(5, 6)),)
    C1 = uniform_cantor(p, 1)
    assert C1.components == ((Fraction(1, 6), Fraction(1, 3)),
                             (Fraction(2, 3), Fraction(5, 6)))
    # removed middle (1/3, 2/3) has length 1/3
    gap = C1.components[1][0] - C1.components[0][1]
    assert gap == Fraction(1, 3)


@pytest.mark.parametrize("theta", [0.3, 0.35, 0.4, 0.45, 0.7])
def test_float_uniform_cantor_insets_each_component(theta):
    # each uniform component sits in its own level-n component, inset from
    # both ends by a*m^n, a the left fixed point
    p = CantorParams(theta)
    nest = cantor_nest(p)
    m, a = p.m, nest.fixed_point_left()
    for n in range(9):
        U, D = uniform_cantor(p, n), nest.level(n)
        assert not U.exact and len(U.components) == 2 ** n
        inset = a * m ** n
        for (u, v), (lo, hi) in zip(U.components, D.components):
            assert lo < u < v < hi
            assert u - lo == pytest.approx(inset, abs=1e-12)
            assert hi - v == pytest.approx(inset, abs=1e-12)
        assert U.measure() == pytest.approx((2 * m) ** n * (1 - 2 * a),
                                            abs=1e-12)


def test_uniform_cantor_inside_nest_with_shrinking_gap():
    p = CantorParams(HALF)
    nest = cantor_nest(p)
    for n in range(11):
        U, D = uniform_cantor(p, n), nest.level(n)
        assert U.subset_of(D)
        assert hausdorff_distance(U, D) <= Fraction(1, 4) ** n


# ----------------------------------------------------------------------
# integer descent against the similarity walk
# ----------------------------------------------------------------------

def same(u, v):
    """Equal values of equal types, through tuples and lists."""
    if isinstance(u, (tuple, list)):
        return type(u) is type(v) and len(u) == len(v) and all(
            same(a, b) for a, b in zip(u, v))
    return type(u) is type(v) and u == v


NEST_KEYS = [(theta, eps)
             for theta in (HALF, Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
             for eps in (None, Fraction(1, 3))]


@functools.cache
def exact_nest(key):
    """The nest for (theta, eps) with the endpoints and gap midpoints of
    its levels 1-8."""
    nest = cantor_nest(CantorParams(*key))
    marks = []
    for n in range(1, 9):
        comps = nest.level(n).components
        marks += [e for comp in comps for e in comp]
        marks += [(end + start) / 2
                  for (_, end), (start, _) in zip(comps, comps[1:])]
    return nest, marks


def nest_points(nest, marks):
    """Rationals, nest points with drawn addresses and the left fixed
    point, level 1-8 endpoints and gap midpoints, 0 and 1, and floats."""
    def at_address(bits):
        x = nest.fixed_point_left()
        for bit in reversed(bits):
            r, o = reference_maps(nest)[bit]
            x = r * x + o
        return x

    exact = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
        st.lists(st.booleans(), max_size=40).map(at_address),
        st.sampled_from(marks),
        st.sampled_from([0, 1]))
    return st.one_of(exact, exact.map(float),
                     st.floats(min_value=0, max_value=1))


@settings(max_examples=400)
@given(st.data())
def test_descent_matches_similarity_walk(data):
    nest, marks = exact_nest(data.draw(st.sampled_from(NEST_KEYS)))
    x = data.draw(nest_points(nest, marks))
    n = data.draw(st.integers(min_value=0, max_value=60))
    want = reference_deepest_component(nest, n, x)
    assert same(deepest_component(nest, n, x), want)
    assert nest.contains(n, x) is (want[0] == n)


# ----------------------------------------------------------------------
# integer levels against the composed maps
# ----------------------------------------------------------------------

def composed_maps(nest, n):
    """The 2^n composed maps of level n, as pairs (ratio, offset)."""
    maps = [(1, 0)]
    for _ in range(n):
        maps = [(ratio * r, ratio * o + offset) for ratio, offset in maps
                for r, o in reference_maps(nest)]
    return maps


def sorted_images(maps, a, b):
    """The images of [a, b] under the maps, sorted."""
    return tuple(sorted(tuple(sorted((r * a + t, r * b + t)))
                        for r, t in maps))


@settings(max_examples=60)
@given(st.data())
def test_levels_match_composed_maps(data):
    k = data.draw(st.integers(min_value=2, max_value=5))
    top = 2 ** (k - 1) - 1  # eps lies in (0, 1/(2m) - 1)
    eps = data.draw(st.fractions(min_value=0, max_value=top,
                                 max_denominator=60)
                    .filter(lambda e: 0 < e < top))
    n = data.draw(st.integers(min_value=0, max_value=8))
    p = CantorParams(Fraction(1, k), eps)
    nest = cantor_nest(p)
    maps = composed_maps(nest, n)
    a = nest.fixed_point_left()
    # the root (1, 0) keeps level 0 on its int domain
    for got, want in [(nest.level(n), sorted_images(maps, 0, 1)),
                      (uniform_cantor(p, n), sorted_images(maps, a, 1 - a))]:
        assert got.exact and same(got.domain, (0, 1))
        assert same(got.components, want)


@pytest.mark.parametrize("theta", [0.3, 0.4, 0.7])
def test_float_levels_match_composed_maps(theta):
    nest = cantor_nest(CantorParams(theta))
    for n in range(9):
        got = nest.level(n).components
        want = sorted_images(composed_maps(nest, n), 0, 1)
        # each endpoint of the exact dyadic nest, rounded once
        assert got == tuple((float(u), float(v)) for u, v in want)


# ----------------------------------------------------------------------
# float nests: the exact dyadic nest, each endpoint rounded once
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.9), st.integers(0, 10))
def test_float_levels_are_dyadic_levels_rounded_once(theta, n):
    p = CantorParams(theta)
    assume(not p.exact)
    maps = composed_maps(cantor_nest(p), n)
    m = Fraction(p.m)
    a = m * Fraction(p.eps) / (1 - m)
    for build, ends in [(cantor_nest(p).level, (0, 1)),
                        (lambda n: uniform_cantor(p, n), (a, 1 - a))]:
        want = tuple((float(u), float(v))
                     for u, v in sorted_images(maps, *ends))
        merges = any(u <= v + TOL for (_, v), (u, _) in zip(want, want[1:]))
        if merges:
            with pytest.raises(ParameterError, match=f"level {n} "):
                build(n)
        else:
            got = build(n)
            assert not got.exact and same(got.domain, (0.0, 1.0))
            assert same(got.components, want)


@pytest.mark.parametrize("theta, n", [(0.3, 13), (0.35, 15), (0.4, 17),
                                      (0.45, 19)])
def test_float_levels_raise_at_the_first_merge(theta, n):
    # the widths fall below TOL earlier (level 16 at theta = 0.4), but a
    # level raises only where its float image would merge two components
    p = CantorParams(theta)
    nest = cantor_nest(p)
    level = nest.level(n - 1)
    assert len(level.components) == 2 ** (n - 1)
    # the leftmost component is L^(n-1)[0, 1]; at theta = 0.45 its ends
    # have numerators past 1024 bits, where float() of them overflows
    m, eps = Fraction(p.m), Fraction(p.eps)
    left = m * eps * (1 - m ** (n - 1)) / (1 - m)
    assert level.components[0] == (float(left), float(left + m ** (n - 1)))
    with pytest.raises(ParameterError, match=f"theta={theta}: level {n} "):
        nest.level(n)


def test_unresolved_level_raises_again():
    # a level that raised leaves the nest at the level before it, so
    # asking again, or for a deeper level, raises the same error
    nest = cantor_nest(CantorParams(0.3))
    before = nest.level(12)
    for n in (13, 13, 14):
        with pytest.raises(ParameterError, match="theta=0.3: level 13 "):
            nest.level(n)
    assert nest.level(12) is before and len(before.components) == 4096
