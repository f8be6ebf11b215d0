import math
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divergia.cli
from divergia import (JarnikParams, LiouvilleParams, ParameterError,
                      PiecewiseLinear, bump_from_sets, default_grid,
                      jarnik_family, liouville_family, y_set, z_set)
from divergia.jarnik import _level_reader, _radius

GOLDEN = (math.sqrt(5) - 1) / 2


# ----------------------------------------------------------------------
# neighborhood sets
# ----------------------------------------------------------------------

def test_y_set_structure_small_q():
    Y = y_set(2, 4)
    # centers 0, 1/2, 1 with radius 2^-4
    assert Y.components == ((0, Fraction(1, 16)),
                            (Fraction(7, 16), Fraction(9, 16)),
                            (Fraction(15, 16), 1))


def test_z_radius_over_y_radius():
    # fattening factor is (q+1)/q: 3/2 at q = 2
    y = y_set(2, 4).components[1]
    z = z_set(2, 4).components[1]
    ry = (y[1] - y[0]) / 2
    rz = (z[1] - z[0]) / 2
    assert rz / ry == Fraction(3, 2)


def test_y_inside_relative_interior_of_z():
    for q in range(1, 51):
        assert y_set(q, 4).subset_of_relative_interior(z_set(q, 4))


def test_sandwich_inclusion():
    # (q+1)/q * q^-3 <= q^-2 needs q >= 2; at q = 1 both sets are full
    for q in range(1, 51):
        assert z_set(q, 4).subset_of(y_set(q, 3))
    assert z_set(1, 4).measure() == 1 and y_set(1, 3).measure() == 1


def test_alpha_must_exceed_two():
    with pytest.raises(ParameterError):
        y_set(3, 2)
    with pytest.raises(ParameterError):
        z_set(3, Fraction(3, 2))


def test_q_must_be_positive():
    with pytest.raises(ParameterError):
        y_set(0, 4)


def test_exact_backend_for_integral_alpha():
    assert y_set(3, 4).exact
    assert not y_set(3, 4.5).exact


def test_float_sets_and_liouville_knots_are_float(piecewise_linear_schema):
    # a float radius puts the domain endpoints on the float backend too
    Y = y_set(3, 4.5)
    assert all(type(v) is float
               for v in Y.domain + sum(Y.components, ()))
    pw = liouville_family().rule(8)
    assert all(type(v) is float for v in pw.xs + pw.ys)
    doc = pw.to_json()
    jsonschema.validate(doc, piecewise_linear_schema)
    assert all(type(v) is float for knot in doc["knots"] for v in knot)


# ----------------------------------------------------------------------
# well-approximable family
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def jfam():
    return jarnik_family(JarnikParams(Fraction(1, 2), q_max=100))


def test_params_alpha0():
    assert JarnikParams(Fraction(1, 2)).alpha0 == 4
    assert JarnikParams(Fraction(1, 4)).alpha0 == 8
    with pytest.raises(ParameterError):
        JarnikParams(Fraction(3, 2))


def test_rule_is_sum_of_increments(jfam):
    r3 = jfam.rule(3)
    s = jfam.increment(2).add(jfam.increment(3)).add(jfam.rule(1))
    for x in sorted(set(r3.xs) | set(s.xs)):
        assert r3.eval(x) == s.eval(x)


def test_rule_folds_onto_the_deepest_memoized_rule(monkeypatch):
    fam = jarnik_family(JarnikParams(Fraction(1, 2), q_max=10))
    fam.rule(5)
    adds = []
    add = PiecewiseLinear.add

    def counting(self, other):
        adds.append(other)
        return add(self, other)

    monkeypatch.setattr(PiecewiseLinear, "add", counting)
    fam.rule(8)
    # the increments of levels 6, 7 and 8 onto rule(5), not a refold
    assert len(adds) == 3


def test_fast_value_matches_materialized(jfam):
    rng = random.Random(47)
    r5 = jfam.rule(5)
    pts = [Fraction(rng.randint(0, 2000), 2000) for _ in range(80)]
    for x in pts:
        assert jfam.value(5, x) == r5.eval(x)


def test_value_at_one_half_counts_even_denominators(jfam):
    # every even q <= n contributes a full bump at 1/2, plus the merged
    # q = 1 level
    for n in (2, 10, 30):
        assert jfam.value(n, Fraction(1, 2)) == n // 2 + 1


def test_golden_ratio_grows_slowly(jfam):
    # bounded partial quotients keep the golden ratio out of every thin
    # neighborhood beyond q = 1, so r_n sticks at 1
    for n in range(3, 101):
        assert jfam.value(n, GOLDEN) < n / 2
    assert jfam.value(100, GOLDEN) == 1


def test_q_max_enforced(jfam):
    with pytest.raises(ParameterError):
        jfam.rule(101)
    with pytest.raises(ParameterError):
        jfam.value(101, Fraction(1, 2))


def test_step_bound_dominates_level_integral(jfam):
    for q in range(2, 20):
        inc = jfam.increment(q)
        assert float(inc.integral(0, 1)) <= jfam.step_bound(q) + 1e-12


# ----------------------------------------------------------------------
# zero-dimension family
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def lfam():
    return liouville_family(LiouvilleParams())


def test_liouville_width_decays_superpolynomially():
    p = LiouvilleParams()
    for alpha in (3, 4, 6):
        q0 = math.ceil(math.exp(alpha))
        for q in range(q0, q0 + 20):
            assert p.width(q) <= q ** (-alpha)


def test_liouville_height_times_width_is_one():
    p = LiouvilleParams()
    for q in (2, 3, 10, 50):
        assert p.width(q) * p.height(q) == pytest.approx(1.0)


def test_liouville_level_integrals(lfam):
    # interior bumps integrate to 1.5, the two boundary bumps to 0.75,
    # so level q adds 1.5(q+1) - 1.5 = 1.5q for q >= 2
    for q in (2, 3, 5, 10):
        assert lfam.increment(q).integral(0, 1) == pytest.approx(1.5 * q)
    for n in (1, 2, 3, 5, 10):
        total = lfam.rule(n).integral(0, 1)
        assert total >= sum(range(1, n + 1))


def test_liouville_fast_value_matches_materialized(lfam):
    rng = random.Random(53)
    r6 = lfam.rule(6)
    for _ in range(60):
        x = rng.random()
        assert lfam.value(6, x) == pytest.approx(r6.eval(x), abs=1e-9)


def test_liouville_value_at_rationals_blows_up(lfam):
    # at 1/2 the level q = 2 bump contributes its full height 8
    assert lfam.value(2, 0.5) == pytest.approx(1 + 8)
    assert lfam.value(4, 0.5) == pytest.approx(1 + 8 + 64)


def test_golden_ratio_stays_small(lfam):
    # badly approximable: only the q = 1 and q = 2 levels ever touch the
    # golden ratio, capping the values below 2 for all n <= 50
    vals = [lfam.value(n, GOLDEN) for n in range(1, 51)]
    assert max(vals) < 2
    assert vals[0] == pytest.approx(1.0)


def test_liouville_q_max_cap():
    with pytest.raises(ParameterError):
        LiouvilleParams(q_max=501)
    with pytest.raises(ParameterError):
        liouville_family(LiouvilleParams(q_max=5)).rule(6)


@pytest.mark.parametrize("build", [
    lambda: jarnik_family(JarnikParams(Fraction(1, 2), q_max=5)),
    lambda: liouville_family(LiouvilleParams(q_max=5)),
], ids=["jarnik", "liouville"])
def test_index_past_q_max_fails_before_any_level_is_built(build,
                                                          monkeypatch):
    def build_level(outer, inner):
        raise AssertionError("a level was built for an invalid index")

    monkeypatch.setattr("divergia.jarnik.bump_from_sets", build_level)
    fam = build()
    for call in (fam.rule, fam.increment,
                 lambda n: fam.value(n, Fraction(1, 3))):
        with pytest.raises(ParameterError):
            call(6)


@pytest.mark.parametrize("build, q", [
    (lambda: jarnik_family(JarnikParams(Fraction(3, 10))), 37),
    (lambda: liouville_family(LiouvilleParams(q_max=500)), 180),
], ids=["jarnik", "liouville"])
def test_radii_below_float_resolution_fail_before_the_level_is_built(
        build, q, monkeypatch):
    # float radii whose gap r_support - r_core is at most TOL cannot be told
    # apart by the level's sets; the level before is still built
    fam = build()
    assert fam.increment(q - 1).max_value() > 0

    def build_set(q, radius):
        raise AssertionError("a level's sets were built")

    monkeypatch.setattr("divergia.jarnik._centered_set", build_set)
    with pytest.raises(ParameterError, match=rf"q = {q}\b.*e-13"):
        fam.increment(q)


@pytest.mark.parametrize("build, q", [
    (lambda: jarnik_family(JarnikParams(Fraction(3, 10))), 37),
    (lambda: liouville_family(LiouvilleParams(q_max=500)), 180),
], ids=["jarnik", "liouville"])
def test_radii_below_float_resolution_fail_in_the_pointwise_value(build, q):
    # the pointwise value reads the same levels as the increments, so it
    # raises on the same first level; the index before still reads
    fam = build()
    for x in (0.3, GOLDEN):
        assert fam.value(q - 1, x) >= 0
        with pytest.raises(ParameterError, match=rf"q = {q}\b.*e-13"):
            fam.value(q + 3, x)


# ----------------------------------------------------------------------
# pointwise level values
# ----------------------------------------------------------------------

def reference_bump_value_at(x, q, r_core, r_support, height=1):
    """One level's bump sum at x, in Fraction (or float) arithmetic; None
    where the supports partially merge."""
    spacing = Fraction(1, q) if isinstance(r_support, Fraction) else 1 / q
    if 2 * r_core >= spacing:
        return height
    if 2 * r_support >= spacing:
        return None
    p = round(x * q)
    p = min(max(p, 0), q)
    c = Fraction(p, q) if isinstance(r_support, Fraction) else p / q
    d = abs(x - c)
    if d <= r_core:
        return height
    if d >= r_support:
        return 0
    return height * (r_support - d) / (r_support - r_core)


@st.composite
def level_point(draw):
    """(x, q, r_core, r_support) for an exact Jarnik level, with x drawn
    among rationals, the ties x q = p + 1/2, and the points at distance
    exactly r_core or r_support from a centre."""
    theta = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                  Fraction(2, 5)]))
    alpha = JarnikParams(theta).alpha0
    q = draw(st.integers(min_value=1, max_value=60))
    r_core, r_support = _radius(q, alpha), _radius(q, alpha, q + 1, q)
    p = draw(st.integers(min_value=0, max_value=q))
    sign = draw(st.sampled_from([-1, 1]))
    if p == 0 or p == q:
        sign = 1 if p == 0 else -1
    x = draw(st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4),
        st.just(Fraction(2 * p + 1, 2 * q)).filter(lambda v: v <= 1),
        st.sampled_from([Fraction(p, q) + sign * r_core,
                         Fraction(p, q) + sign * r_support]).filter(
                             lambda v: 0 <= v <= 1),
        st.sampled_from([0, 1, Fraction(p, q)])))
    return x, q, r_core, r_support


@settings(max_examples=500)
@given(level_point())
def test_integer_level_value_matches_fraction_form(case):
    x, q, r_core, r_support = case
    read = _level_reader(q, r_core, r_support)
    got = None if read is None else read(x)
    want = reference_bump_value_at(*case)
    assert type(got) is type(want) and got == want


def test_iset_works_out_radii_once_per_level(monkeypatch):
    calls = Counter()

    def counting(q, *args, **kwargs):
        calls[q] += 1
        return _radius(q, *args, **kwargs)

    monkeypatch.setattr("divergia.jarnik._radius", counting)
    assert divergia.cli.main(["iset", "--family", "jarnik", "--theta",
                              "1/2", "--M", "7", "--N", "20"]) == 0
    assert set(calls) == set(range(1, 21))
    assert max(calls.values()) <= 2


def merged_family():
    # alpha = 2.2: at q = 2 the supports overlap but the cores do not cover
    params = JarnikParams(Fraction(10, 11))
    alpha = params.alpha0
    assert _level_reader(2, _radius(2, alpha), _radius(2, alpha, 3, 2)) \
        is None
    return jarnik_family(params)


def test_partially_merged_level_agrees_with_materialized():
    fam = merged_family()
    r6 = fam.rule(6)
    for x in default_grid((0, 1)):
        assert fam.value(6, x) == pytest.approx(r6.eval(x), abs=1e-12)


def test_partially_merged_level_falls_back_once(monkeypatch):
    # bump builds, by the components of their support and core sets
    built = []

    def counting(outer, inner):
        built.append((outer.components, inner.components))
        return bump_from_sets(outer, inner)

    monkeypatch.setattr("divergia.jarnik.bump_from_sets", counting)
    fam = merged_family()
    for x in default_grid((0, 1)):
        fam.value(6, x)
    # the merged level is materialized once, not per point, and the rule
    # folds that same level rather than building it again
    alpha = Fraction(11, 5)
    level_2 = (z_set(2, alpha).components, y_set(2, alpha).components)
    assert built == [level_2]
    fam.rule(6)
    assert len(built) == 6 and built.count(level_2) == 1


def test_levels_are_built_once_under_threads(monkeypatch):
    built = Counter()

    def counting(outer, inner):
        built[outer.components, inner.components] += 1
        time.sleep(1e-3)  # lets another thread in mid-build
        return bump_from_sets(outer, inner)

    monkeypatch.setattr("divergia.jarnik.bump_from_sets", counting)
    fam = merged_family()
    grid = default_grid((0, 1))
    errors = []

    def worker(seed):
        # pointwise values and rules race for the same levels
        rng = random.Random(seed)
        try:
            for _ in range(20):
                n, x = rng.randint(2, 6), rng.choice(grid)
                assert fam.value(n, x) == pytest.approx(fam.rule(n).eval(x),
                                                        abs=1e-12)
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # no level was built twice: no memo update was lost
    assert len(built) == 6 and set(built.values()) == {1}
