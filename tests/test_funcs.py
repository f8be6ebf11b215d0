import bisect
import functools
import gc
import random
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divergia import (CantorNest, CantorParams, ConstructionError,
                      DomainMismatchError, FunctionFamily, IntervalUnion,
                      JarnikParams, LiouvilleParams, MonotoneReport,
                      ParameterError, PiecewiseLinear, anydh_family,
                      arrow_family, bump_from_sets, cantor_nest,
                      constant_family, default_grid, exp_rate_family,
                      jarnik_family, liouville_family, monotone_check,
                      sum_family, tietze_family)
from divergia.scalars import TOL

from ramp_reference import (deepest_component, reference_bump,
                            reference_maps, reference_rounded_value,
                            reference_tietze_value)

DOMAIN = (0, 1)


def random_pl(rng, den=24):
    cuts = sorted({0, den} | {rng.randint(1, den - 1) for _ in range(4)})
    xs = [Fraction(c, den) for c in cuts]
    ys = [Fraction(rng.randint(-12, 12), 4) for _ in xs]
    return PiecewiseLinear(xs, ys)


# ----------------------------------------------------------------------
# piecewise-linear basics
# ----------------------------------------------------------------------

def test_eval_interpolates_exactly():
    f = PiecewiseLinear((0, Fraction(1, 2), 1), (0, 1, 0))
    assert f.eval(Fraction(1, 4)) == Fraction(1, 2)
    assert f.eval(0) == 0 and f.eval(1) == 0
    assert f(Fraction(1, 2)) == 1


def test_eval_outside_domain_rejected():
    f = PiecewiseLinear((0, 1), (0, 1))
    with pytest.raises(ParameterError):
        f.eval(2)
    # a Fraction past every float, among float knots
    g = PiecewiseLinear((0.0, 1.0), (0.0, 1.0))
    for x in (Fraction(10 ** 400), Fraction(-10 ** 400, 3)):
        with pytest.raises(ParameterError, match="outside domain"):
            g.eval(x)
        with pytest.raises(ParameterError, match="outside domain"):
            g.integral(*sorted((x, Fraction(1, 2))))


def test_knots_must_strictly_increase():
    with pytest.raises(ParameterError):
        PiecewiseLinear((0, 0, 1), (0, 1, 2))


def test_add_eval_homomorphism_exact():
    rng = random.Random(31)
    for _ in range(50):
        f, g = random_pl(rng), random_pl(rng)
        h = f.add(g)
        xs = sorted(set(f.xs) | set(g.xs))
        pts = xs + [Fraction(rng.randint(1, 999), 1000) for _ in range(20)]
        for x in pts:
            assert h.eval(x) == f.eval(x) + g.eval(x)


def test_integral_exact_values():
    f = PiecewiseLinear((0, Fraction(1, 2), 1), (0, 1, 0))
    assert f.integral(0, 1) == Fraction(1, 2)
    assert f.integral(0, Fraction(1, 2)) == Fraction(1, 4)
    assert f.integral(Fraction(1, 4), Fraction(3, 4)) == Fraction(3, 8)


def test_integral_additivity_random():
    rng = random.Random(17)
    for _ in range(60):
        f = random_pl(rng)
        a, b, c = sorted(Fraction(rng.randint(0, 1000), 1000)
                         for _ in range(3))
        if a == b or b == c:
            continue
        assert f.integral(a, c) == f.integral(a, b) + f.integral(b, c)


def test_integral_rejects_bad_bounds():
    f = PiecewiseLinear((0, 1), (0, 1))
    with pytest.raises(ParameterError):
        f.integral(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ParameterError):
        f.integral(0, 2)


def _reference_integral(f, x, y):
    """``integral`` with every comparison exact: the reference for the
    float ranking of exact cuts."""
    total = 0
    i = bisect.bisect_right(f.xs, x)
    prev_x, prev_y = x, _reference_eval(f, x)
    while i < len(f.xs) and f.xs[i] < y:
        total += (f.ys[i] + prev_y) * (f.xs[i] - prev_x) / 2
        prev_x, prev_y = f.xs[i], f.ys[i]
        i += 1
    total += (_reference_eval(f, y) + prev_y) * (y - prev_x) / 2
    return total


def test_exact_cut_tied_with_a_float_knot():
    # float(x) is the knot 0.3 for all three cuts, while x lies below it,
    # on it and above it.  The left segment read at 0.3 gives
    # 0.8999999999999999, not the knot's 0.9, so a cut ranked on the wrong
    # side of the tie moves the last bit of eval and of the integrals
    f = PiecewiseLinear((0.0, 0.1, 0.3, 1.0), (0.5, 0.2, 0.9, 0.4))
    knot, tiny = Fraction(0.3), Fraction(1, 2 ** 80)
    below, above = knot - tiny, knot + tiny
    assert float(below) == float(above) == 0.3
    assert repr(f.eval(below)) == "0.8999999999999999"
    assert repr(f.eval(knot)) == repr(f.eval(above)) == "0.9"
    for x in (below, knot, above):
        got, want = f.eval(x), _reference_eval(f, x)
        assert (type(got), repr(got)) == (type(want), repr(want))
        for a, b in [(0, x), (Fraction(1, 20), x), (x, 1), (x, 0.5)]:
            got, want = f.integral(a, b), _reference_integral(f, a, b)
            assert (type(got), repr(got)) == (type(want), repr(want))
    # on the knot itself the stored value is read, not interpolated:
    # the formula would turn -0.0 into 0.0
    g = PiecewiseLinear((0.0, 0.3, 1.0), (1.0, -0.0, 1.0))
    assert repr(g.eval(knot)) == "-0.0" and repr(g.eval(above)) == "0.0"


def test_scale_and_sub():
    f = PiecewiseLinear((0, 1), (1, 3))
    assert f.scale(2).ys == (2, 6)
    assert f.sub(f).ys == (0, 0)


def test_domain_mismatch_rejected():
    f = PiecewiseLinear((0, 1), (0, 0))
    g = PiecewiseLinear((0, 2), (0, 0))
    with pytest.raises(DomainMismatchError):
        f.add(g)


def test_json_round_trip():
    f = PiecewiseLinear((0, Fraction(1, 3), 1), (0, Fraction(1, 2), 0))
    g = PiecewiseLinear.from_json(f.to_json())
    assert g.xs == f.xs and g.ys == f.ys


@given(st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_tent_bounds(x):
    f = PiecewiseLinear((0, Fraction(1, 2), 1), (0, 1, 0))
    assert 0 <= f.eval(x) <= 1


# ----------------------------------------------------------------------
# one-pass knot merge against the sorted-union reference
# ----------------------------------------------------------------------

def _reference_eval(f, x):
    """``eval`` before the merge: a bisect and the interpolation formula."""
    i = bisect.bisect_right(f.xs, x)
    if i == len(f.xs):
        return f.ys[-1]
    if x == f.xs[i - 1]:
        return f.ys[i - 1]
    x0, x1, y0, y1 = f.xs[i - 1], f.xs[i], f.ys[i - 1], f.ys[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _reference_add(f, g):
    xs = sorted(set(f.xs) | set(g.xs))
    return PiecewiseLinear(
        xs, [_reference_eval(f, x) + _reference_eval(g, x) for x in xs])


def _reference_monotone_check(fam, n_max, tol=TOL):
    for n in range(fam.min_index, n_max):
        f, g = fam.rule(n), fam.rule(n + 1)
        for x in sorted(set(f.xs) | set(g.xs)):
            d = _reference_eval(g, x) - _reference_eval(f, x)
            if d < -tol:
                return MonotoneReport(False, n_checked=n,
                                      first_violation=(n, x, d))
    return MonotoneReport(True, n_checked=n_max)


def _signature(f):
    # repr tells 0, Fraction(0, 1) and 0.0 apart, and 0.0 from -0.0
    return [(type(v), repr(v)) for v in f.xs + f.ys]


@st.composite
def mixed_pl(draw, nonnegative=False):
    """A function on [0, 4] whose knots and values are exact, float, int or
    a mix of the three, with flat segments, signed float zeros and knots
    that other draws share (possibly in another type)."""
    kind = draw(st.sampled_from(("exact", "float", "int", "mixed")))

    def scalar(r):
        k = draw(st.sampled_from(("exact", "float", "int"))) \
            if kind == "mixed" else kind
        if k == "float":
            return -float(r) if r == 0 and draw(st.booleans()) else float(r)
        if r.denominator == 1 and (k == "int" or draw(st.booleans())):
            return int(r)
        return Fraction(r)

    den = 1 if kind == "int" else 6
    cuts = draw(st.sets(st.integers(1, 4 * den - 1), max_size=6))
    xs = [scalar(Fraction(c, den)) for c in [0, *sorted(cuts), 4 * den]]
    low = 0 if nonnegative else -8
    ys = []
    for _ in xs:
        if ys and draw(st.booleans()):
            r = Fraction(ys[-1])  # a flat segment, perhaps in another type
        else:
            r = Fraction(draw(st.integers(low, 8)), 1 if kind == "int" else 4)
        ys.append(scalar(r))
    return PiecewiseLinear(xs, ys)


@given(mixed_pl(), mixed_pl())
def test_add_and_sub_match_sorted_union_reference(f, g):
    assert _signature(f.add(g)) == _signature(_reference_add(f, g))
    assert _signature(f.sub(g)) == \
        _signature(_reference_add(f, g.scale(-1)))


@given(mixed_pl(), mixed_pl())
def test_add_builds_knots_the_checked_constructor_accepts(f, g):
    # add skips the strict-increase check that __init__ keeps
    h = f.add(g)
    assert PiecewiseLinear(h.xs, h.ys) == h
    assert all(a < b for a, b in zip(h.xs, h.xs[1:]))
    with pytest.raises(ParameterError):
        PiecewiseLinear(h.xs[::-1], h.ys)


@given(mixed_pl(), st.lists(st.booleans().flatmap(
    lambda nonneg: mixed_pl(nonnegative=nonneg)), min_size=1, max_size=3))
def test_monotone_check_matches_sorted_union_reference(base, steps):
    rules = [base]
    for step in steps:
        rules.append(rules[-1].add(step))
    fam = FunctionFamily((0, 4), lambda n: rules[n - 1],
                         max_index=len(rules))
    assert repr(monotone_check(fam, len(rules))) == \
        repr(_reference_monotone_check(fam, len(rules)))


def test_add_keeps_an_exact_knot_and_its_float_rounding():
    # Fraction(1, 3) and its rounding 1/3 are distinct knots of the sum, in
    # increasing order, and each takes the values eval gives there
    exact = PiecewiseLinear((0, Fraction(1, 3), 1), (0, 1, 0))
    rounded = PiecewiseLinear((0, 1 / 3, 1), (0, 1, 0))
    s = exact.add(rounded)
    assert s.xs == (0, 1 / 3, Fraction(1, 3), 1)
    assert [type(x) for x in s.xs] == [int, float, Fraction, int]
    for x, y in zip(s.xs, s.ys):
        assert y == exact.eval(x) + rounded.eval(x)


def test_merge_calls_no_eval(monkeypatch):
    def refuse(self, x):
        raise AssertionError("eval called at a merged knot")

    monkeypatch.setattr(PiecewiseLinear, "eval", refuse)
    jarnik = jarnik_family(JarnikParams(Fraction(1, 2), q_max=10))
    f = jarnik.rule(10)
    assert f.add(f).ys == tuple(2 * y for y in f.ys)
    tietze = tietze_family(cantor_nest(CantorParams(Fraction(1, 2))))
    assert monotone_check(tietze, 5).ok


# ----------------------------------------------------------------------
# bump construction
# ----------------------------------------------------------------------

def _iu(comps):
    return IntervalUnion(DOMAIN, comps)


def test_bump_plateau_and_ramps():
    outer = _iu([(Fraction(1, 8), Fraction(7, 8))])
    inner = _iu([(Fraction(1, 4), Fraction(3, 4))])
    b = bump_from_sets(outer, inner)
    assert b.eval(Fraction(1, 2)) == 1
    assert b.eval(Fraction(1, 4)) == 1
    assert b.eval(Fraction(1, 8)) == 0
    assert b.eval(0) == 0 and b.eval(1) == 0
    # linear ramp halfway up
    assert b.eval(Fraction(3, 16)) == Fraction(1, 2)


def test_bump_gap_dips_to_half_at_midpoint():
    outer = _iu([(0, 1)])
    inner = _iu([(Fraction(1, 8), Fraction(3, 8)),
                 (Fraction(5, 8), Fraction(7, 8))])
    b = bump_from_sets(outer, inner)
    assert b.eval(Fraction(1, 2)) == Fraction(1, 2)
    assert b.eval(Fraction(7, 16)) == Fraction(3, 4)
    # domain-endpoint edges behave like half-gaps
    assert b.eval(0) == 1 and b.eval(1) == 1
    assert b.eval(Fraction(1, 16)) == Fraction(1, 2)


def test_bump_outer_component_without_inner_is_zero():
    outer = _iu([(Fraction(1, 8), Fraction(3, 8)),
                 (Fraction(5, 8), Fraction(7, 8))])
    inner = _iu([(Fraction(3, 16), Fraction(5, 16))])
    b = bump_from_sets(outer, inner)
    assert b.eval(Fraction(3, 4)) == 0
    assert b.eval(Fraction(1, 4)) == 1


def test_bump_requires_relative_interior_nesting():
    outer = _iu([(Fraction(1, 4), Fraction(1, 2))])
    inner = _iu([(Fraction(1, 4), Fraction(3, 8))])  # touches outer edge
    with pytest.raises(ConstructionError):
        bump_from_sets(outer, inner)


FLOATS = (0.0, 1.0)


def test_float_outer_start_within_tol_of_lo_reaches_it():
    # the nesting test counts the outer start 4e-13 as the domain end, and
    # so does the ramp rule: value 1 at lo, not a knot conflict at 4e-13
    outer = IntervalUnion(FLOATS, [(4e-13, 0.5)])
    b = bump_from_sets(outer, IntervalUnion(FLOATS, [(4e-13, 0.25)]))
    assert b.eval(0.0) == 1 and b.eval(4e-13) == 1 and b.eval(0.5) == 0
    # with an edge segment, the value dips to 1/2 at its midpoint
    b = bump_from_sets(outer, IntervalUnion(FLOATS, [(0.1, 0.25)]))
    assert b.eval(0.0) == 1 and b.eval((4e-13 + 0.1) / 2) == 0.5


def test_float_outer_end_within_tol_of_hi_reaches_it():
    outer = IntervalUnion(FLOATS, [(0.5, 1 - 4e-13)])
    b = bump_from_sets(outer, IntervalUnion(FLOATS, [(0.75, 1 - 4e-13)]))
    assert b.eval(1.0) == 1 and b.eval(0.75) == 1 and b.eval(0.5) == 0
    b = bump_from_sets(outer, IntervalUnion(FLOATS, [(0.75, 0.9)]))
    assert b.eval(1.0) == 1 and b.eval((0.9 + 1 - 4e-13) / 2) == 0.5


def test_bump_range_and_exactness():
    rng = random.Random(5)
    p = CantorParams(Fraction(1, 2))
    nest = cantor_nest(p)
    for i in range(4):
        b = bump_from_sets(nest.level(i), nest.level(i + 1))
        assert b.exact
        assert b.min_value() >= 0 and b.max_value() == 1
        for _ in range(30):
            x = Fraction(rng.randint(0, 1024), 1024)
            assert 0 <= b.eval(x) <= 1


def test_bump_dips_between_int_ends_are_exact():
    b = bump_from_sets(IntervalUnion((0, 10), [(0, 10)]),
                       IntervalUnion((0, 10), [(2, 3), (6, 7)]))
    assert b.exact
    assert b.xs == (0, 1, 2, 3, Fraction(9, 2), 6, 7, Fraction(17, 2), 10)
    assert [type(x) for x in b.xs] == [int, Fraction, int, int, Fraction,
                                       int, int, Fraction, int]
    assert b.ys == (1, Fraction(1, 2), 1, 1, Fraction(1, 2), 1, 1,
                    Fraction(1, 2), 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exact_nest_bumps_match_the_object_rule(k):
    # the bumps of consecutive levels run the rule on the doubled level
    # numerators; the object rule gives the same knots, types included
    nest = cantor_nest(CantorParams(Fraction(1, k)))
    for j in range(9):
        outer, inner = nest.level(j), nest.level(j + 1)
        b, want = bump_from_sets(outer, inner), reference_bump(outer, inner)
        assert [(v, type(v)) for v in b.xs + b.ys] == \
            [(v, type(v)) for v in want.xs + want.ys]
        # the integer path states its backend, so meet reads no knot
        assert vars(b)["exact"] is True and want.exact


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def test_constant_family():
    fam = constant_family(DOMAIN, lambda n: n)
    assert fam.rule(3).eval(Fraction(1, 2)) == 3
    assert fam.value(7, 0) == 7


@pytest.mark.parametrize("build, n, x", [
    (lambda: jarnik_family(JarnikParams(Fraction(1, 2))), 5, 2),
    (lambda: liouville_family(), 5, 1.5),
    (lambda: constant_family(DOMAIN, lambda n: n), 3, 7),
    (lambda: constant_family(DOMAIN, lambda n: n), 3, Fraction(-1, 3)),
], ids=["jarnik", "liouville", "constant-above", "constant-below"])
def test_value_outside_domain_rejected(build, n, x):
    # value checks x as rule(n).eval does, hook or no hook
    fam = build()
    with pytest.raises(ParameterError, match="outside domain"):
        fam.rule(n).eval(x)
    with pytest.raises(ParameterError, match="outside domain"):
        fam.value(n, x)


def test_family_memoizes_rule():
    calls = []

    def rule(n):
        calls.append(n)
        return PiecewiseLinear(DOMAIN, (n, n))

    from divergia import FunctionFamily
    fam = FunctionFamily(DOMAIN, rule)
    fam.rule(2)
    fam.rule(2)
    # without a value hook, value reads the memoized rule
    assert fam.value(2, Fraction(1, 3)) == 2
    assert calls == [2]


def test_family_memos_hold_under_threads():
    calls = []

    def step(n):
        calls.append(n)
        time.sleep(1e-3)  # lets another thread in mid-update
        return PiecewiseLinear(DOMAIN, (1, 1))

    from divergia import FunctionFamily
    fam = FunctionFamily(DOMAIN, increment=step, max_index=40)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                n = rng.randint(1, 40)
                assert fam.rule(n).ys == (n, n)
                assert fam.increment(n).ys == (1, 1)
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
    # every summand was built once: no memo update was lost
    assert sorted(calls) == list(range(1, 41))


@pytest.mark.parametrize("build", [
    lambda: tietze_family(cantor_nest(CantorParams(Fraction(1, 3)))),
    lambda: jarnik_family(JarnikParams(Fraction(1, 2))),
    liouville_family,
    lambda: anydh_family(Fraction(1, 3)),
    lambda: constant_family(DOMAIN, lambda n: n),
    lambda: arrow_family(exp_rate_family()),
], ids=["tietze", "jarnik", "liouville", "anydh", "constant", "arrow"])
def test_family_is_freed_without_the_cycle_collector(build):
    # one family is built per command, so it must not hold itself in a
    # cycle: its hooks and memos, filled here, may not refer back to it
    gc.disable()
    try:
        fam = build()
        lo, hi = fam.domain
        fam.rule(3)
        fam.value(3, lo + (hi - lo) / 3)
        ref = weakref.ref(fam)
        del fam
        assert ref() is None
    finally:
        gc.enable()


def test_family_needs_rule_or_increment():
    from divergia import FunctionFamily
    with pytest.raises(ParameterError):
        FunctionFamily(DOMAIN)


@pytest.mark.parametrize("build", [
    lambda: tietze_family(cantor_nest(CantorParams(Fraction(1, 2)))),
    lambda: jarnik_family(JarnikParams(Fraction(1, 2), q_max=5)),
    lambda: sum_family(
        tietze_family(cantor_nest(CantorParams(Fraction(1, 2)))),
        liouville_family(LiouvilleParams(q_max=5))),
], ids=["tietze", "jarnik", "sum"])
def test_increment_at_first_index_is_first_rule(build):
    fam = build()
    assert fam.increment(fam.min_index) == fam.rule(fam.min_index)


def test_family_index_below_min_rejected():
    fam = constant_family(DOMAIN, lambda n: n)
    with pytest.raises(ParameterError):
        fam.rule(0)


def test_monotone_check_passes_and_fails():
    up = constant_family(DOMAIN, lambda n: n)
    assert monotone_check(up, 5).ok
    down = constant_family(DOMAIN, lambda n: -n)
    rep = monotone_check(down, 5)
    assert not rep.ok and rep.first_violation is not None
    # no comparison to make: vacuously nondecreasing at the first index
    assert monotone_check(up, up.min_index) == \
        MonotoneReport(True, n_checked=up.min_index)
    with pytest.raises(ParameterError):
        monotone_check(up, up.min_index - 1)


def test_monotone_check_scans_increments_only(monkeypatch):
    def refuse(self, n):
        raise AssertionError("monotone_check folded a partial sum")

    fam = tietze_family(cantor_nest(CantorParams(Fraction(1, 2))))
    monkeypatch.setattr(FunctionFamily, "_fold", refuse)
    assert monotone_check(fam, 6) == MonotoneReport(True, n_checked=6)


# ----------------------------------------------------------------------
# nest partial sums
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def nest_family():
    nest = cantor_nest(CantorParams(Fraction(1, 2)))
    return nest, tietze_family(nest)


def test_partial_sums_values_on_and_off_nest(nest_family):
    nest, fam = nest_family
    x = nest.fixed_point_left()
    assert x == Fraction(1, 6)
    for n in range(8):
        assert fam.rule(n).eval(x) == n + 1
    # central gap midpoint only ever sees the first bump's tent
    assert fam.rule(6).eval(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1, 3), 0.4],
                         ids=["half", "third", "float"])
def test_descent_value_matches_materialized(theta):
    # an exact nest's value agrees with its materialized rule; a float
    # nest's rule runs on rounded ends, so its value is compared with the
    # exact value of the dyadic nest rounded once instead
    nest = cantor_nest(CantorParams(theta))
    fam = tietze_family(nest)
    lo, hi = nest.params.domain
    rng = random.Random(23)
    # the domain endpoints exercise the endpoint ramps
    base = [lo, hi] + [lo + (hi - lo) * Fraction(rng.randint(0, 4096), 4096)
                       for _ in range(60)]
    for n in range(9):
        f = fam.rule(n)
        # the knots of rule(n) and the endpoints of the level-n children
        # hold points that stay in level n as well as points that leave
        # the nest at every level k < n
        xs = base + list(f.xs) + [
            e for comp in nest.level(n + 1).components for e in comp]
        for x in xs:
            if nest.params.exact:
                assert fam.value(n, x) == f.eval(x)
            else:
                got = fam.value(n, x)
                want = reference_rounded_value(nest, n, x)
                assert got == want and type(got) is type(want)


@pytest.mark.parametrize("theta", [0.3, 0.4, 0.45, 0.7])
def test_float_descent_walks_the_levels(theta):
    # the float descent and the levels compose the same maps, so every
    # component the descent meets is a component of its level, and the
    # pointwise value is the exact value of the dyadic nest rounded once
    nest = cantor_nest(CantorParams(theta))
    fam = tietze_family(nest)
    grid = default_grid((0.0, 1.0))
    levels = [set(nest.level(k).components) for k in range(10)]
    for n in range(9):
        f = fam.rule(n)
        for x in grid + list(f.xs):
            k, component, children = deepest_component(nest, n, x)
            assert component in levels[k]
            assert all(c in levels[k + 1] for c in children)
            got, want = fam.value(n, x), reference_rounded_value(nest, n, x)
            assert got == want and type(got) is type(want)


def test_value_is_one_descent(monkeypatch):
    calls = []
    children = CantorNest._children

    def counting(self, starts, width):
        calls.append((starts, width))
        return children(self, starts, width)

    monkeypatch.setattr(CantorNest, "_children", counting)
    nest = cantor_nest(CantorParams(Fraction(1, 2)))
    fam = tietze_family(nest)
    assert fam.value(30, nest.fixed_point_left()) == 31
    assert fam.value(30, Fraction(1, 2)) == Fraction(1, 2)
    # an exact nest descends on integer numerators and applies the child
    # rule only at the exit level, not once per level
    assert len(calls) <= 2


@pytest.mark.parametrize("theta", [0.3, 0.35])
def test_float_value_on_the_exact_fixed_point(theta):
    # membership is decided on the descent's integers, so the exact fixed
    # point of the dyadic nest stays on it at every depth
    p = CantorParams(theta)
    fam = tietze_family(cantor_nest(p))
    m = Fraction(p.m)
    x = m * Fraction(p.eps) / (1 - m)
    for n in range(61):
        assert fam.value(n, x) == n + 1


def test_float_fixed_point_leaves_the_nest_at_16():
    # the rounded fixed point leaves the dyadic nest at level 16, where
    # its value is read on the descent's integers like any other point's
    nest = cantor_nest(CantorParams(0.3))
    fam = tietze_family(nest)
    x = nest.fixed_point_left()
    assert [fam.value(n, x) for n in range(16)] == list(range(1, 17))
    stall = reference_rounded_value(nest, 16, x)
    assert stall == 16.643794928067592
    assert all(fam.value(n, x) == stall for n in range(16, 61))


@st.composite
def nest_points(draw):
    """(nest, x): an exact nest and a rational x in [0, 1] that is random,
    a domain end, or the image under a random address of up to 45 maps of
    a component end, an inner point or the central gap midpoint 1/2."""
    k = draw(st.sampled_from((2, 3, 4, 5)))
    nest = cantor_nest(CantorParams(Fraction(1, k)))
    kind = draw(st.sampled_from(("random", "end", "address")))
    if kind == "random":
        return nest, draw(st.fractions(0, 1, max_denominator=10 ** 9))
    if kind == "end":
        return nest, draw(st.sampled_from([0, 1, Fraction(0), Fraction(1)]))
    m, eps = nest.params.m, nest.params.eps
    x = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                              Fraction(1, 3)]))
    for right in draw(st.lists(st.booleans(), max_size=45)):
        x = 1 - m * (x + eps) if right else m * (x + eps)
    return nest, x


@settings(max_examples=300)
@given(nest_points(), st.integers(0, 40))
def test_exact_value_matches_the_object_path(point, n):
    nest, x = point
    got = tietze_family(nest).value(n, x)
    want = reference_tietze_value(nest, n, x)
    assert got == want and type(got) is type(want)


@functools.cache
def float_nest(theta):
    """A float nest, its Tietze family, and the default grid points and
    the rounded ends of levels 1-8."""
    nest = cantor_nest(CantorParams(theta))
    marks = default_grid((0.0, 1.0)) + [
        e for n in range(1, 9) for comp in nest.level(n).components
        for e in comp]
    return nest, tietze_family(nest), marks


@st.composite
def float_nest_points(draw):
    """(nest, family, x): a float nest and, as a float or as its exact
    value, a grid point or level end, the image of 0, 1/2 or 1 under a
    random address of up to 45 maps of the exact dyadic nest, or any
    float in [0, 1]."""
    nest, fam, marks = float_nest(draw(st.sampled_from(
        (0.3, 0.35, 0.4, 0.45, 0.7))))
    kind = draw(st.sampled_from(("mark", "address", "float")))
    if kind == "float":
        return nest, fam, draw(st.floats(0, 1))
    if kind == "mark":
        x = draw(st.sampled_from(marks))
    else:
        x = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
        for bit in draw(st.lists(st.integers(0, 1), max_size=45)):
            r, o = reference_maps(nest)[bit]
            x = r * x + o
    return nest, fam, draw(st.sampled_from((float, Fraction)))(x)


@settings(max_examples=300)
@given(float_nest_points(), st.integers(0, 40))
def test_float_value_is_the_exact_value_rounded_once(point, n):
    nest, fam, x = point
    got = fam.value(n, x)
    want = reference_rounded_value(nest, n, x)
    assert got == want and type(got) is type(want)


def test_increment_equals_rule_difference(nest_family):
    nest, fam = nest_family
    d3 = fam.increment(3)
    diff = fam.rule(3).sub(fam.rule(2))
    for x in sorted(set(d3.xs) | set(diff.xs)):
        assert d3.eval(x) == diff.eval(x)


def test_step_bound_dominates_increment_integral(nest_family):
    nest, fam = nest_family
    for n in range(1, 6):
        inc = fam.increment(n)
        assert float(inc.integral(0, 1)) <= fam.step_bound(n) + 1e-12


def test_nesting_violation_reported(monkeypatch):
    calls = []
    walk = IntervalUnion._housed

    def counted(self, other, interior):
        calls.append(other)
        return walk(self, other, interior)

    monkeypatch.setattr(IntervalUnion, "_housed", counted)
    fam = tietze_family(cantor_nest(CantorParams(0.312)))
    fam.rule(3)
    # one walk per bump both checks the nesting and groups the components
    assert len(calls) == 4
    # at theta = 0.312 level 13 still resolves as floats but no longer
    # fits inside the relative interior of level 12 (within TOL), and the
    # nesting check reports the level
    with pytest.raises(ConstructionError, match="level 12"):
        fam.increment(12)


@pytest.mark.parametrize("theta, tag", [
    (Fraction(1, 2), "cantor-tietze(theta=1/2)"),
    (0.4, "cantor-tietze(theta=0.4)"),
    (0.5, "cantor-tietze(theta=0.5)"),  # 1/2 as --backend float parses it
])
def test_tietze_tag_names_theta(theta, tag):
    assert tietze_family(cantor_nest(CantorParams(theta))).tag == tag
