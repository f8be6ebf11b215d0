"""The benchmark workloads.

A workload is an endless sequence of rounds drawn from a seeded
``random.Random``; a round is a list of operations.  Every operation builds
its own family or nest, as one CLI command does, so no operation inherits
another's memo tables.  Operations that a CLI command covers go through
``divergia.cli.main(argv)`` in-process with stdout captured; the others call
the library's public functions.

Each operation carries a check that decides, outside the timed region,
whether its output is correct: a paper invariant, an independent closed
form, or a schema.  Operation classes listed in ``KNOWN_DEFECTS`` exercise
defects the library has today.  They join the rounds only when a workload is
built with ``defects=True``; their failures are then expected and counted.
The default rounds hold no operation that fails.

A round's sizes are fixed, so its cost does not depend on the seed; the seed
picks the points, addresses, tuples and thresholds, which change the question
but not the work.

Library names are looked up through the ``divergia`` modules at call time,
so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import divergia as dv
import divergia.cli
from jsonschema import Draft202012Validator

#: operation class -> the defect it exercises; failures there are expected
KNOWN_DEFECTS = {
    "verdict.anydh_float_theta_0.3":
        "float nest at theta 0.3 loses resolution; raises at level 13",
    "sweep.trajectory_float_theta_0.3":
        "float nest at theta 0.3 loses resolution; values stall at 16.5",
    "build.rule_float_theta_0.3":
        "float nest at theta 0.3 loses resolution; raises at level 13",
    "means.qa_mean_exp_-1000": "overflow: the guard factors out max(a)",
    "means.qa_mean_power_2000": "overflow: no log-domain evaluation",
    "means.power_mean_2000": "overflow: no log-domain evaluation",
}

EXACT_THETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
# k/1000 for k = 0..1000 and the reduced p/q with q <= 20 not among them
DEFAULT_GRID_POINTS = 1105


class Wrong(Exception):
    """An operation's output violates its check."""


def expect(cond, message):
    if not cond:
        raise Wrong(message)


class Op:
    """One operation: ``call`` is timed, ``check`` judges its result.

    ``raises`` names the exception type that is the correct outcome, for
    requests the library must refuse."""

    __slots__ = ("kind", "call", "check", "raises")

    def __init__(self, kind, call, check=None, raises=None):
        self.kind, self.call, self.check, self.raises = \
            kind, call, check, raises


def judge(op, result, exc):
    """None when the outcome is correct, else a one-line reason."""
    if op.raises is not None:
        if isinstance(exc, op.raises):
            return None
        got = f"{type(exc).__name__}: {exc}" if exc else "a result"
        return f"expected {op.raises.__name__}, got {got}"
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    try:
        op.check(result)
    except Wrong as wrong:
        return str(wrong)
    except Exception as crash:  # a check that cannot run is a failure too
        return f"check raised {type(crash).__name__}: {crash}"
    return None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def run_cli(argv):
    """``divergia.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = divergia.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_json(result):
    rc, out, err = result
    expect(rc == 0, f"exit code {rc}: {err.strip()[:200]}")
    return json.loads(out)


def load_validators(root: Path):
    out = {}
    for path in sorted((root / "schemas").glob("*.schema.json")):
        schema = json.loads(path.read_text())
        out[path.name.split(".")[0]] = Draft202012Validator(schema)
    return out


def check_schema(validator, doc):
    error = next(validator.iter_errors(doc), None)
    expect(error is None, f"schema: {error and error.message[:160]}")


def scalar(v):
    """Parse a JSON scalar as the library writes it ("p/q" or a number)."""
    if isinstance(v, str):
        num, den = v.split("/")
        return Fraction(int(num), int(den))
    return v


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Nest:
    """Independent model of the two-map construction: L(x) = m(x + eps),
    R(x) = 1 - L(x), m = (1/2)^(1/theta), eps at the middle of its
    admissible interval.  Used to make inputs and expected values."""

    def __init__(self, theta):
        self.theta = theta
        if isinstance(theta, Fraction) and (1 / theta).denominator == 1:
            self.m = Fraction(1, 2 ** int(1 / theta))
        else:
            self.m = 0.5 ** (1 / float(theta))
        self.eps = (1 / (2 * self.m) - 1) / 2
        self.fixed = self.m * self.eps / (1 - self.m)

    def apply(self, bit, x):
        left = self.m * (x + self.eps)
        return 1 - left if bit else left

    def point(self, bits):
        """The nest point with the given binary address, then the fixed
        point of the left map; it lies in every level."""
        x = self.fixed
        for bit in reversed(bits):
            x = self.apply(bit, x)
        return x

    def level(self, n):
        comps = [(0 * self.m, 1 + 0 * self.m)]
        for _ in range(n):
            comps = sorted(
                tuple(sorted((self.apply(b, a), self.apply(b, c))))
                for b in (0, 1) for a, c in comps)
        return comps

    def gap_midpoints(self, n):
        comps = self.level(n)
        return [(comps[i][1] + comps[i + 1][0]) / 2
                for i in range(len(comps) - 1)]


def nested_within(inner, outer):
    """Every component of ``inner`` lies in a component of ``outer``; both
    lists sorted and disjoint."""
    j = 0
    for a, b in inner:
        while j < len(outer) and outer[j][1] < a:
            j += 1
        if j == len(outer) or not (outer[j][0] <= a and b <= outer[j][1]):
            return False
    return True


def check_report(doc, validator, M, N, min_index, all_reached=False):
    """A max-family report is well formed and consistent with (M, N)."""
    check_schema(validator, doc)
    expect(doc["M"] == float(M) and doc["N_max"] == N,
           f"echoed (M, N) = ({doc['M']}, {doc['N_max']})")
    expect(doc["monotone"] is True, "family reported non-monotone")
    for row in doc["rows"]:
        col = row["integrals"]
        expect([n for n, _ in col] == list(range(min_index,
                                                 min_index + len(col))),
               "integral column indices are not consecutive")
        vals = [v for _, v in col]
        expect(all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])),
               f"integral column decreases on [{row['x']}, {row['y']}]")
        if row["reached_at"] is not None:
            expect(row["reached_at"] == col[-1][0] and vals[-1] > M
                   and all(v <= M for v in vals[:-1]),
                   "reached_at disagrees with its integral column")
        else:
            expect(all(v <= M for v in vals),
                   "row not reached but an integral exceeds M")
            expect(row["certified_not_reached"] or col[-1][0] == N,
                   "uncertified row stopped before N")
        if all_reached:
            expect(row["reached_at"] is not None,
                   f"row [{row['x']}, {row['y']}] not reached")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """Shared inputs made at set-up; ``rounds(seed)`` yields the ops.

    With ``COLLECT`` the loop collects cyclic garbage after each operation,
    outside the timed region, so that each operation starts from a clean
    heap as one CLI command does, and the peak memory is that of the
    largest operation rather than of the collector's timing."""

    COLLECT = False

    def __init__(self, root: Path, defects=False):
        self.schemas = load_validators(root)
        self.defects = defects

    def rounds(self, seed):
        rng = random.Random(seed)
        i = 0
        while True:
            ops = self.round(rng, i)
            rng.shuffle(ops)
            yield ops
            i += 1


class Verdict(Workload):
    """Max-family verdicts through ``check`` and ``anydh``."""

    # M bands inside which every one of the ten rows is reached at the same
    # index, so the seeded M changes the question but not the work
    EXACT_M = (5.65, 6.10)     # reached at n = 9
    FLOAT_M = (8.65, 9.85)     # reached at n = 11 for theta 0.4

    TIETZE_THETAS = EXACT_THETAS + (Fraction(2, 5), 0.4)
    JARNIK_THETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))

    def round(self, rng, i):
        """One exact anydh per round, so a run holds about twenty and the
        tail is their median; the fifteen-operation round puts the median
        among the eleven cheap checks, one per theta for cantor-tietze and
        two per theta for jarnik."""
        ops = [
            self._anydh("verdict.anydh_exact", EXACT_THETAS[i % 3], "exact",
                        rng.uniform(*self.EXACT_M), rng.randint(12, 40)),
            self._anydh("verdict.anydh_float", 0.4, "float",
                        rng.uniform(*self.FLOAT_M), rng.randint(14, 40)),
        ]
        if self.defects:
            ops.append(self._anydh("verdict.anydh_float_theta_0.3", 0.3,
                                   "float", 10, 30))
        ops += [self._tietze_check(theta, rng)
                for theta in self.TIETZE_THETAS]
        ops += [self._jarnik_check(theta, rng)
                for theta in self.JARNIK_THETAS * 2]
        for _ in range(2):
            ops.append(self._liouville_check(rng))
        return ops

    def _anydh(self, kind, theta, backend, M, N):
        M = round(M, 3)
        argv = ["anydh", "--theta", str(theta), "--backend", backend,
                "--M", str(M), "--N", str(N)]
        report = self.schemas["max_family_report"]
        return Op(kind, lambda: run_cli(argv),
                  lambda r: check_report(cli_json(r), report, M, N, 1,
                                         all_reached=True))

    def _tietze_check(self, theta, rng):
        backend = "float" if isinstance(theta, float) else "exact"
        M, N = rng.randint(3, 12), rng.randint(10, 40)
        argv = ["check", "--family", "cantor-tietze", "--theta",
                str(theta), "--backend", backend,
                "--M", str(M), "--N", str(N)]
        m = Nest(theta).m
        bound = 1 / (1 - 2 * float(m))   # sum of all level measures
        report = self.schemas["max_family_report"]

        def check(result):
            doc = cli_json(result)
            check_report(doc, report, M, N, 0)
            # M > bound, so every row, (2/5, 3/5) among them, must be
            # certified not reached
            for row in doc["rows"]:
                expect(row["reached_at"] is None
                       and row["certified_not_reached"],
                       f"row [{row['x']}, {row['y']}] not certified "
                       f"although every integral is below {bound:.3f}")

        return Op("verdict.check_tietze", lambda: run_cli(argv), check)

    def _jarnik_check(self, theta, rng):
        M, N = rng.randint(3, 12), rng.randint(10, 40)
        argv = ["check", "--family", "jarnik", "--theta", str(theta),
                "--M", str(M), "--N", str(N)]
        report = self.schemas["max_family_report"]
        return Op("verdict.check_jarnik", lambda: run_cli(argv),
                  lambda r: check_report(cli_json(r), report, M, N, 1))

    def _liouville_check(self, rng):
        M, N = rng.randint(3, 8), rng.randint(12, 30)
        argv = ["check", "--family", "liouville", "--M", str(M),
                "--N", str(N)]
        report = self.schemas["max_family_report"]
        return Op("verdict.check_liouville", lambda: run_cli(argv),
                  lambda r: check_report(cli_json(r), report, M, N, 1,
                                         all_reached=True))


class Sweep(Workload):
    """Pointwise divergence estimates and prefix-value trajectories."""

    N = 30
    # the float nest resolves components down to about depth 20 at theta
    # 0.4; its trajectories stay inside that, and the theta 0.3 class goes
    # past the resolution on purpose
    N_FLOAT = 16
    # address depths of the exact trajectories, one of each per theta and
    # round: the cost of value(n, x) depends on theta and on the depth
    DEPTHS = (4, 12, 20, 28)
    # (family, theta, N) of the iset calls, sized to cost about the same,
    # so that their block holds the tail whatever the number of rounds;
    # the Liouville family is estimated by the library call instead
    ISETS = (("cantor-tietze", "1/2", 30), ("jarnik", "1/2", 20),
             ("anydh", "1/2", 20))

    def __init__(self, root, defects=False):
        super().__init__(root, defects)
        self.models = {t: Nest(t) for t in EXACT_THETAS + (0.4, 0.3)}
        # gap midpoints of levels 1-8, each with the first level it is off
        self.midpoints = {}
        for t in EXACT_THETAS + (0.4,):
            first = {}
            for n in range(1, 9):
                for x in self.models[t].gap_midpoints(n):
                    first.setdefault(x, n)
            self.midpoints[t] = sorted(first.items())

    def round(self, rng, i):
        """Twelve exact trajectories, one per theta and depth, and seven
        other operations, three cheaper, the Liouville estimate among the
        trajectories and the three iset calls dearer, so the median falls
        inside the trajectory class."""
        ops = [self._iset(*iset, rng) for iset in self.ISETS]
        for theta in EXACT_THETAS:
            for depth in self.DEPTHS:
                ops.append(self._trajectory(
                    "sweep.trajectory_exact", theta,
                    self._point(theta, rng, depth), self.N))
        ops.append(self._trajectory("sweep.trajectory_float", 0.4,
                                    self._point(0.4, rng, 8), self.N_FLOAT))
        if self.defects:
            # the fixed point of the left map, where value(n, x) stalls at
            # 16.5 for n >= 16 on the float backend
            ops.append(self._trajectory(
                "sweep.trajectory_float_theta_0.3", 0.3,
                self.models[0.3].fixed, rng.randint(17, 40)))
        for theta in (EXACT_THETAS[i % 3], 0.4):
            ops.append(self._midpoints(theta, rng))
        ops.append(self._grid_estimate(rng))
        return ops

    def _point(self, theta, rng, depth):
        """A nest point at a seeded binary address of the given depth."""
        return self.models[theta].point(
            [rng.randint(0, 1) for _ in range(depth)])

    def _trajectory(self, kind, theta, x, N):
        """Prefix values value(n, x), n <= N, at a point x of the nest."""
        exact = isinstance(self.models[theta].m, Fraction)

        def call():
            fam = dv.tietze_family(dv.cantor_nest(dv.CantorParams(theta)))
            return [fam.value(n, x) for n in range(N + 1)]

        def check(values):
            for n, v in enumerate(values):
                expect(v == n + 1 if exact else abs(v - (n + 1)) <= 1e-9,
                       f"value({n}, x) = {v} on the nest, expected {n + 1}")

        return Op(kind, call, check)

    def _midpoints(self, theta, rng):
        picks = rng.sample(self.midpoints[theta], 32)
        grid = sorted(x for x, _ in picks)
        off = dict(picks)
        M = rng.randint(2, 8)

        def call():
            fam = dv.tietze_family(dv.cantor_nest(dv.CantorParams(theta)))
            return dv.divergence_estimate(fam, M=M, N=self.N, grid=grid)

        def check(est):
            for x, v, flag in zip(est.points, est.values, est.flags):
                expect(v < off[x], f"value {v} at a gap midpoint off level "
                                   f"{off[x]} is not below {off[x]}")
                expect(flag == (v > M), "flag disagrees with value > M")

        kind = ("sweep.midpoints_float" if isinstance(theta, float)
                else "sweep.midpoints_exact")
        return Op(kind, call, check)

    def _grid_estimate(self, rng):
        """Library estimate of the Liouville family on the default grid."""
        M, N = rng.randint(4, 12), self.N

        def call():
            return dv.divergence_estimate(dv.liouville_family(), M=M, N=N)

        return Op("sweep.grid_estimate", call,
                  lambda est: self._check_grid(est.to_json(), "liouville",
                                               M, N))

    def _iset(self, family, theta, N, rng):
        M = rng.randint(4, 12)
        argv = ["iset", "--family", family, "--M", str(M), "--N", str(N)]
        if theta:
            argv += ["--theta", theta]

        return Op("sweep.iset", lambda: run_cli(argv),
                  lambda r: self._check_grid(cli_json(r), family, M, N))

    def _check_grid(self, doc, family, M, N):
        """A divergence estimate on the default grid, as a JSON document."""
        check_schema(self.schemas["divergence_estimate"], doc)
        rows = [(scalar(x), v, f) for x, v, f in doc["points"]]
        expect(len(rows) == DEFAULT_GRID_POINTS, f"{len(rows)} grid points")
        for x, v, flag in rows:
            expect(flag == (v > M), f"flag at {x} disagrees with value > M")
            expect(v >= 0, f"negative value at {x}")
            low = lower_bound(family, x, N)
            expect(v >= low - 1e-9 * max(1.0, low),
                   f"value {v} at {x} below the rational-centre bound {low}")
            if family in ("jarnik", "cantor-tietze"):
                expect(v <= N + 1 + 1e-9, f"value {v} at {x} above N + 1")


def lower_bound(family, x, N):
    """Lower bound on value(N, x) at a rational x = p/q from the levels
    that have x as a bump centre (their multiples of q)."""
    if family not in ("jarnik", "liouville", "anydh"):
        return 0
    q = Fraction(x).denominator
    levels = range(q, N + 1, q)
    if family == "jarnik":
        return len(levels)
    # Liouville heights 1/rho(q), rho(q) = q^-max(3, ln q); rho(1) = 1
    return math.fsum(1.0 if k == 1 else float(k) ** max(3.0, math.log(k))
                     for k in levels)


class Build(Workload):
    """Materialised sets, set algebra, box counting and knot lists."""

    # Every round has the same sizes and runs each theta-dependent class
    # once per exact theta, because the cost of an exact operation depends
    # on theta.  So a round costs the same whatever the seed, and a run's
    # mix does not depend on how many rounds fit.  The sizes keep the
    # operations between about 40 and 160 ms, so the median and the tail
    # fall among many samples of close cost.  The seed picks the refused
    # index past q_max, the Jarnik theta order and the sampled schema checks.
    SCHEMA_FULL_LEVELS = 8      # deeper levels are schema-checked on a sample
    SCHEMA_SAMPLE = 256
    Q_MAX = 12
    COLLECT = True   # the nests and families leave cycles of many Fractions

    def __init__(self, root, defects=False):
        super().__init__(root, defects)
        self.models = {t: Nest(t) for t in EXACT_THETAS + (0.4, 0.3)}

    def round(self, rng, i):
        ops = []
        for theta in EXACT_THETAS:
            ops += [
                self._cantor(theta, 11, rng, uniform=False),
                self._cantor(theta, 9, rng, uniform=True),
                self._algebra(theta, 10),
                self._hausdorff(theta, 8),
                self._box_dimension(theta, 10),
                self._tietze_rule("build.rule_exact", theta, 7),
                self._monotone(theta, 6),
            ]
        ops += [
            self._cantor(0.4, 13, rng, uniform=False),
            self._tietze_rule("build.rule_float", 0.4, 11),
            self._liouville_rule(40),
        ]
        for theta in rng.sample([Fraction(1, 2), Fraction(1, 3)], 2):
            ops.append(self._jarnik_rule(theta, 17))
            ops.append(self._past_q_max(theta, rng))
        if self.defects:
            ops.append(self._tietze_rule("build.rule_float_theta_0.3", 0.3,
                                         12))
        return ops

    def _cantor(self, theta, levels, rng, uniform):
        model = self.models[theta]
        backend = "float" if isinstance(theta, float) else "exact"
        argv = ["cantor", "--theta", str(theta), "--backend", backend,
                "--levels", str(levels)] + (["--uniform"] if uniform else [])
        validator = self.schemas["interval_union"]
        a = model.fixed       # uniform level 0 is [a, 1 - a]
        exact = backend == "exact"
        pick = random.Random(rng.random())

        def check(result):
            doc = cli_json(result)
            prev = None
            for n in range(levels + 1):
                iu = doc["levels"][f"level_{n}"]
                sample = iu
                if n > self.SCHEMA_FULL_LEVELS:
                    sample = dict(iu, components=pick.sample(
                        iu["components"], self.SCHEMA_SAMPLE))
                check_schema(validator, sample)
                comps = [(scalar(x), scalar(y)) for x, y in iu["components"]]
                expect(len(comps) == 2 ** n,
                       f"level {n} has {len(comps)} components")
                measure = sum((y - x for x, y in comps), 0)
                want = (2 * model.m) ** n * ((1 - 2 * a) if uniform else 1)
                expect(measure == want if exact else close(measure, want),
                       f"level {n} measure {measure}, expected {want}")
                expect(prev is None or nested_within(comps, prev),
                       f"level {n} is not inside level {n - 1}")
                prev = comps

        kind = "build.cantor_uniform" if uniform else (
            "build.cantor_exact" if exact else "build.cantor_float")
        return Op(kind, lambda: run_cli(argv), check)

    def _algebra(self, theta, n):
        other = EXACT_THETAS[(EXACT_THETAS.index(theta) + 1) % 3]

        def call():
            params = dv.CantorParams(theta)
            A = dv.cantor_nest(params).level(n)
            U = dv.uniform_cantor(params, n)
            B = dv.cantor_nest(dv.CantorParams(other)).level(n - 2)
            doc = A.to_json()
            return (A, U, B, A.union(B), A.intersect(B), A.complement(),
                    U.subset_of(A), A.subset_of(U), doc,
                    dv.IntervalUnion.from_json(doc))

        def check(res):
            A, U, B, AuB, AnB, C, u_in_a, a_in_u, doc, back = res
            expect(len(A.components) == 2 ** n, "level size")
            expect(AuB.measure() + AnB.measure()
                   == A.measure() + B.measure(),
                   "measure(A u B) + measure(A n B) != measure A + measure B")
            expect(C.measure() + A.measure() == 1, "complement measure")
            expect(C.intersect(A).measure() == 0,
                   "complement overlaps the set")
            expect(u_in_a and not a_in_u,
                   "uniform level is not a proper subset of the nest level")
            check_schema(self.schemas["interval_union"], doc)
            expect(back == A, "JSON round trip changed the set")

        return Op("build.interval_algebra", call, check)

    def _hausdorff(self, theta, n):
        model = self.models[theta]

        def call():
            params = dv.CantorParams(theta)
            A = dv.cantor_nest(params).level(n)
            U = dv.uniform_cantor(params, n)
            return dv.hausdorff_distance(U, A)

        def check(h):
            # each level component [c, c + m^n] holds one uniform component
            # inset by a * m^n on both sides, and U lies inside A
            want = model.fixed * model.m ** n
            expect(h == want, f"Hausdorff distance {h}, expected {want}")

        return Op("build.hausdorff", call, check)

    def _box_dimension(self, theta, n):
        scales = [4.0 ** -k for k in range(2, 10)]

        def call():
            level = dv.cantor_nest(dv.CantorParams(theta)).level(n)
            return dv.box_dimension(level, scales)

        def check(est):
            check_schema(self.schemas["dimension_estimate"], est.to_json())
            counts = [c for _, c in est.counts]
            expect(counts == sorted(counts) and counts[-1] <= 2 ** n,
                   f"box counts {counts}")
            expect(abs(est.estimate - float(theta)) <= 0.06,
                   f"box dimension {est.estimate} far from {float(theta)}")

        return Op("build.box_dimension", call, check)

    def _jarnik_rule(self, theta, n):
        def call():
            return dv.jarnik_family(dv.JarnikParams(theta)).rule(n)

        def check(pw):
            fam = dv.jarnik_family(dv.JarnikParams(theta))
            # summed exactly: the level-1 bump has integer knots, and its
            # integral comes back as the float 1.0
            levels = Fraction(fam.rule(1).integral(0, 1)) + sum(
                fam.increment(q).integral(0, 1) for q in range(2, n + 1))
            expect(pw.integral(0, 1) == levels,
                   "rule integral differs from the sum of level integrals")
            expect(0 <= pw.min_value() and pw.max_value() <= n,
                   "partial sum leaves [0, n]")

        return Op("build.rule_jarnik", call, check)

    def _liouville_rule(self, n):
        def call():
            return dv.liouville_family().rule(n)

        def check(pw):
            fam = dv.liouville_family()
            levels = math.fsum([fam.rule(1).integral(0, 1)] + [
                fam.increment(q).integral(0, 1) for q in range(2, n + 1)])
            expect(close(pw.integral(0, 1), levels),
                   "rule integral differs from the sum of level integrals")

        return Op("build.rule_liouville", call, check)

    def _tietze_rule(self, kind, theta, n):
        model = self.models[theta]

        def call():
            nest = dv.cantor_nest(dv.CantorParams(theta))
            return dv.tietze_family(nest).rule(n)

        def check(pw):
            v = pw.eval(model.fixed)
            expect(v == n + 1 if isinstance(theta, Fraction)
                   else abs(v - (n + 1)) <= 1e-9,
                   f"rule({n}) = {v} at the fixed point, expected {n + 1}")
            expect(len(pw.xs) >= 2 ** (n + 1), "too few knots")

        return Op(kind, call, check)

    def _monotone(self, theta, n_max):
        def call():
            fam = dv.tietze_family(dv.cantor_nest(dv.CantorParams(theta)))
            return dv.monotone_check(fam, n_max)

        def check(report):
            expect(report.ok and report.n_checked == n_max,
                   f"monotone check failed: {report}")

        return Op("build.monotone_check", call, check)

    def _past_q_max(self, theta, rng):
        """An index past q_max must be refused with ParameterError; today
        the Jarnik family builds every level up to q_max first."""
        index = self.Q_MAX + rng.randint(1, 20)

        def call():
            params = dv.JarnikParams(theta, q_max=self.Q_MAX)
            return dv.jarnik_family(params).rule(index)

        return Op("build.past_q_max", call, raises=dv.ParameterError)


class Means(Workload):
    """Quasiarithmetic means, power means and the maximality criteria."""

    COMPARE_EVERY = 200
    RATIO_EVERY = 10

    def round(self, rng, i):
        ops = [self._qa_mean(rng) for _ in range(16)]
        ops += [self._power_mean(rng) for _ in range(4)]
        ops.append(self._moran(rng))
        ops.append(self._arrow(rng))
        if i % self.RATIO_EVERY == 0:
            ops.append(self._ratio(rng))
        if i % self.COMPARE_EVERY == 0:
            ops.append(self._compare(rng))
        if self.defects:
            ops += self._overflow(rng)
        return ops

    @staticmethod
    def _tuple(rng, lo, hi):
        return [lo + (hi - lo) * rng.random()
                for _ in range(rng.randint(2, 64))]

    def _generator(self, rng):
        """(generator, tuple, closed-form mean) with steep rates included."""
        kind = rng.randrange(4)
        if kind == 0:
            p = rng.choice([-1, 1]) * rng.uniform(0.25, 60)
            values = self._tuple(rng, 1.0, 2.0)
            return dv.Power(p), values, power_mean_ref(p, values)
        if kind == 1:
            values = self._tuple(rng, 1.0, 2.0)
            return dv.Log(), values, power_mean_ref(0, values)
        c = rng.choice([-1, 1]) * rng.uniform(0.5, 200)
        values = self._tuple(rng, 0.0, 1.0)
        gen = dv.Exp(c)
        if kind == 3:   # the affine image generates the same mean
            gen = dv.AffineOf(gen, rng.uniform(-3, 3) or 1.0,
                              rng.uniform(-5, 5))
        return gen, values, exp_mean_ref(c, values)

    def _qa_mean(self, rng):
        gen, values, want = self._generator(rng)

        def check(got):
            expect(min(values) - 1e-12 <= got <= max(values) + 1e-12,
                   f"mean {got} outside [min, max]")
            expect(abs(got - want) <= 1e-9,
                   f"mean {got} differs from closed form {want}")

        return Op("means.qa_mean", lambda: dv.qa_mean(gen, values), check)

    def _power_mean(self, rng):
        p = rng.choice([0, rng.uniform(-20, 60)])
        values = self._tuple(rng, 1.0, 2.0)
        want = power_mean_ref(p, values)
        return Op("means.power_mean", lambda: dv.power_mean(p, values),
                  lambda got: expect(abs(got - want) <= 1e-9,
                                     f"power mean {got}, expected {want}"))

    def _moran(self, rng):
        ratios = [rng.uniform(0.05, 0.45) for _ in range(rng.randint(2, 6))]

        def check(s):
            expect(abs(math.fsum(c ** s for c in ratios) - 1) <= 1e-9,
                   f"sum c^s = {math.fsum(c ** s for c in ratios)} at {s}")

        return Op("means.moran", lambda: dv.moran_dimension(ratios), check)

    def _arrow(self, rng):
        n = rng.randint(2, 60)
        power = rng.random() < 0.5

        def call():
            fam = dv.power_rate_family() if power else dv.exp_rate_family()
            return dv.arrow_family(fam).rule(n)

        def check(pw):
            for x, y in zip(pw.xs, pw.ys):
                want = (n - 1) / x if power else float(n)
                expect(abs(y - want) <= 1e-12,
                       f"curvature ratio {y} at {x}, expected {want}")

        return Op("means.arrow", call, check)

    def _ratio(self, rng):
        n_max = rng.randint(20, 60)
        y = rng.uniform(0.2, 0.8)
        tol = 1e-4

        def call():
            return dv.ratio_report(dv.exp_rate_family(), 0.0, y, 1.0, n_max)

        def check(rep):
            for n, q in rep.quotients:
                # (e^{n x} - e^{n y}) / (e^{n z} - e^{n y}) at x=0, z=1
                want = ((math.exp(-n) - math.exp(n * (y - 1)))
                        / (1 - math.exp(n * (y - 1))))
                expect(abs(q - want) <= 1e-12, f"quotient {q} at n={n}")
            expect(rep.qa_maximal_indicator == (abs(rep.quotients[-1][1])
                                                < tol), "indicator")

        return Op("means.ratio_report", call, check)

    def _compare(self, rng):
        p, q = sorted(rng.sample([-3, -2, -1, 1, 2, 3, 4], 2))
        first = dv.Power(p) if rng.random() < 0.8 else dv.Log()
        second = dv.Power(q) if q > 0 else dv.Power(4)
        grid = [1 + k / 32 for k in range(33)]
        seed = rng.randrange(1 << 30)

        def call():
            return dv.comparability(first, second, grid, tuples=300,
                                    seed=seed)

        def check(verdict):
            # arrows (p - 1)/x and -1/x order like p - 1 and -1 on [1, 2]
            k1 = first.p - 1 if isinstance(first, dv.Power) else -1
            k2 = second.p - 1
            want = "==" if k1 == k2 else ("<=" if k1 < k2 else ">=")
            expect(verdict.relation == want,
                   f"relation {verdict.relation}, expected {want}")
            expect(verdict.mean_checks_agree, "tuple checks disagree")

        return Op("means.compare", call, check)

    def _overflow(self, rng):
        """Steep rates the library overflows on today; each tuple spans its
        whole interval, so every one of these overflows."""
        unit = [0.0, 1.0] + self._tuple(rng, 0.0, 1.0)
        above = [1.0, 2.0] + self._tuple(rng, 1.0, 2.0)
        exp_want = exp_mean_ref(-1000.0, unit)
        pow_want = power_mean_ref(2000.0, above)

        def near(want):
            return lambda got: expect(abs(got - want) <= 1e-9,
                                      f"mean {got}, expected {want}")

        return [
            Op("means.qa_mean_exp_-1000",
               lambda: dv.qa_mean(dv.Exp(-1000), unit), near(exp_want)),
            Op("means.qa_mean_power_2000",
               lambda: dv.qa_mean(dv.Power(2000), above), near(pow_want)),
            Op("means.power_mean_2000",
               lambda: dv.power_mean(2000, above), near(pow_want)),
        ]


class Mixed(Workload):
    """One round each of verdict, sweep and build, shuffled together.

    The host this benchmark was tuned on swings in speed by a third for
    tens of seconds at a time, so a timed run must be long to average the
    swings out, and the time limit on all runs allows only two such
    workloads.  This one puts the three mechanisms under one gate; the
    separate workloads stay for attributing a change to one of them."""

    COLLECT = True

    def __init__(self, root, defects=False):
        self.parts = [Verdict(root, defects), Sweep(root, defects),
                      Build(root, defects)]

    def round(self, rng, i):
        return [op for part in self.parts for op in part.round(rng, i)]


def power_mean_ref(p, values):
    """Power mean in the log domain (geometric mean at p = 0)."""
    logs = [math.log(v) for v in values]
    if p == 0:
        return math.exp(math.fsum(logs) / len(logs))
    top = max(p * t for t in logs)
    lse = top + math.log(math.fsum(math.exp(p * t - top) for t in logs))
    return math.exp((lse - math.log(len(values))) / p)


def exp_mean_ref(c, values):
    """(1/c) log mean e^(c x), by log-sum-exp."""
    top = max(c * v for v in values)
    lse = top + math.log(math.fsum(math.exp(c * v - top) for v in values))
    return (lse - math.log(len(values))) / c


WORKLOADS = {"mixed": Mixed, "verdict": Verdict, "sweep": Sweep,
             "build": Build, "means": Means}
