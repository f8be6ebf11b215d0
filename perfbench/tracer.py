"""Traced run: attributes time and cost drivers to the divergia modules
from outside the library.

``Tracer.install`` wraps every public function and method of each layer
module in place, rebinds every name a divergia module imported, and patches
``fractions.Fraction`` to count constructions and float conversions.  Each
wrapped call pushes a frame so that self time (duration minus the time of
wrapped callees) is exact per function and per layer.  A span record is kept
only where a call crosses from one layer into another; a call from a layer
into itself is counted.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("intervals", "funcs", "ifs", "jarnik", "dimension", "maxfam",
          "qam", "cli", "scalars")

# metric keys for the functions the per-layer metrics name; every other
# wrapped callable is keyed "<layer>.<qualname>"
KEYS = {
    "funcs.PiecewiseLinear.add": "funcs.add",
    "funcs.PiecewiseLinear.eval": "funcs.eval",
    "funcs.PiecewiseLinear.__call__": "funcs.eval",
    "funcs.PiecewiseLinear.integral": "funcs.integral",
    "funcs.bump_from_sets": "funcs.bump",
    "funcs.bump_value_in_component": "funcs.bump",
    "ifs.CantorNest.component_and_children": "ifs.descent",
    "ifs.CantorNest.level": "ifs.level",
    "ifs.CantorNest.__call__": "ifs.level",
    "ifs.apply_ifs": "ifs.level",
    "ifs.uniform_cantor": "ifs.level",
    "jarnik.y_set": "jarnik.sets",
    "jarnik.z_set": "jarnik.sets",
    "jarnik._centered_set": "jarnik.sets",
    "dimension.box_count": "dimension.box_count",
    "dimension.moran_dimension": "dimension.moran",
    "maxfam.max_family_check": "maxfam.check",
    "maxfam.divergence_estimate": "maxfam.estimate",
    "maxfam.sum_family": "maxfam.sum",
    "qam.qa_mean": "qam.mean",
    "qam.power_mean": "qam.mean",
    "qam.ratio_condition": "qam.ratio",
    "qam.ratio_report": "qam.ratio",
    "qam.comparability": "qam.compare",
    "qam.arrow_family": "qam.arrow",
}

# private helpers wrapped because a named metric covers them
PRIVATE = {"jarnik._centered_set"}

# FunctionFamily methods are attributed to the function that built the
# family: (module, builder) -> (layer, key template over the method name)
BUILDERS = {
    ("divergia.funcs", "tietze_family"): ("funcs", "funcs.{}"),
    ("divergia.funcs", "constant_family"): ("funcs", "funcs.{}"),
    ("divergia.jarnik", "jarnik_family"): ("jarnik", "jarnik.{}"),
    ("divergia.jarnik", "liouville_family"): ("jarnik", "jarnik.{}"),
    ("divergia.maxfam", "sum_family"): ("maxfam", "maxfam.sum"),
    ("divergia.maxfam", "product_family"): ("maxfam", "maxfam.product"),
    ("divergia.maxfam", "anydh_family"): ("maxfam", "maxfam.anydh"),
    ("divergia.qam", "arrow_family"): ("qam", "qam.arrow"),
}
FAMILY_METHODS = ("rule", "value", "increment")

KEPT_DUNDERS = ("__init__", "__call__", "__post_init__")


class Tracer:
    def __init__(self, span_cap=100_000):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.count = Counter()
        self.peak = Counter()
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self._stack = []
        self._next_span = 0
        self._op = 0
        self._undo = []
        self._builder = weakref.WeakKeyDictionary()

    # -- per-operation root span -------------------------------------------

    def begin(self, kind):
        self._op += 1
        self._next_span += 1
        self._stack.append(["bench", kind, time.perf_counter(), 0.0,
                            self._next_span])
        self.active = True

    def end(self):
        self.active = False
        layer, kind, start, _, span = self._stack.pop()
        self._record(span, 0, kind, start, time.perf_counter())

    def _record(self, span, parent, key, start, end):
        if len(self.spans) < self.span_cap:
            self.spans.append((self._op, span, parent, key, start, end))
        else:
            self.dropped += 1

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, layer, key, resolve=None, pre=None, post=None):
        tracer, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            lay, k = resolve(args) if resolve else (layer, key)
            token = pre(args) if pre else None
            parent = stack[-1]
            boundary = parent[0] != lay
            if boundary:
                tracer._next_span += 1
                span = tracer._next_span
            else:
                span = parent[4]
            frame = [lay, k, clock(), 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if boundary:
                    tracer.errors[lay] += 1
                    if isinstance(exc, OverflowError):
                        tracer.count[f"{lay}.overflow"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                parent[3] += duration
                tracer.calls[k] += 1
                tracer.self_s[k] += own
                tracer.self_s[lay] += own
                if boundary:
                    tracer.calls[lay] += 1
                    tracer._record(span, parent[4], k, frame[2], end)
            if post:
                post(token, result, args)
            return result

        return traced

    def install(self):
        """Wrap the layer modules in place; ``uninstall`` undoes it."""
        import divergia
        modules = [sys.modules[f"divergia.{layer}"] for layer in LAYERS]
        hooks = self._hooks()
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and (
                        not name.startswith("_") or qual in PRIVATE):
                    replaced[id(obj)] = self._wrap(
                        obj, layer, KEYS.get(qual, qual),
                        **hooks.get(qual, {}))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, hooks)
        for mod in [divergia] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                    self._undo.append((mod, name, obj))
        self._patch_fraction()

    def _wrap_class(self, cls, layer, hooks):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in KEPT_DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            key = KEYS.get(qual, qual)
            extra = hooks.get(qual, {})
            if cls.__name__ == "FunctionFamily" and name in FAMILY_METHODS:
                extra = dict(extra, resolve=self._family_resolver(name))
            if isinstance(attr, property):
                new = property(self._wrap(attr.fget, layer, key, **extra),
                               attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrap(attr.__func__, layer, key,
                                            **extra))
            elif inspect.isfunction(attr):
                new = self._wrap(attr, layer, key, **extra)
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, attr))

    def _family_resolver(self, method):
        builders = self._builder

        def resolve(args):
            layer, template = builders.get(args[0], ("funcs", "funcs.{}"))
            return layer, template.format(method)

        return resolve

    def _patch_fraction(self):
        count = self.count
        tracer = self
        new, from_float = Fraction.__new__, Fraction.from_float.__func__

        def counted_new(cls, *args, **kwargs):
            if tracer.active:
                count["scalars.fraction_new"] += 1
            return new(cls, *args, **kwargs)

        def counted_from_float(cls, f):
            if tracer.active:
                count["scalars.from_float"] += 1
            return from_float(cls, f)

        self._undo.append((Fraction, "__new__", Fraction.__dict__["__new__"]))
        self._undo.append((Fraction, "from_float",
                           Fraction.__dict__["from_float"]))
        Fraction.__new__ = staticmethod(counted_new)
        Fraction.from_float = classmethod(counted_from_float)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- cost-driver hooks -----------------------------------------------

    def _hooks(self):
        count, peak, builders = self.count, self.peak, self._builder

        def components_out(_, result, args):
            count["intervals.components_out"] += len(args[0].components)

        def add_knots(_, result, args):
            count["funcs.add.knots_out"] += len(result.xs)

        def bump_knots(_, result, args):
            count["funcs.bump.knots_out"] += len(result.xs)

        def family_builder(args):
            caller = sys._getframe(2)
            site = (caller.f_globals.get("__name__"), caller.f_code.co_name)
            if site in BUILDERS:
                builders[args[0]] = BUILDERS[site]

        def rule_memo(args):
            fam, n = args[0], args[1]
            count["funcs.rule.requests"] += 1
            hit = n in fam._memo
            count["funcs.rule.memo_hits"] += hit
            return hit

        def rule_knots(hit, result, args):
            if not hit and builders.get(args[0], ("",))[0] == "jarnik":
                count["jarnik.rule.knots_out"] += len(result.xs)

        def descent(args):
            count["ifs.descent.levels"] += args[1]
            peak["ifs.deepest_level"] = max(peak["ifs.deepest_level"],
                                            args[1])

        def level_index(args):
            peak["ifs.deepest_level"] = max(peak["ifs.deepest_level"],
                                            args[1])

        def level_components(_, result, args):
            count["ifs.level.components_out"] += len(result.components)

        def boxes(_, result, args):
            count["dimension.boxes"] += result

        def check_report(_, report, args):
            rows = report.rows
            deepest = max(r.integrals[-1][0] for r in rows if r.integrals)
            peak["maxfam.check.deepest_n"] = max(
                peak["maxfam.check.deepest_n"], deepest)
            count["maxfam.check.rows"] += len(rows)
            count["maxfam.check.settled_rows"] += sum(
                r.reached or r.certified_not_reached for r in rows)

        def estimate_points(_, est, args):
            count["maxfam.estimate.points"] += len(est.points)

        def cli_bytes(_, result, args):
            count["cli.bytes_out"] += len(sys.stdout.getvalue().encode())

        return {
            "intervals.IntervalUnion.__init__": {"post": components_out},
            "funcs.PiecewiseLinear.add": {"post": add_knots},
            "funcs.bump_from_sets": {"post": bump_knots},
            "funcs.FunctionFamily.__init__": {"pre": family_builder},
            "funcs.FunctionFamily.rule": {"pre": rule_memo,
                                          "post": rule_knots},
            "ifs.CantorNest.component_and_children": {"pre": descent},
            "ifs.CantorNest.level": {"pre": level_index},
            "ifs.uniform_cantor": {"pre": level_index},
            "ifs.apply_ifs": {"post": level_components},
            "dimension.box_count": {"post": boxes},
            "maxfam.max_family_check": {"post": check_report},
            "maxfam.divergence_estimate": {"post": estimate_points},
            "cli.main": {"post": cli_bytes},
        }

    # -- results ---------------------------------------------------------

    def metrics(self):
        """The per-layer metrics, as name -> (value, unit)."""
        c, s, n, p = self.count, self.self_s, self.calls, self.peak
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (n[layer], "count")
            out[f"{layer}.self_s"] = (s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")

        def timed(key, calls=True):
            if calls:
                out[f"{key}.calls"] = (n[key], "count")
            out[f"{key}.self_s"] = (s[key], "s")

        out["intervals.components_out"] = (c["intervals.components_out"],
                                           "count")
        timed("funcs.add")
        out["funcs.add.knots_out"] = (c["funcs.add.knots_out"], "count")
        timed("funcs.eval")
        timed("funcs.integral")
        timed("funcs.bump")
        out["funcs.bump.knots_out"] = (c["funcs.bump.knots_out"], "count")
        timed("funcs.value")
        out["funcs.rule.memo_hit_ratio"] = (
            ratio(c["funcs.rule.memo_hits"], c["funcs.rule.requests"]),
            "ratio")
        timed("ifs.descent")
        out["ifs.descent.levels"] = (c["ifs.descent.levels"], "count")
        timed("ifs.level", calls=False)
        out["ifs.level.components_out"] = (c["ifs.level.components_out"],
                                           "count")
        out["ifs.deepest_level"] = (p["ifs.deepest_level"], "index")
        timed("jarnik.value", calls=False)
        timed("jarnik.rule", calls=False)
        out["jarnik.rule.knots_out"] = (c["jarnik.rule.knots_out"], "count")
        timed("jarnik.sets", calls=False)
        timed("jarnik.increment", calls=False)
        out["dimension.box_count.calls"] = (n["dimension.box_count"],
                                            "count")
        out["dimension.boxes"] = (c["dimension.boxes"], "count")
        out["dimension.moran.calls"] = (n["dimension.moran"], "count")
        timed("maxfam.check", calls=False)
        out["maxfam.check.deepest_n"] = (p["maxfam.check.deepest_n"],
                                         "index")
        out["maxfam.check.certified_ratio"] = (
            ratio(c["maxfam.check.settled_rows"], c["maxfam.check.rows"]),
            "ratio")
        timed("maxfam.sum", calls=False)
        timed("maxfam.estimate", calls=False)
        out["maxfam.estimate.points"] = (c["maxfam.estimate.points"],
                                         "count")
        for part in ("mean", "ratio", "compare", "arrow"):
            timed(f"qam.{part}", calls=False)
        out["qam.overflow"] = (c["qam.overflow"], "count")
        out["cli.bytes_out"] = (c["cli.bytes_out"], "bytes")
        out["scalars.from_float"] = (c["scalars.from_float"], "count")
        out["scalars.fraction_new"] = (c["scalars.fraction_new"], "count")
        out["trace.ops"] = (self._op, "count")
        out["trace.spans"] = (len(self.spans) + self.dropped, "count")
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, span, parent, key, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": span,
                                     "parent": parent, "name": key,
                                     "start": start, "end": end}) + "\n")


def ratio(num, den):
    return num / den if den else 0.0
