"""One workload in a fresh interpreter: set up, print READY, then run the
closed loop and print one JSON summary line.

Started by ``run.py``; the time from its spawn to the READY line is one
set-up sample.  With ``--setup-only`` it exits after READY.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import KNOWN_DEFECTS, WORKLOADS, judge  # noqa: E402


class Loop:
    """Closed loop with one client: the next operation is issued when the
    previous one returns.  Runs whole rounds until ``seconds`` have
    passed; only the operation call is timed, checks run between ops."""

    def __init__(self, workload, seed, tracer=None):
        self.rounds = workload.rounds(seed)
        self.collect = workload.COLLECT
        self.tracer = tracer
        self.latencies = array.array("d")   # 8 bytes a sample, not an object
        self.failed = Counter()
        self.kinds = Counter()
        self.unexpected = []
        self.n_rounds = 0
        self.peak_rss_mb = 0.0

    def run(self, seconds=None, rounds=None):
        start = time.perf_counter()
        while True:
            for op in next(self.rounds):
                self.execute(op)
            self.n_rounds += 1
            if rounds is not None and self.n_rounds >= rounds:
                break
            if seconds is not None and \
                    time.perf_counter() - start >= seconds:
                break
        # read before the statistics, whose sort grows with the op count
        self.peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def execute(self, op):
        tracer = self.tracer
        if tracer:
            tracer.begin(op.kind)
        exc = result = None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as error:  # judged below, like a wrong result
            exc = error
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end()
        self.latencies.append(elapsed)
        self.kinds[op.kind] += 1
        reason = judge(op, result, exc)
        if self.collect:
            exc = result = None
            gc.collect()
        if reason is not None:
            self.failed[op.kind] += 1
            if op.kind not in KNOWN_DEFECTS and len(self.unexpected) < 20:
                self.unexpected.append(f"{op.kind}: {reason}")

    def busy_s(self):
        return sum(self.latencies)


def failures(failed, kinds):
    return {kind: {"failed": n, "of": kinds[kind],
                   "known_defect": kind in KNOWN_DEFECTS}
            for kind, n in sorted(failed.items())}


def summary(loop):
    lat = sorted(loop.latencies)
    n = len(lat)
    beyond = min(10, n - 1)
    return {
        "attempted": n,
        "failed": sum(loop.failed.values()),
        "failures": failures(loop.failed, loop.kinds),
        "unexpected": loop.unexpected,
        "rounds": loop.n_rounds,
        "ops_per_s": n / loop.busy_s(),
        "op_p50_ms": statistics.median(lat) * 1e3,
        # the highest percentile with (at least) ten samples beyond it
        "op_tail_ms": lat[n - 1 - beyond] * 1e3,
        "op_tail_pct": 100.0 * (1 - beyond / n),
        "fail_ratio": sum(loop.failed.values()) / n,
        "peak_rss_mb": loop.peak_rss_mb,
    }


def traced(workload, seed, seconds, spans_path):
    """Untraced rounds for half the time, then the same rounds traced."""
    from tracer import Tracer
    plain = Loop(workload, seed)
    plain.run(seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(workload, seed, tracer)
        loop.run(rounds=plain.n_rounds)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    overhead = loop.busy_s() - plain.busy_s()
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain.busy_s(), "ratio")
    tracer.write_spans(spans_path)
    out = summary(loop)
    out["failures"] = failures(plain.failed + loop.failed,
                               plain.kinds + loop.kinds)
    out["unexpected"] = plain.unexpected + loop.unexpected
    out["attempted"] += len(plain.latencies)
    out["failed"] += sum(plain.failed.values())
    out["layers"] = {k: {"value": v, "unit": u}
                     for k, (v, u) in metrics.items()}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](ROOT, defects=bool(args.defects))
    print("READY", flush=True)
    if args.setup_only:
        return
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        out = traced(workload, args.seed, args.seconds, spans)
    else:
        loop = Loop(workload, args.seed)
        loop.run(seconds=args.seconds)
        out = summary(loop)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
