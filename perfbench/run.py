"""divergia benchmark entry point.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` of them) in fresh interpreters started by
``worker.py`` and prints, as the last line of stdout, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run, plus the tracing overhead.

With ``--defects 1`` the rounds also hold the known-defect operation
classes, whose failures are expected; the metrics then add ``fail_ratio``.

Set-up time is the median over several interpreters of the time from spawn
to the READY line: interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("mixed", "verdict", "sweep", "build", "means")
SETUP_SAMPLES = 10       # set-up-only interpreters, besides the measured one
DEADLINE_S = 170         # a run must end within 180 s

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    setup = time.perf_counter() - start
    if line != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not start: {line!r}")
    return proc, setup


def finish(proc, deadline):
    """Wait for the worker to end; its last stdout line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def run_workload(name, seed, seconds, trace, defects, deadline):
    common = ["--workload", name, "--seed", str(seed),
              "--defects", str(defects)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup = spawn(common + ["--setup-only"], deadline)
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = spawn(common + ["--seconds", str(seconds),
                                  "--trace", str(trace)], deadline)
    setups.append(setup)
    out = json.loads(finish(proc, deadline))
    out["setup_s"] = statistics.median(setups)
    out["setup_samples"] = len(setups)
    return out


def report(name, seed, trace, defects, out):
    """Human-readable lines, then the result object."""
    correct = not out["unexpected"]
    print(f"workload {name}  seed {seed}  rounds {out['rounds']}  "
          f"ops {out['attempted']}  setup samples {out['setup_samples']}")
    if trace:
        metrics = out["layers"]
    else:
        metrics = {"setup_s": {"value": out["setup_s"], "unit": "s"}}
        for key, unit in END_TO_END + ((("fail_ratio", "ratio"),)
                                       if defects else ()):
            metrics[key] = {"value": out[key], "unit": unit}
    for key, m in metrics.items():
        note = ""
        if key == "op_tail_ms":
            note = (f"  (p{out['op_tail_pct']:.2f} of {out['attempted']} "
                    f"samples)")
        elif key == "op_p50_ms":
            note = f"  ({out['attempted']} samples)"
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}{note}")
    for kind, f in out["failures"].items():
        label = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed {kind}: {f['failed']} of {f['of']} ({label})")
    for line in out["unexpected"]:
        print(f"  ! {line}")
    return {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", type=int, choices=(0, 1), default=0,
                        help="add the known-defect operation classes")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/divergia/__init__.py", "schemas")
               if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark needs {', '.join(missing)} in {ROOT}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.time() + DEADLINE_S
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace,
                               args.defects, deadline)
        except BenchError as error:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        result = report(name, args.seed, args.trace, args.defects, out)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
