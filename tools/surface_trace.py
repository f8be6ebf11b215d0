"""Lines of the library that no workload, CLI document or acceptance test
reaches.

Under ``sys.settrace`` (and ``threading.settrace`` for any thread started
meanwhile) this runs one round each of the ``mixed`` and ``means``
benchmark workloads at seeds 1 and 2, every command of the CLI
bit-identity manifest (``tests/cli_digests.py``) and
``tests/test_acceptance.py``.  It then prints, for each module of
``src/divergia``, the executable lines of its functions (from ``co_lines``
of every function code object) that none of them ran.  A line listed here
is a candidate for a test or for removal.  Run it from anywhere with::

    python tools/surface_trace.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divergia"
for path in ("tests", "perfbench", "src"):
    sys.path.insert(0, str(ROOT / path))

import pytest  # noqa: E402

import cli_digests  # noqa: E402
from workloads import WORKLOADS, judge  # noqa: E402

PREFIX = str(PACKAGE) + "/"


def function_lines(source: Path) -> set:
    """Executable lines of every function code object in one module."""
    stack = [compile(source.read_text(), str(source), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None}
    return lines


class Reached:
    """Trace hooks that record the (file, line) pairs run in the package."""

    def __init__(self):
        self.lines = defaultdict(set)

    def call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PREFIX):
            return None
        self.lines[code.co_filename].add(code.co_firstlineno)
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self.line

    @contextlib.contextmanager
    def installed(self):
        threading.settrace(self.call)
        sys.settrace(self.call)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_workloads():
    """One round of each benchmark workload at seeds 1 and 2, judged."""
    failed = 0
    for name in ("mixed", "means"):
        workload = WORKLOADS[name](ROOT)
        for seed in (1, 2):
            for op in next(workload.rounds(seed)):
                exc = result = None
                try:
                    result = op.call()
                except Exception as error:  # judged below
                    exc = error
                failed += judge(op, result, exc) is not None
    return failed


def ranges(lines):
    """'3-5, 9' for the sorted lines [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main():
    reached = Reached()
    with reached.installed():
        failed = run_workloads()
        cli_digests.digests()
        with contextlib.redirect_stdout(io.StringIO()):
            code = pytest.main(["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests" / "test_acceptance.py")])
    print(f"workload operations failed: {failed}; acceptance exit: {code}")
    total = 0
    for source in sorted(PACKAGE.glob("*.py")):
        unreached = sorted(function_lines(source)
                           - reached.lines[str(source)])
        total += len(unreached)
        print(f"{source.name}: {len(unreached)} unreached"
              + (f": {ranges(unreached)}" if unreached else ""))
    print(f"total: {total} unreached lines")


if __name__ == "__main__":
    main()
