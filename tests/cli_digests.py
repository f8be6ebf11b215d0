"""Bit-identity manifest of CLI documents.

``COMMANDS`` lists CLI invocations whose output must not move when the
library is refactored.  ``digest(argv)`` runs one in-process and hashes
its stdout, stderr and exit code with SHA-256; ``cli_digests.json`` next
to this file holds the expected digest of each command, and
``test_cli_digests.py`` recomputes them.  Float documents depend on
CPython's float formatting, so the manifest names the interpreter that
wrote it.

Rewrite the manifest on purpose, after a change that is meant to move an
output, with::

    PYTHONPATH=src python tests/cli_digests.py

It takes no arguments: with any, it prints its usage line and exits 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from divergia import CantorParams, cantor_nest
from divergia.cli import main

MANIFEST = Path(__file__).with_name("cli_digests.json")

#: the `dim --input` commands read these sets, written to scratch files:
#: a level of the exact nest at theta = 1/3 and of the float one at 0.4
SET = "{set}"
FLOAT_SET = "{float_set}"
SETS = {SET: Fraction(1, 3), FLOAT_SET: 0.4}

COMMANDS = [
    *(f"cantor --theta 1/{k} --levels {levels}{extra}"
      for k in (2, 3, 4, 5) for levels, extra in [
          (7, ""), (6, " --uniform"), (5, " --eps 1/9"),
          (4, " --format csv"), (5, " --backend float"),
          (4, " --uniform --backend float --format csv")]),
    "cantor --theta 1/3 --levels 0 --uniform",
    "cantor --theta 1/7 --eps 1/7 --levels 3 --uniform",
    "cantor --theta 0.4 --backend float --levels 4",
    *(f"check --family cantor-tietze --theta 1/{k} --M 10 --N 12"
      for k in (2, 3)),
    *(f"iset --family cantor-tietze --theta 1/{k} --M 4 --N 6"
      for k in (2, 3)),
    "iset --family cantor-tietze --theta 1/2 --M 4 --N 6 --format csv",
    "anydh --theta 1/3 --M 3 --N 6",
    # exit 2: level 13 of the float nest at theta = 0.3 is below float
    # resolution; exit 1: at theta = 0.312 it resolves, but it is not
    # inside the relative interior of level 12
    "anydh --theta 0.3 --N 14",
    "anydh --theta 0.312 --N 14",
    "cantor --theta 1/2 --levels -1 --uniform",
    f"dim --input {SET}",
    f"dim --input {SET} --scales 1/16,1/32,1/64,1/128",
    # float nests
    "cantor --theta 0.4 --uniform --backend float --levels 5",
    "cantor --theta 0.3 --uniform --levels 3",
    "cantor --theta 0.35 --backend float --levels 6",
    "check --family cantor-tietze --theta 0.4 --backend float --N 12",
    "iset --family cantor-tietze --theta 0.4 --M 4 --N 8",
    "anydh --theta 0.4 --backend float --M 3 --N 6",
    # the rest of the command line
    "jarnik --theta 1/2 --n 8",
    "jarnik --theta 0.3 --n 6",
    "liouville --n 8 --format csv",
    "check --family jarnik --theta 1/2 --M 10 --N 12 --q-max 20",
    "iset --family jarnik --theta 1/2 --M 4 --N 8 --q-max 20",
    "check --family liouville --M 10 --N 12 --q-max 20",
    "iset --family liouville --M 4 --N 8 --q-max 20",
    "qam mean --gen power:2 --tuple 1,2,4",
    "qam mean --gen exp:3 --tuple 1,2,4",
    "qam maximal --N 20",
    "qam compare --first power:1 --second log",
    "dim --moran 1/4,1/3",
    # exit 2: the float ratio underflows
    "cantor --theta 0.00013 --levels 1",
    f"dim --input {FLOAT_SET}",
    "cantor --theta 0.4 --backend float --levels 8 --format csv",
    # exit 2: the same resolution error
    "cantor --theta 0.3 --backend float --levels 13",
    "liouville --n 8",
    "qam mean --gen POWER:2 --tuple 1,2,4",
    # the CSV table of a family rule and of a box count
    "jarnik --theta 1/2 --n 4 --format csv",
    f"dim --input {SET} --format csv",
    # exit 2: an unknown family tag, and a family that needs --theta
    "check --family nosuch",
    "check --family jarnik",
    # the integer Tietze value and exact bumps at depth, and exact cuts
    # on the float knots of a sum
    "iset --family cantor-tietze --theta 1/4 --M 6 --N 30",
    "iset --family anydh --theta 1/2 --M 6 --N 20",
    "anydh --theta 1/3 --M 5.9 --N 30",
    "check --family cantor-tietze --theta 1/5 --M 8 --N 30",
    # exit 2: a family that takes no --theta, and a table asked of a
    # command that has none
    "check --family liouville --theta 7 --N 3",
    "dim --moran 1/4,1/3 --format csv",
    # the two largest documents: a deep float nest and a deep exact one
    "cantor --theta 0.4 --backend float --levels 13",
    "cantor --theta 1/3 --levels 11",
    # exit 2: a domain with lo >= hi
    "qam compare --first log --second power:1 --domain 1,1",
    "qam compare --first log --second power:1 --domain 2,1",
]


def digest(argv: str, set_paths: dict) -> str:
    """SHA-256 over the exit code, stdout and stderr of one command."""
    for name, path in set_paths.items():
        argv = argv.replace(name, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict:
    """The digest of every command in ``COMMANDS``, by command line."""
    with tempfile.TemporaryDirectory() as tmp:
        set_paths = {}
        for name, theta in SETS.items():
            path = set_paths[name] = str(Path(tmp) / f"{name[1:-1]}.json")
            level = cantor_nest(CantorParams(theta)).level(5)
            Path(path).write_text(json.dumps(level.to_json()))
        return {argv: digest(argv, set_paths) for argv in COMMANDS}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(f"usage: PYTHONPATH=src python {sys.argv[0]}", file=sys.stderr)
        sys.exit(2)
    manifest = {"python": platform.python_version(), "digests": digests()}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {MANIFEST}")
