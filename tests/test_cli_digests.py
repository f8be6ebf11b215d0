import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import cli_digests
from cli_digests import COMMANDS, MANIFEST, digests


def test_cli_documents_are_bit_identical():
    manifest = json.loads(MANIFEST.read_text())
    want = manifest["digests"]
    assert sorted(want) == sorted(COMMANDS), \
        "manifest is stale; rewrite it with tests/cli_digests.py"
    got = digests()
    moved = [argv for argv in COMMANDS if got[argv] != want[argv]]
    assert not moved, (
        f"outputs moved: {moved} (manifest written by Python "
        f"{manifest['python']}, running {platform.python_version()})")


def test_rewriting_script_refuses_arguments():
    # any argument, --help included, gets the usage line and exit 2, and
    # the manifest is not rewritten
    src = str(Path(cli_digests.__file__).resolve().parent.parent / "src")
    before = MANIFEST.read_bytes()
    done = subprocess.run(
        [sys.executable, cli_digests.__file__, "--help"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2 and not done.stdout
    assert done.stderr.startswith("usage: ")
    assert MANIFEST.read_bytes() == before
