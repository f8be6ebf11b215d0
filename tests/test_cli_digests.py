import json
import platform

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
