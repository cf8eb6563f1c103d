"""The CI workflow's output pins, run as tier-1 tests: the same commands and
the same expected values as .github/workflows/tests.yml, so a change that
moves one of these outputs changes this file and the workflow together."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_LINE_BUDGET = 1911

# (command arguments, sha256 of its stdout as the workflow hashes it)
PINS = {
    "verify-all": (
        ("verify", "all"),
        "c5b2b0b2971927849efc52155e28776650d79080ead4d1aa3510fda54bd00eef",
    ),
    "coset-cap-csv": (
        ("simulate", "coset", "--k", "16", "--b", "65519", "--length", "100000", "--csv"),
        "4035fd6c66a3b370b0c1a61124d32e95f995a8f68ec2cdb05bd223859e8b957a",
    ),
    "optimal-12-12-codebook": (
        ("codebook", "optimal", "--k", "12", "--b", "12"),
        "fc6d143ec6939391a65b5ac9106d55eedb5ff0b64ae1b0294e7096b2b51e7c43",
    ),
}


def test_source_line_budget():
    # newlines, as `cat src/buslab/*.py | wc -l` counts them
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "buslab").glob("*.py"))
    assert lines <= SRC_LINE_BUDGET


@pytest.mark.parametrize("name", PINS)
def test_cli_output_hash(name):
    args, want = PINS[name]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "buslab", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    # "$(...)" drops the trailing newlines and printf '%s\n' puts one back
    out = proc.stdout.rstrip(b"\n") + b"\n"
    assert hashlib.sha256(out).hexdigest() == want
