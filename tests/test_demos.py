"""Smoke test: every demo script runs to completion and prints its anchors.

Each demo runs in a fresh interpreter with a temporary working directory,
since 05 writes saving_k11.csv into the current directory.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo -> lines its stdout must contain verbatim
ANCHORS = {
    "01_closed_form_analysis.py": [
        "  d_opt       = 2921/1024 (exactly 2921/1024)",
        "   12     3    2921/1024   48.1357%",
        "anchors verified.",
    ],
    "02_optimal_codec_walkthrough.py": [
        "rank 0 of 3-subsets of 23 : (0, 1, 2)",
        "rank 5 of 2-subsets of 12 : (2, 3)",
        "rank 1770 (the last)      : (20, 21, 22)",
        "rank(unrank(1234))        : 1234",
        "tier sums for n=23: (1, 24, 277, 2048) -> d_max = 3",
        "  u=   1 -> 1 pulse(s) at (0,)",
        "  u=2047 -> 3 pulse(s) at (20, 21, 22)",
        "  u=2047: bus=11100000000000000000000 toggles=3 decode=2047",
        "corrupted word rejected: differential weight 4 exceeds d_max=3",
        "kept weight-2 patterns    : ['0011', '0101', '0110']",
        "rejected pattern 1100    : weight-2 rank 5 is outside the emitted codebook",
    ],
    "03_coset_encoders.py": [
        "  leader tiers     : 1/23/253/1771",
        "  mean transitions : 2921/1024 = 2.852539",
        "  coset/repetition(5): 25/16",
    ],
    "04_monte_carlo_validation.py": [
        "500k words vs 2921/1024 at 1%  : pass=True (dev 0.02787%)",
        "4-shard trace replays identically: True",
        "dbi(4) exhaustive mean over all states and inputs: 25/16",
    ],
    "05_saving_curve.py": [
        "wrote saving_k11.csv",
        "  b=   12: saving 0.481357  <- Golay-coset territory",
        "  floor (annotated row): 0.818271",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(ANCHORS)


@pytest.mark.parametrize("demo", sorted(ANCHORS))
def test_demo_runs_and_prints_its_anchors(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for anchor in ANCHORS[demo]:
        assert anchor in lines
    if demo == "05_saving_curve.py":
        rows = (tmp_path / "saving_k11.csv").read_text().splitlines()
        assert rows[0] == "b,d_max,d_opt,saving"
        assert rows[13] == "12,3,2.85253906,0.481356534"
