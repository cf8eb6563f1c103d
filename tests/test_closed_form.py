"""The closed-form layer against output frozen before its integer rewrite.

golden_closed_form.json was recorded at commit a772df5, when every sweep row
still called d_max and a Fraction-summing d_opt, and the state-dependent
exact averages looped over every bus state. It must never be regenerated
from the current code. It holds:

- sweep: byte count and sha256 of `buslab sweep` CSV and --json output;
- analyze: the verbatim text, --csv and --json output of 32 (k, b) cells;
- exact_average: for DBI k = 1..12 and uncoded k = 1..14, the exact mean
  and the length and sha256 of the per-state table of means, written one
  str(Fraction) per line. That table is gone from the API: every state has
  the same mean, so the test hashes the exact mean repeated per_state_count
  times, which checks that the recorded table was constant.

The per-row Fraction sum and the per-state loop are kept below as oracles
for the incremental sweep and the coset sums; the loop also checks that
every state's mean equals the exact mean.
"""
import hashlib
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buslab import analytics
from buslab import cli
from buslab.cli import main
from buslab.codecs import DbiCodec, Family, dbi_spec, uncoded_spec
from buslab.simulator import exact_average_distance

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_closed_form.json").read_text())
SPECS = {"dbi": dbi_spec, "uncoded": uncoded_spec}


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "entry", GOLDEN["sweep"], ids=lambda e: f"k{e['k']}-b{e['b_max']}-{e['format']}"
)
def test_sweep_reproduces_the_golden_output(capsys, tmp_path, entry):
    argv = ["sweep", "--k", str(entry["k"]), "--b", str(entry["b_max"]), f"--{entry['format']}"]
    out = _cli(capsys, *argv)
    assert len(out.encode()) == entry["bytes"]
    assert _sha256(out) == entry["sha256"]
    # the file sink streams the same blocks
    path = tmp_path / "sweep.out"
    assert _cli(capsys, *argv, "--out", str(path)) == ""
    raw = path.read_bytes()
    assert len(raw) == entry["bytes"]
    assert hashlib.sha256(raw).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("entry", GOLDEN["analyze"], ids=lambda e: f"k{e['k']}-b{e['b']}")
def test_analyze_reproduces_the_golden_output(capsys, entry):
    argv = ["analyze", "--k", str(entry["k"]), "--b", str(entry["b"])]
    assert _cli(capsys, *argv) == entry["text"]
    assert _cli(capsys, *argv, "--csv") == entry["csv"]
    assert _cli(capsys, *argv, "--json") == entry["json"]


@pytest.mark.parametrize(
    "entry", GOLDEN["exact_average"], ids=lambda e: f"{e['family']}-{e['k']}"
)
def test_exact_average_reproduces_the_golden_record(entry):
    spec = SPECS[entry["family"]](entry["k"])
    mean = exact_average_distance(spec).exact_mean
    assert type(mean) is Fraction and str(mean) == entry["exact_mean"]
    assert entry["per_state_count"] == 1 << spec.n
    assert _sha256(f"{mean}\n" * entry["per_state_count"]) == entry["per_state_sha256"]


def d_opt_by_fractions(k, b):
    """Oracle: d_max from its definition, and the per-row Fraction sum that
    sweep rows used to be built from."""
    n, denom = k + b, 1 << k
    dm, total = 0, 1
    while total < denom:
        dm += 1
        total += comb(n, dm)
    return dm, dm - sum(Fraction((dm - i) * comb(n, i), denom) for i in range(dm))


@pytest.mark.parametrize("k", range(1, 65))
def test_incremental_sweep_matches_the_per_b_closed_forms(k):
    # past b = 2^k - 1 - k for small k, where d_max has fallen to 1
    b_max = min((1 << k) + 4, 1500)
    rows = list(analytics.sweep(k, b_max))
    assert [row[0] for row in rows] == list(range(b_max + 1))
    # every row up to b = 300, so every step where d_max falls early on
    rnd = random.Random(k)
    sample = set(range(min(b_max, 300) + 1))
    sample |= {b_max, *rnd.sample(range(b_max + 1), min(40, b_max + 1))}
    for b in sorted(sample):
        _, dm, num = rows[b]
        assert (dm, Fraction(num, 1 << k)) == d_opt_by_fractions(k, b), (k, b)
        assert dm == analytics.d_max(k, b) and Fraction(num, 1 << k) == analytics.d_opt(k, b)


@pytest.mark.parametrize("k", [20, 33, 63, 64])
def test_sweep_matches_the_per_b_closed_forms_far_out_in_b(k):
    # the carried binomial and partial sums over 10^5 added lines: every row
    # where d_max falls and the row before it, so a fall one row early or
    # late shows, plus the last row and random rows
    b_max = 100_000
    rows = list(analytics.sweep(k, b_max))
    falls = [b for b in range(1, b_max + 1) if rows[b][1] != rows[b - 1][1]]
    assert len(falls) >= 3
    rnd = random.Random(k)
    sample = {b_max, *rnd.sample(range(b_max + 1), 40)}
    sample |= {b - d for b in falls for d in (0, 1)}
    for b in sorted(sample):
        _, dm, num = rows[b]
        assert (dm, Fraction(num, 1 << k)) == d_opt_by_fractions(k, b), (k, b)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 64), b=st.integers(0, 20_000))
def test_sweep_row_matches_the_one_cell_closed_form(k, b):
    *_, last = analytics.sweep(k, b)
    assert last == (b, *analytics._scaled_d_opt(k, b))


def test_sweep_d_max_falls_many_tiers_in_one_step():
    # one added line halves the k = 64 ball's radius: C(65, 0..32) sums to 2^64
    assert [dm for _, dm, _ in analytics.sweep(64, 2)] == [64, 32, 30]
    assert [dm for _, dm, _ in analytics.sweep(63, 2)] == [63, 32, 30]


@pytest.mark.parametrize("k", range(1, 64))
def test_dbi_mean_is_one_binomial(k):
    # the inherited d_opt(k, 1) against the (n + 1)-term sum and de Moivre's
    # one-binomial form of it, n C(n-1, floor(n/2)) less than n 2^(n-1)
    n = k + 1
    terms = sum(comb(n, w) * min(w, n - w) for w in range(n + 1))
    assert terms == (n << (n - 1)) - n * comb(n - 1, n // 2)
    assert DbiCodec.exact_mean(dbi_spec(k)) == Fraction(terms, 1 << n)


def test_analyze_json_matches_the_closed_forms(capsys):
    rnd = random.Random(14)
    for _ in range(200):
        k, b = rnd.randint(1, 64), rnd.randint(0, 5000)
        out = _cli(capsys, "analyze", "--k", str(k), "--b", str(b), "--json")
        got = json.loads(out)
        assert out == json.dumps(got) + "\n"  # the bytes json.dumps prints
        assert got["d_max"] == analytics.d_max(k, b)
        for key, want in (
            ("d_opt", analytics.d_opt(k, b)),
            ("energy_saving", analytics.energy_saving(k, b)),
            ("encoding_cost", analytics.encoding_cost(k, b)),
            ("d_min", analytics.d_min(k)),
        ):
            assert got[key] == str(want), (k, b, key)
            assert got[f"{key}_decimal"] == cli.fmt_dec(want), (k, b, key)


def test_sweep_rejects_its_range_before_the_first_row():
    rows = analytics.sweep(1, analytics.MAX_LINES)
    with pytest.raises(ValueError, match="exceeds the supported line count"):
        next(rows)
    with pytest.raises(ValueError):
        next(analytics.sweep(65, 0))
    assert next(analytics.sweep(1, analytics.MAX_LINES - 1)) == (0, 1, 1)  # d_opt(1, 0) = 1/2


def state_loop(spec):
    """Oracle: the per-state loop exact_average_distance used to run."""
    n, k = spec.n, spec.k
    pop = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    candidates = np.arange(1 << k, dtype=np.uint32)
    if spec.family is Family.DBI:
        candidates <<= np.uint32(1)
    per_state = []
    for s in range(1 << n):
        d0 = pop[candidates ^ np.uint32(s)].astype(np.int64)
        if spec.family is Family.DBI:
            d0 = np.minimum(d0, n - d0)
        per_state.append(int(d0.sum(dtype=np.int64)))
    return Fraction(sum(per_state), (1 << n) * (1 << k)), tuple(
        Fraction(sub, 1 << k) for sub in per_state
    )


@pytest.mark.parametrize(
    "spec", [dbi_spec(k) for k in range(1, 10)] + [uncoded_spec(k) for k in range(1, 11)],
    ids=lambda s: f"{s.family.value}-{s.k}",
)
def test_coset_sums_match_the_state_loop(spec):
    mean, per_state = state_loop(spec)
    assert exact_average_distance(spec).exact_mean == mean
    assert set(per_state) == {mean}


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    formats = (("text", ()), ("csv", ("--csv",)), ("json", ("--json",)))
    for entry in GOLDEN["analyze"][::4]:
        for key, flags in formats:
            argv = ["analyze", "--k", str(entry["k"]), "--b", str(entry["b"]), *flags]
            assert _cli(capsys, *argv) == entry[key]
    simulate = ["simulate", "dbi", "--k", "6", "--length", "5000", "--seed", "9", "--json"]
    assert json.loads(_cli(capsys, *simulate, "--jobs", "2"))["jobs"] == 2
    assert json.loads(_cli(capsys, *simulate))["jobs"] == 1
    sweeps = {(e["k"], e["b_max"], e["format"]): e["sha256"] for e in GOLDEN["sweep"]}
    for fmt in ("json", "csv", "json"):
        flags = ("--json",) if fmt == "json" else ()
        out = _cli(capsys, "sweep", "--k", "11", "--b", "2036", *flags)
        assert _sha256(out) == sweeps[11, 2036, fmt]
    assert cli._build_parser() is cli._build_parser()
