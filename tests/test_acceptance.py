"""Acceptance gate: one test per release criterion.

Each test prints a PASS line with its runtime (visible under pytest -s) and
enforces both the numeric tolerance and the runtime budget of its criterion.
"""
import json
import time
from fractions import Fraction

from buslab import analytics
from buslab.cli import main
from buslab.codecs import (
    BusState,
    coset_spec,
    dbi_spec,
    encode,
    make_codec,
    make_repetition,
    optimal_spec,
)
from buslab.combinatorics import Word
from buslab.verify import check_coset, check_rank_bijection, check_roundtrip

GRID = [
    (k, b)
    for k in range(1, 11)
    for b in range(0, 9)
    if k + b <= 18
]


def report(num, detail, start, budget_s):
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {num}: {detail} [{elapsed:.2f}s < {budget_s}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def analyze_json(k, b, capsys):
    assert main(["analyze", "--k", str(k), "--b", str(b), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_c01_golay_scheme_exact_anchor(capsys):
    start = time.perf_counter()
    data = analyze_json(11, 12, capsys)
    assert data["d_opt"] == "2921/1024"
    assert analytics.d_opt(11, 12) == Fraction(2921, 1024)
    ratio = analytics.d_opt(11, 12) / analytics.d_unc(11)
    assert round(float(ratio), 4) == 0.5186
    assert round(float(data["transition_ratio_decimal"]), 4) == 0.5186
    report(1, "analyze 11+12 reports d_opt 2921/1024, ratio 0.5186", start, 1)


def test_c02_maximum_redundancy_exact_anchor(capsys):
    start = time.perf_counter()
    assert analytics.d_min(4) == Fraction(15, 16)
    assert analytics.d_min(4) / analytics.d_unc(4) == Fraction(15, 32)
    assert analytics.d_opt(4, 11) == analytics.d_min(4)
    data = analyze_json(4, 11, capsys)
    assert data["d_opt"] == "15/16" and data["transition_ratio"] == "15/32"
    report(2, "d_min(4) = 15/16, ratio 15/32, d_opt(4,11) = d_min(4)", start, 1)


def test_c03_saving_curve_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--k", "11", "--b", "2036", "--out", str(out)]) == 0
    rows = {}
    lines = out.read_text().splitlines()
    assert lines[0] == "b,d_max,d_opt,saving"
    for line in lines[1:-1]:
        b, _, _, saving = line.split(",")
        rows[int(b)] = float(saving)
    targets = {1: 0.155184659, 12: 0.481356534, 2036: 0.818270597}
    for b, expected in targets.items():
        assert abs(rows[b] - expected) < 1e-9, (b, rows[b])
        assert abs(float(analytics.energy_saving(11, b)) - expected) < 1e-9
    # the curve is flat at the single-pulse floor from b = 2036 on
    assert analytics.energy_saving(11, 2036) == 1 - analytics.d_min(11) / analytics.d_unc(11)
    report(3, "sweep k=11 matches the curve at b = 1, 12, 2036", start, 1)


def test_c04_codebook_optimality_oracle():
    start = time.perf_counter()
    for k, b in GRID:
        n = k + b
        closed = analytics.d_opt(k, b)
        codec = make_codec(optimal_spec(k, b))
        codec_mean = Fraction(
            sum(codec.differential_int(u).bit_count() for u in range(1 << k)), 1 << k
        )
        greedy_weights = sorted(v.bit_count() for v in range(1 << n))
        greedy_mean = Fraction(sum(greedy_weights[: 1 << k]), 1 << k)
        assert closed == codec_mean == greedy_mean, (k, b)
    report(4, f"codec mean == closed form == greedy oracle on {len(GRID)} cells", start, 30)


def test_c05_round_trip_bijection():
    start = time.perf_counter()
    result = check_roundtrip()
    assert result.passed, result.detail
    report(5, result.detail, start, 60)


def test_c06_rank_unrank_bijection():
    start = time.perf_counter()
    result = check_rank_bijection()
    assert result.passed, result.detail
    report(6, result.detail, start, 10)


def test_c07_coset_correctness():
    start = time.perf_counter()
    result = check_coset()
    assert result.passed, result.detail
    report(7, "hamming/golay leader tables and golay d_min = 7", start, 30)


def test_c08_dbi_repetition_equivalence():
    start = time.perf_counter()
    checked = 0
    for k in range(1, 9):
        dbi = make_codec(dbi_spec(k))
        rep = make_codec(coset_spec(make_repetition(k + 1)))
        mask = (1 << k) - 1
        for state in range(1 << (k + 1)):
            # the coset codec carries info in the differential, so the
            # matching input is the DBI info XOR the info already on the wires
            wire_info = (state >> 1) ^ (mask if state & 1 else 0)
            for u in range(1 << k):
                x = dbi.encode_int(state, u)
                t_dbi = (x ^ state).bit_count()
                t_coset = rep.differential_int(u ^ wire_info).bit_count()
                assert t_dbi == t_coset, (k, state, u)
                checked += 1
    report(8, f"DBI == repetition coset per-step counts on {checked} (state, u) pairs", start, 30)


def test_c09_monte_carlo_consistency(capsys):
    start = time.perf_counter()
    ref = float(Fraction(2921, 1024))
    for seed in (1, 2, 3):
        assert main([
            "simulate", "optimal", "--k", "11", "--b", "12",
            "--length", "1000000", "--seed", str(seed), "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        dev = abs(data["mean_transitions"] - ref) / ref
        assert dev < 0.01, (seed, data["mean_transitions"])
    assert main([
        "simulate", "uncoded", "--k", "11", "--length", "1000000", "--seed", "1", "--json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["mean_transitions"] - 5.5) / 5.5 < 0.01
    report(9, "1e6-word traces within 1% of 2921/1024 (3 seeds) and 11/2", start, 60)


def test_c10_clock_claim(capsys):
    start = time.perf_counter()
    # one clock per pulse: from the all-zero bus, u's word toggles its pulse
    # lines, where the bit-serial baseline clocks all 23
    spec = optimal_spec(11, 12)
    zero = BusState(Word.zero(23))
    clocks = [encode(spec, zero, Word(u, 11)).weight() for u in range(1 << 11)]
    assert max(clocks) == 3
    assert Fraction(sum(clocks), 1 << 11) == Fraction(2921, 1024)
    # a trace's modulator clocks are its transitions, n per word for the baseline
    length = 100_000
    assert main([
        "simulate", "optimal", "--k", "11", "--b", "12",
        "--length", str(length), "--seed", "1", "--json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["clock_cycles"] == data["total_transitions"]
    assert data["baseline_clock_cycles"] == 23 * length
    assert len(data["weight_histogram"]) == 4  # d_max + 1
    report(10, "pulse clocks = weight, max 3 vs baseline 23, mean 2921/1024", start, 5)


def test_c11_cost_formula():
    start = time.perf_counter()
    for k, b in GRID:
        n = k + b
        codec = make_codec(optimal_spec(k, b))
        pulses = [codec.differential_int(u).bit_count() for u in range(1 << k)]
        # the modulator word by word: d_max + 1 comparisons against the tier
        # sums pick the pulse count m, the word's weight (the heaviest is
        # d_max), then each pulse takes n comparisons and 2 add/subtracts
        d_max = max(pulses)
        comparisons = sum(d_max + 1 + n * m for m in pulses)
        additions = sum(2 * m for m in pulses)
        assert codec.trace_counters(sum(pulses), 1 << k) == (
            sum(pulses), comparisons, additions
        ), (k, b)
        # additions carry comparison weight in the average cost
        assert Fraction(comparisons + additions, 1 << k) == analytics.encoding_cost(k, b), (k, b)
    report(11, f"per-word cost average == (n+2)*d_opt + d_max + 1 on {len(GRID)} cells", start, 30)
