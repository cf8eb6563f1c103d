"""Tests of the benchmark itself: its oracle, its self-time arithmetic, and the
exact repeat of every count between two traced runs of one seed.

    python -m pytest perfbench -q      # about two minutes; not part of tier 1
"""
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import buslab
import oracle
import probe
import tracer
import worker
from workloads import GOLAY, dbi, hamming, optimal, ppm0, repetition, uncoded

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("g", [
    uncoded(6), dbi(1), dbi(4), dbi(7), ppm0(3), optimal(4, 11), optimal(6, 0),
    optimal(5, 3), GOLAY, hamming(3), hamming(4), repetition(5), repetition(6),
], ids=lambda g: g.label)
def test_oracle_mean_matches_exhaustive_average(g):
    mean, _ = oracle.mean_and_variance(g.counts())
    assert sum(g.counts().values()) == 1 << g.k
    assert mean == buslab.exact_average_distance(g.spec()).exact_mean


def test_oracle_anchors():
    assert oracle.d_opt(11, 12) == (3, Fraction(2921, 1024))
    assert oracle.d_opt(4, 11)[1] == Fraction(15, 16)
    for k, b in ((1, 0), (8, 4), (20, 100_000), (64, 0), (64, 4000)):
        assert oracle.d_opt(k, b) == (buslab.d_max(k, b), buslab.d_opt(k, b))


def test_trace_gate_catches_a_biased_histogram():
    counts = optimal(4, 11).counts()
    fair = [counts.get(w, 0) * 1000 for w in range(16)]
    words, total = sum(fair), sum(w * c for w, c in enumerate(fair))
    assert oracle.trace_failures(fair, total, words, counts) == []
    biased = list(fair)
    biased[0] -= 300
    biased[1] += 300
    assert oracle.trace_failures(biased, total + 300, words, counts)
    assert oracle.trace_failures(fair, total, words + 1, counts)


def test_trace_gate_allows_a_rare_step_weight_in_a_short_trace():
    counts = ppm0(16).counts()
    hist = [1, 999] + [0] * 65535  # one zero step in 1,000 words: p = 1.5%
    assert oracle.trace_failures(hist, 999, 1000, counts) == []
    assert 6 < oracle.z_limit(2_000_000, optimal(11, 12).counts()) < 7


def test_self_time_subtracts_the_time_children_cover(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    monkeypatch.setattr(tracer, "perf_counter_ns", lambda: next(ticks))
    t = tracer.Tracer("test")
    inner = t.wrap(lambda: None, "inner")

    def outer():
        inner()
        inner()

    t.call("outer", outer)
    # outer [0, 50); inner [10, 20) and [30, 40)
    assert t.self_ns() == {"outer": 30, "inner": 20}
    assert t.arrays()["parent"].tolist() == [-1, 0, 0]


def test_pool_thread_children_count_once():
    t = tracer.Tracer("test")
    sleep = t.wrap(time.sleep, "sleep")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(sleep, [0.2, 0.2]))

    t.call("parent", fan_out)
    a = t.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    parent_s = (a["end"][0] - a["start"][0]) / 1e9
    # the two sleeps overlap: the parent's self time is its duration minus
    # one sleep, not minus two
    assert 0 <= t.self_ns()["parent"] / 1e9 < parent_s - 0.15
    assert tracer.union_ns([(0, 10), (5, 20), (30, 40)]) == 30


def test_norm_rate_cancels_a_host_slowdown_that_hits_the_probe_too():
    def rec(kind, label, ns, probe_ns):
        return worker.Record(kind, label, "", 1000, ns, 1, 0, -1, None, probe_ns)

    calm = [rec("trace", "a", 10_000_000, 3e6), rec("trace", "b", 40_000_000, 3e6)]
    slow = [rec("trace", "a", 15_000_000, 4.5e6), rec("trace", "b", 60_000_000, 4.5e6)]
    one_off = [rec("cold", "a", 1, 3e6)]
    assert worker.median_rates(calm + one_off, per_probe=True) == {
        "trace/a": 300.0, "trace/b": 75.0}
    assert worker.median_rates(slow, per_probe=True) == worker.median_rates(
        calm, per_probe=True)
    assert worker.median_rates(slow, per_probe=False)["trace/a"] == pytest.approx(1000 / 0.015)
    assert worker.end_to_end(calm)["norm_rate_geomean"] == pytest.approx(150.0)
    assert probe.interpreter() > 0 and probe.memory() > 0


def traced_counts(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    counts = {k: v for k, v in result["per_layer"].items()
              if k.endswith((".calls", ".builds", ".words_drawn", ".spans"))}
    counts["attempted"] = result["attempted"]
    return counts


@pytest.mark.parametrize("workload", ["trace_small", "trace_wide", "roundtrip", "closed_form"])
def test_counts_repeat_exactly_for_a_seed(workload):
    first = traced_counts(workload, 5)
    assert first == traced_counts(workload, 5)
    assert first["trace.spans"] > 0
