import _thread
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from buslab import analytics, codecs, simulator
from buslab.cli import main
from buslab.codecs import (
    UncodedCodec,
    coset_spec,
    dbi_spec,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    optimal_spec,
    ppm0_spec,
    uncoded_spec,
)
from buslab.combinatorics import Word
from buslab.simulator import (
    TraceConfig,
    _draw,
    _part_histogram,
    convergence_check,
    exact_average_distance,
    run_trace,
)


class TestRunTrace:
    def test_deterministic_for_fixed_seed(self):
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=20_000, seed=7)
        a = run_trace(cfg)
        b = run_trace(cfg)
        assert a == b

    def test_sharded_merge_equals_serial(self):
        # replay the documented shard contract: lengths split by divmod,
        # one spawned child seed per shard, each drawn as one run from the
        # all-zero bus, histograms added in shard order
        cfg = TraceConfig(spec=optimal_spec(8, 8), trace_length=30_002, seed=3, shards=4)
        codec = make_codec(cfg.spec)
        seeds = np.random.SeedSequence(3).spawn(4)
        starts = [0, 7_501, 15_002, 22_502, 30_002]
        parts = [_part_histogram(codec, 3, starts, a, b, simulator._CHUNK)
                 for a, b in zip(starts, starts[1:])]
        for sq, part, a, b in zip(seeds, parts, starts, starts[1:]):
            words = _integers(sq, 8, b - a)
            assert np.array_equal(part, codec.step_histogram(words, 0))
        assert len({len(p) for p in parts}) == 1
        hist = parts[0] + parts[1] + parts[2] + parts[3]
        stats = run_trace(cfg)
        assert stats.weight_histogram == hist.tolist()
        pulses = int(hist @ np.arange(len(hist)))
        assert stats.total_transitions == pulses
        assert stats.words_sent == starts[-1] == 30_002
        # the optimal modulator's counters, applied once to the summed trace
        assert (stats.clock_cycles_total, stats.comparisons_total, stats.additions_total) == (
            pulses, 16 * pulses + (codec.d_max + 1) * 30_002, 2 * pulses
        )

    @pytest.mark.parametrize(
        "spec", [uncoded_spec(16), optimal_spec(11, 12), optimal_spec(40, 24), uncoded_spec(64)],
        ids=lambda s: f"{s.family.value}-{s.k}",
    )
    def test_word_ranges_add_up_to_the_whole_trace(self, spec):
        # shards of 3,334, 3,334 and 3,333 words; the ranges start at shard 0's
        # word 3,000 and shard 2's word 332, and the last holds 3,001 words
        codec, starts = make_codec(spec), [0, 3_334, 6_668, 10_001]
        whole = _part_histogram(codec, 5, starts, 0, 10_001, 1 << 8)
        parts = [_part_histogram(codec, 5, starts, lo, hi, 1 << 8)
                 for lo, hi in ((0, 3_000), (3_000, 7_000), (7_000, 10_001))]
        assert np.array_equal(parts[0] + parts[1] + parts[2], whole)
        assert whole.tolist() == run_trace(TraceConfig(spec, 10_001, 5, 3)).weight_histogram

    def test_each_shard_is_seeded_as_its_run_is_drawn(self, monkeypatch):
        events, seed_sequence, draw = [], np.random.SeedSequence, simulator._draw

        def seeding(entropy, spawn_key=()):
            events.append(("seed", *spawn_key))
            return seed_sequence(entropy, spawn_key=spawn_key)

        def drawing(bitgen, k, size):
            events.append(("draw",))
            return draw(bitgen, k, size)

        monkeypatch.setattr(np.random, "SeedSequence", seeding)
        monkeypatch.setattr(simulator, "_draw", drawing)
        run_trace(TraceConfig(uncoded_spec(8), 9, seed=1, shards=3))
        assert events == [("seed", 0), ("draw",), ("seed", 1), ("draw",), ("seed", 2), ("draw",)]

    def test_histogram_accounts_for_every_word(self):
        for spec in (uncoded_spec(9), dbi_spec(6), optimal_spec(7, 5)):
            cfg = TraceConfig(spec=spec, trace_length=5_000, seed=11)
            stats = run_trace(cfg)
            assert sum(stats.weight_histogram) == stats.words_sent == 5_000
            assert stats.total_transitions == sum(
                w * c for w, c in enumerate(stats.weight_histogram)
            )
            assert stats.mean_transitions * stats.words_sent == stats.total_transitions

    def test_single_word_trace_counts_its_weight(self):
        # replay the documented generator contract to know the drawn word
        spec = optimal_spec(11, 12)
        cfg = TraceConfig(spec=spec, trace_length=1, seed=12345)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(12345).spawn(1)[0])
        )
        u = int(rng.integers(0, 1 << 11, size=1, dtype=np.uint64)[0])
        expected = make_codec(spec).differential_int(u).bit_count()
        stats = run_trace(cfg)
        assert stats.total_transitions == expected

    def test_uncoded_mean_near_half_k(self):
        cfg = TraceConfig(spec=uncoded_spec(8), trace_length=100_000, seed=5)
        stats = run_trace(cfg)
        assert abs(float(stats.mean_transitions) - 4.0) / 4.0 < 0.02

    def test_optimal_mean_near_closed_form(self):
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=200_000, seed=5)
        stats = run_trace(cfg)
        ref = float(analytics.d_opt(11, 12))
        assert abs(float(stats.mean_transitions) - ref) / ref < 0.01

    def test_dbi_mean_near_exhaustive_mean(self):
        cfg = TraceConfig(spec=dbi_spec(4), trace_length=60_000, seed=9)
        stats = run_trace(cfg)
        ref = float(exact_average_distance(dbi_spec(4)).exact_mean)
        assert abs(float(stats.mean_transitions) - ref) / ref < 0.02

    def test_coset_trace_runs(self):
        cfg = TraceConfig(spec=coset_spec(make_hamming(4)), trace_length=50_000, seed=2)
        stats = run_trace(cfg)
        ref = 15 / 16
        assert abs(float(stats.mean_transitions) - ref) / ref < 0.02

    def test_optimal_cost_counters(self):
        spec = optimal_spec(11, 12)
        cfg = TraceConfig(spec=spec, trace_length=10_000, seed=1)
        stats = run_trace(cfg)
        pulses = stats.total_transitions
        assert stats.clock_cycles_total == pulses
        assert stats.comparisons_total == 23 * pulses + 4 * 10_000
        assert stats.additions_total == 2 * pulses
        assert stats.baseline_clock_cycles == 23 * 10_000

    def test_non_optimal_families_leave_cost_counters_zero(self):
        cfg = TraceConfig(spec=ppm0_spec(4), trace_length=1_000, seed=1)
        stats = run_trace(cfg)
        assert stats.clock_cycles_total == 0
        assert stats.comparisons_total == 0

    def test_wide_info_mean_near_half_k(self):
        # past the exhaustive-average cap the mean stays near k/2 at b = 0
        cfg = TraceConfig(spec=optimal_spec(21, 0), trace_length=2_000, seed=4)
        stats = run_trace(cfg)
        assert 10.0 < float(stats.mean_transitions) < 11.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(spec=uncoded_spec(4), trace_length=0, seed=1)
        with pytest.raises(ValueError):
            TraceConfig(spec=uncoded_spec(4), trace_length=10, seed=1, shards=11)
        with pytest.raises(ValueError):
            TraceConfig(spec=uncoded_spec(4), trace_length=10, seed=1, shards=0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            TraceConfig(spec=uncoded_spec(4), trace_length=10, seed=-1)

    def test_config_fields_are_python_ints(self):
        spec = optimal_spec(11, 12)
        cfg = TraceConfig(spec, np.int64(1_000), np.uint8(3), np.int64(2))
        assert type(cfg.trace_length) is type(cfg.seed) is type(cfg.shards) is int
        stats = run_trace(cfg)
        assert type(stats.words_sent) is type(stats.comparisons_total) is int
        assert stats == run_trace(TraceConfig(spec, 1_000, 3, 2))
        for fields in ((10.5, 1), (10, 1.0), (10, 1, 2.0)):
            with pytest.raises(TypeError):
                TraceConfig(spec, *fields)


def _integers(seed, k, size):
    return np.random.Generator(np.random.PCG64(seed)).integers(0, 1 << k, size, dtype=np.uint64)


class TestDraw:
    """_draw hands out exactly the words Generator.integers would."""

    @pytest.mark.parametrize("k", range(1, 65))
    def test_matches_generator_integers(self, k):
        for size in (1, 2, 3, 1001, 1 << 17, (1 << 17) + 1):
            seed = 1000 * k + size
            us = _draw(np.random.PCG64(seed), k, size)
            assert us.dtype == (np.uint32 if k <= 32 else np.uint64)
            assert np.array_equal(us, _integers(seed, k, size))

    @pytest.mark.parametrize("k", [1, 11, 32, 33, 64])
    def test_even_draws_leave_the_generator_where_integers_does(self, k):
        # integers() may leave a stale 32-bit buffer value behind, which
        # nothing reads while has_uint32 is 0; the rest of the state agrees,
        # so the next chunk continues the same stream
        bitgen = np.random.PCG64(17)
        rng = np.random.Generator(np.random.PCG64(17))
        for size in (2, 1000, 1 << 17):
            _draw(bitgen, k, size)
            rng.integers(0, 1 << k, size, dtype=np.uint64)
            ours, theirs = bitgen.state, rng.bit_generator.state
            assert ours["has_uint32"] == theirs["has_uint32"] == 0
            assert ours["state"] == theirs["state"]
        assert np.array_equal(_draw(bitgen, k, 7), rng.integers(0, 1 << k, 7, dtype=np.uint64))

    def test_chunk_is_even(self):
        # an odd chunk would drop half an output mid-shard that integers() keeps
        assert simulator._CHUNK % 2 == 0

    @pytest.mark.parametrize(
        "spec",
        [uncoded_spec(8), uncoded_spec(40), dbi_spec(8), ppm0_spec(6),
         optimal_spec(11, 12), coset_spec(make_golay23())],
        ids=lambda s: f"{s.family.value}-{s.k}",
    )
    def test_chunk_size_does_not_change_the_trace(self, spec, monkeypatch):
        cfgs = [TraceConfig(spec, 270_001, seed=8, shards=s) for s in (1, 2)]
        default = [run_trace(cfg) for cfg in cfgs]
        monkeypatch.setattr(simulator, "_CHUNK", 1 << 10)
        assert [run_trace(cfg) for cfg in cfgs] == default


def _run_python(code):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


# the parent splits a 2M-word trace, waits until its part thread has exited,
# then forks a child that runs the trace again; a child that hangs is killed
# after 20 s
_FORK_AFTER_A_SPLIT = """
import _thread, os, signal, sys, time
from buslab import simulator
from buslab.codecs import optimal_spec
from buslab.simulator import TraceConfig, run_trace

simulator._CPUS = 2
cfg = TraceConfig(optimal_spec(11, 12), 2_000_000, seed=5)
parent = run_trace(cfg)
deadline = time.monotonic() + 5
while _thread._count() and time.monotonic() < deadline:
    time.sleep(0.01)
assert _thread._count() == 0, "a part thread outlived run_trace by 5 s"
pid = os.fork()
if pid == 0:
    code = 1
    try:
        code = 0 if run_trace(cfg) == parent else 3
    finally:
        os._exit(code)
deadline = time.monotonic() + 20
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("forked child still running after 20 s")
"""


class TestParts:
    """A trace of 4 chunks or more per CPU is cut across its shards into
    parts, each one after the first on a thread started for it."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_after_a_split_prints_the_same_trace(self):
        proc = _run_python(_FORK_AFTER_A_SPLIT)
        assert proc.returncode == 0, proc.stderr

    def test_a_split_trace_leaves_no_thread_running(self, cpus):
        # 2^20 words are 8 chunks: on 2 CPUs, part 1 runs chunks 4..7 on a thread
        cpus(2)
        before = _thread._count()
        run_trace(TraceConfig(uncoded_spec(16), 1 << 20, seed=2))
        # a part releases its lock just before its thread exits
        deadline = time.monotonic() + 5
        while _thread._count() != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _thread._count() == before

    @pytest.mark.parametrize("starts", [0, 1])
    def test_parts_whose_thread_cannot_start_run_on_the_caller(self, cpus, monkeypatch, starts):
        # 12 chunks in 3 parts: part 2's thread starts first, then part 1's
        cfg = TraceConfig(uncoded_spec(16), 12 << 17, seed=4)
        cpus(1)
        serial = run_trace(cfg)
        cpus(3)
        start, calls = _thread.start_new_thread, []

        def start_some(fn, args):
            calls.append(args[0])
            if len(calls) > starts:
                raise RuntimeError("can't start new thread")
            return start(fn, args)

        monkeypatch.setattr(simulator._thread, "start_new_thread", start_some)
        assert run_trace(cfg) == serial
        assert calls == [2, 1][:starts + 1]

    def test_a_trace_of_short_shards_runs_in_parts(self, cpus, monkeypatch):
        # 8 shards of 1 chunk each: on 2 CPUs, part 1 runs shards 4..7 on a thread
        cfg = TraceConfig(uncoded_spec(16), 1 << 20, seed=2, shards=8)
        cpus(1)
        serial = run_trace(cfg)
        cpus(2)
        start, calls = _thread.start_new_thread, []

        def counting(fn, args):
            calls.append(args[0])
            return start(fn, args)

        monkeypatch.setattr(simulator._thread, "start_new_thread", counting)
        assert run_trace(cfg) == serial
        assert calls == [1]

    @pytest.mark.parametrize("k", [16, 33, 64])
    @pytest.mark.parametrize("length,plan", [
        # 3 shards of 101 words: both cuts fall on a shard end
        (303, [(0, 101), (101, 202), (202, 303)]),
        # shards of 101, 100 and 100 words: cut 1 falls on shard 0's last word,
        # word 100, cut 2 on shard 1's odd word 99 and rounds down to 98, word 199
        (301, [(0, 100), (100, 199), (199, 301)]),
    ])
    def test_cuts_fall_on_even_shard_local_words(self, cpus, monkeypatch, k, length, plan):
        monkeypatch.setattr(simulator, "_CHUNK", 1 << 6)
        monkeypatch.setattr(simulator, "_MIN_PART_CHUNKS", 1)
        cfg = TraceConfig(uncoded_spec(k), length, seed=6, shards=3)
        cpus(1)
        serial = run_trace(cfg)
        cpus(3)
        kernel, seen = simulator._part_histogram, []

        def recording(codec, seed, starts, lo, hi, chunk):
            seen.append((lo, hi))
            return kernel(codec, seed, starts, lo, hi, chunk)

        monkeypatch.setattr(simulator, "_part_histogram", recording)
        assert run_trace(cfg) == serial
        assert sorted(seen) == plan

    def test_a_failing_part_raises_and_the_next_trace_runs(self, cpus, monkeypatch):
        # 2^20 words are 8 chunks: on 2 CPUs, part 1 runs chunks 4..7 on a thread
        cfg = TraceConfig(uncoded_spec(16), 1 << 20, seed=2)
        cpus(1)
        serial = run_trace(cfg)
        cpus(2)
        kernel, caller = UncodedCodec.step_histogram, threading.get_ident()

        def failing(self, us, prev):
            if threading.get_ident() != caller:
                raise RuntimeError("part 1 failed")
            return kernel(self, us, prev)

        monkeypatch.setattr(UncodedCodec, "step_histogram", failing)
        with pytest.raises(RuntimeError, match="part 1 failed"):
            run_trace(cfg)
        monkeypatch.setattr(UncodedCodec, "step_histogram", kernel)
        assert run_trace(cfg) == serial

    # KeyboardInterrupt: a Ctrl-C during part 0 also waits for the other parts
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_part_0_raises_once_part_1_has_finished(self, cpus, monkeypatch, error):
        cpus(2)
        kernel, caller, counted = UncodedCodec.step_histogram, threading.get_ident(), []

        def failing(self, us, prev):
            if threading.get_ident() == caller:
                raise error("part 0 failed")
            time.sleep(0.05)  # part 1's 4 chunks end well after part 0 fails
            h = kernel(self, us, prev)
            counted.append(len(us))
            return h

        monkeypatch.setattr(UncodedCodec, "step_histogram", failing)
        with pytest.raises(error, match="part 0 failed"):
            run_trace(TraceConfig(uncoded_spec(16), 1 << 20, seed=2))
        assert counted == [1 << 17] * 4

    def test_a_trace_at_interpreter_exit_prints_the_same_histogram(self):
        # on 3.12+ no thread starts in an atexit handler, and the shard runs in one piece
        proc = _run_python(
            "import atexit\n"
            "from buslab import simulator\n"
            "from buslab.codecs import optimal_spec\n"
            "simulator._CPUS = 2\n"
            "cfg = simulator.TraceConfig(optimal_spec(11, 12), 2_000_000, seed=5)\n"
            "atexit.register(lambda: print(simulator.run_trace(cfg).weight_histogram))\n"
            "print(simulator.run_trace(cfg).weight_histogram)\n"
        )
        assert proc.returncode == 0, proc.stderr
        during, at_exit = proc.stdout.splitlines()
        assert during == at_exit

    def test_import_leaves_concurrent_futures_out(self):
        # concurrent.futures pulls in logging (about 12 ms), and no trace needs it
        proc = _run_python("import sys, buslab, buslab.cli, buslab.verify\n"
                           "print('concurrent.futures' in sys.modules)")
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestEstimatorConsistency:
    @pytest.mark.parametrize(
        "spec",
        [uncoded_spec(8), dbi_spec(5), ppm0_spec(4), optimal_spec(8, 4),
         coset_spec(make_hamming(4))],
        ids=lambda s: f"{s.family.value}-k{s.k}",
    )
    def test_three_seeds_within_one_percent_of_exact(self, spec):
        exact = float(exact_average_distance(spec).exact_mean)
        for seed in (1, 2, 3):
            cfg = TraceConfig(spec=spec, trace_length=200_000, seed=seed)
            mean = float(run_trace(cfg).mean_transitions)
            assert abs(mean - exact) / exact < 0.01, (spec.family, seed, mean)


class TestExactAverage:
    def test_optimal_golay_geometry(self):
        rep = exact_average_distance(optimal_spec(11, 12))
        assert rep.exact_mean == Fraction(2921, 1024)

    def test_hamming_coset_reaches_the_floor(self):
        rep = exact_average_distance(coset_spec(make_hamming(4)))
        assert rep.exact_mean == Fraction(15, 16)

    def test_dbi_matches_repetition_coset(self):
        dbi = exact_average_distance(dbi_spec(4))
        rep = exact_average_distance(coset_spec(make_repetition(5)))
        assert dbi.exact_mean == rep.exact_mean

    def test_uncoded_mean_is_half_k(self):
        for k in (1, 4, 8):
            rep = exact_average_distance(uncoded_spec(k))
            assert rep.exact_mean == Fraction(k, 2)

    def test_per_state_table(self):
        # every bus state has the exact mean, stepping the scalar codec itself
        for spec in (dbi_spec(3), uncoded_spec(4)):
            codec = make_codec(spec)
            mean = exact_average_distance(spec).exact_mean
            for s in range(1 << spec.n):
                total = sum((codec.encode_int(s, u) ^ s).bit_count() for u in range(1 << spec.k))
                assert Fraction(total, 1 << spec.k) == mean, (spec.family, s)

    def test_uncoded_and_dbi_cover_every_supported_width(self):
        assert exact_average_distance(uncoded_spec(64)).exact_mean == 32
        # the (n + 1)-term oracle: DBI steps min(w, n - w) lines over the n-bit words
        n = 64
        terms = sum(comb(n, w) * min(w, n - w) for w in range(n + 1))
        assert exact_average_distance(dbi_spec(63)).exact_mean == Fraction(terms, 1 << n)

    def test_differential_families_past_k_20(self):
        # wider than any enumeration of the 2^k info words: the closed forms
        # and the coset leaders' tiers have no k cap
        hamming = coset_spec(make_hamming(16))
        assert hamming.codec.tier_counts() == (1, 65535)
        *_, (_, _, total) = analytics.sweep(24, 16)
        for spec, mean in (
            (optimal_spec(64, 0), 32),
            (optimal_spec(24, 16), analytics.d_opt(24, 16)),
            (optimal_spec(24, 16), Fraction(total, 1 << 24)),
            (ppm0_spec(20), analytics.d_min(20)),
            (hamming, Fraction(65535, 65536)),
        ):
            assert exact_average_distance(spec).exact_mean == mean, spec


class TestClockModel:
    """The modulator spends one clock per pulse, against n for bit-serial."""

    def test_zero_word_needs_no_clocks(self):
        codec = optimal_spec(11, 12).codec
        assert codec.differential_int(0) == 0
        # no pulse: no clock and no addition, only the d_max + 1 tier comparisons
        assert codec.trace_counters(0, 1) == (0, 4, 0)

    def test_top_info_word(self):
        codec = optimal_spec(11, 12).codec
        assert codec.differential_int(2047).bit_count() == codec.d_max == 3
        assert codec.trace_counters(3, 1) == (3, 23 * 3 + 4, 6)

    def test_clocks_equal_differential_weight(self):
        stats = run_trace(TraceConfig(spec=optimal_spec(11, 12), trace_length=20_000, seed=3))
        assert stats.clock_cycles_total == stats.total_transitions
        assert stats.baseline_clock_cycles == 23 * 20_000
        codec = optimal_spec(11, 12).codec
        total = sum(codec.differential_int(u).bit_count() for u in range(1 << 11))
        assert Fraction(total, 1 << 11) == analytics.d_opt(11, 12)

    def test_pulse_budget_never_exceeds_half_the_lines(self):
        for k, b in ((4, 1), (8, 4), (11, 12), (12, 8)):
            codec = optimal_spec(k, b).codec
            for u in range(1 << k):
                assert 2 * codec.differential_int(u).bit_count() <= k + b

    def test_requires_optimal_family(self):
        # only the optimal family's trace fills the modulator counters
        for spec in (uncoded_spec(8), dbi_spec(8), ppm0_spec(4), coset_spec(make_golay23())):
            stats = run_trace(TraceConfig(spec=spec, trace_length=1000, seed=1))
            assert stats.total_transitions > 0
            assert (stats.clock_cycles_total, stats.comparisons_total, stats.additions_total) == (
                0, 0, 0
            )


class TestWordCost:
    def test_average_cost_matches_closed_form(self):
        # a trace's counters, step by step from its weight histogram: d_max + 1
        # comparisons per word, n comparisons and 2 additions per toggled line
        for k, b in ((1, 1), (4, 3), (8, 4), (11, 12)):
            n, d_max = k + b, analytics.d_max(k, b)
            stats = run_trace(TraceConfig(spec=optimal_spec(k, b), trace_length=5000, seed=2))
            steps = list(enumerate(stats.weight_histogram))
            assert stats.comparisons_total == sum(c * (d_max + 1 + n * w) for w, c in steps)
            assert stats.additions_total == sum(c * 2 * w for w, c in steps)
            # over all 2^k words, one per info value, the average is encoding_cost
            codec = optimal_spec(k, b).codec
            cost = sum(
                d_max + 1 + (n + 2) * codec.differential_int(u).bit_count() for u in range(1 << k)
            )
            assert Fraction(cost, 1 << k) == analytics.encoding_cost(k, b)


class TestConvergence:
    def test_pass_at_generous_tolerance(self):
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=100_000, seed=1)
        report = convergence_check(cfg, analytics.d_opt(11, 12), 0.01)
        assert report.passed
        assert report.rel_deviation < report.tolerance

    def test_pass_at_exactly_the_tolerance(self):
        # the tolerance is the trace's own deviation: the bound is inclusive
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=1000, seed=1)
        reference = analytics.d_opt(11, 12)
        rel = convergence_check(cfg, reference, 1.0).rel_deviation
        assert rel > 0
        report = convergence_check(cfg, reference, rel)
        assert report.rel_deviation == report.tolerance and report.passed

    def test_undersampled_trace_fails_honestly(self):
        # ten samples cannot land within 0.01% of 2921/1024: step size is 0.1
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=10, seed=1)
        report = convergence_check(cfg, analytics.d_opt(11, 12), 0.0001)
        assert not report.passed

    def test_parameter_validation(self):
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=10, seed=1)
        with pytest.raises(ValueError):
            convergence_check(cfg, Fraction(0), 0.01)
        with pytest.raises(ValueError):
            convergence_check(cfg, Fraction(1), 0)


class TestBudgets:
    # Bounds sit 10x or more above what a 2-CPU x86 host measured (0.04 s,
    # 0.008 s, 0.15 s and a 2.1 MiB peak), because such hosts swing 2x.
    def _timed(self, cfg):
        start = time.perf_counter()
        stats = run_trace(cfg)
        return stats, time.perf_counter() - start

    def test_cold_ppm0_at_the_widest_bus(self):
        make_codec.cache_clear()
        stats, elapsed = self._timed(TraceConfig(spec=ppm0_spec(20), trace_length=2_000, seed=1))
        assert len(stats.weight_histogram) == 2
        assert sum(stats.weight_histogram) == 2_000
        assert elapsed < 2.0

    def test_optimal_at_64_lines(self):
        stats, elapsed = self._timed(
            TraceConfig(spec=optimal_spec(64, 0), trace_length=100_000, seed=1)
        )
        assert stats.words_sent == 100_000
        assert elapsed < 1.0

    def test_ten_million_words_in_bounded_memory(self):
        cfg = TraceConfig(spec=optimal_spec(24, 16), trace_length=10_000_000, seed=1)
        tracemalloc.start()
        try:
            stats, elapsed = self._timed(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.words_sent == 10_000_000
        assert elapsed < 3.0
        assert peak < 16 * 2**20

    def test_ten_million_words_on_four_cpus_in_bounded_memory(self, cpus):
        # a GitHub runner's 4 CPUs split the trace into 4 parts, each beyond
        # the first holding one more chunk's working set at once (2^19 bytes of
        # words and the kernel's temporaries): a 2-CPU x86 host peaked at 1.8
        # MiB serially, 2.6 MiB in 2 parts and 3.3 MiB in 4, about 0.8 MiB a part
        cpus(4)
        cfg = TraceConfig(spec=optimal_spec(24, 16), trace_length=10_000_000, seed=1)
        tracemalloc.start()
        try:
            stats, elapsed = self._timed(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.words_sent == 10_000_000
        assert elapsed < 3.0
        assert peak < 16 * 2**20

    def test_ppm0_at_the_widest_bus_builds_its_histogram_once(self):
        # a 2-CPU x86 host peaked at 1.0 MiB; at 9.0 MiB while the public list
        # was padded to 2^20 + 1 entries (8 MiB of zeros), and at 18.1 MiB with
        # an (n + 1)-bin array per chunk
        cfg = TraceConfig(spec=ppm0_spec(20), trace_length=1 << 18, seed=1)
        tracemalloc.start()
        try:
            stats = run_trace(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.words_sent == 1 << 18
        assert peak < 4 * 2**20

    def test_a_trace_holds_one_int_per_shard(self):
        # each shard is seeded as its run is drawn: a 2-CPU x86 host peaked at
        # 0.19 MiB, and at 2.57 MiB while every shard's SeedSequence and run
        # were built up front
        cfg = TraceConfig(spec=optimal_spec(11, 12), trace_length=5_000, seed=1, shards=5_000)
        run_trace(TraceConfig(cfg.spec, 2, seed=1))  # build the codec first
        tracemalloc.start()
        try:
            stats = run_trace(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.words_sent == sum(stats.weight_histogram) == 5_000
        assert peak < 2**20

    def test_sixteen_shards_at_the_widest_bus_build_one_histogram(self):
        # shards add their numpy histograms before the one public list is
        # built; a 2-CPU x86 host peaked at 0.02 MiB, at 8.0 MiB while that
        # list was padded to 2^20 + 1 entries, and at 144 MiB and 0.48 s when
        # each shard kept its own (2^20 + 1)-entry list
        cfg = TraceConfig(spec=ppm0_spec(20), trace_length=1 << 16, seed=1, shards=16)
        tracemalloc.start()
        try:
            stats = run_trace(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.words_sent == sum(stats.weight_histogram) == 1 << 16
        assert peak < 4 * 2**20


class TestCosetBudgets:
    # Hamming k = 16 is the widest stock coset (65,535 lines). A 2-CPU x86
    # host measured 0.01-0.02 s for the cold run below, and a tracemalloc
    # peak of 6.3 MiB; while each leader was an n-bit int, 0.9-1.2 s and
    # 280 MiB, and with a row-wise syndrome per line and n/8 byte tables of
    # 256 ints, 6.7-8.7 s.
    def test_cold_hamming_coset_at_the_syndrome_cap(self):
        make_codec.cache_clear()
        try:
            start = time.perf_counter()
            cfg = TraceConfig(spec=coset_spec(make_hamming(16)), trace_length=100_000, seed=1)
            stats = run_trace(cfg)
            elapsed = time.perf_counter() - start
        finally:
            make_codec.cache_clear()
        assert stats.words_sent == 100_000
        assert elapsed < 4.0

    def test_cold_hamming_coset_memory_at_the_syndrome_cap(self):
        make_codec.cache_clear()
        tracemalloc.start()
        try:
            cfg = TraceConfig(spec=coset_spec(make_hamming(16)), trace_length=100_000, seed=1)
            stats = run_trace(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            make_codec.cache_clear()
        assert stats.words_sent == 100_000
        assert peak < 32 * 2**20

    def test_cold_repetition_leader_build_memory(self):
        # repetition(17) has the most tiers of any stock code, 8, the last of
        # C(17, 8) = 24,310 leaders: the same host peaked at 1.8 MiB
        code = make_repetition(17)  # fresh, so its columns of H are built here too
        tracemalloc.start()
        try:
            _, weights = codecs._build_coset_leaders(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(weights.max()) == 8
        assert peak < 4 * 2**20


class TestScalarBudgets:
    # A 2-CPU x86 host measured 0.05 s for 2,000 pairs (a restart scan per
    # pulse took 0.39 s) and a 336-byte peak for the unranks (a cache of the
    # 10^4 differentials peaked at 0.95 MB); tracemalloc slows each call
    # 13x, hence 10^4 words.
    def test_optimal_pairs_at_64_lines(self):
        codec = make_codec(optimal_spec(64, 0))
        rnd = random.Random(1)
        best = float("inf")
        for _ in range(3):  # fresh words each time, so no cache can help
            pairs = [(rnd.getrandbits(64), rnd.getrandbits(64)) for _ in range(2_000)]
            start = time.perf_counter()
            for state, u in pairs:
                assert codec.decode_int(state, codec.encode_int(state, u)) == u
            best = min(best, time.perf_counter() - start)
        assert best < 0.25

    def test_differential_int_keeps_no_per_word_state(self):
        codec = make_codec(optimal_spec(40, 24))
        stride = (1 << 40) // 10_000
        tracemalloc.start()
        try:
            for i in range(10_000):
                codec.differential_int(i * stride)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10

    def test_retained_words_carry_no_instance_dict(self):
        # 80 B per Word with its int on a 2-CPU x86 host; 184 B while each
        # Word kept its two fields in an instance dict
        words = [None] * 10_000  # the list is allocated before tracing starts
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(10_000):
                words[i] = Word(1000 + i, 23)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (after - before) / len(words) < 120


class TestClosedFormBudgets:
    # A 2-CPU x86 host measured best-of-3 times of 0.11-0.19 s for the k = 20
    # sweep (0.12-0.20 s updating the whole column of partial sums per row,
    # 0.33-0.41 s rebuilding it per row, 2.3 s with a Fraction sum per row),
    # 0.005-0.011 s for k = 64 (0.008-0.014 s, 0.02 s, 0.18-0.24 s), and
    # 4-40 us for each closed-form exact average (1.0 s and 0.22 s with a
    # loop over the states, 30-100 us while it also built a tuple of 2^n
    # per-state means) and 0.27 ms for Hamming(16)'s tier counts.
    # Each sweep row now costs O(1) integer steps at any k.
    def _best_of_3(self, fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    @pytest.mark.parametrize("k, b_max, budget", [(20, 100_000, 0.5), (64, 4000, 0.05)])
    def test_sweep(self, tmp_path, k, b_max, budget):
        argv = ["sweep", "--k", str(k), "--b", str(b_max), "--out", str(tmp_path / "s.csv")]
        assert self._best_of_3(lambda: main(argv)) < budget
        assert len((tmp_path / "s.csv").read_text().splitlines()) == b_max + 3

    def test_sweep_json(self, capsys):
        # 0.23-0.36 s (0.26-0.44 s with a gcd per d_opt string, 0.49-0.56 s
        # rebuilding the partial sums per row); 1.8 s through
        # json.dumps(indent=2) and a Fraction per p/q string
        argv = ["sweep", "--k", "20", "--b", "100000", "--json"]
        assert self._best_of_3(lambda: main(argv)) < 0.8
        assert capsys.readouterr().out.count('"b": ') == 3 * 100_001

    def test_analyze_in_process(self, capsys):
        # 0.004-0.007 s (0.005-0.009 s building dicts for json.dumps, ~0.013 s
        # with Fraction arithmetic per figure); >= 0.127 s when every main()
        # call rebuilt the argparse tree
        rnd = random.Random(5)
        argvs = [
            ["analyze", "--k", str(rnd.randint(1, 64)), "--b", str(rnd.randint(0, 5000)), "--json"]
            for _ in range(100)
        ]
        assert self._best_of_3(lambda: [main(argv) for argv in argvs]) < 0.025
        assert capsys.readouterr().out.count('"d_opt": ') == 3 * 100

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["csv", "json"])
    def test_sweep_memory_does_not_grow_with_b(self, tmp_path, flags):
        # rows are written in fixed blocks: 0.15 MiB (CSV) and 0.62 MiB (JSON)
        # at either b, against 14 MiB and 55 MiB at b = 10^5 for the whole text
        peaks = []
        for b_max in (10_000, 100_000):
            argv = ["sweep", "--k", "20", "--b", str(b_max), "--out", str(tmp_path / "s"), *flags]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * 2**20
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize(
        "spec",
        [uncoded_spec(14), uncoded_spec(64), dbi_spec(12), dbi_spec(14), dbi_spec(63),
         optimal_spec(64, 0), optimal_spec(24, 16), ppm0_spec(20), coset_spec(make_hamming(16))],
        ids=["uncoded-14", "uncoded-64", "dbi-12", "dbi-14", "dbi-63",
             "optimal-64-0", "optimal-24-16", "ppm0-20", "coset-hamming-16"],
    )
    def test_state_dependent_exact_average(self, spec):
        spec.codec  # built before the clock: a coset's mean reads its leader table
        assert self._best_of_3(lambda: exact_average_distance(spec)) < 0.005
