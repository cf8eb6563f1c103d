"""Monte Carlo traces and exact averages.

Traces drive a codec with uniform random info words from the all-zero bus
state and count line transitions per step. Each shard draws its words in
chunks of 2^19 bytes (2^17 words for k <= 32, 2^16 for k > 32) and adds up
the codec's vectorized step_histogram of each: it forms no bus word and no
per-word weight, and runs no per-word Python code. Randomness comes from
numpy's PCG64 seeded through SeedSequence, so runs are reproducible and a
trace can be split into shards with independently derived child seeds.
Each word is the top k bits of PCG64's next raw 32-bit (uint32, k <= 32) or
64-bit output, exactly the stream of Generator.integers(0, 2**k, uint64).

A trace lays its shards' words end to end, in shard order, and holds one
int per shard, the word it starts at; if they make at least 4 chunks per
CPU, it cuts them into up to one part per CPU, each cut at an even
shard-local word, so a part is a range of trace words. A part seeds each
shard when its run is reached; a run that starts inside its shard
advance()s the shard's PCG64 past the raw outputs before it, and every part
draws exactly the serial stream's words.
Part 0 runs on the calling thread and each other part on a thread started
for it; the caller waits for every part, adds their histograms in part order
and builds the counters, trace_counters included, once, so every count is
the serial run's whatever the CPU count.

An exact average runs no trace: it is the family's exact_mean, a closed form
or, for coset, the mean of CosetCodec.tier_counts(), which the tests and
`verify optimal` check against enumerations of the codec's steps.
"""
from __future__ import annotations

import _thread
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul

import numpy as np

from .codecs import _FAMILY_CODECS, Codec, CodecSpec

__all__ = [
    "TraceConfig",
    "TransitionStats",
    "ExactAverageReport",
    "ConvergenceReport",
    "run_trace",
    "exact_average_distance",
    "convergence_check",
]

# words per chunk for k <= 32, twice those for k > 32, as 64-bit words: even,
# since an odd chunk mid-shard would drop the half output integers() keeps
_CHUNK = 1 << 17
# chunks per CPU, counted over the trace, below which a thread does not pay: 2-chunk
# parts read 9-19% slower, and 200k-word traces cut in two 0.64-0.75x on trace_wide
_MIN_PART_CHUNKS = 4
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class TraceConfig:
    """One reproducible trace: codec spec, word count, seed, shard count."""

    spec: CodecSpec
    trace_length: int
    seed: int
    shards: int = 1

    def __post_init__(self):
        # Python ints, so a float fails here and the counters are Python ints
        for name in ("trace_length", "seed", "shards"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.trace_length < 1:
            raise ValueError(f"trace_length must be >= 1, got {self.trace_length}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.shards <= self.trace_length:
            raise ValueError(f"shards must be in 1..trace_length, got {self.shards}")


@dataclass
class TransitionStats:
    """Accumulated trace counters.

    weight_histogram[w] counts steps that toggled exactly w lines, for w from
    0 to the family's heaviest step, with no entries past it: k for uncoded,
    n // 2 for DBI, 1 for ppm0, d_max for optimal and the heaviest coset
    leader for coset. The clock, comparison and addition counters are the
    codec's trace_counters: the modulator cost model for the optimal family,
    zero for the others.
    """

    n_lines: int
    words_sent: int
    total_transitions: int
    weight_histogram: list[int]
    clock_cycles_total: int
    comparisons_total: int
    additions_total: int

    @property
    def mean_transitions(self) -> Fraction:
        return Fraction(self.total_transitions, self.words_sent)

    @property
    def baseline_clock_cycles(self) -> int:
        """Clocks a bit-serial modulator would spend: n per word."""
        return self.n_lines * self.words_sent


@dataclass(frozen=True)
class ExactAverageReport:
    """Exact mean transitions per word: the family's closed form, or for a
    coset code the mean of its leader tiers (see Codec.exact_mean)."""

    exact_mean: Fraction


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    mean: Fraction
    reference: Fraction
    rel_deviation: float
    tolerance: float


def _draw(bitgen: np.random.PCG64, k: int, size: int) -> np.ndarray:
    """The words Generator.integers(0, 2**k, size, dtype=np.uint64) draws:
    Lemire's method never rejects a power of two and keeps the top k bits of
    the next 64-bit output, or for k <= 32 of the next 32-bit half (low half
    first, as a little-endian view of the raw outputs lays them out)."""
    if k <= 32:
        us = bitgen.random_raw((size + 1) // 2).view(np.uint32)[:size]
    else:
        us = bitgen.random_raw(size)
    if k < us.itemsize * 8:  # a shift by zero would still pass over every word
        us >>= us.itemsize * 8 - k
    return us


def _part_histogram(codec: Codec, seed: int, starts, lo: int, hi: int, chunk: int) -> np.ndarray:
    """int64 step counts of trace words lo..hi-1, lo at an even shard-local word,
    where shard i holds words starts[i]..starts[i+1]-1 and is seeded as its run
    is reached, in one loop: a run's last chunk lives on while the next draws."""
    k = codec.spec.k
    hist = 0
    for i in range(bisect_right(starts, lo) - 1, bisect_left(starts, hi)):
        start, stop = max(lo, starts[i]) - starts[i], min(hi, starts[i + 1]) - starts[i]
        bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))
        prev = 0
        if start:
            # words start-2 and start-1 fill one raw output (k <= 32) or two
            bitgen.advance((start - 2) // 2 if k <= 32 else start - 2)
            prev = int(_draw(bitgen, k, 2)[1])
        for w in range(start, stop, chunk):
            us = _draw(bitgen, k, min(chunk, stop - w))
            hist = hist + codec.step_histogram(us, prev)
            prev = int(us[-1])
    return hist


def run_trace(cfg: TraceConfig) -> TransitionStats:
    """Feed trace_length uniform info words through the codec and count.

    Shard i of cfg.shards is seeded by SeedSequence(cfg.seed, spawn_key=(i,)),
    spawn's i-th child built directly when its run is reached, and starts
    from the all-zero bus; the trace holds one int per shard. A trace of at
    least 4 chunks (2^19 bytes of words each) per CPU runs in parts, ranges
    of trace words, as the module docstring sets out, with the same result,
    count for count, on any number of CPUs. A part's error is raised here
    once every part has stopped.
    """
    codec, length = cfg.spec.codec, cfg.trace_length
    chunk = _CHUNK if codec.spec.k <= 32 else _CHUNK // 2
    base, extra = divmod(length, cfg.shards)
    # shard i runs the trace's words starts[i]..starts[i+1]-1
    starts = [i * base + min(i, extra) for i in range(cfg.shards + 1)]
    parts = min(_CPUS, -(-length // chunk) // _MIN_PART_CHUNKS)
    if parts <= 1:
        hist = _part_histogram(codec, cfg.seed, starts, 0, length, chunk)
    else:
        # part j runs words cuts[j]..cuts[j+1]-1, each cut rounded down to an even
        # shard-local word, where _part_histogram's advance() is exact at any k
        cuts = [p - (p - starts[bisect_right(starts, p) - 1]) % 2
                for p in (j * length // parts for j in range(parts + 1))]
        hists = [0] * parts

        def part(j, stop, done=None):
            try:
                hists[j] = _part_histogram(codec, cfg.seed, starts, cuts[j], cuts[stop], chunk)
            except BaseException as e:  # raised by the caller once every part has stopped
                hists[j] = e
            finally:
                if done is not None:
                    done.release()

        # _thread, not threading.Thread: Thread.start() blocks until the new
        # thread runs, and trace_small read 0.95-0.99x with it. The last part
        # starts first, so a part whose thread cannot start (none can once a
        # 3.12+ interpreter exits) runs on the caller with the parts before it.
        locks, stop = [], parts
        for j in range(parts - 1, 0, -1):
            done = _thread.allocate_lock()
            done.acquire()
            try:
                _thread.start_new_thread(part, (j, stop, done))
            except RuntimeError:
                break
            locks.append(done)
            stop = j
        part(0, stop)
        for done in locks:
            done.acquire()
        for h in hists:
            if isinstance(h, BaseException):
                raise h
        hist = sum(hists[1:], hists[0])
    counts = hist.tolist()
    total = sum(map(mul, range(len(counts)), counts))
    # trace_counters gives the last three fields: clocks, comparisons, additions
    counters = codec.trace_counters(total, length)
    return TransitionStats(cfg.spec.n, length, total, counts, *counters)


def exact_average_distance(spec: CodecSpec) -> ExactAverageReport:
    """Exact mean transitions over uniform info words and uniform states, at
    every supported width: the family's exact_mean (see Codec.exact_mean),
    which every bus state shares."""
    return ExactAverageReport(_FAMILY_CODECS[spec.family].exact_mean(spec))


def convergence_check(
    cfg: TraceConfig, reference: Fraction, tolerance: float
) -> ConvergenceReport:
    """Run the trace and compare its mean against an exact reference."""
    if reference <= 0:
        raise ValueError("reference mean must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    stats = run_trace(cfg)
    mean = stats.mean_transitions
    rel = abs(float((mean - reference) / reference))
    return ConvergenceReport(
        passed=rel <= tolerance,
        mean=mean,
        reference=reference,
        rel_deviation=rel,
        tolerance=tolerance,
    )
