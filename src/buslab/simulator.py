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

A shard of at least 4 chunks per CPU runs as up to one part per CPU, each a
run of whole chunks: part j advance()s its own PCG64 past the raw outputs
before its first word, so it draws exactly the serial stream's words. Part 0
runs on the calling thread and the others on a thread pool made on the first
split (a forked child drops it and makes its own). Part histograms add in
part order and shards in shard order before the counters, trace_counters
included, are built once, so every count is the serial run's whatever the
CPU count.

An exact average runs no trace: it is the family's exact_mean, a closed form
or, for coset, the mean of CosetCodec.tier_counts(), which the tests and
`verify optimal` check against enumerations of the codec's steps.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np

from .codecs import _FAMILY_CODECS, Codec, CodecSpec, make_codec

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
# fewer chunks per part do not pay for a thread: 2-chunk parts measured 9-19% slower
_MIN_PART_CHUNKS = 4
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()


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
    """Exhaustive mean transitions per word, exact."""

    spec: CodecSpec
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
    us >>= us.itemsize * 8 - k
    return us


def _part_pool():
    """The pool for parts 1.. of a split shard; concurrent.futures is imported
    here, not with buslab, since it pulls in logging (about 12 ms)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="buslab-part")
        return _pool


def _drop_pool():
    # a forked child has none of the parent's pool threads: work queued on the
    # inherited pool would never run, so the child makes its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _part_histogram(codec: Codec, seed: np.random.SeedSequence, start: int, stop: int,
                    chunk: int) -> np.ndarray:
    """int64 step counts of a shard's words start..stop-1 (start 0 or a
    chunk boundary)."""
    k = codec.spec.k
    bitgen = np.random.PCG64(seed)
    hist = prev = 0
    if start:
        # words start-2 and start-1 fill one raw output (k <= 32) or two
        bitgen.advance((start - 2) // 2 if k <= 32 else start - 2)
        prev = int(_draw(bitgen, k, 2)[1])
    for lo in range(start, stop, chunk):
        us = _draw(bitgen, k, min(chunk, stop - lo))
        hist = hist + codec.step_histogram(us, prev)
        prev = int(us[-1])
    return hist


def _shard_histogram(codec: Codec, length: int, seed: np.random.SeedSequence) -> np.ndarray:
    """int64 step counts by lines toggled of one shard of length words."""
    chunk = _CHUNK if codec.spec.k <= 32 else _CHUNK // 2
    chunks = -(-length // chunk)
    parts = min(_CPUS, chunks // _MIN_PART_CHUNKS)
    if parts <= 1:
        return _part_histogram(codec, seed, 0, length, chunk)
    # part j runs words bounds[j]..bounds[j+1]-1: whole chunks, the first
    # chunks % parts parts one more; the last part ends with any odd tail
    base, extra = divmod(chunks, parts)
    bounds = [min(length, chunk * (j * base + min(j, extra))) for j in range(parts + 1)]
    pool = _part_pool()
    try:
        futures = [pool.submit(_part_histogram, codec, seed, lo, hi, chunk)
                   for lo, hi in zip(bounds[1:-1], bounds[2:])]
    except RuntimeError:  # no pool takes work once the interpreter exits (atexit)
        return _part_histogram(codec, seed, 0, length, chunk)
    try:
        hist = _part_histogram(codec, seed, 0, bounds[1], chunk)
    finally:
        for f in futures:
            f.exception()  # wait, so no part outlives the call
    for f in futures:
        hist = hist + f.result()
    return hist


def run_trace(cfg: TraceConfig) -> TransitionStats:
    """Feed trace_length uniform info words through the codec and count.

    Shard i of cfg.shards is seeded by SeedSequence(cfg.seed, spawn_key=(i,)),
    spawn's i-th child built directly, and starts from the all-zero bus; the
    shard histograms add in shard order, and the counters are built once.
    Shards run one after another. A shard of at least 4 chunks (2^19 bytes
    of words each) per CPU splits into up to one part per CPU, runs of whole
    chunks that jump the shard's PCG64 ahead to their first word and run on
    a thread pool, and whose histograms add in part order; so the result is
    the same, count for count, on any number of CPUs. A part's error is
    raised here once every part has stopped.
    """
    spec = cfg.spec
    codec = make_codec(spec)
    base, extra = divmod(cfg.trace_length, cfg.shards)
    lengths = [base + (1 if i < extra else 0) for i in range(cfg.shards)]
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(cfg.shards)]
    hist = sum(_shard_histogram(codec, ln, sq) for ln, sq in zip(lengths, seeds))
    total = int(hist @ np.arange(hist.size))
    # trace_counters gives the last three fields: clocks, comparisons, additions
    counters = codec.trace_counters(total, cfg.trace_length)
    return TransitionStats(spec.n, cfg.trace_length, total, hist.tolist(), *counters)


def exact_average_distance(spec: CodecSpec) -> ExactAverageReport:
    """Exact mean transitions over uniform info words and uniform states, at
    every supported width: the family's exact_mean (see Codec.exact_mean),
    which every bus state shares."""
    return ExactAverageReport(spec, _FAMILY_CODECS[spec.family].exact_mean(spec))


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
