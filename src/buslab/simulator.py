"""Monte Carlo traces and exhaustive averages.

Traces drive a codec with uniform random info words from the all-zero bus
state and count line transitions per step. Each shard draws its words in
chunks of 2^17 and adds up the codec's vectorized step_histogram of each: it
forms no bus word and no per-word weight, and runs no per-word Python code.
Randomness comes from numpy's PCG64 seeded through SeedSequence, so runs are
reproducible and a trace can be split into shards with independently derived
child seeds; shards run one after another, and their step histograms add in
shard order before the counters, trace_counters included, are built once.
Each word is the top k bits of PCG64's next raw 32-bit (uint32, k <= 32) or
64-bit output, exactly the stream of Generator.integers(0, 2**k, uint64).

Exact averages are sums, not traces: a differential family's step histogram
over all 2^k info words (k <= 20), or, for the uncoded bus and DBI at every
supported width, their family's exact_mean, one binomial (k/2 uncoded,
DBI's mean of min(w, n - w) over the n-bit words in de Moivre's closed
form); every bus state has that same mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np

from .codecs import _FAMILY_CODECS, Codec, CodecSpec, Family, _DifferentialCodec, make_codec

__all__ = [
    "TraceConfig",
    "TransitionStats",
    "ExactAverageReport",
    "ConvergenceReport",
    "run_trace",
    "exact_average_distance",
    "convergence_check",
]

# even: an odd chunk mid-shard would drop the half output integers() keeps
_CHUNK = 1 << 17
_EXHAUSTIVE_INFO_BITS = 20


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


def _shard_histogram(codec: Codec, length: int, seed: np.random.SeedSequence) -> np.ndarray:
    """int64 step counts by lines toggled of one shard of length words."""
    bitgen = np.random.PCG64(seed)
    hist = prev = 0
    for start in range(0, length, _CHUNK):
        us = _draw(bitgen, codec.spec.k, min(_CHUNK, length - start))
        hist = hist + codec.step_histogram(us, prev)
        prev = int(us[-1])
    return hist


def run_trace(cfg: TraceConfig) -> TransitionStats:
    """Feed trace_length uniform info words through the codec and count.

    Shard i of cfg.shards is seeded by SeedSequence(cfg.seed, spawn_key=(i,)),
    spawn's i-th child built directly, and starts from the all-zero bus; the
    shard histograms add in shard order, and the counters are built once.
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
    """Exact mean transitions over uniform info words and uniform states.

    For differential families the state cancels and the mean is taken over
    info words alone, from the codec's step histogram of all 2^k of them.
    For the uncoded bus and DBI every state has the same mean, the family's
    exact_mean (see DbiCodec.exact_mean).
    """
    if spec.family in (Family.UNCODED, Family.DBI):
        return ExactAverageReport(spec, _FAMILY_CODECS[spec.family].exact_mean(spec))
    if spec.k > _EXHAUSTIVE_INFO_BITS:
        raise ValueError(f"k={spec.k} too large for exhaustive average")
    # the exhaustive mean, even where the family has a closed form
    return ExactAverageReport(spec, _DifferentialCodec.exact_mean(spec))


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
