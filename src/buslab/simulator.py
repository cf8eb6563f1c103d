"""Monte Carlo traces, exhaustive averages, and modulator cost accounting.

Traces drive a codec with uniform random info words from the all-zero bus
state and count line transitions per step. Each shard draws its words in
chunks of 2^17 and adds up the codec's vectorized step_histogram of each: it
forms no bus word and no per-word weight, and runs no per-word Python code.
Randomness comes from numpy's PCG64 seeded through SeedSequence, so runs are
reproducible and a trace can be split into shards with independently derived
child seeds; shards run one after another and merge exactly in a fixed order.

Exact averages are sums, not traces: a differential family's step histogram
over all 2^k info words, or, for the state-dependent uncoded bus and DBI,
n + 1 binomial terms C(n, w) * cost(w) over the weights of the n-bit words.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .analytics import per_codeword_cost
from .codecs import Codec, CodecSpec, Family, OptimalCodec, make_codec
from .combinatorics import Word

__all__ = [
    "TraceConfig",
    "TransitionStats",
    "ExactAverageReport",
    "ConvergenceReport",
    "run_trace",
    "exact_average_distance",
    "clock_model",
    "word_cost",
    "convergence_check",
]

_CHUNK = 1 << 17
_EXHAUSTIVE_INFO_BITS = 20
# state-dependent averages enumerate 2^n states x 2^k inputs
_EXHAUSTIVE_STATE_LINES = 24
_EXHAUSTIVE_STATE_INFO_BITS = 14


@dataclass(frozen=True)
class TraceConfig:
    """One reproducible trace: codec spec, word count, seed, shard count."""

    spec: CodecSpec
    trace_length: int
    seed: int
    shards: int = 1

    def __post_init__(self):
        if self.trace_length < 1:
            raise ValueError(f"trace_length must be >= 1, got {self.trace_length}")
        if not 1 <= self.shards <= self.trace_length:
            raise ValueError(
                f"shards must be in 1..trace_length, got {self.shards}"
            )


@dataclass
class TransitionStats:
    """Accumulated trace counters.

    weight_histogram[w] counts steps that toggled exactly w lines. The
    clock, comparison, and addition counters model the pulse-by-pulse
    modulator and are filled only for the optimal family (additions are
    tracked separately but carry comparison weight in cost totals).
    """

    n_lines: int
    words_sent: int = 0
    total_transitions: int = 0
    weight_histogram: list[int] = field(default_factory=list)
    clock_cycles_total: int = 0
    comparisons_total: int = 0
    additions_total: int = 0

    def __post_init__(self):
        if not self.weight_histogram:
            self.weight_histogram = [0] * (self.n_lines + 1)

    @property
    def mean_transitions(self) -> Fraction:
        return Fraction(self.total_transitions, self.words_sent)

    @property
    def baseline_clock_cycles(self) -> int:
        """Clocks a bit-serial modulator would spend: n per word."""
        return self.n_lines * self.words_sent

    def merge(self, other: "TransitionStats") -> "TransitionStats":
        if self.n_lines != other.n_lines:
            raise ValueError("cannot merge stats for different bus widths")
        return TransitionStats(
            n_lines=self.n_lines,
            words_sent=self.words_sent + other.words_sent,
            total_transitions=self.total_transitions + other.total_transitions,
            weight_histogram=[
                a + b for a, b in zip(self.weight_histogram, other.weight_histogram)
            ],
            clock_cycles_total=self.clock_cycles_total + other.clock_cycles_total,
            comparisons_total=self.comparisons_total + other.comparisons_total,
            additions_total=self.additions_total + other.additions_total,
        )


@dataclass(frozen=True)
class ExactAverageReport:
    """Exhaustive mean transitions per word, exact."""

    spec: CodecSpec
    exact_mean: Fraction
    state_dependent: bool
    per_state: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    mean: Fraction
    reference: Fraction
    rel_deviation: float
    tolerance: float

    @property
    def margin(self) -> float:
        return self.tolerance - self.rel_deviation


def _run_shard(codec: Codec, length: int, seed: np.random.SeedSequence) -> TransitionStats:
    spec = codec.spec
    rng = np.random.Generator(np.random.PCG64(seed))
    hist = 0
    prev = 0
    for start in range(0, length, _CHUNK):
        us = rng.integers(0, 1 << spec.k, size=min(_CHUNK, length - start), dtype=np.uint64)
        hist = hist + codec.step_histogram(us, prev)
        prev = int(us[-1])
    counts = [0] * (spec.n + 1)
    counts[:len(hist)] = hist.tolist()
    total = int(hist @ np.arange(hist.size))
    stats = TransitionStats(
        n_lines=spec.n,
        words_sent=length,
        total_transitions=total,
        weight_histogram=counts,
    )
    if spec.family is Family.OPTIMAL_MPPM:
        # one clock per pulse; n comparisons and 2 additions per pulse, plus
        # d_max + 1 comparisons per word to pick the pulse count
        assert isinstance(codec, OptimalCodec)
        pulses = total
        stats.clock_cycles_total = pulses
        stats.comparisons_total = spec.n * pulses + (codec.d_max + 1) * length
        stats.additions_total = 2 * pulses
    return stats


def run_trace(cfg: TraceConfig) -> TransitionStats:
    """Feed trace_length uniform info words through the codec and count.

    The trace is split into cfg.shards shards with SeedSequence-derived
    child seeds, each starting from the all-zero bus; the shard stats merge
    in shard order.
    """
    codec = make_codec(cfg.spec)
    base, extra = divmod(cfg.trace_length, cfg.shards)
    lengths = [base + (1 if i < extra else 0) for i in range(cfg.shards)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.shards)
    parts = [_run_shard(codec, ln, sq) for ln, sq in zip(lengths, seeds)]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    return merged


def exact_average_distance(
    spec: CodecSpec, include_per_state: bool = False
) -> ExactAverageReport:
    """Exact mean transitions over uniform info words and uniform states.

    For differential families the state cancels and the mean is taken over
    info words alone. For the uncoded bus and DBI the candidate words form a
    subgroup under XOR (all k-bit words; the plain words u << 1), so for a
    state s the words candidate(u) ^ s run over the coset of s, and the
    per-state sum is the bus cost summed over that coset. Uncoded has one
    coset; the two DBI cosets (s & 1) swap under complementing every line,
    which keeps min(w, n - w). So every state has the same sum, and the mean
    is the cost averaged over all n-bit words, grouped by weight:
    sum over w of C(n, w) * cost(w) / 2^n, with cost(w) = w for uncoded and
    min(w, n - w) for DBI.
    """
    if spec.family not in (Family.UNCODED, Family.DBI):
        if spec.k > _EXHAUSTIVE_INFO_BITS:
            raise ValueError(f"k={spec.k} too large for exhaustive average")
        hist = make_codec(spec).step_histogram(np.arange(1 << spec.k, dtype=np.uint64), 0)
        return ExactAverageReport(
            spec=spec,
            exact_mean=Fraction(int(hist @ np.arange(hist.size)), 1 << spec.k),
            state_dependent=False,
        )
    n, k = spec.n, spec.k
    if n > _EXHAUSTIVE_STATE_LINES or k > _EXHAUSTIVE_STATE_INFO_BITS:
        raise ValueError(
            f"k={k}, n={n} too large for the exhaustive state average "
            f"(needs k <= {_EXHAUSTIVE_STATE_INFO_BITS} and n <= {_EXHAUSTIVE_STATE_LINES})"
        )
    mean = _state_average(spec)
    return ExactAverageReport(
        spec=spec,
        exact_mean=mean,
        state_dependent=True,
        per_state=(mean,) * (1 << n) if include_per_state else None,
    )


def _state_average(spec: CodecSpec) -> Fraction:
    """Exact mean transitions of the uncoded bus or DBI at any width: the
    n + 1 binomial terms of exact_average_distance, without its size caps."""
    n, dbi = spec.n, spec.family is Family.DBI
    return Fraction(sum(comb(n, w) * (min(w, n - w) if dbi else w) for w in range(n + 1)), 1 << n)


def clock_model(spec: CodecSpec, u: Word) -> tuple[int, int]:
    """(clocks for the pulse-position modulator, clocks for the bit-serial
    baseline) when encoding u: the pulse count m versus n."""
    if spec.family is not Family.OPTIMAL_MPPM:
        raise ValueError(f"clock_model needs an optimal spec, got {spec.family.value}")
    if u.length != spec.k:
        raise ValueError(f"info word length {u.length} != k={spec.k}")
    codec = spec.codec
    assert isinstance(codec, OptimalCodec)
    return (codec.pulse_count(u.value), spec.n)


def word_cost(spec: CodecSpec, u: Word) -> tuple[int, int]:
    """(comparisons, additions) to encode u with the pulse-based modulator,
    including the d_max + 1 comparisons of the pulse-count selection."""
    m, n = clock_model(spec, u)
    comparisons, additions = per_codeword_cost(n, m)
    return (comparisons + spec.codec.d_max + 1, additions)


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
