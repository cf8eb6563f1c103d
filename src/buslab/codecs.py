"""Encode/decode kernels for every supported bus-encoding family.

All families share one contract: given the previous bus word and the current
info word, produce the next bus word; decoding inverts it. The differential
families (optimal, coset, and ppm0: optimal at d_max = 1) map the info word
to a low-weight differential d and transmit x = d XOR x_prev, so each step
toggles exactly weight(d) lines. Each codec's _encode/_decode is its whole
kernel, the XOR with the state included. Codec.encode_int/decode_int hold
the state and x to [0, 2^n) and u to [0, 2^k) once for every family, then
call it; buslab.encode/decode call it directly, as a Word of the right
length is in range. Each codec class also carries its family's facts
(required_b, caps, exact_mean, trace_counters, step_histogram), found
through the one registry _FAMILY_CODECS.

Layout conventions: bit i = bus line i, line 0 = LSB. The DBI indicator
occupies line 0, with the data word on lines 1..k, so the transmitted word
is the info word concatenated with a 0, or its complement concatenated with
a 1 (line 0 printed rightmost).
"""
from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import comb
from operator import index

import numpy as np

from . import analytics
from .combinatorics import BinomialTable, Word, _byte_rank, _byte_unrank, _set_length, _set_value

__all__ = [
    "MAX_OPTIMAL_LINES",
    "MAX_PPM0_INFO_BITS",
    "CorruptedWordError",
    "Family",
    "LinearCode",
    "CodecSpec",
    "BusState",
    "Codec",
    "UncodedCodec",
    "DbiCodec",
    "Ppm0Codec",
    "OptimalCodec",
    "CosetCodec",
    "uncoded_spec",
    "dbi_spec",
    "ppm0_spec",
    "optimal_spec",
    "coset_spec",
    "coset_spec_for",
    "make_codec",
    "encode",
    "decode",
    "make_repetition",
    "make_hamming",
    "make_golay23",
    "min_distance",
]

MAX_OPTIMAL_LINES = 64
MAX_PPM0_INFO_BITS = 20
MAX_SYNDROME_BITS = 16
_WORD_LINES = 64  # the widest code whose coset leaders fit a 64-bit word
_STEP_PAIRS = 1 << 14  # candidates per step of the coset leader build


class CorruptedWordError(ValueError):
    """A received bus word cannot have been emitted from the current state."""


class Family(enum.Enum):
    UNCODED = "uncoded"
    DBI = "dbi"
    PPM0 = "ppm0"
    OPTIMAL_MPPM = "optimal"
    COSET = "coset"


# ---------------------------------------------------------------------------
# GF(2) linear codes
# ---------------------------------------------------------------------------

def _gf2_reduce(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """Reduced echelon form: a (pivot bit, row) pair per independent row."""
    reduced: list[tuple[int, int]] = []
    for row in rows:
        for pivot, r in reduced:
            if row & pivot:
                row ^= r
        if row:
            pivot = row & -row
            for idx, (p, r) in enumerate(reduced):
                if r & pivot:
                    reduced[idx] = (p, r ^ row)
            reduced.append((pivot, row))
    return reduced


def _gf2_kernel_basis(rows: tuple[int, ...], width: int) -> list[int]:
    """Basis of {x : every row has even overlap with x}, rows as bitmasks:
    each free column's unique completion, read off the pivot rows."""
    reduced = _gf2_reduce(rows)
    pivots = sum(p for p, _ in reduced)  # distinct bits: the sum is their OR
    return [bit + sum(p for p, r in reduced if r & bit)
            for bit in (1 << c for c in range(width)) if not pivots & bit]


@dataclass(frozen=True)
class LinearCode:
    """Binary linear code, described by its parity-check rows.

    h_rows[r] is parity row r as a bitmask over the code's lines; the
    syndrome of a word sets bit r when row r overlaps it an odd number of
    times. The rows must be independent, so the code's dimension is the
    line count less the row count.
    """

    name: str
    length: int
    h_rows: tuple[int, ...]

    def __post_init__(self):
        # Python ints, as CodecSpec takes them: no numpy scalar, no float
        object.__setattr__(self, "length", index(self.length))
        object.__setattr__(self, "h_rows", tuple(map(index, self.h_rows)))
        for row in self.h_rows:
            if not 0 <= row < (1 << self.length):
                raise ValueError(f"{self.name}: parity row {row:#x} out of range")
        # independent rows keep one pivot each: no pass over every line
        if len(_gf2_reduce(self.h_rows)) != len(self.h_rows):
            raise ValueError(f"{self.name}: parity rows are not linearly independent")

    @property
    def dimension(self) -> int:
        return self.length - len(self.h_rows)

    @property
    def syndrome_bits(self) -> int:
        return len(self.h_rows)

    def syndrome(self, word: int) -> int:
        s = 0
        for r, row in enumerate(self.h_rows):
            s |= ((row & word).bit_count() & 1) << r
        return s

    @cached_property
    def line_syndromes(self) -> tuple[int, ...]:
        """Column i of H (the syndrome of line i alone): bit r of column i is
        bit i of row r, each row unpacked to one byte per line and shifted in."""
        n = self.length
        cols = np.zeros(n, np.uint64 if self.syndrome_bits <= 64 else object)
        for r, row in enumerate(self.h_rows):
            line_bits = np.frombuffer(row.to_bytes((n + 7) // 8, "little"), np.uint8)
            cols |= np.unpackbits(line_bits, count=n, bitorder="little").astype(cols.dtype) << r
        return tuple(cols.tolist())


def make_repetition(n_lines: int) -> LinearCode:
    """(N, 1) repetition code; parity row r ties line r to the last line."""
    n_lines = index(n_lines)  # before 1 << ..., which a numpy scalar would wrap
    if n_lines < 2:
        raise ValueError(f"repetition code needs at least 2 lines, got {n_lines}")
    top = 1 << (n_lines - 1)
    rows = tuple((1 << r) | top for r in range(n_lines - 1))
    return LinearCode(name=f"repetition({n_lines},1)", length=n_lines, h_rows=rows)


def make_hamming(m: int) -> LinearCode:
    """(2^m - 1, 2^m - 1 - m) Hamming code; column c holds the value c + 1."""
    m = index(m)
    if m < 2:
        raise ValueError(f"Hamming parameter m must be >= 2, got {m}")
    n_lines = (1 << m) - 1
    # row r: bit r of the values n..1 (line 0 rightmost), runs of 2^r 0s and 1s
    rows = tuple(
        int((("0" * h + "1" * h) * ((n_lines + 1) // (2 * h)))[:0:-1], 2)
        for h in (1 << r for r in range(m))
    )
    return LinearCode(name=f"hamming({n_lines},{n_lines - m})", length=n_lines, h_rows=rows)


# Generator polynomial x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1 of the
# (23, 12) Golay code, as a coefficient bitmask.
_GOLAY_POLY = 0xC75


def _polymod(a: int, g: int) -> int:
    gd = g.bit_length() - 1
    while a and a.bit_length() - 1 >= gd:
        a ^= g << (a.bit_length() - 1 - gd)
    return a


def make_golay23() -> LinearCode:
    """(23, 12) Golay code in systematic form, message on lines 0..11.

    Parity rows combine the transposed parity block of the polynomial
    encoder with an identity on lines 12..22; the construction is validated
    by the exhaustive minimum-distance scan in the test suite.
    """
    parity = [_polymod(1 << (11 + i), _GOLAY_POLY) for i in range(12)]
    rows = []
    for r in range(11):
        row = 1 << (12 + r)
        for i in range(12):
            if (parity[i] >> r) & 1:
                row |= 1 << i
        rows.append(row)
    return LinearCode(name="golay(23,12)", length=23, h_rows=tuple(rows))


def min_distance(code: LinearCode) -> int:
    """Minimum weight over all nonzero codewords, by exhaustive enumeration."""
    if code.dimension > 20:
        raise ValueError(
            f"{code.name}: dimension {code.dimension} too large for exhaustive scan"
        )
    basis = _gf2_kernel_basis(code.h_rows, code.length)  # rows checked independent when built
    # messages in Gray-code order: step msg flips the basis vector of msg's lowest set bit
    best = code.length
    c = 0
    for msg in range(1, 1 << code.dimension):
        c ^= basis[(msg & -msg).bit_length() - 1]
        best = min(best, c.bit_count())
    return best


class _TopLines:
    """Coset leaders past 64 lines, read back as ints from each syndrome's top
    line: leader(s) is line tops[s] plus the leader of s ^ (its column)."""

    __slots__ = ("tops", "cols")

    def __init__(self, tops: array, cols: tuple[int, ...]):
        self.tops, self.cols = tops, cols

    def __getitem__(self, s: int) -> int:
        e = 0
        while s:  # one step per line of the leader, as coset decode takes
            t = self.tops[s]
            e |= 1 << t
            s ^= self.cols[t]
        return e


def _build_coset_leaders(code: LinearCode) -> tuple[array | _TopLines, np.ndarray]:
    """Leaders tier by tier, each the lowest pattern of its weight by integer
    value, for the syndromes that no lighter pattern reaches.

    Let P be the lowest weight-(w + 1) pattern of an unreached syndrome s,
    and h its top line. P less h is the weight-w leader of s ^ (column h): a
    lighter pattern there, with h toggled, would reach s in at most w lines,
    and a lower weight-w one below h would, with h, undercut P. A tier kept
    in integer order has sorted top lines, so the leaders below h are a
    prefix of it, and the extensions for h = 0, 1, ... run in integer order:
    the first to reach an unseen syndrome leads it. The loop cannot stall:
    each line h of a syndrome's lowest pattern, of weight W, gives a leader
    of weight W - 1 at s ^ (column h), so every tier up to W is nonempty.

    A step takes the next _STEP_PAIRS (line, leader below it) pairs, about
    1 MiB of arrays however wide the code, and the build ends at the step
    that reaches the last syndrome. Each step stores its leaders at once,
    from the previous tier's, already stored: a word, the one below it with
    line h set, for n <= 64, else the top line h alone. Only the previous
    tier's syndromes and top lines are carried. uint32 holds any 16-bit
    syndrome. Returns the leaders, in CosetCodec's store, and their weights.
    """
    n, left = code.length, (1 << code.syndrome_bits) - 1  # the empty pattern leads 0
    cols, lines = np.array(code.line_syndromes, np.uint32), np.arange(n)
    weights = np.zeros(left + 1, np.uint8)  # 0 until a tier reaches the syndrome
    syn, tops, w = np.zeros(1, np.uint32), np.array([-1]), 0  # tier 0: no lines
    store = array("Q" if n <= _WORD_LINES else "H" if n <= 0xFFFF else "I", [0]) * (left + 1)
    view = np.frombuffer(store, store.typecode)  # each step writes its leaders here
    bits = np.uint64(1) << lines[:_WORD_LINES].astype(np.uint64)  # read for n <= 64 only
    while left:
        w += 1
        below = np.searchsorted(tops, lines)  # the leaders below line h, a prefix
        ends, steps = np.cumsum(below), []  # pairs numbered h-major: integer order
        for start in range(0, int(ends[-1]), _STEP_PAIRS):
            j = np.arange(start, min(start + _STEP_PAIRS, ends[-1]))
            h = np.searchsorted(ends, j, "right")  # pair j's line, i its leader
            i = j - ends[h] + below[h]
            s = syn[i] ^ cols[h]
            found, first = np.unique(s, return_index=True)
            new = np.zeros(s.size, bool)  # a mask keeps the pairs' order: no sort
            new[first[(weights[found] == 0) & (found != 0)]] = True
            s, h, i = s[new], h[new], i[new]
            weights[s], left = w, left - s.size
            view[s] = view[syn[i]] | bits[h] if n <= _WORD_LINES else h
            steps.append((s, h))
            if not left:
                break
        syn, tops = (np.concatenate(a) for a in zip(*steps))
    return (store if n <= _WORD_LINES else _TopLines(store, code.line_syndromes)), weights


# ---------------------------------------------------------------------------
# Codec specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecSpec:
    """Parameters of one bus codec: k info bits, b added lines, n = k + b."""

    family: Family
    k: int
    b: int
    code: LinearCode | None = None

    def __post_init__(self):
        if not isinstance(self.family, Family):  # before any lookup keyed by it
            raise TypeError(f"family must be a Family, got {self.family!r}")
        # Python ints, as Codec.encode_int takes them: no numpy scalar, no float
        object.__setattr__(self, "k", index(self.k))
        object.__setattr__(self, "b", index(self.b))
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")
        if self.code is None and self.family is Family.COSET:
            raise ValueError("coset spec requires a linear code")
        if self.code is not None and self.family is not Family.COSET:
            raise ValueError(f"{self.family.value} spec does not take a linear code")
        _FAMILY_CODECS[self.family].check(self)

    @property
    def n(self) -> int:
        return self.k + self.b

    @cached_property
    def codec(self) -> "Codec":
        """The spec's codec, resolved on first use; equal specs share one."""
        return make_codec(self)

    def __reduce__(self):
        # pickle the fields only: an unpickled spec resolves its codec afresh
        return (CodecSpec, (self.family, self.k, self.b, self.code))


def uncoded_spec(k: int) -> CodecSpec:
    return CodecSpec(Family.UNCODED, k, 0)


def dbi_spec(k: int) -> CodecSpec:
    return CodecSpec(Family.DBI, k, 1)


def ppm0_spec(k: int) -> CodecSpec:
    k = index(k)  # before 1 << k, which a numpy scalar would wrap
    return CodecSpec(Family.PPM0, k, Ppm0Codec.required_b(k))


def optimal_spec(k: int, b: int) -> CodecSpec:
    return CodecSpec(Family.OPTIMAL_MPPM, k, b)


def coset_spec(code: LinearCode) -> CodecSpec:
    return CodecSpec(Family.COSET, code.syndrome_bits, code.dimension, code)


def coset_spec_for(k: int, b: int) -> CodecSpec:
    """Resolve (k, b) to one of the stock coset constructions.

    b = 1 gives the repetition code on k+1 lines; b = 2^k - 1 - k gives the
    Hamming code with k parity bits; (11, 12) gives the Golay code.
    """
    k, b = index(k), index(b)  # as CodecSpec takes them, before 1 << k
    if k < 1:  # CodecSpec's own text, before a repetition code of k + 1 < 2 lines
        raise ValueError(f"k={k} must be >= 1")
    if k > MAX_SYNDROME_BITS:  # each has k syndrome bits: fail before any build
        raise ValueError(f"coset k={k} exceeds the {MAX_SYNDROME_BITS}-bit syndrome table cap")
    if (k, b) == (11, 12):
        return coset_spec(make_golay23())
    if b == 1:
        return coset_spec(make_repetition(k + 1))
    if k >= 2 and b == (1 << k) - 1 - k:
        return coset_spec(make_hamming(k))
    raise ValueError(
        f"no stock coset construction for k={k}, b={b}; "
        "supported: b=1 (repetition), b=2^k-1-k (hamming), (11,12) (golay)"
    )


@dataclass(frozen=True, slots=True)
class BusState:
    """Previous word on the bus; all-zero at trace start."""

    x_prev: Word


# ---------------------------------------------------------------------------
# Codec kernels
# ---------------------------------------------------------------------------

class Codec:
    """Common interface and its one int-level range check; subclasses implement
    the kernels _encode/_decode and carry their family's facts as class attributes."""

    max_lines: int | None = MAX_OPTIMAL_LINES
    max_k: int | None = None  # ppm0 caps k instead: its n is 2^k - 1
    fixed_b: int | None = None

    @classmethod
    def required_b(cls, k: int) -> int | None:
        """The b the family needs for k info bits, or None when b is free."""
        return cls.fixed_b

    @classmethod
    def check(cls, spec: CodecSpec) -> None:
        """Raise ValueError unless the spec's k and b suit the family."""
        b = cls.required_b(spec.k)
        if b is not None and spec.b != b:
            raise ValueError(f"{spec.family.value} with k={spec.k} requires b={b}, got b={spec.b}")
        if spec.b < 0:
            raise ValueError(f"b={spec.b} must be >= 0")
        if cls.max_k is not None and spec.k > cls.max_k:
            raise ValueError(f"{spec.family.value} supports k <= {cls.max_k}, got {spec.k}")
        if cls.max_lines is not None and spec.n > cls.max_lines:
            raise ValueError(f"bus width capped at {cls.max_lines} lines, got n={spec.n}")

    @staticmethod
    def exact_mean(spec: CodecSpec) -> Fraction:
        """Exact mean lines toggled per word; the closed forms build no codec.
        Here d_opt, the mean weight of the 2^k lightest n-tuples: optimal's;
        ppm0's, at d_min as n = 2^k - 1; DBI's, as its steps from any state
        weigh as the leaders of the repetition(n) code's cosets, a perfect
        code for odd n and quasi-perfect for even n (MacWilliams & Sloane,
        ch. 6). Uncoded keeps k/2 = d_opt(k, 0), sparing k binomials."""
        return analytics.d_opt(spec.k, spec.b)

    def trace_counters(self, pulses: int, words: int) -> tuple[int, int, int]:
        """(clocks, comparisons, additions) of a trace of words info words
        toggling pulses lines in all; only the optimal modulator counts."""
        return (0, 0, 0)

    def __init__(self, spec: CodecSpec):
        self.spec = spec
        self._k = spec.k
        self._n = spec.n
        self._size = 1 << spec.k

    # the one range check, in O(1): the state and x against n, then u against k;
    # index() first, so a numpy scalar is a Python int and a float a TypeError
    def encode_int(self, state: int, u: int) -> int:
        state, u = index(state), index(u)
        if state < 0 or state.bit_length() > self._n:
            raise ValueError(f"bus value outside [0, 2^{self._n}) for n={self._n}")
        if not 0 <= u < self._size:
            raise ValueError(f"info value {u} out of range for k={self._k}")
        return self._encode(state, u)

    def decode_int(self, state: int, x: int) -> int:
        state, x = index(state), index(x)
        if x < 0 or state < 0 or x.bit_length() > self._n or state.bit_length() > self._n:
            raise ValueError(f"bus value outside [0, 2^{self._n}) for n={self._n}")
        return self._decode(state, x)

    # pure int kernels: each family's, run on values already in range
    def _encode(self, state: int, u: int) -> int:
        raise NotImplementedError

    def _decode(self, state: int, x: int) -> int:
        raise NotImplementedError

    def step_histogram(self, us: np.ndarray, prev: int) -> np.ndarray:
        """int64 counts of a chunk of info words' steps by lines toggled, one
        entry per weight up to the family's heaviest step. A trace's chunks
        are uint32 for k <= 32, else uint64, as simulator._draw makes them.

        prev is the info word sent just before the chunk (0 at trace start,
        where the bus is all-zero); differential families ignore it.
        """
        raise NotImplementedError


class _DifferentialCodec(Codec):
    """Family whose differential word depends only on the info word."""

    def differential_int(self, u: int) -> int:
        return self.encode_int(0, u)

    def info_int(self, d: int) -> int:
        return self.decode_int(0, d)


class UncodedCodec(Codec):
    """Identity: the info word goes on the bus unchanged."""

    fixed_b = 0

    @staticmethod
    def exact_mean(spec: CodecSpec) -> Fraction:
        return analytics.d_unc(spec.k)

    def _encode(self, state: int, u: int) -> int:
        return u

    def _decode(self, state: int, x: int) -> int:
        return x

    def step_histogram(self, us: np.ndarray, prev: int) -> np.ndarray:
        return _xor_histogram(us, prev, self._k)


class DbiCodec(Codec):
    """Send the word or its complement, whichever is nearer the bus state.

    Ties go to the non-inverted candidate. Decoding reads the indicator on
    line 0 and needs no state.
    """

    fixed_b = 1

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        self._ones = (1 << spec.n) - 1

    def _encode(self, state: int, u: int) -> int:
        # the inverted form is the plain one XOR all-ones, so it differs from
        # the state in n minus the plain form's lines: one popcount decides
        plain = u << 1
        return plain if 2 * (plain ^ state).bit_count() <= self._n else plain ^ self._ones

    def _decode(self, state: int, x: int) -> int:
        return (x ^ self._ones) >> 1 if x & 1 else x >> 1

    def step_histogram(self, us: np.ndarray, prev: int) -> np.ndarray:
        # Whichever form the previous word took, the two candidates differ from
        # it in w and n - w lines (w on the info words): fold w > n/2 onto n - w.
        h = _xor_histogram(us, prev, self._k)
        n = self._n
        h[1:n - n // 2] += h[:n // 2:-1]
        return h[:n // 2 + 1]


class OptimalCodec(_DifferentialCodec):
    """Differential codebook of the 2^k lowest-weight n-tuples.

    The info value u selects the pulse count m (the first tier sum
    exceeding u) and the colex rank u minus the previous tier sum within
    that tier. Within the top tier only the first 2^k - (tier sum below)
    patterns in rank order are ever emitted; the decoder rejects anything
    past that bound as corrupted. One kernel pair is bound per codec, from
    d_max, and nothing is kept per info word. For d_max >= 2 unrank toggles
    the tier's rank onto the bus state, and rank decodes: by the byte walk
    for every word when d_max > n // 4 + 1, which makes most words dense,
    else by the pulse walk of a binomial table. At d_max = 1 the
    codebook is 0 and the pulses 1 << (u - 1), no table is built, and decode
    tests for a power of two, not a popcount, as d may span 2^20 - 1 lines
    (ppm0 at k = 20).
    """

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        self.d_max = analytics.d_max(spec.k, spec.b)
        self.tier_sums = tuple(accumulate(comb(spec.n, m) for m in range(self.d_max + 1)))
        # _bases[m] is the first info value of the weight-m tier, below 2^k for m <= d_max
        self._bases = (0, *self.tier_sums)
        self._floors = np.array(self._bases[:self.d_max + 1], np.uint64)
        if self.d_max == 1:
            self._encode, self._decode = self._pulse_encode, self._pulse_decode
        elif self.d_max > spec.n // 4 + 1:  # no table: n <= 64, the byte bank's lines
            self._unrank, self._rank = _byte_unrank, _byte_rank
        else:
            table = BinomialTable(spec.n)
            self._unrank, self._rank = table._unrank, table._rank

    def trace_counters(self, pulses: int, words: int) -> tuple[int, int, int]:
        return analytics._modulator_counts(self._n, self.d_max, pulses, words)

    def step_histogram(self, us: np.ndarray, prev: int) -> np.ndarray:
        return _tier_histogram(us, self.tier_sums, self._floors)

    def _encode(self, state: int, u: int) -> int:
        m = bisect_right(self.tier_sums, u)
        # u < 2^k <= tier_sums[d_max] puts m <= d_max <= n and the rank below C(n, m)
        return self._unrank(u - self._bases[m], m, self._n, state)

    def _decode(self, state: int, x: int) -> int:
        d = x ^ state
        m = d.bit_count()
        if m > self.d_max:
            raise CorruptedWordError(f"differential weight {m} exceeds d_max={self.d_max}")
        rank = self._rank(d, m)  # d < 2^n, with n the table's n_max or at most 64
        u = self._bases[m] + rank
        if u >= self._size:
            raise CorruptedWordError(f"weight-{m} rank {rank} is outside the emitted codebook")
        return u

    @staticmethod
    def _pulse_encode(state: int, u: int) -> int:
        return state ^ (1 << (u - 1)) if u else state

    def _pulse_decode(self, state: int, x: int) -> int:
        d = x ^ state
        u = d.bit_length()  # pulse u - 1: rank u - 1 of tier 1, whose base is 1
        if u and d != 1 << (u - 1):
            raise CorruptedWordError(f"differential weight {d.bit_count()} exceeds d_max=1")
        if u >= self._size:
            raise CorruptedWordError(f"weight-1 rank {u - 1} is outside the emitted codebook")
        return u


class Ppm0Codec(OptimalCodec):
    """The optimal code at n = 2^k - 1 (d_max = 1), capped by k, counting no clocks."""

    max_lines = None
    max_k = MAX_PPM0_INFO_BITS
    trace_counters = Codec.trace_counters

    @classmethod
    def required_b(cls, k: int) -> int:
        return (1 << k) - 1 - k


class CosetCodec(_DifferentialCodec):
    """Differential is the coset leader whose syndrome is the info word: the
    minimum-weight pattern of the syndrome's coset, the lowest integer among
    its patterns of least weight.

    differential_int(u) reads leader u, and weights[u] is its weight, a uint8
    (at most k <= 16 columns of H reach any syndrome); tier_counts() counts
    the leaders of each weight. The store is chosen by the code's width n,
    and neither holds an n-bit int per syndrome:
    - n <= 64: one 64-bit word per syndrome, an array('Q'), so a leader is
      one lookup;
    - n > 64: no word holds a leader, so each syndrome keeps only its
      leader's top line, an array('H'), or 'I' past 65,535 lines, and a
      read walks the top lines down to syndrome 0, one step per line.
      Hamming(16)'s top lines take 128 KiB.
    Decode XORs H's columns at the toggled lines: by 8-line blocks, from a
    table of each pattern's XOR, if n <= 64 and the heaviest leader has a
    line per block (repetition, Golay, Hamming(2..3)); else line by line.
    """

    @classmethod
    def check(cls, spec: CodecSpec) -> None:
        code = spec.code
        if spec.k != code.syndrome_bits:
            raise ValueError(f"coset k={spec.k} != syndrome bits {code.syndrome_bits}")
        if spec.n != code.length:
            raise ValueError(f"coset n={spec.n} != code length {code.length}")
        if spec.k > MAX_SYNDROME_BITS:
            raise ValueError(
                f"{code.name}: {spec.k} syndrome bits exceed the {MAX_SYNDROME_BITS}-bit table cap"
            )

    @staticmethod
    def exact_mean(spec: CodecSpec) -> Fraction:
        # the leaders' mean weight: d_opt for every stock code, not for every code
        tiers = spec.codec.tier_counts()
        return Fraction(sum(w * c for w, c in enumerate(tiers)), 1 << spec.k)

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        self._leaders, self.weights = _build_coset_leaders(spec.code)
        self._heaviest = int(self.weights.max())
        self._lines = lines = spec.code.line_syndromes
        self._blocks = ()  # decode's tables, one per 8-line block from line 0 up
        if spec.n <= _WORD_LINES and self._heaviest >= -(-spec.n // 8):  # a line per block
            # by doubling: each line's column XORed onto every pattern so far
            self._blocks = [reduce(lambda t, c: t + [v ^ c for v in t], lines[h:h + 8], [0])
                            for h in range(0, spec.n, 8)]
        # leaders that never get lighter as the syndrome rises (every Hamming code's) are
        # tiers of consecutive info words: optimal's count, from each weight's first syndrome
        sums = np.searchsorted(self.weights, np.arange(self._heaviest + 1), "right")
        self._tiers = ((tuple(sums.tolist()), np.array([0, *sums[:-1]], np.uint64))
                       if np.all(self.weights[1:] >= self.weights[:-1]) else None)

    def tier_counts(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.weights).tolist())

    def _encode(self, state: int, u: int) -> int:
        return self._leaders[u] ^ state

    def _decode(self, state: int, x: int) -> int:
        d, s = x ^ state, 0  # an emitted word toggles a leader: at most covering-radius lines
        # a branch, not a _decode bound per instance: one in the instance's dict keeps
        # decode()'s call site from specializing, and the next op's pairs ran 2-5% slower
        if self._blocks:
            for table in self._blocks:
                s ^= table[d & 255]
                d >>= 8
            return s
        lines = self._lines
        while d:
            i = d.bit_length() - 1
            s ^= lines[i]
            d ^= 1 << i
        return s

    def step_histogram(self, us: np.ndarray, prev: int) -> np.ndarray:
        if self._tiers:
            return _tier_histogram(us, *self._tiers)
        # a word toggles at least j lines iff its leader weighs >= j: count, then
        # diff (np.take: fancy indexing is 3x slower; _xor_histogram's paired
        # weights took Golay 184 -> 377 us, Hamming(15) 197 -> 433 us per 2^17 words)
        w = np.take(self.weights, us)
        at_least = (np.count_nonzero(w >= j) for j in range(1, self._heaviest + 1))
        return -np.diff([us.size, *at_least, 0])


def _tier_histogram(us: np.ndarray, sums: tuple[int, ...], floors: np.ndarray) -> np.ndarray:
    """int64 counts of a chunk's words by step weight, for a code whose weight-m
    words are the info words floors[m] = sums[m - 1] (0 at m = 0) to sums[m] - 1."""
    # A word has at least m pulses iff u >= sums[m - 1] (u != 0 at m = 1: no mask).
    # With more tiers than the chunk's length has bits, one searchsorted over a sorted copy
    # (the caller reads the chunk's last word) counts the words below each floor; else a
    # pass per tier, past 3 tiers only between the extremes, as below it the scans cost more.
    d_max, size = len(sums) - 1, us.size
    if d_max > size.bit_length():
        h = np.searchsorted(np.sort(us), floors.astype(us.dtype), side="left")
        h[:-1], h[-1] = h[1:] - h[:-1], size - h[-1]
        return h
    lo, hi = (0, d_max) if d_max <= 3 else (
        bisect_right(sums, int(us.min())), bisect_right(sums, int(us.max())))
    counts = [size] * (lo + 1) + [np.count_nonzero(us >= t if t > 1 else us)
                                  for t in sums[lo:hi]] + [0] * (d_max - hi + 1)
    return np.array([a - b for a, b in zip(counts, counts[1:])], dtype=np.int64)


def _xor_histogram(us: np.ndarray, prev: int, k: int) -> np.ndarray:
    """k + 1 counts of popcount(u XOR the word before it; prev for the first).

    bincount stalls on a few hot bins, so it counts the weights two at a
    time: each uint16 of the uint8 weights holds two neighbouring weights,
    and their joint counts fold along both axes (so either byte order), the
    odd last weight counted alone."""
    d = np.empty_like(us)
    np.bitwise_xor(us[1:], us[:-1], out=d[1:])
    d[0] = int(us[0]) ^ int(prev)
    w = np.bitwise_count(d)
    pairs = w[: w.size & ~1].view(np.uint16)
    joint = np.bincount(pairs, minlength=(k + 1) << 8).reshape(k + 1, 256)[:, : k + 1]
    h = joint.sum(0) + joint.sum(1)
    if w.size & 1:
        h[w[-1]] += 1
    return h


_FAMILY_CODECS = {
    Family.UNCODED: UncodedCodec,
    Family.DBI: DbiCodec,
    Family.PPM0: Ppm0Codec,
    Family.OPTIMAL_MPPM: OptimalCodec,
    Family.COSET: CosetCodec,
}


@lru_cache(maxsize=64)
def make_codec(spec: CodecSpec) -> Codec:
    """Build (and share, since codecs are immutable) the codec for a spec."""
    return _FAMILY_CODECS[spec.family](spec)


_new = object.__new__  # encode/decode's result Words, built in their slots


def encode(spec: CodecSpec, state: BusState, u: Word) -> Word:
    """Next bus word for info word u from the given state.

    A Word holds 0 <= value < 2^length, so equal lengths put the state and u
    in range: no encode_int check. Every kernel then keeps its result below
    2^n, so the result Word is built in its slots, unchecked: uncoded returns
    u < 2^k = 2^n; DBI's u << 1 < 2^n, and its complement, stay on n lines;
    optimal's unrank toggles lines below n, and at d_max = 1 (ppm0's) its pulse
    is line u - 1 < n, as the n + 1 words of weight <= 1 hold all 2^k; coset
    leaders have n lines; and the XOR with a state below 2^n stays below 2^n.
    """
    codec, s = spec.codec, state.x_prev
    n = codec._n
    if s.length != n:
        raise ValueError(f"state length {s.length} != n={n}")
    if u.length != codec._k:
        raise ValueError(f"info word length {u.length} != k={codec._k}")
    x = _new(Word)
    _set_value(x, codec._encode(s.value, u.value))
    _set_length(x, n)
    return x


def decode(spec: CodecSpec, state: BusState, x: Word) -> Word:
    """Recover the info word from the received bus word and the state.

    A Word holds 0 <= value < 2^length, so equal lengths put the state and x
    in [0, 2^n). Every kernel then returns a value below 2^k or raises, so the
    result Word is built in its slots, unchecked: uncoded returns x < 2^n =
    2^k; DBI's x >> 1 (of x or its complement) has n - 1 = k lines; optimal,
    ppm0 included, raises CorruptedWordError unless u < 2^k; and coset XORs
    k-bit columns of H.
    """
    codec, s = spec.codec, state.x_prev
    n = codec._n
    if s.length != n:
        raise ValueError(f"state length {s.length} != n={n}")
    if x.length != n:
        raise ValueError(f"bus word length {x.length} != n={n}")
    u = _new(Word)
    _set_value(u, codec._decode(s.value, x.value))
    _set_length(u, codec._k)
    return u
