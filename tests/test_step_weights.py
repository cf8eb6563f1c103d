"""Each codec's vectorized step_histogram kernel against its scalar path.

A one-word chunk must count one step, at weight(differential_int(u)) for a
differential family, or at the lines a scalar encode_int step toggles for
DBI and the uncoded bus. A whole chunk must count the scalar weights of all
its steps. Small info spaces are checked exhaustively, wide ones (k = 24,
40, 64 and DBI up to k = 63) on sampled words, and the optimal kernel's
counting paths on whole drawn chunks of the lengths that select them. Every
histogram has one entry per weight up to the family's heaviest step,
whatever the chunk holds. Chunks carry the words a trace draws: uint32 for
k <= 32, uint64 above.
"""
from bisect import bisect_right
from functools import cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buslab.codecs import (
    _xor_histogram,
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
from buslab.simulator import TraceConfig, _draw, run_trace

SMALL_DIFFERENTIAL = (
    [optimal_spec(k, b) for k in range(1, 9) for b in range(0, 13 - k)]
    + [optimal_spec(11, 12), optimal_spec(12, 12), optimal_spec(12, 0)]
    + [ppm0_spec(k) for k in range(1, 11)]
    + [coset_spec(make_repetition(n)) for n in (2, 5, 9)]
    + [coset_spec(make_hamming(m)) for m in (2, 3, 4)]
    + [coset_spec(make_golay23())]
)
WIDE_DIFFERENTIAL = (
    optimal_spec(20, 20), optimal_spec(24, 0), optimal_spec(24, 16),
    optimal_spec(32, 32), optimal_spec(40, 0), optimal_spec(40, 24),
    optimal_spec(63, 1), optimal_spec(64, 0), ppm0_spec(16), ppm0_spec(20),
    coset_spec(make_repetition(17)),
)
STATEFUL = [uncoded_spec(k) for k in (1, 2, 3, 5, 8, 24, 40, 63, 64)] + [
    dbi_spec(k) for k in (1, 2, 3, 5, 8, 16, 24, 40, 62, 63)
]
WIDE_STATEFUL = [s for s in STATEFUL if s.k > 5]
WIDE_OPTIMAL = [s for s in WIDE_DIFFERENTIAL if s.family.value == "optimal"]
# (spec, chunk length) a trace draws, by the optimal kernel's counting path: one sort when
# d_max exceeds the length's bit count, else a pass per tier, between the chunk's extremes
# past d_max = 3 and over every tier at d_max <= 3
OPTIMAL_PATHS = {
    "sort": [(optimal_spec(64, 0), 1_000), (optimal_spec(64, 0), 1 << 16),
             (optimal_spec(63, 1), 1_000), (optimal_spec(63, 1), 1 << 16),
             (optimal_spec(40, 24), 1_000)],
    "extremes": [(optimal_spec(40, 24), 1 << 16)],
    "every-tier": [(ppm0_spec(16), 1 << 17), (optimal_spec(11, 12), 1 << 17)],
}


def _label(spec):
    return f"{spec.family.value}-{spec.k}-{spec.b}"


PATH_CASES = [pytest.param(spec, size, id=f"{path}-{_label(spec)}-{size}")
              for path, cases in OPTIMAL_PATHS.items() for spec, size in cases]


@cache
def _word_dtype(k):
    """The dtype of the chunks a trace draws and feeds step_histogram."""
    return _draw(np.random.PCG64(0), k, 1).dtype


def _words(values, codec):
    """The chunk a trace draws: uint32 words for k <= 32, uint64 above."""
    return np.array(values, dtype=_word_dtype(codec.spec.k))


@cache
def _heaviest(spec):
    """Most lines one step can toggle, from the family's definition."""
    family, k, n = spec.family.value, spec.k, spec.n
    if family == "uncoded":
        return k
    if family == "dbi":
        return n // 2
    if family == "ppm0":
        return 1
    if family == "optimal":  # fewest pulses whose patterns number 2^k or more
        m = 0
        while sum(comb(n, i) for i in range(m + 1)) < 1 << k:
            m += 1
        return m
    codec = make_codec(spec)
    return max(codec.differential_int(s).bit_count() for s in range(1 << spec.k))


def _counts(weights, spec):
    return np.bincount(np.array(weights, dtype=np.int64), minlength=_heaviest(spec) + 1).tolist()


def _one_hot(weight, spec):
    return _counts([weight], spec)


def _hist(codec, us, prev):
    return codec.step_histogram(_words(us, codec), prev).tolist()


def _scalar_walk(codec, us, prev):
    """Weights of a scalar encode_int walk from the all-zero bus over prev, us."""
    state = codec.encode_int(0, prev)
    out = []
    for u in us:
        x = codec.encode_int(state, u)
        out.append((x ^ state).bit_count())
        state = x
    return out


def _bus_forms(spec, prev):
    """Every bus word the info word prev can have been sent as."""
    if spec.family.value == "uncoded":
        return [prev]
    return [prev << 1, ((prev ^ ((1 << spec.k) - 1)) << 1) | 1]


@pytest.mark.parametrize("spec", SMALL_DIFFERENTIAL, ids=_label)
def test_differential_kernel_exhaustive(spec):
    codec = make_codec(spec)
    space = range(1 << spec.k)
    expected = [codec.differential_int(u).bit_count() for u in space]
    for prev in (0, (1 << spec.k) - 1):  # the bus state cancels
        assert _hist(codec, space, prev) == _counts(expected, spec)
        for u in space:
            assert _hist(codec, [u], prev) == _one_hot(expected[u], spec)


@pytest.mark.parametrize("spec", WIDE_OPTIMAL, ids=_label)
def test_optimal_kernel_at_tier_boundaries(spec):
    codec = make_codec(spec)
    edges = {0, (1 << spec.k) - 1}
    for t in codec.tier_sums[:-1]:
        edges.update({t - 1, t})
    us = sorted(edges)
    expected = [codec.differential_int(u).bit_count() for u in us]
    assert _hist(codec, us, 0) == _counts(expected, spec)
    for u, w in zip(us, expected):
        assert _hist(codec, [u], 0) == _one_hot(w, spec)


@pytest.mark.parametrize("spec", [optimal_spec(11, 12), *WIDE_OPTIMAL], ids=_label)
def test_optimal_chunk_within_one_tier(spec):
    # min and max share a pulse count, so no "at least m" pass separates them
    codec = make_codec(spec)
    bases = (0, *codec.tier_sums)
    for m in range(codec.d_max + 1):
        first, last = bases[m], min(bases[m + 1], 1 << spec.k) - 1
        us = sorted({first, last, (first + last) // 2})
        assert _hist(codec, us * 3, 0) == _counts([m] * (3 * len(us)), spec)


def _pulses(codec, us):
    """Per-word oracle: the pulse count of each info word, from its tier."""
    return [bisect_right(codec.tier_sums, u) for u in us.tolist()]


@pytest.mark.parametrize("spec,size", PATH_CASES)
def test_optimal_kernel_on_a_drawn_chunk(spec, size):
    codec = spec.codec
    us = _draw(np.random.PCG64(size), spec.k, size)
    drawn = us.copy()
    pulses = _pulses(codec, us)
    assert codec.step_histogram(us, 0).tolist() == _counts(pulses, spec)
    assert np.array_equal(us, drawn)  # the trace reads the chunk's last word next
    for i in range(0, size, size // 50):
        assert codec.differential_int(int(us[i])).bit_count() == pulses[i]


@pytest.mark.parametrize("spec,size", PATH_CASES)
def test_optimal_kernel_with_tier_sums_at_both_ends(spec, size):
    # the first and last words, the chunk's extremes, each sit on a tier sum:
    # the lowest info word with its pulse count
    codec = spec.codec
    sums = codec.tier_sums[:codec.d_max]
    lo, hi = sums[len(sums) // 3], sums[-1]
    us = np.clip(_draw(np.random.PCG64(size), spec.k, size), lo, hi)
    us[0], us[-1] = lo, hi
    assert codec.step_histogram(us, 0).tolist() == _counts(_pulses(codec, us), spec)
    assert codec.differential_int(lo).bit_count() == len(sums) // 3 + 1
    assert codec.differential_int(hi).bit_count() == codec.d_max


@pytest.mark.parametrize("spec", WIDE_DIFFERENTIAL, ids=_label)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_differential_kernel_sampled(spec, data):
    codec = make_codec(spec)
    us = data.draw(st.lists(st.integers(0, (1 << spec.k) - 1), min_size=1, max_size=40))
    prev = data.draw(st.integers(0, (1 << spec.k) - 1))
    expected = [codec.differential_int(u).bit_count() for u in us]
    assert _hist(codec, us, prev) == _counts(expected, spec)
    for u, w in zip(us, expected):
        assert _hist(codec, [u], prev) == _one_hot(w, spec)


@pytest.mark.parametrize("spec", [s for s in STATEFUL if s.k <= 5], ids=_label)
def test_stateful_kernel_exhaustive_pairs(spec):
    codec = make_codec(spec)
    space = list(range(1 << spec.k))
    for prev in space:
        assert _hist(codec, space, prev) == _counts(_scalar_walk(codec, space, prev), spec)
        # one step from either form the previous word took
        for state in _bus_forms(spec, prev):
            for u in space:
                w = (codec.encode_int(state, u) ^ state).bit_count()
                assert _hist(codec, [u], prev) == _one_hot(w, spec)


@pytest.mark.parametrize("spec", WIDE_STATEFUL, ids=_label)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stateful_kernel_sampled(spec, data):
    codec = make_codec(spec)
    word = st.integers(0, (1 << spec.k) - 1)
    us = data.draw(st.lists(word, min_size=1, max_size=60))
    prev = data.draw(st.one_of(st.just(0), word))
    walk = _scalar_walk(codec, us, prev)
    assert _hist(codec, us, prev) == _counts(walk, spec)
    for before, u, w in zip([prev, *us], us, walk):
        assert _hist(codec, [u], before) == _one_hot(w, spec)


@pytest.mark.parametrize("spec", WIDE_STATEFUL, ids=_label)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_chunk_carry_matches_one_chunk(spec, data):
    # a chunk split anywhere, carrying the last word across, changes nothing
    codec = make_codec(spec)
    us = data.draw(st.lists(st.integers(0, (1 << spec.k) - 1), min_size=2, max_size=60))
    cut = data.draw(st.integers(1, len(us) - 1))
    whole = codec.step_histogram(_words(us, codec), 0)
    head = codec.step_histogram(_words(us[:cut], codec), 0)
    tail = codec.step_histogram(_words(us[cut:], codec), us[cut - 1])
    assert (head + tail).tolist() == whole.tolist()


@pytest.mark.parametrize("spec", [*SMALL_DIFFERENTIAL, *WIDE_DIFFERENTIAL, *STATEFUL], ids=_label)
def test_length_is_the_heaviest_step_plus_one(spec):
    # ppm0 k = 20 has 2^20 + 1 lines but two entries
    codec = make_codec(spec)
    for us in ([0], [0] * 5, [(1 << spec.k) - 1]):
        h = codec.step_histogram(_words(us, codec), 0)
        assert h.dtype == np.int64
        assert h.size == _heaviest(spec) + 1
        assert h.sum() == len(us)


@pytest.mark.parametrize("k", [7, 8, 62, 63], ids=lambda k: f"n{k + 1}")
def test_dbi_folds_each_info_weight_at_odd_and_even_n(k):
    # step i toggles the i lowest info bits, i = 0..k, so every info weight
    # occurs once; DBI sends min(i, n - i), and at even n the middle bin
    # receives only i = n/2
    spec = dbi_spec(k)
    n = spec.n
    us, u = [], 0
    for i in range(k + 1):
        u ^= (1 << i) - 1
        us.append(u)
    expected = [sum(1 for i in range(k + 1) if min(i, n - i) == v) for v in range(n // 2 + 1)]
    assert _hist(make_codec(spec), us, 0) == expected


@pytest.mark.parametrize(
    "spec",
    [uncoded_spec(32), uncoded_spec(33), dbi_spec(32), dbi_spec(33),
     optimal_spec(32, 32), optimal_spec(33, 31)],
    ids=_label,
)
def test_both_word_dtypes_at_the_32_bit_edge(spec):
    # k = 32 runs on uint32 words, k = 33 on uint64; (32,32)'s top tier sum
    # is past 2^32 - 1, the largest uint32 word
    k = spec.k
    codec = make_codec(spec)
    assert _word_dtype(k) == (np.uint32 if k <= 32 else np.uint64)
    top = (1 << k) - 1
    us = [top, 0, top, 1 << (k - 1), top >> 1, 0x5555_5555_5555_5555 & top, top, 1]
    if spec.family.value == "optimal":
        weights = [codec.differential_int(u).bit_count() for u in us]
    else:
        weights = _scalar_walk(codec, us, 0)
    assert _hist(codec, us, 0) == _counts(weights, spec)


@pytest.mark.parametrize("size", [1, 2, 3, 1023, 1025])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64], ids=["uint32", "uint64"])
def test_paired_weight_count_matches_one_bincount(size, dtype):
    # the uncoded and DBI kernel counts the step weights two per bincount
    # slot; a plain bincount of every step's weight is the oracle
    rng = np.random.default_rng(size)
    for k in range(1, 33 if dtype is np.uint32 else 65):
        top = (1 << k) - 1
        us = rng.integers(0, np.iinfo(np.uint64).max, size, dtype=np.uint64, endpoint=True) & top
        us[1::4], us[2::4] = 0, top  # the heaviest step, k lines, as well
        us = us.astype(dtype)
        prev = top - (top >> 2)  # nonzero, and k bits wide like every info word
        before = np.concatenate([np.array([prev], dtype=dtype), us[:-1]])
        want = np.bincount(np.bitwise_count(us ^ before), minlength=k + 1)
        got = _xor_histogram(us, prev, k)
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), k


# coset codes whose leaders never get lighter as the syndrome rises, found from
# the leader table: every Hamming code, repetition(3) = Hamming(2) among them
THRESHOLD_COSETS = [make_hamming(m) for m in range(2, 9)] + [make_repetition(3)]
TAKE_COSETS = [make_repetition(n) for n in (4, 5, 9, 17)] + [make_golay23()]


@pytest.mark.parametrize("code", THRESHOLD_COSETS + TAKE_COSETS, ids=lambda c: c.name)
def test_coset_kernel_counts_from_thresholds_only_where_weights_never_fall(code):
    codec = coset_spec(code).codec
    w = codec.weights
    assert (codec._tiers is not None) == (code in THRESHOLD_COSETS) == bool(np.all(w[1:] >= w[:-1]))


@pytest.mark.parametrize("code", THRESHOLD_COSETS + TAKE_COSETS, ids=lambda c: c.name)
@pytest.mark.parametrize("size", [1, 1_000, 1 << 17])
def test_coset_kernel_on_a_drawn_chunk_is_the_weight_lookup(code, size):
    codec = coset_spec(code).codec
    us = _draw(np.random.PCG64(size), code.syndrome_bits, size)
    want = np.bincount(np.take(codec.weights, us), minlength=int(codec.weights.max()) + 1)
    got = codec.step_histogram(us, 0)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("m", range(2, 9))
def test_hamming_coset_trace_is_the_ppm0_trace(m):
    # the two families send one codebook: a trace of each counts the same steps
    traces = [run_trace(TraceConfig(spec, 300_001, seed=m, shards=2))
              for spec in (coset_spec(make_hamming(m)), ppm0_spec(m))]
    assert traces[0] == traces[1]
