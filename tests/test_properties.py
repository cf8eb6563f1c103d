"""Property tests for the rank layer and the scalar codecs.

Rank and unrank are checked against a colex oracle built from math.comb
alone, over every n up to 64. Every family must invert its own encoding
from random bus states, every differential outside a codebook must be
rejected as corrupted, and DBI must toggle as many lines per step as the
repetition coset past the exhaustive k <= 8 of the acceptance suite. The
coset decoder's syndrome, an XOR of H's columns, must equal the row-wise
LinearCode.syndrome.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buslab.codecs import (
    BusState,
    CorruptedWordError,
    Family,
    coset_spec,
    dbi_spec,
    decode,
    encode,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    optimal_spec,
    ppm0_spec,
    uncoded_spec,
)
from buslab.combinatorics import BinomialTable, Word
from buslab.simulator import exact_average_distance
from buslab.verify import _roundtrip_specs

TABLE = BinomialTable(64)


def colex_rank(positions):
    """Oracle: sum over l of C(s_l, l) for ascending positions s_1 < ... < s_m."""
    return sum(math.comb(s, l) for l, s in enumerate(positions, start=1))


def colex_unrank(x, m, n):
    """Oracle: greedy inverse of colex_rank, highest pulse first."""
    assert 0 <= x < math.comb(n, m)
    positions = []
    for l in range(m, 0, -1):
        s = l - 1
        while math.comb(s + 1, l) <= x:
            s += 1
        positions.append(s)
        x -= math.comb(s, l)
    return tuple(reversed(positions))


def _mask(positions):
    return sum(1 << s for s in positions)


def _label(spec):
    return f"{spec.family.value}-{spec.k}-{spec.b}"


@st.composite
def ranked_subsets(draw):
    n = draw(st.integers(0, 64))
    m = draw(st.integers(0, n))
    x = draw(st.integers(0, math.comb(n, m) - 1))
    return x, m, n


class TestRankOracle:
    @settings(max_examples=300, deadline=None)
    @given(ranked_subsets(), st.integers(0, 2**64 - 1))
    def test_unrank_matches_colex_oracle(self, xmn, start):
        x, m, n = xmn
        expected = _mask(colex_unrank(x, m, n))
        assert TABLE.unrank(x, m, n) == expected
        # the kernel toggles the pulses onto its start word
        assert TABLE._unrank(x, m, n, start) == start ^ expected

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 63), max_size=64))
    def test_rank_matches_colex_oracle(self, lines):
        positions = tuple(sorted(lines))
        expected = colex_rank(positions)
        assert TABLE.rank(_mask(positions)) == expected

    @settings(max_examples=200, deadline=None)
    @given(ranked_subsets())
    def test_rank_inverts_unrank(self, xmn):
        x, m, n = xmn
        assert TABLE.rank(TABLE.unrank(x, m, n)) == x

    @pytest.mark.parametrize("n", [1, 2, 17, 63, 64])
    def test_rank_extremes(self, n):
        for m in range(n + 1):
            top = math.comb(n, m) - 1
            assert TABLE.unrank(0, m, n) == (1 << m) - 1
            assert TABLE.unrank(top, m, n) == ((1 << m) - 1) << (n - m)
        # one pulse takes no search: it sits on the line its rank names
        for x in range(n):
            assert TABLE.unrank(x, 1, n) == _mask(colex_unrank(x, 1, n)) == 1 << x
            assert TABLE.rank(1 << x) == colex_rank((x,)) == x
        # no pulse: the empty pattern, rank 0, and a start word left as it is
        assert TABLE.unrank(0, 0, n) == _mask(colex_unrank(0, 0, n)) == 0
        assert TABLE.rank(0) == colex_rank(()) == 0
        assert TABLE._unrank(0, 0, n, (1 << n) - 1) == (1 << n) - 1

    def test_rank_rejects_words_wider_than_the_table(self):
        table = BinomialTable(8)
        assert table.rank(0xFF) == 0
        with pytest.raises(ValueError):
            table.rank(1 << 8)
        with pytest.raises(ValueError):
            table.rank(-1)


def test_optimal_64_0_tier_edges_against_the_oracle():
    # the last word of each tier and the first of the next, from math.comb
    # alone, through the Word path from a nonzero state
    spec, state = optimal_spec(64, 0), BusState(Word(0xA5A5_5A5A_0F0F_F0F0, 64))
    base = 0
    for m in range(64):
        top = base + math.comb(64, m)  # tier_sums[m]
        edges = ((top - 1, m, top - 1 - base), (top, m + 1, 0))
        for u, weight, rank in edges:
            d = _mask(colex_unrank(rank, weight, 64))
            x = encode(spec, state, Word(u, 64))
            assert x.value ^ state.x_prev.value == d
            assert decode(spec, state, x) == Word(u, 64)
        base = top
    x = encode(spec, state, Word(2**64 - 1, 64))
    assert x.value == state.x_prev.value ^ (2**64 - 1)
    assert decode(spec, state, x) == Word(2**64 - 1, 64)


ROUNDTRIP_SPECS = (
    uncoded_spec(1), uncoded_spec(64), dbi_spec(1), dbi_spec(8), dbi_spec(63),
    ppm0_spec(1), ppm0_spec(8), ppm0_spec(18),
    optimal_spec(1, 0), optimal_spec(4, 11), optimal_spec(11, 12), optimal_spec(24, 16),
    optimal_spec(40, 24), optimal_spec(64, 0),
    coset_spec(make_repetition(2)), coset_spec(make_repetition(17)),
    coset_spec(make_hamming(4)), coset_spec(make_golay23()),
)


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS, ids=_label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_roundtrip_from_random_states(spec, data):
    u = data.draw(st.integers(0, (1 << spec.k) - 1))
    # wide states (ppm0 k = 18 has 262,143 lines) come from a drawn seed
    seed = data.draw(st.integers(0, 2**32 - 1))
    state = BusState(Word(random.Random(seed).getrandbits(spec.n), spec.n))
    x = encode(spec, state, Word(u, spec.k))
    assert decode(spec, state, x) == Word(u, spec.k)


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS, ids=_label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_word_and_int_apis_agree(spec, data):
    codec = make_codec(spec)
    u = data.draw(st.integers(0, (1 << spec.k) - 1))
    s = random.Random(data.draw(st.integers(0, 2**32 - 1))).getrandbits(spec.n)
    state = BusState(Word(s, spec.n))
    x = codec.encode_int(s, u)
    assert encode(spec, state, Word(u, spec.k)).value == x
    assert decode(spec, state, Word(x, spec.n)).value == codec.decode_int(s, x) == u


# verify roundtrip's grid and the widest optimal and ppm0 buses
IN_PLACE_SPECS = (
    *_roundtrip_specs(), optimal_spec(24, 16), optimal_spec(40, 24), optimal_spec(64, 0),
    ppm0_spec(18),
)


@pytest.mark.parametrize("spec", IN_PLACE_SPECS, ids=_label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_place_results_equal_checked_words(spec, data):
    # encode/decode build their result in its slots, past Word's check: each
    # must still be the Word the checked constructor makes, over a Python int
    n = spec.n
    u = Word(data.draw(st.integers(0, (1 << spec.k) - 1)), spec.k)
    s = data.draw(st.sampled_from([0, (1 << n) - 1, None]))  # None: a random state
    if s is None:
        s = random.Random(data.draw(st.integers(0, 2**32 - 1))).getrandbits(n)
    state = BusState(Word(s, n))
    x = encode(spec, state, u)
    y = decode(spec, state, x)
    for r in (x, y):
        assert type(r) is Word and type(r.value) is int and r == Word(r.value, r.length)
    assert x.length == n and y == u


def _outcome(call, *args):
    """The call's result, or its CorruptedWordError's text."""
    try:
        return call(*args)
    except CorruptedWordError as exc:
        return f"corrupted: {exc}"


DIFFERENTIAL_SPECS = tuple(
    s for s in ROUNDTRIP_SPECS if s.family in (Family.PPM0, Family.OPTIMAL_MPPM, Family.COSET)
)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=_label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_differential_kernels_are_the_state_kernels_from_zero(spec, data):
    codec = make_codec(spec)
    u = data.draw(st.integers(0, (1 << spec.k) - 1))
    s = random.Random(data.draw(st.integers(0, 2**32 - 1))).getrandbits(spec.n)
    assert codec.differential_int(u) ^ s == codec.encode_int(s, u)
    # a received word a few flipped lines off an emitted one: decoded alike,
    # or rejected with the same text
    flips = data.draw(st.sets(st.integers(0, spec.n - 1), max_size=4))
    x = codec.encode_int(s, u) ^ _mask(flips)
    assert _outcome(codec.info_int, x ^ s) == _outcome(codec.decode_int, s, x)


@pytest.mark.parametrize("k", range(1, 7))
def test_dbi_one_popcount_equals_the_two_popcount_rule(k):
    codec = make_codec(dbi_spec(k))
    mask = (1 << k) - 1
    for state in range(1 << (k + 1)):
        for u in range(1 << k):
            plain, inverted = u << 1, ((u ^ mask) << 1) | 1
            near = (plain ^ state).bit_count() <= (inverted ^ state).bit_count()
            assert codec.encode_int(state, u) == (plain if near else inverted)


# every geometry here has d_max < n
HEAVY_OPTIMAL = (
    optimal_spec(1, 1), optimal_spec(4, 11), optimal_spec(11, 12), optimal_spec(24, 16),
    optimal_spec(40, 24), optimal_spec(63, 1),
)
# geometries whose top tier is only partly emitted ((4,11) and (11,12) fill it);
# (1,1) and (4,20) have d_max = 1, and (4,20) leaves 9 of its 24 pulses unused
TOP_TIER_GAPS = (
    optimal_spec(1, 1), optimal_spec(3, 1), optimal_spec(4, 20), optimal_spec(24, 16),
    optimal_spec(40, 24), optimal_spec(63, 1),
)


def _unused_top_ranks(codec):
    """(first rank past the emitted codebook, tier size) of the top tier."""
    k, m = codec.spec.k, codec.d_max
    return (1 << k) - codec.tier_sums[m - 1], math.comb(codec.spec.n, m)


@pytest.mark.parametrize("spec", HEAVY_OPTIMAL, ids=_label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_optimal_rejects_weight_above_d_max(spec, data):
    codec = make_codec(spec)
    n = spec.n
    lines = data.draw(st.sets(st.integers(0, n - 1), min_size=codec.d_max + 1, max_size=n))
    state = data.draw(st.integers(0, (1 << n) - 1))
    with pytest.raises(CorruptedWordError, match="exceeds d_max"):
        codec.decode_int(state, state ^ _mask(lines))


@pytest.mark.parametrize("spec", TOP_TIER_GAPS, ids=_label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_optimal_rejects_top_tier_ranks_past_the_codebook(spec, data):
    codec = make_codec(spec)
    first, size = _unused_top_ranks(codec)
    rank = data.draw(st.integers(first, size - 1))
    d = _mask(colex_unrank(rank, codec.d_max, spec.n))
    state = data.draw(st.integers(0, (1 << spec.n) - 1))
    with pytest.raises(CorruptedWordError, match="outside the emitted codebook"):
        codec.decode_int(state, state ^ d)


@pytest.mark.parametrize("spec", TOP_TIER_GAPS, ids=_label)
def test_optimal_top_tier_boundary(spec):
    codec = make_codec(spec)
    first, _ = _unused_top_ranks(codec)
    last_emitted = _mask(colex_unrank(first - 1, codec.d_max, spec.n))
    assert codec.info_int(last_emitted) == (1 << spec.k) - 1
    with pytest.raises(CorruptedWordError):
        codec.info_int(_mask(colex_unrank(first, codec.d_max, spec.n)))


@pytest.mark.parametrize("k", [2, 3, 8, 18])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ppm0_rejects_weight_two_and_above(k, data):
    spec = ppm0_spec(k)
    codec = make_codec(spec)
    lines = data.draw(st.sets(st.integers(0, spec.n - 1), min_size=2, max_size=8))
    d = _mask(lines)
    if data.draw(st.booleans()):
        d |= random.Random(data.draw(st.integers(0, 2**32 - 1))).getrandbits(spec.n)
    with pytest.raises(CorruptedWordError, match=f"weight {d.bit_count()}"):
        codec.info_int(d)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dbi_step_equals_the_repetition_coset_step(data):
    k = data.draw(st.integers(9, 16))
    state = data.draw(st.integers(0, (1 << (k + 1)) - 1))
    u = data.draw(st.integers(0, (1 << k) - 1))
    dbi = make_codec(dbi_spec(k))
    rep = make_codec(coset_spec(make_repetition(k + 1)))
    # as in the acceptance check: the coset input is the DBI info XOR the
    # info already on the wires
    wire_info = (state >> 1) ^ ((1 << k) - 1 if state & 1 else 0)
    x = dbi.encode_int(state, u)
    assert (x ^ state).bit_count() == rep.differential_int(u ^ wire_info).bit_count()


@pytest.mark.parametrize("k", range(1, 17))
def test_dbi_exact_average_equals_the_repetition_coset(k):
    # DBI's d_opt(k, 1) against the repetition coset's leader tiers, up to
    # the coset table's 16-bit syndrome cap
    dbi = exact_average_distance(dbi_spec(k))
    rep = exact_average_distance(coset_spec(make_repetition(k + 1)))
    assert dbi.exact_mean == rep.exact_mean
    if k >= 15:
        assert rep.exact_mean == {15: Fraction(26333, 4096), 16: Fraction(447661, 65536)}[k]


# every stock code on at most 17 lines
SMALL_STOCK_CODES = [*map(make_repetition, range(2, 18)), *map(make_hamming, (2, 3, 4))]


@pytest.mark.parametrize("code", SMALL_STOCK_CODES, ids=lambda c: c.name)
def test_bytewise_syndrome_equals_the_row_oracle_exhaustively(code):
    codec = make_codec(coset_spec(code))
    assert [codec.info_int(d) for d in range(1 << code.length)] == [
        code.syndrome(d) for d in range(1 << code.length)
    ]


SAMPLED_CODES = [make_golay23(), *map(make_hamming, (5, 6, 7, 8))]


@pytest.fixture(scope="module")
def hamming16():
    # 65,535 lines, one row of line indices per syndrome; drop the codec after
    yield make_codec(coset_spec(make_hamming(16)))
    make_codec.cache_clear()


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SAMPLED_CODES), st.integers(0, 2**32 - 1))
def test_column_syndrome_equals_the_row_oracle_on_sampled_words(hamming16, code, seed):
    # drawn past the code's lines too: the row oracle ignores lines the code
    # does not have, and the kernel rejects a word on them
    rnd = random.Random(seed)
    n = code.length
    d = rnd.getrandbits(n + 9)
    codec = make_codec(coset_spec(code))
    assert codec.info_int(d & ((1 << n) - 1)) == code.syndrome(d)
    if d >> n:
        with pytest.raises(ValueError, match=rf"bus value outside \[0, 2\^{n}\)"):
            codec.info_int(d)
    # a Hamming(16) leader sent from a random state on all 65,535 lines
    state = rnd.getrandbits(hamming16.spec.code.length)
    u = rnd.getrandbits(16)
    x = hamming16.encode_int(state, u)
    assert hamming16.decode_int(state, x) == hamming16.spec.code.syndrome(x ^ state) == u
