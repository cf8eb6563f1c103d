import dataclasses
import random
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import xor

import numpy as np
import pytest

from buslab import analytics, codecs
from buslab.codecs import (
    CosetCodec,
    LinearCode,
    _gf2_kernel_basis,
    _gf2_reduce,
    coset_spec,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    min_distance,
)
from buslab.verify import _enumerated_mean


def brute_force_leader_weight(code, syndrome):
    """Oracle: minimum weight over all patterns with the given syndrome."""
    best = None
    for e in range(1 << code.length):
        if code.syndrome(e) == syndrome:
            w = e.bit_count()
            if best is None or w < best:
                best = w
    return best


def code_from_columns(name, cols, k):
    """The code whose parity-check matrix has the given k-bit columns."""
    rows = tuple(sum((c >> r & 1) << i for i, c in enumerate(cols)) for r in range(k))
    return LinearCode(name, len(cols), rows)


def random_code(n, k, seed):
    """k identity columns and n - k seeded random ones (repeats and zeros
    included), shuffled: independent rows on any n lines."""
    rng = random.Random(seed)
    cols = [1 << r for r in range(k)] + [rng.getrandbits(k) for _ in range(n - k)]
    rng.shuffle(cols)
    return code_from_columns(f"random({n},{n - k};{seed})", cols, k)


def shortened_hamming(n):
    """The Hamming(4) columns 1, 2, 4, 8 first, then 3, 5, 6, 7, 9, ..., 15."""
    cols = [1, 2, 4, 8] + [c for c in range(3, 16) if c & (c - 1)]
    return code_from_columns(f"shortened-hamming({n})", cols[:n], 4)


def optimal_tiers(k, n):
    """Oracle: weights of the 2^k lightest n-tuples, C(n, m) per tier and the
    remainder at the top, from math.comb alone."""
    tiers, left = [], 1 << k
    for m in range(n + 1):
        tiers.append(min(comb(n, m), left))
        left -= tiers[-1]
        if not left:
            return tuple(tiers)


def hamming_rows_by_loop(m):
    """Oracle: row r sets line c when bit r of c + 1 is 1, one line at a time."""
    rows = []
    for r in range(m):
        row = 0
        for c in range((1 << m) - 1):
            if ((c + 1) >> r) & 1:
                row |= 1 << c
        rows.append(row)
    return tuple(rows)


class TestRepetition:
    def test_three_line_parity_rows(self):
        code = make_repetition(3)
        # row r ties line r to line 2: masks 0b101 and 0b110
        assert code.h_rows == (0b101, 0b110)
        assert (code.length, code.dimension) == (3, 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 9])
    def test_min_distance_is_n(self, n):
        assert min_distance(make_repetition(n)) == n

    def test_codewords_are_zero_and_ones(self):
        code = make_repetition(5)
        assert code.syndrome(0) == code.syndrome(0b11111) == 0
        assert code.syndrome(0b00111) != 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_repetition(1)


class TestHamming:
    def test_columns_are_the_nonzero_values(self):
        code = make_hamming(4)
        assert (code.length, code.dimension) == (15, 11)
        for c in range(15):
            col = 0
            for r in range(4):
                col |= ((code.h_rows[r] >> c) & 1) << r
            assert col == c + 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_min_distance_is_three(self, m):
        assert min_distance(make_hamming(m)) == 3

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            make_hamming(1)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_rows_match_the_per_line_loop(self, m):
        assert make_hamming(m).h_rows == hamming_rows_by_loop(m)


class TestGolay:
    def test_shape(self):
        code = make_golay23()
        assert (code.length, code.dimension) == (23, 12)

    def test_min_distance_by_exhaustive_scan(self):
        assert min_distance(make_golay23()) == 7

    def test_rows_are_independent(self):
        # construction would raise otherwise; double-check via a rank proxy
        code = make_golay23()
        assert len(set(code.h_rows)) == 11


STOCK_CODES = [
    *map(make_repetition, range(2, 18)),
    *map(make_hamming, range(2, 17)),
    make_golay23(),
]


class TestLineSyndromes:
    @pytest.mark.parametrize("code", STOCK_CODES, ids=lambda c: c.name)
    def test_each_column_is_the_syndrome_of_its_line(self, code):
        expected = [code.syndrome(1 << i) for i in range(code.length)]
        assert list(code.line_syndromes) == expected
        if code.name.startswith("hamming"):
            assert code.line_syndromes == tuple(range(1, code.length + 1))

    def test_columns_wider_than_64_bits(self):
        # 69 parity rows: each column is a Python int past any numpy word
        code = make_repetition(70)
        assert list(code.line_syndromes) == [code.syndrome(1 << i) for i in range(code.length)]
        assert code.line_syndromes[-1] == (1 << 69) - 1

    def test_cached_columns_leave_the_fields_alone(self):
        code = make_hamming(3)
        before = (repr(code), hash(code))
        assert code.line_syndromes is code.line_syndromes
        assert (repr(code), hash(code)) == before
        assert code == make_hamming(3)


class TestLinearCodeValidation:
    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="^bad: parity rows are not linearly independent$"):
            LinearCode(name="bad", length=3, h_rows=(0b011, 0b011))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, np.uint64])
    def test_numpy_ints_are_stored_as_python_ints(self, dtype):
        code = make_hamming(3)
        again = LinearCode(code.name, dtype(code.length), tuple(map(dtype, code.h_rows)))
        assert again == code and all(type(v) is int for v in (again.length, *again.h_rows))
        # a codec of its own, not the cached one of the equal spec
        codec = CosetCodec(coset_spec(again))
        assert [codec.encode_int(0, u) for u in range(8)] == [
            coset_spec(code).codec.encode_int(0, u) for u in range(8)]
        assert codec.decode_int(0b1010101, codec.encode_int(0b1010101, 5)) == 5
        # 1 << 70 does not wrap
        wide = LinearCode("wide", dtype(70), (1 << 69 | 1,))
        assert (type(wide.length), wide.dimension) == (int, 69)

    @pytest.mark.parametrize("row", [0b1000, -1])
    def test_a_row_past_the_lines_is_rejected(self, row):
        with pytest.raises(ValueError, match=rf"^bad: parity row {row:#x} out of range$"):
            LinearCode(name="bad", length=3, h_rows=(0b011, row))

    def test_floats_are_not_ints(self):
        code = make_hamming(3)
        with pytest.raises(TypeError):
            LinearCode(code.name, float(code.length), code.h_rows)
        with pytest.raises(TypeError):
            LinearCode(code.name, code.length, (float(code.h_rows[0]), *code.h_rows[1:]))

    def test_independence_check_is_elimination_only(self):
        # 15 rows on 32,767 lines: no pass over every line, as a kernel basis takes
        code = make_hamming(15)
        start = time.perf_counter()
        again = LinearCode(code.name, code.length, code.h_rows)
        assert time.perf_counter() - start < 0.05
        assert again == code

    @pytest.mark.parametrize(
        "code, dimension",
        [(make_golay23(), 12), (make_hamming(4), 11), (make_repetition(9), 1),
         (random_code(66, 10, 4), 56), (random_code(300, 16, 1), 284), (shortened_hamming(5), 1)],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_dimension_is_the_lines_less_the_rows(self, code, dimension):
        assert [f.name for f in dataclasses.fields(code)] == ["name", "length", "h_rows"]
        assert code.dimension == code.length - len(code.h_rows) == dimension
        assert code.syndrome_bits == len(code.h_rows)

    @pytest.mark.parametrize(
        "code",
        [make_golay23(), *map(make_hamming, range(2, 6)), *map(make_repetition, range(2, 10))],
        ids=lambda c: c.name,
    )
    def test_kernel_basis_is_a_basis_of_the_code(self, code):
        basis = _gf2_kernel_basis(code.h_rows, code.length)
        assert len(basis) == code.dimension
        # codewords on the code's own lines, each with syndrome 0
        assert all(0 < v < 1 << code.length and code.syndrome(v) == 0 for v in basis)
        # independent: elimination keeps every vector
        assert len(_gf2_reduce(tuple(basis))) == code.dimension

    def test_min_distance_cap(self):
        with pytest.raises(ValueError):
            min_distance(make_hamming(5))  # dimension 26


class TestCosetLeaders:
    def test_zero_syndrome_has_zero_leader(self):
        for code in (make_repetition(5), make_hamming(3), make_golay23()):
            codec = coset_spec(code).codec
            assert codec.differential_int(0) == 0 and codec.weights[0] == 0

    def test_hamming_15_11_leader_tiers(self):
        codec = coset_spec(make_hamming(4)).codec
        assert codec._heaviest == 1
        assert codec.tier_counts() == (1, 15)

    def test_golay_leader_tiers(self):
        codec = coset_spec(make_golay23()).codec
        assert codec._heaviest == 3
        assert codec.tier_counts() == (1, 23, 253, 1771)

    @pytest.mark.parametrize(
        "code", [make_repetition(5), make_repetition(6), make_hamming(3)], ids=lambda c: c.name
    )
    def test_leaders_are_minimum_weight(self, code):
        codec = coset_spec(code).codec
        for s in range(1 << code.syndrome_bits):
            assert code.syndrome(codec.differential_int(s)) == s
            assert codec.differential_int(s).bit_count() == brute_force_leader_weight(code, s)

    def test_leaders_satisfy_syndrome_identity(self):
        code = make_golay23()
        codec = coset_spec(code).codec
        for s in range(1 << code.syndrome_bits):
            assert code.syndrome(codec.differential_int(s)) == s

    @pytest.mark.parametrize(
        "code",
        [make_repetition(17), make_golay23(), make_hamming(4), make_repetition(9), make_hamming(7),
         random_code(14, 6, 1), random_code(24, 10, 2), random_code(40, 9, 3),
         random_code(66, 10, 4), random_code(100, 8, 5), random_code(300, 7, 6)],
        ids=lambda c: c.name,
    )
    def test_leaders_match_a_per_pattern_syndrome_scan(self, code):
        # reference for both stores (Hamming(7)'s 127 lines and the random
        # codes past 64 lines take top lines, random(66,56;4)'s leaders up to
        # 3 lines, so up to 3 steps of the walk):
        # every pattern by weight, then by integer value, each syndrome
        # computed from the parity rows
        leaders = {}
        for w in range(code.length + 1):
            patterns = sorted(sum(1 << i for i in c) for c in combinations(range(code.length), w))
            for e in patterns:
                leaders.setdefault(code.syndrome(e), e)
            if len(leaders) == 1 << code.syndrome_bits:
                break
        expected = [leaders[s] for s in range(1 << code.syndrome_bits)]
        codec = coset_spec(code).codec
        assert [codec.differential_int(s) for s in range(len(expected))] == expected
        assert codec.weights.tolist() == [e.bit_count() for e in expected]

    @pytest.mark.parametrize("code", STOCK_CODES, ids=lambda c: c.name)
    def test_stock_tiers_are_the_optimal_tiers(self, code):
        # perfect codes (Hamming, Golay, odd repetition) fill Hamming balls;
        # even repetition is quasi-perfect, its top tier C(N, N/2)/2
        tiers = coset_spec(code).codec.tier_counts()
        assert tiers == optimal_tiers(code.syndrome_bits, code.length)

    @pytest.mark.parametrize("n", range(5, 16))
    def test_shortened_hamming_tiers_are_optimal_from_8_lines(self, n):
        # the law is the code's, not the family's: 5-7 lines miss it
        tiers = coset_spec(shortened_hamming(n)).codec.tier_counts()
        expected = {5: (1, 5, 7, 3), 6: (1, 6, 7, 2), 7: (1, 7, 7, 1)}
        assert tiers == expected.get(n, optimal_tiers(4, n))
        assert (tiers == optimal_tiers(4, n)) == (n >= 8)

    def test_shortened_hamming_mean_is_above_d_opt(self):
        spec = coset_spec(shortened_hamming(5))
        assert CosetCodec.exact_mean(spec) == _enumerated_mean(spec)
        assert CosetCodec.exact_mean(spec) == Fraction(7, 4) > analytics.d_opt(4, 1)
        assert analytics.d_opt(4, 1) == Fraction(25, 16)

    def test_tie_break_is_lowest_integer_in_tier(self):
        # repetition(6): syndrome 0b00111 has two weight-3 patterns,
        # 0b000111 and 0b111000; the smaller integer must win
        codec = coset_spec(make_repetition(6)).codec
        assert codec.differential_int(0b00111) == 0b000111

    @pytest.mark.parametrize("step", [1, 7, 100])
    def test_step_size_leaves_every_leader(self, monkeypatch, step):
        # a step ends anywhere in a tier's pairs, even inside one line's
        # prefix of leaders, and the last step stops short of the tier's end;
        # fresh builds, as make_codec's cache would serve the unpatched ones
        def build(code):
            leaders, weights = codecs._build_coset_leaders(code)
            return [leaders[s] for s in range(weights.size)], weights.tolist()

        codes = [make_repetition(9), make_golay23(), random_code(24, 10, 2),
                 random_code(100, 8, 5), random_code(300, 7, 6)]
        expected = [build(code) for code in codes]
        monkeypatch.setattr(codecs, "_STEP_PAIRS", step)
        for code, want in zip(codes, expected):
            assert build(code) == want

    @pytest.mark.parametrize("n", [300, 1000])
    def test_wide_16_bit_code_builds_in_bounded_memory(self, n):
        # 16 syndrome bits on many lines: the third tier has 3.7 million
        # (line, leader) pairs at 300 lines and 43.8 million at 1,000. A 2-CPU
        # x86 host took 0.1 s and peaked at 2.0 MiB (300 lines) and 2.1 MiB
        # (1,000). The peak bound fails a build that holds a whole tier's
        # pairs at once (134 MiB at 300 lines), the time bound one that runs
        # on past the step reaching the last syndrome (6.3 s at 1,000 lines)
        code = random_code(n, 16, 1)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            leaders, weights = codecs._build_coset_leaders(code)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert elapsed < 1.5
        assert weights.size == 1 << 16 and int(weights.max()) == 3
        for s in random.Random(n).sample(range(1 << 16), 200):
            assert code.syndrome(leaders[s]) == s

    @pytest.mark.parametrize(
        "code, typecode",
        [(make_golay23(), "Q"), (make_repetition(17), "Q"), (make_hamming(6), "Q"),
         (make_hamming(7), "H"), (random_code(66, 10, 4), "H"), (make_hamming(16), "H")],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_store_is_words_up_to_64_lines_then_top_lines(self, code, typecode):
        # one entry per syndrome, however heavy its leader: a 64-bit word, or
        # the leader's top line. random(66,56;4)'s leaders reach 3 lines, and
        # its store still has 1,024 entries; Hamming(16)'s take 128 KiB
        codec = coset_spec(code).codec
        total = 1 << code.syndrome_bits
        store = codec._leaders.tops if typecode == "H" else codec._leaders
        assert (store.typecode, len(store)) == (typecode, total)
        assert codec.weights.dtype == np.uint8 and codec.weights.size == total
        if typecode == "H":
            for s in (1, total // 2, total - 1):
                assert store[s] == codec.differential_int(s).bit_length() - 1

    def test_store_past_65535_lines_is_uint32(self):
        # parity checks on the top 4 of 70,000 lines: syndrome s's only
        # leader is s on lines 69,996..69,999, whose indices pass any uint16
        code = LinearCode("tail", 70000, tuple(1 << (69996 + r) for r in range(4)))
        codec = coset_spec(code).codec
        assert (codec._leaders.tops.typecode, len(codec._leaders.tops)) == ("I", 16)
        assert [codec.differential_int(s) for s in range(16)] == [s << 69996 for s in range(16)]
        assert codec.tier_counts() == (1, 4, 6, 4, 1)

    def test_coset_spec_past_the_cap_fails_before_any_build(self):
        code = make_repetition(18)
        before = make_codec.cache_info()
        with pytest.raises(ValueError) as exc:
            coset_spec(code)
        assert str(exc.value) == "repetition(18,1): 17 syndrome bits exceed the 16-bit table cap"
        assert make_codec.cache_info() == before


def identity_code(n):
    """16 identity columns, then n - 16 zero ones: syndrome s's leader is s
    itself, so the heaviest leader has all 16 lines."""
    return code_from_columns(f"identity({n})", [1 << r for r in range(16)] + [0] * (n - 16), 16)


BLOCK_DECODED = [*map(make_repetition, range(2, 18)), make_golay23(), *map(make_hamming, (2, 3)),
                 shortened_hamming(8), shortened_hamming(9), identity_code(64)]
WALK_DECODED = [*map(make_hamming, range(4, 17)), random_code(300, 16, 1), random_code(1000, 16, 1),
                shortened_hamming(15), identity_code(65)]


class TestCosetDecode:
    @pytest.mark.parametrize(
        "code, blocks",
        [(c, True) for c in BLOCK_DECODED] + [(c, False) for c in WALK_DECODED],
        ids=lambda v: v.name if isinstance(v, LinearCode) else ("blocks" if v else "walk"),
    )
    def test_the_decode_reads_only_the_length_and_the_heaviest_leader(self, monkeypatch, code,
                                                                      blocks):
        # byte blocks for a code of at most 64 lines whose heaviest leader has
        # a line per 8-line block, else the column walk: Hamming(4..16)'s
        # leaders are one line, and no table is built past 64 lines, where
        # identity(65)'s 16-line leaders would qualify
        codec = coset_spec(code).codec
        n = code.length
        assert (n <= 64 and codec._heaviest >= -(-n // 8)) == blocks
        assert bool(codec._blocks) == blocks
        assert "_decode" not in vars(codec)  # the class's one kernel, for every codec
        rnd = random.Random(n)
        for u in [0, (1 << code.syndrome_bits) - 1, *(rnd.getrandbits(code.syndrome_bits)
                                                      for _ in range(100))]:
            state = rnd.getrandbits(n)
            assert codec._decode(state, codec._encode(state, u)) == u
        if not blocks:
            return
        # table j holds the columns' XOR for each pattern on lines 8j..8j+7,
        # with 2^(its lines) entries in a partial top block
        cols = code.line_syndromes
        assert len(codec._blocks) == -(-n // 8)
        for j, table in enumerate(codec._blocks):
            width = min(8, n - 8 * j)
            assert table == [reduce(xor, (cols[8 * j + i] for i in range(width) if p >> i & 1), 0)
                             for p in range(1 << width)]
        # with no columns to walk, every word still decodes: by the tables alone
        monkeypatch.setattr(codec, "_lines", None)
        for d in [0, (1 << n) - 1, *(rnd.getrandbits(n) for _ in range(200))]:
            state = rnd.getrandbits(n)
            assert codec._decode(state, state ^ d) == code.syndrome(d)
