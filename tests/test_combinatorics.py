import math
import random
from itertools import combinations

import pytest

from buslab import combinatorics
from buslab.combinatorics import BinomialTable, Word


def colex_subsets(n, m):
    """Oracle: all m-subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), m), key=lambda t: t[::-1])


def mask(subset):
    return sum(1 << s for s in subset)


def colex_rank(d):
    """Oracle: C(s_1, 1) + ... + C(s_m, m) over the lines s_1 < ... < s_m of d."""
    lines = [s for s in range(d.bit_length()) if d >> s & 1]
    return sum(math.comb(s, j) for j, s in enumerate(lines, 1))


class TestBinomialTable:
    """The comparator bank holds only the columns the kernels search, so each
    table is checked through unrank and rank."""

    def test_base_case(self):
        table = BinomialTable(0)
        assert table.unrank(0, 0, 0) == 0
        assert table.rank(0) == 0

    def test_widest_table_holds_the_central_binomial(self):
        # the last rank of column 32 is the top 32 of the 64 lines
        table = BinomialTable(64)
        top = ((1 << 32) - 1) << 32
        assert table.unrank(math.comb(64, 32) - 1, 32, 64) == top
        assert table.rank(top) == math.comb(64, 32) - 1

    def test_range_errors(self):
        table = BinomialTable(5)
        with pytest.raises(ValueError):
            table.unrank(0, 1, 6)
        with pytest.raises(ValueError):
            table.unrank(0, -1, 3)
        with pytest.raises(ValueError):
            table.rank(1 << 5)
        with pytest.raises(ValueError):
            BinomialTable(-1)


class TestRankUnrank:
    def test_rank_zero_is_lowest_positions(self):
        table = BinomialTable(23)
        assert table.unrank(0, 3, 23) == 0b111

    def test_max_rank_is_highest_positions(self):
        table = BinomialTable(23)
        assert table.unrank(1770, 3, 23) == 0b111 << 20

    def test_unrank_against_colex_oracle(self):
        table = BinomialTable(12)
        assert colex_subsets(12, 2)[5] == (2, 3)
        assert table.unrank(5, 2, 12) == 0b1100

    def test_rank_examples(self):
        table = BinomialTable(23)
        assert table.rank(0b111) == 0
        assert table.rank(0b1100) == 5
        # C(20,1) + C(21,2) + C(22,3) = 20 + 210 + 1540
        assert table.rank(0b111 << 20) == 1770

    def test_exhaustive_bijection_and_order(self):
        table = BinomialTable(12)
        for n in range(13):
            for m in range(n + 1):
                expected = colex_subsets(n, m)
                for x, subset in enumerate(expected):
                    d = table.unrank(x, m, n)
                    assert d == mask(subset)
                    assert table.rank(d) == x
                with pytest.raises(ValueError):  # the ranks end at the subset count
                    table.unrank(len(expected), m, n)

    def test_empty_pattern(self):
        table = BinomialTable(8)
        assert table.unrank(0, 0, 8) == 0
        assert table.rank(0) == 0

    def test_rank_out_of_range(self):
        table = BinomialTable(12)
        with pytest.raises(ValueError):
            table.unrank(math.comb(12, 3), 3, 12)
        with pytest.raises(ValueError):
            table.unrank(-1, 3, 12)
        with pytest.raises(ValueError):
            table.unrank(0, 2, 13)


class TestByteWalk:
    """The byte walk against the pulse walk, which places one pulse per step,
    and against the math.comb oracles: each test calls both kernels directly,
    _byte_unrank/_byte_rank and a table's _unrank/_rank, at every pulse count."""

    def test_each_row_is_the_run_starts_then_the_next_start(self):
        # a possible pattern P starts its run at the sum of C(h + p_t, r - |P| + t);
        # an impossible one repeats the next possible start, or C(h + 8, r) past the last
        walks = combinatorics._build_byte_walks()
        assert [h for h, _ in walks[-1]] == list(range(56, -1, -8))
        for i, (h, tables) in enumerate(walks[-1][::-1]):
            assert walks[i][0] == (h, tables) and len(tables) == h + 9
            for r, row in enumerate(tables):
                assert row.typecode == "Q" and len(row) == 256
                want, run = [0] * 256, math.comb(h + 8, r)
                for p in range(255, -1, -1):
                    lines = [t for t in range(8) if p >> t & 1]
                    q = len(lines)
                    if r - h <= q <= r:
                        run = sum(math.comb(h + t, r - q + j) for j, t in enumerate(lines, 1))
                    want[p] = run
                assert row.tolist() == want, (h, r)

    @pytest.mark.parametrize("n", [64, 63, 32, 20])
    def test_random_ranks_match_the_pulse_walk(self, n):
        table, rnd = BinomialTable(n), random.Random(n)
        for m in range(n + 1):
            for x in (rnd.randrange(math.comb(n, m)) for _ in range(20)):
                d, state = table._unrank(x, m, n, 0), rnd.getrandbits(n)
                assert d.bit_count() == m and d >> n == 0
                assert combinatorics._byte_unrank(x, m, n, state) == state ^ d
                assert combinatorics._byte_rank(d, m) == table._rank(d, m) == x

    def test_exhaustive_small_tables_match_the_pulse_walk(self):
        table = BinomialTable(12)
        for n in range(13):
            for m in range(n + 1):
                for x, subset in enumerate(colex_subsets(n, m)):
                    d = mask(subset)
                    assert table._unrank(x, m, n, 0) == combinatorics._byte_unrank(x, m, n, 0) == d
                    assert table._rank(d, m) == combinatorics._byte_rank(d, m) == x

    @pytest.mark.parametrize("n", [20, 32, 63, 64])
    def test_words_at_the_edges_of_each_tier_and_walk(self, n):
        # every pulse count, at the first two, middle and last two ranks of its tier
        table = BinomialTable(n)
        for m in range(n + 1):
            size = math.comb(n, m)
            for x in {v % size for v in (0, 1, size // 2, -2, -1)}:
                d = combinatorics._byte_unrank(x, m, n, 0)
                assert d == table._unrank(x, m, n, 0) and d.bit_count() == m and d >> n == 0
                assert colex_rank(d) == x == combinatorics._byte_rank(d, m) == table._rank(d, m)
            assert combinatorics._byte_unrank(0, m, n, 0) == (1 << m) - 1
            assert combinatorics._byte_unrank(size - 1, m, n, 0) == ((1 << m) - 1) << (n - m)

    def test_the_first_and_last_word_of_every_run(self):
        # each possible entry of every row is the first rank of its pattern's run: the
        # block's pattern over the lowest lines below it, or over the highest for the last
        table = BinomialTable(64)
        for h, tables in combinatorics._build_byte_walks()[-1]:
            for r, row in enumerate(tables):
                for p in range(256):
                    low = r - p.bit_count()
                    if not 0 <= low <= h:
                        continue
                    first, last = p << h | (1 << low) - 1, p << h | ((1 << low) - 1) << (h - low)
                    for d in (first, last):
                        x = table._rank(d, r)
                        assert combinatorics._byte_rank(d, r) == x
                        assert combinatorics._byte_unrank(x, r, h + 8, 0) == d
                    assert table._rank(first, r) == row[p]

    def test_the_bank_is_built_on_the_first_dense_word(self, monkeypatch):
        # the pulse walk never reads the bank, at any density: the first byte
        # walk builds it, and every later one shares it
        monkeypatch.setattr(combinatorics, "_byte_walks", ())
        table = BinomialTable(64)
        assert table.unrank(7, 40, 64).bit_count() == 40
        assert table.rank((1 << 40) - 1) == 0
        assert combinatorics._byte_walks == ()
        assert combinatorics._byte_rank(0, 0) == 0
        walks = combinatorics._byte_walks
        assert len(walks) == 8
        assert combinatorics._byte_unrank(7, 40, 64, 0) == table.unrank(7, 40, 64)
        assert combinatorics._byte_walks is walks


class TestWord:
    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            Word(4, 2)
        with pytest.raises(ValueError):
            Word(-1, 4)

    def test_xor_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            Word(1, 3) ^ Word(1, 4)
        assert (Word(0b101, 3) ^ Word(0b110, 3)).value == 0b011

    def test_weight_and_string(self):
        w = Word(0b10100, 5)
        assert w.weight() == 2
        assert str(w) == "10100"
        assert w.length == 5

    def test_pulses_at_zero_and_two(self):
        w = Word(0b00101, 5)
        assert str(w) == "00101"  # line 0 rightmost
        assert [(w.value >> i) & 1 for i in range(3)] == [1, 0, 1]
