import math
from itertools import combinations

import pytest

from buslab.combinatorics import BinomialTable, Word


def colex_subsets(n, m):
    """Oracle: all m-subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), m), key=lambda t: t[::-1])


def mask(subset):
    return sum(1 << s for s in subset)


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
