import math
from itertools import combinations

import pytest

from buslab.combinatorics import (
    BinomialTable,
    CapacityError,
    PulsePositions,
    Word,
    mppm_rank,
    mppm_unrank,
    positions_to_word,
    word_to_positions,
)


def colex_subsets(n, m):
    """Oracle: all m-subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), m), key=lambda t: t[::-1])


class TestBinomialTable:
    def test_base_case(self):
        table = BinomialTable(0)
        assert table.binom(0, 0) == 1

    def test_known_entries(self):
        table = BinomialTable(23)
        assert table.binom(23, 3) == 1771 == math.comb(23, 3)
        assert table.binom(12, 6) == 924 == math.comb(12, 6)

    def test_pascal_identity_everywhere(self):
        table = BinomialTable(30)
        for i in range(1, 31):
            for j in range(1, i):
                assert table.binom(i, j) == table.binom(i - 1, j - 1) + table.binom(i - 1, j)

    def test_edges_are_one(self):
        table = BinomialTable(20)
        for i in range(21):
            assert table.binom(i, 0) == 1
            assert table.binom(i, i) == 1

    def test_zero_above_diagonal(self):
        table = BinomialTable(6)
        assert table.binom(3, 5) == 0

    def test_capacity_error_names_entry(self):
        with pytest.raises(CapacityError) as err:
            BinomialTable(12, max_value=100)
        # first Pascal sum past 100 is C(9,4) = 126
        assert (err.value.n, err.value.k, err.value.value) == (9, 4, 126)
        assert "C(9,4)" in str(err.value)

    def test_large_table_within_default_capacity(self):
        table = BinomialTable(64)
        assert table.binom(64, 32) == math.comb(64, 32)

    def test_range_errors(self):
        table = BinomialTable(5)
        with pytest.raises(ValueError):
            table.binom(6, 1)
        with pytest.raises(ValueError):
            table.binom(3, -1)
        with pytest.raises(ValueError):
            BinomialTable(-1)


class TestRankUnrank:
    def test_rank_zero_is_lowest_positions(self):
        table = BinomialTable(23)
        assert mppm_unrank(table, 0, 3, 23).positions == (0, 1, 2)

    def test_max_rank_is_highest_positions(self):
        table = BinomialTable(23)
        assert mppm_unrank(table, 1770, 3, 23).positions == (20, 21, 22)

    def test_unrank_against_colex_oracle(self):
        table = BinomialTable(12)
        assert colex_subsets(12, 2)[5] == (2, 3)
        assert mppm_unrank(table, 5, 2, 12).positions == (2, 3)

    def test_rank_examples(self):
        table = BinomialTable(23)
        assert mppm_rank(table, PulsePositions((0, 1, 2))) == 0
        assert mppm_rank(table, PulsePositions((2, 3))) == 5
        # C(20,1) + C(21,2) + C(22,3) = 20 + 210 + 1540
        assert mppm_rank(table, PulsePositions((20, 21, 22))) == 1770

    def test_exhaustive_bijection_and_order(self):
        table = BinomialTable(12)
        for n in range(13):
            for m in range(n + 1):
                expected = colex_subsets(n, m)
                assert len(expected) == table.binom(n, m)
                for x, subset in enumerate(expected):
                    p = mppm_unrank(table, x, m, n)
                    assert p.positions == subset
                    assert mppm_rank(table, p) == x

    def test_empty_pattern(self):
        table = BinomialTable(8)
        assert mppm_unrank(table, 0, 0, 8).positions == ()
        assert mppm_rank(table, PulsePositions(())) == 0

    def test_rank_out_of_range(self):
        table = BinomialTable(12)
        with pytest.raises(ValueError):
            mppm_unrank(table, table.binom(12, 3), 3, 12)
        with pytest.raises(ValueError):
            mppm_unrank(table, -1, 3, 12)
        with pytest.raises(ValueError):
            mppm_unrank(table, 0, 2, 13)


class TestPositionsWords:
    def test_pulses_at_zero_and_two(self):
        w = positions_to_word(PulsePositions((0, 2)), 5)
        assert w.value == 0b00101
        assert str(w) == "00101"  # line 0 rightmost
        assert (w.bit(0), w.bit(1), w.bit(2)) == (1, 0, 1)

    def test_empty_positions(self):
        assert positions_to_word(PulsePositions(()), 5) == Word.zero(5)

    def test_round_trip_weight_two_words(self):
        for a, b in combinations(range(6), 2):
            p = PulsePositions((a, b))
            assert word_to_positions(positions_to_word(p, 6)) == p

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            positions_to_word(PulsePositions((0, 5)), 5)

    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            PulsePositions((3, 3))
        with pytest.raises(ValueError):
            PulsePositions((2, 1))
        with pytest.raises(ValueError):
            PulsePositions((-1, 0))


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
        w = Word.from_string("10100")
        assert w.weight() == 2
        assert str(w) == "10100"
        assert w.length == 5

    def test_bad_string(self):
        with pytest.raises(ValueError):
            Word.from_string("10x")
