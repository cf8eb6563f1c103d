from fractions import Fraction
from math import comb

import pytest

from buslab import analytics
from buslab.codecs import optimal_spec


def greedy_mean_weight(k, n):
    """Oracle: mean weight of the 2^k lowest-weight n-tuples, no closed form."""
    weights = sorted(v.bit_count() for v in range(1 << n))
    return Fraction(sum(weights[: 1 << k]), 1 << k)


class TestUncoded:
    def test_single_bit_pmf(self):
        assert analytics.uncoded_distance_pmf(1) == [Fraction(1, 2), Fraction(1, 2)]

    def test_pmf_entry(self):
        assert analytics.uncoded_distance_pmf(4)[2] == Fraction(6, 16)

    def test_pmf_normalizes_and_mean_is_half_k(self):
        for k in (1, 4, 11, 20):
            pmf = analytics.uncoded_distance_pmf(k)
            assert sum(pmf) == 1
            assert sum(d * p for d, p in enumerate(pmf)) == Fraction(k, 2)

    def test_d_unc(self):
        assert analytics.d_unc(4) == 2
        assert analytics.d_unc(11) == Fraction(11, 2)
        assert analytics.d_unc(1) == Fraction(1, 2)

    def test_range(self):
        with pytest.raises(ValueError):
            analytics.uncoded_distance_pmf(0)
        with pytest.raises(ValueError):
            analytics.d_unc(65)


class TestDmax:
    def test_golay_geometry(self):
        assert analytics.d_max(11, 12) == 3

    def test_max_redundancy(self):
        assert analytics.d_max(4, 11) == 1

    def test_single_added_line(self):
        # cumulative sums of C(12, i): 1, 13, 79, 299, 794, 1586, 2510
        sums = [sum(comb(12, i) for i in range(m + 1)) for m in range(7)]
        assert sums == [1, 13, 79, 299, 794, 1586, 2510]
        assert analytics.d_max(11, 1) == 6

    def test_no_redundancy_uses_the_whole_space(self):
        for k in (1, 3, 8):
            assert analytics.d_max(k, 0) == k

    def test_smallest_case(self):
        assert analytics.d_max(1, 1) == 1

    @pytest.mark.parametrize("name", ["d_max", "d_opt", "sweep"])
    def test_negative_b_is_rejected_before_any_codec(self, name):
        # the closed forms' own check, not Codec.check's text of the same words
        with pytest.raises(ValueError, match=r"^b=-1 must be >= 0$"):
            list(analytics.sweep(4, -1)) if name == "sweep" else getattr(analytics, name)(4, -1)


class TestDopt:
    def test_golay_value(self):
        assert analytics.d_opt(11, 12) == Fraction(2921, 1024)

    def test_max_redundancy_value(self):
        assert analytics.d_opt(4, 11) == Fraction(15, 16)

    def test_single_added_line_value(self):
        v = analytics.d_opt(11, 1)
        assert v == Fraction(2379, 512)
        assert float(v) == 4.646484375

    def test_matches_greedy_oracle(self):
        for k in range(1, 7):
            for b in range(0, 7):
                n = k + b
                if n > 12:
                    break
                assert analytics.d_opt(k, b) == greedy_mean_weight(k, n)

    def test_monotone_in_b(self):
        for k in (2, 5, 8):
            prev = None
            for b in range(0, 20):
                v = analytics.d_opt(k, b)
                if prev is not None:
                    assert v <= prev
                prev = v

    def test_floor_is_d_min(self):
        for k in range(1, 7):
            floor = analytics.d_min(k)
            for b in range(0, (1 << k) + 4 - k):
                assert analytics.d_opt(k, b) >= floor
            assert analytics.d_opt(k, (1 << k) - 1 - k) == floor

    def test_no_redundancy_cannot_beat_uncoded(self):
        # relabeling alone saves nothing on a uniform source: equality at b=0
        for k in range(1, 9):
            assert analytics.d_opt(k, 0) == analytics.d_unc(k)

    def test_wide_bus_past_the_flat_region(self):
        assert analytics.d_opt(11, 2036) == analytics.d_min(11)
        assert analytics.d_opt(11, 3000) == analytics.d_min(11)


class TestDmin:
    def test_values(self):
        assert analytics.d_min(4) == Fraction(15, 16)
        assert analytics.d_min(11) == Fraction(2047, 2048)
        assert analytics.d_min(1) == Fraction(1, 2)


class TestEnergySaving:
    def test_golay_point(self):
        s = analytics.energy_saving(11, 12)
        assert s == 1 - Fraction(2921, 1024) / Fraction(11, 2)
        assert format(float(s), ".9g") == "0.481356534"

    def test_dbi_point(self):
        assert format(float(analytics.energy_saving(11, 1)), ".9g") == "0.155184659"

    def test_max_redundancy_point(self):
        assert analytics.energy_saving(4, 11) == Fraction(17, 32)
        assert analytics.d_min(4) / analytics.d_unc(4) == Fraction(15, 32)

    def test_saving_nondecreasing_in_b(self):
        for k in (3, 6):
            prev = None
            for b in range(0, 24):
                s = analytics.energy_saving(k, b)
                assert 0 <= s < 1
                if prev is not None:
                    assert s >= prev
                prev = s


class TestCost:
    def test_golay_cost(self):
        assert analytics.encoding_cost(11, 12) == Fraction(77121, 1024)
        assert analytics.encoding_cost(11, 12) == 25 * Fraction(2921, 1024) + 4

    def test_max_redundancy_cost(self):
        assert analytics.encoding_cost(4, 11) == Fraction(287, 16)

    def test_smallest_smoke_case(self):
        assert analytics.d_max(1, 1) == 1
        assert analytics.d_opt(1, 1) == Fraction(1, 2)
        assert analytics.encoding_cost(1, 1) == 4

    def test_one_codeword_trace_counters(self):
        # (clocks, n*m + d_max + 1 comparisons, 2*m additions) for one weight-m word
        assert optimal_spec(11, 12).codec.trace_counters(3, 1) == (3, 73, 6)
        assert optimal_spec(4, 11).codec.trace_counters(1, 1) == (1, 17, 2)  # n=15, d_max=1
        assert optimal_spec(4, 6).codec.trace_counters(0, 1) == (0, 3, 0)  # n=10, d_max=2
