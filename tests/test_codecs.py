import random
from fractions import Fraction

import pytest

from buslab import analytics
from buslab.codecs import (
    CodecSpec,
    CorruptedWordError,
    Family,
    coset_spec,
    coset_spec_for,
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
from buslab.combinatorics import Word
from buslab.codecs import BusState


def all_info_words(k):
    return range(1 << k)


class TestSpecValidation:
    def test_family_parameter_rules(self):
        with pytest.raises(ValueError):
            CodecSpec(Family.UNCODED, 4, 1)
        with pytest.raises(ValueError):
            CodecSpec(Family.DBI, 4, 2)
        with pytest.raises(ValueError):
            CodecSpec(Family.PPM0, 4, 10)  # needs b = 11
        with pytest.raises(ValueError):
            CodecSpec(Family.OPTIMAL_MPPM, 33, 32)  # n = 65 > 64
        with pytest.raises(ValueError):
            CodecSpec(Family.UNCODED, 65, 0)
        with pytest.raises(ValueError):
            CodecSpec(Family.DBI, 64, 1)
        with pytest.raises(ValueError):
            CodecSpec(Family.COSET, 10, 13, make_golay23())  # k != 11

    def test_coset_needs_a_code(self):
        with pytest.raises(ValueError):
            CodecSpec(Family.COSET, 11, 12)

    def test_only_a_coset_spec_takes_a_code(self):
        with pytest.raises(ValueError, match=r"^optimal spec does not take a linear code$"):
            CodecSpec(Family.OPTIMAL_MPPM, 3, 4, make_hamming(3))

    def test_a_coset_spec_spans_its_code(self):
        with pytest.raises(ValueError, match=r"^coset n=8 != code length 7$"):
            CodecSpec(Family.COSET, 3, 5, make_hamming(3))

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_1_is_rejected_by_the_spec(self, k):
        # optimal's check would pass b = 2: the spec's own k check raises
        with pytest.raises(ValueError, match=rf"^k={k} must be >= 1$"):
            CodecSpec(Family.OPTIMAL_MPPM, k, 2)

    @pytest.mark.parametrize("k, b", [(3, 2), (1, 0), (11, 11)])
    def test_coset_spec_for_names_the_stock_constructions(self, k, b):
        with pytest.raises(ValueError) as exc:
            coset_spec_for(k, b)
        assert str(exc.value) == (
            f"no stock coset construction for k={k}, b={b}; "
            "supported: b=1 (repetition), b=2^k-1-k (hamming), (11,12) (golay)"
        )

    def test_n_property(self):
        assert optimal_spec(11, 12).n == 23
        assert ppm0_spec(4).n == 15


class TestEncodeExamples:
    def test_uncoded_identity(self):
        spec = uncoded_spec(4)
        for u in all_info_words(4):
            for s in (0, 0b1010, 0b1111):
                x = encode(spec, BusState(Word(s, 4)), Word(u, 4))
                assert x.value == u

    def test_optimal_zero_maps_to_zero_differential(self):
        spec = optimal_spec(4, 11)
        x = encode(spec, BusState(Word.zero(15)), Word.zero(4))
        assert x == Word.zero(15)

    def test_dbi_inverted_candidate_wins(self):
        # u||0 at distance 3 loses to complement(u)||1 at distance 2
        x = encode(dbi_spec(4), BusState(Word.zero(5)), Word(0b1110, 4))
        assert str(x) == "00011"

    def test_dbi_all_ones_from_zero_state(self):
        x = encode(dbi_spec(4), BusState(Word.zero(5)), Word(0b1111, 4))
        assert str(x) == "00001"

    def test_dbi_zero_distance_candidate(self):
        x = encode(dbi_spec(4), BusState(Word(0b10101, 5)), Word(0b0101, 4))
        assert str(x) == "10101"

    def test_dbi_zero_from_zero(self):
        x = encode(dbi_spec(4), BusState(Word.zero(5)), Word.zero(4))
        assert x == Word.zero(5)

    def test_dbi_tie_prefers_non_inverted(self):
        # k=1 from the zero state: both candidates toggle one line
        x = encode(dbi_spec(1), BusState(Word.zero(2)), Word(1, 1))
        assert str(x) == "10"  # data line 1 set, indicator line 0 clear


class TestOptimalDifferential:
    def test_zero_info_gives_zero_word(self):
        assert optimal_spec(11, 12).codec.differential_int(0) == 0

    def test_last_info_word_is_last_weight3_pattern(self):
        assert optimal_spec(11, 12).codec.differential_int(2047) == 0b111 << 20

    def test_single_pulse_tier(self):
        assert optimal_spec(4, 11).codec.differential_int(7) == 1 << 6

    def test_weight_is_a_nondecreasing_step_function(self):
        codec = make_codec(optimal_spec(8, 4))
        weights = [codec.differential_int(u).bit_count() for u in all_info_words(8)]
        assert weights == sorted(weights)


class TestTierSums:
    # OptimalCodec.tier_sums[m] = C(n, 0) + ... + C(n, m), up to the first >= 2^k
    def test_golay_ball_is_a_power_of_two(self):
        assert optimal_spec(11, 12).codec.tier_sums == (1, 24, 277, 2048)  # 1 + 23 + 253 + 1771

    def test_single_term(self):
        assert optimal_spec(11, 1).codec.tier_sums[0] == 1

    def test_partial_sum(self):
        # n = 12: 1 + 12 + 66 + 220 + 495 + 792, and 2510 ends the tiers at 2^11
        assert optimal_spec(11, 1).codec.tier_sums == (1, 13, 79, 299, 794, 1586, 2510)

    def test_full_sum_is_two_to_n(self):
        for n in range(1, 31):
            codec = optimal_spec(n, 0).codec
            assert (codec.tier_sums[-1], codec.d_max) == (1 << n, n)


class TestDecodeExamples:
    def test_optimal_decode_tier_offset(self):
        # pulses at lines 2 and 3: rank 5 in the two-pulse tier, base 24
        spec = optimal_spec(11, 12)
        x = Word((1 << 2) | (1 << 3), 23)
        assert decode(spec, BusState(Word.zero(23)), x).value == 29

    def test_golay_leader_decodes_to_its_syndrome(self):
        codec = make_codec(coset_spec(make_golay23()))
        s = int("10100000000", 2)
        leader = codec.differential_int(s)
        assert codec.decode_int(0, leader) == s

    def test_corrupted_weight_rejected(self):
        codec = make_codec(optimal_spec(11, 12))
        with pytest.raises(CorruptedWordError):
            codec.info_int(0b1111)  # weight 4 > d_max = 3

    def test_partial_top_tier_rejects_unused_patterns(self):
        # k=3, n=4: tiers 1 + 4 + first 3 of the 6 weight-2 patterns
        codec = make_codec(optimal_spec(3, 1))
        assert codec.d_max == 2
        accepted = {codec.info_int(d) for d in (0b0011, 0b0101, 0b0110)}
        assert accepted == {5, 6, 7}
        for d in (0b1001, 0b1010, 0b1100):
            with pytest.raises(CorruptedWordError):
                codec.info_int(d)

    def test_ppm0_rejects_multi_pulse(self):
        codec = make_codec(ppm0_spec(3))
        with pytest.raises(CorruptedWordError):
            codec.info_int(0b11)

    def test_dbi_accepts_a_word_it_could_not_have_sent(self):
        # only optimal and ppm0 detect corruption: DBI reads line 0 and needs
        # no state, so each u decodes from both of its n-bit forms
        codec = make_codec(dbi_spec(4))
        sent = {codec.encode_int(0, u) for u in range(16)}
        assert codec.encode_int(0, 15) == 0b00001 and 0b11110 not in sent
        assert codec.decode_int(0, 0b11110) == 15
        assert sorted(codec.decode_int(0, x) for x in range(32)) == sorted(2 * [*range(16)])


class TestRoundTrip:
    SPECS = [
        uncoded_spec(1),
        uncoded_spec(6),
        dbi_spec(1),
        dbi_spec(6),
        ppm0_spec(3),
        ppm0_spec(4),
        optimal_spec(1, 0),
        optimal_spec(4, 3),
        optimal_spec(7, 5),
        optimal_spec(11, 12),
        coset_spec(make_repetition(5)),
        coset_spec(make_hamming(3)),
        coset_spec(make_golay23()),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family.value}-k{s.k}-b{s.b}")
    def test_decode_inverts_encode(self, spec):
        codec = make_codec(spec)
        rnd = random.Random(0xBEEF + spec.n)
        states = [0, (1 << spec.n) - 1] + [rnd.getrandbits(spec.n) for _ in range(30)]
        for s in states:
            for u in all_info_words(spec.k):
                x = codec.encode_int(s, u)
                assert codec.decode_int(s, x) == u

    def test_word_level_round_trip(self):
        spec = optimal_spec(5, 4)
        state = BusState(Word(0b101010101, 9))
        for u in all_info_words(5):
            x = encode(spec, state, Word(u, 5))
            assert decode(spec, state, x) == Word(u, 5)

    def test_length_mismatches_raise(self):
        spec = optimal_spec(5, 4)
        with pytest.raises(ValueError):
            encode(spec, BusState(Word.zero(8)), Word.zero(5))
        with pytest.raises(ValueError):
            encode(spec, BusState(Word.zero(9)), Word.zero(4))
        with pytest.raises(ValueError):
            decode(spec, BusState(Word.zero(9)), Word.zero(5))


class TestInjectivity:
    @pytest.mark.parametrize(
        "spec",
        [
            optimal_spec(8, 4),
            optimal_spec(11, 12),
            coset_spec(make_hamming(4)),
            coset_spec(make_golay23()),
        ],
        ids=lambda s: f"{s.family.value}-k{s.k}-b{s.b}",
    )
    def test_differential_map_is_injective(self, spec):
        codec = make_codec(spec)
        seen = {codec.differential_int(u) for u in all_info_words(spec.k)}
        assert len(seen) == 1 << spec.k


class TestOptimalWeightLaw:
    def test_codec_mean_weight_matches_closed_form(self):
        for k in range(1, 13):
            for b in range(0, 13):
                if k + b > 24:
                    break
                codec = make_codec(optimal_spec(k, b))
                total = sum(codec.differential_int(u).bit_count() for u in all_info_words(k))
                assert Fraction(total, 1 << k) == analytics.d_opt(k, b), (k, b)

    def test_weight_bounded_by_d_max(self):
        for k, b in ((4, 3), (8, 8), (11, 12)):
            codec = make_codec(optimal_spec(k, b))
            dm = analytics.d_max(k, b)
            assert codec.d_max == dm
            assert all(
                codec.differential_int(u).bit_count() <= dm for u in all_info_words(k)
            )

    def test_coset_weight_bounded_by_max_leader(self):
        codec = make_codec(coset_spec(make_golay23()))
        assert all(
            codec.differential_int(u).bit_count() <= 3 for u in all_info_words(11)
        )


class TestPpm0:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])  # n = 2^k - 1 <= 63, inside optimal's cap
    def test_optimal_at_max_redundancy_is_ppm0(self, k):
        ppm0 = make_codec(ppm0_spec(k))
        opt = make_codec(optimal_spec(k, (1 << k) - 1 - k))
        rnd = random.Random(k)
        states = [0, *(rnd.getrandbits(ppm0_spec(k).n) for _ in range(4))]
        for u in all_info_words(k):
            # the pulse-or-zero codebook from first principles, not one codec against the other
            d = 1 << (u - 1) if u else 0
            assert ppm0.differential_int(u) == opt.differential_int(u) == d
            for codec in (ppm0, opt):
                for s in states:
                    assert codec.decode_int(s, codec.encode_int(s, u)) == u
        mean = Fraction(
            sum(ppm0.differential_int(u).bit_count() for u in all_info_words(k)), 1 << k
        )
        assert mean == 1 - Fraction(1, 1 << k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_hamming_coset_equals_ppm0(self, k):
        ppm0 = make_codec(ppm0_spec(k))
        ham = make_codec(coset_spec(make_hamming(k)))
        for u in all_info_words(k):
            assert ppm0.differential_int(u) == ham.differential_int(u)


class TestCosetIdentity:
    @pytest.mark.parametrize(
        "code", [make_repetition(5), make_hamming(4), make_golay23()], ids=lambda c: c.name
    )
    def test_syndrome_of_differential_is_the_info_word(self, code):
        codec = make_codec(coset_spec(code))
        for u in all_info_words(code.syndrome_bits):
            assert code.syndrome(codec.differential_int(u)) == u


def dbi_transitions(k, state, u):
    """Transitions one DBI step makes from `state` on info word `u`."""
    codec = make_codec(dbi_spec(k))
    return (codec.encode_int(state, u) ^ state).bit_count()


def dbi_syndrome(k, word):
    """Info-difference the DBI wire image carries: data lines XOR indicator."""
    mask = (1 << k) - 1
    data = word >> 1
    return data ^ mask if word & 1 else data


class TestDbiRepetitionEquivalence:
    """DBI and the repetition-code coset encoder toggle the same number of
    lines at every step once their inputs are matched: the coset codec sees
    the XOR of consecutive DBI info words (DBI carries the info directly on
    the wires; the coset scheme carries it in the differential)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_exhaustive_state_and_input(self, k):
        rep = make_codec(coset_spec(make_repetition(k + 1)))
        for state in range(1 << (k + 1)):
            for u in all_info_words(k):
                t_dbi = dbi_transitions(k, state, u)
                v = u ^ dbi_syndrome(k, state)
                t_coset = rep.differential_int(v).bit_count()
                assert t_dbi == t_coset, (k, state, u)

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_matched_trajectories(self, k):
        dbi = make_codec(dbi_spec(k))
        rep = make_codec(coset_spec(make_repetition(k + 1)))
        rnd = random.Random(0xD1FF + k)
        for _ in range(25):
            infos = [rnd.getrandbits(k) for _ in range(60)]
            s_dbi = s_rep = 0
            prev = 0
            for u in infos:
                x = dbi.encode_int(s_dbi, u)
                t_dbi = (x ^ s_dbi).bit_count()
                s_dbi = x
                d = rep.differential_int(u ^ prev)
                t_rep = d.bit_count()
                s_rep ^= d
                prev = u
                assert t_dbi == t_rep

    def test_exact_means_match(self):
        from buslab.simulator import exact_average_distance

        dbi_mean = exact_average_distance(dbi_spec(4)).exact_mean
        rep_mean = exact_average_distance(coset_spec(make_repetition(5))).exact_mean
        assert dbi_mean == rep_mean == Fraction(25, 16)
