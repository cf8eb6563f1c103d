"""Each codec's vectorized step_weights kernel against its scalar path.

Differential families must give weight(differential_int(u)) for every u;
DBI and the uncoded bus must give the lines toggled by a scalar encode_int
walk from the all-zero bus. Small info spaces are checked exhaustively,
wide ones (k = 24, 40, 64 and DBI up to k = 63) on sampled words.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buslab.codecs import (
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


def _label(spec):
    return f"{spec.family.value}-{spec.k}-{spec.b}"


def _words(values):
    return np.array(values, dtype=np.uint64)


def _scalar_walk(codec, us, prev):
    """Weights of a scalar encode_int walk from the all-zero bus over prev, us."""
    state = codec.encode_int(0, prev)
    out = []
    for u in us:
        x = codec.encode_int(state, u)
        out.append((x ^ state).bit_count())
        state = x
    return out


@pytest.mark.parametrize("spec", SMALL_DIFFERENTIAL, ids=_label)
def test_differential_kernel_exhaustive(spec):
    codec = make_codec(spec)
    us = np.arange(1 << spec.k, dtype=np.uint64)
    expected = [codec.differential_int(u).bit_count() for u in range(1 << spec.k)]
    for prev in (0, (1 << spec.k) - 1):  # the bus state cancels
        assert codec.step_weights(us, prev).tolist() == expected


@pytest.mark.parametrize(
    "spec", [s for s in WIDE_DIFFERENTIAL if s.family.value == "optimal"], ids=_label
)
def test_optimal_kernel_at_tier_boundaries(spec):
    codec = make_codec(spec)
    edges = {0, (1 << spec.k) - 1}
    for t in codec.tier_sums[:-1]:
        edges.update({t - 1, t})
    us = sorted(edges)
    got = codec.step_weights(_words(us), 0).tolist()
    assert got == [codec.differential_int(u).bit_count() for u in us]


@pytest.mark.parametrize("spec", WIDE_DIFFERENTIAL, ids=_label)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_differential_kernel_sampled(spec, data):
    codec = make_codec(spec)
    us = data.draw(st.lists(st.integers(0, (1 << spec.k) - 1), min_size=1, max_size=40))
    prev = data.draw(st.integers(0, (1 << spec.k) - 1))
    got = codec.step_weights(_words(us), prev).tolist()
    assert got == [codec.differential_int(u).bit_count() for u in us]


@pytest.mark.parametrize("spec", [s for s in STATEFUL if s.k <= 5], ids=_label)
def test_stateful_kernel_exhaustive_pairs(spec):
    codec = make_codec(spec)
    space = list(range(1 << spec.k))
    us = _words(space)
    for prev in space:
        assert codec.step_weights(us, prev).tolist() == _scalar_walk(codec, space, prev)


@pytest.mark.parametrize("spec", WIDE_STATEFUL, ids=_label)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stateful_kernel_sampled(spec, data):
    codec = make_codec(spec)
    word = st.integers(0, (1 << spec.k) - 1)
    us = data.draw(st.lists(word, min_size=1, max_size=60))
    prev = data.draw(st.one_of(st.just(0), word))
    assert codec.step_weights(_words(us), prev).tolist() == _scalar_walk(codec, us, prev)


@pytest.mark.parametrize("spec", WIDE_STATEFUL, ids=_label)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_chunk_carry_matches_one_chunk(spec, data):
    # a chunk split anywhere, carrying the last word across, changes nothing
    codec = make_codec(spec)
    us = data.draw(st.lists(st.integers(0, (1 << spec.k) - 1), min_size=2, max_size=60))
    cut = data.draw(st.integers(1, len(us) - 1))
    whole = codec.step_weights(_words(us), 0).tolist()
    head = codec.step_weights(_words(us[:cut]), 0).tolist()
    tail = codec.step_weights(_words(us[cut:]), us[cut - 1]).tolist()
    assert head + tail == whole
