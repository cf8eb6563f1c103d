"""The public scalar encode/decode path: one codec lookup per spec, the same
error texts at every layer, and specs and words that stay plain values."""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from buslab import analytics, codecs
from buslab.codecs import (
    BusState,
    CorruptedWordError,
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

ROOT = Path(__file__).resolve().parents[1]


def _specs():
    # fresh instances per test, so no spec has resolved its codec yet
    return [
        uncoded_spec(8), dbi_spec(8), ppm0_spec(4), optimal_spec(11, 12),
        coset_spec(make_golay23()), coset_spec(make_repetition(9)),
    ]


def _label(spec):
    return f"{spec.family.value}-{spec.k}-{spec.b}"


IDS = [_label(s) for s in _specs()]


def _lookups():
    info = make_codec.cache_info()
    return info.hits + info.misses


def _message(call, *args):
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


@pytest.mark.parametrize("i", range(6), ids=IDS)
def test_a_thousand_pairs_resolve_the_codec_at_most_once(i):
    spec = _specs()[i]
    states = [BusState(Word(s * 37 % (1 << spec.n), spec.n)) for s in range(8)]
    before = _lookups()
    for u in range(1000):
        word = Word(u % (1 << spec.k), spec.k)
        state = states[u % 8]
        assert decode(spec, state, encode(spec, state, word)) == word
    assert _lookups() - before <= 1


@pytest.mark.parametrize("i", range(6), ids=IDS)
def test_one_word_and_one_kernel_call_per_scalar_call(i, monkeypatch):
    spec = _specs()[i]
    codec = spec.codec
    state, u = BusState(Word((1 << spec.n) - 2, spec.n)), Word((1 << spec.k) - 1, spec.k)
    builds, checked, kernels = [], [], []
    set_value, word_init = codecs._set_value, Word.__init__

    def built(word, value):
        builds.append(value)
        set_value(word, value)

    def constructed(word, value, length):
        checked.append(value)
        word_init(word, value, length)

    def spy(name, kernel):
        def counted(*args):
            kernels.append(name)
            return kernel(*args)
        return counted

    with monkeypatch.context() as m:
        # the result is built in its slots, once: count those builds, and any
        # checked Word construction, which the scalar path no longer makes
        m.setattr(codecs, "_set_value", built)
        m.setattr(Word, "__init__", constructed)
        # every int-level entry point, checked or not, so a kernel that calls
        # another counts twice, and a Word path that rechecks its ints shows
        names = ("_encode", "_decode", "encode_int", "decode_int", "differential_int", "info_int")
        for name in names:
            if hasattr(codec, name):
                m.setattr(codec, name, spy(name, getattr(codec, name)))
        x = encode(spec, state, u)
        assert (builds, checked, kernels) == ([x.value], [], ["_encode"])
        builds.clear()
        kernels.clear()
        y = decode(spec, state, x)
        assert (builds, checked, kernels) == ([u.value], [], ["_decode"])
    # the in-place Words are the Words the checked constructor makes
    assert x == Word(x.value, x.length) and y == u == Word(y.value, y.length)


def test_dbi_encode_past_the_width_cap_raises_every_time():
    text = "bus width capped at 64 lines, got n=65"
    for _ in range(2):  # the spec check keeps no state between calls
        assert _message(dbi_spec, 64) == text


def test_equal_specs_share_one_codec():
    a, b = optimal_spec(11, 12), optimal_spec(11, 12)
    assert a is not b and a.codec is b.codec is make_codec(a)


@pytest.mark.parametrize("i", range(6), ids=IDS)
def test_length_errors_keep_their_texts(i):
    spec = _specs()[i]
    k, n = spec.k, spec.n
    good, wide = BusState(Word.zero(n)), BusState(Word.zero(n + 1))
    assert _message(encode, spec, wide, Word.zero(k)) == f"state length {n + 1} != n={n}"
    assert _message(decode, spec, wide, Word.zero(n)) == f"state length {n + 1} != n={n}"
    assert _message(encode, spec, good, Word.zero(k + 1)) == (
        f"info word length {k + 1} != k={k}"
    )
    assert _message(decode, spec, good, Word.zero(n - 1)) == (
        f"bus word length {n - 1} != n={n}"
    )
    # the state is checked first when both are wrong
    assert _message(encode, spec, wide, Word.zero(k + 1)).startswith("state length")
    assert _message(decode, spec, wide, Word.zero(n - 1)).startswith("state length")


@pytest.mark.parametrize("i", range(7), ids=[*IDS, "coset-7-120"])
@pytest.mark.parametrize("u", [-1, "size"])
def test_info_value_range_error_keeps_its_text(i, u):
    # Hamming(7)'s 127 lines keep top lines, the other cosets 64-bit words
    codec = make_codec([*_specs(), coset_spec(make_hamming(7))][i])
    k = codec.spec.k
    u = 1 << k if u == "size" else u
    assert _message(codec.encode_int, 0, u) == f"info value {u} out of range for k={k}"
    if hasattr(codec, "differential_int"):
        assert _message(codec.differential_int, u) == f"info value {u} out of range for k={k}"


@pytest.mark.parametrize(
    "spec", [*_specs(), ppm0_spec(2), ppm0_spec(18), coset_spec(make_hamming(3))], ids=_label
)
def test_decode_int_rejects_bus_values_outside_the_bus(spec):
    codec = make_codec(spec)
    n, top = spec.n, (1 << spec.k) - 1
    text = f"bus value outside [0, 2^{n}) for n={n}"
    for state in (0, (1 << n) - 1):
        for x in (-1, 1 << n, -(1 << n), 1 << (n + 8)):
            assert _message(codec.decode_int, state, x) == text
        # both edges of the info range still round-trip
        for u in (0, top):
            assert codec.decode_int(state, codec.encode_int(state, u)) == u
    if hasattr(codec, "info_int"):
        assert _message(codec.info_int, 1 << n) == text
    # every kernel holds the state to the bus as well, in both directions: a
    # negative state never runs out of lines, and a wider one runs past them
    for state in (-1, -(1 << n), 1 << n, 1 << (n + 8)):
        assert _message(codec.encode_int, state, 0) == text
        assert _message(codec.encode_int, state, top) == text
        assert _message(codec.decode_int, state, 0) == text


FIVE_FAMILIES = [
    uncoded_spec(8), dbi_spec(32), ppm0_spec(4), optimal_spec(11, 12), coset_spec(make_golay23()),
]


@pytest.mark.parametrize("spec", FIVE_FAMILIES, ids=_label)
@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.int64, np.uint64])
def test_numpy_integer_scalars_give_the_python_int_result(spec, dtype):
    # computed in the scalar's width, dbi-32's u << 1 would wrap at u = 2^32 - 1
    codec = make_codec(spec)
    big = int(np.iinfo(dtype).max)

    def scalar(v):  # the numpy scalar where the dtype holds v, else the int
        return dtype(v) if v <= big else v

    for s in (0, 5, (1 << spec.n) - 1):
        for u in (0, 1, min((1 << spec.k) - 1, big)):
            x = codec.encode_int(s, u)
            for got, want in (
                (codec.encode_int(scalar(s), dtype(u)), x),
                (codec.decode_int(scalar(s), scalar(x)), u),
            ):
                assert type(got) is int and got == want
    if hasattr(codec, "differential_int"):
        d = codec.differential_int(dtype(1))
        assert type(d) is int and type(codec.info_int(scalar(d))) is int
    w = Word(dtype(1), dtype(spec.k))
    assert type(w.value) is type(w.length) is int and w == Word(1, spec.k)
    state = BusState(Word(dtype(0), spec.n))
    assert decode(spec, state, encode(spec, state, w)) == w


@pytest.mark.parametrize("spec", FIVE_FAMILIES, ids=_label)
def test_floats_are_not_ints(spec):
    codec = make_codec(spec)
    calls = [
        (codec.encode_int, 0, 2.0), (codec.encode_int, 0.0, 1),
        (codec.decode_int, 0, 1.0), (codec.decode_int, 0.0, 0),
        (Word, 2.0, spec.k), (Word, 0, float(spec.k)),
    ]
    if hasattr(codec, "differential_int"):
        calls += [(codec.differential_int, 1.0), (codec.info_int, 0.0)]
    for call, *args in calls:
        with pytest.raises(TypeError):
            call(*args)


# every checked entry point that takes k, b or a table index, with the Python
# ints its case is named after: near 64, where a numpy scalar's 1 << k wraps
K_AND_B_CALLS = {
    "d_max-63-1": (analytics.d_max, (63, 1)),
    "d_opt-64-1": (analytics.d_opt, (64, 1)),
    "d_min-64": (analytics.d_min, (64,)),
    "d_unc-63": (analytics.d_unc, (63,)),
    "uncoded_distance_pmf-12": (analytics.uncoded_distance_pmf, (12,)),
    "energy_saving-64-1": (analytics.energy_saving, (64, 1)),
    "encoding_cost-63-1": (analytics.encoding_cost, (63, 1)),
    "sweep-64-3": (lambda k, b: list(analytics.sweep(k, b)), (64, 3)),
    "optimal_spec-63-1": (optimal_spec, (63, 1)),
    "uncoded_spec-64": (uncoded_spec, (64,)),
    "dbi_spec-63": (dbi_spec, (63,)),
    "ppm0_spec-4": (ppm0_spec, (4,)),
    "CodecSpec-11-12": (lambda k, b: codecs.CodecSpec(codecs.Family.OPTIMAL_MPPM, k, b), (11, 12)),
    "coset_spec_for-8-1": (codecs.coset_spec_for, (8, 1)),
    "coset_spec_for-4-11": (codecs.coset_spec_for, (4, 11)),
    "coset_spec_for-11-12": (codecs.coset_spec_for, (11, 12)),
    "make_repetition-9": (codecs.make_repetition, (9,)),
    "make_hamming-9": (codecs.make_hamming, (9,)),
    "binom-64-32": (BinomialTable(64).binom, (64, 32)),
    "rank-3": (BinomialTable(12).rank, (3,)),
    "unrank-2-1-3": (BinomialTable(12).unrank, (2, 1, 3)),
    "BinomialTable-12": (lambda n: BinomialTable(n).binom(12, 6), (12,)),
}


def _assert_plain(got, want):
    """got equals want in Python ints throughout; a spec's codec also spans
    the whole info range."""
    assert got == want
    if isinstance(want, codecs.CodecSpec):
        assert type(got.k) is type(got.b) is int
        top = (1 << want.k) - 1
        assert got.codec.encode_int(0, top) == want.codec.encode_int(0, top)
        if want.code is not None:
            _assert_plain(got.code, want.code)
    elif isinstance(want, codecs.LinearCode):
        assert all(type(v) is int for v in (got.length, got.dimension, got.radius, *got.h_rows))
    elif isinstance(want, Fraction):
        assert type(got.numerator) is type(got.denominator) is int
    elif isinstance(want, (list, tuple)):
        for g, w in zip(got, want):
            _assert_plain(g, w)
    else:
        assert type(got) is int


@pytest.mark.parametrize("name", K_AND_B_CALLS)
@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
def test_numpy_k_and_b_give_the_python_int_result(name, dtype):
    call, args = K_AND_B_CALLS[name]
    _assert_plain(call(*map(dtype, args)), call(*args))


@pytest.mark.parametrize("name", K_AND_B_CALLS)
def test_float_k_and_b_are_not_ints(name):
    call, args = K_AND_B_CALLS[name]
    for i in range(len(args)):
        with pytest.raises(TypeError):
            call(*args[:i], float(args[i]), *args[i + 1:])


@pytest.mark.parametrize(
    "spec, x, text",
    [
        (optimal_spec(11, 12), 0b1111, "differential weight 4 exceeds d_max=3"),
        (optimal_spec(3, 1), 0b1100, "weight-2 rank 5 is outside the emitted codebook"),
        (ppm0_spec(3), 0b101, "differential weight 2 exceeds d_max=1"),
    ],
    ids=["weight", "rank", "ppm0"],
)
def test_corrupted_word_errors_keep_their_texts(spec, x, text):
    for s in (0, 0b1010):
        state = BusState(Word(s, spec.n))
        with pytest.raises(CorruptedWordError) as exc:
            decode(spec, state, Word(x ^ s, spec.n))
        assert str(exc.value) == text


def test_word_errors_keep_their_texts():
    assert _message(Word, 0, -1) == "word length must be >= 0, got -1"
    assert _message(Word, 4, 2) == "value 4 does not fit in 2 bits"
    assert _message(Word, -1, 2) == "value -1 does not fit in 2 bits"
    assert _message(Word, 1, 0) == "value 1 does not fit in 0 bits"
    assert Word(3, 2).value == 3 and Word(0, 0).length == 0


@pytest.mark.parametrize("i", range(6), ids=IDS)
def test_a_used_spec_still_compares_hashes_and_pickles(i):
    spec = _specs()[i]
    fresh = dataclasses.replace(spec)
    codec = spec.codec
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and hash(clone) == hash(spec) and repr(clone) == repr(spec)
    assert clone.codec is codec and fresh.codec is codec
    # the pickle carries the fields, not the codec
    assert len(pickle.dumps(spec)) == len(pickle.dumps(fresh))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.k = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.codec = None


def test_word_is_still_a_frozen_dataclass():
    w = Word(5, 8)
    assert [f.name for f in dataclasses.fields(Word)] == ["value", "length"]
    assert w == Word(value=5, length=8) and hash(w) == hash(Word(5, 8))
    assert w != Word(5, 9) and repr(w) == "Word(value=5, length=8)"
    assert dataclasses.replace(w, value=3) == Word(3, 8)
    assert dataclasses.replace(w, length=3) == Word(5, 3)
    with pytest.raises(ValueError, match="does not fit in 8 bits"):
        dataclasses.replace(w, value=256)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.value = 1
    # slotted: the fields live in the slots, not in a per-instance dict
    assert not hasattr(w, "__dict__")
    assert copy.copy(w) == w and copy.deepcopy(w) == w
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(w, protocol))
        assert clone == w and repr(clone) == repr(w)
    assert encode(dbi_spec(8), BusState(Word.zero(9)), w) == Word(5 << 1, 9)


def test_import_builds_no_codec():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import buslab\n"
        "assert buslab.make_codec.cache_info().currsize == 0\n"
        "spec = buslab.coset_spec(buslab.make_golay23())\n"
        "assert 'codec' not in vars(spec)\n"
        "spec.codec\n"
        "assert buslab.make_codec.cache_info().currsize == 1\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
