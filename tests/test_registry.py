"""The family registry: every Family member has one codec class that carries
its required b, its caps, a codec-free exact mean and its trace counters.
Also the package's exports: every name in an __all__ resolves, and every
public name of buslab comes from some submodule's __all__."""
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest

import buslab
from buslab import analytics
from buslab.codecs import (
    _FAMILY_CODECS,
    Codec,
    CodecSpec,
    Family,
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
from buslab.verify import _enumerated_mean

FAMILIES = list(Family)
STOCK_COSETS = [make_repetition(9), make_hamming(4), make_golay23()]


def _message(spec_args):
    with pytest.raises(ValueError) as exc:
        CodecSpec(*spec_args)
    return str(exc.value)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_every_family_has_one_codec_class(family):
    cls = _FAMILY_CODECS[family]
    assert issubclass(cls, Codec) and cls is not Codec
    if family is Family.COSET:
        spec = coset_spec(make_hamming(3))
    else:
        b = cls.required_b(3)
        spec = CodecSpec(family, 3, 2 if b is None else b)
    assert type(make_codec(spec)) is cls


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_the_range_check_lives_in_codec_and_the_families_keep_only_kernels(family):
    cls = _FAMILY_CODECS[family]
    assert not {"encode_int", "decode_int"} & set(vars(cls))
    assert cls._encode is not Codec._encode and cls._decode is not Codec._decode


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("k", [1, 4, 8])
def test_a_fixed_b_is_required_and_a_free_b_is_not(family, k):
    b = _FAMILY_CODECS[family].required_b(k)
    if b is None:
        # optimal takes any b >= 0; a coset's b is its code's dimension
        assert family in (Family.OPTIMAL_MPPM, Family.COSET)
        if family is Family.OPTIMAL_MPPM:
            for free in (0, 1, 64 - k):
                assert CodecSpec(family, k, free).b == free
            assert _message((family, k, -1)) == "b=-1 must be >= 0"
        return
    assert CodecSpec(family, k, b).n == k + b
    for wrong in (b - 1, b + 1):
        assert _message((family, k, wrong)).endswith(f"requires b={b}, got b={wrong}")


@pytest.mark.parametrize(
    "spec_args",
    [(Family.UNCODED, 65, 0), (Family.DBI, 64, 1), (Family.OPTIMAL_MPPM, 33, 32)],
    ids=["uncoded", "dbi", "optimal"],
)
def test_the_width_cap_has_one_text(spec_args):
    assert _message(spec_args) == "bus width capped at 64 lines, got n=65"
    family, k, b = spec_args
    CodecSpec(family, k - 1, b)  # one line fewer is fine


def test_ppm0_caps_k_instead():
    assert _message((Family.PPM0, 21, (1 << 21) - 22)) == "ppm0 supports k <= 20, got 21"
    assert ppm0_spec(20).n == (1 << 20) - 1


EXHAUSTIVE = (
    [uncoded_spec(k) for k in range(1, 15)]
    + [dbi_spec(k) for k in range(1, 15)]
    + [ppm0_spec(k) for k in range(1, 13)]
    + [optimal_spec(k, b) for k in range(1, 13) for b in (0, 1, 2, 5, 12, 52 - k)]
    + [coset_spec(code) for code in STOCK_COSETS]
)


@pytest.mark.parametrize("spec", EXHAUSTIVE, ids=lambda s: f"{s.family.value}-k{s.k}-b{s.b}")
def test_exact_mean_equals_the_exhaustive_average(spec):
    mean = _FAMILY_CODECS[spec.family].exact_mean(spec)
    if spec.family in (Family.UNCODED, Family.DBI):
        # count the steps of encode_int: from every state for n <= 8, else
        # from three seeded ones, as every state has the same mean
        codec, n = spec.codec, spec.n
        states = range(1 << n) if n <= 8 else [random.Random(n).getrandbits(n) for _ in range(3)]
        for s in states:
            steps = sum((codec.encode_int(s, u) ^ s).bit_count() for u in range(1 << spec.k))
            assert Fraction(steps, 1 << spec.k) == mean, s
    else:
        # for ppm0 and optimal this ties d_min and d_opt, and for coset the
        # leader table's tier counts, to the codec's own step histogram over
        # all 2^k info words, the enumeration `verify optimal` runs
        assert mean == _enumerated_mean(spec)


def test_closed_form_exact_means():
    # each codebook below is the 2^k lightest n-tuples at its own b, so its
    # closed form is d_opt: ppm0's d_min = 1 - 2^-k at b = 2^k - 1 - k and
    # uncoded's k/2; DBI inherits d_opt itself (test_closed_form.py ties it
    # to de Moivre's one-binomial form)
    assert _FAMILY_CODECS[Family.OPTIMAL_MPPM].exact_mean(optimal_spec(11, 12)) == (
        analytics.d_opt(11, 12)
    )
    ppm0, uncoded, dbi = (_FAMILY_CODECS[f] for f in (Family.PPM0, Family.UNCODED, Family.DBI))
    for k in range(1, 21):
        assert ppm0.exact_mean(ppm0_spec(k)) == analytics.d_min(k)
    assert uncoded.exact_mean(uncoded_spec(64)) == 32
    for k in range(1, 65):
        assert uncoded.exact_mean(uncoded_spec(k)) == analytics.d_opt(k, 0)
    assert dbi.exact_mean is Codec.exact_mean


def test_exact_mean_builds_no_codec():
    # a fresh spec per call, as the closed-form benchmark's exact ops hold:
    # resolving a codec there cost about a tenth of their throughput
    specs = [uncoded_spec(64), dbi_spec(63), ppm0_spec(20), optimal_spec(40, 24),
             optimal_spec(11, 12), dbi_spec(8)]
    info = make_codec.cache_info()
    before = info.hits + info.misses
    for spec in specs:
        _FAMILY_CODECS[spec.family].exact_mean(spec)
        assert "codec" not in vars(spec)
    info = make_codec.cache_info()
    assert info.hits + info.misses == before


def test_only_the_optimal_modulator_counts_clocks():
    for spec in (uncoded_spec(8), dbi_spec(8), ppm0_spec(4), coset_spec(make_golay23())):
        assert spec.codec.trace_counters(100, 10) == (0, 0, 0)
    codec = optimal_spec(11, 12).codec  # d_max = 3 on 23 lines
    assert codec.trace_counters(100, 10) == (100, 23 * 100 + 4 * 10, 200)


def _submodules():
    names = [m.name for m in pkgutil.iter_modules(buslab.__path__) if m.name != "__main__"]
    return [importlib.import_module(f"buslab.{name}") for name in sorted(names)]


@pytest.mark.parametrize("module", _submodules(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_public_package_name_is_exported_by_a_submodule():
    exported = {name for module in _submodules() for name in module.__all__}
    public = {
        name for name, value in vars(buslab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - exported == set()
