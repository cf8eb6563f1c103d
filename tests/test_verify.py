"""`buslab verify` fails when the piece it audits is broken: each check's FAIL
return, reached by breaking one piece with monkeypatch, and the CLI's FAIL
line and exit code 1."""
import pytest

from buslab import analytics, verify
from buslab.cli import main
from buslab.codecs import CosetCodec, LinearCode, UncodedCodec, coset_spec, make_codec, make_hamming
from buslab.combinatorics import BinomialTable


def _fails(capsys, scope, check, detail):
    """check() fails with this detail, and `buslab verify scope` prints it as FAIL."""
    result = check()
    assert (result.name, result.passed, result.detail) == (scope, False, detail)
    assert main(["verify", scope]) == 1
    out = capsys.readouterr().out
    assert out == f"FAIL  {scope:<10} {detail}\n0/1 checks passed\n"


def _off_at(kernel, at, flip=1):
    """kernel, but with its result XORed by flip when its last arguments are at."""
    def broken(*args):
        got = kernel(*args)
        return got ^ flip if args[-len(at):] == at else got
    return broken


# colex pattern 3 of 2 among 4 lines is lines 0 and 3
@pytest.mark.parametrize("walk,owner,name", [
    ("unrank", BinomialTable, "_unrank"), ("byte unrank", verify, "_byte_unrank")])
def test_rank_fails_on_a_wrong_pattern(capsys, monkeypatch, walk, owner, name):
    monkeypatch.setattr(owner, name, _off_at(getattr(owner, name), (3, 2, 4, 0)))
    _fails(capsys, "rank", verify.check_rank_bijection, f"{walk}(3,2,4) = 0b1000, want 0b1001")


@pytest.mark.parametrize("walk,owner,name", [
    ("unrank", BinomialTable, "_rank"), ("byte unrank", verify, "_byte_rank")])
def test_rank_fails_on_a_wrong_rank(capsys, monkeypatch, walk, owner, name):
    monkeypatch.setattr(owner, name, _off_at(getattr(owner, name), (0b1001, 2)))
    _fails(capsys, "rank", verify.check_rank_bijection, f"rank({walk}(3,2,4)) != 3")


def test_roundtrip_fails_on_a_wrong_decode(capsys, monkeypatch):
    # uncoded k = 1 is the first spec, and state 0 its first state
    monkeypatch.setattr(UncodedCodec, "_decode", _off_at(UncodedCodec._decode, (0, 1)))
    _fails(capsys, "roundtrip", verify.check_roundtrip,
           "uncoded k=1 b=0: state=0 u=1 decoded 0")


def test_coset_fails_on_a_wrong_minimum_distance(capsys, monkeypatch):
    monkeypatch.setattr(verify, "min_distance", lambda code: 5)
    _fails(capsys, "coset", verify.check_coset, "golay minimum distance 5, want 7")


def test_coset_fails_on_a_heavy_leader(capsys, monkeypatch):
    codec = make_codec(coset_spec(make_hamming(4)))  # the cached codec the check reads
    weights = codec.weights.copy()
    weights[5] = 2
    monkeypatch.setattr(codec, "weights", weights)
    _fails(capsys, "coset", verify.check_coset, "hamming(15,11): leader weight 2 > 1")


def test_coset_fails_on_wrong_tiers(capsys, monkeypatch):
    monkeypatch.setattr(CosetCodec, "tier_counts", lambda self: (1, 14, 1))
    _fails(capsys, "coset", verify.check_coset, "hamming(15,11): tiers (1, 14, 1), want (1, 15)")


def test_coset_fails_on_a_wrong_column(capsys, monkeypatch):
    monkeypatch.setattr(LinearCode, "syndrome", _off_at(LinearCode.syndrome, (1 << 3,)))
    _fails(capsys, "coset", verify.check_coset, "hamming(15,11): columns of H != H*line")


def test_coset_fails_on_a_wrong_leader(capsys, monkeypatch):
    monkeypatch.setattr(CosetCodec, "_encode", _off_at(CosetCodec._encode, (0, 5)))
    _fails(capsys, "coset", verify.check_coset, "hamming(15,11): H*leader(5) != 5")


def test_optimal_fails_on_a_wrong_closed_form(capsys, monkeypatch):
    # exact_average_distance reads d_opt too, so the codec's steps and the
    # greedy count disagree with both
    d_opt = analytics.d_opt
    monkeypatch.setattr(analytics, "d_opt", lambda k, b: d_opt(k, b) + ((k, b) == (3, 2)))
    _fails(capsys, "optimal", verify.check_optimal_weight_law,
           "k=3 b=2: closed 17/8, codec 9/8, public 17/8, greedy 9/8 (d_max 2), "
           "sweep row (2, 2, 9)")


def test_all_reports_the_one_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(verify, "min_distance", lambda code: 5)
    assert main(["verify", "all"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out[:4]] == [
        ["PASS", "rank"], ["PASS", "roundtrip"], ["FAIL", "coset"], ["PASS", "optimal"]]
    assert out[4:] == ["3/4 checks passed"]


def test_an_unknown_scope_is_rejected():
    with pytest.raises(ValueError) as exc:
        verify.run_checks("nope")
    assert str(exc.value) == "unknown scope 'nope'; choose from ['all', 'coset', 'optimal', 'rank', 'roundtrip']"
