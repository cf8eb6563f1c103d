"""Self-check suites behind the `buslab verify` command.

Each check re-derives a property from scratch (exhaustive enumeration or an
independent counting oracle) rather than trusting the code path it audits.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import analytics
from .codecs import (
    CodecSpec,
    coset_spec,
    dbi_spec,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    min_distance,
    optimal_spec,
    ppm0_spec,
    uncoded_spec,
)
from .combinatorics import BinomialTable, _byte_rank, _byte_unrank
from .simulator import exact_average_distance

__all__ = ["CheckResult", "SCOPES", "run_checks"]

RANK_MAX_N = 12
ROUNDTRIP_STATES, ROUNDTRIP_SEED = 100, 20260808
OPTIMAL_MAX_K, OPTIMAL_MAX_B = 10, 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_rank_bijection() -> CheckResult:
    """Unrank must invert rank and walk subsets in colex order, for every
    n <= RANK_MAX_N, by the pulse walk and by the byte walk."""
    table = BinomialTable(RANK_MAX_N)
    walks = {"unrank": (table._unrank, table._rank), "byte unrank": (_byte_unrank, _byte_rank)}
    checked = 0
    for n in range(RANK_MAX_N + 1):
        for m in range(n + 1):
            expected = sorted(combinations(range(n), m), key=lambda t: t[::-1])
            for x, subset in enumerate(expected):
                want = sum(1 << s for s in subset)
                for walk, (unrank, rank) in walks.items():
                    d = unrank(x, m, n, 0)
                    if d != want:
                        return CheckResult(
                            "rank", False, f"{walk}({x},{m},{n}) = {d:#b}, want {want:#b}"
                        )
                    if rank(d, m) != x:
                        return CheckResult("rank", False, f"rank({walk}({x},{m},{n})) != {x}")
                checked += 1
    return CheckResult("rank", True, f"bijection holds for n <= {RANK_MAX_N} ({checked} patterns)")


def _roundtrip_specs() -> list[CodecSpec]:
    specs: list[CodecSpec] = []
    for k in (1, 4, 8, 12):
        specs.append(uncoded_spec(k))
        specs.append(dbi_spec(k))
    for k in (1, 2, 3, 4):
        specs.append(ppm0_spec(k))
    for k, b in ((1, 0), (1, 1), (3, 1), (4, 3), (4, 11), (8, 4), (11, 12), (12, 12)):
        specs.append(optimal_spec(k, b))
    specs.append(coset_spec(make_repetition(3)))
    specs.append(coset_spec(make_repetition(6)))
    specs.append(coset_spec(make_repetition(9)))
    specs.append(coset_spec(make_hamming(3)))
    specs.append(coset_spec(make_hamming(4)))
    specs.append(coset_spec(make_golay23()))
    return specs


def check_roundtrip() -> CheckResult:
    """decode(encode(u)) == u for every u, family and ROUNDTRIP_STATES states (ROUNDTRIP_SEED)."""
    rnd = random.Random(ROUNDTRIP_SEED)
    tried = 0
    for spec in _roundtrip_specs():
        codec = make_codec(spec)
        states = [0] + [rnd.getrandbits(spec.n) for _ in range(ROUNDTRIP_STATES - 1)]
        for s in states:
            for u in range(1 << spec.k):
                x = codec.encode_int(s, u)
                got = codec.decode_int(s, x)
                if got != u:
                    return CheckResult(
                        "roundtrip",
                        False,
                        f"{spec.family.value} k={spec.k} b={spec.b}: "
                        f"state={s} u={u} decoded {got}",
                    )
                tried += 1
    return CheckResult("roundtrip", True, f"{tried} encode/decode pairs inverted exactly")


def check_coset() -> CheckResult:
    """Leader tables of the stock codes: weights, tiers, columns of H, syndrome identity."""
    golay = make_golay23()
    dmin = min_distance(golay)
    if dmin != 7:
        return CheckResult("coset", False, f"golay minimum distance {dmin}, want 7")
    details = ["golay d_min=7"]
    for code, max_w, tiers in (
        (make_hamming(4), 1, (1, 15)),
        (golay, 3, (1, 23, 253, 1771)),
        (make_repetition(5), 2, (1, 5, 10)),
    ):
        codec = make_codec(coset_spec(code))
        heaviest, got = int(codec.weights.max()), codec.tier_counts()
        if heaviest > max_w:
            return CheckResult("coset", False, f"{code.name}: leader weight {heaviest} > {max_w}")
        if got != tiers:
            return CheckResult("coset", False, f"{code.name}: tiers {got}, want {tiers}")
        if list(code.line_syndromes) != [code.syndrome(1 << i) for i in range(code.length)]:
            return CheckResult("coset", False, f"{code.name}: columns of H != H*line")
        for s in range(1 << code.syndrome_bits):
            if code.syndrome(codec.differential_int(s)) != s:
                return CheckResult("coset", False, f"{code.name}: H*leader({s}) != {s}")
        details.append(f"{code.name} tiers {'/'.join(map(str, tiers))}")
    return CheckResult("coset", True, "; ".join(details))


def _enumerated_mean(spec: CodecSpec) -> Fraction:
    """A differential codec's mean step weight over all 2^k info words."""
    hist = spec.codec.step_histogram(np.arange(1 << spec.k, dtype=np.uint64), 0)
    return Fraction(int(hist @ np.arange(hist.size)), 1 << spec.k)


def _greedy_weights(k: int, n: int) -> tuple[int, int]:
    """(d_max, 2^k * mean weight) of the 2^k lowest-weight n-tuples, by
    counting all 2^n words by weight, then taking the lightest 2^k."""
    counts, left, total = Counter(map(int.bit_count, range(1 << n))), 1 << k, 0
    for w in range(n + 1):
        take = min(counts[w], left)
        left, total = left - take, total + w * take
        if not left:
            return w, total


def check_optimal_weight_law() -> CheckResult:
    """Closed form == codec steps == exact_average_distance == greedy count ==
    sweep row, on the grid k <= OPTIMAL_MAX_K, b <= OPTIMAL_MAX_B."""
    cells = 0
    for k in range(1, OPTIMAL_MAX_K + 1):
        for b, row in zip(range(OPTIMAL_MAX_B + 1), analytics.sweep(k, OPTIMAL_MAX_B)):
            spec = optimal_spec(k, b)
            closed = analytics.d_opt(k, b)
            codec_mean = _enumerated_mean(spec)
            public = exact_average_distance(spec).exact_mean
            dm, total = _greedy_weights(k, k + b)
            greedy = Fraction(total, 1 << k)
            if not (closed == codec_mean == public == greedy and row == (b, dm, total)):
                return CheckResult(
                    "optimal",
                    False,
                    f"k={k} b={b}: closed {closed}, codec {codec_mean}, public {public}, "
                    f"greedy {greedy} (d_max {dm}), sweep row {row}",
                )
            cells += 1
    return CheckResult("optimal", True, f"weight law exact on {cells} (k, b) cells")


SCOPES = {
    "rank": (check_rank_bijection,),
    "roundtrip": (check_roundtrip,),
    "coset": (check_coset,),
    "optimal": (check_optimal_weight_law,),
}
SCOPES["all"] = SCOPES["rank"] + SCOPES["roundtrip"] + SCOPES["coset"] + SCOPES["optimal"]


def run_checks(scope: str = "all") -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(SCOPES)}")
    return [check() for check in SCOPES[scope]]
