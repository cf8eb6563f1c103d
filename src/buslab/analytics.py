"""Closed-form performance figures for low-weight differential bus codes.

Everything is exact rational arithmetic; floats appear only when callers
format for display. Notation: k information bits, b added lines, n = k + b
bus lines, d_max the smallest weight radius whose Hamming ball in n
dimensions holds at least 2^k words.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add
from typing import Iterator

__all__ = [
    "MAX_INFO_BITS",
    "MAX_LINES",
    "uncoded_distance_pmf",
    "d_unc",
    "d_max",
    "d_opt",
    "sweep",
    "d_min",
    "energy_saving",
    "encoding_cost",
]

MAX_INFO_BITS = 64
# Wide enough for the maximum-redundancy bus of k = 20 (n = 2^20 - 1) and for
# sweeps far past the point where the saving curve flattens.
MAX_LINES = 1 << 22


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_INFO_BITS:
        raise ValueError(f"k={k} out of range 1..{MAX_INFO_BITS}")


def _check_kb(k: int, b: int) -> int:
    _check_k(k)
    if b < 0:
        raise ValueError(f"b={b} must be >= 0")
    n = k + b
    if n > MAX_LINES:
        raise ValueError(f"n={n} exceeds the supported line count {MAX_LINES}")
    return n


def uncoded_distance_pmf(k: int) -> list[Fraction]:
    """P(two uniform k-bit words differ in exactly d lines), d = 0..k."""
    _check_k(k)
    denom = 1 << k
    return [Fraction(comb(k, d), denom) for d in range(k + 1)]


def d_unc(k: int) -> Fraction:
    """Average transitions per word on an uncoded k-line bus: k/2."""
    _check_k(k)
    return Fraction(k, 2)


def d_max(k: int, b: int) -> int:
    """Smallest m with C(n,0) + ... + C(n,m) >= 2^k, n = k + b."""
    n = _check_kb(k, b)
    need = 1 << k
    total = 1
    m = 0
    while total < need:
        m += 1
        total += comb(n, m)
    return m


def d_opt(k: int, b: int) -> Fraction:
    """Average weight of the 2^k lowest-weight n-tuples.

    Equals d_max minus sum over i < d_max of (d_max - i) * C(n,i) / 2^k:
    every word the codebook is missing from the full radius-d_max ball gets
    traded down from weight d_max tier by tier.
    """
    n = _check_kb(k, b)
    dm = d_max(k, b)
    need = 1 << k
    return Fraction(dm * need - sum((dm - i) * comb(n, i) for i in range(dm)), need)


def sweep(k: int, b_max: int) -> Iterator[tuple[int, int, int]]:
    """Yield (b, d_max(k,b), 2^k * d_opt(k,b)) for b = 0..b_max, in integers.

    Each added line updates the row C(n, 0..d_max) by Pascal's rule; d_max
    only falls as n grows, and the shortfall of d_opt is the sum of the
    partial row sums below d_max. (k, b_max) is checked before the first row.
    """
    _check_kb(k, b_max)
    need = 1 << k
    row = [comb(k, i) for i in range(k + 1)]
    for b in range(b_max + 1):
        if b:
            row = [1, *map(add, row[1:], row)]
        partial = list(accumulate(row))
        dm = bisect_left(partial, need)
        del row[dm + 1:]
        yield b, dm, dm * need - sum(partial[:dm])


def d_min(k: int) -> Fraction:
    """Floor over all b: average weight 1 - 2^-k of the pulse-or-zero codebook."""
    _check_k(k)
    return Fraction((1 << k) - 1, 1 << k)


def energy_saving(k: int, b: int) -> Fraction:
    """Fractional reduction in average transitions: 1 - d_opt(k,b)/d_unc(k)."""
    return 1 - d_opt(k, b) / d_unc(k)


def encoding_cost(k: int, b: int) -> Fraction:
    """Average modulator cost per word, in comparison units.

    Unranking a weight-m word costs n*m comparisons plus 2*m add/subtracts
    (counted at comparison weight), and picking the pulse count costs another
    d_max + 1 comparisons, so the average is (n+2)*d_opt(k,b) + d_max + 1.
    """
    n = _check_kb(k, b)
    return (n + 2) * d_opt(k, b) + d_max(k, b) + 1
