"""Closed-form performance figures for low-weight differential bus codes.

Everything is exact rational arithmetic; floats appear only when callers
format for display. Notation: k information bits, b added lines, n = k + b
bus lines, d_max the smallest weight radius whose Hamming ball in n
dimensions holds at least 2^k words.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index
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


# index() first, as Codec.encode_int: a numpy scalar's 1 << k cannot wrap, a float fails
def _check_k(k: int) -> int:
    k = index(k)
    if not 1 <= k <= MAX_INFO_BITS:
        raise ValueError(f"k={k} out of range 1..{MAX_INFO_BITS}")
    return k


def _check_kb(k: int, b: int) -> tuple[int, int]:
    k, b = _check_k(k), index(b)
    if b < 0:
        raise ValueError(f"b={b} must be >= 0")
    if k + b > MAX_LINES:
        raise ValueError(f"n={k + b} exceeds the supported line count {MAX_LINES}")
    return k, b


def _modulator_counts(n: int, d_max: int, pulses: int, words: int) -> tuple[int, int, int]:
    """(clocks, comparisons, additions) of the pulse-by-pulse modulator sending
    words info words, pulses pulses in all, on n lines: per pulse one clock, n
    comparisons and 2 add/subtracts; per word, d_max + 1 comparisons pick its pulse count."""
    return (pulses, n * pulses + (d_max + 1) * words, 2 * pulses)


def uncoded_distance_pmf(k: int) -> list[Fraction]:
    """P(two uniform k-bit words differ in exactly d lines), d = 0..k."""
    k = _check_k(k)
    denom = 1 << k
    return [Fraction(comb(k, d), denom) for d in range(k + 1)]


def d_unc(k: int) -> Fraction:
    """Average transitions per word on an uncoded k-line bus: k/2."""
    return Fraction(_check_k(k), 2)


def _scaled_d_opt(k: int, b: int) -> tuple[int, int]:
    """(d_max, 2^k * d_opt) in integers: 2^k * d_opt is d_max * 2^k less the
    sum of s[i] = C(n,0) + ... + C(n,i) over i < d_max, as each word missing
    from the radius-d_max ball is traded down from weight d_max tier by tier."""
    k, b = _check_kb(k, b)
    n = k + b
    need = 1 << k
    total = 1
    short = m = 0
    while total < need:
        short += total
        m += 1
        total += comb(n, m)
    return m, m * need - short


def d_max(k: int, b: int) -> int:
    """Smallest m with C(n,0) + ... + C(n,m) >= 2^k, n = k + b."""
    return _scaled_d_opt(k, b)[0]


def d_opt(k: int, b: int) -> Fraction:
    """Average weight of the 2^k lowest-weight n-tuples."""
    return Fraction(_scaled_d_opt(k, b)[1], 1 << index(k))  # k checked by _scaled_d_opt


def sweep(k: int, b_max: int) -> Iterator[tuple[int, int, int]]:
    """Yield (b, d_max(k,b), 2^k * d_opt(k,b)) for b = 0..b_max, in integers.

    Carries three integers, each updated in O(1) per added line and per tier
    d_max falls past: c = C(n, d_max - 1), top = s[d_max - 1] and short, the
    sum of s[i] = C(n,0) + ... + C(n,i) over i < d_max. By Pascal's rule an
    added line turns short into 2 * short - top and top into 2 * top - c;
    d_max only falls as n grows, and each tier it falls past leaves short.
    (k, b_max) is checked before the first row.
    """
    k, b_max = _check_kb(k, b_max)
    n, need = k, 1 << k
    # at b = 0 only the all-ones word lies outside radius k - 1, and the s[i]
    # sum to k 2^(k-1), so d_opt = k/2
    dm, c, top, short = k, k, need - 1, k << (k - 1)
    for b in range(b_max + 1):
        yield b, dm, dm * need - short
        short += short - top
        top += top - c
        n += 1
        c = c * n // (n + 1 - dm)  # C(n, dm-1) from C(n-1, dm-1), exactly
        # up to 32 tiers at once: k = 64 falls from d_max 64 to 32 at b = 1
        while top >= need:
            short -= top
            top -= c
            dm -= 1
            c = c * dm // (n - dm + 1)  # C(n, dm-1) from C(n, dm), exactly


def d_min(k: int) -> Fraction:
    """Floor over all b: average weight 1 - 2^-k of the pulse-or-zero codebook."""
    k = _check_k(k)
    return Fraction((1 << k) - 1, 1 << k)


def energy_saving(k: int, b: int) -> Fraction:
    """Fractional reduction in average transitions: 1 - d_opt(k,b)/d_unc(k)."""
    return 1 - d_opt(k, b) / d_unc(k)


def encoding_cost(k: int, b: int) -> Fraction:
    """Average modulator cost per word, in comparison units: the comparisons
    and additions of _modulator_counts over the 2^k info words, which come to
    (n+2)*d_opt(k,b) + d_max + 1."""
    k, b = _check_kb(k, b)
    dm, num = _scaled_d_opt(k, b)
    return Fraction(sum(_modulator_counts(k + b, dm, num, 1 << k)[1:]), 1 << k)
