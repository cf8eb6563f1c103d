"""Reference values the benchmark checks buslab's outputs against.

Everything here is derived from first principles with `math.comb` and
`fractions.Fraction`; nothing imports buslab, so a defect in the code under
measurement cannot also hide in its reference.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Chance that a correct trace fails its mean gate. The z limit comes from
# Bernstein's inequality, which holds at any trace length: a fixed limit
# under the normal approximation does not hold for rare step weights (one
# zero step in a 1,000-word ppm0 k=16 trace, a 1.5% event, is z = -8).
FALSE_ALARM = 1e-9


def weight_counts(family: str, k: int, b: int, code: str | None = None) -> dict[int, int]:
    """Per-step transition count w -> number of equally likely cases, out of 2^k.

    Every family's per-step weight is independent of the bus state for a
    uniform info word, so a trace is i.i.d. draws from this distribution
    (for DBI, the state's indicator bit only mirrors the binomial).
    """
    n = k + b
    if family == "uncoded":
        return {w: math.comb(k, w) for w in range(k + 1)}
    if family == "dbi":
        # distance to the plain candidate is B (+ the indicator bit) with
        # B ~ Bin(k, 1/2); DBI sends whichever of d and n - d is smaller
        counts: dict[int, int] = {}
        for d in range(k + 1):
            w = min(d, n - d)
            counts[w] = counts.get(w, 0) + math.comb(k, d)
        return counts
    if family == "ppm0":
        return {0: 1, 1: (1 << k) - 1}
    if family == "optimal":
        # fill the 2^k codebook from the lowest-weight tier upward
        counts, left, m = {}, 1 << k, 0
        while left:
            take = min(math.comb(n, m), left)
            counts[m] = take
            left -= take
            m += 1
        return counts
    if family == "coset":
        if code in ("golay23", "hamming"):
            # perfect codes: the leaders are exactly the patterns of weight <= t
            t = 3 if code == "golay23" else 1
            return {w: math.comb(n, w) for w in range(t + 1)}
        if code == "repetition":
            # each coset is {e, ~e}; its leader weighs min(w, n - w)
            counts = {}
            for w in range(n + 1):
                lead = min(w, n - w)
                counts[lead] = counts.get(lead, 0) + math.comb(n, w)
            return {w: c // 2 for w, c in counts.items()}
    raise ValueError(f"no reference for {family} k={k} b={b} code={code}")


def mean_and_variance(counts: dict[int, int]) -> tuple[Fraction, Fraction]:
    total = sum(counts.values())
    mean = Fraction(sum(w * c for w, c in counts.items()), total)
    second = Fraction(sum(w * w * c for w, c in counts.items()), total)
    return mean, second - mean * mean


def d_opt(k: int, b: int) -> tuple[int, Fraction]:
    """(d_max, average weight of the 2^k lightest n-tuples), by filling tiers.

    buslab's closed form subtracts a shortfall from d_max; this sums the
    tiers directly, so the two agree only if both are right.
    """
    counts = weight_counts("optimal", k, b)
    return max(counts), Fraction(sum(w * c for w, c in counts.items()), 1 << k)


def fmt_dec(x: Fraction) -> str:
    """buslab's documented display rounding: 9 significant digits."""
    return format(float(x), ".9g")


def z_limit(words: int, counts: dict[int, int]) -> float:
    """|z| beyond which a trace of `words` steps fails, with probability at
    most FALSE_ALARM for a correct codec (Bernstein's inequality)."""
    mean, var = mean_and_variance(counts)
    reach = float(max(abs(w - mean) for w in counts))
    log_term = math.log(2 / FALSE_ALARM)
    linear = log_term * reach / 3
    limit = linear + math.sqrt(linear * linear + 2 * log_term * words * float(var))
    return limit / math.sqrt(words * float(var))


def trace_failures(
    hist: list[int], total: int, words: int, counts: dict[int, int]
) -> list[str]:
    """Gate one trace: histogram accounts for every word, support is possible,
    and the mean's z-score against the exact mean is within `z_limit`."""
    failures = []
    if sum(hist) != words:
        failures.append(f"histogram total {sum(hist)} != {words} words")
    observed = sum(w * c for w, c in enumerate(hist) if c)
    if observed != total:
        failures.append(f"histogram weight sum {observed} != total {total}")
    impossible = [w for w, c in enumerate(hist) if c and w not in counts]
    if impossible:
        failures.append(f"impossible step weights {impossible[:5]}")
    mean, var = mean_and_variance(counts)
    z = float(Fraction(observed, words) - mean) / math.sqrt(var / words)
    limit = z_limit(words, counts)
    if abs(z) > limit:
        failures.append(f"trace mean z-score {z:.2f} beyond {limit:.2f}, exact mean {mean}")
    return failures
