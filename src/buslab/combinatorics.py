"""Exact binomial tables and the bijection between integers and m-subsets.

Pulse patterns on a bus are m-subsets of the n line indices, held as
bitmask ints (bit s set for a pulse on line s). The rank of a subset
(s_1 < ... < s_m) is C(s_1,1) + C(s_2,2) + ... + C(s_m,m), which enumerates
all m-subsets of {0..n-1} in colexicographic order as the rank runs over
0 .. C(n,m)-1 (Knuth, TAOCP Vol. 4A, 7.2.1.3). The table stores one column
C(0..n_max, l) per pulse index l, and per pulse count m the run of columns
m down to 2. Unranking places pulses m..2 with one binary search of the
remainder in each column of the run, the software form of a bank of
parallel comparators against the stored coefficients followed by a priority
select; pulse 1 needs no search, since C(i, 1) = i puts it on line x, the
remainder left.

Conventions used across the package: bit i of a word is bus line i, line 0
is the least significant bit, and printed words show line 0 rightmost.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import add, index

__all__ = [
    "Word",
    "BinomialTable",
]


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """Fixed-width bit vector; bit i is the state of bus line i."""

    value: int
    length: int

    # explicit rather than generated: one call fewer than __post_init__
    def __init__(self, value: int, length: int):
        value, length = index(value), index(length)  # Python ints: no numpy scalar, no float
        if length < 0:
            raise ValueError(f"word length must be >= 0, got {length}")
        if not (0 <= value and value.bit_length() <= length):
            raise ValueError(f"value {value} does not fit in {length} bits")
        # frozen: the slots' own setters (below) cost less than object.__setattr__
        _set_value(self, value)
        _set_length(self, length)

    @classmethod
    def zero(cls, length: int) -> "Word":
        return cls(0, length)

    def weight(self) -> int:
        return self.value.bit_count()

    def __xor__(self, other: "Word") -> "Word":
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return Word(self.value ^ other.value, self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""


# The slots' setters, for Word.__init__ and for buslab.encode/decode, which
# build their result as object.__new__(Word) and these two setters. They check
# nothing: use them only for a Python int that a kernel proves in range.
_set_value, _set_length = Word.__dict__["value"].__set__, Word.__dict__["length"].__set__


class BinomialTable:
    """Exact C(i, j) for 0 <= j <= i <= n_max, stored by column.

    Column j lists C(i, j) for i = 0..n_max: zero below the diagonal, then
    strictly increasing, so it is sorted and a comparator bank can search it.
    The run of m pulses is columns m down to 2, built once per table. rank
    and unrank work on bitmask words (bit s set for a pulse on line s): each
    takes index() of its arguments, as Word does, and checks them, then runs
    the one unchecked kernel _rank/_unrank. OptimalCodec binds the kernels
    once and calls them per word: its tier bisect and Codec's range check
    bound their arguments.
    """

    __slots__ = ("n_max", "_cols", "_runs")

    def __init__(self, n_max: int):
        n_max = index(n_max)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = n_max
        row = [1] + [0] * n_max  # row i is C(i, 0..n_max), zero-padded
        rows = [row]
        for _ in range(n_max):
            row = [1, *map(add, row, row[1:])]  # Pascal's rule
            rows.append(row)
        cols = self._cols = tuple(zip(*rows))
        self._runs = tuple(cols[m:1:-1] for m in range(n_max + 1))

    def binom(self, n: int, k: int) -> int:
        """C(n, k); zero when k > n, error when out of the table's range."""
        n, k = index(n), index(k)
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} out of table range 0..{self.n_max}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k > n:
            return 0
        return self._cols[k][n]

    def unrank(self, x: int, m: int, n: int) -> int:
        """Bitmask of the m-subset of {0..n-1} with colex rank x: the checks,
        then _unrank onto the empty word."""
        x, m, n = index(x), index(m), index(n)
        if not 0 <= m <= n:
            raise ValueError(f"m={m} out of range 0..{n}")
        if n > self.n_max:
            raise ValueError(f"n={n} exceeds table range (n_max={self.n_max})")
        size = self._cols[m][n]
        if not 0 <= x < size:
            raise ValueError(f"rank {x} out of range for C({n},{m})={size}")
        return self._unrank(x, m, n, 0)

    def _unrank(self, x: int, m: int, n: int, d: int) -> int:
        """unrank's kernel, for 0 <= m <= n <= n_max and 0 <= x < C(n, m):
        the word d with the m pulses toggled onto it.

        For l = m down to 2, pulse l sits on the largest line i with
        C(i, l) <= remainder: one bisect of column l, bounded by the line
        of pulse l + 1 (n holds it), since the remainder is then below
        C(that line, l). Pulse 1 sits on the line the remainder names, as
        C(i, 1) = i.
        """
        for col in self._runs[m]:
            n = bisect_right(col, x, 0, n) - 1
            d ^= 1 << n
            x -= col[n]
        return d ^ (1 << x) if m else d

    def rank(self, d: int) -> int:
        """Colex rank of the pulse pattern d among the subsets of its weight:
        the check, then _rank."""
        d = index(d)
        if d < 0 or d.bit_length() > self.n_max:
            raise ValueError(
                f"pulse pattern must be a nonnegative word of at most {self.n_max} lines"
            )
        return self._rank(d, d.bit_count())

    def _rank(self, d: int, m: int) -> int:
        """rank's kernel, for 0 <= d < 2^n_max with m = popcount(d): pulses
        m..2 read their columns, and pulse 1 adds its own line."""
        x = 0
        for col in self._runs[m]:
            i = d.bit_length() - 1
            x += col[i]
            d ^= 1 << i
        return x + d.bit_length() - 1 if m else 0
