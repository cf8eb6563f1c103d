"""Exact binomial tables and the bijection between integers and m-subsets.

Pulse patterns on a bus are m-subsets of the n line indices, held as
bitmask ints (bit s set for a pulse on line s). The rank of a subset
(s_1 < ... < s_m) is C(s_1,1) + C(s_2,2) + ... + C(s_m,m), which enumerates
all m-subsets of {0..n-1} in colexicographic order as the rank runs over
0 .. C(n,m)-1 (Knuth, TAOCP Vol. 4A, 7.2.1.3). The table stores only the
columns that the search reads, C(0..n_max, l) for l = 2..n_max, kept per
pulse count m as the run of columns m down to 2. Unranking places pulses
m..2 with one binary search of the remainder in each column of the run, the
software form of a bank of parallel comparators against the stored
coefficients followed by a priority select; pulse 1 needs no search, since
C(i, 1) = i puts it on line x, the remainder left. This is the pulse walk,
one step per pulse: BinomialTable's kernels and the reference walk.

The byte walk is the same bank 8 lines wide: from the top block down, one
bisect of a block's 256 run starts places all its pulses, and rank adds its
pattern's run start (see _build_byte_walks). Its kernels _byte_unrank and
_byte_rank are module functions on one bank of lines 0..63, built on the
first call. The optimal codec takes one of the two walks for all its words,
chosen once from its pulse budget (OptimalCodec).

Conventions used across the package: bit i of a word is bus line i, line 0
is the least significant bit, and printed words show line 0 rightmost.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import index

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
    """The comparator bank: exact C(i, l) for i = 0..n_max and l = 2..n_max,
    stored by column, with the pulse walk's kernels.

    Column l lists C(i, l) for i = 0..n_max: zero for i < l, then strictly
    increasing, so it is sorted and a comparator bank can search it. The
    run of m pulses is columns m down to 2, and _bits[i] is line i's mask
    1 << i, both built once per table: a kernel step reads its line's mask.
    rank and unrank work on bitmask words (bit s set for a pulse on line s):
    each takes index() of its arguments, as Word does, and checks them, then
    runs the unchecked kernel _rank/_unrank. An optimal codec with sparse
    words binds _unrank and _rank once and calls them per word: its tier
    bisect and Codec's range check bound their arguments.
    """

    __slots__ = ("n_max", "_runs", "_bits")

    def __init__(self, n_max: int):
        n_max = index(n_max)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = n_max
        lines = range(n_max + 1)
        # hockey stick: C(i, l) is the sum of C(j, l - 1) for j < i, from column 1's C(i, 1) = i;
        # columns 0 and 1 are never searched: empty placeholders
        cols, col = [(), ()], lines
        for _ in lines[2:]:
            col = tuple(accumulate(col[:-1], initial=0))
            cols.append(col)
        self._runs = tuple(tuple(cols[m:1:-1]) for m in lines)
        self._bits = tuple(1 << i for i in range(n_max))

    def unrank(self, x: int, m: int, n: int) -> int:
        """Bitmask of the m-subset of {0..n-1} with colex rank x: the checks,
        then _unrank onto the empty word."""
        x, m, n = index(x), index(m), index(n)
        if not 0 <= m <= n:
            raise ValueError(f"m={m} out of range 0..{n}")
        if n > self.n_max:
            raise ValueError(f"n={n} exceeds table range (n_max={self.n_max})")
        size = comb(n, m)
        if not 0 <= x < size:
            raise ValueError(f"rank {x} out of range for C({n},{m})={size}")
        return self._unrank(x, m, n, 0)

    def _unrank(self, x: int, m: int, n: int, d: int) -> int:
        """unrank's kernel, for 0 <= m <= n <= n_max and 0 <= x < C(n, m): the
        word d with the m pulses toggled onto it. For l = m down to 2, pulse l
        sits on the largest line i with C(i, l) <= remainder: one bisect of
        column l, bounded by the line of pulse l + 1 (n holds it), since the
        remainder is then below C(that line, l). Pulse 1 sits on the line the
        remainder names, as C(i, 1) = i."""
        bits = self._bits
        for col in self._runs[m]:
            n = bisect_right(col, x, 0, n) - 1
            d ^= bits[n]
            x -= col[n]
        return d ^ bits[x] if m else d

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
        x, bits = 0, self._bits
        for col in self._runs[m]:
            i = d.bit_length() - 1
            x += col[i]
            d ^= bits[i]
        return x + d.bit_length() - 1 if m else 0


def _byte_unrank(x: int, m: int, n: int, d: int) -> int:
    """BinomialTable._unrank by the byte walk, for 0 <= m <= n <= 64 and
    0 <= x < C(n, m), on no table: from the top block of n lines down, the
    block's pattern is the one whose row entry is the last <= remainder."""
    for h, tables in (_byte_walks or _build_byte_walks())[(n - 1) >> 3]:
        row = tables[m]
        p = bisect_right(row, x) - 1
        x -= row[p]
        d ^= p << h
        m -= p.bit_count()
        if not m:  # at the latest in block 0, where r - h <= |P| <= r puts |P| = r
            return d


def _byte_rank(d: int, m: int) -> int:
    """BinomialTable._rank by the byte walk, for 0 <= d < 2^64 with
    m = popcount(d): from d's top block down, each block's pattern reads its
    run start. d = 0 walks from block 7, whose row 0 starts at 0."""
    x = 0
    for h, tables in (_byte_walks or _build_byte_walks())[(d.bit_length() - 1) >> 3]:
        p = d >> h & 0xFF
        x += tables[m][p]
        m -= p.bit_count()
        if not m:
            return x


# The byte-wide bank: lines 0..63 in blocks of 8, built on the first call of
# a byte walk, as no trace runs these kernels.
_byte_walks: tuple = ()


def _build_byte_walks() -> tuple:
    """For each top block, the blocks from it down to line 0 as (h, tables):
    tables[r][P] counts the r-subsets of lines 0..h+7 whose pattern on lines
    h..h+7 is below P, by the recurrence T_r[P] = T_{r-1}[P less its top
    line] + C(h + top, r) from T_{-1} = 0: those with no line at or above
    P's top in the block, then those with the top line and a lower rest.

    The r-subsets with one pattern P hold one run of consecutive colex ranks,
    in P's integer order, so a row is sorted, and a possible P's entry is
    the first rank of its run. An impossible P (more than r lines, or fewer
    than r - h) holds an empty run, so its entry is the next possible one's,
    or C(h + 8, r) past the last: bisect_right(row, x) - 1 lands on a
    possible P. Every entry is at most C(64, 32) < 2^64: one array('Q') per
    row.
    """
    global _byte_walks
    blocks = []
    for h in range(0, 64, 8):
        row, tables = [0] * 256, []
        for r in range(h + 9):
            tops = [comb(i, r) for i in range(h, h + 8)]
            row = [0, *(v + tops[b] for b in range(8) for v in row[:1 << b])]
            tables.append(array("Q", row))
        blocks.append((h, tuple(tables)))
    _byte_walks = tuple(tuple(blocks[i::-1]) for i in range(len(blocks)))
    return _byte_walks
