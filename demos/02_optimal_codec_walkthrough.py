"""How the optimal codec turns an info value into pulse positions.

The info value u first picks a pulse count m (the smallest whose tier of
binomial sums exceeds u), then the leftover rank places the m pulses via
the integer <-> m-subset bijection x = C(s_1,1) + ... + C(s_m,m).
"""
from buslab import (
    BinomialTable,
    BusState,
    CorruptedWordError,
    Word,
    decode,
    encode,
    make_codec,
    optimal_spec,
)


def lines(d):
    """Pulse lines of the bitmask d, ascending."""
    return tuple(s for s in range(d.bit_length()) if d >> s & 1)


# -- the subset bijection on its own ----------------------------------------
table = BinomialTable(23)
print("rank 0 of 3-subsets of 23 :", lines(table.unrank(0, 3, 23)))
print("rank 5 of 2-subsets of 12 :", lines(table.unrank(5, 2, 12)))
print("rank 1770 (the last)      :", lines(table.unrank(1770, 3, 23)))
print("rank(unrank(1234))        :", table.rank(table.unrank(1234, 3, 23)))
print()

# -- tier selection ----------------------------------------------------------
spec = optimal_spec(11, 12)  # 11 info bits on 23 lines
codec = make_codec(spec)
print("tier sums for n=23:", codec.tier_sums, "-> d_max =", codec.d_max)
for u in (0, 1, 24, 276, 277, 2047):
    d = codec.differential_int(u)
    print(f"  u={u:>4} -> {d.bit_count()} pulse(s) at {lines(d)}")
print()

# -- differential encoding on the bus ---------------------------------------
state = BusState(Word.zero(23))
trace = [29, 29, 2047, 0]
print("driving the bus from the all-zero state:")
for u in trace:
    x = encode(spec, state, Word(u, 11))
    toggled = (x ^ state.x_prev).weight()
    back = decode(spec, state, x)
    print(f"  u={u:>4}: bus={x} toggles={toggled} decode={back.value}")
    state = BusState(x)
print()

# -- the decoder rejects impossible words ------------------------------------
# weight 4 exceeds d_max, so no reachable word differs from the state by it
try:
    codec.info_int(0b1111)
except CorruptedWordError as err:
    print("corrupted word rejected:", err)

# a small bus with a partial top tier: k=3 on 4 lines keeps only the first
# three weight-2 patterns, so the other three decode as corrupted
small = make_codec(optimal_spec(3, 1))
kept = [Word(table.unrank(r, 2, 4), 4) for r in range(3)]
print("kept weight-2 patterns    :", [str(w) for w in kept])
try:
    small.info_int(0b1100)
except CorruptedWordError as err:
    print("rejected pattern 1100    :", err)
