"""Syndrome decoders as bus encoders.

A complete decoder for a binary (N, K) code maps each of the 2^(N-K)
syndromes to a minimum-weight error pattern. Read backwards, that is a bus
encoder: treat the info word as the syndrome and transmit its coset leader
differentially. The stock constructions cover three interesting corners.
"""
from fractions import Fraction

from buslab import (
    coset_spec,
    dbi_spec,
    exact_average_distance,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    min_distance,
)

for code in (make_repetition(5), make_hamming(4), make_golay23()):
    codec = coset_spec(code).codec
    size = 1 << code.syndrome_bits
    mean = Fraction(sum(codec.differential_int(s).bit_count() for s in range(size)), size)
    tiers = codec.tier_counts()
    print(f"{code.name}: {code.length} lines, {code.syndrome_bits} info bits")
    print(f"  min distance     : {min_distance(code)}")
    print(f"  leader tiers     : {'/'.join(map(str, tiers))}")
    print(f"  max leader weight: {len(tiers) - 1}")
    print(f"  mean transitions : {mean} = {float(mean):.6f}")
    print()

# The Hamming (15,11) table is the single-pulse codebook: 4 info bits on 15
# lines at the floor 15/16. The Golay table is the sweet spot: 11 bits on 23
# lines averaging 2921/1024, about half the uncoded 5.5.

# The repetition-code encoder is DBI in differential clothing. DBI puts the
# info word (or its complement) directly on the wires; the coset encoder
# puts it in the XOR of consecutive bus words. Feed the coset codec the XOR
# of consecutive DBI inputs and the two toggle identical line counts step by
# step:
k = 4
dbi = make_codec(dbi_spec(k))
rep = make_codec(coset_spec(make_repetition(k + 1)))
inputs = [3, 9, 9, 14, 0, 7]
s_dbi, s_rep, prev = 0, 0, 0
print("step-by-step toggle counts, DBI vs repetition coset:")
for u in inputs:
    x = dbi.encode_int(s_dbi, u)
    t_dbi = (x ^ s_dbi).bit_count()
    s_dbi = x
    d = rep.differential_int(u ^ prev)
    s_rep ^= d
    print(f"  u={u:>2}: dbi toggles {t_dbi}, coset toggles {d.bit_count()}")
    prev = u

print()
print("exact means over all states and inputs:")
print("  dbi(4)             :", exact_average_distance(dbi_spec(4)).exact_mean)
print("  coset/repetition(5):", exact_average_distance(coset_spec(make_repetition(5))).exact_mean)
