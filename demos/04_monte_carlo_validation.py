"""Monte Carlo traces against the closed forms.

Traces draw uniform info words (PCG64, seeded) from the all-zero bus state
and count toggled lines per step. For the optimal codec the trace also
accounts modulator work: one clock and n comparisons + 2 additions per
pulse, plus d_max + 1 comparisons per word to pick the pulse count.
"""
from buslab import (
    TraceConfig,
    analytics,
    convergence_check,
    dbi_spec,
    exact_average_distance,
    optimal_spec,
    run_trace,
    uncoded_spec,
)

LENGTH = 500_000

for spec, reference in (
    (uncoded_spec(11), analytics.d_unc(11)),
    (optimal_spec(11, 12), analytics.d_opt(11, 12)),
    (dbi_spec(11), None),
):
    cfg = TraceConfig(spec=spec, trace_length=LENGTH, seed=2026)
    stats = run_trace(cfg)
    mean = float(stats.mean_transitions)
    line = f"{spec.family.value:>8} k={spec.k:>2} b={spec.b:>2}: mean {mean:.5f}"
    if reference is not None:
        line += f"  (exact {float(reference):.5f})"
    print(line)

print()
spec = optimal_spec(11, 12)
stats = run_trace(TraceConfig(spec=spec, trace_length=LENGTH, seed=2026))
print("optimal modulator accounting over the trace:")
print("  clocks spent      :", stats.clock_cycles_total)
print("  bit-serial clocks :", stats.baseline_clock_cycles)
print("  comparisons       :", stats.comparisons_total)
print("  additions         :", stats.additions_total)
print("  cost/word         :", (stats.comparisons_total + stats.additions_total) / LENGTH)
print("  closed form       :", float(analytics.encoding_cost(11, 12)))
print()

# convergence_check wraps the comparison; an undersampled trace fails honestly
good = convergence_check(
    TraceConfig(spec=spec, trace_length=LENGTH, seed=7), analytics.d_opt(11, 12), 0.01
)
tiny = convergence_check(
    TraceConfig(spec=spec, trace_length=10, seed=7), analytics.d_opt(11, 12), 0.0001
)
print(f"500k words vs 2921/1024 at 1%  : pass={good.passed} (dev {good.rel_deviation:.5%})")
print(f"10 words vs 2921/1024 at 0.01% : pass={tiny.passed} (dev {tiny.rel_deviation:.5%})")
print()

# sharded runs derive one child seed per shard, so a fixed (seed, shards)
# replays exactly; another shard count is another stream
cfg = TraceConfig(spec=spec, trace_length=200_000, seed=99, shards=4)
print("4-shard trace replays identically:", run_trace(cfg) == run_trace(cfg))

# DBI's exact average: every bus state has the same mean, given by one binomial
print()
print("dbi(4) exhaustive mean over all states and inputs:",
      exact_average_distance(dbi_spec(4)).exact_mean)
