"""Command-line front end.

Grammar:
    buslab analyze  --k INT --b INT [--json|--csv]
    buslab sweep    --k INT --b INT [--out PATH] [--json|--csv]
    buslab simulate [FAMILY] [--family NAME] --k INT [--b INT]
                    [--length INT] [--seed INT] [--jobs INT] [--json|--csv]
    buslab verify   [SCOPE]
    buslab codebook [FAMILY] [--family NAME] --k INT [--b INT] [--out PATH]

Exit codes: 0 success, 1 verification failure, 2 usage error. Rationals are
printed as p/q next to decimals rounded to 9 significant digits.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import analytics
from .codecs import (
    CodecSpec,
    Family,
    _DifferentialCodec,
    coset_spec_for,
    dbi_spec,
    make_codec,
    optimal_spec,
    ppm0_spec,
    uncoded_spec,
)
from .simulator import (
    TraceConfig,
    _state_average,
    exact_average_distance,
    run_trace,
)
from .verify import SCOPES, run_checks

__all__ = ["main", "console_main"]

_FAMILY_NAMES = [f.value for f in Family]


def fmt_frac(x: Fraction) -> str:
    return fmt_ratio(x.numerator, x.denominator)


def fmt_ratio(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms, as fmt_frac prints Fraction(p, q)."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def fmt_dec(x: Fraction | float) -> str:
    return format(float(x), ".9g")


def _spec_for(family: str, k: int, b: int | None) -> CodecSpec:
    if family == Family.UNCODED.value:
        if b not in (None, 0):
            raise ValueError(f"--b must be 0 for uncoded, got {b}")
        return uncoded_spec(k)
    if family == Family.DBI.value:
        if b not in (None, 1):
            raise ValueError(f"--b must be 1 for dbi, got {b}")
        return dbi_spec(k)
    if family == Family.PPM0.value:
        expected = (1 << k) - 1 - k
        if b not in (None, expected):
            raise ValueError(f"--b must be {expected} for ppm0 with k={k}, got {b}")
        return ppm0_spec(k)
    if family == Family.OPTIMAL_MPPM.value:
        if b is None:
            raise ValueError("--b is required for the optimal family")
        return optimal_spec(k, b)
    if family == Family.COSET.value:
        if b is None:
            raise ValueError("--b is required for the coset family")
        return coset_spec_for(k, b)
    raise ValueError(f"unknown family {family!r}; choose from {_FAMILY_NAMES}")


def _exact_reference(spec: CodecSpec) -> Fraction:
    if spec.family is Family.OPTIMAL_MPPM:
        return analytics.d_opt(spec.k, spec.b)
    if spec.family is Family.PPM0:
        return analytics.d_min(spec.k)
    if spec.family is Family.COSET:
        return exact_average_distance(spec).exact_mean
    return _state_average(spec)  # uncoded or DBI


def cmd_analyze(args: argparse.Namespace) -> int:
    k, b = args.k, args.b
    n = k + b
    dunc = analytics.d_unc(k)
    dmax = analytics.d_max(k, b)
    dopt = analytics.d_opt(k, b)
    ratio = dopt / dunc
    saving = 1 - ratio
    dmin = analytics.d_min(k)
    cost = analytics.encoding_cost(k, b)
    if args.csv:
        print("k,b,n,d_unc,d_max,d_opt,transition_ratio,energy_saving,d_min,encoding_cost")
        print(
            f"{k},{b},{n},{fmt_dec(dunc)},{dmax},{fmt_dec(dopt)},"
            f"{fmt_dec(ratio)},{fmt_dec(saving)},{fmt_dec(dmin)},{fmt_dec(cost)}"
        )
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "k": k,
                    "b": b,
                    "n": n,
                    "d_unc": fmt_frac(dunc),
                    "d_max": dmax,
                    "d_opt": fmt_frac(dopt),
                    "d_opt_decimal": fmt_dec(dopt),
                    "transition_ratio": fmt_frac(ratio),
                    "transition_ratio_decimal": fmt_dec(ratio),
                    "energy_saving": fmt_frac(saving),
                    "energy_saving_decimal": fmt_dec(saving),
                    "d_min": fmt_frac(dmin),
                    "d_min_decimal": fmt_dec(dmin),
                    "encoding_cost": fmt_frac(cost),
                    "encoding_cost_decimal": fmt_dec(cost),
                }
            )
        )
        return 0
    print(f"bus encoding analysis: k={k}, b={b} (n={n} lines)")
    print(f"  uncoded average distance    D_unc = {fmt_frac(dunc)} = {fmt_dec(dunc)}")
    print(f"  codebook maximum weight     d_max = {dmax}")
    print(f"  optimal average distance    D_opt = {fmt_frac(dopt)} = {fmt_dec(dopt)}")
    print(f"  transition ratio      D_opt/D_unc = {fmt_frac(ratio)} = {fmt_dec(ratio)}")
    print(f"  energy saving           1 - ratio = {fmt_frac(saving)} = {fmt_dec(saving)}")
    print(f"  floor over all b            D_min = {fmt_frac(dmin)} = {fmt_dec(dmin)}")
    print(f"  encoding cost   (n+2)*D_opt+d_max+1 = {fmt_frac(cost)} = {fmt_dec(cost)} comparison units")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    k, b_max = args.k, args.b
    if b_max < 0:
        raise ValueError(f"--b (maximum added lines) must be >= 0, got {b_max}")
    dunc = analytics.d_unc(k)
    bound = 1 - analytics.d_min(k) / dunc
    # d_opt = num / 2^k and saving = 1 - d_opt / (k/2) = (k 2^k - 2 num) / (k 2^k);
    # int / int is correctly rounded, the same float as float(Fraction)
    need, den = 1 << k, k << k
    rows = analytics.sweep(k, b_max)  # checks (k, b_max) before the first row
    if args.json:
        # the bytes of json.dumps(payload, indent=2), without its pure-Python
        # indenting encoder; every value is an int or a plain ASCII string
        body = ",\n".join(
            f'    {{\n      "b": {b},\n      "d_max": {dm},\n'
            f'      "d_opt": "{fmt_ratio(num, need)}",\n'
            f'      "d_opt_decimal": "{fmt_dec(num / need)}",\n'
            f'      "saving": "{fmt_ratio(den - 2 * num, den)}",\n'
            f'      "saving_decimal": "{fmt_dec((den - 2 * num) / den)}"\n    }}'
            for b, dm, num in rows
        )
        text = (
            f'{{\n  "k": {k},\n  "rows": [\n{body}\n  ],\n'
            f'  "ppm_bound": "{fmt_frac(bound)}",\n'
            f'  "ppm_bound_decimal": "{fmt_dec(bound)}"\n}}\n'
        )
    else:
        lines = ["b,d_max,d_opt,saving"]
        lines += [
            f"{b},{dm},{fmt_dec(num / need)},{fmt_dec((den - 2 * num) / den)}"
            for b, dm, num in rows
        ]
        lines.append(f"ppm_bound,,,{fmt_dec(bound)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    family = args.family_pos or args.family
    if family is None:
        raise ValueError("--family is required (or pass the family positionally)")
    spec = _spec_for(family, args.k, args.b)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = TraceConfig(spec=spec, trace_length=args.length, seed=args.seed, shards=args.jobs)
    start = time.perf_counter()
    stats = run_trace(cfg)
    elapsed = time.perf_counter() - start
    mean = stats.mean_transitions
    reference = _exact_reference(spec)
    deviation = abs(float((mean - reference) / reference))
    if args.csv:
        print(
            "family,k,b,n,length,seed,mean_transitions,total_transitions,"
            "clock_cycles,comparisons,additions,reference_mean,rel_deviation"
        )
        print(
            f"{family},{spec.k},{spec.b},{spec.n},{args.length},{args.seed},"
            f"{fmt_dec(mean)},{stats.total_transitions},{stats.clock_cycles_total},"
            f"{stats.comparisons_total},{stats.additions_total},"
            f"{fmt_dec(reference)},{fmt_dec(deviation)}"
        )
        return 0
    if args.json:
        payload = {
            "family": family,
            "k": spec.k,
            "b": spec.b,
            "n": spec.n,
            "length": args.length,
            "seed": args.seed,
            "jobs": args.jobs,
            "mean_transitions": float(mean),
            "mean_transitions_exact": fmt_frac(mean),
            "total_transitions": stats.total_transitions,
            "weight_histogram": stats.weight_histogram,
            "clock_cycles": stats.clock_cycles_total,
            "baseline_clock_cycles": stats.baseline_clock_cycles,
            "comparisons": stats.comparisons_total,
            "additions": stats.additions_total,
            "reference_mean": fmt_frac(reference),
            "rel_deviation": deviation,
            "elapsed_s": round(elapsed, 3),
        }
        print(json.dumps(payload))
        return 0
    print(
        f"simulated {family} k={spec.k} b={spec.b} (n={spec.n}): "
        f"{args.length} words, seed {args.seed}"
    )
    print(f"  mean transitions/word   {fmt_dec(mean)} ({fmt_frac(mean)})")
    print(
        f"  closed-form reference   {fmt_dec(reference)} ({fmt_frac(reference)}), "
        f"deviation {deviation:.3%}"
    )
    if spec.family is Family.OPTIMAL_MPPM:
        print(
            f"  modulator clocks        {stats.clock_cycles_total} "
            f"(bit-serial baseline {stats.baseline_clock_cycles})"
        )
        print(
            f"  comparisons/additions   {stats.comparisons_total}/{stats.additions_total}"
        )
    print(f"  elapsed                 {elapsed:.2f} s")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.scope)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<10} {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_codebook(args: argparse.Namespace) -> int:
    family = args.family_pos or args.family
    if family is None:
        raise ValueError("--family is required (or pass the family positionally)")
    if args.k > 12:
        raise ValueError(f"codebook dumps support k <= 12, got k={args.k}")
    spec = _spec_for(family, args.k, args.b)
    codec = make_codec(spec)
    if not isinstance(codec, _DifferentialCodec):
        raise ValueError(f"family {family!r} has no state-free codebook to dump")
    lines = []
    for u in range(1 << spec.k):
        d = codec.differential_int(u)
        lines.append(f"{u},{d:0{spec.n}b},{d.bit_count()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and shared by later
    # calls: parse_args fills a fresh Namespace each time
    parser = argparse.ArgumentParser(
        prog="buslab",
        description="Low-weight differential bus encoding: analysis, codecs, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form figures for one (k, b)")
    p.add_argument("--k", type=int, required=True, help="information bits")
    p.add_argument("--b", type=int, required=True, help="added lines")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="saving curve over b = 0..B, CSV")
    p.add_argument("--k", type=int, required=True, help="information bits")
    p.add_argument("--b", type=int, required=True, help="maximum added lines")
    p.add_argument("--out", help="output path (default stdout)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true", help="CSV output (the default)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo transition counting")
    p.add_argument("family_pos", nargs="?", choices=_FAMILY_NAMES, metavar="FAMILY")
    p.add_argument("--family", choices=_FAMILY_NAMES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--length", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="shard count (default 1)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("scope", nargs="?", default="all", choices=sorted(SCOPES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("codebook", help="dump a differential codebook")
    p.add_argument("family_pos", nargs="?", choices=_FAMILY_NAMES, metavar="FAMILY")
    p.add_argument("--family", choices=_FAMILY_NAMES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_codebook)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
