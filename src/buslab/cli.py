"""Command-line front end.

Grammar:
    buslab analyze  --k INT --b INT [--json|--csv]
    buslab sweep    --k INT --b INT [--out PATH] [--json|--csv]
    buslab simulate [FAMILY | --family NAME] --k INT [--b INT]
                    [--length INT] [--seed INT] [--jobs INT] [--json|--csv]
    buslab verify   [SCOPE]
    buslab codebook [FAMILY | --family NAME] --k INT [--b INT] [--out PATH]

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when the
reader closes stdout early (128 + SIGPIPE). Rationals are printed as p/q
next to decimals rounded to 9 significant digits. Family facts are lookups
in the codec registry: a missing --b defaults to the family's required b, a
wrong one fails the spec's own check, and the simulate reference is the
family's exact_mean.

An argv that starts with a command is parsed once, by that command's own
parser; anything else (no args, -h, an unknown command, an option first)
goes through the top-level parser, the one source of help and usage text.
The sweep and codebook tables stream through _write in blocks of 1,024
rows, each block formatted by one % call on a one-row template.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from itertools import chain, islice
from typing import Iterator, Sequence

from . import analytics
from .codecs import _FAMILY_CODECS, CodecSpec, Family, _DifferentialCodec, coset_spec_for
from .simulator import TraceConfig, run_trace
from .verify import SCOPES, run_checks

__all__ = ["main", "console_main"]

_FAMILY_NAMES = [f.value for f in Family]


def fmt_ratio(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms, as str(Fraction(p, q)) prints it."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def fmt_dec(x: Fraction | float) -> str:
    return format(float(x), ".9g")


def _spec_for(args: argparse.Namespace) -> CodecSpec:
    family = args.family_pos or args.family
    if family is None:
        raise ValueError("--family is required (or pass the family positionally)")
    fam, k, b = Family(family), args.k, args.b
    if b is None:
        b = _FAMILY_CODECS[fam].required_b(k)
        if b is None:
            raise ValueError(f"--b is required for the {family} family")
    return coset_spec_for(k, b) if fam is Family.COSET else CodecSpec(fam, k, b)


# the bytes json.dumps gives the analyze record, without building it: k, b,
# n, D_unc's p/q and d_max, then each later figure's p/q and its decimal, all
# plain ASCII; %.9g formats a float as {:.9g} does
_ANALYZE_JSON = '{"k": %d, "b": %d, "n": %d, "d_unc": "%s", "d_max": %d' + "".join(
    f', "{key}": "%s", "{key}_decimal": "%.9g"'
    for key in ("d_opt", "transition_ratio", "energy_saving", "d_min", "encoding_cost")
) + "}"


def cmd_analyze(args: argparse.Namespace) -> int:
    k, b = args.k, args.b
    dm, num = analytics._scaled_d_opt(k, b)
    # the six figures as (p, q) from the two integers, in report order: D_unc,
    # D_opt, D_opt / D_unc = 2 num / (k 2^k), the saving, D_min, and the cost:
    # the modulator's comparisons + additions over all 2^k words (num pulses)
    need, den = 1 << k, k << k
    cost = sum(analytics._modulator_counts(k + b, dm, num, need)[1:])
    figures = ((k, 2), (num, need), (2 * num, den), (den - 2 * num, den),
               (need - 1, need), (cost, need))
    frac = [fmt_ratio(p, q) for p, q in figures]
    vals = [p / q for p, q in figures]
    if args.json:
        pairs = chain.from_iterable(zip(frac[1:], vals[1:]))
        print(_ANALYZE_JSON % (k, b, k + b, frac[0], dm, *pairs))
        return 0
    dec = [f"{v:.9g}" for v in vals]
    if args.csv:
        print("k,b,n,d_unc,d_max,d_opt,transition_ratio,energy_saving,d_min,encoding_cost")
        print(",".join((str(k), str(b), str(k + b), dec[0], str(dm), *dec[1:])))
        return 0
    pair = [f"{f} = {d}" for f, d in zip(frac, dec)]
    print(f"bus encoding analysis: k={k}, b={b} (n={k + b} lines)")
    print(f"  uncoded average distance    D_unc = {pair[0]}")
    print(f"  codebook maximum weight     d_max = {dm}")
    print(f"  optimal average distance    D_opt = {pair[1]}")
    print(f"  transition ratio      D_opt/D_unc = {pair[2]}")
    print(f"  energy saving           1 - ratio = {pair[3]}")
    print(f"  floor over all b            D_min = {pair[4]}")
    print(f"  encoding cost   (n+2)*D_opt+d_max+1 = {pair[5]} comparison units")
    return 0


def _write(path: str | None, head: str, line: str, rows: Iterator[tuple], tail: str) -> None:
    """Write head, then the rows through the one-row % template line, then
    tail, to path (stdout when None): one % call per 1,024 rows, never whole."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(head)
        while block := list(islice(rows, 1024)):
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))
        fh.write(tail)


def cmd_sweep(args: argparse.Namespace) -> int:
    k, b_max = args.k, args.b
    if b_max < 0:
        raise ValueError(f"--b (maximum added lines) must be >= 0, got {b_max}")
    rows = analytics.sweep(k, b_max)
    rows = chain([next(rows)], rows)  # checks (k, b_max) before --out is opened
    # d_opt = num / 2^k and saving = 1 - d_opt / (k/2) = (k 2^k - 2 num) / (k 2^k);
    # float(num) is correctly rounded and scaling it by 2^-k is exact, so
    # num * 2.0**-k is the float of Fraction(num, 2^k); int / int is correctly
    # rounded too, and %.9g formats either as {:.9g} does
    need, den, scale = 1 << k, k << k, 2.0**-k
    bound = den - 2 * (need - 1)  # k 2^k times the saving of d_min = (2^k - 1) / 2^k
    if args.json:
        # the bytes of json.dumps(payload, indent=2), without its pure-Python
        # indenting encoder; every value is an int or a plain ASCII string
        head = f'{{\n  "k": {k},\n  "rows": [\n'
        line = (
            '    {\n      "b": %d,\n      "d_max": %d,\n'
            '      "d_opt": "%s",\n      "d_opt_decimal": "%.9g",\n'
            '      "saving": "%s",\n      "saving_decimal": "%.9g"\n    }%s\n'
        )
        body = ((b, dm, fmt_ratio(num, need), num * scale, fmt_ratio(den - 2 * num, den),
                 (den - 2 * num) / den, "," if b < b_max else "") for b, dm, num in rows)
        tail = (
            f'  ],\n  "ppm_bound": "{fmt_ratio(bound, den)}",\n'
            f'  "ppm_bound_decimal": "{bound / den:.9g}"\n}}\n'
        )
    else:
        head, line = "b,d_max,d_opt,saving\n", "%d,%d,%.9g,%.9g\n"
        body = ((b, dm, num * scale, (den - 2 * num) / den) for b, dm, num in rows)
        tail = f"ppm_bound,,,{bound / den:.9g}\n"
    _write(args.out, head, line, body, tail)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_for(args)
    family = spec.family.value
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = TraceConfig(spec=spec, trace_length=args.length, seed=args.seed, shards=args.jobs)
    start = time.perf_counter()
    stats = run_trace(cfg)
    elapsed = time.perf_counter() - start
    mean = stats.mean_transitions
    reference = _FAMILY_CODECS[spec.family].exact_mean(spec)
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
            "mean_transitions_exact": str(mean),
            "total_transitions": stats.total_transitions,
            "weight_histogram": stats.weight_histogram,
            "clock_cycles": stats.clock_cycles_total,
            "baseline_clock_cycles": stats.baseline_clock_cycles,
            "comparisons": stats.comparisons_total,
            "additions": stats.additions_total,
            "reference_mean": str(reference),
            "rel_deviation": deviation,
            "elapsed_s": round(elapsed, 3),
        }
        print(json.dumps(payload))
        return 0
    print(
        f"simulated {family} k={spec.k} b={spec.b} (n={spec.n}): "
        f"{args.length} words, seed {args.seed}"
    )
    print(f"  mean transitions/word   {fmt_dec(mean)} ({mean})")
    print(
        f"  closed-form reference   {fmt_dec(reference)} ({reference}), "
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
    if args.k > 12:
        raise ValueError(f"codebook dumps support k <= 12, got k={args.k}")
    spec = _spec_for(args)
    codec = spec.codec
    if not isinstance(codec, _DifferentialCodec):
        raise ValueError(f"family {spec.family.value!r} has no state-free codebook to dump")
    wide = f"0{spec.n}b"
    diffs = map(codec.differential_int, range(1 << spec.k))
    rows = ((u, format(d, wide), d.bit_count()) for u, d in enumerate(diffs))
    _write(args.out, "", "%d,%s,%d\n", rows, "")
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name: built on
    the first main() call, not at import, and shared, as each parse fills a
    fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="buslab",
        description="Low-weight differential bus encoding: analysis, codecs, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the family arguments that simulate and codebook resolve through _spec_for
    family = argparse.ArgumentParser(add_help=False)
    named = family.add_mutually_exclusive_group()
    named.add_argument("family_pos", nargs="?", choices=_FAMILY_NAMES, metavar="FAMILY")
    named.add_argument("--family", choices=_FAMILY_NAMES)
    family.add_argument("--k", type=int, required=True)
    family.add_argument("--b", type=int, default=None)

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

    p = sub.add_parser("simulate", parents=[family], help="Monte Carlo transition counting")
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

    p = sub.add_parser("codebook", parents=[family], help="dump a differential codebook")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_codebook)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no args, -h, an unknown command or an option first
        args = parser.parse_args(argv)
    else:
        # what the top-level parser does with a leading command, in one parse:
        # the rest of argv goes to that command's parser, and leftovers fail
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # a reader that closed stdout early, not a usage error
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
    except BrokenPipeError:
        # Python's SIGPIPE recipe: stdout goes to devnull so the shutdown
        # flush stays silent, and the exit code is 128 + SIGPIPE, as `yes | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
