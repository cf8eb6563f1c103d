"""Run one workload in a fresh interpreter and print its result as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--setup-only]

`run.py` starts this once per measured run, because buslab keeps process-wide
caches (`make_codec` is lru_cached and `OptimalCodec._diffs` only grows) that
would otherwise turn every repetition after the first into a warm-dict test.
With --setup-only it stops after import and input generation and reports
only how long those took.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

import buslab  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FAMILIES, TRACE_WIDE, VERIFY_SCOPES, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")
LAYERS = ("combinatorics", "codecs", "analytics", "simulator", "verify", "cli")
CLI_COMMANDS = ("analyze", "sweep", "simulate", "codebook")
TRACE_KINDS = ("trace", "cold", "serial2", "jobs2")
# kinds that run once per run, so have no median to take
ONE_OFF_KINDS = ("cold", "verify", "codebook")
MAX_MESSAGES = 10


@dataclass
class Record:
    kind: str
    label: str
    family: str
    units: int
    ns: int
    count: int
    failed: int
    span: int
    samples: list[int] | None
    probe_ns: float  # mean of the probes on either side of the op


def run_ops(ops, probes, tracer: Tracer | None) -> tuple[list[Record], list[str]]:
    def probe() -> float:
        return math.prod(p() for p in probes) ** (1 / len(probes))

    records, messages = [], []
    after = probe()
    for op in ops:
        inp = op.prepare()
        span = -1
        before = after
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                out = op.run(inp)
            else:
                span, out = tracer.call(f"op.{op.kind}.{op.label}", op.run, inp)
        except Exception:  # one broken op is a failure to count, not a crash
            ns = perf_counter_ns() - t0
            after = probe()
            out, msgs = None, [traceback.format_exc(limit=4)]
            failed = op.count
        else:
            ns = perf_counter_ns() - t0
            after = probe()
            try:
                msgs = op.check(inp, out)
            except Exception:
                msgs = [traceback.format_exc(limit=4)]
            failed = min(len(msgs), op.count)
        samples = out[0] if op.kind == "roundtrip" and out is not None else None
        records.append(Record(op.kind, op.label, op.family, op.units, ns, op.count,
                              failed, span, samples, (before + after) / 2))
        messages.extend(msgs[: MAX_MESSAGES - len(messages)])
    return records, messages


def geomean(xs) -> float:
    """Geometric mean; 0.0 when nothing was measured (every op failed)."""
    logs = [math.log(x) for x in xs]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def median_rates(records, per_probe: bool) -> dict[str, float]:
    """Median units per second (or per probe time) of each repeated
    (kind, geometry) over the run."""
    rates: dict[str, list[float]] = {}
    for r in records:
        if r.kind not in ONE_OFF_KINDS and not r.failed:
            scale = r.probe_ns if per_probe else 1e9
            rates.setdefault(f"{r.kind}/{r.label}", []).append(r.units * scale / r.ns)
    return {key: statistics.median(v) for key, v in rates.items()}


def end_to_end(records) -> dict[str, float]:
    """`norm_rate_geomean` is the geometric mean over repeated op kinds of
    the median units each did in one probe time; see `probe.py` and README.md."""
    return {
        "wall_s": sum(r.ns for r in records) / 1e9,
        "norm_rate_geomean": geomean(median_rates(records, per_probe=True).values()),
        "rate_geomean": geomean(median_rates(records, per_probe=False).values()),
        "probe_ms": statistics.median(r.probe_ns for r in records) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workload_metrics(records) -> dict[str, float]:
    """The workload-specific figures, each only where its ops ran and passed."""
    attempted = sum(r.count for r in records)
    out = {"failed_ratio": sum(r.failed for r in records) / attempted}
    of: dict[str, list[Record]] = {}
    for r in records:
        if not r.failed:
            of.setdefault(r.kind, []).append(r)
    if "trace" in of:
        rates: dict[str, list[float]] = {}
        for r in of["trace"]:
            rates.setdefault(r.label, []).append(r.units * 1e9 / r.ns)
        out["trace_words_per_s"] = geomean(statistics.median(v) for v in rates.values())
    if "cold" in of:
        out["trace_cold_s"] = sum(r.ns for r in of["cold"]) / 1e9
    if "roundtrip" in of:
        times = [t for r in of["roundtrip"] for t in r.samples]
        out["roundtrip_words_per_s"] = len(times) * 1e9 / sum(times)
        out["roundtrip_p50_us"] = statistics.median(times) / 1e3
        out["roundtrip_p90_us"] = statistics.quantiles(times, n=10)[8] / 1e3
    if "verify" in of:
        out["verify_s"] = sum(r.ns for r in of["verify"]) / 1e9
    if "sweep" in of:
        out["sweep_rows_per_s"] = sum(r.units for r in of["sweep"]) * 1e9 / sum(
            r.ns for r in of["sweep"])
    return out


def per_layer(tracer: Tracer, records, absent) -> dict[str, float]:
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    calls = np.bincount(a["name"], minlength=len(ids))
    self_ns = tracer.self_ns()

    def n_calls(name):
        return int(calls[ids[name]]) if name in ids else 0

    def self_s(name):
        return self_ns.get(name, 0) / 1e9

    m: dict[str, float] = {}
    for name, count_key in (
        ("combinatorics.mppm_unrank", "calls"),
        ("combinatorics.mppm_rank", "calls"),
        ("combinatorics.BinomialTable", "builds"),
        ("codecs.make_codec", "calls"),
        ("codecs.differential_int", "calls"),
        ("codecs.encode", "calls"),
        ("codecs.decode", "calls"),
        ("simulator.run_trace", "calls"),
        ("simulator.exact_average_distance", "calls"),
        ("analytics.d_opt", "calls"),
        ("analytics.d_max", "calls"),
    ):
        m[f"{name}.{count_key}"] = n_calls(name)
        m[f"{name}.self_s"] = self_s(name)

    words = sum(r.units for r in records if r.kind in TRACE_KINDS)
    m["simulator.words_drawn"] = words
    through_codecs = words + n_calls("codecs.encode")
    m["codecs.differential_int.calls_per_word"] = (
        n_calls("codecs.differential_int") / through_codecs if through_codecs else 0.0)

    # per-family p50 of encode/decode spans, grouped by the roundtrip op they ran in
    op_family = np.full(len(a["name"]) + 1, -1, dtype=np.int8)  # [-1]: no parent
    for r in records:
        if r.kind == "roundtrip" and r.span >= 0:
            op_family[r.span] = FAMILIES.index(r.family)
    for name in ("codecs.encode", "codecs.decode"):
        sel = np.flatnonzero(a["name"] == ids.get(name, -1))
        dur = a["end"][sel] - a["start"][sel]
        family = op_family[a["parent"][sel]]
        for i, fam in enumerate(FAMILIES):
            d = dur[family == i]
            m[f"{name}.p50_us.{fam}"] = float(np.median(d)) / 1e3 if d.size else 0.0

    rates = {}
    for r in records:
        if r.kind == "trace":
            rates.setdefault(r.family, []).append(r.units * 1e9 / r.ns)
    for fam in FAMILIES:
        m[f"simulator.words_per_s.{fam}"] = statistics.median(rates[fam]) if fam in rates else 0.0
    cold = {r.label: r.ns / 1e9 for r in records if r.kind == "cold"}
    for g, *_ in TRACE_WIDE:
        m[f"simulator.cold_s.{g.label}"] = cold.get(g.label, 0.0)
    serial = [r.ns for r in records if r.kind == "serial2"]
    jobs2 = [r.ns for r in records if r.kind == "jobs2"]
    m["simulator.run_trace.jobs2_speedup"] = (
        statistics.median(s / j for s, j in zip(serial, jobs2)) if jobs2 else 0.0)

    for cmd in CLI_COMMANDS:
        m[f"cli.main.self_s.{cmd}"] = self_s(f"cli.main.{cmd}")
    verify = {r.label: r.ns / 1e9 for r in records if r.kind == "verify"}
    for scope in VERIFY_SCOPES:
        m[f"verify.{scope}.s"] = verify.get(scope, 0.0)

    layer: dict[str, float] = {}
    for name, ns in self_ns.items():
        top = name.split(".")[0]
        layer[top] = layer.get(top, 0.0) + ns / 1e9
    for mod in LAYERS:
        m[f"layer.{mod}.self_s"] = layer.get(mod, 0.0)
    m["layer.bench.self_s"] = layer.get("op", 0.0)
    m["trace.wall_s"] = sum(r.ns for r in records) / 1e9
    m["trace.self_sum_s"] = sum(self_ns.values()) / 1e9
    m["trace.spans"] = len(a["name"])
    m["trace.absent"] = len(absent)
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex[:16]
    tracer = Tracer(run_id) if args.trace else None
    if tracer is None:
        def call(_name, fn, *fargs):
            return fn(*fargs)
    else:
        def call(name, fn, *fargs):
            return tracer.call(name, fn, *fargs)[1]

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ops = wl.ops(args.seed, args.seconds, call, tmp)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        absent = tracer.install() if tracer else []
        records, messages = run_ops(ops, wl.probes, tracer)

    result = {
        "run_id": run_id,
        "setup_s": setup_s,
        "attempted": sum(r.count for r in records),
        "failed": sum(r.failed for r in records),
        "failures": messages,
        "end_to_end": end_to_end(records),
        "workload_metrics": workload_metrics(records),
        "rates": median_rates(records, per_probe=False),
        "norm_rates": median_rates(records, per_probe=True),
        "passes": wl.passes(args.seconds),
        "probes": [p.__name__ for p in wl.probes],
        "ops": len(records),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "buslab": buslab.__version__,
            "machine": platform.machine(),
        },
        "geometries": {w.name: list(w.geometries) for w in WORKLOADS.values()},
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, records, absent)
        result["absent"] = absent
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(spans)
        result["spans_file"] = os.path.relpath(spans, os.path.dirname(OUT_DIR))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
