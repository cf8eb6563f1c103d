"""buslab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (no install needed: buslab is imported
from src/). The last line of stdout is the result, with the metrics that
BENCHMARK.json names: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1. The line before it is the full report (manifest, every
workload-specific figure, failures), also written to .bench_out/.

--trace 0 runs the workload once untraced in a fresh interpreter, after
SETUP_SAMPLES - 1 interpreters that only import and build the inputs, and
reports the median set-up time of all of them. --trace 1 runs it untraced
and then traced, each in a fresh interpreter, so that the tracing overhead
is the difference of the two wall times.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
BUDGET_S = 170  # the whole invocation, workers included


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([path] if path else [])))

    def worker(self, trace: int, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(trace), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "buslab" / "__init__.py").is_file():
        print(f"error: no buslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        if args.trace == 0:
            setups = [runner.worker(0, "--setup-only")["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            runs = [runner.worker(0)]
            setups.append(runs[0]["setup_s"])
            values = {"setup_s": statistics.median(setups), **runs[0]["end_to_end"]}
            wanted = spec["end_to_end"]
        else:
            runs = [runner.worker(0), runner.worker(1)]
            untraced, traced = (r["end_to_end"]["wall_s"] for r in runs)
            values = dict(runs[1]["per_layer"], **{
                "trace.untraced_wall_s": untraced,
                "trace.overhead_s": traced - untraced,
            })
            setups = [r["setup_s"] for r in runs]
            wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    last = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = {
        "workload": args.workload,
        "manifest": {
            **last["env"],
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "passes": last["passes"],
            "probes": last["probes"],
            "ops": last["ops"],
            "run_ids": [r["run_id"] for r in runs],
            "geometries": last["geometries"],
        },
        "setup_samples_s": setups,
        "end_to_end": runs[0]["end_to_end"],
        "workload_metrics": runs[0]["workload_metrics"],
        "rates": runs[0]["rates"],
        "norm_rates": runs[0]["norm_rates"],
        "per_layer": values if args.trace else None,
        "absent": last.get("absent", []),
        "spans_file": last.get("spans_file"),
        "failures": [m for r in runs for m in r["failures"]],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
