"""The benchmark's four workloads, as fixed lists of timed operations.

A workload is a list of ops built from the seed before anything is timed:
each op makes one public buslab call (or one in-process CLI command), is
timed on its own, and is then checked against `oracle` outside the timing.
`--seconds` sets how many steady passes over the op list a run makes, so the
work, every call count and every drawn word repeat exactly for a fixed
(seed, seconds), and a faster buslab simply finishes sooner.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter_ns
from typing import Any, Callable

import buslab
import buslab.cli
import buslab.verify

import oracle
import probe


@dataclass(frozen=True)
class Geometry:
    label: str
    family: str
    k: int
    b: int
    code: str | None = None

    @property
    def n(self) -> int:
        return self.k + self.b

    def spec(self) -> buslab.CodecSpec:
        if self.family == "uncoded":
            return buslab.uncoded_spec(self.k)
        if self.family == "dbi":
            return buslab.dbi_spec(self.k)
        if self.family == "ppm0":
            return buslab.ppm0_spec(self.k)
        if self.family == "optimal":
            return buslab.optimal_spec(self.k, self.b)
        if self.code == "golay23":
            return buslab.coset_spec(buslab.make_golay23())
        if self.code == "hamming":
            return buslab.coset_spec(buslab.make_hamming(self.k))
        return buslab.coset_spec(buslab.make_repetition(self.n))

    def counts(self) -> dict[int, int]:
        return oracle.weight_counts(self.family, self.k, self.b, self.code)


def uncoded(k):
    return Geometry(f"uncoded-{k}", "uncoded", k, 0)


def dbi(k):
    return Geometry(f"dbi-{k}", "dbi", k, 1)


def ppm0(k):
    return Geometry(f"ppm0-{k}", "ppm0", k, (1 << k) - 1 - k)


def optimal(k, b):
    return Geometry(f"optimal-{k}-{b}", "optimal", k, b)


def hamming(m):
    return Geometry(f"coset-hamming{m}", "coset", m, (1 << m) - 1 - m, "hamming")


def repetition(lines):
    return Geometry(f"coset-rep{lines}", "coset", lines - 1, 1, "repetition")


GOLAY = Geometry("coset-golay23", "coset", 11, 12, "golay23")
FAMILIES = ("uncoded", "dbi", "ppm0", "optimal", "coset")

# (geometry, words per trace). Lengths keep every op above ~20 ms at the
# baseline so that timer noise stays small next to the work.
TRACE_SMALL = (
    (uncoded(32), 2_000_000),
    (dbi(8), 200_000),
    (optimal(11, 12), 2_000_000),
    (optimal(4, 11), 2_000_000),
    (ppm0(12), 2_000_000),
    (GOLAY, 2_000_000),
    (hamming(4), 2_000_000),
)
JOBS2 = (optimal(11, 12), 2_000_000)
# (geometry, words per trace, traces per pass). A ppm0 k=18 trace rebuilds
# its 2^18-entry table on every call (2-4 s), so it gets only the cold trace,
# which already times that build, and leaves the time to samples of the others.
TRACE_WIDE = (
    (optimal(18, 10), 200_000, 2),
    (optimal(24, 16), 4_000, 2),
    (optimal(40, 24), 2_000, 2),
    (optimal(64, 0), 1_000, 2),
    (ppm0(16), 200_000, 2),
    (ppm0(18), 200_000, 0),
    (repetition(17), 200_000, 2),
    (dbi(32), 100_000, 2),
    (uncoded(64), 2_000_000, 2),
)
COLD_WORDS = 1_000
ROUNDTRIP = (
    uncoded(8), dbi(8), ppm0(8), optimal(11, 12), optimal(4, 11), GOLAY, hamming(4),
    repetition(9), uncoded(64), dbi(32), ppm0(18), optimal(24, 16), optimal(40, 24),
    optimal(64, 0), repetition(17),
)
PAIRS = 1_000
# States per roundtrip op: each pair takes the next one in turn. A ppm0 k=18
# state is a 262,143-bit word, so states are pooled rather than one per pair.
STATES = 64
VERIFY_SCOPES = ("rank", "roundtrip", "coset", "optimal")
CODEBOOK = optimal(12, 12)
# (k, largest b, sweeps per pass), and likewise below: the short ops repeat
# within a pass so that each gets as many samples as the long ones' time allows
SWEEPS = ((11, 2036, 4), (20, 100_000, 1), (64, 4000, 2))
SWEEP_SAMPLE = 200
ANALYZE_CELLS = 22
ANALYZE_REPS = 4
ANCHORS = {(11, 12): "2921/1024", (4, 11): "15/16"}
EXACT = ((dbi(12), 2), (uncoded(14), 1))


@dataclass
class Op:
    """One timed call. `run` gets what `prepare` built (untimed); `check`
    gets both plus the result and returns one message per failed operation."""

    kind: str
    label: str
    family: str
    units: int
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    prepare: Callable[[], Any] = lambda: None
    count: int = 1


Call = Callable[..., Any]  # call(span_name, fn, *args) -> fn(*args)


@dataclass
class Builder:
    """Draws a distinct seed for every op from the run's seed."""

    seed: int
    call: Call
    tmp: str
    ops: list[Op] = field(default_factory=list)
    _used: set[int] = field(default_factory=set)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def next_seed(self) -> int:
        while True:
            s = self._rng.getrandbits(62)
            if s not in self._used:
                self._used.add(s)
                return s

    def cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.call(f"cli.main.{argv[0]}", lambda: buslab.cli.main(argv))
        return code, buf.getvalue()


# ---------------------------------------------------------------------------
# trace ops
# ---------------------------------------------------------------------------

def _trace_check(g: Geometry, length: int):
    counts = g.counts()

    def check(_, stats) -> list[str]:
        failures = oracle.trace_failures(
            stats.weight_histogram, stats.total_transitions, length, counts
        )
        if stats.words_sent != length:
            failures.append(f"words_sent {stats.words_sent} != {length}")
        return [f"{g.label}: {f}" for f in failures]

    return check


def trace_op(bld: Builder, kind: str, g: Geometry, length: int) -> Op:
    cfg = buslab.TraceConfig(spec=g.spec(), trace_length=length, seed=bld.next_seed())
    return Op(kind, g.label, g.family, length,
              lambda _: buslab.run_trace(cfg), _trace_check(g, length))


def jobs2_ops(bld: Builder, g: Geometry, length: int) -> list[Op]:
    """`buslab simulate --jobs 2` and its serial replay with shards=2: the same
    seed on purpose, since the two must produce identical counts."""
    seed = bld.next_seed()
    cfg = buslab.TraceConfig(spec=g.spec(), trace_length=length, seed=seed, shards=2)
    serial: dict[str, Any] = {}
    serial_check = _trace_check(g, length)

    def check_serial(inp, stats):
        serial["stats"] = stats
        return serial_check(inp, stats)

    argv = ["simulate", g.family, "--k", str(g.k), "--b", str(g.b), "--length",
            str(length), "--seed", str(seed), "--jobs", "2", "--json"]

    def check_jobs2(_, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"simulate --jobs 2 exited {code}"]
        got = json.loads(text)
        ref = serial.get("stats")
        if ref is None:
            return ["serial shards=2 reference missing"]
        if (got["weight_histogram"], got["total_transitions"]) != (
            ref.weight_histogram, ref.total_transitions
        ):
            return ["simulate --jobs 2 differs from serial shards=2"]
        return []

    return [
        Op("serial2", g.label, g.family, length, lambda _: buslab.run_trace(cfg), check_serial),
        Op("jobs2", g.label, g.family, length, lambda _: bld.cli(argv), check_jobs2),
    ]


def build_trace_small(bld: Builder, passes: int) -> None:
    for _ in range(passes):
        for g, length in TRACE_SMALL:
            bld.ops.append(trace_op(bld, "trace", g, length))
        bld.ops.extend(jobs2_ops(bld, *JOBS2))


def build_trace_wide(bld: Builder, passes: int) -> None:
    for g, _, _ in TRACE_WIDE:
        bld.ops.append(trace_op(bld, "cold", g, COLD_WORDS))
    for _ in range(passes):
        for g, length, reps in TRACE_WIDE:
            for _ in range(reps):
                bld.ops.append(trace_op(bld, "trace", g, length))


# ---------------------------------------------------------------------------
# roundtrip ops
# ---------------------------------------------------------------------------

def roundtrip_op(bld: Builder, g: Geometry) -> Op:
    spec, seed = g.spec(), bld.next_seed()

    def prepare():
        rnd = random.Random(seed)
        states = [buslab.BusState(buslab.Word(rnd.getrandbits(g.n), g.n))
                  for _ in range(STATES)]
        us = [buslab.Word(rnd.getrandbits(g.k), g.k) for _ in range(PAIRS)]
        return states, us

    def run(inp):
        states, us = inp
        encode, decode = buslab.encode, buslab.decode
        times, decoded = [], []
        for i, u in enumerate(us):
            state = states[i % STATES]
            t0 = perf_counter_ns()
            y = decode(spec, state, encode(spec, state, u))
            times.append(perf_counter_ns() - t0)
            decoded.append(y)
        return times, decoded

    def check(inp, out) -> list[str]:
        return [f"{g.label}: decode(encode({u})) = {y}"
                for u, y in zip(inp[1], out[1]) if y != u]

    return Op("roundtrip", g.label, g.family, PAIRS, run, check, prepare, count=PAIRS)


def verify_op(bld: Builder, scope: str) -> Op:
    def check(_, results) -> list[str]:
        return [f"verify {r.name}: {r.detail}" for r in results if not r.passed]

    return Op("verify", scope, "", 1,
              lambda _: bld.call(f"verify.{scope}", lambda: buslab.verify.run_checks(scope)),
              check)


def codebook_op(bld: Builder) -> Op:
    g = CODEBOOK
    path = os.path.join(bld.tmp, "codebook.csv")
    argv = ["codebook", g.family, "--k", str(g.k), "--b", str(g.b), "--out", path]

    def check(_, out) -> list[str]:
        code, _text = out
        if code != 0:
            return [f"codebook exited {code}"]
        with open(path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        if [int(r[0]) for r in rows] != list(range(1 << g.k)):
            return ["codebook rows are not u = 0 .. 2^k - 1"]
        diffs = [int(r[1], 2) for r in rows]
        weights = [int(r[2]) for r in rows]
        counts: dict[int, int] = {}
        for w in weights:
            counts[w] = counts.get(w, 0) + 1
        failures = []
        if any(len(r[1]) != g.n for r in rows) or len(set(diffs)) != len(diffs):
            failures.append("codebook differentials are not distinct n-bit words")
        if any(d.bit_count() != w for d, w in zip(diffs, weights)):
            failures.append("codebook weight column disagrees with the differential")
        if counts != g.counts() or weights != sorted(weights):
            failures.append("codebook is not the lightest 2^k words in weight order")
        return failures

    return Op("codebook", g.label, g.family, 1 << g.k, lambda _: bld.cli(argv), check)


def build_roundtrip(bld: Builder, passes: int) -> None:
    for scope in VERIFY_SCOPES:
        bld.ops.append(verify_op(bld, scope))
    bld.ops.append(codebook_op(bld))
    for _ in range(passes):
        for g in ROUNDTRIP:
            bld.ops.append(roundtrip_op(bld, g))


# ---------------------------------------------------------------------------
# closed-form ops
# ---------------------------------------------------------------------------

def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sweep_op(bld: Builder, k: int, b_max: int) -> Op:
    path = os.path.join(bld.tmp, f"sweep-{k}.csv")
    argv = ["sweep", "--k", str(k), "--b", str(b_max), "--out", path]
    rnd = random.Random(bld.next_seed())
    sample = {0, b_max, *rnd.sample(range(b_max + 1), min(SWEEP_SAMPLE, b_max + 1))}
    sample |= {b for kk, b in ANCHORS if kk == k and b <= b_max}

    def check(_, out) -> list[str]:
        code, _text = out
        if code != 0:
            return [f"sweep k={k} exited {code}"]
        with open(path) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "b,d_max,d_opt,saving" or len(lines) != b_max + 3:
            return [f"sweep k={k}: bad header or {len(lines)} lines"]
        d_unc = Fraction(k, 2)
        bound = 1 - Fraction((1 << k) - 1, 1 << k) / d_unc
        failures = []
        if lines[-1] != f"ppm_bound,,,{oracle.fmt_dec(bound)}":
            failures.append(f"sweep k={k}: ppm_bound row {lines[-1]}")
        rows = [line.split(",") for line in lines[1:-1]]
        d_max_col = [int(r[1]) for r in rows]
        d_opt_col = [float(r[2]) for r in rows]
        if any(a < b for a, b in zip(d_max_col, d_max_col[1:])) or any(
            a < b for a, b in zip(d_opt_col, d_opt_col[1:])
        ):
            failures.append(f"sweep k={k}: d_max or d_opt rises with b")
        for b in sorted(sample):
            dm, dopt = oracle.d_opt(k, b)
            want = [str(b), str(dm), oracle.fmt_dec(dopt), oracle.fmt_dec(1 - dopt / d_unc)]
            if rows[b] != want:
                failures.append(f"sweep k={k} row {rows[b]} != {want}")
        if k == 11 and rows[12][2] != oracle.fmt_dec(Fraction(2921, 1024)):
            failures.append(f"sweep k=11 b=12 anchor {rows[12][2]}")
        return failures

    return Op("sweep", f"k{k}-b{b_max}", "", b_max + 1, lambda _: bld.cli(argv), check)


def analyze_op(bld: Builder) -> Op:
    rnd = random.Random(bld.next_seed())
    cells = list(ANCHORS) + [
        (rnd.randint(1, 64), rnd.choice((rnd.randint(0, 64), rnd.randint(0, 5000))))
        for _ in range(ANALYZE_CELLS)
    ]

    def run(_):
        return [bld.cli(["analyze", "--k", str(k), "--b", str(b), "--json"]) for k, b in cells]

    def check(_, outs) -> list[str]:
        failures = []
        for (k, b), (code, text) in zip(cells, outs):
            if code != 0:
                failures.append(f"analyze k={k} b={b} exited {code}")
                continue
            got = json.loads(text)
            dm, dopt = oracle.d_opt(k, b)
            want = {
                "d_max": dm,
                "d_opt": _frac(dopt),
                "d_min": _frac(Fraction((1 << k) - 1, 1 << k)),
                "energy_saving": _frac(1 - dopt / Fraction(k, 2)),
            }
            if (k, b) in ANCHORS:
                want["d_opt"] = ANCHORS[(k, b)]
            if any(got[key] != v for key, v in want.items()):
                failures.append(f"analyze k={k} b={b}: {got} != {want}")
        return failures

    return Op("analyze", "grid", "", len(cells), run, check, count=len(cells))


def exact_op(g: Geometry) -> Op:
    spec = g.spec()
    mean, _ = oracle.mean_and_variance(g.counts())

    def check(_, report) -> list[str]:
        if report.exact_mean != mean:
            return [f"exact_average_distance {g.label} = {report.exact_mean}, want {mean}"]
        return []

    return Op("exact", g.label, g.family, 1,
              lambda _: buslab.exact_average_distance(spec), check)


def build_closed_form(bld: Builder, passes: int) -> None:
    for _ in range(passes):
        for k, b_max, reps in SWEEPS:
            for _ in range(reps):
                bld.ops.append(sweep_op(bld, k, b_max))
        for _ in range(ANALYZE_REPS):
            bld.ops.append(analyze_op(bld))
        for g, reps in EXACT:
            for _ in range(reps):
                bld.ops.append(exact_op(g))


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    # `--seconds` buys round(seconds / pass_s) passes, at least 2; pass_s is
    # set so that a whole run, one-off ops included, takes about `--seconds`
    # at the baseline commit on a 2-CPU x86-64 container
    pass_s: float
    build: Callable[[Builder, int], None]
    geometries: tuple[str, ...]
    # the reference jobs whose kind of work the ops spend their time on; the
    # probe time is the geometric mean of theirs (see probe.py)
    probes: tuple[Callable[[], int], ...]

    def passes(self, seconds: float) -> int:
        return max(2, round(seconds / self.pass_s))

    def ops(self, seed: int, seconds: float, call: Call, tmp: str) -> list[Op]:
        bld = Builder(seed, call, tmp)
        self.build(bld, self.passes(seconds))
        return bld.ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace_small",
            0.3,
            build_trace_small,
            tuple(g.label for g, _ in TRACE_SMALL) + ("simulate-jobs2-" + JOBS2[0].label,),
            (probe.memory,),
        ),
        Workload(
            "trace_wide",
            2.0,
            build_trace_wide,
            tuple(g.label for g, _, _ in TRACE_WIDE),
            (probe.interpreter,),
        ),
        Workload(
            "roundtrip",
            0.6,
            build_roundtrip,
            tuple(g.label for g in ROUNDTRIP) + ("codebook-" + CODEBOOK.label,),
            (probe.interpreter,),
        ),
        Workload(
            "closed_form",
            3.6,
            build_closed_form,
            tuple(f"sweep-k{k}-b{b}" for k, b, _ in SWEEPS) + tuple(g.label for g, _ in EXACT),
            (probe.interpreter, probe.memory),
        ),
    )
}
