"""run_trace against traces frozen before the vectorized step-weight kernels.

golden_traces.json was recorded at commit cdff843, when traces still came
from 2^k differential tables, per-word unranking and a word-by-word DBI
loop. It must never be regenerated from the current code: it is the proof
that a (spec, seed, shards) input still gives the same trace. Every trace
is 270,001 words, so with one or two shards each shard spans more than one
2^17-word chunk and the carry of the last word across chunks is covered.
Histograms are stored sparsely as [weight, count] pairs. Every record is
also replayed with each shard split into parts that jump the stream ahead,
whatever the CPU count of the host that runs the tests.
"""
import hashlib
import json
from pathlib import Path

import pytest
import test_simulator

from buslab import simulator
from buslab.analytics import d_max
from buslab.codecs import (
    coset_spec,
    dbi_spec,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    optimal_spec,
    ppm0_spec,
    uncoded_spec,
)
from buslab.simulator import TraceConfig, run_trace

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_traces.json").read_text())
# sha256 of each golden fixture as committed: regenerating one fails here
FIXTURE_SHA256 = {
    "golden_traces.json": "cf98967722bc38e4518ee266ab6ec5a7c70d2aedc63b282fb16673514bb56bfd",
    "golden_closed_form.json": "bc1395852dcc54d680faeef201278eba8746b9269ce2a43638e8219fa422bb7b",
}


def _spec(entry):
    family, k, b, code = entry["family"], entry["k"], entry["b"], entry["code"]
    if family == "uncoded":
        return uncoded_spec(k)
    if family == "dbi":
        return dbi_spec(k)
    if family == "ppm0":
        return ppm0_spec(k)
    if family == "optimal":
        return optimal_spec(k, b)
    if code == "golay23":
        return coset_spec(make_golay23())
    if code == "hamming":
        return coset_spec(make_hamming(k))
    return coset_spec(make_repetition(k + b))


def _heaviest_step(spec):
    """The family's heaviest step, stated apart from the step_histogram kernels."""
    family = spec.family.value
    if family == "uncoded":
        return spec.k
    if family == "dbi":
        return spec.n // 2
    if family == "ppm0":
        return 1
    if family == "optimal":
        return d_max(spec.k, spec.b)
    return int(make_codec(spec).weights.max())


@pytest.fixture
def three_parts(cpus, monkeypatch):
    """Split any shard of 1 chunk or more into up to 3 parts, as on a 3-CPU
    host: a 270,001-word shard runs as parts of 1, 1 and 0.06 chunks of 2^17
    words for k <= 32, and of 2, 2 and 0.12 chunks of 2^16 for k > 32, the
    last one the odd tail."""
    cpus(3)
    monkeypatch.setattr(simulator, "_MIN_PART_CHUNKS", 1)


def _label(entry):
    return f"{entry['family']}-{entry['code'] or entry['k']}-{entry['b']}-s{entry['seed']}x{entry['shards']}"


@pytest.mark.parametrize("name", sorted(FIXTURE_SHA256))
def test_golden_fixture_bytes_are_unchanged(name):
    assert hashlib.sha256((DATA / name).read_bytes()).hexdigest() == FIXTURE_SHA256[name]


def test_fixture_covers_the_edge_geometries():
    cells = {(e["family"], e["k"], e["b"]) for e in GOLDEN}
    edges = {("uncoded", 64, 0), ("dbi", 1, 1), ("dbi", 8, 1), ("dbi", 63, 1),
             ("ppm0", 1, 0), ("ppm0", 16, (1 << 16) - 17), ("optimal", 1, 0),
             ("optimal", 11, 12), ("optimal", 24, 16), ("optimal", 64, 0),
             ("coset", 11, 12), ("coset", 4, 11), ("coset", 16, 1)}
    assert edges <= cells
    assert {(e["seed"], e["shards"]) for e in GOLDEN} >= {(1, 1), (1, 2)}


@pytest.mark.parametrize("entry", GOLDEN, ids=_label)
def test_trace_reproduces_the_golden_record(entry):
    spec = _spec(entry)
    assert spec.b == entry["b"]
    stats = run_trace(TraceConfig(spec, entry["length"], entry["seed"], entry["shards"]))
    hist = [0] * (_heaviest_step(spec) + 1)
    for w, c in entry["weight_histogram"]:
        assert w < len(hist)
        hist[w] = c
    assert stats.total_transitions == entry["total_transitions"]
    assert stats.weight_histogram == hist
    assert stats.clock_cycles_total == entry["clock_cycles_total"]
    assert stats.comparisons_total == entry["comparisons_total"]
    assert stats.additions_total == entry["additions_total"]


@pytest.mark.parametrize("entry", GOLDEN, ids=_label)
def test_golden_record_in_three_parts(entry, three_parts):
    test_trace_reproduces_the_golden_record(entry)


def test_sharded_merge_in_three_parts(three_parts, monkeypatch):
    # 7,501-word shards are 4 chunks of 2^11 words, split 2 + 1 + 1 (1,357 words)
    monkeypatch.setattr(simulator, "_CHUNK", 1 << 11)
    test_simulator.TestRunTrace().test_sharded_merge_equals_serial()
