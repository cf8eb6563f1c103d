"""In-memory spans around buslab's layer boundaries, added from outside.

A span is (name, start, end, parent) in perf_counter nanoseconds; every span
of one process belongs to the tracer's run id. Spans are opened by wrappers
that `install` puts on the module attributes buslab's own callers resolve at
call time (for example `buslab.codecs.mppm_unrank`, which `codecs.py`
imported by name), so nested calls are traced without editing `src/`.

Storage is four flat arrays, so a run can hold millions of spans (a cold
optimal (18,10) trace alone makes 2^18 differential_int calls); they are
written to disk once, when the run ends. Self time is summed per name as
each span closes, so no per-span pass over them is needed.
"""
from __future__ import annotations

import functools
import importlib
import threading
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute path, span name). The module is the one whose callers
# resolve the attribute; one function can appear under several modules.
TARGETS = (
    ("buslab", "run_trace", "simulator.run_trace"),
    ("buslab.simulator", "run_trace", "simulator.run_trace"),
    ("buslab.cli", "run_trace", "simulator.run_trace"),
    ("buslab", "exact_average_distance", "simulator.exact_average_distance"),
    ("buslab.cli", "exact_average_distance", "simulator.exact_average_distance"),
    ("buslab.verify", "exact_average_distance", "simulator.exact_average_distance"),
    ("buslab", "encode", "codecs.encode"),
    ("buslab", "decode", "codecs.decode"),
    ("buslab.codecs", "make_codec", "codecs.make_codec"),
    ("buslab.simulator", "make_codec", "codecs.make_codec"),
    ("buslab.cli", "make_codec", "codecs.make_codec"),
    ("buslab.verify", "make_codec", "codecs.make_codec"),
    ("buslab.codecs", "Ppm0Codec.differential_int", "codecs.differential_int"),
    ("buslab.codecs", "OptimalCodec.differential_int", "codecs.differential_int"),
    ("buslab.codecs", "CosetCodec.differential_int", "codecs.differential_int"),
    ("buslab.codecs", "mppm_unrank", "combinatorics.mppm_unrank"),
    ("buslab.verify", "mppm_unrank", "combinatorics.mppm_unrank"),
    ("buslab.codecs", "mppm_rank", "combinatorics.mppm_rank"),
    ("buslab.verify", "mppm_rank", "combinatorics.mppm_rank"),
    ("buslab.combinatorics", "BinomialTable.__init__", "combinatorics.BinomialTable"),
    ("buslab.codecs", "build_binomial_table", "combinatorics.build_binomial_table"),
    ("buslab.verify", "build_binomial_table", "combinatorics.build_binomial_table"),
    ("buslab.analytics", "d_opt", "analytics.d_opt"),
    ("buslab.analytics", "d_max", "analytics.d_max"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        # per thread: the open spans, as frames, and self ns per name id
        self._stacks: dict[int, list[list]] = {}
        self._self_ns: dict[int, dict[int, int]] = {}
        # parent span -> intervals of its children that ran on pool threads
        self._pooled: dict[int, list[tuple[int, int]]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
            self._self_ns[tid] = {}
        pooled = -1
        if stack:
            parent = stack[-1][0]
        else:
            # a pool thread's spans belong to whatever the main thread is
            # blocked in (run_trace, for the --jobs 2 op)
            main = self._stacks.get(self._main)
            parent = pooled = main[-1][0] if main and tid != self._main else -1
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.start.append(0)
            self.end.append(0)
        # idx, name id, start, ns covered by children, pooled parent, stack, self ns
        frame = [idx, nid, 0, 0, pooled, stack, self._self_ns[tid]]
        stack.append(frame)
        frame[2] = self.start[idx] = perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        idx, nid, start, covered, pooled, stack, self_ns = frame
        self.end[idx] = end
        stack.pop()
        dur = end - start
        kids = self._pooled.pop(idx, None)  # its pool children closed before it
        if kids:
            covered += union_ns(kids)
        self_ns[nid] = self_ns.get(nid, 0) + dur - covered
        if stack:
            stack[-1][3] += dur
        elif pooled >= 0:
            with self._lock:
                self._pooled.setdefault(pooled, []).append((start, end))

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call from the benchmark's own code inside a span; returns
        (span index, result)."""
        frame = self._open(self._name_id(name))
        try:
            return frame[0], fn(*args, **kwargs)
        finally:
            self._close(frame)

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        absent = []
        for module_name, path, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except AttributeError:
                absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, span_name))
        return absent

    def self_ns(self) -> dict[str, int]:
        """Self time per span name: each span's duration minus the time its
        children cover, summed over the spans of that name."""
        out: dict[str, int] = {}
        for per_thread in self._self_ns.values():
            for nid, ns in per_thread.items():
                out[self.names[nid]] = out.get(self.names[nid], 0) + ns
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span columns; take them only once tracing is over."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names), **self.arrays()
        )


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals. Children of one span
    overlap only when they ran on different threads."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
