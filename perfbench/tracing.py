"""Spans and counters around braidconway's functions.

``install`` replaces functions under the names their callers look up
(``cli.conway_from_matrix``, ``BurauMatrix.det``, ``burau.laurent_to_z``,
...) with wrappers that record a span per call: name, start, end and the
enclosing span.  No package source is edited.  A call made while a span of
the same name is open is counted but not recorded again, so a name's busy
time never counts an interval twice.

Polynomial multiplication runs millions of times per scan, so it is only
counted (calls and coefficient products), never timed.

Spans stay in memory in flat arrays and are written to a file when the
traced process ends; ``summarize`` turns span files into per-name calls,
busy time and self time (busy time minus the time covered by child spans).
Pool workers are forked from the traced process, inherit the wrappers and
write one span file per task.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from pathlib import Path

#: (owner, attribute, span name): functions and methods replaced by a
#: span wrapper, under the names their callers look up.
SPANS = [
    ("cli", "conway_from_matrix", "burau.normalize"),
    ("burau", "conway_from_matrix", "burau.normalize"),
    ("cli", "burau_rep", "burau.rep"),
    ("burau", "burau_rep", "burau.rep"),
    ("cli", "conway_via_skein", "skein3.value"),
    ("skein3", "conway_via_skein", "skein3.value"),
    ("burau", "laurent_to_z", "polyring.laurent_to_z"),
    ("cli", "parse_band", "braid.parse"),
    ("cli", "parse_artin", "braid.parse"),
    ("skein3", "parse_word", "braid.parse"),
    ("BurauMatrix", "__mul__", "burau.matmul"),
    ("BurauMatrix", "det", "burau.det"),
    ("LaurentPoly", "div_exact", "polyring.div_exact"),
]


class Recorder:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts = dict.fromkeys(
            ("mul.calls", "mul.term_products", "skein.misses", "skein.lookups"), 0
        )
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.open = [0] * len(self.names)
        self.stack = [-1]
        # Zeroed in place: the counting wrappers hold this dict.
        for key in self.counts:
            self.counts[key] = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.open.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            if self.open[nid]:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1])
            self.span_end.append(0.0)
            self.open[nid] = 1
            self.stack.append(idx)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.stack.pop()
                self.open[nid] = 0

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans and counters: a JSON header line, then arrays."""
        header = {
            "names": self.names,
            "calls": self.calls,
            "counts": self.counts,
            "spans": len(self.span_name),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)


def _nterms(p) -> int:
    coeffs = getattr(p, "_coeffs", None)
    return len(coeffs) if coeffs is not None else len(p.items())


def _counted(counts: dict, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder, work_dir: Path) -> None:
    """Wrap the package's functions so that calls land in rec.

    A name the package no longer has is skipped, and its metrics read 0.
    """
    from braidconway import burau, cli, polyring, skein3

    owners = {
        "cli": cli,
        "burau": burau,
        "skein3": skein3,
        "BurauMatrix": burau.BurauMatrix,
        "LaurentPoly": polyring.LaurentPoly,
    }
    for owner, attr, name in SPANS:
        if hasattr(owners[owner], attr):
            setattr(owners[owner], attr, rec.wrap(name, getattr(owners[owner], attr)))

    laurent = polyring.LaurentPoly
    mul = laurent.__mul__
    counts = rec.counts

    def counted_mul(self, other):
        counts["mul.calls"] += 1
        counts["mul.term_products"] += _nterms(self) * (
            _nterms(other) if isinstance(other, laurent) else 1
        )
        return mul(self, other)

    laurent.__mul__ = laurent.__rmul__ = counted_mul

    # Every skein value request goes through skein3's memoized
    # _skein_value, and every cache miss classifies its word once.
    skein3.classify_leaf = _counted(counts, "skein.misses", skein3.classify_leaf)
    if hasattr(skein3, "_skein_value"):
        skein3._skein_value = _counted(counts, "skein.lookups", skein3._skein_value)

    # cli looks up json.dumps through its own ``json`` global; give it a
    # copy of the module whose dumps is traced, leaving json itself alone.
    if hasattr(cli, "json"):
        traced_json = type(cli.json)("json")
        traced_json.__dict__.update(cli.json.__dict__)
        traced_json.dumps = rec.wrap("cli.encode", cli.json.dumps)
        cli.json = traced_json

    if not hasattr(cli, "_scan_task"):
        return
    task = cli._scan_task
    tasks_run = [0]

    @functools.wraps(task)
    def traced_task(arg):
        # Runs in a forked pool worker: drop the state inherited from the
        # parent, trace this task alone and write its spans.
        rec.reset()
        try:
            return task(arg)
        finally:
            tasks_run[0] += 1
            rec.dump(work_dir / f"worker-{os.getpid()}-{tasks_run[0]}.spans")

    cli._scan_task = traced_task


def read_spans(path: Path) -> dict:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(handle, count)
            arrays.append(arr)
    header["arrays"] = arrays
    return header


def summarize(paths: list[Path]) -> dict:
    """Per-name calls, busy and self seconds, and counters, over span files."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for path in paths:
        data = read_spans(path)
        names = data["names"]
        for name, n in zip(names, data["calls"]):
            calls[name] = calls.get(name, 0) + n
        for key, n in data["counts"].items():
            counts[key] = counts.get(key, 0) + n
        span_name, span_parent, start, end = data["arrays"]
        covered = [0.0] * len(span_name)
        for i in range(len(span_name) - 1, -1, -1):
            d = end[i] - start[i]
            parent = span_parent[i]
            if parent >= 0:
                covered[parent] += d
            name = names[span_name[i]]
            busy[name] = busy.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - covered[i]
    return {"calls": calls, "busy": busy, "self": self_s, "counts": counts}
