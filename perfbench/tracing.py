"""Spans and counts at drivenqubit's module boundaries, recorded from outside.

``Tracer.install`` rebinds every public function of the six modules
(``dynamics``, ``specfun``, ``rwa``, ``transfer_matrix``, ``analysis``,
``cli``), and ``scipy.integrate.quad`` as ``transfer_matrix`` sees it, to a
wrapper that records a span (name, parent span, pass, op id, start, end).
The rebinding covers every module namespace that holds the function, so
calls between modules are traced too; ``Unitary2.__post_init__`` is wrapped
to count constructions.  ``uninstall`` restores the originals.  No file of
the package changes.

Spans stay in memory until ``write`` at the end of the run.  A span's self
time is its duration minus the durations of its child spans (children of
one span never overlap: the package is single-threaded).
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("dynamics", "specfun", "rwa", "transfer_matrix", "analysis", "cli")


def _count_substeps(counts, args, kwargs, result) -> None:
    counts["dynamics.propagate_exact.substeps"] += len(result) - 1


def _count_samples(counts, args, kwargs, result) -> None:
    ts = args[0] if args else kwargs["ts"]
    counts["analysis.extract_frequency.samples"] += len(ts.values)


_WORK = {
    "dynamics.propagate_exact": _count_substeps,
    "analysis.extract_frequency": _count_samples,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.pass_counts: list[dict[str, int]] = []
        self.pass_index = -1
        self.op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.counts = defaultdict(int)

    def end_pass(self) -> None:
        self.pass_counts.append(dict(self.counts))

    def set_op(self, op: int) -> None:
        self.op = op

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, parent, tracer.pass_index, tracer.op, start, end)
            if work is not None:
                work(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = {short: getattr(package, short) for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        quad = modules["transfer_matrix"].quad
        wrappers[id(quad)] = self._wrap("transfer_matrix.quad", quad)
        for ns in (package, *modules.values()):
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

        unitary = modules["dynamics"].Unitary2
        post_init = unitary.__post_init__
        tracer = self

        def counted_post_init(obj) -> None:
            tracer.counts["dynamics.Unitary2.constructions"] += 1
            post_init(obj)

        self._undo.append((unitary, "__post_init__", post_init))
        unitary.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)

    def _arrays(self) -> dict[str, np.ndarray]:
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        name, parent, pass_, _, start, end = table.T
        dur = end - start
        child = np.zeros(len(table), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "parent": parent, "pass": pass_, "start": start, "end": end, "self": dur - child}

    def per_pass(self) -> list[dict[str, float]]:
        """For each traced pass: calls and self seconds per span name, plus the counts."""
        a = self._arrays()
        out = []
        for p, counts in enumerate(self.pass_counts):
            sel = a["pass"] == p
            calls = np.bincount(a["name"][sel], minlength=len(self.names))
            self_ns = np.bincount(a["name"][sel], weights=a["self"][sel], minlength=len(self.names))
            row: dict[str, float] = dict(counts)
            for i, name in enumerate(self.names):
                row[f"{name}.calls"] = int(calls[i])
                row[f"{name}.self_s"] = float(self_ns[i]) / 1e9
            out.append(row)
        return out

    def scan_cells_ms(self) -> tuple[list[float], int]:
        """Scan-cell wall times rebuilt from spans, and the cells not holding exactly one propagate.

        A cell ends where its extract_frequency call ends and starts where
        the previous cell ended (the scan's start for the first cell), so it
        covers the cell's predictions, propagation and extraction.
        """
        if "analysis.scan_resonance_map" not in self.names:
            return [], 0
        a = self._arrays()
        scan_idx = self.names.index("analysis.scan_resonance_map")
        prop_idx = self.names.index("dynamics.propagate_exact")
        extract_idx = self.names.index("analysis.extract_frequency")
        cells: list[float] = []
        unpaired = 0
        for sid in np.flatnonzero(a["name"] == scan_idx):
            kids = a["parent"] == sid
            ends = np.sort(a["end"][kids & (a["name"] == extract_idx)])
            props = np.sort(a["start"][kids & (a["name"] == prop_idx)])
            bounds = np.concatenate(([a["start"][sid]], ends))
            cells += (np.diff(bounds) / 1e6).tolist()
            per_cell = np.histogram(props, bins=bounds)[0] if bounds.size > 1 else np.zeros(0)
            unpaired += int(np.count_nonzero(per_cell != 1)) + int(props.size - per_cell.sum())
        return cells, unpaired

    def write(self, path: Path) -> None:
        columns = ["name", "parent", "pass", "op", "start_ns", "end_ns"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "columns": columns, "spans": self.spans}, fh, separators=(",", ":"))
