"""Spans recorded around calls into heartcbr, from outside the package.

The benchmark never edits the program. Instead, while a traced run is
active, it replaces each listed heartcbr function, under every name a
heartcbr module binds it to, with a wrapper that records when the call
started and ended. Restoring puts the original functions back.

Two kinds of wrapper exist:

- a *span* keeps one record per call: name, start, end, the enclosing span
  and the request (query, iteration or process) it served;
- a *leaf* is for functions called thousands of times per request, such as
  ``normalize`` on every stored case. It adds its call count and time to its
  enclosing span instead of keeping a record per call, so a traced run stays
  small in memory.

Spans stay in memory and are written once, by :meth:`Tracer.dump`, when the
run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function, recorded name, kind). One recorded name may cover
# several functions: every report writer counts as "reports.write".
INSTRUMENTED = (
    ("dataset", "parse_csv", "dataset.parse_csv", "span"),
    ("cases", "validate_case", "cases.validate_case", "leaf"),
    ("dataset", "split_sequential", "dataset.split_sequential", "span"),
    ("dataset", "read_case_base", "dataset.read_case_base", "span"),
    ("dataset", "write_case_base", "dataset.write_case_base", "span"),
    ("scaling", "fit_minmax", "scaling.fit_minmax", "span"),
    ("scaling", "normalize", "scaling.normalize", "leaf"),
    ("scaling", "read_params", "scaling.read_params", "span"),
    ("scaling", "write_params", "scaling.write_params", "span"),
    ("engine", "evaluate", "engine.evaluate", "span"),
    ("engine", "predict", "engine.predict", "span"),
    ("engine", "retain", "engine.retain", "span"),
    ("engine", "rank_scaled", "engine.rank_scaled", "leaf"),
    ("engine", "reuse", "engine.reuse", "leaf"),
    ("analytics", "dataset_stats", "analytics.dataset_stats", "span"),
    ("analytics", "pearson_correlation", "analytics.pearson_correlation", "span"),
    ("reports", "write_json", "reports.write", "span"),
    ("reports", "write_per_case_csv", "reports.write", "span"),
    ("reports", "write_stats_tables", "reports.write", "span"),
    ("reports", "write_correlation_csv", "reports.write", "span"),
    ("baselines", "train_mlp", "baselines.train_mlp", "span"),
    ("baselines", "evaluate_mlp", "baselines.evaluate_mlp", "span"),
    ("baselines", "forward", "baselines.forward", "leaf"),
    ("baselines", "backprop_deltas", "baselines.backprop_deltas", "leaf"),
    ("baselines", "update_weights", "baselines.update_weights", "leaf"),
)


class Tracer:
    """In-memory span store. ``request`` tags every span opened while set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        # (enclosing span index or -1, name id) -> [calls, total ns]
        self.leaves: dict[tuple[int, int], list[int]] = {}
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Store one finished top-level span timed by the caller."""
        self.name_id.append(self._id(name))
        self.start.append(start_ns)
        self.end.append(end_ns)
        self.parent.append(-1)
        self.qid.append(self.request)

    def span_wrapper(self, fn, name: str):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.qid.append(self.request)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        return traced

    def leaf_wrapper(self, fn, name: str):
        nid = self._id(name)
        stack = self._stack
        leaves = self.leaves
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                key = (stack[-1] if stack else -1, nid)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return traced

    # -- reading -------------------------------------------------------------

    def spans(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [] if nid is None else [i for i, n in enumerate(self.name_id) if n == nid]

    def durations_s(self, name: str) -> list[float]:
        return [(self.end[i] - self.start[i]) / 1e9 for i in self.spans(name)]

    def per_request_s(self, name: str, requests) -> list[float]:
        """Time spent in ``name`` (spans and leaves) by each of the given requests."""
        totals = {request: 0.0 for request in requests}
        for i in self.spans(name):
            if self.qid[i] in totals:
                totals[self.qid[i]] += (self.end[i] - self.start[i]) / 1e9
        nid = self._name_ids.get(name)
        for (parent, leaf_id), (_, total_ns) in self.leaves.items():
            if leaf_id == nid and parent >= 0 and self.qid[parent] in totals:
                totals[self.qid[parent]] += total_ns / 1e9
        return list(totals.values())

    def leaf_totals(self, name: str, under: str | None = None) -> tuple[int, int]:
        """Calls and total ns of leaf ``name``, optionally only inside spans named ``under``."""
        nid = self._name_ids.get(name)
        under_id = self._name_ids.get(under) if under else None
        calls = total = 0
        for (parent, leaf_id), (count, total_ns) in self.leaves.items():
            if leaf_id != nid:
                continue
            if under is not None and (parent < 0 or self.name_id[parent] != under_id):
                continue
            calls += count
            total += total_ns
        return calls, total

    # -- persistence ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.qid[i]]
                for i in range(len(self.start))
            ],
            "leaves": [[p, n, c, t] for (p, n), (c, t) in self.leaves.items()],
        }

    def merge(self, dump: dict, qid: int) -> None:
        """Append spans dumped by another process, all tagged with ``qid``."""
        ids = [self._id(name) for name in dump["names"]]
        offset = len(self.start)
        for nid, start, end, parent, _ in dump["spans"]:
            self.name_id.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.qid.append(qid)
        for parent, nid, count, total in dump["leaves"]:
            key = (parent + offset if parent >= 0 else -1, ids[nid])
            entry = self.leaves.setdefault(key, [0, 0])
            entry[0] += count
            entry[1] += total

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, **self.dump()}) + "\n", encoding="utf-8")

    def patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of an INSTRUMENTED function."""
        if self._patches is None:
            modules = [m for name, m in list(sys.modules.items()) if name.startswith("heartcbr") and m]
            self._patches = []
            for module_name, attr, name, kind in INSTRUMENTED:
                original = getattr(sys.modules[f"heartcbr.{module_name}"], attr)
                make = self.span_wrapper if kind == "span" else self.leaf_wrapper
                wrapper = make(original, name)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, key, original, wrapper))
        return self._patches


@contextlib.contextmanager
def instrumented(tracer: Tracer | None):
    """Route the INSTRUMENTED heartcbr functions through ``tracer`` while active.

    Every module of the package that binds a listed function (for example
    ``heartcbr.cli`` importing ``predict`` from ``heartcbr.engine``) gets the
    wrapper, so calls made inside the program are recorded too. ``None``
    leaves the program untouched.
    """
    if tracer is None:
        yield
        return
    patches = tracer.patches()
    for module, key, _, wrapper in patches:
        setattr(module, key, wrapper)
    try:
        yield
    finally:
        for module, key, original, _ in reversed(patches):
            setattr(module, key, original)
