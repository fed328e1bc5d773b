"""Span tracer that times the program's layers from outside.

It wraps a layer's public function by rebinding the name where the caller
looks it up (a module global or a class attribute), so nothing in the
program changes. Each call becomes a span: name, start, end, parent span and
run id. Counters are recorded by hooks at the same call boundaries. Spans
stay in memory until ``write_jsonl`` is called at the end of the run.
Standard library only.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.run_id = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a worker thread's outermost span hangs under the main thread's
        # innermost open span, which is the call that started the worker
        opener = stack or self._main_stack
        parent = opener[-1] if opener else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "run": self.run_id})

    # -- counters --------------------------------------------------------

    def count(self, name: str, value: float = 1):
        key = (self.run_id, name)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, name: str, value: float):
        key = (self.run_id, name)
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def sample(self, name: str, value: float):
        with self._lock:
            self.samples.setdefault((self.run_id, name), []).append(value)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a traced wrapper until ``unwrap_all``.

        ``before(tracer, args, kwargs)`` runs before the span opens and
        ``after(tracer, args, kwargs, result)`` after it closes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (run, name), value in sorted(self.counters.items()):
                fh.write(json.dumps({"run": run, "counter": name,
                                     "value": value}) + "\n")
            for (run, name), values in sorted(self.samples.items()):
                fh.write(json.dumps({"run": run, "samples": name,
                                     "values": values}) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(s["start"], parent["start"]),
                 min(s["end"], parent["end"])))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ())) for s in spans}


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: total time, self time and calls.

    A span nested inside a span of the same name adds to neither total, so
    re-entrant calls are not counted twice. Spans of different threads that
    overlap in time each add their full duration (busy time, not wall time).
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"total": 0.0, "self": 0.0,
                                           "root": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self"] += own[s["id"]]
        ancestor = by_id.get(s["parent"])
        if ancestor is None:
            entry["root"] += s["end"] - s["start"]
        while ancestor is not None and ancestor["name"] != s["name"]:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is None:
            entry["total"] += s["end"] - s["start"]
    return out


def time_outside(spans, name: str, ancestor: str) -> float:
    """Total time of ``name`` spans that do not run inside an ``ancestor``
    span, e.g. clustering that threshold tuning did not ask for."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        up = by_id.get(s["parent"])
        while up is not None and up["name"] != ancestor:
            up = by_id.get(up["parent"])
        if up is None:
            total += s["end"] - s["start"]
    return total
