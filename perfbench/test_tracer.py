"""Checks of the tracer's arithmetic and of BENCHMARK.json's metric lists.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import os
import threading

from layers import PER_LAYER
from run import END_TO_END
from tracer import Tracer, covered, layer_times, self_times, time_outside


def span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "run": "op1"}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [span(1, "outer", 0.0, 10.0),
             # two overlapping children (as from worker threads) cover 1..5
             span(2, "child", 1.0, 3.0, parent=1),
             span(3, "child", 2.0, 5.0, parent=1),
             span(4, "inner", 2.5, 2.75, parent=3),
             span(5, "child", 6.0, 7.0, parent=1),
             # a child running past its parent counts only inside it
             span(6, "late", 9.5, 12.0, parent=1)]
    assert covered([(1.0, 3.0), (2.0, 5.0), (6.0, 7.0)]) == 5.0
    own = self_times(spans)
    assert own[1] == 10.0 - (4.0 + 1.0 + 0.5)
    assert own[3] == 3.0 - 0.25
    assert own[6] == 2.5
    times = layer_times(spans)
    assert times["outer"] == {"total": 10.0, "self": 4.5, "root": 10.0,
                              "calls": 1}
    assert times["child"]["total"] == 2.0 + 3.0 + 1.0
    assert times["child"]["root"] == 0.0


def test_nested_same_name_spans_count_once():
    spans = [span(1, "f", 0.0, 4.0), span(2, "f", 1.0, 2.0, parent=1)]
    times = layer_times(spans)
    assert times["f"]["total"] == 4.0
    assert times["f"]["self"] == 3.0 + 1.0


def test_time_outside_skips_spans_under_the_ancestor():
    spans = [span(1, "tune", 0.0, 5.0), span(2, "step", 0.5, 1.0, parent=1),
             span(3, "cluster", 1.0, 2.0, parent=2),
             span(4, "cluster", 6.0, 6.5)]
    assert time_outside(spans, "cluster", "tune") == 0.5


def test_worker_thread_spans_hang_under_the_open_main_span():
    tracer = Tracer()
    with tracer.span("main"):
        worker = threading.Thread(target=_traced_call, args=(tracer,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["w"]["parent"] == by_name["main"]["id"]
    assert by_name["main"]["parent"] is None


def _traced_call(tracer):
    with tracer.span("w"):
        pass


def test_benchmark_json_lists_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
