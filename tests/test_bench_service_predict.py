"""The benchmark's ``service_predict`` operation at seed 0 gives the
clustering recorded in ``perfbench/expected.json``: ``predict`` at service
dimensions (d=1024, d_a=512, hidden 1024) with peaked attention.

    python3 -m pytest tests/test_bench_service_predict.py
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_service_predict_matches_recorded_outcome(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workload = importlib.import_module("workloads").ServicePredict()
    refs = run.references(workload.name, 0, str(tmp_path / "no_record"))
    assert refs  # seed 0 has a recorded outcome
    state = workload.setup(str(tmp_path / "setup"), 0)
    result = workload.operate(state, str(tmp_path / "op"), None)
    assert workload.check(state, result) == []
    for what, reference in refs:
        assert run.outcome_failures(reference, result["outcome"], what,
                                    workload.rel_tol) == []
