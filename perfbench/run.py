#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics and wraps nothing. With
``--trace 1`` it wraps each layer's public functions, alternates untraced and
traced operations, and reports the per-layer metrics instead. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Work files, traces and results go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BLAS_THREADS = 1
# set-up is timed in rounds of this length: one before the first operation
# and one after each, so that its samples span the run as the operations do
SETUP_ROUND_SECONDS = 0.5
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

END_TO_END = [("command_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def code_fingerprint(numpy_version: str) -> str:
    """Digest of the program's and the benchmark's source and the numpy
    version: records of earlier runs are compared only with runs of the
    same code."""
    h = hashlib.sha256(numpy_version.encode())
    for top in (SRC, HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def environment(np, seed: int, sizes: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "seed": seed,
            "sizes": sizes}


def same(reference, got, rel_tol: float = 0.0) -> bool:
    if isinstance(reference, float) or isinstance(got, float):
        return abs(reference - got) <= max(1e-9, rel_tol * abs(reference))
    return reference == got


def outcome_failures(reference: dict, outcome: dict, what: str,
                     rel_tol: dict) -> list[str]:
    return [f"{key} = {outcome.get(key)!r}, {what} {value!r}"
            for key, value in reference.items()
            if key not in outcome
            or not same(value, outcome[key], rel_tol.get(key, 0.0))]


def setup_round(workload, run_dir: str, seed: int, seconds: float,
                times: list):
    """Set up into fresh directories until ``seconds`` have passed (at least
    once), appending each set-up's time to ``times``. Keeps the last
    set-up's directory and returns its state and directory."""
    began = time.perf_counter()
    while True:
        setup_dir = os.path.join(run_dir, f"setup{len(times)}")
        os.makedirs(setup_dir)
        start = time.perf_counter()
        state = workload.setup(setup_dir, seed)
        end = time.perf_counter()
        times.append(end - start)
        if end - began >= seconds:
            return state, setup_dir
        shutil.rmtree(setup_dir)


def references(workload_name: str, seed: int, record_path: str):
    """(description, outcome) pairs every operation's outcome must equal."""
    out = []
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload_name, {}).get(str(seed))
    if recorded:
        out.append(("recorded for this seed is", recorded))
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            out.append(("an earlier run gave", json.load(fh)))
    return out


def run_operation(workload, state, outdir, tracer, install, refs):
    """One operation and its checks: (result or None, problems)."""
    try:
        if tracer is not None:
            install(tracer)
        try:
            result = workload.operate(state, outdir, tracer)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        problems = workload.check(state, result)
    except Exception as exc:  # the program failed: count it
        return None, [f"{type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for what, reference in refs:
        problems += outcome_failures(reference, result["outcome"], what,
                                     workload.rel_tol)
    return result, problems


def measure(args, workload, run_dir: str) -> dict:
    import numpy as np

    import layers
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    setup_s = []
    try:
        state, _ = setup_round(workload, run_dir, args.seed,
                               0.0 if tracer is not None
                               else SETUP_ROUND_SECONDS, setup_s)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    sizes = workload.sizes(state)
    record_path = os.path.join(WORK, "records",
                               code_fingerprint(np.__version__),
                               f"{workload.name}-seed{args.seed}.json")
    refs = references(workload.name, args.seed, record_path)
    had_record = os.path.exists(record_path)

    # operations repeat until the next one would end after --seconds; a
    # traced run alternates untraced and traced ones and needs one of each
    times = {"untraced": [], "traced": []}
    op_runs, failures, outcome = [], [], None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.run_id = f"op{attempted}"
            op_runs.append(tracer.run_id)
        began = time.perf_counter()
        result, problems = run_operation(
            workload, state, os.path.join(run_dir, f"op{attempted}"),
            tracer if traced else None, layers.install, refs)
        if problems:
            failed += 1
            failures += [f"operation {attempted}: {p}" for p in problems]
        if result is None:  # a failed operation is timed until it failed
            times["traced" if traced else "untraced"].append(
                time.perf_counter() - began)
            break
        times["traced" if traced else "untraced"].append(result["command_s"])
        if outcome is None:
            outcome = result["outcome"]
            refs.append(("the first operation gave", outcome))
        if tracer is None:
            _, setup_dir = setup_round(workload, run_dir, args.seed,
                                       SETUP_ROUND_SECONDS, setup_s)
            shutil.rmtree(setup_dir)
        now = time.perf_counter()
        if (tracer is None or all(times.values())) and \
                now - start + now - began > args.seconds:
            break

    try:
        problems = workload.verify(state)
    except Exception as exc:  # the program failed: count it
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:  # the sampled scores stand for every operation's output
        failed = attempted
        failures += [f"verification: {p}" for p in problems]
    if not failed and not had_record:
        os.makedirs(os.path.dirname(record_path), exist_ok=True)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(outcome, fh, indent=1, sort_keys=True)

    if tracer is None:
        values = {"command_s": statistics.median(times["untraced"]),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
    else:
        values = layers.per_layer(tracer, op_runs, times["traced"],
                                  times["untraced"])
        units = dict(layers.PER_LAYER)
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write_jsonl(os.path.join(
            WORK, "traces", f"{workload.name}-seed{args.seed}.jsonl"))
    return {"workload": workload.name, "trace": args.trace,
            "environment": environment(np, args.seed, sizes),
            "setup_s": setup_s, "command_s": times, "outcome": outcome,
            "failures": failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cscoref")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-"
                                 f"{os.getpid()}")
    try:
        report = measure(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(report["environment"]))
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {report['attempted']} attempted, "
          f"{report['failed']} failed")
    for line in report["failures"]:
        print("  FAILED " + line)
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
