"""Which public functions of each layer the traced run wraps, and how the
per-layer metrics are computed from the spans and counters they record.

Layers are the program's modules: corpus, synthgen, embed, commonsense,
scorer, training, cluster, metrics and pipeline. Flop counts are computed
from array shapes, not measured.
"""

from __future__ import annotations

import statistics
import time

from tracer import Tracer, layer_times, time_outside

# (metric, unit); every traced run reports all of them, 0 where the
# workload does not reach the layer
PER_LAYER = [
    ("scorer.attention_forward_s", "s"),
    ("scorer.attention_backward_s", "s"),
    ("scorer.forward_self_s", "s"),
    ("scorer.attention_mflop", "Mflop"),
    ("scorer.mlp_mflop", "Mflop"),
    ("scorer.span_reps_forward_s", "s"),
    ("scorer.span_rows_per_forward", "count"),
    ("scorer.sent_tensor_mb", "MB"),
    ("scorer.forward_batch_s", "s"),
    ("scorer.backward_batch_s", "s"),
    ("scorer.span_reps_backward_s", "s"),
    ("scorer.checkpoint_io_s", "s"),
    ("training.adam_step_s", "s"),
    ("training.adam_steps", "count"),
    ("training.step_ms_p50", "ms"),
    ("training.step_ms_p98", "ms"),
    ("training.step_samples", "count"),
    ("training.epochs", "count"),
    ("training.score_dataset_s", "s"),
    ("training.pairs_scored", "count"),
    ("training.build_dataset_s", "s"),
    ("training.cluster_from_scores_s", "s"),
    ("training.tune_threshold_s", "s"),
    ("cluster.agglomerative_cluster_s", "s"),
    ("cluster.calls", "count"),
    ("cluster.merges", "count"),
    ("cluster.max_unit_mentions", "count"),
    ("metrics.evaluate_s", "s"),
    ("metrics.calls", "count"),
    ("commonsense.cache_put_s", "s"),
    ("commonsense.cache_puts", "count"),
    ("commonsense.cache_load_s", "s"),
    ("commonsense.get_inferences_s", "s"),
    ("commonsense.provider_calls", "count"),
    ("commonsense.cache_hits", "count"),
    ("commonsense.cache_misses", "count"),
    ("commonsense.cache_lookups", "count"),
    ("commonsense.cache_hit_ratio", "ratio"),
    ("commonsense.warm_pass_s", "s"),
    ("embed.embed_s", "s"),
    ("embed.tokens", "count"),
    ("corpus.load_s", "s"),
    ("corpus.candidate_pairs_s", "s"),
    ("corpus.pairs", "count"),
    ("synthgen.generate_s", "s"),
    ("pipeline.cmd_train_s", "s"),
    ("pipeline.cmd_predict_s", "s"),
    ("pipeline.cmd_gen_inferences_s", "s"),
    ("trace.overhead_pct", "%"),
]

# metric -> (span name, which time): "total" counts a span once even when
# re-entered, "self" subtracts child spans, "root" keeps top-level calls only
SPAN_TIMES = {
    "scorer.attention_forward_s": ("scorer.attention_forward", "total"),
    "scorer.attention_backward_s": ("scorer.attention_backward", "total"),
    "scorer.forward_self_s": ("scorer.forward_batch", "self"),
    "scorer.span_reps_forward_s": ("scorer.span_reps_forward", "total"),
    "scorer.forward_batch_s": ("scorer.forward_batch", "total"),
    "scorer.backward_batch_s": ("scorer.backward_batch", "total"),
    "scorer.span_reps_backward_s": ("scorer.span_reps_backward", "total"),
    "scorer.checkpoint_io_s": ("scorer.checkpoint_io", "total"),
    "training.adam_step_s": ("training.adam_step", "total"),
    "training.score_dataset_s": ("training.score_dataset", "total"),
    "training.build_dataset_s": ("training.build_dataset", "total"),
    "training.tune_threshold_s": ("training.tune_threshold", "total"),
    "cluster.agglomerative_cluster_s": ("cluster.agglomerative_cluster",
                                        "total"),
    "metrics.evaluate_s": ("metrics.evaluate", "total"),
    "commonsense.cache_put_s": ("commonsense.cache_put", "total"),
    "commonsense.cache_load_s": ("commonsense.cache_load", "total"),
    "commonsense.get_inferences_s": ("commonsense.get_inferences", "total"),
    "commonsense.warm_pass_s": ("commonsense.warm_pass", "total"),
    "embed.embed_s": ("embed.embed_sentence", "total"),
    "corpus.load_s": ("corpus.load", "total"),
    "corpus.candidate_pairs_s": ("corpus.candidate_pairs", "total"),
    "synthgen.generate_s": ("synthgen.generate", "total"),
    "pipeline.cmd_train_s": ("pipeline.cmd_train", "root"),
    "pipeline.cmd_predict_s": ("pipeline.cmd_predict", "root"),
    "pipeline.cmd_gen_inferences_s": ("pipeline.cmd_gen_inferences", "root"),
}

COUNTERS = ("training.adam_steps", "training.epochs", "training.pairs_scored",
            "scorer.attention_mflop", "scorer.mlp_mflop",
            "scorer.sent_tensor_mb", "cluster.calls", "cluster.merges",
            "cluster.max_unit_mentions", "metrics.calls",
            "commonsense.cache_puts", "commonsense.provider_calls",
            "commonsense.cache_hits", "commonsense.cache_misses",
            "embed.tokens", "corpus.pairs")


def install(tracer: Tracer):
    """Wrap each layer's public functions where their callers look them
    up. ``tracer.unwrap_all()`` restores the originals."""
    from cscoref import commonsense, embed, pipeline, scorer, training

    step = {}

    def step_start(t, args, kwargs):
        if kwargs.get("training"):
            step["start"] = time.perf_counter()

    def step_end(t, args, kwargs, result):
        t.count("training.adam_steps")
        start = step.pop("start", None)
        if start is not None:
            t.sample("training.step_ms", (time.perf_counter() - start) * 1e3)

    def mlp_flops(t, args, kwargs, result):
        params, _, sel = args[:3]
        dims = params.dims
        t.count("scorer.mlp_mflop",
                2 * len(sel) * (dims.g_dim * dims.h + dims.h) / 1e6)

    def attention_flops(t, args, kwargs, result):
        _, Kr, _, W_q, _ = args[:5]
        b, k, r = Kr.shape
        a = W_q.shape[1]
        t.count("scorer.attention_mflop",
                2 * b * (r * a + k * r * a + k * a + k * r) / 1e6)

    def dataset_sizes(t, args, kwargs, data):
        if data.sent_tensors is not None:
            t.peak("scorer.sent_tensor_mb", data.sent_tensors.X.nbytes / 1e6)

    def merges(t, args, kwargs, clustering):
        n = len(args[0])
        t.count("cluster.calls")
        t.count("cluster.merges", n - len(set(clustering.assignment.values())))
        t.peak("cluster.max_unit_mentions", n)

    def counter(name, size=None):
        return lambda t, args, kwargs, result: t.count(
            name, 1 if size is None else size(args, result))

    w = tracer.wrap
    for name in ("cmd_train", "cmd_predict", "cmd_gen_inferences"):
        w(pipeline, name, f"pipeline.{name}")
    w(pipeline, "generate_synthetic", "synthgen.generate")
    w(pipeline, "load_corpus", "corpus.load")
    w(training, "candidate_pairs", "corpus.candidate_pairs",
      after=counter("corpus.pairs", lambda a, r: len(r)))
    w(embed.HashEmbedder, "embed_sentence", "embed.embed_sentence",
      after=counter("embed.tokens", lambda a, r: len(r)))
    for module in (pipeline, training):
        w(module, "build_dataset", "training.build_dataset",
          after=dataset_sizes)
        w(module, "evaluate", "metrics.evaluate",
          after=counter("metrics.calls"))
    for module in (commonsense, training):
        w(module, "get_inferences", "commonsense.get_inferences")
    w(commonsense.InferenceCache, "__init__", "commonsense.cache_load")
    w(commonsense.InferenceCache, "get", "commonsense.cache_get",
      after=lambda t, args, kwargs, hit: t.count(
          "commonsense.cache_misses" if hit is None
          else "commonsense.cache_hits"))
    w(commonsense.InferenceCache, "put", "commonsense.cache_put",
      after=counter("commonsense.cache_puts"))
    w(commonsense.FixtureProvider, "generate", "commonsense.provider",
      after=counter("commonsense.provider_calls"))
    w(pipeline, "train", "training.train",
      after=counter("training.epochs", lambda a, r: len(r[1]["epochs"])))
    w(pipeline, "save_checkpoint", "scorer.checkpoint_io")
    w(pipeline, "load_checkpoint", "scorer.checkpoint_io")
    w(training, "score_dataset", "training.score_dataset",
      after=counter("training.pairs_scored", lambda a, r: len(r)))
    w(training, "forward_batch", "scorer.forward_batch", before=step_start,
      after=mlp_flops)
    w(training, "backward_batch", "scorer.backward_batch")
    w(training.Adam, "step", "training.adam_step", after=step_end)
    w(scorer, "span_reps_forward", "scorer.span_reps_forward",
      after=counter("scorer.span_rows", lambda a, r: len(a[0])))
    w(scorer, "span_reps_backward", "scorer.span_reps_backward")
    w(scorer, "attention_forward", "scorer.attention_forward",
      after=attention_flops)
    w(scorer, "attention_backward", "scorer.attention_backward")
    w(training, "tune_threshold_from_scores", "training.tune_threshold")
    w(training, "cluster_from_scores", "training.cluster_from_scores")
    w(training, "agglomerative_cluster", "cluster.agglomerative_cluster",
      after=merges)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_metrics(tracer: Tracer, run: str) -> dict[str, float]:
    """Per-layer metrics of one traced run (one operation or the set-up)."""
    spans = [s for s in tracer.spans if s["run"] == run]
    times = layer_times(spans)
    # what predict pays: clustering at one tau, not tuning's grid
    out = {"training.cluster_from_scores_s": time_outside(
        spans, "training.cluster_from_scores", "training.tune_threshold")}
    for metric, (span, kind) in SPAN_TIMES.items():
        out[metric] = times.get(span, {}).get(kind, 0.0)
    for name in COUNTERS:
        out[name] = tracer.counters.get((run, name), 0)
    forwards = times.get("scorer.forward_batch", {}).get("calls", 0)
    rows = tracer.counters.get((run, "scorer.span_rows"), 0)
    out["scorer.span_rows_per_forward"] = rows / forwards if forwards else 0
    steps = tracer.samples.get((run, "training.step_ms"), [])
    out["training.step_ms_p50"] = percentile(steps, 50)
    out["training.step_ms_p98"] = percentile(steps, 98)
    out["training.step_samples"] = len(steps)
    lookups = out["commonsense.cache_hits"] + out["commonsense.cache_misses"]
    out["commonsense.cache_lookups"] = lookups
    out["commonsense.cache_hit_ratio"] = (out["commonsense.cache_hits"]
                                          / lookups if lookups else 0.0)
    return out


def per_layer(tracer: Tracer, op_runs, traced_s, untraced_s) -> dict:
    """Median over the traced operations of each per-layer metric; set-up
    work (``synthgen.generate_s``) comes from the traced set-up. With no
    traced operation (the first one failed) the metrics are 0."""
    per_run = [run_metrics(tracer, run) for run in op_runs or ["none"]]
    out = {name: statistics.median(r[name] for r in per_run)
           for name, _ in PER_LAYER if name != "trace.overhead_pct"}
    out["synthgen.generate_s"] = run_metrics(
        tracer, "setup")["synthgen.generate_s"]
    out["trace.overhead_pct"] = 0.0
    if traced_s and untraced_s:
        base = statistics.median(untraced_s)
        out["trace.overhead_pct"] = (statistics.median(traced_s) - base) \
            / base * 100
    return out
