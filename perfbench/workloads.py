"""The benchmark's four workloads.

Each workload has a set-up (timed as ``setup_s``), one operation that a
user runs (timed as ``command_s``), the deterministic outcome of that
operation, and checks of that outcome. The program is driven only through
its public entry points; every input is made from the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import time
from dataclasses import replace

import numpy as np

from cscoref import commonsense, pipeline, scorer, training
from cscoref.cluster import read_clustering
from cscoref.corpus import load_corpus
from cscoref.embed import EmbedderConfig, make_embedder, span_representation
from cscoref.metrics import evaluate
from cscoref.synthgen import SyntheticSpec

from tracer import Tracer

RESCORE_RTOL = 1e-9
RESCORE_SAMPLE = 8
ATTENTION_SCALE = 50.0


def quiet():
    """Swallow what the commands print, so the result line stays last."""
    return contextlib.redirect_stdout(io.StringIO())


def synth(spec: SyntheticSpec, directory: str, split: str):
    corpus_path = os.path.join(directory, f"{split}.jsonl")
    fixtures_path = os.path.join(directory, f"{split}.fixtures.jsonl")
    with quiet():
        pipeline.cmd_synth(spec, corpus_path, fixtures_path)
    return corpus_path, fixtures_path


def fixture_config(config, paths: dict):
    """Point ``config`` at synthesized corpora and their fixture files."""
    for split, (corpus_path, fixtures_path) in paths.items():
        config.corpus_paths[split] = corpus_path
        config.commonsense.fixtures[split] = fixtures_path
    return config


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_assignment(path) -> dict:
    clustering, _ = read_clustering(path)
    return dict(clustering.assignment)


def partition_failures(assignment: dict, mention_ids) -> list[str]:
    if set(assignment) != set(mention_ids):
        return ["clustering does not cover exactly the split's mentions"]
    return []


def merged_pair_averages(ids, lookup: dict, assignment: dict) -> np.ndarray:
    """Average pair score between every two distinct output clusters."""
    index = {m: i for i, m in enumerate(ids)}
    scores = np.zeros((len(ids), len(ids)))
    for (a, b), s in lookup.items():
        scores[index[a], index[b]] = scores[index[b], index[a]] = s
    reps = sorted(set(assignment.values()))
    member = np.zeros((len(ids), len(reps)))
    col = {r: c for c, r in enumerate(reps)}
    for m in ids:
        member[index[m], col[assignment[m]]] = 1.0
    sums = member.T @ scores @ member
    sizes = member.sum(axis=0)
    averages = sums / np.outer(sizes, sizes)
    np.fill_diagonal(averages, -np.inf)
    return averages


class Workload:
    name = ""
    # outcome key -> relative tolerance; other floats must agree to 1e-9
    rel_tol: dict = {}

    def setup(self, workdir: str, seed: int) -> dict:
        raise NotImplementedError

    def sizes(self, state: dict) -> dict:
        raise NotImplementedError

    def operate(self, state: dict, outdir: str, tracer) -> dict:
        """Run the operation once; returns {"command_s", "outcome", ...}."""
        raise NotImplementedError

    def check(self, state: dict, result: dict) -> list[str]:
        """Failures of one operation's output, beyond its outcome."""
        return []

    def verify(self, state: dict) -> list[str]:
        """Run-level checks made once, after the timed operations."""
        return []


class DeskTrain(Workload):
    """``cmd_train`` at the desk preset, then ``cmd_predict`` on test."""

    name = "desk_train"
    # a mean of float sums after 600 optimiser steps: kernels that only
    # reorder the arithmetic may move its last digits, a changed step more
    rel_tol = {"final_train_loss": 1e-6}

    def setup(self, workdir, seed):
        paths = {}
        for split, spec in pipeline.DESK_SPLIT_SPECS.items():
            paths[split] = synth(replace(spec, seed=spec.seed + seed),
                                 workdir, split)
        config = fixture_config(pipeline.preset("desk"), paths)
        # a fixed epoch budget gives every seed the same work; at the
        # pinned seed no epoch after the preset's early stop beats the best
        # one, so the pinned test CoNLL still holds
        config.train = replace(config.train, mode="intra", patience=None)
        config.seeds = (seed,)
        return {"config": config, "seed": seed}

    def sizes(self, state):
        config = state["config"]
        out = {}
        for split, path in config.corpus_paths.items():
            corpus = load_corpus(path)
            out[f"{split}_mentions"] = len(corpus.mentions)
            out[f"{split}_pairs"] = len(training.candidate_pairs(corpus))
        out.update(d=config.embedder.d, d_a=config.train.d_a,
                   h=config.train.hidden, mode=config.train.mode,
                   epochs=config.train.epochs)
        return out

    def operate(self, state, outdir, tracer):
        config = state["config"]
        seed = state["seed"]
        train_config = replace(config, out_dir=os.path.join(outdir, "train"))
        predict_config = replace(config,
                                 out_dir=os.path.join(outdir, "predict"))
        checkpoint = os.path.join(train_config.out_dir,
                                  f"checkpoint_seed{seed}.bin")
        history_path = os.path.join(train_config.out_dir,
                                    f"history_seed{seed}.json")
        start = time.perf_counter()
        with quiet():
            pipeline.cmd_train(train_config)
        with open(history_path, encoding="utf-8") as fh:
            record = json.load(fh)
        tau, history = record["tau"], record["history"]
        with quiet():
            pipeline.cmd_predict(predict_config, checkpoint, "test", tau)
        command_s = time.perf_counter() - start
        with open(os.path.join(predict_config.out_dir, "report_test.json"),
                  encoding="utf-8") as fh:
            conll = json.load(fh)["conll_f1"]
        assignment = read_assignment(
            os.path.join(predict_config.out_dir, "clustering_test.jsonl"))
        return {"command_s": command_s, "assignment": assignment,
                "outcome": {"conll_f1": conll, "tau": tau,
                            "best_dev_f1": history["best_dev_f1"],
                            "best_epoch": history["best_epoch"],
                            "final_train_loss":
                                history["epochs"][-1]["train_loss"],
                            "checkpoint_sha256": file_digest(checkpoint),
                            "clustering_sha256": digest(assignment)}}

    def check(self, state, result):
        return partition_failures(
            result["assignment"],
            load_corpus(state["config"].corpus_paths["test"]).mentions)


class ServicePredict(Workload):
    """``cmd_predict`` at service dimensions with a seeded checkpoint."""

    name = "service_predict"
    tau = 0.5

    def setup(self, workdir, seed):
        spec = SyntheticSpec(n_topics=1, clusters_per_topic=8,
                             mentions_per_cluster=4, hard_fraction=0.5,
                             distractor_rate=0.5, seed=404 + seed)
        config = fixture_config(pipeline.preset("service"),
                                {"test": synth(spec, workdir, "test")})
        # the hash embedder at d=1024 stands in for the embedding service
        config.embedder = EmbedderConfig(provider="hash", d=1024)
        config.train = replace(config.train, mode="intra")
        checkpoint = os.path.join(workdir, "checkpoint.bin")
        params = scorer.init_parameters(
            config.train.model_dims(config.embedder), seed)
        # at init scale the attention scores are ~1e-4 and the weights
        # uniform, which would hide attention changes from ``verify``
        for name in ("W_q_before", "W_k_before", "W_q_after", "W_k_after"):
            getattr(params, name)[...] *= ATTENTION_SCALE
        scorer.save_checkpoint(params, checkpoint)
        return {"config": config, "seed": seed, "checkpoint": checkpoint}

    def sizes(self, state):
        config = state["config"]
        corpus = load_corpus(config.corpus_paths["test"])
        return {"mentions": len(corpus.mentions),
                "pairs": len(training.candidate_pairs(corpus)),
                "d": config.embedder.d, "d_a": config.train.d_a,
                "h": config.train.hidden, "mode": config.train.mode,
                "tau": self.tau}

    def operate(self, state, outdir, tracer):
        config = replace(state["config"], out_dir=outdir)
        start = time.perf_counter()
        with quiet():
            pipeline.cmd_predict(config, state["checkpoint"], "test",
                                 self.tau)
        command_s = time.perf_counter() - start
        assignment = read_assignment(
            os.path.join(outdir, "clustering_test.jsonl"))
        with open(os.path.join(outdir, "report_test.json"),
                  encoding="utf-8") as fh:
            conll = json.load(fh)["conll_f1"]
        return {"command_s": command_s, "assignment": assignment,
                "outcome": {"clustering_sha256": digest(assignment),
                            "clusters": len(set(assignment.values())),
                            "conll_f1": conll}}

    def check(self, state, result):
        return partition_failures(
            result["assignment"],
            load_corpus(state["config"].corpus_paths["test"]).mentions)

    def verify(self, state):
        """Rescore sampled pairs one at a time, through the single-instance
        path, and compare with the batched kernel's probabilities."""
        config = state["config"]
        corpus = load_corpus(config.corpus_paths["test"])
        params = scorer.load_checkpoint(state["checkpoint"])
        provider = pipeline.build_provider(config, "test",
                                           default_strict=False)
        gen = config.commonsense.generation
        data = training.build_dataset(corpus, config.embedder,
                                      params.dims.mode,
                                      inference_source=provider,
                                      gen_config=gen)
        rng = np.random.default_rng([state["seed"], 7])
        sel = np.sort(rng.choice(data.n_pairs, size=RESCORE_SAMPLE,
                                 replace=False))
        batched, _ = scorer.forward_batch(params, data, sel)
        embedder = make_embedder(config.embedder)

        def rep(matrices, sentence_index, start, end):
            return span_representation(matrices, sentence_index, start, end,
                                       params.w_alpha,
                                       params.width_table).full

        def ctx_and_cs(mention_id):
            m = corpus.mentions[mention_id]
            ctx = rep(embedder.embed_document(corpus.documents[m.doc_id]),
                      m.sentence_index, m.token_start, m.token_end)
            inf = provider.generate(m, " ".join(corpus.sentence_of(m)), gen)
            reps = {}
            for rel in ("before", "after"):
                tokens = [s.split() for s in getattr(inf, rel)[:gen.k]]
                reps[rel] = [rep([embedder.embed_sentence(t)], 0, 0,
                                 len(t) - 1) for t in tokens if t]
            cs, _ = scorer.commonsense_vector(params.dims.mode, ctx,
                                              reps["before"], reps["after"],
                                              params)
            return ctx, cs

        failures = []
        for index, prob in zip(sel, batched):
            first, second = data.pair_names[index]
            ctx_i, cs_i = ctx_and_cs(first)
            ctx_j, cs_j = ctx_and_cs(second)
            feature = scorer.pair_features(ctx_i, ctx_j, cs_i, cs_j,
                                           params.dims.mode)
            single = scorer.score_pair(params, feature.g)
            if not abs(single - prob) <= RESCORE_RTOL * abs(prob):
                failures.append(f"pair {first},{second}: single-instance "
                                f"{single!r} vs batched {float(prob)!r}")
        return failures


class ClusterTune(Workload):
    """Threshold tuning and clustering over a benchmark-made score table."""

    name = "cluster_tune"

    def setup(self, workdir, seed):
        spec = SyntheticSpec(n_topics=1, clusters_per_topic=30,
                             mentions_per_cluster=8, hard_fraction=0.5,
                             distractor_rate=0.5, seed=505 + seed)
        corpus_path, _ = synth(spec, workdir, "tune")
        corpus = load_corpus(corpus_path)
        ids = sorted(corpus.mentions)
        pairs = list(itertools.combinations(ids, 2))
        labels = np.array([corpus.mentions[a].gold_cluster_id
                           == corpus.mentions[b].gold_cluster_id
                           for a, b in pairs], dtype=np.float64)
        rng = np.random.default_rng([seed, 11])
        scores = np.clip(0.25 + 0.5 * labels
                         + rng.normal(0.0, 0.25, size=len(pairs)), 0.0, 1.0)
        lookup = {pair: float(s) for pair, s in zip(pairs, scores)}
        return {"corpus": corpus, "ids": ids, "lookup": lookup,
                "seed": seed}

    def sizes(self, state):
        return {"mentions": len(state["ids"]),
                "pairs": len(state["lookup"]),
                "gold_clusters": len({m.gold_cluster_id for m in
                                      state["corpus"].mentions.values()}),
                "grid": len(training.DEFAULT_THRESHOLD_GRID)}

    def operate(self, state, outdir, tracer):
        corpus, lookup = state["corpus"], state["lookup"]
        start = time.perf_counter()
        tau = training.tune_threshold_from_scores(corpus, lookup)
        clustering = training.cluster_from_scores(corpus, lookup, tau)
        command_s = time.perf_counter() - start
        assignment = dict(clustering.assignment)
        conll = evaluate(corpus, clustering).conll_f1
        return {"command_s": command_s, "assignment": assignment,
                "outcome": {"tau": tau, "conll_f1": conll,
                            "clustering_sha256": digest(assignment)}}

    def check(self, state, result):
        failures = partition_failures(result["assignment"], state["ids"])
        if failures:
            return failures
        tau = result["outcome"]["tau"]
        if tau not in training.DEFAULT_THRESHOLD_GRID:
            failures.append(f"tuned tau {tau!r} is not on the grid")
        averages = merged_pair_averages(state["ids"], state["lookup"],
                                        result["assignment"])
        if averages.size > 1 and averages.max() >= tau:
            failures.append(f"two output clusters still average "
                            f"{float(averages.max())!r} >= tau {tau!r}")
        return failures


class CacheFill(Workload):
    """Cold ``cmd_gen_inferences`` into an empty cache, then a warm pass."""

    name = "cache_fill"

    def setup(self, workdir, seed):
        spec = SyntheticSpec(n_topics=15, clusters_per_topic=8,
                             mentions_per_cluster=8, hard_fraction=0.5,
                             distractor_rate=0.5, seed=606 + seed)
        paths = {"train": synth(spec, workdir, "train")}
        config = fixture_config(pipeline.preset("desk"), paths)
        config.commonsense.cache_path = os.path.join(workdir,
                                                     "cache.jsonl")
        return {"config": config, "seed": seed,
                "fixtures": paths["train"][1]}

    def sizes(self, state):
        corpus = load_corpus(state["config"].corpus_paths["train"])
        return {"mentions": len(corpus.mentions),
                "k": state["config"].commonsense.generation.k}

    def operate(self, state, outdir, tracer):
        config = state["config"]
        cache_path = config.commonsense.cache_path
        if os.path.exists(cache_path):
            os.unlink(cache_path)
        start = time.perf_counter()
        with quiet():
            pipeline.cmd_gen_inferences(config, "train")
        command_s = time.perf_counter() - start
        cold_bytes = file_digest(cache_path)
        calls = self._warm_pass(config, tracer)
        with open(cache_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        records.sort(key=lambda r: r["mention_id"])
        return {"command_s": command_s, "records": records,
                "warm_calls": calls,
                "warm_changed": file_digest(cache_path) != cold_bytes,
                "outcome": {"records": len(records),
                            "cache_sha256": digest(records)}}

    @staticmethod
    def _warm_pass(config, tracer) -> int:
        """Rerun the command on the full cache, counting provider calls."""
        counting = Tracer()
        counting.run_id = "warm"
        counting.wrap(commonsense.FixtureProvider, "generate", "provider",
                      after=lambda t, args, kwargs, result: t.count("calls"))
        span = (tracer.span("commonsense.warm_pass") if tracer is not None
                else contextlib.nullcontext())
        try:
            with span, quiet():
                pipeline.cmd_gen_inferences(config, "train")
        finally:
            counting.unwrap_all()
        return counting.counters.get(("warm", "calls"), 0)

    def check(self, state, result):
        with open(state["fixtures"], encoding="utf-8") as fh:
            fixtures = {r["mention_id"]: r for r in map(json.loads, fh)}
        records = result["records"]
        failures = []
        if [r["mention_id"] for r in records] != sorted(fixtures):
            failures.append("cache does not hold exactly one record per "
                            "mention")
        elif any(r != dict(fixtures[r["mention_id"]], provenance="fixture")
                 for r in records):
            failures.append("a cache record differs from its fixture")
        if result["warm_calls"]:
            failures.append(f"warm pass made {result['warm_calls']} "
                            f"provider calls")
        if result["warm_changed"]:
            failures.append("warm pass rewrote the cache")
        return failures


WORKLOADS = {w.name: w for w in (DeskTrain(), ServicePredict(),
                                 ClusterTune(), CacheFill())}
