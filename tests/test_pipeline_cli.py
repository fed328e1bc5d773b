import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from cscoref import cli, cluster, pipeline, training
from cscoref.cluster import read_clustering, write_clustering
from cscoref.corpus import Clustering, load_corpus
from cscoref.commonsense import FixtureProvider, GenerationConfig
from cscoref.metrics import EvalOptions
from cscoref.pipeline import (ConfigError, load_run_config, mean_std,
                              preset)
from cscoref.synthgen import (SyntheticProvider, SyntheticSpec,
                              generate_synthetic)


def synth_args(tmp_path, seed=3, **kwargs):
    args = ["synth", "--topics", "2", "--clusters-per-topic", "2",
            "--mentions-per-cluster", "2", "--seed", str(seed),
            "--corpus-out", str(tmp_path / "corpus.jsonl"),
            "--fixtures-out", str(tmp_path / "fixtures.jsonl")]
    for key, value in kwargs.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestSynthCommand:
    def test_creates_files_exit_zero(self, tmp_path, capsys):
        assert cli.main(synth_args(tmp_path)) == 0
        assert (tmp_path / "corpus.jsonl").exists()
        assert (tmp_path / "fixtures.jsonl").exists()
        out = capsys.readouterr().out
        assert "8 mentions" in out and "4 gold clusters" in out
        corpus = load_corpus(tmp_path / "corpus.jsonl")
        assert len(corpus.mentions) == 8

    def test_invalid_spec_exit_two_no_files(self, tmp_path):
        args = synth_args(tmp_path)
        args[args.index("--clusters-per-topic") + 1] = "0"
        assert cli.main(args) == 2
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_output_under_a_regular_file_exits_three(self, tmp_path,
                                                     capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        args = synth_args(tmp_path)
        args[args.index("--corpus-out") + 1] = str(blocker / "c.jsonl")
        assert cli.main(args) == pipeline.EXIT_RUNTIME == 3
        assert capsys.readouterr().err == (
            f"error: FileExistsError: [Errno 17] File exists: "
            f"'{blocker}'\n")

    def test_rerun_identical_files(self, tmp_path):
        assert cli.main(synth_args(tmp_path)) == 0
        first = (tmp_path / "corpus.jsonl").read_bytes()
        first_fx = (tmp_path / "fixtures.jsonl").read_bytes()
        assert cli.main(synth_args(tmp_path)) == 0
        assert (tmp_path / "corpus.jsonl").read_bytes() == first
        assert (tmp_path / "fixtures.jsonl").read_bytes() == first_fx


class TestMeanStd:
    def test_spec_example(self):
        mean, std = mean_std([0.61, 0.62, 0.63])
        assert mean == pytest.approx(0.62)
        assert std == pytest.approx(0.01)

    def test_single_value(self):
        assert mean_std([0.5]) == (0.5, 0.0)


class TestConfig:
    def test_presets(self):
        desk = preset("desk")
        assert desk.embedder.provider == "hash"
        assert desk.embedder.d == 16
        assert desk.train.d_a == 8
        service = preset("service")
        assert service.embedder.d == 1024
        assert service.train.d_a == 512
        assert service.train.learning_rate == 1e-4
        with pytest.raises(ConfigError):
            preset("galactic")

    def test_ini_roundtrip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("""
[run]
preset = desk
out = runs/demo
seeds = 3,5

[corpus]
train = data/train.jsonl
dev = data/dev.jsonl

[embedder]
d = 8
d_len = 4
max_width_bucket = 4

[commonsense]
provider = synthetic
synthetic_seed = 17
synthetic_n_topics = 2
synthetic_clusters_per_topic = 2
synthetic_mentions_per_cluster = 2
k = 3

[train]
mode = inter
epochs = 4
hidden = 32
d_a = 4

[cluster]
threshold = 0.45
scope = topic

[eval]
drop_singletons = false
unit = subtopic
""", encoding="utf-8")
        config = load_run_config(ini)
        assert config.out_dir == "runs/demo"
        assert config.seeds == (3, 5)
        assert config.corpus_paths == {"train": "data/train.jsonl",
                                       "dev": "data/dev.jsonl"}
        assert config.embedder.d == 8
        assert config.commonsense.provider == "synthetic"
        assert config.commonsense.synthetic_spec.seed == 17
        assert config.commonsense.generation.k == 3
        assert config.train.mode == "inter"
        assert config.train.epochs == 4
        assert config.threshold == 0.45
        assert config.cluster_scope == "topic"
        assert config.eval_options == EvalOptions(drop_singletons=False,
                                                  unit="subtopic")

    def test_one_synthetic_key_builds_the_spec(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[commonsense]\nsynthetic_n_topics = 2\n",
                       encoding="utf-8")
        spec = load_run_config(ini).commonsense.synthetic_spec
        assert spec == SyntheticSpec(n_topics=2)
        assert spec.seed == 0

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in pipeline.CONFIG_KEYS.items()
        for key in keys])
    def test_none_loads_or_names_the_key(self, tmp_path, section, key):
        """``none`` loads only where it means something (no early stopping,
        a tuned threshold, no endpoint or file, or a value left unset);
        any other key rejects it as the config loads, naming the key,
        instead of handing None to a check that compares it."""
        takes_none = {
            ("train", "patience"), ("cluster", "threshold"),
            ("embedder", "endpoint"), ("commonsense", "endpoint"),
            ("commonsense", "exemplars"), ("commonsense", "cache"),
            ("run", "seeds"), ("corpus", "train"), ("corpus", "dev"),
            ("corpus", "test"), ("commonsense", "fixtures"),
            ("commonsense", "fixtures_train"),
            ("commonsense", "fixtures_dev"),
            ("commonsense", "fixtures_test")}
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = none\n", encoding="utf-8")
        if (section, key) in takes_none:
            load_run_config(ini)
        else:
            with pytest.raises(ConfigError,
                               match=rf"^\[{section}\] {key} = 'none'"):
                load_run_config(ini)

    def test_readme_key_table_matches_config_keys(self):
        """README's key table lists, per section, exactly the keys that
        CONFIG_KEYS accepts, in the same order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md"
                  ).read_text("utf-8")
        rows = readme.split("| Section | Keys |\n|---|---|\n")[1]
        table = {}
        for row in rows.split("\n\n")[0].splitlines():
            section, keys = row.strip("|").split("|")
            table[section.strip().strip("`[]")] = re.findall(r"`(\w+)`",
                                                            keys)
        assert table == {section: list(keys) for section, keys
                         in pipeline.CONFIG_KEYS.items()}
        assert list(table) == list(pipeline.CONFIG_KEYS)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_run_config("/nonexistent/run.ini")

    @pytest.mark.parametrize("section, key", [
        ("eval", "drop_singletons"), ("commonsense", "strict")])
    def test_non_boolean_word_rejected(self, tmp_path, section, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = ture\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = "):
            load_run_config(ini)

    @pytest.mark.parametrize("word, value", [
        ("off", False), ("0", False), ("No", False), ("on", True),
        ("1", True), (" YES ", True)])
    def test_boolean_words(self, tmp_path, word, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[eval]\ndrop_singletons = {word}\n",
                       encoding="utf-8")
        assert load_run_config(ini).eval_options.drop_singletons is value

    @pytest.mark.parametrize("text, named", [
        ("[train]\nlearning_rat = 0.5\n", r"\[train\] learning_rat"),
        ("[commonsense]\nfixture = f.jsonl\n", r"\[commonsense\] fixture"),
        ("[eval]\ntopic = false\n", r"\[eval\] topic"),
        ("[clusterr]\nthreshold = 0.7\n", r"\[clusterr\]"),
        ("[DEFAULT]\nseed = 3\n[train]\nepochs = 2\n", r"\[DEFAULT\] seed"),
        ("[train]\nepochs = 2\nepochs = 3\n", "'epochs'.*already exists"),
    ], ids=["train-key", "commonsense-key", "eval-key", "section",
            "default", "duplicate-key"])
    def test_unknown_key_or_section_rejected(self, tmp_path, text, named):
        ini = tmp_path / "run.ini"
        ini.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=named):
            load_run_config(ini)

    def test_every_key(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("""
[run]
preset = service
out = runs/every
seeds = 7, 9,11

[corpus]
train = a/train.jsonl
dev = a/dev.jsonl
test = a/test.jsonl

[embedder]
provider = hash
d = 12
seed = 4
endpoint = http://localhost:9/embed
d_len = 6
max_width_bucket = 5

[commonsense]
provider = synthetic
endpoint = http://localhost:9/gen
model_id = m7
exemplars = ex.jsonl
strict = false
cache = c.jsonl
fixtures = shared.jsonl
fixtures_train = ftrain.jsonl
fixtures_dev = fdev.jsonl
top_p = 0.5
max_tokens = 40
stop = STOP
k = 2
prompt_mode = fewshot
synthetic_n_topics = 3
synthetic_clusters_per_topic = 5
synthetic_mentions_per_cluster = 2
synthetic_hard_fraction = 0.25
synthetic_distractor_rate = 0.75
synthetic_seed = 23

[train]
learning_rate = 0.02
batch_size = 16
dropout = 0.1
epochs = 3
patience = none
mode = inter
d_a = 3
hidden = 24
pair_scope = topic

[cluster]
threshold = 0.35
scope = topic

[eval]
drop_singletons = off
unit = corpus
""", encoding="utf-8")
        expected = pipeline.RunConfig(
            corpus_paths={"train": "a/train.jsonl", "dev": "a/dev.jsonl",
                          "test": "a/test.jsonl"},
            embedder=pipeline.EmbedderConfig(
                provider="hash", d=12, seed=4,
                endpoint="http://localhost:9/embed", d_len=6,
                max_width_bucket=5),
            commonsense=pipeline.CommonsenseConfig(
                provider="synthetic",
                fixtures={"train": "ftrain.jsonl", "dev": "fdev.jsonl",
                          "test": "shared.jsonl"},
                synthetic_spec=SyntheticSpec(
                    n_topics=3, clusters_per_topic=5,
                    mentions_per_cluster=2, hard_fraction=0.25,
                    distractor_rate=0.75, seed=23),
                endpoint="http://localhost:9/gen", model_id="m7",
                exemplars_path="ex.jsonl", strict=False,
                cache_path="c.jsonl",
                generation=GenerationConfig(top_p=0.5, max_tokens=40,
                                            stop="STOP", k=2,
                                            mode="fewshot")),
            train=pipeline.TrainConfig(
                learning_rate=0.02, batch_size=16, dropout=0.1, epochs=3,
                patience=None, mode="inter", d_a=3, hidden=24,
                pair_scope="topic"),
            threshold=0.35, cluster_scope="topic",
            eval_options=EvalOptions(drop_singletons=False, unit="corpus"),
            out_dir="runs/every", seeds=(7, 9, 11))
        config = load_run_config(ini)
        for name in asdict(expected):
            assert getattr(config, name) == getattr(expected, name), name
        assert config == expected

    def test_fingerprint_stable(self):
        assert preset("desk").fingerprint() == preset("desk").fingerprint()
        assert preset("desk").fingerprint() != preset("service").fingerprint()

    def test_exemplars_file(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        records = [{"context": f"The team won game {i} .", "event": "won",
                    "before": f"They practiced {i}.",
                    "after": f"They celebrated {i}."} for i in range(8)]
        path.write_text("\n".join(json.dumps(r) for r in records),
                        encoding="utf-8")
        exemplars = pipeline.load_exemplars(path)
        assert len(exemplars) == 8
        assert exemplars[0].event == "won"
        from cscoref.commonsense import format_prompt
        prompt = format_prompt("The team won again .", "won",
                               mode="fewshot", exemplars=exemplars)
        assert prompt.count("After:") == 8


def small_run_config(tmp_path, mode="intra", seeds=(0,)):
    Path(tmp_path).mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(n_topics=2, clusters_per_topic=2,
                         mentions_per_cluster=2, hard_fraction=0.5,
                         distractor_rate=0.0, seed=17)
    corpus, fixtures = generate_synthetic(spec)
    from cscoref.corpus import write_corpus
    from cscoref.synthgen import write_fixtures
    corpus_path = tmp_path / "corpus.jsonl"
    fixtures_path = tmp_path / "fixtures.jsonl"
    write_corpus(corpus, corpus_path)
    write_fixtures(corpus, fixtures, fixtures_path)

    config = preset("desk")
    config.embedder = pipeline.EmbedderConfig(
        provider="hash", d=8, d_len=4, max_width_bucket=4, seed=0)
    config.corpus_paths = {"train": str(corpus_path),
                           "dev": str(corpus_path),
                           "test": str(corpus_path)}
    config.commonsense = pipeline.CommonsenseConfig(
        provider="fixture",
        fixtures={"train": str(fixtures_path), "dev": str(fixtures_path),
                  "test": str(fixtures_path)})
    config.train = pipeline.TrainConfig(
        mode=mode, epochs=3, patience=None, seed=0, learning_rate=1e-3,
        hidden=16, d_a=2)
    config.seeds = tuple(seeds)
    config.out_dir = str(tmp_path / "run")
    return config, corpus


class TestTrainCommand:
    def test_checkpoints_and_summary(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path, seeds=(0, 1, 2))
        assert pipeline.cmd_train(config) == 0
        out = Path(config.out_dir)
        for seed in (0, 1, 2):
            assert (out / f"checkpoint_seed{seed}.bin").exists()
            assert (out / f"history_seed{seed}.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["dev_conll_f1"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert "+-" in capsys.readouterr().out

    def test_completed_run_dir_not_overwritten(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        assert pipeline.cmd_train(config) == 0
        with pytest.raises(ConfigError, match="completed"):
            pipeline.cmd_train(config)

    def test_tau_recorded_per_seed(self, tmp_path):
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        history = json.loads(
            (Path(config.out_dir) / "history_seed0.json").read_text())
        assert 0.0 <= history["tau"] <= 1.0
        assert "history" in history


def desk_cut_config(tmp_path, threshold=None):
    """The desk preset in intra mode, narrowed to hidden 64, batches of 16
    and 20 epochs at learning rate 1e-2 so that it learns in well under a
    second, seeds 0 and 1, on seeded 3-topic train and dev splits."""
    from cscoref.corpus import write_corpus
    from cscoref.synthgen import write_fixtures
    config = preset("desk")
    for split, seed in (("train", 41), ("dev", 42)):
        corpus, fixtures = generate_synthetic(SyntheticSpec(
            n_topics=3, clusters_per_topic=3, mentions_per_cluster=3,
            hard_fraction=0.5, seed=seed))
        corpus_path = tmp_path / f"{split}.jsonl"
        fixtures_path = tmp_path / f"{split}.fixtures.jsonl"
        write_corpus(corpus, corpus_path)
        write_fixtures(corpus, fixtures, fixtures_path)
        config.corpus_paths[split] = str(corpus_path)
        config.commonsense.fixtures[split] = str(fixtures_path)
    config.train = replace(config.train, mode="intra", epochs=20,
                           patience=None, hidden=64, batch_size=16,
                           learning_rate=1e-2)
    config.seeds = (0, 1)
    config.threshold = threshold
    config.out_dir = str(tmp_path / "run")
    return config


class TestTrainCut:
    """``cmd_train`` takes each seed's tau, dev clustering and report from
    one ``best_cut``: tuned over the grid, or at the fixed threshold."""

    # sha256 over both seeds' checkpoint and history and the summary, as
    # written when tuning and the final dev cut were separate passes
    PINNED = {None: "2826ae0e719d1de06b89de523f2edcf6"
                    "5520072df51239a143a836396a43a7eb",
              0.55: "ea08f5636728eb99416a36fe0dd83da2"
                    "faba782a3685da6b24e9bb668b1de3ea"}

    @pytest.mark.parametrize("threshold", [None, 0.55],
                             ids=["tuned", "fixed"])
    def test_outputs_pinned(self, tmp_path, capsys, threshold):
        config = desk_cut_config(tmp_path, threshold)
        pipeline.cmd_train(config)
        out = Path(config.out_dir)
        digest = hashlib.sha256()
        for name in ("checkpoint_seed0.bin", "history_seed0.json",
                     "checkpoint_seed1.bin", "history_seed1.json",
                     "summary.json"):
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == self.PINNED[threshold]

    @pytest.mark.parametrize("threshold", [None, 0.55],
                             ids=["tuned", "fixed"])
    def test_one_merge_sequence_per_dev_unit(self, tmp_path, capsys,
                                             monkeypatch, threshold):
        calls = []
        for module in (training, cluster):  # tuning's binding, and the one
            original = module.merge_sequence  # agglomerative_cluster reads

            def counted(ids, scores, original=original):
                calls.append(len(ids))
                return original(ids, scores)
            monkeypatch.setattr(module, "merge_sequence", counted)
        config = desk_cut_config(tmp_path, threshold)
        pipeline.cmd_train(config)
        units = load_corpus(config.corpus_paths["dev"]).units(
            config.cluster_scope)
        assert len(calls) == len(config.seeds) * len(units)


class TestPredictAndScore:
    def test_predict_writes_clustering_and_report(self, tmp_path, capsys):
        config, corpus = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        ckpt = Path(config.out_dir) / "checkpoint_seed0.bin"
        config2, _ = small_run_config(tmp_path / "p")
        config2.out_dir = str(tmp_path / "pred")
        assert pipeline.cmd_predict(config2, ckpt, split="test",
                                    tau=0.5) == 0
        out = Path(config2.out_dir)
        clustering, meta = read_clustering(out / "clustering_test.jsonl")
        assert meta["tau"] == 0.5
        assert meta["linkage"] == "average"
        assert clustering.mentions == set(corpus.mentions)
        report = json.loads((out / "report_test.json").read_text())
        assert "conll_f1" in report

    def test_gold_as_system_scores_one(self, tmp_path, capsys):
        config, corpus = small_run_config(tmp_path)
        gold_path = tmp_path / "gold_clustering.jsonl"
        write_clustering(corpus.gold_clustering(), gold_path,
                         metadata={"tau": 1.0})
        config.out_dir = str(tmp_path / "scored")
        assert pipeline.cmd_score(config, gold_path, split="test") == 0
        report = json.loads(
            (Path(config.out_dir) / "report_test.json").read_text())
        assert report["conll_f1"] == pytest.approx(1.0)

    def test_all_singleton_system_muc_zero(self, tmp_path):
        config, corpus = small_run_config(tmp_path)
        singleton = Clustering({m: f"s_{m}" for m in corpus.mentions})
        path = tmp_path / "singletons.jsonl"
        write_clustering(singleton, path, metadata={})
        config.out_dir = str(tmp_path / "scored2")
        pipeline.cmd_score(config, path, split="test")
        report = json.loads(
            (Path(config.out_dir) / "report_test.json").read_text())
        assert report["aggregate"]["muc"]["f1"] == 0.0

    def test_header_mismatch_rejected(self, tmp_path):
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        ckpt = Path(config.out_dir) / "checkpoint_seed0.bin"
        config2, _ = small_run_config(tmp_path / "q")
        config2.train = pipeline.TrainConfig(mode="intra", hidden=99, d_a=2)
        config2.out_dir = str(tmp_path / "pred2")
        with pytest.raises(ConfigError, match="match"):
            pipeline.cmd_predict(config2, ckpt, split="test", tau=0.5)

    def test_missing_fixture_strict_in_train_lenient_in_predict(
            self, tmp_path):
        from cscoref.commonsense import InferenceError

        config, corpus = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        ckpt = Path(config.out_dir) / "checkpoint_seed0.bin"
        # fixtures covering all but one mention
        partial = tmp_path / "partial.jsonl"
        skipped = sorted(corpus.mentions)[0]
        with open(config.commonsense.fixtures["test"]) as src, \
                open(partial, "w") as dst:
            for line in src:
                if f'"{skipped}"' not in line:
                    dst.write(line)
        config.commonsense.fixtures = {s: str(partial)
                                       for s in ("train", "dev", "test")}
        config.out_dir = str(tmp_path / "lenient_pred")
        with pytest.warns(UserWarning, match=skipped):
            assert pipeline.cmd_predict(config, ckpt, split="test",
                                        tau=0.5) == 0
        config.out_dir = str(tmp_path / "strict_train")
        with pytest.raises(InferenceError, match=skipped):
            pipeline.cmd_train(config)

    def test_empty_seed_list_rejected(self, tmp_path):
        config, _ = small_run_config(tmp_path)
        config.seeds = ()
        with pytest.raises(ConfigError, match="seed"):
            pipeline.cmd_train(config)

    def test_missing_corpus_path_rejected(self, tmp_path):
        config, _ = small_run_config(tmp_path)
        config.corpus_paths["train"] = str(tmp_path / "absent.jsonl")
        with pytest.raises(ConfigError, match="does not exist"):
            pipeline.cmd_train(config)


class TestExplainCommand:
    def test_trace_sorted_and_complete(self, tmp_path, capsys):
        config, corpus = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        ckpt = Path(config.out_dir) / "checkpoint_seed0.bin"
        ids = sorted(corpus.mentions)
        trace_path = tmp_path / "trace.txt"
        code = pipeline.cmd_explain(config, ckpt, ids[0], ids[1],
                                    split="test", out_path=trace_path)
        assert code == 0
        text = trace_path.read_text("utf-8")
        assert "probability:" in text
        assert "gold_label:" in text
        from cscoref.scorer import load_checkpoint
        params = load_checkpoint(ckpt)
        trace = pipeline.explain_pair(params, corpus, config, ids[0],
                                      ids[1], split="test")
        for items in trace.relations.values():
            weights = [w for _, w in items]
            assert weights == sorted(weights, reverse=True)
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_single_inference_weight_one(self, tmp_path):
        config, corpus = small_run_config(tmp_path)
        # fixture with exactly one inference per relation
        fixtures_path = tmp_path / "single.jsonl"
        with open(fixtures_path, "w", encoding="utf-8") as fh:
            for m in corpus.mentions.values():
                fh.write(json.dumps({
                    "doc_id": m.doc_id, "mention_id": m.mention_id,
                    "before": ["Something happened first."],
                    "after": ["Something happened later."],
                    "provenance": "fixture"}) + "\n")
        config.commonsense.fixtures = {s: str(fixtures_path)
                                       for s in ("train", "dev", "test")}
        from cscoref.scorer import init_parameters
        from cscoref.scorer import save_checkpoint
        dims = config.train.model_dims(config.embedder)
        params = init_parameters(dims, 0)
        ckpt = tmp_path / "init.bin"
        save_checkpoint(params, ckpt)
        ids = sorted(corpus.mentions)
        trace = pipeline.explain_pair(params, corpus, config, ids[0],
                                      ids[1], split="test")
        for items in trace.relations.values():
            assert len(items) == 1
            assert items[0][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["intra", "inter"])
    def test_matches_predict_with_cache_filled_at_larger_k(self, tmp_path,
                                                           mode):
        from dataclasses import replace

        import numpy as np

        from cscoref.commonsense import InferenceCache
        from cscoref.scorer import forward_batch, init_parameters
        from cscoref.training import build_dataset

        config, corpus = small_run_config(tmp_path, mode=mode)
        config.commonsense.cache_path = str(tmp_path / "cache.jsonl")
        assert config.commonsense.generation.k == 5
        assert pipeline.cmd_gen_inferences(config, "test") == 0
        config.commonsense.generation = replace(
            config.commonsense.generation, k=2)
        params = init_parameters(config.train.model_dims(config.embedder), 0)
        # at init scale the attention weights are uniform
        for name in ("W_q_before", "W_k_before", "W_q_after", "W_k_after"):
            getattr(params, name)[...] *= 50
        first, second = "t00_c0_m0", "t00_c1_m0"
        trace = pipeline.explain_pair(params, corpus, config, first, second,
                                      split="test")

        with open(config.commonsense.fixtures["test"],
                  encoding="utf-8") as fh:
            fixtures = {rec["mention_id"]: rec
                        for rec in map(json.loads, fh)}
        routed = ({first: first, second: second} if mode == "intra"
                  else {first: second, second: first})
        assert len(trace.relations) == 4
        for (mention_id, rel), items in trace.relations.items():
            assert (sorted(sentence for sentence, _ in items)
                    == sorted(fixtures[routed[mention_id]][rel][:2]))

        data = build_dataset(
            corpus, config.embedder, mode,
            inference_source=pipeline.build_provider(
                config, "test", default_strict=False),
            gen_config=config.commonsense.generation,
            cache=InferenceCache(config.commonsense.cache_path))
        row = data.mention_ids.index
        index = np.flatnonzero((data.pair_i == row(trace.first))
                               & (data.pair_j == row(trace.second)))
        assert len(index) == 1
        probs, _ = forward_batch(params, data, index)
        assert trace.probability == pytest.approx(float(probs[0]),
                                                  rel=1e-12)

    @pytest.mark.parametrize("mode", ["intra", "inter"])
    def test_first_mention_on_higher_row(self, tmp_path, mode):
        """Each mention's trace is its own routed set, whichever row order
        the attention rows are stored in."""
        import numpy as np

        from cscoref.scorer import (attend, forward_batch, init_parameters,
                                    span_reps_forward)

        config, corpus = small_run_config(tmp_path, mode=mode)
        params = init_parameters(config.train.model_dims(config.embedder), 0)
        for name in ("W_q_before", "W_k_before", "W_q_after", "W_k_after"):
            getattr(params, name)[...] *= 50
        data = pipeline._dataset_for(config, corpus, "test", mode,
                                     default_strict=False)
        index = data.n_pairs - 1
        assert data.pair_j[index] > data.pair_i[index]
        low, high = (data.mention_ids[rows[index]]
                     for rows in (data.pair_i, data.pair_j))
        row = data.mention_ids.index
        trace = pipeline.explain_pair(params, corpus, config, high, low,
                                      split="test")

        probs, _ = forward_batch(params, data, np.array([index]))
        assert trace.probability == pytest.approx(float(probs[0]), rel=1e-12)
        span_reps, _ = span_reps_forward(data.span_tensors, params.w_alpha,
                                         params.width_table)
        sent_reps, _ = span_reps_forward(data.sent_tensors, params.w_alpha,
                                         params.width_table)
        routed = ({low: low, high: high} if mode == "intra"
                  else {low: high, high: low})
        assert len(trace.relations) == 4
        for (mention_id, rel), items in trace.relations.items():
            rows = getattr(data, f"{rel}_idx")[row(routed[mention_id])]
            rows = rows[rows >= 0]
            expected = attend(span_reps[row(mention_id)],
                              sent_reps[rows],
                              getattr(params, f"W_q_{rel}"),
                              getattr(params, f"W_k_{rel}")).weights
            assert [s for s, _ in sorted(items)] == sorted(
                data.sentences[i] for i in rows)
            weights = dict(zip((data.sentences[i] for i in rows), expected))
            for sentence, weight in items:
                assert weight == pytest.approx(weights[sentence], rel=1e-9)

    def test_dims_mismatch_rejected(self, tmp_path):
        from cscoref.scorer import init_parameters, save_checkpoint

        config, corpus = small_run_config(tmp_path)
        ckpt = tmp_path / "init.bin"
        save_checkpoint(init_parameters(
            config.train.model_dims(config.embedder), 0), ckpt)
        config.train = pipeline.TrainConfig(mode="intra", hidden=99, d_a=3)
        ids = sorted(corpus.mentions)
        with pytest.raises(ConfigError, match="match"):
            pipeline.cmd_explain(config, ckpt, ids[0], ids[1], split="test")

    def test_unknown_mention_rejected(self, tmp_path):
        config, corpus = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        ckpt = Path(config.out_dir) / "checkpoint_seed0.bin"
        config.out_dir = str(tmp_path / "explained")
        with pytest.raises(KeyError, match="zzz"):
            pipeline.cmd_explain(config, ckpt, "zzz", "t00_c0_m0",
                                 split="test")


class TestGradcheckCommand:
    SMALL = dict(d=4, d_len=3, d_a=2, hidden=6, n_pairs=4,
                 training_mode_seeds=0)

    def test_exit_zero_on_pass(self, capsys):
        assert pipeline.cmd_gradcheck(mode="intra", seeds=(0,),
                                      **self.SMALL) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_exit_one_on_corrupted_gradient(self, capsys):
        code = pipeline.cmd_gradcheck(mode="intra", seeds=(0,),
                                      _corrupt_block="W1", **self.SMALL)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fixed_seed_identical_report(self, capsys):
        pipeline.cmd_gradcheck(mode="baseline", seeds=(1,), **self.SMALL)
        first = capsys.readouterr().out
        pipeline.cmd_gradcheck(mode="baseline", seeds=(1,), **self.SMALL)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("seeds", [",", " , "])
    def test_empty_seed_list_rejected(self, capsys, seeds):
        code = cli.main(["gradcheck", "--seed", seeds])
        captured = capsys.readouterr()
        assert code == pipeline.EXIT_USAGE
        assert "PASS" not in captured.out
        assert "--seed" in captured.err

    @pytest.mark.parametrize("seeds", ["0,0", "-2"])
    def test_negative_or_repeated_seed_rejected(self, capsys, seeds):
        code = cli.main(["gradcheck", f"--seed={seeds}"])
        captured = capsys.readouterr()
        assert code == pipeline.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(f"error: --seed = '{seeds}' ")


def cli_ini(tmp_path, config, out, extra=""):
    """An INI for ``config``'s corpus and fixtures; ``extra`` is appended
    to its last section, ``[train]``."""
    ini = tmp_path / "cli.ini"
    ini.write_text(f"""
[run]
out = {out}
seeds = 0

[corpus]
train = {config.corpus_paths['train']}
test = {config.corpus_paths['test']}

[embedder]
d = 8
d_len = 4
max_width_bucket = 4

[commonsense]
provider = fixture
fixtures = {config.commonsense.fixtures['test']}

[train]
epochs = 1
hidden = 16
d_a = 2
{extra}""", encoding="utf-8")
    return ini


class TestRuntimeFailures:
    @pytest.mark.parametrize("corruption", ["truncated", "header"])
    def test_corrupt_checkpoint_exits_three_run_failed(
            self, tmp_path, capsys, corruption):
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        blob = (Path(config.out_dir) / "checkpoint_seed0.bin").read_bytes()
        if corruption == "truncated":
            blob = blob[:len(blob) // 2]
        else:
            magic_end = blob.index(b"\n") + 1
            blob = blob[:magic_end] + b"{not json\n" + blob[magic_end:]
        ckpt = tmp_path / "corrupt.bin"
        ckpt.write_bytes(blob)
        out = tmp_path / "pred"
        capsys.readouterr()
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert code == pipeline.EXIT_RUNTIME == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ScorerError: ")
        assert err.count("\n") == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["type"] == "ScorerError"
        assert "checkpoint" in manifest["error"]["message"]

    @pytest.mark.parametrize("build_fails", [False, True])
    def test_checkpoint_truncated_in_w1_exits_three_run_failed(
            self, tmp_path, capsys, monkeypatch, build_fails):
        """A body cut short inside W1 is found when the checkpoint is
        opened, before the split is built: the same error as on one thread,
        also when the build would fail too, and no thread outlives the
        call."""
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        blob = (Path(config.out_dir) / "checkpoint_seed0.bin").read_bytes()
        w1_line = blob.index(b'{"name": "W1"')
        ckpt = tmp_path / "short.bin"
        ckpt.write_bytes(blob[:blob.index(b"\n", w1_line) + 1 + 8])
        if build_fails:
            def broken_build(*args, **kwargs):
                raise ConfigError("the build failed too")

            monkeypatch.setattr(pipeline, "build_dataset", broken_build)
        out = tmp_path / "pred"
        ini = cli_ini(tmp_path, config, out)
        capsys.readouterr()
        threads = threading.active_count()
        code = cli.main(["predict", "--config", str(ini),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert threading.active_count() == threads
        assert code == pipeline.EXIT_RUNTIME
        message = f"{ckpt}: checkpoint truncated in block W1"
        assert capsys.readouterr().err == f"error: ScorerError: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"type": "ScorerError",
                                     "message": message}

    def test_checkpoint_that_is_a_directory_exits_three_run_failed(
            self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.mkdir()
        out = tmp_path / "pred"
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert code == pipeline.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: ScorerError: {ckpt}: Is a directory\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"type": "ScorerError",
                                     "message": f"{ckpt}: Is a directory"}

    def test_header_size_the_model_cannot_take_exits_three(
            self, tmp_path, capsys, monkeypatch):
        """A negative size in the header is a corrupt checkpoint, found
        from the header before any build, with ``load_checkpoint``'s
        message: not a dims mismatch with the config."""
        from cscoref.scorer import ScorerError, load_checkpoint

        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        magic, header, body = (Path(config.out_dir) /
                               "checkpoint_seed0.bin").read_bytes().split(
                                   b"\n", 2)
        header = json.dumps(dict(json.loads(header), h=-5)).encode()
        ckpt = tmp_path / "negative.bin"
        ckpt.write_bytes(b"\n".join([magic, header, body]))
        with pytest.raises(ScorerError) as loaded:
            load_checkpoint(ckpt)
        message = str(loaded.value)
        assert message.startswith(f"{ckpt}:2: ")

        def no_build(*args, **kwargs):
            raise AssertionError("built a split for a corrupt checkpoint")

        monkeypatch.setattr(pipeline, "build_dataset", no_build)
        out = tmp_path / "pred"
        capsys.readouterr()
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert code == pipeline.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: ScorerError: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == {"type": "ScorerError",
                                     "message": message}

    def test_checkpoint_replaced_after_its_header_exits_three(
            self, tmp_path, capsys, monkeypatch):
        """The body is read after the header and block lines were checked;
        a file rewritten in place in between with an inter checkpoint of
        the same size is not scored."""
        self._assert_rewritten_after_open_exits_three(
            tmp_path, capsys, monkeypatch, dict(mode="inter"), True)

    def test_checkpoint_replaced_by_a_longer_one_exits_three(
            self, tmp_path, capsys, monkeypatch):
        """A file rewritten in place with a longer checkpoint after its
        header was checked is not scored either."""
        self._assert_rewritten_after_open_exits_three(
            tmp_path, capsys, monkeypatch, dict(h=32), False)

    @staticmethod
    def _assert_rewritten_after_open_exits_three(
            tmp_path, capsys, monkeypatch, change, same_size):
        """Rewrite the checkpoint with ``change`` right after it is opened.
        The new mtime is set, so the check does not depend on the clock's
        granularity."""
        from cscoref.scorer import (CheckpointReader, init_parameters,
                                    save_checkpoint)

        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(
            (Path(config.out_dir) / "checkpoint_seed0.bin").read_bytes())
        other = replace(config.train.model_dims(config.embedder), **change)

        def opened_then_rewritten(path):
            reader = CheckpointReader(path)
            opened = os.stat(path)
            save_checkpoint(init_parameters(other, 0), path)
            os.utime(path, ns=(opened.st_atime_ns,
                               opened.st_mtime_ns + 10**9))
            assert (os.stat(path).st_size == opened.st_size) == same_size
            return reader

        monkeypatch.setattr(pipeline, "CheckpointReader",
                            opened_then_rewritten)
        out = tmp_path / "pred"
        capsys.readouterr()
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert code == pipeline.EXIT_RUNTIME
        message = f"{ckpt}: checkpoint changed while it was read"
        assert capsys.readouterr().err == f"error: ScorerError: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert not list(out.glob("clustering_*.jsonl"))

    @pytest.mark.parametrize("block", ["W1", "b2"])
    def test_checkpoint_truncated_after_the_open_exits_three(
            self, tmp_path, capsys, monkeypatch, block):
        """A file cut short inside a block after its block lines were
        checked comes up short in a read of the body: the same message as
        when it was short at open, a failed run, and no thread outlives the
        call. Cut inside the last block, only the helper may see it."""
        from cscoref.scorer import CheckpointReader

        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        blob = (Path(config.out_dir) / "checkpoint_seed0.bin").read_bytes()
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(blob)
        line = blob.index(b'{"name": "%s"' % block.encode())

        def opened_then_truncated(path):
            reader = CheckpointReader(path)
            os.truncate(path, blob.index(b"\n", line) + 1 + 4)
            return reader

        monkeypatch.setattr(pipeline, "CheckpointReader",
                            opened_then_truncated)
        out = tmp_path / "pred"
        ini = cli_ini(tmp_path, config, out)
        capsys.readouterr()
        threads = threading.active_count()
        code = cli.main(["predict", "--config", str(ini),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert threading.active_count() == threads
        assert code == pipeline.EXIT_RUNTIME
        message = f"{ckpt}: checkpoint truncated in block {block}"
        assert capsys.readouterr().err == f"error: ScorerError: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"type": "ScorerError",
                                     "message": message}

    @pytest.mark.parametrize("line, wrong", [
        (b'{"name": "b1"', b'{"name": "W2"'),
        (b'{"name": "b1", "shape": [16]}', b'{"name": "b1", "shape": [4, 4]}'),
    ])
    def test_block_line_error_found_before_any_build(
            self, tmp_path, capsys, monkeypatch, line, wrong):
        """A block out of order or of the wrong shape exits 3 with the
        ``path:line`` message of a one-thread load, and no split is built:
        every block line is checked when the checkpoint is opened."""
        from cscoref.scorer import ScorerError, load_checkpoint

        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        blob = (Path(config.out_dir) / "checkpoint_seed0.bin").read_bytes()
        assert blob.count(line) == 1
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(blob.replace(line, wrong))
        with pytest.raises(ScorerError) as loaded:
            load_checkpoint(ckpt)
        message = str(loaded.value)
        assert message.startswith(f"{ckpt}:10: checkpoint block ")
        builds = []
        monkeypatch.setattr(pipeline, "build_dataset",
                            lambda *args, **kwargs: builds.append(args))
        out = tmp_path / "pred"
        capsys.readouterr()
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(ckpt), "--tau", "0.5"])
        assert code == pipeline.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: ScorerError: {message}\n"
        assert builds == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == {"type": "ScorerError",
                                     "message": message}

    def test_corpus_that_is_a_directory_exits_two_run_failed(
            self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        corpus = Path(config.corpus_paths["test"])
        corpus.unlink()
        corpus.mkdir()
        out = tmp_path / "pred"
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(tmp_path / "checkpoint.bin"),
                         "--tau", "0.5"])
        assert code == pipeline.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {corpus}: Is a directory\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["type"] == "CorpusFormatError"

    def test_non_finite_loss_exits_three_run_failed(
            self, tmp_path, capsys, monkeypatch):
        config, _ = small_run_config(tmp_path)

        def diverge(*args, **kwargs):
            raise FloatingPointError("non-finite training loss at epoch 0")

        monkeypatch.setattr(pipeline, "train", diverge)
        out = tmp_path / "train"
        code = cli.main(["train", "--config",
                         str(cli_ini(tmp_path, config, out))])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {
            "type": "FloatingPointError",
            "message": "non-finite training loss at epoch 0"}

    def test_config_error_inside_run_marks_failed(self, tmp_path, capsys,
                                                  monkeypatch):
        """A checkpoint whose dims differ from the config is found once
        the run directory is open, from its header and before the split is
        built: the run is marked failed."""
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)

        def no_build(*args, **kwargs):
            raise AssertionError("built a split for a mismatched checkpoint")

        monkeypatch.setattr(pipeline, "build_dataset", no_build)
        out = tmp_path / "pred"
        ini = cli_ini(tmp_path, config, out)
        ini.write_text(ini.read_text().replace("hidden = 16", "hidden = 32"))
        code = cli.main(["predict", "--config", str(ini), "--tau", "0.5",
                         "--checkpoint",
                         str(Path(config.out_dir) / "checkpoint_seed0.bin")])
        assert code == pipeline.EXIT_USAGE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["type"] == "ConfigError"
        assert "[train] hidden = 32 but the checkpoint's h = 16" \
            in manifest["error"]["message"]


class TestScopeChecks:
    @pytest.mark.parametrize("extra, named", [
        ("pair_scope = subtopic\n[cluster]\nscope = corpus\n",
         "[cluster] scope = 'corpus'"),
        ("[cluster]\nscope = Topic\n", "[cluster] scope = 'Topic'"),
        ("[eval]\nunit = subtopics\n", "unit"),
    ])
    def test_train_fails_before_training(self, tmp_path, capsys, extra,
                                         named):
        config, _ = small_run_config(tmp_path)
        out = tmp_path / "train"
        code = cli.main(["train", "--config",
                         str(cli_ini(tmp_path, config, out, extra))])
        assert code == pipeline.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not list(out.glob("checkpoint_seed*.bin"))

    def test_predict_fails_before_scoring(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        out = tmp_path / "pred"
        ini = cli_ini(tmp_path, config, out,
                      "pair_scope = subtopic\n[cluster]\nscope = topic\n")
        code = cli.main(["predict", "--config", str(ini), "--tau", "0.5",
                         "--checkpoint",
                         str(Path(config.out_dir) / "checkpoint_seed0.bin")])
        assert code == pipeline.EXIT_USAGE
        assert "broader than [train] pair_scope" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_key_exits_two_without_run_dir(tmp_path, capsys):
    config, _ = small_run_config(tmp_path)
    out = tmp_path / "train"
    ini = cli_ini(tmp_path, config, out, "learning_rat = 0.5\n")
    assert cli.main(["train", "--config", str(ini)]) == pipeline.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[train] learning_rat" in err
    assert not out.exists()


@pytest.mark.parametrize("extra, named", [
    ("[eval]\ntopic_level = false\n", "[eval] topic_level"),
    ("seed = 7\n", "[train] seed")], ids=["topic_level", "train-seed"])
def test_removed_key_exits_two_without_run_dir(tmp_path, capsys, extra,
                                               named):
    """``[eval] topic_level`` (now ``unit = corpus``) and ``[train] seed``
    (each ``[run] seeds`` entry sets it) are unknown keys."""
    config, _ = small_run_config(tmp_path)
    out = tmp_path / "train"
    ini = cli_ini(tmp_path, config, out, extra)
    assert cli.main(["train", "--config", str(ini)]) == pipeline.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown key {named}; known: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("epochs", "0"), ("epochs", "none"), ("batch_size", "0"),
    ("hidden", "0"), ("d_a", "0"), ("d_a", "-2"), ("learning_rate", "-1e-3"),
    ("learning_rate", "nan"), ("learning_rate", "inf"), ("dropout", "none"),
    ("mode", "intre"), ("patience", "0"), ("patience", "-3"),
    ("seed", "-1")])
def test_bad_train_value_exits_two_without_run_dir(tmp_path, capsys, key,
                                                   value):
    """A [train] value that would train nothing, or train on NaN, is
    rejected when the config loads: no run directory, no inference
    fetch, one error line naming the key."""
    config, _ = small_run_config(tmp_path)
    out = tmp_path / "train"
    ini = cli_ini(tmp_path, config, out)
    lines = [line for line in ini.read_text("utf-8").splitlines()
             if not line.startswith(f"{key} = ")]
    ini.write_text("\n".join(lines + [f"{key} = {value}", ""]), "utf-8")
    assert cli.main(["train", "--config", str(ini)]) == pipeline.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seeds, flag", [
    ("-1", False), ("0,0", False), ("1, 2,1", False), ("x", False),
    ("-1", True), ("3,3", True)])
def test_bad_seed_list_exits_two_without_run_dir(tmp_path, capsys, seeds,
                                                 flag):
    """A negative, repeated or non-integer seed is rejected as the config
    loads, naming the key or flag the list came from."""
    config, _ = small_run_config(tmp_path)
    out = tmp_path / "train"
    ini = cli_ini(tmp_path, config, out)
    if flag:
        argv, source = [f"--seed={seeds}"], "--seed"
    else:
        ini.write_text(ini.read_text("utf-8").replace(
            "seeds = 0\n", f"seeds = {seeds}\n"), "utf-8")
        argv, source = [], "[run] seeds"
    assert cli.main(["train", "--config", str(ini), *argv]) \
        == pipeline.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source} = ") and err.count("\n") == 1
    assert not out.exists()


class TestThresholdCheck:
    def test_train_rejects_before_training(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        out = tmp_path / "train"
        ini = cli_ini(tmp_path, config, out, "[cluster]\nthreshold = 1.5\n")
        code = cli.main(["train", "--config", str(ini)])
        assert code == pipeline.EXIT_USAGE
        assert "threshold 1.5 outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, tau", [
        ("[cluster]\nthreshold = -0.5\n", []),
        ("", ["--tau", "1.5"]), ("", ["--tau", "nan"])],
        ids=["config-below", "tau-above", "tau-nan"])
    def test_predict_rejects_before_scoring(self, tmp_path, capsys, extra,
                                            tau):
        config, _ = small_run_config(tmp_path)
        pipeline.cmd_train(config)
        out = tmp_path / "pred"
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out, extra)), *tau,
                         "--checkpoint",
                         str(Path(config.out_dir) / "checkpoint_seed0.bin")])
        assert code == pipeline.EXIT_USAGE
        assert "outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_without_threshold_rejects_before_work(self, tmp_path,
                                                           capsys):
        """No ``--tau`` and no ``[cluster] threshold``: a usage error before
        the run directory opens, so no checkpoint is read and no dataset
        built (with the service embedder, no request is sent)."""
        config, _ = small_run_config(tmp_path)
        out = tmp_path / "pred"
        code = cli.main(["predict", "--config",
                         str(cli_ini(tmp_path, config, out)),
                         "--checkpoint", str(tmp_path / "absent.bin")])
        assert code == pipeline.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: no threshold: pass --tau or set [cluster] threshold\n")
        assert not out.exists()


def gen_ini(tmp_path, config):
    ini = tmp_path / "run.ini"
    ini.write_text(f"""
[run]
out = {tmp_path / 'gen'}

[corpus]
train = {config.corpus_paths['train']}

[embedder]
d = 8
d_len = 4
max_width_bucket = 4

[commonsense]
provider = fixture
fixtures = {config.commonsense.fixtures['train']}
cache = {tmp_path / 'cache.jsonl'}
""", encoding="utf-8")
    return ini


class TestCliWiring:
    def test_gen_inferences(self, tmp_path, capsys):
        config, corpus = small_run_config(tmp_path)
        assert cli.main(["gen-inferences", "--config",
                         str(gen_ini(tmp_path, config)),
                         "--split", "train"]) == 0
        assert (tmp_path / "cache.jsonl").exists()
        assert "cached 8" in capsys.readouterr().out

    def test_corrupt_cache_line_exits_three(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        ini = gen_ini(tmp_path, config)
        assert cli.main(["gen-inferences", "--config", str(ini)]) == 0
        cache = tmp_path / "cache.jsonl"
        lines = cache.read_text("utf-8").split("\n")
        lines[2] = lines[2][:20]
        cache.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["gen-inferences", "--config", str(ini)])
        assert code == pipeline.EXIT_RUNTIME == 3
        err = capsys.readouterr().err
        assert err.startswith("error: InferenceError: ")
        assert f"{cache}:3: " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["cache.jsonl", "fixtures.jsonl"])
    def test_path_that_is_a_directory_exits_three(self, tmp_path, capsys,
                                                  name):
        config, _ = small_run_config(tmp_path)
        ini = gen_ini(tmp_path, config)
        path = tmp_path / name
        path.unlink(missing_ok=True)
        path.mkdir()
        code = cli.main(["gen-inferences", "--config", str(ini)])
        assert code == pipeline.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: InferenceError: {path}: Is a directory\n")

    def test_corpus_that_is_a_directory_exits_two(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        ini = gen_ini(tmp_path, config)
        corpus = Path(config.corpus_paths["train"])
        corpus.unlink()
        corpus.mkdir()
        code = cli.main(["gen-inferences", "--config", str(ini)])
        assert code == pipeline.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {corpus}: Is a directory\n")

    def test_corpus_not_utf8_named_with_line_exits_two(self, tmp_path,
                                                       capsys):
        config, _ = small_run_config(tmp_path)
        ini = gen_ini(tmp_path, config)
        corpus = Path(config.corpus_paths["train"])
        lines = corpus.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"', b'"\xff', 1)
        corpus.write_bytes(b"\n".join(lines))
        code = cli.main(["gen-inferences", "--config", str(ini)])
        assert code == pipeline.EXIT_USAGE == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}:2: not valid UTF-8\n")

    def test_cache_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        config, _ = small_run_config(tmp_path)
        ini = gen_ini(tmp_path, config)
        ini.write_text(ini.read_text("utf-8").replace(
            "cache.jsonl", "absent/cache.jsonl"), encoding="utf-8")
        code = cli.main(["gen-inferences", "--config", str(ini)])
        assert code == pipeline.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent" in err
        assert err.count("\n") == 1

    def test_empty_cache_or_exemplars_reads_as_unset(self, tmp_path,
                                                     capsys):
        """An empty ``cache =`` or ``exemplars =`` sets no file, as an
        empty corpus or fixture path does: ``gen-inferences`` asks for a
        cache, naming the key, instead of opening ''."""
        config, _ = small_run_config(tmp_path)
        ini = gen_ini(tmp_path, config)
        text = ini.read_text("utf-8")
        ini.write_text(text.replace(f"cache = {tmp_path / 'cache.jsonl'}",
                                    "cache =\nexemplars ="),
                       encoding="utf-8")
        commonsense = load_run_config(ini).commonsense
        assert (commonsense.cache_path, commonsense.exemplars_path) \
            == (None, None)
        code = cli.main(["gen-inferences", "--config", str(ini)])
        assert code == pipeline.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: gen-inferences requires a cache path: set "
            "[commonsense] cache\n")

    @pytest.mark.parametrize("command, args", [
        ("score", ["--clustering", "clustering.jsonl"]),
        ("explain", ["--checkpoint", "checkpoint.bin", "--pair", "a,b"]),
        ("gen-inferences", []),
    ])
    def test_missing_split_path_named(self, tmp_path, capsys, command,
                                      args):
        config, _ = small_run_config(tmp_path)
        ini = cli_ini(tmp_path, config, tmp_path / "out")
        code = cli.main([command, "--config", str(ini), "--split", "dev",
                         *args])
        assert code == pipeline.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: no corpus path configured for 'dev': set [corpus] dev\n")

    def test_unknown_mode_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(synth_args(tmp_path) + ["--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_console_script_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "cscoref.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        for command in ("synth", "gen-inferences", "train", "predict",
                        "score", "explain", "gradcheck"):
            assert command in result.stdout


# sha256 of the cache that ``cmd_gen_inferences`` writes for PIN_SPEC's
# mentions, computed at commit 68b2379 (chunks generated on the thread
# pool, one fixture set built per served mention). How the sets are built
# and on which thread may change; the bytes may not.
PIN_SPEC = SyntheticSpec(n_topics=3, clusters_per_topic=6,
                         mentions_per_cluster=6, hard_fraction=0.5,
                         distractor_rate=0.5, seed=29)
PINNED_CACHE_SHA256 = {
    "fixture": ("0bc2fe1825be902bc96e221ec9ed4b60"
                "337a4646a5313bf322a038646a1cafa8"),
    "synthetic": ("7c3a658e1430d3232ff5ed8446d33693"
                  "80a3f432cea86e60f88a4ac7448a2bc5"),
}


def pinned_fill_config(tmp_path, provider):
    corpus_path = tmp_path / "corpus.jsonl"
    fixtures_path = tmp_path / "fixtures.jsonl"
    pipeline.cmd_synth(PIN_SPEC, corpus_path, fixtures_path)
    config = preset("desk")
    config.corpus_paths = {"train": str(corpus_path)}
    config.commonsense = pipeline.CommonsenseConfig(
        provider=provider, fixtures={"train": str(fixtures_path)},
        synthetic_spec=PIN_SPEC, cache_path=str(tmp_path / "cache.jsonl"))
    return config


def cache_sha256(config):
    return hashlib.sha256(
        Path(config.commonsense.cache_path).read_bytes()).hexdigest()


class TestPinnedCacheBytes:
    @pytest.mark.parametrize("provider", ["fixture", "synthetic"])
    def test_cold_fill_bytes_then_warm_pass_calls_nothing(
            self, tmp_path, capsys, monkeypatch, provider):
        config = pinned_fill_config(tmp_path, provider)
        assert pipeline.cmd_gen_inferences(config, "train") == 0
        assert cache_sha256(config) == PINNED_CACHE_SHA256[provider]
        owner = {"fixture": FixtureProvider,
                 "synthetic": SyntheticProvider}[provider]
        calls = []
        generate = owner.generate

        def counted(self, *args, **kwargs):
            calls.append(args[0].mention_id)
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(owner, "generate", counted)
        assert pipeline.cmd_gen_inferences(config, "train") == 0
        assert calls == []
        assert cache_sha256(config) == PINNED_CACHE_SHA256[provider]

    @pytest.mark.parametrize("provider", ["fixture", "synthetic"])
    def test_train_writes_the_gen_inferences_bytes(self, tmp_path, capsys,
                                                   monkeypatch, provider):
        """A cache-backed ``train`` fetches as ``gen-inferences`` does: the
        same bytes, one ``put_many`` per chunk of misses (4 chunks of 27
        for PIN_SPEC's 108 mentions)."""
        config = pinned_fill_config(tmp_path, provider)
        config.train = pipeline.TrainConfig(epochs=1, patience=None,
                                            hidden=8, d_a=2)
        config.seeds = (0,)
        config.out_dir = str(tmp_path / "run")
        stores = []
        put_many = pipeline.InferenceCache.put_many

        def counted(self, items):
            stores.append(len(items))
            return put_many(self, items)

        monkeypatch.setattr(pipeline.InferenceCache, "put_many", counted)
        assert pipeline.cmd_train(config) == 0
        assert stores == [27] * 4
        assert cache_sha256(config) == PINNED_CACHE_SHA256[provider]

    @pytest.mark.parametrize("provider", ["fixture", "synthetic"])
    def test_local_providers_fill_without_threads(self, tmp_path, capsys,
                                                  monkeypatch, provider):
        def no_threads(*args, **kwargs):
            raise AssertionError("a local provider's fill started a thread")

        config = pinned_fill_config(tmp_path, provider)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            no_threads)
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        assert pipeline.cmd_gen_inferences(config, "train") == 0
        assert cache_sha256(config) == PINNED_CACHE_SHA256[provider]
