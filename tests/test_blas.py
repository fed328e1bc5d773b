"""Training, prediction and explanation set the BLAS thread count they run
at, so their bytes do not depend on ``OPENBLAS_NUM_THREADS``; the caller's
count is restored.

    python3 -m pytest tests/test_blas.py
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cscoref
from cscoref import blas, cli, pipeline
from cscoref.corpus import load_corpus
from cscoref.training import TrainConfig, gradcheck, make_random_dataset, \
    train

# the desk walkthrough's seed-0 checkpoint (train and dev splits, intra)
DESK_SEED0_CHECKPOINT = ("c08bc8b8cd27720459e031ec1a509bc2"
                         "17b8967252ae4c0a6410dd446fb1c9b7")

needs_control = pytest.mark.skipif(
    blas._controls() is None, reason="numpy's BLAS offers no thread control")


@needs_control
def test_train_and_gradcheck_run_at_one_thread_and_restore(monkeypatch):
    """Each BLAS call inside ``train`` and ``gradcheck`` sees one thread;
    the count the caller set holds again afterwards."""
    get, set_count = blas._controls()
    seen = []
    real = blas.threads

    def spy(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(blas, "threads", spy)
    before = get()
    set_count(2)
    try:
        config = TrainConfig(mode="intra", epochs=1, hidden=4, d_a=2,
                             batch_size=4)
        embedder = pipeline.EmbedderConfig(d=16, d_len=20)
        train(make_random_dataset(config.model_dims(embedder), 0), embedder,
              config)
        assert get() == 2
        gradcheck(seeds=(0,), hidden=4, n_pairs=2, training_mode_seeds=0)
        assert get() == 2
    finally:
        set_count(before)
    assert seen and set(seen) == {blas.TRAIN_THREADS}


@needs_control
def test_predict_and_explain_score_at_one_thread_and_restore(
        tmp_path, monkeypatch, capsys):
    """Scoring inside ``predict`` and the pair's forward pass inside
    ``explain`` see one BLAS thread; the caller's count holds again after
    each command."""
    from dataclasses import replace

    from cscoref.synthgen import SyntheticSpec

    get, set_count = blas._controls()
    spec = SyntheticSpec(n_topics=1, clusters_per_topic=2,
                         mentions_per_cluster=2, seed=5)
    corpus_path, fixtures_path = tmp_path / "c.jsonl", tmp_path / "f.jsonl"
    pipeline.cmd_synth(spec, corpus_path, fixtures_path)
    config = pipeline.preset("desk")
    for split in ("train", "test"):
        config.corpus_paths[split] = str(corpus_path)
        config.commonsense.fixtures[split] = str(fixtures_path)
    config.train = TrainConfig(mode="intra", epochs=1, hidden=4, d_a=2)
    config.seeds = (0,)
    config.out_dir = str(tmp_path / "train")
    pipeline.cmd_train(config)
    checkpoint = tmp_path / "train" / "checkpoint_seed0.bin"
    seen = []
    for module, name in ((pipeline.training, "score_dataset"),
                         (pipeline, "forward_batch")):
        def spy(*args, _real=getattr(module, name), **kwargs):
            seen.append(get())
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    before = get()
    set_count(2)
    try:
        pipeline.cmd_predict(replace(config, out_dir=str(tmp_path / "p")),
                             checkpoint, "test", 0.5)
        assert get() == 2
        first, second = sorted(load_corpus(corpus_path).mentions)[:2]
        pipeline.cmd_explain(config, checkpoint, first, second)
        assert get() == 2
    finally:
        set_count(before)
    assert seen == [blas.TRAIN_THREADS] * 2


@needs_control
def test_threads_restores_on_error():
    get, _ = blas._controls()
    before = get()
    other = 2 if before == 1 else 1
    with pytest.raises(KeyError):
        with blas.threads(other):
            assert get() == other
            raise KeyError("inside")
    assert get() == before


def test_no_control_is_a_no_op_with_one_warning(monkeypatch):
    monkeypatch.setattr(blas, "LIBRARY_GLOB", "/nonexistent/libblas-*.so")
    blas._controls.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                with blas.threads(1):
                    pass
            info = blas.describe()
        assert [str(w.message) for w in caught] == [
            "cannot set the BLAS thread count of this numpy build; trained "
            "bytes follow its own setting"]
        assert info["train_threads"] is None
    finally:
        blas._controls.cache_clear()


def desk_walkthrough(tmp_path) -> Path:
    """The desk walkthrough's splits and its INI (seed 0, intra)."""
    ini = ["[run]", "preset = desk", "seeds = 0", "[train]", "mode = intra"]
    corpus, fixtures = ["[corpus]"], ["[commonsense]", "provider = fixture"]
    for split in pipeline.SPLITS:
        corpus_path = tmp_path / f"{split}.jsonl"
        fixtures_path = tmp_path / f"{split}.fixtures.jsonl"
        pipeline.cmd_synth(pipeline.DESK_SPLIT_SPECS[split], corpus_path,
                           fixtures_path)
        corpus.append(f"{split} = {corpus_path}")
        fixtures.append(f"fixtures_{split} = {fixtures_path}")
    path = tmp_path / "run.ini"
    path.write_text("\n".join(ini + corpus + fixtures) + "\n",
                    encoding="utf-8")
    return path


def run_cli(argv, threads):
    """``cscoref argv`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS``
    unset (None) or set to ``threads``."""
    src = str(Path(cscoref.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    subprocess.run([sys.executable, "-m", "cscoref.cli", *map(str, argv)],
                   env=env, check=True, capture_output=True)


@pytest.mark.slow
def test_desk_checkpoint_bytes_ignore_the_environment(tmp_path):
    """``cscoref train`` on the desk walkthrough's splits writes the pinned
    checkpoint with ``OPENBLAS_NUM_THREADS`` unset, 1 and 2, and its
    manifest names the BLAS and the thread count training used."""
    ini = desk_walkthrough(tmp_path)
    for threads in (None, "1", "2"):
        out = tmp_path / f"run_{threads}"
        run_cli(["train", "--config", ini, "--out", out], threads)
        digest = hashlib.sha256(
            (out / "checkpoint_seed0.bin").read_bytes()).hexdigest()
        assert digest == DESK_SEED0_CHECKPOINT, threads
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["blas"] == blas.describe()


@pytest.mark.slow
def test_desk_predict_and_explain_ignore_the_environment(tmp_path, capsys):
    """``cscoref predict`` and ``explain`` with the walkthrough's seed-0
    checkpoint write the same bytes with ``OPENBLAS_NUM_THREADS`` unset, 1
    and 2, and predict's manifest names the BLAS and its thread count."""
    ini = desk_walkthrough(tmp_path)
    train_out = tmp_path / "train"
    assert cli.main(["train", "--config", str(ini), "--out",
                     str(train_out)]) == 0
    checkpoint = train_out / "checkpoint_seed0.bin"
    pair = ",".join(sorted(load_corpus(tmp_path / "test.jsonl").mentions)[:2])
    outputs = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"predict_{threads}"
        run_cli(["predict", "--config", ini, "--out", out, "--checkpoint",
                 checkpoint, "--tau", "0.5"], threads)
        trace = tmp_path / f"trace_{threads}.txt"
        run_cli(["explain", "--config", ini, "--checkpoint", checkpoint,
                 "--pair", pair, "--trace-out", trace], threads)
        outputs.append([(out / name).read_bytes() for name in
                        ("clustering_test.jsonl", "report_test.json")]
                       + [trace.read_bytes()])
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["blas"] == blas.describe()
    assert outputs[0] == outputs[1] == outputs[2]
