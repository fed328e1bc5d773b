"""The benchmark's traced runs wrap program functions by name; every name
they wrap must still exist and be called where the program calls it, and
unwrapping must restore each original.

    python3 -m pytest tests/test_bench_wrapping.py
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layers_and_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("layers"),
            importlib.import_module("tracer").Tracer())


def test_layers_install_and_unwrap(monkeypatch):
    layers, tracer = _layers_and_tracer(monkeypatch)
    try:
        layers.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.unwrap_all()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr


def test_provider_calls_counted_per_mention(monkeypatch, tmp_path, capsys):
    """A cold fill counts one ``commonsense.provider_calls`` per mention
    and the warm pass none: the benchmark's warm-pass check counts calls
    the same way, by wrapping ``FixtureProvider.generate``."""
    from cscoref import pipeline
    from cscoref.synthgen import SyntheticSpec

    layers, tracer = _layers_and_tracer(monkeypatch)
    spec = SyntheticSpec(n_topics=2, clusters_per_topic=3,
                         mentions_per_cluster=3, seed=5)
    corpus_path = tmp_path / "corpus.jsonl"
    fixtures_path = tmp_path / "fixtures.jsonl"
    pipeline.cmd_synth(spec, corpus_path, fixtures_path)
    config = pipeline.preset("desk")
    config.corpus_paths = {"train": str(corpus_path)}
    config.commonsense = pipeline.CommonsenseConfig(
        provider="fixture", fixtures={"train": str(fixtures_path)},
        cache_path=str(tmp_path / "cache.jsonl"))
    mentions = len(pipeline.load_corpus(corpus_path).mentions)
    layers.install(tracer)
    try:
        for run in ("cold", "warm"):
            tracer.run_id = run
            pipeline.cmd_gen_inferences(config, "train")
    finally:
        tracer.unwrap_all()
    assert mentions > 0
    assert tracer.counters[("cold", "commonsense.provider_calls")] \
        == mentions
    assert ("warm", "commonsense.provider_calls") not in tracer.counters


def test_traced_build_reaches_fetch_and_embedder(monkeypatch):
    """A dataset build records a ``commonsense.get_inferences`` span and
    embeds tokens through the wrapped ``HashEmbedder.embed_sentence``; a
    wrapped name the program imports but no longer calls records
    nothing."""
    from cscoref import training
    from cscoref.embed import EmbedderConfig
    from cscoref.synthgen import (SyntheticProvider, SyntheticSpec,
                                  generate_synthetic)

    layers, tracer = _layers_and_tracer(monkeypatch)
    spec = SyntheticSpec(n_topics=1, clusters_per_topic=2,
                         mentions_per_cluster=2, seed=5)
    corpus = generate_synthetic(spec)[0]
    layers.install(tracer)
    try:
        training.build_dataset(corpus, EmbedderConfig(d=4), "intra",
                               inference_source=SyntheticProvider(spec))
    finally:
        tracer.unwrap_all()
    names = [span["name"] for span in tracer.spans]
    assert names.count("commonsense.get_inferences") >= 1
    assert tracer.counters[("setup", "embed.tokens")] > 0
