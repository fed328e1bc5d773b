"""Run orchestration: config files, presets, run directories, commands.

A run config is an INI file with sections [corpus], [embedder],
[commonsense], [train], [cluster], [eval], and [run], whose keys update a
named preset; ``CONFIG_KEYS`` lists every accepted key. Two presets cover
the common cases: "desk" (hash embeddings, d=16, synthetic-scale) and
"service" (contextual embedding service at d=1024).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__, blas, training
from .cluster import check_unit_interval, write_clustering
from .commonsense import (FixtureProvider, GenerationConfig,
                          GenerationServiceProvider, InferenceCache,
                          PromptExemplar, get_inferences)
from .corpus import (SCOPES, Corpus, CorpusFormatError, check_record,
                     json_lines, load_corpus, naming_os_errors,
                     write_corpus)
from .embed import EmbedderConfig
from .metrics import EvalOptions, EvalReport, GoldKey, evaluate
from .scorer import (CheckpointReader, ModelDims, ModelParameters,
                     forward_batch, load_checkpoint, save_checkpoint)
from .synthgen import SyntheticProvider, SyntheticSpec, generate_synthetic, \
    write_fixtures
from .training import (DEFAULT_THRESHOLD_GRID, TrainConfig, best_cut,
                       build_dataset, gradcheck, score_dataset,
                       scores_as_lookup, train)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


@dataclass
class CommonsenseConfig:
    provider: str = "fixture"  # fixture | synthetic | service
    fixtures: dict = field(default_factory=dict)  # split -> path
    synthetic_spec: Optional[SyntheticSpec] = None
    endpoint: Optional[str] = None
    model_id: str = "default"
    exemplars_path: Optional[str] = None
    # None: strict while training, lenient while predicting
    strict: Optional[bool] = None
    cache_path: Optional[str] = None
    generation: GenerationConfig = field(default_factory=GenerationConfig)


@dataclass
class RunConfig:
    corpus_paths: dict = field(default_factory=dict)  # train/dev/test
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    commonsense: CommonsenseConfig = field(default_factory=CommonsenseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    threshold: Optional[float] = None  # None: tune on dev
    cluster_scope: str = "subtopic"
    eval_options: EvalOptions = field(default_factory=EvalOptions)
    out_dir: str = "runs/out"
    seeds: tuple = (0, 1, 2)

    def fingerprint(self) -> str:
        """Digest of every setting except where the run writes and reads
        its files (out_dir, cache_path, exemplars_path)."""
        digest = asdict(self)
        del digest["out_dir"]
        del digest["commonsense"]["cache_path"]
        del digest["commonsense"]["exemplars_path"]
        blob = json.dumps(digest, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


DEFAULT_PRESET = "desk"


def preset(name: str) -> RunConfig:
    """Named profiles: "desk" for deterministic hash-embedding runs at small
    dimensions (with a learning rate and epoch budget calibrated for
    synthetic-corpus convergence), "service" for contextual-encoder runs at
    d=1024 with the standard hyperparameters."""
    if name == "desk":
        return RunConfig(
            embedder=EmbedderConfig(provider="hash", d=16, d_len=20,
                                    max_width_bucket=8),
            train=TrainConfig(learning_rate=1e-3, epochs=60, patience=12,
                              d_a=8, hidden=1024),
        )
    if name == "service":
        return RunConfig(
            embedder=EmbedderConfig(provider="service", d=1024,
                                    endpoint="http://localhost:8000/embed"),
            train=TrainConfig(d_a=512, hidden=1024),
        )
    raise ConfigError(f"unknown preset {name!r}")


DESK_SPLIT_SPECS = {
    "train": SyntheticSpec(n_topics=10, clusters_per_topic=4,
                           mentions_per_cluster=4, hard_fraction=0.5,
                           distractor_rate=0.5, seed=101),
    "dev": SyntheticSpec(n_topics=4, clusters_per_topic=4,
                         mentions_per_cluster=4, hard_fraction=0.5,
                         distractor_rate=0.5, seed=202),
    "test": SyntheticSpec(n_topics=6, clusters_per_topic=4,
                          mentions_per_cluster=4, hard_fraction=0.5,
                          distractor_rate=0.5, seed=303),
}


SPLITS = ("train", "dev", "test")


def parse_seeds(text: str, source: str) -> tuple:
    """The seeds of a comma-separated list such as ``0,1,2``: distinct
    non-negative integers, or a ConfigError naming ``source``, the key or
    flag the list came from."""
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"{source} = {text!r} is not a comma-separated "
                          f"list of integers") from None
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"{source} = {text!r} holds a negative seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{source} = {text!r} repeats a seed")
    return seeds


def _fields(prefix: str, *pairs) -> dict:
    return {key: (prefix + key, conv) for key, conv in pairs}


# The keys a run config accepts: {section: {key: (field, converter)}}. A
# field is a dotted path from RunConfig, e.g. "commonsense.generation.k".
CONFIG_KEYS = {
    "run": {"preset": ("preset", str), "out": ("out_dir", str),
            "seeds": ("seeds", str)},
    "corpus": _fields("corpus_paths.", *((split, str) for split in SPLITS)),
    "embedder": _fields("embedder.", ("provider", str), ("d", int),
                        ("seed", int), ("endpoint", str), ("d_len", int),
                        ("max_width_bucket", int)),
    "commonsense": {
        **_fields("commonsense.", ("provider", str), ("endpoint", str),
                  ("model_id", str), ("strict", bool)),
        "exemplars": ("commonsense.exemplars_path", str),
        "cache": ("commonsense.cache_path", str),
        # the shared file serves each split without a fixtures_<split> key
        "fixtures": ("commonsense.fixtures.*", str),
        **{f"fixtures_{split}": (f"commonsense.fixtures.{split}", str)
           for split in SPLITS},
        **_fields("commonsense.generation.", ("top_p", float),
                  ("max_tokens", int), ("stop", str), ("k", int)),
        "prompt_mode": ("commonsense.generation.mode", str),
        **{f"synthetic_{key}": (f"commonsense.synthetic_spec.{key}", conv)
           for key, conv in (("n_topics", int), ("clusters_per_topic", int),
                             ("mentions_per_cluster", int),
                             ("hard_fraction", float),
                             ("distractor_rate", float), ("seed", int))},
    },
    "train": _fields("train.", ("learning_rate", float), ("batch_size", int),
                     ("dropout", float), ("epochs", int), ("patience", int),
                     ("mode", str), ("d_a", int), ("hidden", int),
                     ("pair_scope", str)),
    "cluster": {"threshold": ("threshold", float),
                "scope": ("cluster_scope", str)},
    "eval": _fields("eval_options.", ("drop_singletons", bool),
                    ("unit", str)),
}


# The keys that read ``none`` as None: no early stopping, a tuned
# threshold, no endpoint, exemplars file or cache, or (the seed list and
# the corpus and fixture paths) the preset's value.
NONE_KEYS = frozenset({
    ("train", "patience"), ("cluster", "threshold"), ("embedder", "endpoint"),
    ("commonsense", "endpoint"), ("commonsense", "exemplars"),
    ("commonsense", "cache"), ("commonsense", "fixtures"), ("run", "seeds"),
    *(("corpus", split) for split in SPLITS),
    *(("commonsense", f"fixtures_{split}") for split in SPLITS)})


_TYPE_WORDS = {int: "an integer", float: "a number"}


def _convert(section: str, key: str, raw: str, conv):
    """A boolean takes only configparser's words; a key in NONE_KEYS reads
    ``none`` as None, and any other key rejects it. A value ``conv`` cannot
    convert is a ConfigError naming the key."""
    if conv is bool:
        word = raw.strip().lower()
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    if raw.strip().lower() == "none":
        if (section, key) not in NONE_KEYS:
            raise ConfigError(f"[{section}] {key} = {raw!r}: this key "
                              f"does not take none")
        return None
    try:
        return conv(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not "
                          f"{_TYPE_WORDS[conv]}") from None


def _read_values(path) -> dict:
    """{field: value} for every key the file sets; an unknown section or
    key, including any key under [DEFAULT], is a ConfigError, and so is a
    file that is not valid UTF-8 or cannot be read."""
    try:
        with naming_os_errors(path, ConfigError), open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    parser = configparser.ConfigParser()
    try:
        parser.read_string(data.decode("utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not valid UTF-8") from None
    except configparser.Error as exc:  # one line: it may quote the text
        raise ConfigError(f"{path}: {' '.join(exc.message.split())}") \
            from None
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] {', '.join(parser.defaults())}: "
                          f"[DEFAULT] keys would be set in every section")
    values = {}
    for section in parser.sections():
        accepted = CONFIG_KEYS.get(section)
        if accepted is None:
            raise ConfigError(f"unknown section [{section}]; known: "
                              f"{', '.join(CONFIG_KEYS)}")
        for key, raw in parser[section].items():
            if key not in accepted:
                raise ConfigError(f"unknown key [{section}] {key}; known: "
                                  f"{', '.join(accepted)}")
            field_path, conv = accepted[key]
            values[field_path] = _convert(section, key, raw, conv)
    return values


def _update(target, values: dict):
    """``target`` with each dotted field path in ``values`` set: a
    dataclass through ``dataclasses.replace``, a dict as a merged copy."""
    direct, nested = {}, {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        direct[head] = _update(getattr(target, head), sub)
    if isinstance(target, dict):
        return {**target, **direct}
    return replace(target, **direct)


def load_run_config(path) -> RunConfig:
    """The preset named by ``[run] preset`` (or the default), updated with
    the keys the file sets. Empty corpus, fixture, cache and exemplar
    paths and an empty seed list are not set; any ``synthetic_*`` key
    builds a SyntheticSpec, its other fields at their defaults. A value a
    settings class rejects is a ConfigError naming ``path``."""
    values = _read_values(path)
    config = preset(values.pop("preset", DEFAULT_PRESET))
    seeds = values.pop("seeds", None)
    if seeds:
        values["seeds"] = parse_seeds(seeds, "[run] seeds")
    shared = values.pop("commonsense.fixtures.*", None)
    for field_path in ("commonsense.cache_path", "commonsense.exemplars_path",
                       *(f"corpus_paths.{split}" for split in SPLITS),
                       *(f"commonsense.fixtures.{split}" for split in SPLITS)):
        if not values.get(field_path):
            values.pop(field_path, None)
    if shared:
        for split in SPLITS:
            values.setdefault(f"commonsense.fixtures.{split}", shared)
    prefix = "commonsense.synthetic_spec."
    synthetic = {key[len(prefix):]: values.pop(key)
                 for key in list(values) if key.startswith(prefix)}
    try:
        if synthetic:
            values["commonsense.synthetic_spec"] = SyntheticSpec(**synthetic)
        return _update(config, values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_EXEMPLAR_FIELDS = {"context": str, "event": str, "before": str,
                    "after": str}


def load_exemplars(path) -> list:
    """The few-shot exemplars of a JSON-lines file."""
    with naming_os_errors(path, CorpusFormatError), open(path, "rb") as fh:
        return [PromptExemplar(**check_record(
                    record, _EXEMPLAR_FIELDS, f"{path}:{lineno}",
                    "exemplar record", CorpusFormatError))
                for lineno, record in json_lines(fh, path,
                                                 CorpusFormatError)]


def build_provider(config: RunConfig, split: str,
                   default_strict: bool = True):
    cs = config.commonsense
    if cs.provider == "fixture":
        path = cs.fixtures.get(split)
        if path is None:
            raise ConfigError(f"no fixture path configured for {split!r}: "
                              f"set [commonsense] fixtures or "
                              f"fixtures_{split}")
        if not os.path.exists(path):
            raise ConfigError(f"[commonsense] fixtures or fixtures_{split} = "
                              f"{path!r} does not exist")
        strict = cs.strict if cs.strict is not None else default_strict
        return FixtureProvider(path=path, strict=strict)
    if cs.provider == "synthetic":
        if cs.synthetic_spec is None:
            raise ConfigError("[commonsense] provider = 'synthetic' "
                              "requires synthetic_* keys")
        return SyntheticProvider(cs.synthetic_spec)
    if cs.provider == "service":
        if not cs.endpoint:
            raise ConfigError("[commonsense] provider = 'service' requires "
                              "[commonsense] endpoint")
        if cs.exemplars_path and not os.path.exists(cs.exemplars_path):
            raise ConfigError(f"[commonsense] exemplars = "
                              f"{cs.exemplars_path!r} does not exist")
        exemplars = (load_exemplars(cs.exemplars_path)
                     if cs.exemplars_path else None)
        return GenerationServiceProvider(cs.endpoint, model_id=cs.model_id,
                                         exemplars=exemplars)
    raise ConfigError(f"[commonsense] provider = {cs.provider!r} is not one "
                      f"of fixture, synthetic, service")


def open_run_dir(config: RunConfig, command: str, **fields) -> str:
    """Create the run directory, its manifest holding ``fields`` too;
    refuse to reuse a completed one."""
    out = config.out_dir
    manifest_path = os.path.join(out, "manifest.json")
    if os.path.exists(manifest_path):
        # the manifest is one indented document this program writes, not
        # a JSON-lines input, so it is read whole
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{manifest_path}: not a run manifest "
                              f"({exc})") from None
        if type(manifest) is not dict:
            raise ConfigError(f"{manifest_path}: not a run manifest (not "
                              f"a JSON object)")
        if manifest.get("status") == "completed":
            raise ConfigError(
                f"run directory {out!r} already holds a completed run")
    os.makedirs(out, exist_ok=True)
    manifest = {"command": command, "status": "running",
                "config_fingerprint": config.fingerprint(),
                "version": __version__, "started_at": time.time(),
                "seeds": list(config.seeds), **fields}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return out


def _close_run_dir(out: str, status: str, **fields):
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest.update(status=status, **fields)
    manifest["finished_at"] = time.time()
    manifest["elapsed_s"] = manifest["finished_at"] - manifest["started_at"]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


@contextmanager
def run_dir(config: RunConfig, command: str, **fields):
    """The run directory of one command: ``completed`` when the body
    returns, ``failed`` with the error's class and message when it raises
    (the error propagates)."""
    out = open_run_dir(config, command, **fields)
    try:
        yield out
    except BaseException as exc:
        _close_run_dir(out, "failed", error={"type": type(exc).__name__,
                                             "message": str(exc)})
        raise
    _close_run_dir(out, "completed")


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def cmd_synth(spec: SyntheticSpec, corpus_path, fixtures_path) -> int:
    corpus, fixtures = generate_synthetic(spec)
    for path in (corpus_path, fixtures_path):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
    write_corpus(corpus, corpus_path)
    write_fixtures(corpus, fixtures, fixtures_path)
    n_clusters = len({m.gold_cluster_id for m in corpus.mentions.values()})
    print(f"wrote {len(corpus.documents)} documents, "
          f"{len(corpus.mentions)} mentions, {n_clusters} gold clusters "
          f"-> {corpus_path}")
    print(f"wrote {len(fixtures)} inference fixtures -> {fixtures_path}")
    return EXIT_OK


def cmd_gen_inferences(config: RunConfig, split: str) -> int:
    _require_paths(config, [split])
    corpus = load_corpus(config.corpus_paths[split])
    provider = build_provider(config, split)
    cache_path = config.commonsense.cache_path
    if cache_path is None:
        raise ConfigError("gen-inferences requires a cache path: set "
                          "[commonsense] cache")
    cache = InferenceCache(cache_path)
    results = get_inferences(provider, corpus, config.commonsense.generation,
                             cache=cache)
    print(f"cached {len(results)} inference sets -> {cache_path}")
    return EXIT_OK


def _require_paths(config: RunConfig, splits):
    for split in splits:
        if split not in config.corpus_paths:
            raise ConfigError(f"no corpus path configured for {split!r}: "
                              f"set [corpus] {split}")
        if not os.path.exists(config.corpus_paths[split]):
            raise ConfigError(
                f"[corpus] {split} = {config.corpus_paths[split]!r} does "
                f"not exist")
    if not config.seeds:
        raise ConfigError("seed list must be non-empty")


def _check_scopes(config: RunConfig):
    """Reject a scope outside SCOPES, and a clustering unit broader than
    the pair unit: the clusterer would need pairs that were never scored."""
    for key, scope in (("[train] pair_scope", config.train.pair_scope),
                       ("[cluster] scope", config.cluster_scope)):
        if scope not in SCOPES:
            raise ConfigError(f"{key} = {scope!r} is not one of {SCOPES}")
    if SCOPES.index(config.cluster_scope) > SCOPES.index(
            config.train.pair_scope):
        raise ConfigError(
            f"[cluster] scope = {config.cluster_scope!r} is broader than "
            f"[train] pair_scope = {config.train.pair_scope!r}")


def _dataset_for(config: RunConfig, corpus: Corpus, split: str, mode: str,
                 default_strict: bool = True, scope: Optional[str] = None,
                 labeled: bool = True):
    provider = None
    cache = None
    if mode != "baseline":
        provider = build_provider(config, split,
                                  default_strict=default_strict)
        if config.commonsense.cache_path:
            cache = InferenceCache(config.commonsense.cache_path)
    return build_dataset(corpus, config.embedder, mode,
                         inference_source=provider,
                         gen_config=config.commonsense.generation,
                         cache=cache, scope=scope or config.train.pair_scope,
                         labeled=labeled)


def _check_dims(config: RunConfig, checkpoint_path, dims: ModelDims):
    """Raise ``ConfigError`` unless a checkpoint's ``dims`` match the config
    in the checkpoint's mode."""
    expected = replace(config.train.model_dims(config.embedder),
                       mode=dims.mode)
    if dims != expected:
        differ = [f"{_DIM_KEYS.get(name, name)} = {getattr(expected, name)}"
                  f" but the checkpoint's {name} = {getattr(dims, name)}"
                  for name in asdict(expected)
                  if getattr(expected, name) != getattr(dims, name)]
        raise ConfigError(f"{checkpoint_path}: checkpoint dims do not match "
                          f"config: {'; '.join(differ)}")


# the config key that sets each ModelDims field other than mode and version
_DIM_KEYS = {"d": "[embedder] d", "d_len": "[embedder] d_len",
             "max_width_bucket": "[embedder] max_width_bucket",
             "d_a": "[train] d_a", "h": "[train] hidden"}


def cmd_train(config: RunConfig) -> int:
    _require_paths(config, ["train"] + (["dev"] if "dev"
                                        in config.corpus_paths else []))
    _check_scopes(config)
    if config.threshold is not None:
        check_unit_interval("[cluster] threshold", config.threshold)
    # the BLAS that training ran on says which checkpoint bytes to expect
    with run_dir(config, "train", blas=blas.describe()) as out:
        mode = config.train.mode
        train_corpus = load_corpus(config.corpus_paths["train"])
        train_data = _dataset_for(config, train_corpus, "train", mode)
        if "dev" in config.corpus_paths:
            eval_corpus = load_corpus(config.corpus_paths["dev"])
            dev_data = _dataset_for(config, eval_corpus, "dev", mode)
        else:
            eval_corpus, dev_data = train_corpus, train_data

        grid = (DEFAULT_THRESHOLD_GRID if config.threshold is None
                else (config.threshold,))
        dev_conlls = []
        for seed in config.seeds:
            train_config = replace(config.train, seed=seed)
            params, history = train(train_data, config.embedder,
                                    train_config, dev_data=dev_data)
            ckpt_path = os.path.join(out, f"checkpoint_seed{seed}.bin")
            save_checkpoint(params, ckpt_path)
            lookup = scores_as_lookup(dev_data,
                                      score_dataset(params, dev_data))
            tau, _, report = best_cut(eval_corpus, lookup, grid,
                                      scope=config.cluster_scope,
                                      eval_options=config.eval_options)
            dev_conlls.append(report.conll_f1)
            with open(os.path.join(out, f"history_seed{seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"history": history, "tau": tau,
                           "dev_conll_f1": report.conll_f1}, fh, indent=2)
            print(f"seed {seed}: best dev pairwise F1 "
                  f"{history['best_dev_f1']:.4f}, tau {tau:.2f}, "
                  f"dev CoNLL {report.conll_f1:.4f}")

        mean, std = mean_std(dev_conlls)
        summary = {"mode": mode, "seeds": list(config.seeds),
                   "dev_conll_f1": dev_conlls,
                   "mean": mean, "std": std}
        with open(os.path.join(out, "summary.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"dev CoNLL F1 over {len(dev_conlls)} seeds: "
              f"{mean:.4f} +- {std:.4f}")
    return EXIT_OK


def cmd_predict(config: RunConfig, checkpoint_path, split: str = "test",
                tau: Optional[float] = None) -> int:
    _require_paths(config, [split])
    _check_scopes(config)
    if tau is None:
        tau = config.threshold
    if tau is None:
        raise ConfigError("no threshold: pass --tau or set [cluster] "
                          "threshold")
    check_unit_interval("threshold", tau)
    # the helper reads the checkpoint while this thread builds the split,
    # then both read; in scoring the helper takes one product of each pair.
    # At one BLAS thread each, the probabilities ignore the environment
    with run_dir(config, "predict", blas=blas.describe()) as out, \
            blas.threads(blas.TRAIN_THREADS), ThreadPoolExecutor(1) as helper:
        corpus = load_corpus(config.corpus_paths[split])
        # opened on this thread, which allocates the vector: from the
        # helper's malloc arena the freed vector would stay resident
        with CheckpointReader(checkpoint_path) as reader:
            params = reader.params
            _check_dims(config, checkpoint_path, params.dims)
            loading = helper.submit(load_checkpoint, reader)
            try:
                data = _dataset_for(config, corpus, split, params.dims.mode,
                                    default_strict=False)
                load_checkpoint(reader)
            finally:  # a checkpoint error first; the file stays open
                loading.result()  # until the helper is done
        # looked up on the module, where the benchmark's tracer wraps them
        lookup = scores_as_lookup(
            data, training.score_dataset(params, data, helper))
        system = training.cluster_from_scores(corpus, lookup, tau,
                                              scope=config.cluster_scope)
        clustering_path = os.path.join(out, f"clustering_{split}.jsonl")
        write_clustering(system, clustering_path, metadata={
            "tau": tau, "linkage": "average", "scope": config.cluster_scope,
            "checkpoint": os.path.basename(str(checkpoint_path)),
            "mode": params.dims.mode})
        report = evaluate(corpus, system, config.eval_options)
        _write_report(report, out, split)
        print(report.render_table())
        print(f"CoNLL F1: {report.conll_f1:.4f}")
    return EXIT_OK


def _write_report(report: EvalReport, out: str, split: str):
    with open(os.path.join(out, f"report_{split}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    with open(os.path.join(out, f"report_{split}.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report.render_table() + "\n")


def cmd_score(config: RunConfig, clustering_path, split: str = "test") -> int:
    from .cluster import read_clustering

    _require_paths(config, [split])
    corpus = load_corpus(config.corpus_paths[split])
    system, _ = read_clustering(clustering_path)
    key = GoldKey.build(corpus, config.eval_options)
    try:
        report = evaluate(corpus, system, config.eval_options, key=key)
    except ValueError as exc:  # with the key built, a missed gold mention
        raise CorpusFormatError(f"{clustering_path}: {exc}") from None
    print(report.render_table())
    print(f"CoNLL F1: {report.conll_f1:.4f}")
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    _write_report(report, out, split)
    return EXIT_OK


@dataclass
class AttentionTrace:
    first: str
    second: str
    first_context: str
    second_context: str
    relations: dict  # (mention_id, relation) -> list of (sentence, weight)
    probability: float
    gold_label: Optional[int]

    def render(self) -> str:
        lines = [f"pair: {self.first} | {self.second}",
                 f"context[{self.first}]: {self.first_context}",
                 f"context[{self.second}]: {self.second_context}",
                 f"probability: {self.probability:.4f}",
                 f"gold_label: {self.gold_label}"]
        for (mention_id, relation), items in self.relations.items():
            lines.append(f"[{mention_id}] {relation}:")
            for sentence, weight in items:
                lines.append(f"  {weight:.4f}  {sentence}")
        return "\n".join(lines)


def explain_pair(params: ModelParameters, corpus: Corpus, config: RunConfig,
                 first_id: str, second_id: str, split: str = "test"
                 ) -> AttentionTrace:
    """Single-pair trace: inference attention weights, score, gold label.

    The pair is scored by ``forward_batch`` on a one-pair dataset built as
    ``predict`` builds its split, so the trace shows the same first-k
    inference sentences and the same probability.
    """
    for mention_id in (first_id, second_id):
        if mention_id not in corpus.mentions:
            raise KeyError(f"unknown mention id {mention_id!r}")
    pair = [corpus.mentions[first_id], corpus.mentions[second_id]]
    doc_ids = dict.fromkeys(m.doc_id for m in pair)
    mode = params.dims.mode
    data = _dataset_for(config,
                        Corpus([corpus.documents[d] for d in doc_ids], pair),
                        split, mode, default_strict=False, scope="corpus",
                        labeled=False)
    probs, fw_cache = forward_batch(params, data, np.arange(1))
    a, b = (corpus.mentions[data.mention_ids[row[0]]]
            for row in (data.pair_i, data.pair_j))
    relations = {}
    if mode != "baseline":
        # cs row 0 is a's query, row 1 is b's; the inverse maps each to its
        # attention row, whose sentence indices are already routed (own
        # sets in intra, other's in inter)
        for row, mention_id in zip(fw_cache["inverse"],
                                   (a.mention_id, b.mention_id)):
            for rel in ("before", "after"):
                att = fw_cache["att"][rel]
                items = [(data.sentences[i], float(w)) for i, w in
                         zip(att["idx"][row], att["cache"]["weights"][row])
                         if i >= 0]
                relations[(mention_id, rel)] = sorted(
                    items, key=lambda item: -item[1])
    gold = None
    if a.gold_cluster_id is not None and b.gold_cluster_id is not None:
        gold = int(a.gold_cluster_id == b.gold_cluster_id)
    return AttentionTrace(first=a.mention_id, second=b.mention_id,
                          first_context=" ".join(corpus.sentence_of(a)),
                          second_context=" ".join(corpus.sentence_of(b)),
                          relations=relations, probability=float(probs[0]),
                          gold_label=gold)


def cmd_explain(config: RunConfig, checkpoint_path, first_id: str,
                second_id: str, split: str = "test",
                out_path=None) -> int:
    _require_paths(config, [split])
    corpus = load_corpus(config.corpus_paths[split])
    params = load_checkpoint(checkpoint_path)
    _check_dims(config, checkpoint_path, params.dims)
    with blas.threads(blas.TRAIN_THREADS):  # as predict scores
        trace = explain_pair(params, corpus, config, first_id, second_id,
                             split=split)
    text = trace.render()
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_gradcheck(mode: str = "intra", seeds=(0, 1, 2, 3, 4),
                  _corrupt_block: Optional[str] = None, **kwargs) -> int:
    report = gradcheck(mode=mode, seeds=seeds,
                       _corrupt_block=_corrupt_block, **kwargs)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFICATION
