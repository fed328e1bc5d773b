"""Every input file the CLI reads, broken.

One valid file of each kind (run config, corpus, inference fixtures and
cache, few-shot exemplars, checkpoint, clustering, and the replies of the
generation and embedding services) is broken by hand for the cases that
used to end in a traceback, and by a generator that
truncates it, swaps a JSON value for one of another type, drops a key or
inserts an invalid UTF-8 byte. The command that reads it runs through
``cli.main``: it must return 0, 2 or 3, never raise, print at most one
``error:`` line, which names the file or a ``[section] key``, and leave any
run directory it opened marked by its outcome. A tooling guard keeps
``corpus.json_lines`` the one decoder of input lines.
"""

import ast
import contextlib
import io
import json
import math
import re
import shutil
import warnings
from pathlib import Path
from unittest import mock
from urllib.parse import urlsplit

import pytest
import requests
from hypothesis import given, settings, strategies as st

import cscoref
from cscoref import cli
from cscoref.cluster import write_clustering
from cscoref.commonsense import (FixtureProvider, GenerationConfig,
                                 GenerationServiceProvider, InferenceCache,
                                 get_inferences)
from cscoref.corpus import Corpus, Document, Mention, json_lines, write_corpus
from cscoref.scorer import ModelDims, init_parameters, save_checkpoint
from cscoref.synthgen import SyntheticSpec, generate_synthetic, \
    write_fixtures

RUN_INI = """\
[run]
out = run
seeds = 0

[corpus]
test = corpus.jsonl

[embedder]
d = 8
d_len = 4
max_width_bucket = 4

[commonsense]
provider = fixture
fixtures = fixtures.jsonl
cache = cache.jsonl

[train]
mode = intra
d_a = 2
hidden = 16
"""

# no mention to generate for, so the endpoint is never called
SERVICE_INI = """\
[corpus]
test = empty.jsonl

[commonsense]
provider = service
endpoint = http://127.0.0.1:9/generate
exemplars = exemplars.jsonl
prompt_mode = fewshot
cache = service_cache.jsonl
"""

# the services' replies are files, served by ``FileReply``: the endpoint's
# path names the file
GENERATE_INI = """\
[corpus]
test = corpus.jsonl

[commonsense]
provider = service
endpoint = http://127.0.0.1:9/completion.json
cache = generated.jsonl
"""

# every document is one sentence of one token, so one reply fits every
# request
EMBED_INI = """\
[run]
out = embed_run
seeds = 0

[corpus]
test = one_token.jsonl

[embedder]
provider = service
endpoint = http://127.0.0.1:9/vectors.json
d = 8
d_len = 4
max_width_bucket = 4

[train]
mode = baseline
d_a = 2
hidden = 16
"""

PREDICT = ["predict", "--config", "run.ini", "--checkpoint",
           "checkpoint.bin", "--tau", "0.5"]
GEN = ["gen-inferences", "--config", "run.ini", "--split", "test"]
# kind: (the file, the command that reads it, files removed first)
KINDS = {
    "ini": ("run.ini", PREDICT, ()),
    "corpus": ("corpus.jsonl", GEN, ()),
    # without a cache every mention is served from the fixtures, strictly
    "fixtures": ("fixtures.jsonl", GEN, ("cache.jsonl",)),
    "cache": ("cache.jsonl", GEN, ()),
    "exemplars": ("exemplars.jsonl",
                  ["gen-inferences", "--config", "service.ini", "--split",
                   "test"], ()),
    "checkpoint": ("checkpoint.bin", PREDICT, ()),
    "clustering": ("clustering.jsonl",
                   ["score", "--config", "run.ini", "--clustering",
                    "clustering.jsonl"], ()),
    "completion": ("completion.json",
                   ["gen-inferences", "--config", "generate.ini", "--split",
                    "test"], ()),
    "vectors": ("vectors.json",
                ["predict", "--config", "embed.ini", "--checkpoint",
                 "baseline.bin", "--tau", "0.5"], ()),
}
KEY = re.compile(r"\[[a-z]+\] [a-z_]+")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory holding one valid file of each kind; the configs name
    the others by relative paths."""
    base = tmp_path_factory.mktemp("inputs")
    corpus, fixtures = generate_synthetic(SyntheticSpec(
        n_topics=2, clusters_per_topic=2, mentions_per_cluster=2,
        hard_fraction=0.5, distractor_rate=0.0, seed=17))
    write_corpus(corpus, base / "corpus.jsonl")
    write_fixtures(corpus, fixtures, base / "fixtures.jsonl")
    get_inferences(FixtureProvider(base / "fixtures.jsonl"), corpus,
                   GenerationConfig(), InferenceCache(base / "cache.jsonl"))
    (base / "empty.jsonl").write_bytes(b"")
    (base / "exemplars.jsonl").write_text("".join(
        json.dumps({"context": f"The team won game {i} .", "event": "won",
                    "before": f"They practiced {i}.",
                    "after": f"They celebrated {i}."}) + "\n"
        for i in range(8)), encoding="utf-8")
    save_checkpoint(init_parameters(ModelDims(
        d=8, d_len=4, d_a=2, h=16, mode="intra", max_width_bucket=4), 0),
        base / "checkpoint.bin")
    write_clustering(corpus.gold_clustering(), base / "clustering.jsonl",
                     {"tau": 0.5})
    (base / "run.ini").write_text(RUN_INI, encoding="utf-8")
    (base / "service.ini").write_text(SERVICE_INI, encoding="utf-8")
    (base / "generate.ini").write_text(GENERATE_INI, encoding="utf-8")
    (base / "completion.json").write_text(json.dumps(
        {"completion": " They trained.\nAfter: They celebrated."}) + "\n",
        encoding="utf-8")
    write_corpus(Corpus(
        [Document(f"d{i}", "t0", "t0_s0", [["go"]]) for i in range(2)],
        [Mention(f"m{i}", f"d{i}", 0, 0, 0, "go", gold_cluster_id="g0")
         for i in range(2)]), base / "one_token.jsonl")
    save_checkpoint(init_parameters(ModelDims(
        d=8, d_len=4, d_a=2, h=16, mode="baseline", max_width_bucket=4), 0),
        base / "baseline.bin")
    (base / "embed.ini").write_text(EMBED_INI, encoding="utf-8")
    (base / "vectors.json").write_text(json.dumps(
        {"vectors": [[[0.125] * 8]], "d": 8}) + "\n", encoding="utf-8")
    return base


class FileReply:
    """A 200 reply whose body is the file the URL's path names, read from
    the working directory."""

    status_code = 200

    def __init__(self, url, **kwargs):
        self.body = Path(urlsplit(url).path.lstrip("/")).read_bytes()

    def json(self):
        return json.loads(self.body)


def run_cli(base, work, argv, files=(), remove=()):
    """Copy ``base`` to ``work``, remove the files ``remove``, write each
    ``(name, bytes)`` of ``files``, and run ``argv`` there: (exit code,
    stderr)."""
    shutil.copytree(base, work)
    for removed in remove:
        (work / removed).unlink()
    for name, data in files:
        (work / name).parent.mkdir(exist_ok=True)
        (work / name).write_bytes(data)
    err = io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.object(requests.Session, "post", FileReply), \
            mock.patch.object(GenerationServiceProvider, "BACKOFF_START", 0):
        code = cli.main(argv)
    return code, err.getvalue()


def edit_line(name, index, edit):
    """An edit of ``name``'s line ``index``: ``edit`` maps the line's JSON
    value to the new line's text."""
    def apply(data):
        lines = data.split(b"\n")
        lines[index] = edit(json.loads(lines[index])).encode("utf-8")
        return b"\n".join(lines)
    return name, apply


def edit_checkpoint(index, edit):
    """An edit of the checkpoint's JSON line ``index`` (0 the header)."""
    def apply(data):
        segments = checkpoint_segments(data)
        line = [s for s, is_json in segments if is_json][index]
        new = edit(json.loads(line)).encode("utf-8") + b"\n"
        return b"".join(new if s is line else s for s, _ in segments)
    return "checkpoint.bin", apply


def without(key):
    def edit(value):
        del value[key]
        return json.dumps(value)
    return edit


@pytest.mark.parametrize("kind, edit, code, message", [
    ("corpus", edit_line("corpus.jsonl", -2, lambda v: json.dumps(
        {"mention": dict(v["mention"], sentence_index="0")})), 2,
     "corpus.jsonl:{n}: mention record field 'sentence_index' must be an "
     "integer, not a string"),
    ("corpus", edit_line("corpus.jsonl", 0, lambda v: json.dumps(
        {"doc": dict(v["doc"], sentences="abc")})), 2,
     "corpus.jsonl:1: doc record field 'sentences' must be an array, not "
     "a string"),
    ("corpus", edit_line("corpus.jsonl", 0, lambda v: json.dumps(
        {"doc": dict(v["doc"], sentences=["abc"])})), 2,
     "corpus.jsonl:1: document 't00_d0': sentences must be lists of "
     "tokens"),
    ("corpus", edit_line("corpus.jsonl", 1, lambda v: "{not json"), 2,
     "corpus.jsonl:2: not valid JSON (Expecting property name enclosed in "
     "double quotes)"),
    ("corpus", edit_line("corpus.jsonl", 1, lambda v: json.dumps(
        {"doc": dict(v["doc"], extra=1)})), 2,
     "corpus.jsonl:2: unknown field(s) ['extra'] in doc record"),
    ("clustering", edit_line("clustering.jsonl", 1, lambda v: "5"), 2,
     "clustering.jsonl:2: clustering record is an integer, not an object"),
    ("clustering", edit_line("clustering.jsonl", 1, lambda v: "[1,2]"), 2,
     "clustering.jsonl:2: clustering record is an array, not an object"),
    ("clustering", edit_line("clustering.jsonl", 1,
                             lambda v: json.dumps(v).split(", ")[0]), 2,
     "clustering.jsonl:2: not valid JSON (Expecting ',' delimiter)"),
    ("clustering", edit_line("clustering.jsonl", 1, without("cluster_id")),
     2, "clustering.jsonl:2: missing field(s) ['cluster_id'] in clustering "
        "record"),
    ("clustering", edit_line("clustering.jsonl", -2, lambda v: ""), 2,
     "clustering.jsonl: system clustering is missing gold mentions: "
     "['{m}']"),
    ("clustering", ("clustering.jsonl",
                    lambda data: data + data.split(b"\n")[1] + b"\n"), 2,
     "clustering.jsonl:{k}: mention '{f}' is already assigned at line 2"),
    ("checkpoint", edit_checkpoint(0, lambda v: json.dumps(
        dict(v, d="16"))), 3,
     "ScorerError: checkpoint.bin:2: checkpoint header field 'd' must be "
     "an integer, not a string"),
    ("checkpoint", edit_checkpoint(0, lambda v: json.dumps(
        dict(v, mode="intro"))), 3,
     "ScorerError: checkpoint.bin:2: mode must be one of ('baseline', "
     "'intra', 'inter')"),
    ("checkpoint", edit_checkpoint(1, lambda v: "[1]"), 3,
     "ScorerError: checkpoint.bin:3: checkpoint block line is an array, "
     "not an object"),
    ("checkpoint", edit_checkpoint(2, without("name")), 3,
     "ScorerError: checkpoint.bin:4: missing field(s) ['name'] in "
     "checkpoint block line"),
    ("exemplars", edit_line("exemplars.jsonl", 0, lambda v: "[1]"), 2,
     "exemplars.jsonl:1: exemplar record is an array, not an object"),
    ("exemplars", edit_line("exemplars.jsonl", 3, without("event")), 2,
     "exemplars.jsonl:4: missing field(s) ['event'] in exemplar record"),
    ("ini", ("run.ini", lambda data: data.replace(b"d = 8", b"d = abc")), 2,
     "[embedder] d = 'abc' is not an integer"),
    ("ini", ("run.ini", lambda data: data.replace(
        b"[commonsense]\n", b"[commonsense]\nsynthetic_n_topics = 0\n")), 2,
     "run.ini: all counts must be >= 1"),
    ("completion", edit_line("completion.json", 0, lambda v: json.dumps(
        {"completion": 5})), 3,
     "InferenceError: http://127.0.0.1:9/completion.json: generation reply "
     "field 'completion' must be a string, not an integer"),
    ("completion", edit_line("completion.json", 0, lambda v: json.dumps(
        {"completion": None})), 3,
     "InferenceError: http://127.0.0.1:9/completion.json: generation reply "
     "field 'completion' must be a string, not null"),
    ("completion", edit_line("completion.json", 0, lambda v: "[1]"), 3,
     "InferenceError: http://127.0.0.1:9/completion.json: generation reply "
     "is an array, not an object"),
    ("vectors", edit_line("vectors.json", 0, lambda v: json.dumps(
        dict(v, vectors=[[[1, "x"]]]))), 3,
     "EmbeddingError: http://127.0.0.1:9/vectors.json: service returned "
     "vectors that are not a matrix of numbers for a sentence of 1 "
     "tokens"),
    ("vectors", edit_line("vectors.json", 0, lambda v: json.dumps(
        dict(v, vectors=[[[0.5] * 8, [0.5] * 7]]))), 3,
     "EmbeddingError: http://127.0.0.1:9/vectors.json: service returned "
     "vectors that are not a matrix of numbers for a sentence of 1 "
     "tokens"),
], ids=["mention-index-string", "sentences-string", "sentence-string",
        "corpus-json", "corpus-unknown-field", "clustering-int",
        "clustering-array", "clustering-cut", "clustering-no-cluster-id",
        "clustering-missing-mention", "clustering-repeated-mention",
        "header-d-string", "header-mode", "block-line-array",
        "block-line-no-name", "exemplar-array", "exemplar-no-event",
        "ini-d-word", "ini-synthetic-count", "completion-int",
        "completion-null", "completion-array", "vectors-string",
        "vectors-ragged"])
def test_broken_line_named(base, tmp_path, kind, edit, code, message):
    """Each of these ended in a traceback, or in a message naming no file,
    before every reader went through ``json_lines`` and ``check_record``."""
    name, apply = edit
    _, argv, remove = KINDS[kind]
    data = apply((base / name).read_bytes())
    lines = (base / "corpus.jsonl").read_bytes().split(b"\n")
    clustering = (base / "clustering.jsonl").read_bytes().split(b"\n")
    message = message.format(
        n=len(lines) - 1, m=json.loads(clustering[-2])["mention_id"],
        f=json.loads(clustering[1])["mention_id"], k=len(clustering))
    got, err = run_cli(base, tmp_path / "work", argv, [(name, data)],
                       remove)
    assert (got, err) == (code, f"error: {message}\n")


@pytest.mark.parametrize("manifest, reason", [
    ("[1]", "not a JSON object"),
    ("{bad", "Expecting property name enclosed in double quotes: line 1 "
             "column 2 (char 1)")])
def test_unreadable_manifest_named_before_anything_is_written(
        base, tmp_path, manifest, reason):
    work = tmp_path / "work"
    code, err = run_cli(base, work, PREDICT, [
        ("run/manifest.json", manifest.encode("utf-8"))])
    path = Path("run") / "manifest.json"
    assert (code, err) == (
        2, f"error: {path}: not a run manifest ({reason})\n")
    assert [p.name for p in (work / "run").iterdir()] == ["manifest.json"]
    assert (work / "run" / "manifest.json").read_text("utf-8") == manifest


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

def checkpoint_segments(data):
    """The checkpoint as (bytes, is a JSON line) pieces: the magic, the
    header line, then each block's line and its data."""
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    segments = [(data[:magic_end], False),
                (data[magic_end:header_end], True)]
    pos = header_end
    while pos < len(data):
        end = data.index(b"\n", pos) + 1
        size = 8 * math.prod(json.loads(data[pos:end])["shape"])
        segments += [(data[pos:end], True), (data[end:end + size], False)]
        pos = end + size
    return segments


def segments_of(name, data):
    if name.endswith(".bin"):
        return checkpoint_segments(data)
    return [(line, name.endswith((".json", ".jsonl")))
            for line in data.splitlines(keepends=True)]


OTHER_TYPE = ({}, [], "x", 7, 0.5, True, None)


def value_paths(value, path=()):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from value_paths(child, path + (key,))


def replace_at(value, path, new):
    if not path:
        return new
    value[path[0]] = replace_at(value[path[0]], path[1:], new)
    return value


def json_mutation(draw, line, mutation):
    """``line``'s JSON value with one value swapped for one of another
    type, or one key of one of its objects dropped; None if it has none."""
    value = json.loads(line)
    paths = list(value_paths(value))
    if mutation == "drop":
        owners = [(p, k) for p in paths
                  if isinstance(node := _at(value, p), dict) for k in node]
        if not owners:
            return None
        owner, key = draw(st.sampled_from(owners))
        del _at(value, owner)[key]
    else:
        path = draw(st.sampled_from(paths))
        old = _at(value, path)
        new = draw(st.sampled_from(
            [v for v in OTHER_TYPE if type(v) is not type(old)]))
        value = replace_at(value, path, new)
    return json.dumps(value).encode("utf-8") + b"\n"


def _at(value, path):
    for key in path:
        value = value[key]
    return value


INI_VALUES = {"int": "7", "number": "0.5", "word": "abc"}


def ini_mutation(draw, line, mutation):
    """A ``key = value`` line with its value swapped for one of another
    kind, or the line dropped."""
    if mutation == "drop":
        return b""
    key, sep, value = line.decode("utf-8").partition(" = ")
    if not sep:
        return None
    value = value.strip()
    kind = ("int" if value.isdigit() else
            "number" if value.replace(".", "", 1).isdigit() else "word")
    new = draw(st.sampled_from(
        [v for k, v in INI_VALUES.items() if k != kind]))
    return f"{key} = {new}\n".encode("utf-8")


@st.composite
def mutated(draw, base):
    kind = draw(st.sampled_from(sorted(KINDS)))
    name = KINDS[kind][0]
    data = (base / name).read_bytes()
    mutation = draw(st.sampled_from(["truncate", "swap", "drop", "xff"]))
    if mutation == "truncate":
        return kind, mutation, data[:draw(st.integers(0, len(data) - 1))]
    if mutation == "xff":
        at = draw(st.integers(0, len(data)))
        return kind, mutation, data[:at] + b"\xff" + data[at:]
    segments = segments_of(name, data)
    candidates = [i for i, (s, is_json) in enumerate(segments)
                  if is_json or (name.endswith(".ini") and s.strip())]
    index = draw(st.sampled_from(candidates))
    line = segments[index][0]
    new = (json_mutation(draw, line, mutation) if segments[index][1]
           else ini_mutation(draw, line, mutation))
    if new is None:
        return kind, "unchanged", data
    pieces = [s for s, _ in segments]
    pieces[index] = new
    return kind, mutation, b"".join(pieces)


def torn_tail(kind, data) -> bool:
    """Whether ``data``, as a cache or fixture file, ends in a torn line:
    an unterminated last line that does not parse."""
    if kind not in ("fixtures", "cache"):
        return False
    try:
        list(json_lines([data.rsplit(b"\n", 1)[-1]], kind, ValueError))
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.data())
def test_mutated_input_exits_cleanly(base, tmp_path_factory, case):
    kind, mutation, data = case.draw(mutated(base))
    name, argv, remove = KINDS[kind]
    work = tmp_path_factory.mktemp("work")
    shutil.rmtree(work)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_cli(base, work, argv, [(name, data)], remove)
    # the one warning a mutated input may raise: the loader skipping a
    # torn last line, where there is one
    torn = re.compile(rf"{re.escape(name)}:\d+: skipping a torn last line")
    messages = [str(w.message) for w in caught]
    assert all(torn.fullmatch(m) for m in messages), messages
    assert bool(messages) == torn_tail(kind, data), messages
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code:
        assert len(errors) == 1 and err == errors[0] + "\n", err
        assert name in err or KEY.search(err), err
    else:
        assert not errors
    for manifest in work.glob("**/manifest.json"):
        status = json.loads(manifest.read_text("utf-8"))["status"]
        assert status == ("failed" if code else "completed"), err
    shutil.rmtree(work)


# ---------------------------------------------------------------------------
# one decoder
# ---------------------------------------------------------------------------

SRC = Path(cscoref.__file__).parent
# the run manifest is one indented document that the program writes and
# rereads itself, not a JSON-lines input
MANIFEST_READERS = {("pipeline.py", "open_run_dir", "load"),
                    ("pipeline.py", "_close_run_dir", "load")}


def decoder_calls(path):
    """(module, enclosing function, name) of each JSON decoding call."""
    tree = ast.parse(path.read_text("utf-8"))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner.setdefault(node, func.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            for alias in node.names:
                if alias.name in ("load", "loads", "JSONDecoder"):
                    yield path.name, None, alias.name
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr, target = node.func.attr, node.func.value
        if attr == "raw_decode" or (
                attr in ("load", "loads") and isinstance(target, ast.Name)
                and target.id == "json"):
            yield path.name, owner.get(node), attr


def test_only_json_lines_decodes_input():
    calls = [call for path in sorted(SRC.glob("*.py"))
             if path.name != "corpus.py"
             for call in decoder_calls(path)]
    assert set(calls) <= MANIFEST_READERS, calls
    assert calls, "the guard no longer sees the manifest reads"
