import itertools
import json
import random
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cscoref.commonsense import (BULK_CHUNK, BULK_CONCURRENCY,
                                 GENERATION_CREDENTIAL_ENV, FixtureProvider,
                                 GenerationConfig, GenerationServiceProvider,
                                 InferenceCache, InferenceError,
                                 InferenceSet, PromptExemplar, encode_record,
                                 format_prompt, get_inferences,
                                 parse_completion, read_records,
                                 split_sentences)
from cscoref.corpus import Corpus, Document, Mention
from cscoref.embed import EmbedderConfig
from cscoref.training import build_dataset

DATA = Path(__file__).parent / "data"

REHAB_CONTEXT = ("Lindsay Lohan checks into rehab at Betty Ford Center , "
                 "rehires longtime lawyer Shawn Holley")


def make_exemplars(n=8):
    return [PromptExemplar(context=f"The team won game {i} .",
                           event="won",
                           before=f"They practiced drill {i}.",
                           after=f"They celebrated win {i}.")
            for i in range(n)]


class TestFormatPrompt:
    def test_finetuned_golden(self):
        prompt = format_prompt(REHAB_CONTEXT, "rehires", mode="finetuned")
        golden = (DATA / "prompt_finetuned.golden").read_text("utf-8")
        assert prompt == golden

    def test_finetuned_layout(self):
        prompt = format_prompt("a b c", "b")
        assert prompt == "Context: a b c\nEvent: b\nBefore:"

    def test_event_not_in_context(self):
        with pytest.raises(InferenceError, match="substring"):
            format_prompt("the plane landed", "flying")

    def test_fewshot_requires_eight_exemplars(self):
        with pytest.raises(InferenceError, match="8"):
            format_prompt("a b", "a", mode="fewshot",
                          exemplars=make_exemplars(7))

    def test_fewshot_golden(self):
        exemplars = [
            PromptExemplar(
                context=f"Workers {verb} the {noun} on Monday .",
                event=verb,
                before=f"Plans for the {noun} were approved.",
                after=f"The {noun} reopened to the public.")
            for verb, noun in [("repaired", "bridge"), ("painted", "hall"),
                               ("closed", "road"), ("opened", "library"),
                               ("moved", "statue"), ("cleaned", "fountain"),
                               ("measured", "tunnel"), ("inspected", "pier")]
        ]
        prompt = format_prompt(
            "The council approved the plan , and workers repaired the "
            "bridge .", "repaired", mode="fewshot", exemplars=exemplars)
        golden = (DATA / "prompt_fewshot.golden").read_text("utf-8")
        assert prompt == golden

    def test_fewshot_ends_with_query(self):
        prompt = format_prompt("a b", "a", mode="fewshot",
                               exemplars=make_exemplars())
        assert prompt.endswith("Context: a b\nEvent: a\nBefore:")
        assert prompt.count("After:") == 8  # one completed block per exemplar


class TestParseCompletion:
    def test_two_section_completion(self):
        text = (" She fired her old lawyer. She needs counsel.\n"
                "After: He gets a good pay. END")
        before, after = parse_completion(text, 5)
        assert before == ["She fired her old lawyer.", "She needs counsel."]
        assert after == ["He gets a good pay."]

    def test_truncation_to_k(self):
        text = " ".join(f"Sentence number {i}." for i in range(7)) + \
            "\nAfter: Done here."
        before, after = parse_completion(text, 5)
        assert len(before) == 5
        assert before[0] == "Sentence number 0."

    def test_empty_completion_warns(self):
        with pytest.warns(UserWarning, match="empty"):
            before, after = parse_completion("", 5)
        assert before == [] and after == []

    def test_missing_after_section_warns(self):
        with pytest.warns(UserWarning, match="After"):
            before, after = parse_completion("Something happened first.", 5)
        assert before == ["Something happened first."]
        assert after == []

    def test_short_fragments_dropped(self):
        # pieces shorter than 3 characters vanish; 3-character ones survive
        before, after = parse_completion("A. A real sentence here.\n"
                                         "After: x. No.", 5)
        assert before == ["A real sentence here."]
        assert after == ["No."]

    @pytest.mark.parametrize("n_before,n_after",
                             list(itertools.product(range(6), range(6))))
    def test_roundtrip_all_sizes(self, n_before, n_after):
        k = 5
        before = [f"Before event number {i} happened." for i in range(n_before)]
        after = [f"After event number {i} happened." for i in range(n_after)]
        completion = " " + " ".join(before) + "\nAfter: " + \
            " ".join(after) + " END"
        got_before, got_after = parse_completion(completion, k)
        assert got_before == before
        assert got_after == after

    def test_split_sentences_terminal_punctuation(self):
        assert split_sentences("One here. Two there! Three? tail bit") == \
            ["One here.", "Two there!", "Three?", "tail bit"]


class TestInferenceSet:
    def test_strips_whitespace(self):
        inf = InferenceSet("m", ("  padded.  ",), (), "fixture")
        assert inf.before == ("padded.",)

    def test_rejects_empty_sentence(self):
        with pytest.raises(ValueError):
            InferenceSet("m", ("  ",), (), "fixture")

    def test_rejects_missing_provenance(self):
        with pytest.raises(ValueError):
            InferenceSet("m", (), (), "")


def _mention(mention_id="m1", doc_id="d1"):
    return Mention(mention_id, doc_id, 0, 0, 0, "event")


def _corpus(mention_id="m1"):
    """One document holding ``_mention(mention_id)``."""
    return Corpus([Document("d1", "t0", "t0_s0", [["event"]])],
                  [_mention(mention_id)])


class CountingProvider:
    def __init__(self, payload=None):
        self.calls = 0
        self.payload = payload or {"before": ("B one.",),
                                   "after": ("A one.",)}

    def fingerprint(self, config):
        return "fixture"

    def generate(self, mention, context, config):
        self.calls += 1
        return InferenceSet(mention.mention_id, self.payload["before"],
                            self.payload["after"], "fixture")


class TestCache:
    def test_single_invocation_per_key(self, tmp_path):
        cache = InferenceCache(tmp_path / "cache.jsonl")
        provider = CountingProvider()
        config = GenerationConfig()
        first = get_inferences(provider, _corpus(), config, cache)
        second = get_inferences(provider, _corpus(), config, cache)
        assert provider.calls == 1
        assert first == second

    def test_cache_survives_restart(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        provider = CountingProvider()
        config = GenerationConfig()
        get_inferences(provider, _corpus(), config, InferenceCache(path))
        get_inferences(provider, _corpus(), config, InferenceCache(path))
        assert provider.calls == 1

    def test_cache_file_is_valid_jsonl(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = InferenceCache(path)
        cache.put("d1", InferenceSet("m1", ("B.",), ("A.",), "fixture"))
        first, inode = path.read_bytes(), path.stat().st_ino
        cache.put("d1", InferenceSet("m2", ("B.",), ("A.",), "fixture"))
        second = path.read_bytes()
        # a put appends one line to the same file, leaving earlier bytes
        assert path.stat().st_ino == inode
        assert second.startswith(first)
        assert second[len(first):].count(b"\n") == 1
        lines = path.read_text("utf-8").strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"doc_id", "mention_id", "before", "after",
                                   "provenance"}

    def test_distinct_fingerprints_distinct_entries(self, tmp_path):
        cache = InferenceCache(tmp_path / "cache.jsonl")
        cache.put("d1", InferenceSet("m1", ("B.",), (), "fixture"))
        cache.put("d1", InferenceSet("m1", ("C.",), (), "synthetic"))
        assert cache.get("d1", "m1", "fixture").before == ("B.",)
        assert cache.get("d1", "m1", "synthetic").before == ("C.",)

    def test_no_partial_files(self, tmp_path):
        cache = InferenceCache(tmp_path / "cache.jsonl")
        cache.put("d1", InferenceSet("m1", ("B.",), ("A.",), "fixture"))
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_entries_immutable_once_written(self, tmp_path):
        cache = InferenceCache(tmp_path / "cache.jsonl")
        cache.put("d1", InferenceSet("m1", ("B.",), ("A.",), "fixture"))
        cache.put("d1", InferenceSet("m1", ("B.",), ("A.",), "fixture"))
        with pytest.raises(ValueError, match="immutable"):
            cache.put("d1", InferenceSet("m1", ("other.",), ("A.",),
                                         "fixture"))

    def test_hit_truncated_to_k(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        five = tuple(f"S {i}." for i in range(5))
        provider = CountingProvider({"before": five, "after": five})
        get_inferences(provider, _corpus(), GenerationConfig(k=5),
                       InferenceCache(path))
        small = GenerationConfig(k=2)
        for cache in (InferenceCache(path), InferenceCache(path)):
            hit = get_inferences(provider, _corpus(), small, cache)["m1"]
            assert hit.before == five[:2] and hit.after == five[:2]
        assert provider.calls == 1
        assert InferenceCache(path).get("d1", "m1", "fixture").before == five


SENTENCE = st.text(min_size=1).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(doc_id=st.text(), mention_id=st.text(),
       before=st.lists(SENTENCE, max_size=4),
       after=st.lists(SENTENCE, max_size=4),
       provenance=st.text(min_size=1))
def test_encoded_line_is_what_json_dumps_writes(doc_id, mention_id, before,
                                                after, provenance):
    rec, line = encode_record(doc_id, InferenceSet(mention_id, before, after,
                                                   provenance))
    assert line == (json.dumps(rec, ensure_ascii=False,
                               separators=(",", ":")) + "\n").encode("utf-8")
    assert json.loads(line) == rec


def _record_line(mention_id, doc_id="d1"):
    return json.dumps({"doc_id": doc_id, "mention_id": mention_id,
                       "before": [f"B {mention_id}."],
                       "after": [f"A {mention_id}."],
                       "provenance": "fixture"}) + "\n"


def _put_one(path, mention_id, before):
    get_inferences(CountingProvider({"before": (before,), "after": ()}),
                   _corpus(mention_id), GenerationConfig(),
                   InferenceCache(path))


def _put_many(path, prefix, n, barrier):
    cache = InferenceCache(path)
    barrier.wait()
    for i in range(n):
        cache.put("d1", InferenceSet(f"{prefix}{i}", (f"B {i}.",),
                                     (f"A {i}.",), "fixture"))


def _run_to_the_end(workers):
    """Start the processes and require each to exit 0 within 120 s."""
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
        assert not any(w.is_alive() for w in workers)
    finally:
        for w in workers:
            if w.is_alive():
                w.terminate()
    assert [w.exitcode for w in workers] == [0] * len(workers)


def _set(mention_id, before=None):
    """The set of ``_record_line(mention_id)``, or one with another
    before-sentence."""
    return InferenceSet(mention_id, (before or f"B {mention_id}.",),
                        (f"A {mention_id}.",), "fixture")


def _numbered_corpus(numbers):
    """One document with a sentence per number; mention ``m<i>`` (three
    digits) is the number in sentence i."""
    doc = Document("d1", "t0", "t0_s0",
                   [["w", str(i), "."] for i in range(max(numbers) + 1)])
    return Corpus([doc], [Mention(f"m{i:03d}", "d1", i, 1, 1, str(i))
                          for i in numbers])


class _TaggedProvider(CountingProvider):
    """Sets whose before-sentence names the writer that generated them."""

    def __init__(self, tag):
        super().__init__()
        self.tag = tag

    def generate(self, mention, context, config):
        time.sleep(0.001)
        return InferenceSet(mention.mention_id, (f"{self.tag} before.",),
                            (f"{mention.mention_id} after.",), "fixture")


def _fill_bulk(path, tag, numbers, out, barrier):
    cache = InferenceCache(path)
    barrier.wait()
    results = get_inferences(_TaggedProvider(tag), _numbered_corpus(numbers),
                             GenerationConfig(), cache)
    Path(out).write_text(json.dumps({m: inf.before[0]
                                     for m, inf in results.items()}),
                         encoding="utf-8")


# name: (file text before the cache loads, text another writer appends
# after it loads, the sets put)
PUT_CASES = {
    "torn tail": (_record_line("m1") + _record_line("m2")[:25], "",
                  [_set("m3"), _set("m4")]),
    "unterminated complete record": (
        _record_line("m1") + _record_line("m2").rstrip("\n"), "",
        [_set("m3"), _set("m2"), _set("m4")]),
    "key loaded with another set": (
        _record_line("m1"), "", [_set("m1", "Mine."), _set("m2")]),
    "key appended by another writer": (
        _record_line("m1"), _record_line("m2"),
        [_set("m2", "Mine."), _set("m3")]),
    "torn tail left by another writer": (
        _record_line("m1"), _record_line("m2") + _record_line("m3")[:20],
        [_set("m3"), _set("m2", "Mine."), _set("m4")]),
    "idempotent re-put": (_record_line("m1"), "",
                          [_set("m1"), _set("m2"), _set("m3"), _set("m2")]),
}


class TestAppendOnlyLog:
    def test_concurrent_writers_keep_every_record(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "cache.jsonl")
        n = 100
        prefixes = ("a", "b", "c", "d")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(len(prefixes))
        _run_to_the_end([ctx.Process(target=_put_many,
                                     args=(path, prefix, n, barrier))
                         for prefix in prefixes])
        cache = InferenceCache(path)
        assert len(cache) == len(prefixes) * n
        for prefix in prefixes:
            for i in range(n):
                got = cache.get("d1", f"{prefix}{i}", "fixture")
                assert got.before == (f"B {i}.",)

    def test_concurrent_bulk_writers_with_overlapping_keys(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "cache.jsonl")
        # writer w fills m<40w> .. m<40w+79>: two writers share each of
        # m040 .. m159, and each sets its own before-sentence
        spans = [list(range(40 * w, 40 * w + 80)) for w in range(4)]
        outs = [tmp_path / f"results{w}.json" for w in range(len(spans))]
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(len(spans))
        _run_to_the_end([ctx.Process(target=_fill_bulk,
                                     args=(path, f"w{w}", span, str(out),
                                           barrier))
                         for w, (span, out) in enumerate(zip(spans, outs))])
        records = [json.loads(line)
                   for line in Path(path).read_text("utf-8").splitlines()]
        assert sorted(r["mention_id"] for r in records) == [
            f"m{i:03d}" for i in range(200)]
        kept = {r["mention_id"]: r["before"][0] for r in records}
        assert all(kept[f"m{i:03d}"] == "w0 before." for i in range(40))
        assert all(kept[f"m{i:03d}"] == "w3 before."
                   for i in range(160, 200))
        # every writer uses the set that was kept, its own or adopted
        for span, out in zip(spans, outs):
            assert json.loads(out.read_text("utf-8")) == {
                f"m{i:03d}": kept[f"m{i:03d}"] for i in span}

    @pytest.mark.parametrize("initial, later, sets", PUT_CASES.values(),
                             ids=list(PUT_CASES))
    def test_put_many_equals_sequential_puts(self, tmp_path, initial, later,
                                             sets):
        items = [("d1", inf) for inf in sets]
        outcomes = []
        for name in ("each", "many"):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(initial, encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a torn tail warns
                cache = InferenceCache(path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(later)
            if name == "each":
                returned = [cache.put(*item) for item in items]
            else:
                returned = cache.put_many(items)
            held = [cache.get("d1", f"m{i}", "fixture") for i in range(5)]
            outcomes.append((returned, held, path.read_bytes()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("sets", [
        [_set("m2"), _set("m1", "Other.")],
        [_set("m2"), _set("m3"), _set("m2", "Other.")],
    ], ids=["key written before", "earlier item"])
    def test_put_many_conflict_raises_before_writing(self, tmp_path, sets):
        path = tmp_path / "cache.jsonl"
        cache = InferenceCache(path)
        cache.put("d1", _set("m1"))
        written = path.read_bytes()
        with pytest.raises(ValueError, match="immutable"):
            cache.put_many([("d1", inf) for inf in sets])
        assert path.read_bytes() == written
        assert len(cache) == 1

    def test_write_error_names_the_path(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = InferenceCache(path)
        path.mkdir()
        with pytest.raises(InferenceError) as error:
            cache.put("d1", _set("m1"))
        assert str(error.value) == f"{path}: Is a directory"
        assert len(cache) == 0

    def test_second_writer_adopts_first_writers_set(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "cache.jsonl")
        Path(path).write_text(_record_line("m0"), encoding="utf-8")
        second = InferenceCache(path)
        first = multiprocessing.get_context("spawn").Process(
            target=_put_one, args=(path, "m1", "First."))
        first.start()
        first.join(120)
        assert first.exitcode == 0
        provider = CountingProvider({"before": ("Second.",), "after": ()})
        got = get_inferences(provider, _corpus("m1"), GenerationConfig(),
                             second)["m1"]
        assert provider.calls == 1 and got.before == ("First.",)
        assert second.get("d1", "m1", "fixture").before == ("First.",)
        assert get_inferences(provider, _corpus("m1"), GenerationConfig(),
                              second)["m1"] == got
        assert len(Path(path).read_text("utf-8").splitlines()) == 2
        # the next put appends after the other process's record
        second.put("d1", InferenceSet("m2", ("B.",), ("A.",), "fixture"))
        assert [r[1] for r in read_records(path)] == ["m0", "m1", "m2"]

    def test_corrupt_line_from_another_writer_named_at_its_line(self,
                                                                tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(_record_line("m1") + _record_line("m2"),
                        encoding="utf-8")
        cache = InferenceCache(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_record_line("m3") + "{not json\n")
        with pytest.raises(InferenceError, match=r"cache\.jsonl:4: "):
            cache.put("d1", InferenceSet("m5", ("B.",), ("A.",), "fixture"))

    def test_torn_tail_skipped_then_truncated_by_next_put(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        torn = _record_line("m3")[:25]
        path.write_text(_record_line("m1") + _record_line("m2") + torn,
                        encoding="utf-8")
        with pytest.warns(UserWarning, match="torn"):
            cache = InferenceCache(path)
        assert len(cache) == 2
        cache.put("d1", InferenceSet("m4", ("B.",), ("A.",), "fixture"))
        lines = path.read_text("utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 4
        assert [json.loads(line)["mention_id"] for line in lines[:-1]] == [
            "m1", "m2", "m4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = InferenceCache(path)
        assert len(reloaded) == 3
        assert all(reloaded.get("d1", m, "fixture") is not None
                   for m in ("m1", "m2", "m4"))

    def test_unterminated_complete_record_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(_record_line("m1") + _record_line("m2").rstrip(),
                        encoding="utf-8")
        cache = InferenceCache(path)
        assert len(cache) == 2
        cache.put("d1", InferenceSet("m3", ("B.",), ("A.",), "fixture"))
        assert len(InferenceCache(path)) == 3

    def test_first_record_of_a_duplicated_key_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        later = _record_line("m1").replace("B m1.", "later.")
        path.write_text(_record_line("m1") + later, encoding="utf-8")
        assert read_records(path)[("d1", "m1", "fixture")]["before"] == [
            "B m1."]
        assert InferenceCache(path).get("d1", "m1", "fixture").before == (
            "B m1.",)

    @pytest.mark.parametrize("bad", [
        "{not json\n",
        json.dumps({"doc_id": "d1", "mention_id": "mx", "before": [],
                    "after": []}) + "\n",
        "[1, 2]\n",
        _record_line("mx").replace('["B mx."]', '"x"'),
        _record_line("mx").replace('"mx"', "[]"),
        _record_line("mx").replace('["A mx."]', "[1]")])
    def test_corrupt_middle_line_raises_with_line_number(self, tmp_path,
                                                         bad):
        path = tmp_path / "cache.jsonl"
        path.write_text(_record_line("m1") + bad + _record_line("m2"),
                        encoding="utf-8")
        with pytest.raises(InferenceError, match=r"cache\.jsonl:2: "):
            InferenceCache(path)
        with pytest.raises(InferenceError, match=r"cache\.jsonl:2: "):
            FixtureProvider(path=path)


class TestFixtureProvider:
    def test_verbatim_lookup(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        record = {"doc_id": "d1", "mention_id": "m1", "before": ["b1."],
                  "after": ["a1."], "provenance": "fixture"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        provider = FixtureProvider(path=path)
        result = provider.generate(_mention(), "ctx", GenerationConfig())
        assert result.before == ("b1.",)
        assert result.after == ("a1.",)

    def test_strict_missing_raises(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_bytes(b"")
        provider = FixtureProvider(path, strict=True)
        with pytest.raises(InferenceError, match="m1"):
            provider.generate(_mention(), "ctx", GenerationConfig())

    def test_lenient_missing_warns_empty(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_bytes(b"")
        provider = FixtureProvider(path, strict=False)
        with pytest.warns(UserWarning, match="m1"):
            result = provider.generate(_mention(), "ctx", GenerationConfig())
        assert result.before == () and result.after == ()

    @pytest.mark.parametrize("side, sentences", [
        ("before", ["b1.", 2]), ("after", [None]), ("after", [["a1."]])])
    def test_non_string_sentence_named_at_its_line(self, tmp_path, side,
                                                   sentences):
        path = tmp_path / "fixtures.jsonl"
        record = {"doc_id": "d1", "mention_id": "m2", "before": ["b2."],
                  "after": ["a2."], "provenance": "fixture", side: sentences}
        path.write_text(_record_line("m1") + json.dumps(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(InferenceError) as exc:
            FixtureProvider(path)
        assert str(exc.value) == (
            f"{path}:2: inference record field {side!r} must be an array "
            f"of strings")

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_whitespace_only_sentence_rejected(self, tmp_path, side):
        path = tmp_path / "fixtures.jsonl"
        record = {"doc_id": "d1", "mention_id": "m1", "before": ["b1."],
                  "after": ["a1."], "provenance": "fixture",
                  side: ["ok.", " \t "]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match="^inference sentences must be non-empty$"):
            FixtureProvider(path)

    def test_served_sets_cut_to_k_and_labelled_fixture(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        record = {"doc_id": "d1", "mention_id": "m1",
                  "before": [" b1. ", "b2.", "b3."], "after": ["a1."],
                  "provenance": "synthetic"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        provider = FixtureProvider(path)
        result = provider.generate(_mention(), "ctx", GenerationConfig(k=2))
        assert result == InferenceSet("m1", ("b1.", "b2."), ("a1.",),
                                      "fixture")
        whole = provider.generate(_mention(), "ctx", GenerationConfig(k=3))
        assert whole.before == ("b1.", "b2.", "b3.")


class _GenHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        server = self.server
        server.requests.append(
            {"payload": payload,
             "auth": self.headers.get("Authorization")})
        if server.fail_first and len(server.requests) <= server.fail_first:
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps({"completion": server.completion}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def generation_server():
    server = HTTPServer(("127.0.0.1", 0), _GenHandler)
    server.requests = []
    server.fail_first = 0
    server.completion = " First thing. Second thing.\nAfter: Third thing. END"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestGenerationService:
    def provider(self, server, **kwargs):
        kwargs.setdefault("sleep", lambda s: None)
        return GenerationServiceProvider(
            f"http://127.0.0.1:{server.server_port}/", model_id="m-test",
            **kwargs)

    def test_happy_path(self, generation_server):
        provider = self.provider(generation_server)
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        result = provider.generate(mention, "the plane landed",
                                   GenerationConfig())
        assert result.before == ("First thing.", "Second thing.")
        assert result.after == ("Third thing.",)
        assert result.provenance == "service:m-test"
        request = generation_server.requests[0]["payload"]
        assert set(request) == {"prompt", "top_p", "max_tokens", "stop"}
        assert request["top_p"] == 0.9
        assert request["max_tokens"] == 150
        assert request["stop"] == "END"

    def test_retry_then_success(self, generation_server):
        generation_server.fail_first = 2
        sleeps = []
        provider = self.provider(generation_server, sleep=sleeps.append)
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        result = provider.generate(mention, "the plane landed",
                                   GenerationConfig())
        assert result.before
        assert len(generation_server.requests) == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff from 1s

    def test_failure_after_retries(self, generation_server):
        generation_server.fail_first = 99
        provider = self.provider(generation_server)
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        with pytest.raises(InferenceError, match="503"):
            provider.generate(mention, "the plane landed",
                              GenerationConfig())
        assert len(generation_server.requests) == 3

    @pytest.mark.parametrize("completion", [5, None, ["a"]])
    def test_malformed_reply_fails_at_once(self, generation_server,
                                           completion):
        """A 200 reply off the protocol is not retried: one POST, no
        backoff wait."""
        generation_server.completion = completion
        sleeps = []
        provider = self.provider(generation_server, sleep=sleeps.append)
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        with pytest.raises(InferenceError, match="'completion'"):
            provider.generate(mention, "the plane landed",
                              GenerationConfig())
        assert len(generation_server.requests) == 1
        assert sleeps == []

    def test_credential_sent_not_cached(self, generation_server, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv(GENERATION_CREDENTIAL_ENV, "sekrit-token")
        provider = self.provider(generation_server)
        corpus = Corpus([Document("d1", "t0", "t0_s0",
                                  [["the", "plane", "landed"]])],
                        [Mention("m1", "d1", 0, 2, 2, "landed")])
        cache_path = tmp_path / "cache.jsonl"
        cache = InferenceCache(cache_path)
        get_inferences(provider, corpus, GenerationConfig(), cache)
        assert generation_server.requests[0]["auth"] == "Bearer sekrit-token"
        assert "sekrit-token" not in cache_path.read_text("utf-8")

    def test_no_credential_no_header(self, generation_server, monkeypatch):
        monkeypatch.delenv(GENERATION_CREDENTIAL_ENV, raising=False)
        provider = self.provider(generation_server)
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        provider.generate(mention, "the plane landed", GenerationConfig())
        assert generation_server.requests[0]["auth"] is None

    def test_fewshot_provenance(self, generation_server):
        provider = self.provider(generation_server,
                                 exemplars=make_exemplars())
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        result = provider.generate(mention, "the plane landed",
                                   GenerationConfig(mode="fewshot"))
        assert result.provenance == "fewshot:m-test"


class TestBulk:
    def test_bulk_dedupes_and_caches(self, tmp_path, tiny_corpus):
        provider = CountingProvider()
        cache = InferenceCache(tmp_path / "cache.jsonl")
        config = GenerationConfig()
        results = get_inferences(provider, tiny_corpus, config, cache)
        assert len(results) == 3
        assert provider.calls == 3
        again = get_inferences(provider, tiny_corpus, config, cache)
        assert provider.calls == 3
        assert results.keys() == again.keys()

    def test_cache_bytes_independent_of_completion_order(self, tmp_path):
        class SleepingProvider(CountingProvider):
            """Generations finish in an order drawn from ``seed``."""
            def __init__(self, seed):
                super().__init__()
                self.seed = seed

            def generate(self, mention, context, config):
                time.sleep(random.Random(f"{self.seed}:{mention.mention_id}")
                           .uniform(0.0, 0.02))
                return InferenceSet(mention.mention_id,
                                    (f"{mention.mention_id} before.",),
                                    (f"{mention.mention_id} after.",),
                                    "fixture")

        corpus = _numbered_corpus(range(16))
        blobs = []
        for seed in (0, 1):
            path = tmp_path / f"cache{seed}.jsonl"
            results = get_inferences(SleepingProvider(seed), corpus,
                                     GenerationConfig(), InferenceCache(path))
            assert list(results) == [f"m{i:03d}" for i in range(16)]
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("n, build", [
        pytest.param(n, build, id=f"build-{n}" if build else str(n))
        for build in (False, True)
        for n in (3, 8, 4 * BULK_CHUNK, 5 * BULK_CHUNK)])
    def test_chunks_keep_every_thread_generating(self, n, build):
        """Each generation waits until ``min(n, BULK_CONCURRENCY)`` are in
        flight, which needs that many chunks of equal size; a dataset build
        fetches through the same pool."""
        meeting = threading.Barrier(min(n, BULK_CONCURRENCY), timeout=10)

        class MeetingProvider(CountingProvider):
            def generate(self, mention, context, config):
                meeting.wait()
                return super().generate(mention, context, config)

        corpus = _numbered_corpus(range(n))
        if build:
            data = build_dataset(corpus, EmbedderConfig(d=4), "intra",
                                 inference_source=MeetingProvider(),
                                 labeled=False)
            assert data.sentences == ["B one.", "A one."] * n
        else:
            results = get_inferences(MeetingProvider(), corpus,
                                     GenerationConfig())
            assert len(results) == n

    def test_interrupted_fill_resumes_to_the_same_bytes(self, tmp_path):
        class LoggedFixtures(FixtureProvider):
            def __init__(self, path):
                super().__init__(path)
                self.calls = []

            def generate(self, mention, context, config):
                self.calls.append(mention.mention_id)
                return super().generate(mention, context, config)

        n, fail_at = 100, 60
        ids = [f"m{i:03d}" for i in range(n)]
        corpus = _numbered_corpus(range(n))
        lines = [encode_record("d1", InferenceSet(m, (f"{m} before.",),
                                                  (f"{m} after.",),
                                                  "fixture"))[1]
                 for m in ids]
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_bytes(b"".join(lines))
        holed = tmp_path / "holed.jsonl"
        holed.write_bytes(b"".join(lines[:fail_at] + lines[fail_at + 1:]))
        config = GenerationConfig()
        path = tmp_path / "cache.jsonl"
        with pytest.raises(InferenceError, match=f"'{ids[fail_at]}'"):
            get_inferences(FixtureProvider(holed), corpus, config,
                           InferenceCache(path))
        assert [key[1] for key in read_records(path)] == ids[:fail_at]
        resumed = LoggedFixtures(fixtures)
        get_inferences(resumed, corpus, config, InferenceCache(path))
        assert sorted(resumed.calls) == ids[fail_at:]
        whole = tmp_path / "whole.jsonl"
        get_inferences(FixtureProvider(fixtures), corpus, config,
                       InferenceCache(whole))
        assert path.read_bytes() == whole.read_bytes()


    def test_chunks_after_a_failure_stop_generating(self, tmp_path):
        """The first mention of each of the 4 chunks meets the others before
        the first chunk's fails; the later chunks then stop at their next
        mention instead of generating the rest of their chunk."""
        n = BULK_CONCURRENCY * BULK_CHUNK
        meeting = threading.Barrier(BULK_CONCURRENCY, timeout=10)

        class FailingProvider(CountingProvider):
            def generate(self, mention, context, config):
                number = int(mention.mention_id[1:])
                if number % BULK_CHUNK == 0:
                    meeting.wait()
                    if number == 0:
                        raise InferenceError("m000 failed")
                else:
                    time.sleep(0.05)
                return super().generate(mention, context, config)

        provider = FailingProvider()
        path = tmp_path / "cache.jsonl"
        with pytest.raises(InferenceError, match="m000"):
            get_inferences(provider, _numbered_corpus(range(n)),
                           GenerationConfig(), InferenceCache(path))
        assert provider.calls <= 2 * BULK_CONCURRENCY
        assert not path.exists()  # nothing before the failure to store


    def test_failed_store_stops_generating(self, tmp_path):
        """The first chunk's store fails while the threads generate the
        second round of chunks; they stop instead of finishing it."""
        n = 2 * BULK_CONCURRENCY * BULK_CHUNK

        class SlowProvider(CountingProvider):
            def generate(self, mention, context, config):
                time.sleep(0.002)
                return super().generate(mention, context, config)

        class FullDisk(InferenceCache):
            def put_many(self, items):
                raise InferenceError(f"{self.path}: no space left")

        provider = SlowProvider()
        with pytest.raises(InferenceError, match="no space left"):
            get_inferences(provider, _numbered_corpus(range(n)),
                           GenerationConfig(),
                           FullDisk(tmp_path / "cache.jsonl"))
        assert provider.calls < n // 2 + BULK_CHUNK


class TestServiceBackedDataset:
    def test_training_data_through_generation_service(self, tmp_path,
                                                      generation_server,
                                                      tiny_corpus):
        """Full route: prompt -> service -> parse -> embed -> pair tensors."""
        from cscoref.embed import EmbedderConfig
        from cscoref.training import build_dataset

        provider = GenerationServiceProvider(
            f"http://127.0.0.1:{generation_server.server_port}/",
            model_id="stub", sleep=lambda s: None)
        cache = InferenceCache(tmp_path / "cache.jsonl")
        emb = EmbedderConfig(provider="hash", d=8, d_len=4,
                             max_width_bucket=4)
        data = build_dataset(tiny_corpus, emb, "intra",
                             inference_source=provider,
                             gen_config=GenerationConfig(k=5), cache=cache)
        # the stub completion has 2 before and 1 after sentence per mention
        assert (data.before_idx >= 0).sum() == 2 * 3
        assert (data.after_idx >= 0).sum() == 1 * 3
        assert len(generation_server.requests) == 3
        prompt = generation_server.requests[0]["payload"]["prompt"]
        assert prompt.startswith("Context: ") and prompt.endswith("Before:")
        # the cache satisfies a rebuild without new service calls
        build_dataset(tiny_corpus, emb, "intra", inference_source=provider,
                      gen_config=GenerationConfig(k=5), cache=cache)
        assert len(generation_server.requests) == 3


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig()
        assert (config.top_p, config.max_tokens, config.stop, config.k,
                config.mode) == (0.9, 150, "END", 5, "finetuned")

    @pytest.mark.parametrize("kwargs", [dict(top_p=0.0), dict(top_p=1.2),
                                        dict(max_tokens=0), dict(k=0),
                                        dict(mode="zero-shot")])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)
