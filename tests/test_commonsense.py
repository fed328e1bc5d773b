import itertools
import json
import random
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from cscoref.commonsense import (GENERATION_CREDENTIAL_ENV, FixtureProvider,
                                 GenerationConfig, GenerationServiceProvider,
                                 InferenceCache, InferenceError,
                                 InferenceSet, PromptExemplar, format_prompt,
                                 get_inferences, get_inferences_bulk,
                                 parse_completion, read_records,
                                 split_sentences)
from cscoref.corpus import Mention

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
        first = get_inferences(provider, _mention(), "ctx", config, cache)
        second = get_inferences(provider, _mention(), "ctx", config, cache)
        assert provider.calls == 1
        assert first == second

    def test_cache_survives_restart(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        provider = CountingProvider()
        config = GenerationConfig()
        get_inferences(provider, _mention(), "ctx", config,
                       InferenceCache(path))
        get_inferences(provider, _mention(), "ctx", config,
                       InferenceCache(path))
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
        get_inferences(provider, _mention(), "ctx", GenerationConfig(k=5),
                       InferenceCache(path))
        small = GenerationConfig(k=2)
        for cache in (InferenceCache(path), InferenceCache(path)):
            hit = get_inferences(provider, _mention(), "ctx", small, cache)
            assert hit.before == five[:2] and hit.after == five[:2]
        assert provider.calls == 1
        assert InferenceCache(path).get("d1", "m1", "fixture").before == five


def _record_line(mention_id, doc_id="d1"):
    return json.dumps({"doc_id": doc_id, "mention_id": mention_id,
                       "before": [f"B {mention_id}."],
                       "after": [f"A {mention_id}."],
                       "provenance": "fixture"}) + "\n"


def _put_one(path, mention_id, before):
    get_inferences(CountingProvider({"before": (before,), "after": ()}),
                   _mention(mention_id), "ctx", GenerationConfig(),
                   InferenceCache(path))


def _put_many(path, prefix, n, barrier):
    cache = InferenceCache(path)
    barrier.wait()
    for i in range(n):
        cache.put("d1", InferenceSet(f"{prefix}{i}", (f"B {i}.",),
                                     (f"A {i}.",), "fixture"))


class TestAppendOnlyLog:
    def test_concurrent_writers_keep_every_record(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "cache.jsonl")
        n = 100
        prefixes = ("a", "b", "c", "d")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(len(prefixes))
        workers = [ctx.Process(target=_put_many,
                               args=(path, prefix, n, barrier))
                   for prefix in prefixes]
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
        assert [w.exitcode for w in workers] == [0] * len(prefixes)
        cache = InferenceCache(path)
        assert len(cache) == len(prefixes) * n
        for prefix in prefixes:
            for i in range(n):
                got = cache.get("d1", f"{prefix}{i}", "fixture")
                assert got.before == (f"B {i}.",)

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
        got = get_inferences(provider, _mention("m1"), "ctx",
                             GenerationConfig(), second)
        assert provider.calls == 1 and got.before == ("First.",)
        assert second.get("d1", "m1", "fixture").before == ("First.",)
        assert get_inferences(provider, _mention("m1"), "ctx",
                              GenerationConfig(), second) == got
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

    def test_credential_sent_not_cached(self, generation_server, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv(GENERATION_CREDENTIAL_ENV, "sekrit-token")
        provider = self.provider(generation_server)
        mention = Mention("m1", "d1", 0, 1, 1, "landed")
        cache_path = tmp_path / "cache.jsonl"
        cache = InferenceCache(cache_path)
        get_inferences(provider, mention, "the plane landed",
                       GenerationConfig(), cache)
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
        results = get_inferences_bulk(provider, tiny_corpus, config, cache)
        assert len(results) == 3
        assert provider.calls == 3
        again = get_inferences_bulk(provider, tiny_corpus, config, cache)
        assert provider.calls == 3
        assert results.keys() == again.keys()

    def test_cache_bytes_independent_of_completion_order(self, tmp_path):
        from cscoref.corpus import Corpus, Document

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

        doc = Document("d1", "t0", "t0_s0",
                       [["w", str(i), "."] for i in range(16)])
        corpus = Corpus([doc], [Mention(f"m{i:02d}", "d1", i, 1, 1, str(i))
                                for i in range(16)])
        blobs = []
        for seed in (0, 1):
            path = tmp_path / f"cache{seed}.jsonl"
            results = get_inferences_bulk(SleepingProvider(seed), corpus,
                                          GenerationConfig(),
                                          InferenceCache(path))
            assert list(results) == [f"m{i:02d}" for i in range(16)]
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


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
