import json

import pytest

from cscoref.corpus import (Clustering, Corpus, CorpusFormatError, Document,
                            Mention, candidate_pairs, corpus_to_lines,
                            load_corpus, validate_stats, write_corpus)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


DOC_LINE = json.dumps({"doc": {"doc_id": "d1", "topic_id": "t0",
                               "subtopic_id": "t0_s0",
                               "sentences": [["hello", "world"]]}})


def mention_line(**overrides):
    body = {"mention_id": "m1", "doc_id": "d1", "sentence_index": 0,
            "token_start": 0, "token_end": 0, "text": "hello",
            "gold_cluster_id": "g1"}
    body.update(overrides)
    return json.dumps({"mention": body})


class TestLoadCorpus:
    def test_minimal_wellformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, mention_line()])
        corpus = load_corpus(path)
        assert len(corpus.documents) == 1
        assert len(corpus.mentions) == 1
        assert corpus.mentions["m1"].text == "hello"

    def test_span_out_of_bounds_names_mention(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, mention_line(token_end=2, text="x y z")])
        with pytest.raises(CorpusFormatError, match="m1"):
            load_corpus(path)

    def test_duplicate_mention_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, mention_line(), mention_line()])
        with pytest.raises(CorpusFormatError, match="duplicate mention_id"):
            load_corpus(path)

    def test_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, DOC_LINE])
        with pytest.raises(CorpusFormatError, match="duplicate doc_id"):
            load_corpus(path)

    def test_text_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, mention_line(text="goodbye")])
        with pytest.raises(CorpusFormatError, match="does not match"):
            load_corpus(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = json.loads(DOC_LINE)
        bad["doc"]["surprise"] = 1
        write_lines(path, [json.dumps(bad)])
        with pytest.raises(CorpusFormatError, match="surprise"):
            load_corpus(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, "{not json"])
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [json.dumps({"banana": {}})])
        with pytest.raises(CorpusFormatError, match="banana"):
            load_corpus(path)

    def test_mention_for_unknown_doc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [mention_line()])
        with pytest.raises(CorpusFormatError, match="unknown doc"):
            load_corpus(path)

    def test_empty_sentence_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        doc = json.loads(DOC_LINE)
        doc["doc"]["sentences"] = [[]]
        write_lines(path, [json.dumps(doc)])
        with pytest.raises(CorpusFormatError, match="empty"):
            load_corpus(path)

    @pytest.mark.parametrize("lines, message", [
        ([json.dumps({"doc": dict(json.loads(DOC_LINE)["doc"], sentences=[
            ["hello", "world"], ["a", "", "b"]])})],
         "line 1: document 'd1': sentence 1 has a non-string or empty "
         "token"),
        ([json.dumps({"doc": dict(json.loads(DOC_LINE)["doc"], sentences=[
            ["hello", 7]])})],
         "line 1: document 'd1': sentence 0 has a non-string or empty "
         "token"),
        ([DOC_LINE, mention_line(zeta=1, extra="x")],
         "line 2: unknown field(s) ['extra', 'zeta'] in mention record"),
        ([DOC_LINE, json.dumps({"mention": {"mention_id": "m1",
                                            "doc_id": "d1",
                                            "sentence_index": 0,
                                            "token_start": 0}})],
         "line 2: missing field(s) ['text', 'token_end'] in mention "
         "record"),
    ])
    def test_rejections_name_line_and_field(self, tmp_path, lines,
                                            message):
        path = tmp_path / "c.jsonl"
        write_lines(path, lines)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        # named as path:line
        assert str(exc.value) == f"{path}:{message.removeprefix('line ')}"

    @pytest.mark.parametrize("line", [
        "\ufeff" + DOC_LINE, DOC_LINE + " x", DOC_LINE + DOC_LINE,
        "{not json", "[1, 2", "1 2", '"unterminated'])
    def test_invalid_json_named_as_json_loads_names_it(self, tmp_path,
                                                        line):
        path = tmp_path / "c.jsonl"
        write_lines(path, [DOC_LINE, line])
        with pytest.raises(json.JSONDecodeError) as reference:
            json.loads(line.strip())
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value) == (
            f"{path}:2: not valid JSON ({reference.value.msg})")

    @pytest.mark.parametrize("lineno", [1, 2, 300])
    def test_not_utf8_named_with_line(self, tmp_path, lineno):
        """The decoder reads ahead in blocks; the line is the bad byte's."""
        path = tmp_path / "c.jsonl"
        lines = [DOC_LINE.encode()] * 300
        lines[lineno - 1] = lines[lineno - 1].replace(b"hello", b"hel\xfflo")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}:{lineno}: not valid UTF-8"

    def test_directory_named(self, tmp_path):
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == f"{tmp_path}: Is a directory"


class TestRoundTrip:
    def test_write_load_bytes(self, tmp_path, tiny_corpus):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_corpus(tiny_corpus, p1)
        write_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gold_cluster_id_omitted_when_absent(self):
        doc = Document("d", "t", "s", [["a"]])
        corpus = Corpus([doc], [Mention("m", "d", 0, 0, 0, "a")])
        lines = corpus_to_lines(corpus)
        assert "gold_cluster_id" not in lines[1]


class TestUnits:
    def test_keys_per_scope(self, two_topic_corpus):
        def ids(scope):
            return {unit: [m.mention_id for m in members] for unit, members
                    in two_topic_corpus.units(scope).items()}
        assert ids("subtopic") == {"t0_s0": ["p1", "p2"],
                                   "t1_s0": ["p3", "p4"]}
        assert ids("topic") == {"t0": ["p1", "p2"], "t1": ["p3", "p4"]}
        assert ids("corpus") == {"corpus": ["p1", "p2", "p3", "p4"]}

    def test_span_order_within_unit(self, tiny_corpus):
        members = tiny_corpus.units("subtopic")["t0_s0"]
        assert [m.mention_id for m in members] == ["m1", "m3", "m2"]

    @pytest.mark.parametrize("scope", ["Topic", "subtopics", ""])
    def test_unknown_scope_rejected(self, tiny_corpus, scope):
        with pytest.raises(ValueError, match="scope"):
            tiny_corpus.units(scope)

    def test_subtopic_under_two_topics_rejected(self):
        docs = [Document("d1", "t0", "s0", [["go"]]),
                Document("d2", "t1", "s0", [["go"]])]
        with pytest.raises(CorpusFormatError, match="'s0'"):
            Corpus(docs, [])


class TestCandidatePairs:
    def test_three_mentions_three_pairs(self, tiny_corpus):
        pairs = candidate_pairs(tiny_corpus, scope="subtopic")
        assert len(pairs) == 3

    def test_cross_subtopic_no_pairs(self):
        docs = [Document("d1", "t0", "s0", [["go"]]),
                Document("d2", "t0", "s1", [["go"]])]
        mentions = [Mention("m1", "d1", 0, 0, 0, "go", gold_cluster_id="a"),
                    Mention("m2", "d2", 0, 0, 0, "go", gold_cluster_id="a")]
        corpus = Corpus(docs, mentions)
        assert candidate_pairs(corpus, scope="subtopic") == []
        assert len(candidate_pairs(corpus, scope="topic")) == 1
        assert len(candidate_pairs(corpus, scope="corpus")) == 1

    def test_labels_from_gold(self, tiny_corpus):
        pairs = {(p.first, p.second): p.label
                 for p in candidate_pairs(tiny_corpus)}
        assert pairs[("m1", "m3")] == 0  # same doc, different clusters
        assert pairs[("m1", "m2")] == 1 or pairs[("m2", "m1")] == 1

    def test_label_consistency_with_partition(self, tiny_corpus):
        pairs = candidate_pairs(tiny_corpus)
        gold = tiny_corpus.gold_clustering()
        for p in pairs:
            expected = int(gold.cluster_of(p.first)
                           == gold.cluster_of(p.second))
            assert p.label == expected

    def test_missing_gold_raises(self):
        docs = [Document("d1", "t0", "s0", [["a", "b"]])]
        mentions = [Mention("m1", "d1", 0, 0, 0, "a"),
                    Mention("m2", "d1", 0, 1, 1, "b")]
        corpus = Corpus(docs, mentions)
        with pytest.raises(CorpusFormatError, match="gold"):
            candidate_pairs(corpus, labeled=True)
        assert len(candidate_pairs(corpus, labeled=False)) == 1

    def test_canonical_order(self, tiny_corpus):
        for p in candidate_pairs(tiny_corpus):
            a = tiny_corpus.mentions[p.first]
            b = tiny_corpus.mentions[p.second]
            assert a.span_key() < b.span_key()

    def test_pair_count_is_choose_two(self, two_topic_corpus):
        pairs = candidate_pairs(two_topic_corpus, scope="subtopic")
        assert len(pairs) == 2  # C(2,2) per subtopic, two subtopics
        pairs = candidate_pairs(two_topic_corpus, scope="corpus")
        assert len(pairs) == 6  # C(4,2)


class TestValidateStats:
    def test_empty_corpus_zero_expected(self):
        corpus = Corpus([], [])
        report = validate_stats(corpus, {"mentions": 0, "clusters": 0})
        assert report.passed

    def test_counts_match(self, tiny_corpus):
        report = validate_stats(tiny_corpus, {"mentions": 3, "clusters": 2})
        assert report.passed

    def test_mismatch_reported(self, tiny_corpus):
        report = validate_stats(tiny_corpus, {"mentions": 5, "clusters": 2})
        assert not report.passed
        assert ("mentions", 5, 3) in report.mismatches
        assert "FAIL" in str(report)


class TestClustering:
    def test_partition_semantics(self):
        c = Clustering({"a": "x", "b": "x", "c": "y"})
        assert c.mentions == {"a", "b", "c"}
        assert c.clusters() == {"x": {"a", "b"}, "y": {"c"}}
        assert len(c) == 2

    def test_equality_ignores_labels(self):
        c1 = Clustering({"a": "x", "b": "x"})
        c2 = Clustering({"a": "q", "b": "q"})
        assert c1 == c2
        assert c1 != Clustering({"a": "x", "b": "y"})
