import pytest

from cscoref.corpus import SCOPES, Clustering, Corpus, Document, Mention
from cscoref.metrics import (Contingency, EvalOptions, GoldKey, MetricScore,
                             b_cubed, ceaf_e, ceaf_e_table, conll_f1,
                             evaluate, muc)

from oracles import (b_cubed_oracle, ceaf_e_oracle, evaluate_oracle,
                     muc_oracle, random_clustering)


def clustering(groups):
    return Clustering({m: f"c{i}" for i, group in enumerate(groups)
                       for m in group})


class TestMuc:
    def test_identity(self):
        key = clustering([["a", "b"], ["c", "d"]])
        score = muc(key, key)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_hand_worked_example(self):
        # key {a,b,c,d}; response {a,b},{c,d}: R = 2/3, P = 1, F1 = 0.8
        key = clustering([["a", "b", "c", "d"]])
        response = clustering([["a", "b"], ["c", "d"]])
        score = muc(key, response)
        assert score.recall == pytest.approx(2 / 3, abs=1e-12)
        assert score.precision == pytest.approx(1.0, abs=1e-12)
        assert score.f1 == pytest.approx(0.8, abs=1e-9)

    def test_all_singleton_response(self):
        key = clustering([["a", "b", "c"]])
        response = clustering([["a"], ["b"], ["c"]])
        score = muc(key, response)
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            muc(clustering([["a"]]), clustering([["b"]]))


class TestBCubed:
    def test_identity(self):
        key = clustering([["a", "b"], ["c"]])
        assert b_cubed(key, key).f1 == 1.0

    def test_hand_worked_example(self):
        # key {a,b,c}; response {a,b},{c}: P = 1, R = 5/9, F1 = 5/7
        key = clustering([["a", "b", "c"]])
        response = clustering([["a", "b"], ["c"]])
        score = b_cubed(key, response)
        assert score.precision == pytest.approx(1.0, abs=1e-12)
        assert score.recall == pytest.approx(5 / 9, abs=1e-12)
        assert score.f1 == pytest.approx(5 / 7, abs=1e-9)

    def test_one_cluster_vs_singletons(self):
        n = 6
        members = [f"m{i}" for i in range(n)]
        key = clustering([members])
        response = clustering([[m] for m in members])
        score = b_cubed(key, response)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(1 / n)


class TestCeafE:
    def test_identity(self):
        key = clustering([["a", "b"], ["c"]])
        assert ceaf_e(key, key).f1 == 1.0

    def test_hand_worked_example(self):
        # key {a,b},{c}; response {a,c},{b}: the maximizing alignment pairs
        # {a,b} with {b} (phi 2/3) and {c} with {a,c} (phi 2/3), total 4/3
        key = clustering([["a", "b"], ["c"]])
        response = Clustering({"a": "x", "c": "x", "b": "y"})
        score = ceaf_e(key, response)
        assert score.precision == pytest.approx(2 / 3, abs=1e-9)
        assert score.recall == pytest.approx(2 / 3, abs=1e-9)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-9)


class TestConll:
    def test_values(self):
        ones = MetricScore(1, 1, 1.0)
        assert conll_f1([ones, ones, ones]) == 1.0
        mixed = [MetricScore(0, 0, 0.8), MetricScore(0, 0, 5 / 7),
                 MetricScore(0, 0, 0.25)]
        assert conll_f1(mixed) == pytest.approx(0.5880952380952381,
                                                abs=1e-4)
        zeros = MetricScore(0, 0, 0.0)
        assert conll_f1([zeros, zeros, zeros]) == 0.0

    def test_requires_three(self):
        with pytest.raises(ValueError):
            conll_f1([MetricScore(1, 1, 1)])


class TestSymmetryAndInvariance:
    def test_swap_exchanges_precision_recall(self, rng):
        mentions = [f"m{i}" for i in range(8)]
        for _ in range(100):
            key = Clustering(random_clustering(rng, mentions, 4))
            response = Clustering(random_clustering(rng, mentions, 4))
            for metric in (muc, b_cubed, ceaf_e):
                fwd = metric(key, response)
                rev = metric(response, key)
                assert fwd.precision == pytest.approx(rev.recall, abs=1e-12)
                assert fwd.recall == pytest.approx(rev.precision, abs=1e-12)

    def test_relabeling_invariance(self, rng):
        mentions = [f"m{i}" for i in range(6)]
        key = Clustering(random_clustering(rng, mentions, 3))
        response = Clustering(random_clustering(rng, mentions, 3))
        relabeled = Clustering({m: f"zz_{c}"
                                for m, c in response.assignment.items()})
        for metric in (muc, b_cubed, ceaf_e):
            a = metric(key, response)
            b = metric(key, relabeled)
            assert (a.precision, a.recall, a.f1) == (b.precision, b.recall,
                                                     b.f1)

    def test_perfect_iff_equal(self, rng):
        mentions = [f"m{i}" for i in range(6)]
        for _ in range(200):
            key = Clustering(random_clustering(rng, mentions, 4))
            response = Clustering(random_clustering(rng, mentions, 4))
            equal = key == response
            all_one = all(metric(key, response).f1 == pytest.approx(1.0)
                          for metric in (muc, b_cubed, ceaf_e))
            if equal:
                assert all_one
            if all_one and len(key.clusters()) > 1:
                # B3/CEAF at 1.0 pins the partition exactly
                assert equal

    def test_scores_in_unit_interval(self, rng):
        mentions = [f"m{i}" for i in range(7)]
        for _ in range(200):
            key = Clustering(random_clustering(rng, mentions, 5))
            response = Clustering(random_clustering(rng, mentions, 5))
            for metric in (muc, b_cubed, ceaf_e):
                s = metric(key, response)
                assert 0.0 <= s.precision <= 1.0
                assert 0.0 <= s.recall <= 1.0
                assert 0.0 <= s.f1 <= 1.0


def _subtopic_corpus(groups_by_topic):
    """Corpus with one single-token mention per listed mention id."""
    docs, mentions = [], []
    for topic, groups in groups_by_topic.items():
        for ci, group in enumerate(groups):
            for mention_id in group:
                doc_id = f"{topic}_{mention_id}"
                docs.append(Document(doc_id, topic, f"{topic}_s0",
                                     [["evt"]]))
                mentions.append(Mention(mention_id, doc_id, 0, 0, 0, "evt",
                                        gold_cluster_id=f"{topic}_k{ci}"))
    return Corpus(docs, mentions)


class TestEvaluate:
    def test_gold_as_system_is_perfect(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"], ["c", "d"]],
                                   "t1": [["e", "f"]]})
        report = evaluate(corpus, corpus.gold_clustering())
        assert report.conll_f1 == pytest.approx(1.0)
        for scores in report.per_topic.values():
            for s in scores.values():
                assert s.f1 == pytest.approx(1.0)

    def test_two_topic_average(self):
        # t0 scored perfectly; t1 half-merged
        corpus = _subtopic_corpus({"t0": [["a", "b"]],
                                   "t1": [["c", "d"], ["e", "f"]]})
        system = Clustering({"a": "x", "b": "x",
                             "c": "y", "d": "y", "e": "y", "f": "y"})
        report = evaluate(corpus, system)
        t0 = conll_f1(list(report.per_topic["t0"].values()))
        t1 = conll_f1(list(report.per_topic["t1"].values()))
        assert report.conll_f1 == pytest.approx((t0 + t1) / 2)

    def test_singleton_removal_and_harmonization(self):
        # gold {a,b},{c}; system {a,b,c}: drop removes {c} from key, then
        # harmonization restores c as a key singleton
        corpus = _subtopic_corpus({"t0": [["a", "b"], ["c"]]})
        system = Clustering({"a": "x", "b": "x", "c": "x"})
        report = evaluate(corpus, system,
                          EvalOptions(drop_singletons=True))
        scores = report.per_topic["t0"]
        # hand trace on key {a,b},{c} vs response {a,b,c}:
        #   MUC: R = 1/1, P = (3-2)/(3-1) = 1/2
        #   B3:  R = (1+1+1)/3, P = (2/3 + 2/3 + 1/3)/3 = 5/9
        #   CEAF: best phi = phi({a,b},{a,b,c}) = 0.8 -> R = 0.4, P = 0.8
        assert scores["muc"].recall == pytest.approx(1.0)
        assert scores["muc"].precision == pytest.approx(0.5)
        assert scores["b_cubed"].recall == pytest.approx(1.0)
        assert scores["b_cubed"].precision == pytest.approx(5 / 9,
                                                            abs=1e-12)
        assert scores["ceaf_e"].recall == pytest.approx(0.4, abs=1e-12)
        assert scores["ceaf_e"].precision == pytest.approx(0.8, abs=1e-12)
        assert scores["ceaf_e"].f1 == pytest.approx(8 / 15, abs=1e-12)

    def test_system_missing_mention_rejected(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]]})
        with pytest.raises(ValueError, match="missing gold"):
            evaluate(corpus, Clustering({"a": "x"}))

    def test_all_singleton_gold_topic_skipped(self):
        corpus = _subtopic_corpus({"t0": [["a"], ["b"]],
                                   "t1": [["c", "d"]]})
        system = corpus.gold_clustering()
        report = evaluate(corpus, system)
        assert report.skipped_topics == ["t0"]
        assert "t0" not in report.per_topic

    def test_corpus_level_option(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]], "t1": [["c", "d"]]})
        report = evaluate(corpus, corpus.gold_clustering(),
                          EvalOptions(unit="corpus"))
        assert list(report.per_topic) == ["corpus"]
        assert report.to_dict()["options"] == {"drop_singletons": True,
                                               "unit": "corpus"}

    def test_extra_system_mentions_ignored(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]]})
        system = Clustering({"a": "x", "b": "x", "zz": "y"})
        report = evaluate(corpus, system)
        assert report.conll_f1 == pytest.approx(1.0)

    def test_report_table_renders(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]]})
        report = evaluate(corpus, corpus.gold_clustering())
        table = report.render_table()
        assert "MUC" in table and "CEAFe" in table and "ALL" in table
        as_dict = report.to_dict()
        assert as_dict["conll_f1"] == pytest.approx(1.0)


class TestHarmonize:
    def test_one_sided_mentions_become_singletons(self):
        # gold {a,b},{c}; system {a,c},{b}: singleton removal leaves key
        # {a,b} and response {a,c}; harmonization adds c to the key and b
        # to the response as singletons, which is criterion 2's pair
        corpus = _subtopic_corpus({"t0": [["a", "b"], ["c"]]})
        report = evaluate(corpus, Clustering({"a": "x", "c": "x", "b": "y"}))
        key = clustering([["a", "b"], ["c"]])
        response = clustering([["a", "c"], ["b"]])
        scores = report.per_topic["t0"]
        for name, metric in (("muc", muc), ("b_cubed", b_cubed),
                             ("ceaf_e", ceaf_e)):
            expected = metric(key, response)
            for field in ("precision", "recall", "f1"):
                assert getattr(scores[name], field) == pytest.approx(
                    getattr(expected, field), abs=1e-12)
        assert scores["ceaf_e"].f1 == pytest.approx(2 / 3, abs=1e-12)


def _random_eval_case(rng):
    """1-3 topics of 1-3 subtopics with 1-7 mentions each; gold clusters
    drawn within a topic (singletons common), a system clustering whose
    cluster ids cross units and which may cover extra mentions, random
    options, and a mention subset in a third of the cases."""
    docs, mentions = [], []
    for t in range(int(rng.integers(1, 4))):
        for s in range(int(rng.integers(1, 4))):
            doc = f"d{t}{s}"
            docs.append(Document(doc, f"t{t}", f"t{t}_s{s}", [["evt"]]))
            for i in range(int(rng.integers(1, 8))):
                mentions.append(Mention(
                    f"m{t}{s}{i}", doc, 0, 0, 0, "evt",
                    gold_cluster_id=f"k{t}_{int(rng.integers(5))}"))
    corpus = Corpus(docs, mentions)
    ids = sorted(corpus.mentions)
    system = random_clustering(rng, ids, 6)
    if rng.random() < 0.3:
        system["zz_extra"] = "c0"
    subset = None
    if rng.random() < 0.3:
        subset = [m for m in ids if rng.random() < 0.6]
    options = EvalOptions(drop_singletons=bool(rng.random() < 0.7),
                          unit=str(rng.choice(SCOPES, p=[0.4, 0.4, 0.2])))
    return corpus, system, options, subset


def assert_matches_oracle(report, expected):
    assert list(report.per_topic) == list(expected["per_topic"])
    assert report.skipped_topics == expected["skipped_topics"]
    rows = [(report.per_topic[u], expected["per_topic"][u])
            for u in report.per_topic]
    if report.per_topic:
        rows.append((report.aggregate, expected["aggregate"]))
    for mine, theirs in rows:
        for name in ("muc", "b_cubed", "ceaf_e"):
            got = (mine[name].precision, mine[name].recall, mine[name].f1)
            assert got == pytest.approx(theirs[name], abs=1e-12), name
    assert report.conll_f1 == pytest.approx(expected["conll_f1"], abs=1e-12)


def _oracle(corpus, system, options=None, subset=None):
    options = options or EvalOptions()
    return evaluate_oracle(corpus, system,
                           drop_singletons=options.drop_singletons,
                           topic_level=options.unit != "corpus",
                           unit=options.unit, mention_subset=subset)


class TestEvaluateMatchesOracle:
    def test_random_cases(self, rng):
        for _ in range(400):
            corpus, system, options, subset = _random_eval_case(rng)
            report = evaluate(corpus, Clustering(system), options,
                              mention_subset=subset)
            assert_matches_oracle(report,
                                  _oracle(corpus, system, options, subset))

    def test_corpus_unit_is_the_whole_corpus(self, rng):
        """``unit="corpus"`` scores every case as the oracle scores it with
        no topic units: the same per-unit scores, skipped units and CoNLL."""
        for _ in range(100):
            corpus, system, options, subset = _random_eval_case(rng)
            options = EvalOptions(drop_singletons=options.drop_singletons,
                                  unit="corpus")
            report = evaluate(corpus, Clustering(system), options,
                              mention_subset=subset)
            assert_matches_oracle(report, evaluate_oracle(
                corpus, system, drop_singletons=options.drop_singletons,
                topic_level=False, mention_subset=subset))

    def test_prebuilt_key_scores_alike(self, rng):
        for _ in range(50):
            corpus, system, options, subset = _random_eval_case(rng)
            key = GoldKey.build(corpus, options, subset)
            with_key = evaluate(corpus, Clustering(system), options,
                                mention_subset=subset, key=key)
            assert with_key == evaluate(corpus, Clustering(system), options,
                                        mention_subset=subset)

    def test_key_for_other_options_rejected(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]]})
        key = GoldKey.build(corpus)
        with pytest.raises(ValueError, match="other evaluation options"):
            evaluate(corpus, corpus.gold_clustering(),
                     EvalOptions(drop_singletons=False), key=key)
        with pytest.raises(ValueError, match="other evaluation options"):
            evaluate(corpus, corpus.gold_clustering(),
                     mention_subset=["a"], key=key)


class TestEvaluateEdges:
    def test_key_empty_after_singleton_removal_skipped(self):
        corpus = _subtopic_corpus({"t0": [["a"], ["b"]],
                                   "t1": [["c", "d"]]})
        system = {"a": "x", "b": "x", "c": "y", "d": "z"}
        report = evaluate(corpus, Clustering(system))
        assert report.skipped_topics == ["t0"]
        assert_matches_oracle(report, _oracle(corpus, system))

    def test_unit_without_evaluated_mention_omitted(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]],
                                   "t1": [["c", "d"], ["e"]]})
        system = {m: "x" for m in "abcde"}
        report = evaluate(corpus, Clustering(system),
                          mention_subset=["c", "d", "e"])
        assert list(report.per_topic) == ["t1"]
        assert report.skipped_topics == []
        assert_matches_oracle(report, _oracle(corpus, system,
                                              subset=["c", "d", "e"]))

    def test_missing_gold_mention_rejected_outside_subset(self):
        corpus = _subtopic_corpus({"t0": [["a", "b"]], "t1": [["c", "d"]]})
        system = {"a": "x", "b": "x", "c": "y"}
        with pytest.raises(ValueError, match="missing gold"):
            _oracle(corpus, system, subset=["a", "b"])
        with pytest.raises(ValueError, match="missing gold"):
            evaluate(corpus, Clustering(system), mention_subset=["a", "b"])
        key = GoldKey.build(corpus)
        with pytest.raises(ValueError, match="missing gold"):
            evaluate(corpus, Clustering(system), key=key)

    def test_ceaf_e_empty_side_scores_zero(self):
        assert ceaf_e(Clustering({}), Clustering({})) == MetricScore.zero()
        assert ceaf_e_table(Contingency([], [])) == MetricScore.zero()


class TestOracleEquivalence:
    def test_500_random_pairs_match_brute_force(self, rng):
        """Acceptance: implementations match definitions to 1e-9."""
        for trial in range(500):
            n = int(rng.integers(1, 9))
            mentions = [f"m{i}" for i in range(n)]
            key = random_clustering(rng, mentions, 4)
            response = random_clustering(rng, mentions, 4)
            kc, rc = Clustering(key), Clustering(response)
            for metric, oracle in ((muc, muc_oracle),
                                   (b_cubed, b_cubed_oracle),
                                   (ceaf_e, ceaf_e_oracle)):
                mine = metric(kc, rc)
                p, r, f1 = oracle(key, response)
                assert mine.precision == pytest.approx(p, abs=1e-9)
                assert mine.recall == pytest.approx(r, abs=1e-9)
                assert mine.f1 == pytest.approx(f1, abs=1e-9)

    def test_ceaf_assignment_matches_exhaustive(self, rng):
        """Kuhn-Munkres alignment equals exhaustive search for <= 7 clusters."""
        for trial in range(300):
            n = int(rng.integers(2, 15))
            mentions = [f"m{i}" for i in range(n)]
            key = random_clustering(rng, mentions, 7)
            response = random_clustering(rng, mentions, 7)
            mine = ceaf_e(Clustering(key), Clustering(response))
            p, r, f1 = ceaf_e_oracle(key, response)
            assert mine.f1 == pytest.approx(f1, abs=1e-12)
