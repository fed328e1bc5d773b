"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The end-to-end separation sweep (criterion 5) trains nine models and
dominates the runtime; it and the exhaustive gradcheck (criterion 3) are
marked ``slow``, so ``pytest -m "not slow"`` skips them.
"""

import itertools
import os
import time

import numpy as np
import pytest

from cscoref.cluster import agglomerative_cluster
from cscoref.commonsense import format_prompt, parse_completion
from cscoref.corpus import Clustering, load_corpus, validate_stats
from cscoref.embed import EmbedderConfig
from cscoref.metrics import b_cubed, ceaf_e, evaluate, muc
from cscoref.pipeline import DESK_SPLIT_SPECS
from cscoref.scorer import attend, save_checkpoint
from cscoref.synthgen import (SyntheticProvider, easy_subset_mention_ids,
                              generate_synthetic)
from cscoref.training import (TrainConfig, build_dataset,
                              cluster_from_scores, gradcheck, score_dataset,
                              scores_as_lookup, train,
                              tune_threshold_from_scores)

from oracles import (b_cubed_oracle, ceaf_e_oracle, muc_oracle,
                     random_clustering)


def report_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    return ok


class TestCriterion1MetricOracles:
    def test_metric_oracle_equivalence(self):
        rng = np.random.default_rng(20240601)
        start = time.time()
        worst = 0.0
        for _ in range(500):
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
                worst = max(worst, abs(mine.precision - p),
                            abs(mine.recall - r), abs(mine.f1 - f1))
        # CEAF assignment equals exhaustive permutation (<= 7 clusters);
        # the two sides sum identical phi terms in different orders, so
        # allow last-ulp float noise (1e-12, far below the 1e-9 budget)
        ceaf_worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 13))
            mentions = [f"m{i}" for i in range(n)]
            key = random_clustering(rng, mentions, 7)
            response = random_clustering(rng, mentions, 7)
            mine = ceaf_e(Clustering(key), Clustering(response))
            _, _, f1 = ceaf_e_oracle(key, response)
            ceaf_worst = max(ceaf_worst, abs(mine.f1 - f1))
        elapsed = time.time() - start
        ok = worst <= 1e-9 and ceaf_worst <= 1e-12 and elapsed < 30
        report_line(1, ok,
                    f"500 random clustering pairs, max deviation "
                    f"{worst:.2e}; CEAF vs exhaustive max {ceaf_worst:.2e}; "
                    f"{elapsed:.1f}s")
        assert worst <= 1e-9
        assert ceaf_worst <= 1e-12
        assert elapsed < 30


class TestCriterion2HandWorkedValues:
    def test_hand_worked_values(self):
        def clustering(groups):
            return Clustering({m: f"c{i}" for i, group in enumerate(groups)
                               for m in group})

        muc_f1 = muc(clustering([["a", "b", "c", "d"]]),
                     clustering([["a", "b"], ["c", "d"]])).f1
        b3_f1 = b_cubed(clustering([["a", "b", "c"]]),
                        clustering([["a", "b"], ["c"]])).f1
        ceaf = ceaf_e(clustering([["a", "b"], ["c"]]),
                      Clustering({"a": "x", "c": "x", "b": "y"}))
        ok_muc = abs(muc_f1 - 0.8) <= 1e-9
        ok_b3 = abs(b3_f1 - 5 / 7) <= 1e-9
        # CEAF-e (Luo 2005) scores the best one-to-one alignment under
        # phi4 = 2|K&R| / (|K| + |R|). Key {a,b},{c}, response {a,c},{b}:
        #   phi({a,b},{a,c}) = 1/2   phi({a,b},{b}) = 2/3
        #   phi({c},{a,c})   = 2/3   phi({c},{b})   = 0
        # {a,b}<->{b}, {c}<->{a,c} totals 4/3, so P = R = F1 = 4/3 / 2 = 2/3.
        # {a,b}<->{a,c}, {c}<->{b} totals only 1/2 (it would give 0.25).
        ok_ceaf = all(abs(v - 2 / 3) <= 1e-9
                      for v in (ceaf.precision, ceaf.recall, ceaf.f1))
        report_line(2, ok_muc and ok_b3 and ok_ceaf,
                    f"MUC {muc_f1:.6f} (want 0.8), B3 {b3_f1:.6f} "
                    f"(want {5 / 7:.6f}), CEAF-e P/R/F1 "
                    f"{ceaf.precision:.6f}/{ceaf.recall:.6f}/{ceaf.f1:.6f} "
                    f"(want 2/3: phi4 1/2, 2/3, 2/3, 0; best alignment "
                    f"totals 4/3 -> 2/3, the other 1/2 -> 0.25)")
        assert muc_f1 == pytest.approx(0.8, abs=1e-9)
        assert b3_f1 == pytest.approx(5 / 7, abs=1e-9)
        assert ceaf.precision == pytest.approx(2 / 3, abs=1e-9)
        assert ceaf.recall == pytest.approx(2 / 3, abs=1e-9)
        assert ceaf.f1 == pytest.approx(2 / 3, abs=1e-9)


class TestCriterion3GradientCorrectness:
    @pytest.mark.slow
    def test_gradcheck_five_seeds(self):
        start = time.time()
        report = gradcheck(mode="intra", seeds=(0, 1, 2, 3, 4))
        elapsed = time.time() - start
        worst = max(report.per_block.values())
        ok = report.passed and elapsed < 120
        report_line(3, ok,
                    f"max relative error {worst:.2e} over 5 seeds "
                    f"({elapsed:.0f}s)")
        print(report.render())
        assert report.passed
        assert elapsed < 120


class TestCriterion4AttentionInvariants:
    def test_1000_random_instances(self):
        rng = np.random.default_rng(7)
        ok = True
        for _ in range(1000):
            rep_dim = int(rng.integers(1, 8))
            d_a = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            W_q = rng.standard_normal((rep_dim, d_a))
            W_k = rng.standard_normal((rep_dim, d_a))
            query = rng.standard_normal(rep_dim)
            reps = [rng.standard_normal(rep_dim) for _ in range(n)]
            out = attend(query, reps, W_q, W_k)
            ok &= bool((out.weights >= 0).all())
            ok &= abs(out.weights.sum() - 1.0) <= 1e-9
            if n == 1:
                ok &= abs(out.weights[0] - 1.0) <= 1e-12
            perm = rng.permutation(n)
            permuted = attend(query, [reps[i] for i in perm], W_q, W_k)
            ok &= bool(np.allclose(permuted.vector, out.vector, atol=1e-9))
            if not ok:
                break
        report_line(4, ok, "nonnegative, sum-1, permutation-invariant, "
                           "singleton=1.0 over 1000 instances")
        assert ok


EMB = EmbedderConfig(provider="hash", d=16, d_len=20, max_width_bucket=8,
                     seed=0)

# frozen after the first verified sweep of the seeded desk preset
# (reproduced bit-for-bit across processes before pinning)
EXPECTED_TEST_CONLL = {
    "baseline": [0.7148376531071111, 0.7042884566629238, 0.7008404833792433],
    "intra": [0.973831585378271, 0.973831585378271, 0.9574243568937478],
    "inter": [0.9099281278610897, 0.8738872801708079, 0.973831585378271],
}


@pytest.fixture(scope="module")
def separation_sweep():
    """Train 3 seeds x 3 modes on the seeded desk preset; ~2 minutes."""
    specs = DESK_SPLIT_SPECS
    corpora = {k: generate_synthetic(s)[0] for k, s in specs.items()}
    start = time.time()
    results = {}
    intra_artifacts = None
    for mode in ("baseline", "intra", "inter"):
        conlls, easy_conlls = [], []
        data = {k: build_dataset(corpora[k], EMB, mode,
                                 inference_source=(SyntheticProvider(s)
                                                   if mode != "baseline"
                                                   else None))
                for k, s in specs.items()}
        for seed in (0, 1, 2):
            config = TrainConfig(mode=mode, epochs=60, patience=12,
                                 seed=seed, learning_rate=1e-3)
            params, _ = train(data["train"], EMB, config,
                              dev_data=data["dev"])
            dev, test = (scores_as_lookup(data[k],
                                          score_dataset(params, data[k]))
                         for k in ("dev", "test"))
            tau = tune_threshold_from_scores(corpora["dev"], dev)
            system = cluster_from_scores(corpora["test"], test, tau)
            report = evaluate(corpora["test"], system)
            easy = evaluate(corpora["test"], system,
                            mention_subset=easy_subset_mention_ids(
                                corpora["test"]))
            conlls.append(report.conll_f1)
            easy_conlls.append(easy.conll_f1)
            if mode == "intra" and seed == 0:
                intra_artifacts = (params, tau)
        results[mode] = {"conll": conlls, "easy": easy_conlls}
    results["elapsed"] = time.time() - start
    results["corpora"] = corpora
    results["specs"] = specs
    results["intra_artifacts"] = intra_artifacts
    return results


@pytest.mark.slow
class TestCriterion5EndToEndSeparation:
    def test_separation(self, separation_sweep):
        r = separation_sweep
        baseline = float(np.mean(r["baseline"]["conll"]))
        intra = float(np.mean(r["intra"]["conll"]))
        inter = float(np.mean(r["inter"]["conll"]))
        baseline_easy = float(np.mean(r["baseline"]["easy"]))
        elapsed = r["elapsed"]
        ok = (baseline_easy >= 0.95 and intra - baseline >= 0.10
              and inter - baseline >= 0.05 and intra - baseline >= 0.05
              and elapsed < 600)
        report_line(5, ok,
                    f"baseline {baseline:.4f} (easy-only {baseline_easy:.4f}"
                    f"), intra {intra:.4f} (+{intra - baseline:.4f}), inter "
                    f"{inter:.4f} (+{inter - baseline:.4f}); {elapsed:.0f}s")
        assert baseline_easy >= 0.95
        assert intra - baseline >= 0.10
        assert inter - baseline >= 0.05
        assert elapsed < 600

    def test_regression_pinned_values(self, separation_sweep):
        for mode, expected in EXPECTED_TEST_CONLL.items():
            got = separation_sweep[mode]["conll"]
            np.testing.assert_allclose(got, expected, atol=1e-9,
                                       err_msg=f"mode {mode}")

    def test_trained_intra_attends_to_shared_pool(self, separation_sweep):
        """On hard test pairs, the top-weighted inference is a pool anchor."""
        from cscoref.pipeline import CommonsenseConfig, explain_pair, preset
        from cscoref.synthgen import (anchor_sentences, _family_key,
                                      is_hard_cluster_id, parse_mention_id)

        params, _ = separation_sweep["intra_artifacts"]
        spec = separation_sweep["specs"]["test"]
        corpus = separation_sweep["corpora"]["test"]
        config = preset("desk")
        config.commonsense = CommonsenseConfig(provider="synthetic",
                                               synthetic_spec=spec)
        by_cluster = {}
        for m in corpus.mentions.values():
            if is_hard_cluster_id(m.gold_cluster_id):
                by_cluster.setdefault(m.gold_cluster_id,
                                      []).append(m.mention_id)
        checked = 0
        for members in by_cluster.values():
            a, b = sorted(members)[:2]
            trace = explain_pair(params, corpus, config, a, b, split="test")
            assert trace.gold_label == 1
            for (mention_id, relation), items in trace.relations.items():
                t, c, _ = parse_mention_id(mention_id)
                _, key, fam = _family_key(spec, t, c)
                pool = set(anchor_sentences(key, fam)[relation])
                top_sentence, _ = items[0]
                assert top_sentence in pool
                checked += 1
        assert checked >= 20


class TestCriterion6PromptGoldens:
    def test_prompt_golden_and_roundtrip(self):
        import pathlib
        golden = (pathlib.Path(__file__).parent / "data"
                  / "prompt_finetuned.golden").read_text("utf-8")
        context = ("Lindsay Lohan checks into rehab at Betty Ford Center , "
                   "rehires longtime lawyer Shawn Holley")
        prompt = format_prompt(context, "rehires", mode="finetuned")
        ok = prompt == golden
        roundtrip_ok = True
        k = 5
        for n_b, n_a in itertools.product(range(k + 1), range(k + 1)):
            before = [f"Prior step {i} took place." for i in range(n_b)]
            after = [f"Next step {i} took place." for i in range(n_a)]
            completion = (" " + " ".join(before) + "\nAfter: "
                          + " ".join(after) + " END")
            got_b, got_a = parse_completion(completion, k)
            roundtrip_ok &= (got_b == before and got_a == after)
        report_line(6, ok and roundtrip_ok,
                    "prompt byte-identical to golden; parse round-trips "
                    "all list sizes 0..k")
        assert ok
        assert roundtrip_ok


class TestCriterion7ClusteringProperties:
    def test_clustering_properties(self):
        def run(scores, tau):
            ids = sorted({m for pair in scores for m in pair})
            return agglomerative_cluster(ids, scores, tau)

        scores = {("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.2}
        singletons = run(scores, tau=0.95)
        one_cluster = run(scores, tau=0.0)
        hand_trace = run(scores, tau=0.5)
        rng = np.random.default_rng(11)
        random_scores = {(a, b): float(rng.random()) for a, b in
                         itertools.combinations([f"m{i}" for i in range(6)],
                                                2)}
        first = run(random_scores, 0.4)
        deterministic = all(run(random_scores, 0.4).assignment
                            == first.assignment for _ in range(100))
        ok = (len(singletons) == 3 and len(one_cluster) == 1
              and len(hand_trace) == 1 and deterministic)
        report_line(7, ok,
                    "tau>max -> singletons; tau=0 -> one cluster; "
                    "average-linkage hand trace merges all at tau=0.5; "
                    "100 reruns identical")
        assert ok


class TestCriterion8TrainDeterminism:
    def test_byte_identical_checkpoints(self, tmp_path):
        from cscoref.synthgen import SyntheticSpec

        spec = SyntheticSpec(n_topics=2, clusters_per_topic=2,
                             mentions_per_cluster=2, hard_fraction=0.5,
                             distractor_rate=0.0, seed=17)
        corpus = generate_synthetic(spec)[0]
        emb = EmbedderConfig(provider="hash", d=8, d_len=4,
                             max_width_bucket=4, seed=0)
        config = TrainConfig(mode="intra", epochs=4, patience=None, seed=9,
                             learning_rate=1e-3, hidden=32, d_a=4)
        blobs = []
        for name in ("one.bin", "two.bin"):
            data = build_dataset(corpus, emb, "intra",
                                 inference_source=SyntheticProvider(spec))
            params, _ = train(data, emb, config)
            path = tmp_path / name
            save_checkpoint(params, path)
            blobs.append(path.read_bytes())
        ok = blobs[0] == blobs[1]
        report_line(8, ok, "repeated train() runs produce byte-identical "
                           "checkpoints")
        assert ok


ECB_DIR = os.environ.get("CSCOREF_ECB_DIR")
ECB_EXPECTED = {"train": {"mentions": 3808, "clusters": 1527},
                "dev": {"mentions": 1245, "clusters": 409},
                "test": {"mentions": 1780, "clusters": 805}}


class TestCriterion9DataFidelity:
    @pytest.mark.skipif(not ECB_DIR,
                        reason="set CSCOREF_ECB_DIR to a directory with "
                               "converted train/dev/test corpus files")
    @pytest.mark.parametrize("split", ["train", "dev", "test"])
    def test_converted_corpus_counts(self, split):
        corpus = load_corpus(os.path.join(ECB_DIR, f"{split}.jsonl"))
        report = validate_stats(corpus, ECB_EXPECTED[split])
        report_line(9, report.passed, f"{split}: {report}")
        assert report.passed
