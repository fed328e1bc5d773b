import numpy as np
import pytest

from cscoref.commonsense import GenerationConfig
from cscoref.corpus import Corpus, Document, Mention
from cscoref.embed import EmbedderConfig
from cscoref.scorer import ModelDims, init_parameters, save_checkpoint
from cscoref.synthgen import SyntheticProvider, SyntheticSpec, \
    generate_synthetic
from cscoref import training
from cscoref.cluster import merge_sequence
from cscoref.metrics import evaluate
from cscoref.training import (Adam, TrainConfig, build_dataset,
                              cluster_from_scores, gradcheck,
                              make_random_dataset, pairwise_f1,
                              score_dataset, train,
                              tune_threshold_from_scores,
                              DEFAULT_THRESHOLD_GRID)


@pytest.fixture(scope="module")
def small_spec():
    return SyntheticSpec(n_topics=2, clusters_per_topic=2,
                         mentions_per_cluster=2, hard_fraction=0.5,
                         distractor_rate=0.0, seed=17)


@pytest.fixture(scope="module")
def small_corpus(small_spec):
    return generate_synthetic(small_spec)[0]


EMB = EmbedderConfig(provider="hash", d=8, d_len=4, max_width_bucket=4,
                     seed=0)


class TestBuildDataset:
    def test_shapes_and_indices(self, small_spec, small_corpus):
        data = build_dataset(small_corpus, EMB, "intra",
                             inference_source=SyntheticProvider(small_spec),
                             gen_config=GenerationConfig(k=5))
        assert len(data.mention_ids) == 8
        assert data.span_tensors.X.shape[2] == 8
        assert data.before_idx.shape == (8, 5)
        assert (data.before_idx >= 0).all()  # fixtures always provide k
        assert data.n_pairs == 2 * 6  # C(4,2) per subtopic

    def test_baseline_never_calls_provider(self, small_corpus):
        class Exploding:
            def fingerprint(self, config):
                raise AssertionError("provider touched")

            def generate(self, *args):
                raise AssertionError("provider touched")

        data = build_dataset(small_corpus, EMB, "baseline",
                             inference_source=Exploding())
        assert data.sent_tensors is None

    def test_commonsense_mode_requires_provider(self, small_corpus):
        with pytest.raises(ValueError, match="provider"):
            build_dataset(small_corpus, EMB, "intra")

    def test_all_empty_inference_sets_still_scorable(self, small_corpus):
        from cscoref.commonsense import FixtureProvider
        from cscoref.scorer import ModelDims, init_parameters

        provider = FixtureProvider(records=[], strict=False)
        with pytest.warns(UserWarning):
            data = build_dataset(small_corpus, EMB, "intra",
                                 inference_source=provider)
        assert (data.before_idx == -1).all()
        dims = ModelDims(d=8, d_len=4, d_a=2, h=8, mode="intra",
                         max_width_bucket=4)
        params = init_parameters(dims, 0)
        probs = score_dataset(params, data)
        assert np.isfinite(probs).all()


class TestAdam:
    def test_reduces_quadratic(self):
        dims = ModelDims(d=2, d_len=2, d_a=1, h=2, mode="baseline")
        params = init_parameters(dims, 0)
        opt = Adam(dims, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        target = {n: np.zeros_like(a) for n, a in params.blocks().items()}
        for _ in range(300):
            grads = {n: 2 * (a - target[n])
                     for n, a in params.blocks().items()}
            opt.step(params, grads)
        for name, arr in params.blocks().items():
            assert np.abs(arr).max() < 1e-2


class TestTrain:
    def test_overfit_tiny_pair_set(self, small_spec, small_corpus):
        # capacity sanity: a dozen pairs, 200 epochs, no early stopping
        config = TrainConfig(mode="intra", epochs=200, patience=None,
                             seed=0, learning_rate=1e-2, dropout=0.0,
                             batch_size=128, hidden=64, d_a=4)
        data = build_dataset(small_corpus, EMB, "intra",
                             inference_source=SyntheticProvider(small_spec))
        params, history = train(data, EMB, config)
        assert history["epochs"][-1]["train_loss"] < 0.05

    def test_deterministic_checkpoints(self, tmp_path, small_spec,
                                       small_corpus):
        config = TrainConfig(mode="intra", epochs=3, patience=None, seed=5,
                             learning_rate=1e-3, hidden=16, d_a=2)
        paths = []
        for name in ("a.bin", "b.bin"):
            data = build_dataset(
                small_corpus, EMB, "intra",
                inference_source=SyntheticProvider(small_spec))
            params, _ = train(data, EMB, config)
            path = tmp_path / name
            save_checkpoint(params, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_outcome(self, small_spec, small_corpus):
        outs = []
        data = build_dataset(small_corpus, EMB, "baseline")
        for seed in (0, 1):
            config = TrainConfig(mode="baseline", epochs=2, patience=None,
                                 seed=seed, hidden=8, d_a=2)
            params, _ = train(data, EMB, config)
            outs.append(params.W1.copy())
        assert not np.array_equal(outs[0], outs[1])

    def test_early_stopping_stops(self, small_spec, small_corpus):
        config = TrainConfig(mode="baseline", epochs=50, patience=2, seed=0,
                             hidden=8, d_a=2, learning_rate=0.0)
        data = build_dataset(small_corpus, EMB, "baseline")
        params, history = train(data, EMB, config)
        # zero learning rate: dev F1 never improves after epoch 0
        assert len(history["epochs"]) == 3  # epoch 0 + patience 2

    def test_history_records_loss_and_f1(self, small_corpus):
        config = TrainConfig(mode="baseline", epochs=2, patience=None,
                             seed=0, hidden=8, d_a=2)
        data = build_dataset(small_corpus, EMB, "baseline")
        _, history = train(data, EMB, config)
        for entry in history["epochs"]:
            assert set(entry) == {"epoch", "train_loss", "dev_f1"}


class TestPairwiseF1:
    def test_values(self):
        probs = np.array([0.9, 0.2, 0.6, 0.4])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        # predictions: 1,0,1,0 -> tp=1 fp=1 fn=1
        assert pairwise_f1(probs, labels) == pytest.approx(0.5)
        assert pairwise_f1(np.zeros(3), np.zeros(3)) == 0.0


class TestThreshold:
    def corpus_two_clusters(self):
        docs = [Document(f"d{i}", "t0", "t0_s0", [["evt"]])
                for i in range(4)]
        mentions = [
            Mention("a", "d0", 0, 0, 0, "evt", gold_cluster_id="k0"),
            Mention("b", "d1", 0, 0, 0, "evt", gold_cluster_id="k0"),
            Mention("c", "d2", 0, 0, 0, "evt", gold_cluster_id="k1"),
            Mention("d", "d3", 0, 0, 0, "evt", gold_cluster_id="k1"),
        ]
        return Corpus(docs, mentions)

    def lookup(self, hi=0.9, lo=0.1):
        corpus = self.corpus_two_clusters()
        gold = corpus.gold_clustering()
        lookup = {}
        for a in "abcd":
            for b in "abcd":
                if a < b:
                    same = gold.cluster_of(a) == gold.cluster_of(b)
                    lookup[(a, b)] = hi if same else lo
        return corpus, lookup

    def test_single_value_grid(self):
        corpus, lookup = self.lookup()
        assert tune_threshold_from_scores(corpus, lookup, grid=[0.4]) == 0.4

    def test_tie_breaks_larger(self):
        corpus, lookup = self.lookup()
        tau = tune_threshold_from_scores(corpus, lookup, grid=[0.4, 0.6])
        assert tau == 0.6

    def test_default_grid_picks_largest_below_hi(self):
        # scores 0.9 within and 0.1 across: every tau in (0.1, 0.9] is
        # optimal, so the largest grid value 0.80 wins
        corpus, lookup = self.lookup()
        tau = tune_threshold_from_scores(corpus, lookup,
                                         grid=DEFAULT_THRESHOLD_GRID)
        assert tau == 0.80

    def test_empty_grid_rejected(self):
        corpus, lookup = self.lookup()
        with pytest.raises(ValueError):
            tune_threshold_from_scores(corpus, lookup, grid=[])

    def test_cluster_from_scores_partition(self):
        corpus, lookup = self.lookup()
        system = cluster_from_scores(corpus, lookup, 0.5)
        assert system == corpus.gold_clustering()


def random_corpus(rng):
    """1-3 topics of 1-2 subtopics, 1-6 mentions each, with gold clusters
    inside subtopics and one pair-score lookup over every mention pair."""
    docs, mentions = [], []
    for t in range(int(rng.integers(1, 4))):
        for s in range(int(rng.integers(1, 3))):
            doc = f"d{t}_{s}"
            docs.append(Document(doc, f"t{t}", f"t{t}_s{s}", [["evt"]]))
            for i in range(int(rng.integers(1, 7))):
                mentions.append(Mention(
                    f"m{int(rng.integers(100)):02d}_{t}{s}{i}", doc, 0, 0, 0,
                    "evt", gold_cluster_id=f"k{t}{s}{int(rng.integers(3))}"))
    ids = sorted(m.mention_id for m in mentions)
    quantized = rng.random() < 0.5
    lookup = {(a, b): (float(rng.integers(0, 5)) / 4 if quantized
                       else float(rng.random()))
              for i, a in enumerate(ids) for b in ids[i + 1:]}
    return Corpus(docs, mentions), lookup


def reference_tune(corpus, lookup, grid, scope):
    """Cluster from scratch and evaluate at every grid value; ties go to the
    larger threshold."""
    best = None
    for tau in grid:
        report = evaluate(corpus, cluster_from_scores(corpus, lookup, tau,
                                                      scope=scope))
        key = (report.conll_f1, tau)
        if best is None or key >= best:
            best = key
    return best[1]


class TestTuneOnMergeSequences:
    @pytest.mark.parametrize("scope", ["subtopic", "topic", "corpus"])
    def test_matches_per_threshold_clustering(self, rng, scope):
        for _ in range(30):
            corpus, lookup = random_corpus(rng)
            grid = DEFAULT_THRESHOLD_GRID + (0.0, 1.0)
            assert (tune_threshold_from_scores(corpus, lookup, grid=grid,
                                               scope=scope)
                    == reference_tune(corpus, lookup, grid, scope))

    @pytest.mark.parametrize("scope", ["subtopic", "topic", "corpus"])
    def test_one_merge_sequence_per_unit(self, rng, monkeypatch, scope):
        corpus, lookup = random_corpus(rng)
        sequences = []

        def spy(ids, scores):
            sequences.append(tuple(ids))
            return merge_sequence(ids, scores)

        def no_clustering(*args, **kwargs):
            raise AssertionError("tuning re-clustered a unit")

        monkeypatch.setattr(training, "merge_sequence", spy)
        monkeypatch.setattr(training, "agglomerative_cluster", no_clustering)
        tune_threshold_from_scores(corpus, lookup, scope=scope)
        units = {getattr(corpus.documents[m.doc_id], f"{scope}_id", "")
                 for m in corpus.mentions.values()}
        assert len(sequences) == len(units)
        assert sorted(m for ids in sequences for m in ids) == sorted(
            corpus.mentions)

    @pytest.mark.parametrize("grid", [[0.4, 1.5], [-0.1], [float("nan")]])
    def test_grid_value_outside_unit_interval_rejected(self, grid):
        corpus, lookup = TestThreshold().lookup()
        with pytest.raises(ValueError):
            tune_threshold_from_scores(corpus, lookup, grid=grid)


class TestGradcheckHarness:
    def test_passes_at_small_dims(self):
        report = gradcheck(mode="intra", seeds=(0,), d=4, d_len=3, d_a=2,
                           hidden=6, n_pairs=4, training_mode_seeds=1)
        assert report.passed
        assert set(report.per_block) == {
            "w_alpha", "width_table", "W_q_before", "W_k_before",
            "W_q_after", "W_k_after", "W1", "b1", "W2", "b2"}

    def test_corrupted_gradient_fails(self):
        report = gradcheck(mode="intra", seeds=(0,), d=4, d_len=3, d_a=2,
                           hidden=6, n_pairs=4, training_mode_seeds=0,
                           _corrupt_block="W2")
        assert not report.passed
        assert report.per_block["W2"] > 1e-4
        assert "FAIL" in report.render()

    def test_report_deterministic(self):
        a = gradcheck(mode="baseline", seeds=(3,), d=4, d_len=3, d_a=2,
                      hidden=6, n_pairs=4, training_mode_seeds=0)
        b = gradcheck(mode="baseline", seeds=(3,), d=4, d_len=3, d_a=2,
                      hidden=6, n_pairs=4, training_mode_seeds=0)
        assert a.per_block == b.per_block

    def test_sampled_check_at_full_hidden_width(self, rng):
        """Spot-check h=1024 (training width): sampled entries only."""
        dims = ModelDims(d=16, d_len=20, d_a=8, h=1024, mode="intra")
        params = init_parameters(dims, 0)
        data = make_random_dataset(dims, 1, n_pairs=4)
        sel = np.arange(4)
        from cscoref.scorer import batch_loss_from_dataset, gradients
        loss, grads = gradients(params, data, sel)
        step = 1e-5
        for name in ("W1", "b1", "W2"):
            arr = getattr(params, name)
            flat = arr.reshape(-1)
            g = np.asarray(grads[name]).reshape(-1)
            for idx in rng.integers(0, flat.size, size=30):
                orig = flat[idx]
                flat[idx] = orig + step
                up = batch_loss_from_dataset(params, data, sel)
                flat[idx] = orig - step
                down = batch_loss_from_dataset(params, data, sel)
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(g[idx]), 1e-6)
                assert abs(numeric - g[idx]) / denom <= 1e-4


class TestScoreDataset:
    def test_chunking_consistent(self, small_spec, small_corpus):
        data = build_dataset(small_corpus, EMB, "intra",
                             inference_source=SyntheticProvider(small_spec))
        dims = ModelDims(d=8, d_len=4, d_a=2, h=8, mode="intra",
                         max_width_bucket=4)
        params = init_parameters(dims, 0)
        full = score_dataset(params, data, chunk=1024)
        tiny = score_dataset(params, data, chunk=3)
        np.testing.assert_allclose(full, tiny, atol=1e-15)
