import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cscoref.commonsense import GenerationConfig
from cscoref.corpus import (SCOPES, Corpus, CorpusFormatError, Document,
                            Mention, candidate_pairs)
from cscoref.embed import EmbedderConfig
from cscoref.pipeline import DESK_SPLIT_SPECS, preset
from cscoref.scorer import (INIT_PIECE, ModelDims, ModelParameters,
                            forward_batch, init_parameters, save_checkpoint)
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

from oracles import candidate_pairs_oracle, evaluate_oracle


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


@st.composite
def interleaved_corpora(draw):
    """Up to 6 documents, each drawn into one of 2 topics of 2 subtopics
    each, so in doc id order the units interleave and a unit's mention rows
    are not contiguous; 1 to 10 mentions on random spans, with ids in
    another order than span order, and in about half the corpora some
    mentions without a gold cluster."""
    docs = []
    for d in range(draw(st.integers(1, 6))):
        topic, sub = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        docs.append(Document(f"d{d}", f"t{topic}", f"t{topic}_s{sub}",
                             [["a", "b", "c"]] * draw(st.integers(1, 2))))
    gold = ["g0", "g1", "g2"] + [None] * draw(st.integers(0, 1))
    n = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(n)))
    mentions = []
    for k in range(n):
        doc = draw(st.sampled_from(docs))
        start = draw(st.integers(0, 2))
        end = draw(st.integers(start, 2))
        mentions.append(Mention(
            f"m{ids[k]}", doc.doc_id,
            draw(st.integers(0, len(doc.sentences) - 1)), start, end,
            " ".join("abc"[start:end + 1]),
            gold_cluster_id=draw(st.sampled_from(gold))))
    return Corpus(docs, mentions)


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

    # sha256 of before_idx, after_idx, sent_tensors.X and the sentences of
    # the desk train split's dataset (desk embedder, fixture provider), and
    # of the cache its build fills, computed when builds fetched and
    # embedded each mention's inference sentences one at a time
    PINNED_DESK_TRAIN = ("cd05d8b4026fac699232ed3d53426c01"
                         "17dd930784ee29c8603b23b0f26feb8f")
    PINNED_DESK_TRAIN_CACHE = ("e9f39f41ea3e1812a1cbebf5dbd8fede"
                               "8acf06ad8216d238d5d34b38b92c09c2")

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no cache", "cold cache"])
    def test_pinned_desk_train_dataset(self, tmp_path, cached):
        from cscoref.commonsense import FixtureProvider, InferenceCache
        from cscoref.synthgen import write_fixtures

        config = preset("desk")
        corpus, fixtures = generate_synthetic(DESK_SPLIT_SPECS["train"])
        path = tmp_path / "fixtures.jsonl"
        write_fixtures(corpus, fixtures, path)
        cache_path = tmp_path / "cache.jsonl"
        data = build_dataset(
            corpus, config.embedder, "intra",
            inference_source=FixtureProvider(path),
            gen_config=config.commonsense.generation,
            cache=InferenceCache(cache_path) if cached else None)
        digest = hashlib.sha256()
        for arr in (data.before_idx, data.after_idx, data.sent_tensors.X):
            digest.update(arr.tobytes())
        digest.update("\n".join(data.sentences).encode("utf-8"))
        assert digest.hexdigest() == self.PINNED_DESK_TRAIN
        assert cached == cache_path.exists()
        if cached:
            assert hashlib.sha256(cache_path.read_bytes()).hexdigest() \
                == self.PINNED_DESK_TRAIN_CACHE

    # sha256 of pair_i, pair_j and labels of each desk split's dataset at
    # each pair scope, computed when pairs were built one MentionPair at a
    # time (a desk split has one subtopic per topic)
    PINNED_DESK_PAIRS = {
        ("train", "subtopic"): "ec2bcd8c0a61e158d890a9d5463f3d1a"
                               "2b5f44eecb5d34930ef5471f824e6620",
        ("train", "corpus"): "0e755f567b93436f5cbbc4946f8de906"
                             "46a7ecf99ee3045d5ea240e7b6b32b7a",
        ("dev", "subtopic"): "f3fc87401e2981372de1ec6912c706d9"
                             "f97cfc3e4434bfc74579d0b3171659d7",
        ("dev", "corpus"): "3ae3e3b237caee942ad7cd9f32b65d8f"
                           "0d8f2b6e8ed754faf46a2112f07bfc76",
        ("test", "subtopic"): "78f97e23bd7ce4727603b7ef799cf3a3"
                              "0ad576dfdb9befec1a3015d0f44ff295",
        ("test", "corpus"): "7dcb7b635d4f7be2c8bc12d901f73aef"
                            "27a9c7a4ae29674353c6689ad84bf2e9",
    }

    @pytest.mark.parametrize("split", sorted(DESK_SPLIT_SPECS))
    @pytest.mark.parametrize("scope", SCOPES)
    def test_pinned_desk_pairs(self, split, scope):
        corpus = generate_synthetic(DESK_SPLIT_SPECS[split])[0]
        data = build_dataset(corpus, preset("desk").embedder, "baseline",
                             scope=scope)
        digest = hashlib.sha256()
        for arr in (data.pair_i, data.pair_j, data.labels):
            digest.update(arr.tobytes())
        pinned = self.PINNED_DESK_PAIRS[
            split, "corpus" if scope == "corpus" else "subtopic"]
        assert digest.hexdigest() == pinned

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(corpus=interleaved_corpora(), scope=st.sampled_from(SCOPES))
    def test_pairs_match_reference_loop(self, corpus, scope):
        """``candidate_pairs`` and ``build_dataset``'s labels, and the
        mention a labelled build names when one lacks a gold cluster, are
        those of the original pair loop, in its order."""
        expected = candidate_pairs_oracle(corpus, scope)
        pairs = candidate_pairs(corpus, scope)
        ids = [m.mention_id for m in corpus.mentions_in_order()]
        assert [(ids[i], ids[j]) for i, j in pairs.tolist()] \
            == [(a, b) for a, b, _ in expected]
        data = build_dataset(corpus, EMB, "baseline", scope=scope,
                             labeled=False)
        assert data.mention_ids == ids
        assert np.array_equal(np.column_stack([data.pair_i, data.pair_j]),
                              pairs)
        assert not data.labels.any()
        gold = {m.mention_id: m.gold_cluster_id
                for m in corpus.mentions.values()}
        unlabeled = [a if gold[a] is None else b
                     for a, b, label in expected if label is None]
        if unlabeled:
            with pytest.raises(CorpusFormatError) as error:
                build_dataset(corpus, EMB, "baseline", scope=scope)
            assert str(error.value) == (f"mention {unlabeled[0]!r} has no "
                                        f"gold cluster; cannot label pairs")
        else:
            data = build_dataset(corpus, EMB, "baseline", scope=scope)
            assert data.labels.tolist() == [label for *_, label in expected]

    def test_all_empty_inference_sets_still_scorable(self, small_corpus,
                                                     tmp_path):
        from cscoref.commonsense import FixtureProvider
        from cscoref.scorer import ModelDims, init_parameters

        path = tmp_path / "fixtures.jsonl"
        path.write_bytes(b"")
        provider = FixtureProvider(path, strict=False)
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
        opt = Adam(dims, lr=0.05)
        target = {n: np.zeros_like(a) for n, a in params.blocks().items()}
        grads = ModelParameters(dims)
        for _ in range(300):
            for n, a in params.blocks().items():
                grads[n] = 2 * (a - target[n])
            opt.step(params, grads)
        for name, arr in params.blocks().items():
            assert np.abs(arr).max() < 1e-2

    def test_flat_step_bit_equal_to_per_block_reference(self):
        """50 steps of random gradients against the per-block update,
        frozen as it was before the moments became one vector, for a
        vector shorter than one Adam piece and one whose last piece is
        partial."""
        small = ModelDims(d=3, d_len=2, d_a=2, h=5, mode="intra",
                          max_width_bucket=3)
        partial = ModelDims(d=4, d_len=2, d_a=2, h=500, mode="intra",
                            max_width_bucket=3)
        sizes = [ModelParameters(dims).flat.size for dims in (small, partial)]
        assert sizes[0] < INIT_PIECE < sizes[1]
        assert sizes[1] % INIT_PIECE != 0
        for dims in (small, partial):
            self.check_against_per_block_reference(dims)

    def test_ranges_on_two_threads_bit_equal_to_step(self):
        """Training's cut of a step, W1's range on a helper thread with
        its own scratch and the rest here in short pieces, gives the bytes
        of whole-vector steps."""
        dims = ModelDims(d=4, d_len=2, d_a=2, h=500, mode="intra",
                         max_width_bucket=3)
        whole, cut = init_parameters(dims, 1), init_parameters(dims, 1)
        opt_whole, opt_cut = Adam(dims, lr=1e-2), Adam(dims, lr=1e-2)
        w1, size = cut.slices["W1"], cut.flat.size
        assert w1.stop - w1.start > INIT_PIECE
        helper_scratch = Adam.scratch(w1.stop - w1.start)
        scratch = Adam.scratch(7)  # pieces of 7 doubles
        grads = ModelParameters(dims)
        rng = np.random.default_rng(3)
        with ThreadPoolExecutor(1) as helper:
            for _ in range(20):
                grads.flat[:] = rng.standard_normal(size)
                opt_whole.step(whole, grads)
                bias = opt_cut.advance()
                job = helper.submit(opt_cut.update, cut, grads, bias,
                                    w1.start, w1.stop, helper_scratch)
                opt_cut.update(cut, grads, bias, 0, w1.start, scratch)
                opt_cut.update(cut, grads, bias, w1.stop, size, scratch)
                job.result()
        assert cut.flat.tobytes() == whole.flat.tobytes()
        assert opt_cut.m.tobytes() == opt_whole.m.tobytes()
        assert opt_cut.v.tobytes() == opt_whole.v.tobytes()

    @staticmethod
    def check_against_per_block_reference(dims):
        params = init_parameters(dims, 1)
        ref = {n: a.copy() for n, a in params.blocks().items()}
        ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
        opt = Adam(dims, lr=1e-2)
        grads = ModelParameters(dims)
        rng = np.random.default_rng(3)
        for t in range(1, 51):
            grads.flat[:] = rng.standard_normal(grads.flat.size) * 10.0 ** (
                rng.integers(-6, 3, size=grads.flat.size))
            opt.step(params, grads)
            bias1 = 1.0 - Adam.BETA1 ** t
            bias2 = 1.0 - Adam.BETA2 ** t
            for name, g in grads.blocks().items():
                m, v = ref_m[name], ref_v[name]
                m *= Adam.BETA1
                m += (1.0 - Adam.BETA1) * g
                v *= Adam.BETA2
                v += (1.0 - Adam.BETA2) * np.square(g)
                update = (m / bias1) / (np.sqrt(v / bias2) + Adam.EPS)
                ref[name] -= opt.lr * update
        for name, arr in params.blocks().items():
            assert arr.tobytes() == ref[name].tobytes(), (dims.h, name)


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

    # sha256 of the checkpoint and the exact last-epoch train loss of the
    # run below, as trained by the per-block update with np.add.at
    PINNED_TRAINED = {
        "baseline": ("60c370f712e0d6e23729f06bb6e5acd1"
                     "caf34394d2d3f3df479807cd407571dc", 0.6916863020707483),
        "intra": ("0cf49ff245a2397e5ca469609cd7e705"
                  "b7361c1ca5866a600e13971fb4d733eb", 0.6660327674620442),
        "inter": ("a20136d806a948ed1ce6bc1d7d4d2027"
                  "ebe5592492b90bdfbdd621ee88b36ecc", 0.674466942549843),
    }

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_pinned_trained_bytes(self, tmp_path, small_spec, small_corpus,
                                  mode):
        # criterion 8's corpus, embedder and config, in every mode, with
        # batches of 5 over 12 pairs so that each epoch ends on a short one
        config = TrainConfig(mode=mode, epochs=4, patience=None, seed=9,
                             learning_rate=1e-3, hidden=32, d_a=4,
                             batch_size=5)
        data = build_dataset(small_corpus, EMB, mode,
                             inference_source=SyntheticProvider(small_spec))
        params, history = train(data, EMB, config)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert (digest, history["epochs"][-1]["train_loss"]) \
            == self.PINNED_TRAINED[mode]

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_slow_helper_keeps_pinned_bytes(self, tmp_path, small_spec,
                                            small_corpus, monkeypatch, mode):
        """Every job of the helper thread starts 5 ms late: a step that
        read W1 before its update finished would move the bytes."""
        submitted = []

        class SlowHelper(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                def late():
                    time.sleep(0.005)
                    return fn(*args, **kwargs)
                submitted.append(fn)
                return super().submit(late)

        monkeypatch.setattr(training, "ThreadPoolExecutor", SlowHelper)
        self.test_pinned_trained_bytes(tmp_path, small_spec, small_corpus,
                                       mode)
        assert len(submitted) == 2 * 4 * 3  # two jobs a step, 12 steps

    def test_helper_error_raised_from_train(self, small_spec, small_corpus,
                                            monkeypatch):
        """An error in the helper's third job comes out of ``train``, and
        no thread outlives the call."""
        jobs = []

        class FailingHelper(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                jobs.append(fn)
                if len(jobs) == 3:
                    def fn(*args, **kwargs):
                        raise RuntimeError("helper job failed")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(training, "ThreadPoolExecutor", FailingHelper)
        data = build_dataset(small_corpus, EMB, "intra",
                             inference_source=SyntheticProvider(small_spec))
        config = TrainConfig(mode="intra", epochs=2, patience=None, seed=9,
                             hidden=8, d_a=2, batch_size=5)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper job failed"):
            train(data, EMB, config)
        assert threading.active_count() == threads
        assert len(jobs) == 4  # the next step's wait raised it

    def test_training_state_is_five_parameter_vectors(self):
        """Peak traced memory of a few steps at hidden 4096, where the
        parameter vector dwarfs every activation: parameters, best-epoch
        snapshot, gradients and Adam's two moments, plus a fraction of one
        vector for activations and scratch (eight vectors before)."""
        import tracemalloc

        config = TrainConfig(mode="intra", epochs=2, patience=None, seed=0,
                             hidden=4096, d_a=2, batch_size=4)
        dims = config.model_dims(EMB)
        data = make_random_dataset(dims, 3)
        vector = ModelParameters(dims).flat.nbytes
        tracemalloc.start()
        try:
            train(data, EMB, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / vector < 5.5

    def test_later_epochs_leave_the_best_snapshot(self, small_spec,
                                                  small_corpus):
        """Training past the best epoch returns the bytes of a run that
        stopped at it."""
        data = build_dataset(small_corpus, EMB, "intra",
                             inference_source=SyntheticProvider(small_spec))
        config = TrainConfig(mode="intra", epochs=8, patience=None, seed=2,
                             learning_rate=1e-2, hidden=16, d_a=2,
                             batch_size=5)
        long_params, history = train(data, EMB, config)
        assert history["best_epoch"] < config.epochs - 1
        short_params, _ = train(data, EMB, replace(
            config, epochs=history["best_epoch"] + 1))
        assert long_params.flat.tobytes() == short_params.flat.tobytes()

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
    """Cluster from scratch and score with the set-based evaluation oracle
    at every grid value; ties go to the larger threshold."""
    best = None
    for tau in grid:
        system = cluster_from_scores(corpus, lookup, tau, scope=scope)
        key = (evaluate_oracle(corpus, system.assignment)["conll_f1"], tau)
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

    def test_gold_side_built_once(self, rng, monkeypatch):
        corpus, lookup = random_corpus(rng)
        gold_calls, keys = [], []
        gold_clustering = corpus.gold_clustering

        def count_gold():
            gold_calls.append(1)
            return gold_clustering()

        def spy(*args, **kwargs):
            keys.append(kwargs["key"])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(corpus, "gold_clustering", count_gold)
        monkeypatch.setattr(training, "evaluate", spy)
        tune_threshold_from_scores(corpus, lookup)
        assert len(gold_calls) == 1
        assert len(keys) == len(DEFAULT_THRESHOLD_GRID)
        assert all(key is keys[0] for key in keys)

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

    def test_corrupted_head_gradient_fails(self):
        """A block the tail does not read is still checked."""
        report = gradcheck(mode="intra", seeds=(0,), d=4, d_len=3, d_a=2,
                           hidden=6, n_pairs=4, training_mode_seeds=0,
                           _corrupt_block="W_q_before")
        assert not report.passed
        assert report.per_block["W_q_before"] > 1e-4
        assert max(err for name, err in report.per_block.items()
                   if name != "W_q_before") <= 1e-4

    def test_tail_coordinates_rerun_only_the_tail(self, monkeypatch):
        """The check runs ``forward_batch`` twice per coordinate outside
        ``TAIL_BLOCKS``, and ``forward_head`` once, for the features every
        tail coordinate's ``forward_tail`` reads."""
        calls = {"forward_batch": 0, "forward_head": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(training, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(training, name, counted)
        dims = ModelDims(d=4, d_len=3, d_a=2, h=6, mode="intra")
        params = init_parameters(dims, 0)
        data = make_random_dataset(dims, 1000, n_pairs=4)
        training.finite_difference_check(params, data, np.arange(4))
        head = params.slices["W1"].start
        assert calls == {"forward_batch": 2 * head,
                         "forward_head": 1}

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


MODES = ("baseline", "intra", "inter")


def assert_scores_match_forward_batch(data, dims):
    """score_dataset equals the pair-major forward_batch at evaluation,
    for two seeds."""
    sel = np.arange(data.n_pairs)
    for seed in (0, 1):
        params = init_parameters(dims, seed)
        params.W_q_before *= 50.0  # peaked attention, unequal weights
        params.W_q_after *= 50.0
        want, _ = forward_batch(params, data, sel, training=False)
        np.testing.assert_allclose(score_dataset(params, data), want,
                                   rtol=1e-12, atol=0)


class TestScoreDatasetMatchesForwardBatch:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_dataset(self, mode):
        dims = ModelDims(d=6, d_len=4, d_a=3, h=16, mode=mode)
        data = make_random_dataset(dims, 5, n_mentions=9, n_pairs=30)
        assert_scores_match_forward_batch(data, dims)

    @pytest.mark.parametrize("mode", MODES)
    def test_desk_dev_split(self, mode):
        config = preset("desk")
        spec = DESK_SPLIT_SPECS["dev"]
        corpus = generate_synthetic(spec)[0]
        data = build_dataset(corpus, config.embedder, mode,
                             inference_source=SyntheticProvider(spec))
        dims = ModelDims(d=config.embedder.d, d_len=config.embedder.d_len,
                         d_a=8, h=32, mode=mode,
                         max_width_bucket=config.embedder.max_width_bucket)
        assert data.n_pairs > 3
        assert_scores_match_forward_batch(data, dims)

    @pytest.mark.parametrize("mode", MODES)
    def test_scoring_projects_no_keys(self, mode, monkeypatch):
        """Scoring attends from the query side in every mode: it never
        calls the training kernel, which projects every inference sentence
        through W_k, nor the pair-major forward_batch."""
        from cscoref import scorer

        dims = ModelDims(d=6, d_len=4, d_a=3, h=16, mode=mode)
        data = make_random_dataset(dims, 5, n_mentions=9, n_pairs=30)
        params = init_parameters(dims, 0)
        params.W_q_before *= 50.0
        params.W_q_after *= 50.0
        want, _ = forward_batch(params, data, np.arange(data.n_pairs),
                                training=False)

        def projects_keys(*args):
            raise AssertionError("scoring called attention_forward")

        def pair_major(*args, **kwargs):
            raise AssertionError("scoring called forward_batch")

        monkeypatch.setattr(scorer, "attention_forward", projects_keys)
        monkeypatch.setattr(scorer, "forward_batch", pair_major)
        monkeypatch.setattr(training, "forward_batch", pair_major)
        np.testing.assert_allclose(score_dataset(params, data), want,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ("intra", "inter"))
    def test_all_inference_sets_empty(self, mode, small_corpus, tmp_path):
        from cscoref.commonsense import FixtureProvider

        path = tmp_path / "fixtures.jsonl"
        path.write_bytes(b"")
        with pytest.warns(UserWarning):
            data = build_dataset(small_corpus, EMB, mode,
                                 inference_source=FixtureProvider(
                                     path, strict=False))
        assert len(data.sent_tensors) == 1  # the dummy sentence row
        dims = ModelDims(d=8, d_len=4, d_a=2, h=8, mode=mode,
                         max_width_bucket=4)
        assert_scores_match_forward_batch(data, dims)
