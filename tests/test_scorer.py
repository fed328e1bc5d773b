import hashlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cscoref import scorer
from cscoref.scorer import (BLOCK_ORDER, CheckpointReader, ModelDims,
                            ModelParameters, NonFiniteParameterError,
                            ScorerError, attend,
                            backward_batch, backward_head, backward_tail,
                            bce_loss, commonsense_vector,
                            forward_batch,
                            forward_head, forward_tail, gradients,
                            init_parameters, load_checkpoint, pair_features,
                            save_checkpoint, score_pair, segment_sum)
from cscoref.training import make_random_dataset


@pytest.fixture
def dims():
    return ModelDims(d=4, d_len=3, d_a=2, h=6, mode="intra")


@pytest.fixture
def params(dims):
    return init_parameters(dims, 0)


class TestAttend:
    def test_singleton_weight_one(self, rng):
        rep_dim = 5
        W_q = rng.standard_normal((rep_dim, 2))
        W_k = rng.standard_normal((rep_dim, 2))
        r = rng.standard_normal(rep_dim)
        out = attend(rng.standard_normal(rep_dim), [r], W_q, W_k)
        np.testing.assert_allclose(out.weights, [1.0])
        np.testing.assert_allclose(out.vector, r)

    def test_identical_representations_uniform(self, rng):
        rep_dim = 5
        W_q = rng.standard_normal((rep_dim, 2))
        W_k = rng.standard_normal((rep_dim, 2))
        r = rng.standard_normal(rep_dim)
        out = attend(rng.standard_normal(rep_dim), [r, r, r], W_q, W_k)
        np.testing.assert_allclose(out.weights, [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(out.vector, r)

    def test_hand_projected_scores(self):
        # d_a=1; projections give scores (0, ln 2) -> weights (1/3, 2/3)
        W_q = np.array([[1.0]])
        W_k = np.array([[1.0]])
        query = np.array([1.0])
        reps = [np.array([0.0]), np.array([np.log(2.0)])]
        out = attend(query, reps, W_q, W_k)
        np.testing.assert_allclose(out.weights, [1 / 3, 2 / 3], atol=1e-12)
        np.testing.assert_allclose(out.vector,
                                   (2 / 3) * np.array([np.log(2.0)]),
                                   atol=1e-12)

    def test_empty_list_zero_vector(self, rng):
        W = rng.standard_normal((5, 2))
        out = attend(rng.standard_normal(5), [], W, W)
        np.testing.assert_array_equal(out.vector, np.zeros(5))
        assert out.weights.size == 0

    def test_dimension_mismatch(self, rng):
        W = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            attend(rng.standard_normal(4), [], W, W)
        with pytest.raises(ValueError):
            attend(rng.standard_normal(5), [rng.standard_normal(4)], W, W)

    def test_invariants_1000_random_instances(self, rng):
        """Acceptance: nonneg weights, sum 1, permutation behavior,
        singleton weight 1.0."""
        for _ in range(1000):
            rep_dim = int(rng.integers(1, 6))
            d_a = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            W_q = rng.standard_normal((rep_dim, d_a))
            W_k = rng.standard_normal((rep_dim, d_a))
            query = rng.standard_normal(rep_dim)
            reps = [rng.standard_normal(rep_dim) for _ in range(n)]
            out = attend(query, reps, W_q, W_k)
            assert (out.weights >= 0).all()
            assert abs(out.weights.sum() - 1.0) <= 1e-9
            if n == 1:
                assert out.weights[0] == pytest.approx(1.0, abs=1e-12)
            perm = rng.permutation(n)
            permuted = attend(query, [reps[i] for i in perm], W_q, W_k)
            np.testing.assert_allclose(permuted.weights, out.weights[perm],
                                       atol=1e-9)
            np.testing.assert_allclose(permuted.vector, out.vector,
                                       atol=1e-9)

    def test_duplicate_of_identical_keys_keeps_vector(self, rng):
        rep_dim, d_a = 4, 2
        W_q = rng.standard_normal((rep_dim, d_a))
        W_k = rng.standard_normal((rep_dim, d_a))
        query = rng.standard_normal(rep_dim)
        r = rng.standard_normal(rep_dim)
        two = attend(query, [r, r], W_q, W_k)
        three = attend(query, [r, r, r], W_q, W_k)
        assert two.weights.shape != three.weights.shape
        np.testing.assert_allclose(two.vector, three.vector, atol=1e-12)


class TestCommonsenseVector:
    def test_empty_before_keeps_after(self, params, dims, rng):
        r = rng.standard_normal(dims.rep_dim)
        ctx = rng.standard_normal(dims.rep_dim)
        cs, traces = commonsense_vector("intra", ctx, [], [r], params)
        np.testing.assert_array_equal(cs[:dims.rep_dim],
                                      np.zeros(dims.rep_dim))
        np.testing.assert_allclose(cs[dims.rep_dim:], r)
        assert traces["before"].weights.size == 0

    def test_mode_only_routes_inputs(self, params, dims, rng):
        ctx = rng.standard_normal(dims.rep_dim)
        before = [rng.standard_normal(dims.rep_dim)]
        after = [rng.standard_normal(dims.rep_dim)]
        intra, _ = commonsense_vector("intra", ctx, before, after, params)
        inter, _ = commonsense_vector("inter", ctx, before, after, params)
        np.testing.assert_array_equal(intra, inter)

    def test_permutation_invariant(self, params, dims, rng):
        ctx = rng.standard_normal(dims.rep_dim)
        before = [rng.standard_normal(dims.rep_dim) for _ in range(4)]
        a, _ = commonsense_vector("intra", ctx, before, [], params)
        b, _ = commonsense_vector("intra", ctx, before[::-1], [], params)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_baseline_mode_rejected(self, params, dims):
        with pytest.raises(ValueError):
            commonsense_vector("baseline", np.zeros(dims.rep_dim), [], [],
                               params)


class TestPairFeatures:
    def test_full_mode_dimension(self, rng):
        # d=16, d_len=20: rep 68, full feature 6*68 = 408
        ctx = rng.standard_normal(68)
        cs = rng.standard_normal(136)
        feature = pair_features(ctx, ctx, cs, cs, "intra")
        assert feature.g.shape == (408,)

    def test_baseline_dimension(self, rng):
        ctx = rng.standard_normal(68)
        feature = pair_features(ctx, ctx, None, None, "baseline")
        assert feature.g.shape == (136,)

    def test_layout_order(self, rng):
        ctx_i = rng.standard_normal(5)
        ctx_j = rng.standard_normal(5)
        cs_i = rng.standard_normal(10)
        cs_j = rng.standard_normal(10)
        g = pair_features(ctx_i, ctx_j, cs_i, cs_j, "inter").g
        np.testing.assert_array_equal(g[:5], ctx_i)
        np.testing.assert_array_equal(g[5:10], ctx_j)
        np.testing.assert_array_equal(g[10:20], cs_i)
        np.testing.assert_array_equal(g[20:30], cs_j)

    def test_zero_cs_blocks(self, rng):
        ctx = rng.standard_normal(5)
        g = pair_features(ctx, ctx, np.zeros(10), np.zeros(10), "intra").g
        np.testing.assert_array_equal(g[10:], np.zeros(20))

    def test_missing_cs_rejected(self, rng):
        ctx = rng.standard_normal(5)
        with pytest.raises(ValueError):
            pair_features(ctx, ctx, None, None, "intra")


class TestScorePair:
    def test_zero_parameters_give_half(self, dims, params):
        for name in ("W1", "b1", "W2", "b2"):
            getattr(params, name)[...] = 0.0
        g = np.ones(dims.g_dim)
        assert score_pair(params, g) == pytest.approx(0.5)

    def test_output_in_open_interval(self, params, dims, rng):
        for _ in range(50):
            p = score_pair(params, rng.standard_normal(dims.g_dim))
            assert 0.0 < p < 1.0

    def test_eval_deterministic(self, params, dims, rng):
        g = rng.standard_normal(dims.g_dim)
        assert score_pair(params, g) == score_pair(params, g)

    def test_monotone_in_bias(self, params, dims, rng):
        g = rng.standard_normal(dims.g_dim)
        lo = score_pair(params, g)
        params.b2[...] = params.b2 + 1.0
        hi = score_pair(params, g)
        assert hi > lo

    def test_non_finite_names_block(self, params, dims):
        params.W1[0, 0] = np.inf
        with pytest.raises(NonFiniteParameterError, match="W1"):
            score_pair(params, np.zeros(dims.g_dim))

    @pytest.mark.parametrize("block", ["b1", "W2", "b2"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_later_block_named(self, params, dims, rng, block,
                                          value):
        getattr(params, block).reshape(-1)[-1] = value
        with pytest.raises(NonFiniteParameterError, match=block) as err:
            score_pair(params, rng.standard_normal(dims.g_dim))
        assert err.value.block == block

    def test_non_finite_features_name_first_layer(self, params, dims):
        g = np.zeros(dims.g_dim)
        g[0] = np.inf
        with pytest.raises(NonFiniteParameterError, match="W1"):
            score_pair(params, g)


class TestBatchLoss:
    """``bce_loss``, the mean clamped cross-entropy of a batch."""

    def test_half_probability_gives_ln2(self):
        assert bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0])) \
            == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct_is_tiny(self):
        # p at or past the clamp: loss <= -ln(1 - 1e-7)
        for p in (1.0 - 1e-9, 1.0):
            assert bce_loss(np.array([p]), np.array([1.0])) \
                <= -np.log(1.0 - 1e-7) + 1e-15

    def test_hand_arithmetic_point_nine(self):
        expected = (-np.log(0.9) - np.log(0.1)) / 2
        assert bce_loss(np.array([0.9, 0.9]), np.array([1.0, 0.0])) \
            == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.2040, abs=1e-4)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([]), np.array([]))


class TestGradients:
    def test_bias_gradient_at_zero_parameters(self, dims):
        params = init_parameters(dims, 0)
        for name in ("W1", "b1", "W2", "b2"):
            getattr(params, name)[...] = 0.0
        data = make_random_dataset(dims, 5, n_pairs=2)
        data.labels[:] = [1.0, 0.0]
        _, grads = gradients(params, data, np.array([0]))
        assert grads["b2"] == pytest.approx(-0.5)  # p - y = 0.5 - 1
        _, grads = gradients(params, data, np.array([1]))
        assert grads["b2"] == pytest.approx(0.5)

    def test_duplicated_example_equals_single(self, dims, params):
        data = make_random_dataset(dims, 5, n_pairs=4)
        single_loss, single = gradients(params, data, np.array([2]))
        double_loss, double = gradients(params, data, np.array([2, 2]))
        assert double_loss == pytest.approx(single_loss, abs=1e-12)
        for name, g in single.items():
            np.testing.assert_allclose(double[name], g, atol=1e-12)

    # sha256 of every gradient block in BLOCK_ORDER on a random dataset
    # whose span and sentence rows share rows and width buckets, as computed
    # by the per-block backward with np.add.at
    PINNED_GRADIENTS = {
        "baseline": "0e1158140642dc94cc51b9932c5ee5d6"
                    "de4de285f0ad076106c00ab8284e0516",
        "intra": "68f818ddac1881bfcbb6374bd785806f"
                 "8de6434e75a4f1d9032c8a147a0bed21",
        "inter": "ab41aaeec168433cb8383871049dfdf0"
                 "881160df5d271241a00b6966107076ec",
    }

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_pinned_gradient_bytes(self, mode):
        dims = ModelDims(d=4, d_len=3, d_a=2, h=6, mode=mode)
        params = init_parameters(dims, 0)
        data = make_random_dataset(dims, 5, n_mentions=12, n_pairs=40)
        _, grads = gradients(params, data, np.arange(40))
        # + 0.0: a gradient written in place may hold -0.0 where a sum
        # into zeros held +0.0; both are zero
        blob = b"".join((grads[name] + 0.0).tobytes()
                        for name in BLOCK_ORDER)
        assert hashlib.sha256(blob).hexdigest() == \
            self.PINNED_GRADIENTS[mode]

    # sha256 of the probabilities, z1 and the gradient vector of
    # forward_batch and backward_batch on pairs 3..39 of the pinned
    # gradients' dataset, with no mask and with a mask drawn at seed 4, as
    # computed before the two kernels were split into stages
    PINNED_STAGES = {
        ("baseline", False): "38fcca3e3520a0a41665f8c4b8f10c4e"
                             "b57eddc257d61845d3e5874e981519f1",
        ("baseline", True): "45d83a5958ecdb0420753a46f5730658"
                            "344e78246bc9f83a90f58b8df434814f",
        ("intra", False): "b3d7a6a32404f6d31d973158ee0269dc"
                          "4a5c7e748ecf64dbea95a16cfd566a1d",
        ("intra", True): "89afd12460037b47fddbd71a058a5f14"
                         "670f2d27d223de2109332d359fe24a2d",
        ("inter", False): "00da41cdecde3c756fe63562c7a25660"
                          "7127e4aee59c0553a43e45b8c2e76c20",
        ("inter", True): "2c6e9f35e599afac125ba0ce42394abe"
                         "013f5c328b1b0e43d8f6a64f55673452",
    }

    @pytest.mark.parametrize("masked", [False, True],
                             ids=["no-mask", "mask"])
    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_stages_reproduce_batch_kernels(self, mode, masked):
        """The stages, run as the training loop runs them into a gradient
        vector that holds a previous step's values, give the bytes of
        ``forward_batch`` and ``backward_batch``; both hold their pin."""
        dims = ModelDims(d=4, d_len=3, d_a=2, h=6, mode=mode)
        params = init_parameters(dims, 0)
        data = make_random_dataset(dims, 5, n_mentions=12, n_pairs=40)
        sel = np.arange(3, 40)
        labels = data.labels[sel]
        mask = np.random.default_rng(4).random((len(sel), dims.h)) >= 0.3 \
            if masked else None
        probs, cache = forward_batch(params, data, sel, training=masked,
                                     dropout_mask=mask)
        want = backward_batch(params, data, cache, labels)

        head = forward_head(params, data, sel)
        stage_probs, tail = forward_tail(params, head["G"], training=masked,
                                         dropout_mask=mask)
        grads = ModelParameters(dims)
        grads.flat[:] = np.nan  # what a stage leaves unwritten stays NaN
        d_z1 = backward_tail(params, tail, labels, grads)
        np.matmul(head["G"].T, d_z1, out=grads.W1)
        backward_head(params, data, head, d_z1 @ params.W1.T, grads)

        assert stage_probs.tobytes() == probs.tobytes()
        assert tail["z1"].tobytes() == cache["z1"].tobytes()
        assert grads.flat.tobytes() == want.flat.tobytes()
        digest = hashlib.sha256(probs.tobytes() + cache["z1"].tobytes()
                                + (want.flat + 0.0).tobytes()).hexdigest()
        assert digest == self.PINNED_STAGES[mode, masked]

    def test_loss_matches_bce_of_forward_batch(self, dims, params):
        data = make_random_dataset(dims, 5, n_pairs=6)
        sel = np.arange(6)
        loss, _ = gradients(params, data, sel)
        probs, _ = forward_batch(params, data, sel)
        assert loss == pytest.approx(bce_loss(probs, data.labels[sel]),
                                     abs=1e-15)


def composed_probabilities(params, data, sel):
    """Pair-by-pair probabilities from the single-instance operations."""
    from cscoref.embed import span_representation

    mode = params.dims.mode

    def mention_rep(row):
        t = data.span_tensors
        length = t.lengths[row]
        return span_representation(
            [t.X[row, :length]], 0, 0, length - 1, params.w_alpha,
            params.width_table).full

    def sentence_reps(rows):
        reps = []
        for row in rows:
            if row < 0:
                continue
            t = data.sent_tensors
            length = t.lengths[row]
            reps.append(span_representation(
                [t.X[row, :length]], 0, 0, length - 1, params.w_alpha,
                params.width_table).full)
        return reps

    out = []
    for p in sel:
        i, j = data.pair_i[p], data.pair_j[p]
        ctx_i, ctx_j = mention_rep(i), mention_rep(j)
        if mode == "baseline":
            g = pair_features(ctx_i, ctx_j, None, None, mode).g
        else:
            src_i = i if mode == "intra" else j
            src_j = j if mode == "intra" else i
            cs_i, _ = commonsense_vector(
                mode, ctx_i, sentence_reps(data.before_idx[src_i]),
                sentence_reps(data.after_idx[src_i]), params)
            cs_j, _ = commonsense_vector(
                mode, ctx_j, sentence_reps(data.before_idx[src_j]),
                sentence_reps(data.after_idx[src_j]), params)
            g = pair_features(ctx_i, ctx_j, cs_i, cs_j, mode).g
        out.append(score_pair(params, g))
    return out


class TestBatchSingleConsistency:
    """The vectorized batch path must agree with the single-instance ops."""

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_forward_matches_composition(self, mode, rng):
        dims = ModelDims(d=3, d_len=2, d_a=2, h=4, mode=mode)
        params = init_parameters(dims, 1)
        data = make_random_dataset(dims, 99, n_mentions=5, n_pairs=6, k=3)
        probs, _ = forward_batch(params, data, np.arange(6))
        expected = composed_probabilities(params, data, range(6))
        for p in range(6):
            assert probs[p] == pytest.approx(expected[p], abs=1e-12)

    @pytest.mark.parametrize("mode", ["intra", "inter"])
    def test_attention_runs_once_per_distinct_row(self, mode, monkeypatch):
        """Intra attends once per mention, inter once per ordered pair."""
        from cscoref import scorer

        dims = ModelDims(d=3, d_len=2, d_a=2, h=4, mode=mode)
        params = init_parameters(dims, 1)
        for name in ("W_q_before", "W_k_before", "W_q_after", "W_k_after"):
            getattr(params, name)[...] *= 50
        data = make_random_dataset(dims, 7, n_mentions=6, n_pairs=24, k=3)
        sel = np.arange(24)
        qi, qj = data.pair_i[sel], data.pair_j[sel]
        if mode == "intra":
            distinct = len(set(qi) | set(qj))
        else:
            distinct = len(set(zip(qi, qj)) | set(zip(qj, qi)))
        assert distinct < 2 * len(sel)  # the pairs share mentions

        query_rows = []
        kernel = scorer.attention_forward

        def spy(Q, Kr, kmask, W_q, W_k):
            query_rows.append(Q.shape[0])
            return kernel(Q, Kr, kmask, W_q, W_k)

        monkeypatch.setattr(scorer, "attention_forward", spy)
        probs, _ = forward_batch(params, data, sel)
        assert query_rows == [distinct, distinct]  # before, after
        expected = composed_probabilities(params, data, sel)
        for p in sel:
            assert probs[p] == pytest.approx(expected[p], rel=1e-12)


    @pytest.mark.parametrize("mode", ["intra", "inter"])
    def test_score_pairs_matches_composition_at_wide_shape(self, mode):
        """The predict path's query-side attention agrees with ``attend``
        at r = 200, with peaked attention and partly filled sets."""
        from cscoref.scorer import score_dataset

        dims = ModelDims(d=64, d_len=8, d_a=16, h=32, mode=mode)
        assert dims.rep_dim >= 200
        params = init_parameters(dims, 3)
        params.W_q_before *= 50.0
        params.W_q_after *= 50.0
        k = 4
        data = make_random_dataset(dims, 11, n_mentions=8, n_pairs=20, k=k)
        filled = np.concatenate([(data.before_idx >= 0).sum(axis=1),
                                 (data.after_idx >= 0).sum(axis=1)])
        assert ((filled > 0) & (filled < k)).any()
        sel = np.arange(data.n_pairs)
        _, cache = forward_batch(params, data, sel)
        weights = np.concatenate([cache["att"][rel]["cache"]["weights"]
                                  for rel in ("before", "after")])
        assert ((weights > 0.5) & (weights < 0.99)).any()  # peaked, unequal
        expected = composed_probabilities(params, data, sel)
        got = score_dataset(params, data)
        for p in sel:
            assert got[p] == pytest.approx(expected[p], rel=1e-9)


def einsum_attention_forward(Q, Kr, kmask, W_q, W_k):
    """Per-row einsum formulation of the attention kernel."""
    from cscoref.scorer import masked_softmax

    d_a = W_q.shape[1]
    q_proj = Q @ W_q
    k_proj = np.einsum("bkr,ra->bka", Kr, W_k)
    scores = np.einsum("ba,bka->bk", q_proj, k_proj) / np.sqrt(d_a)
    weights = masked_softmax(scores, kmask)
    return np.einsum("bk,bkr->br", weights, Kr), q_proj, k_proj, weights


def einsum_attention_backward(d_out, Q, Kr, W_q, W_k, q_proj, k_proj,
                              weights):
    d_a = W_q.shape[1]
    d_w = np.einsum("br,bkr->bk", d_out, Kr)
    inner = (weights * d_w).sum(axis=1, keepdims=True)
    d_score = weights * (d_w - inner) / np.sqrt(d_a)
    d_qproj = np.einsum("bk,bka->ba", d_score, k_proj)
    d_kproj = np.einsum("bk,ba->bka", d_score, q_proj)
    g_Wq = Q.T @ d_qproj
    g_Wk = np.einsum("bkr,bka->ra", Kr, d_kproj)
    d_Q = d_qproj @ W_q.T
    d_Kr = (np.einsum("bk,br->bkr", weights, d_out)
            + np.einsum("bka,ra->bkr", d_kproj, W_k))
    return d_Q, d_Kr, g_Wq, g_Wk


class TestAttentionKernels:
    """The GEMM kernels compute the per-row einsum math."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_einsum_reference(self, seed):
        from cscoref.scorer import attention_backward, attention_forward

        rng = np.random.default_rng(seed)
        b, k, r, d_a = 9, 4, 7, 3
        kmask = rng.random((b, k)) < 0.6
        kmask[0] = False             # fully masked row
        kmask[1] = True              # full row
        kmask[2] = [True] + [False] * (k - 1)
        Kr = rng.standard_normal((b, k, r)) * kmask[:, :, None]
        Q = rng.standard_normal((b, r))
        W_q = rng.standard_normal((r, d_a))
        W_k = rng.standard_normal((r, d_a))
        d_out = rng.standard_normal((b, r))

        out, cache = attention_forward(Q, Kr, kmask, W_q, W_k)
        ref_out, q_proj, k_proj, weights = einsum_attention_forward(
            Q, Kr, kmask, W_q, W_k)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache["weights"], weights, rtol=0,
                                   atol=1e-12)
        assert not cache["weights"][0].any()
        assert not out[0].any()

        g_Wq, g_Wk = np.zeros_like(W_q), np.zeros_like(W_k)
        d_Q, d_Kr = attention_backward(d_out, cache, W_q, W_k, g_Wq, g_Wk)
        for got, want in zip(
                (d_Q, d_Kr, g_Wq, g_Wk),
                einsum_attention_backward(d_out, Q, Kr, W_q, W_k, q_proj,
                                          k_proj, weights)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip_identical(self, tmp_path, dims, params):
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == dims
        for name, arr in params.blocks().items():
            np.testing.assert_array_equal(getattr(loaded, name), arr)

    def test_empty_blocks_roundtrip(self, tmp_path, dims):
        """With ``h = 0`` ``W1``, ``b1`` and ``W2`` hold no bytes: no
        pieces, and the other blocks still load."""
        params = ModelParameters(replace(dims, h=0))
        params.flat[...] = np.arange(1, params.flat.size + 1)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        assert load_checkpoint(path).flat.tobytes() == params.flat.tobytes()

    def test_save_deterministic_bytes(self, tmp_path, params):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path, params):
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(Exception, match="truncated"):
            load_checkpoint(path)

    def test_cut_inside_W1_rejected(self, tmp_path, params):
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        data = path.read_bytes()
        w1_end = data.index(b'{"name": "b1"')
        path.write_bytes(data[:w1_end - params.W1.nbytes // 2])
        with pytest.raises(ScorerError, match="truncated in block W1"):
            load_checkpoint(path)

    def test_loaded_blocks_are_views_of_one_buffer(self, tmp_path, params):
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        flat = loaded.flat
        assert flat.flags.owndata and flat.flags.c_contiguous
        offset = 0
        for name, arr in loaded.blocks().items():
            assert arr.flags.writeable and arr.flags.c_contiguous, name
            assert arr.dtype == np.float64, name
            assert arr.base is flat, name  # a view, not a per-block copy
            start = (arr.__array_interface__["data"][0]
                     - flat.__array_interface__["data"][0])
            assert start == offset * 8, name  # in BLOCK_ORDER, back to back
            offset += arr.size
        assert list(loaded.blocks()) == list(BLOCK_ORDER)
        assert offset == flat.size
        assert loaded.b2.shape == ()
        np.testing.assert_array_equal(flat, params.flat)

    def test_shell_is_zeroed_and_filled_in_place(self, tmp_path, params):
        """Opening a ``CheckpointReader`` checks the header and the block
        lines and allocates zeroed parameters; ``load_checkpoint`` then
        fills that same buffer."""
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        with CheckpointReader(path) as reader:
            shell = reader.params
            assert shell.dims == params.dims
            assert not shell.flat.any()
            assert load_checkpoint(reader) is shell
        np.testing.assert_array_equal(shell.flat, params.flat)

    def test_load_into_other_dims_rejected(self, tmp_path, params):
        """A file rewritten in place with other dims after the open is read
        into the parameters of the dims seen at open, and rejected."""
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        opened = os.stat(path)
        with pytest.raises(ScorerError) as err:
            with CheckpointReader(path) as reader:
                save_checkpoint(init_parameters(
                    replace(params.dims, h=params.dims.h + 1), 0), path)
                os.utime(path, ns=(opened.st_atime_ns,
                                   opened.st_mtime_ns + 10**9))
                load_checkpoint(reader)
        assert str(err.value) == (
            f"{path}: checkpoint changed while it was read")

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_piece_order_does_not_change_the_bytes(self, tmp_path,
                                                   monkeypatch, mode):
        """With 4 KB pieces ``W1`` spans many and the 0-d ``b2`` is a piece
        of its own. Read in reverse file order, or by two threads at once,
        or by four switching every microsecond, the parameters are
        byte-identical to a one-thread read: no piece is skipped and none
        overlaps another."""
        monkeypatch.setattr(scorer, "READ_PIECE", 4096)
        params = init_parameters(
            ModelDims(d=16, d_len=4, d_a=8, h=32, mode=mode), 3)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        one_thread = load_checkpoint(path).flat.tobytes()
        assert one_thread == params.flat.tobytes()
        with CheckpointReader(path) as reader:
            pieces = [len(view) for _, view in reader._pieces]
            assert sum(pieces) == params.flat.nbytes
            assert pieces.count(4096) >= params.W1.nbytes // 4096 > 1
            assert pieces[-1] == params.b2.nbytes == 8
            reader._pieces.reverse()  # read in reverse file order
            assert load_checkpoint(reader).flat.tobytes() == one_thread
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for readers in (2, 4):  # two threads, then more than the cores
                with CheckpointReader(path) as reader, \
                        ThreadPoolExecutor(readers - 1) as pool:
                    others = [pool.submit(load_checkpoint, reader)
                              for _ in range(readers - 1)]
                    load_checkpoint(reader)
                    for other in others:
                        assert other.result(timeout=30) is reader.params
                assert reader.params.flat.tobytes() == one_thread
        finally:
            sys.setswitchinterval(interval)

    def test_copy_is_independent(self, params):
        before = params.flat.copy()
        snapshot = params.copy()
        np.testing.assert_array_equal(snapshot.flat, before)
        snapshot.W1[0, 0] += 1.0
        snapshot.b2[...] = 7.0
        snapshot.flat[0] = -3.0
        np.testing.assert_array_equal(params.flat, before)
        assert snapshot.W1[0, 0] == before[params.slices["W1"]][0] + 1.0
        assert snapshot.flat[params.slices["b2"]][0] == 7.0

    # sha256 of the checkpoint of init_parameters(SMALL_DIMS(mode), 7), as
    # written by the tobytes() writer this one replaced
    SMALL_DIMS = dict(d=3, d_len=2, d_a=2, h=4, max_width_bucket=3)
    PINNED_SHA256 = {
        "baseline": "b7723a6f7743304f6fd431128c58fb96"
                    "685b93774d0c98f6c494593f62763c5b",
        "intra": "44ec2955221cb9722019bfab242f48de"
                 "2eaf0d5e339b97a528c671e7f7f2d78e",
        "inter": "a937e1988f3c4dd786e9ee080f2950f3"
                 "ee0cb189f5e0472af9f79882913e59db",
    }

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter"])
    def test_pinned_bytes(self, tmp_path, mode):
        params = init_parameters(ModelDims(mode=mode, **self.SMALL_DIMS), 7)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_SHA256[mode]

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"hello world")
        with pytest.raises(Exception, match="not a checkpoint"):
            load_checkpoint(path)


@st.composite
def segments(draw):
    """Indices (repeated, unsorted, possibly none) with rows of any float."""
    n = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    count = draw(st.integers(0, 20))
    index = np.array(draw(st.lists(st.integers(0, n - 1), min_size=count,
                                   max_size=count)), dtype=np.intp)
    values = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 1e-300, 3.0e15, -2.5])
    rows = np.array(draw(st.lists(values, min_size=count * width,
                                  max_size=count * width)),
                    dtype=np.float64).reshape(count, width)
    return index, rows, n


class TestSegmentSum:
    @settings(max_examples=300, deadline=None)
    @given(segments())
    def test_bit_equal_to_sequential_add_at(self, case):
        index, rows, n = case
        want = np.zeros((n, rows.shape[1]))
        np.add.at(want, index, rows)
        got = segment_sum(index, rows, n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_concatenated_lists_keep_each_bin_in_order(self, rng):
        # one call over concatenated index lists equals add.at list by list
        parts = [(rng.integers(0, 5, size=m), rng.standard_normal((m, 3)))
                 for m in (7, 0, 11)]
        want = np.zeros((5, 3))
        for index, rows in parts:
            np.add.at(want, index, rows)
        got = segment_sum(np.concatenate([i for i, _ in parts]),
                          np.concatenate([r for _, r in parts]), 5)
        assert got.tobytes() == want.tobytes()


class TestInit:
    def test_uniform_bounds(self, dims):
        params = init_parameters(dims, 3)
        bound = 1.0 / np.sqrt(dims.g_dim)
        assert np.abs(params.W1).max() <= bound
        assert np.abs(params.b1).max() <= bound
        assert np.abs(params.W2).max() <= 1.0 / np.sqrt(dims.h)

    def test_seeded(self, dims):
        a = init_parameters(dims, 3)
        b = init_parameters(dims, 3)
        c = init_parameters(dims, 4)
        np.testing.assert_array_equal(a.W1, b.W1)
        assert not np.array_equal(a.W1, c.W1)

    def test_baseline_g_dim(self):
        dims = ModelDims(d=16, d_len=20, mode="baseline")
        assert dims.g_dim == 2 * 68
        assert ModelDims(d=16, d_len=20, mode="intra").g_dim == 6 * 68
