import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from cscoref.commonsense import BULK_CHUNK
from cscoref.corpus import Document
from cscoref.embed import (EmbedderConfig, EmbeddingError, HashEmbedder,
                           ServiceEmbedder, hash_embed, span_representation,
                           width_bucket)
from cscoref.synthgen import SyntheticProvider, SyntheticSpec, \
    generate_synthetic
from cscoref.training import build_dataset

# regression value computed once from this implementation (d=16, seed=1,
# tokens "token0".."token999")
MAX_ABS_COSINE_1000 = 0.8841098876578312


class TestHashEmbed:
    def test_deterministic(self):
        a = hash_embed("crash", 16, 7)
        b = hash_embed("crash", 16, 7)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self, rng):
        for _ in range(50):
            token = f"tok{rng.integers(1_000_000)}"
            v = hash_embed(token, int(rng.integers(1, 64)), 3)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_seed_and_token_sensitivity(self):
        assert not np.allclose(hash_embed("a", 8, 0), hash_embed("a", 8, 1))
        assert not np.allclose(hash_embed("a", 8, 0), hash_embed("b", 8, 0))

    def test_cosine_separation_regression(self):
        vecs = np.stack([hash_embed(f"token{i}", 16, 1) for i in range(1000)])
        cos = vecs @ vecs.T
        np.fill_diagonal(cos, 0.0)
        m = np.abs(cos).max()
        assert m < 0.95
        assert m == pytest.approx(MAX_ABS_COSINE_1000, abs=1e-12)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            hash_embed("x", 0, 0)


class TestHashEmbedder:
    def test_document_shapes(self):
        config = EmbedderConfig(provider="hash", d=8, seed=0)
        doc = Document("d", "t", "s", [["a", "b", "c"], ["d", "e"]])
        matrices = HashEmbedder(config).embed_document(doc)
        assert [m.shape for m in matrices] == [(3, 8), (2, 8)]

    def test_repeated_token_identical_rows(self):
        config = EmbedderConfig(provider="hash", d=8, seed=0)
        embedder = HashEmbedder(config)
        matrix = embedder.embed_sentence(["go", "stop", "go"])
        np.testing.assert_array_equal(matrix[0], matrix[2])


class _Handler(BaseHTTPRequestHandler):
    responses = {}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        self.server.posts += 1
        spec = self.server.behavior
        if spec.get("status", 200) != 200:
            self.send_response(spec["status"])
            self.end_headers()
            return
        d = spec["d"]
        body = {"vectors": [[[0.1] * d for _ in sent]
                            for sent in payload["sentences"]], "d": d}
        if spec.get("drop_field"):
            del body["d"]
        if "sentences" in spec:  # a reply for another number of sentences
            body["vectors"] = [[[0.1] * d]] * spec["sentences"]
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def embedding_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.behavior = {"d": 4}
    server.posts = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _service_config(server, d=4):
    return EmbedderConfig(provider="service", d=d,
                          endpoint=f"http://127.0.0.1:{server.server_port}/",
                          timeout=5.0)


class TestServiceEmbedder:
    def test_happy_path(self, embedding_server):
        embedder = ServiceEmbedder(_service_config(embedding_server))
        doc = Document("d", "t", "s", [["a", "b"]])
        matrices = embedder.embed_document(doc)
        assert matrices[0].shape == (2, 4)

    def test_dimension_mismatch(self, embedding_server):
        embedding_server.behavior = {"d": 1024}
        embedder = ServiceEmbedder(_service_config(embedding_server, d=16))
        doc = Document("d", "t", "s", [["a"]])
        with pytest.raises(EmbeddingError, match="dimension 1024"):
            embedder.embed_document(doc)

    def test_non_200(self, embedding_server):
        embedding_server.behavior = {"d": 4, "status": 503}
        embedder = ServiceEmbedder(_service_config(embedding_server))
        doc = Document("d", "t", "s", [["a"]])
        with pytest.raises(EmbeddingError, match="503"):
            embedder.embed_document(doc)

    def test_schema_violation(self, embedding_server):
        embedding_server.behavior = {"d": 4, "drop_field": True}
        embedder = ServiceEmbedder(_service_config(embedding_server))
        doc = Document("d", "t", "s", [["a"]])
        with pytest.raises(EmbeddingError, match="malformed"):
            embedder.embed_document(doc)

    @pytest.mark.parametrize("returned", [1, 4])
    def test_reply_for_another_number_of_sentences(self, embedding_server,
                                                   returned):
        embedding_server.behavior = {"d": 4, "sentences": returned}
        embedder = ServiceEmbedder(_service_config(embedding_server))
        doc = Document("d", "t", "s", [["a"], ["b"], ["c"]])
        with pytest.raises(EmbeddingError) as error:
            embedder.embed_document(doc)
        assert str(error.value) == (
            f"service returned vectors for {returned} sentences, sent 3")

    def test_build_sends_one_request_per_chunk(self, embedding_server):
        """A build embeds each document with one request and the inference
        sentences of each ``BULK_CHUNK`` mentions with one more."""
        spec = SyntheticSpec(n_topics=2, clusters_per_topic=3,
                             mentions_per_cluster=6, seed=3)
        corpus = generate_synthetic(spec)[0]
        assert len(corpus.mentions) > BULK_CHUNK
        data = build_dataset(corpus, _service_config(embedding_server),
                             "intra", inference_source=SyntheticProvider(spec))
        assert data.sent_tensors.X.shape[0] == len(data.sentences) \
            > len(corpus.mentions)
        assert embedding_server.posts <= len(corpus.documents) + math.ceil(
            len(corpus.mentions) / BULK_CHUNK)

    def test_unreachable(self):
        config = EmbedderConfig(provider="service", d=4,
                                endpoint="http://127.0.0.1:9/",
                                timeout=0.2)
        embedder = ServiceEmbedder(config)
        doc = Document("d", "t", "s", [["a"]])
        with pytest.raises(EmbeddingError, match="unreachable"):
            embedder.embed_document(doc)

    def test_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            EmbedderConfig(provider="service", d=4)


class TestSpanRepresentation:
    def params(self, d=2, d_len=3, buckets=4):
        rng = np.random.default_rng(0)
        return rng.standard_normal(d), rng.standard_normal((buckets, d_len))

    def test_single_token_span(self):
        w_alpha, table = self.params()
        x = np.array([[0.3, -0.7]])
        rep = span_representation([x], 0, 0, 0, w_alpha, table)
        np.testing.assert_array_equal(rep.start, x[0])
        np.testing.assert_array_equal(rep.last, x[0])
        np.testing.assert_allclose(rep.pooled, x[0])
        np.testing.assert_array_equal(rep.weights, [1.0])

    def test_equal_scores_average(self):
        table = np.zeros((4, 3))
        w_alpha = np.zeros(2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = span_representation([x], 0, 0, 1, w_alpha, table)
        np.testing.assert_allclose(rep.pooled, [0.5, 0.5])

    def test_hand_softmax_case(self):
        # tokens (1,0) and (0,1) with w_alpha (ln 3, 0): weights (3/4, 1/4)
        table = np.zeros((4, 3))
        w_alpha = np.array([np.log(3.0), 0.0])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = span_representation([x], 0, 0, 1, w_alpha, table)
        np.testing.assert_allclose(rep.weights, [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(rep.pooled, [0.75, 0.25], atol=1e-12)

    def test_full_concatenation_layout(self):
        w_alpha, table = self.params(d=2, d_len=3)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        rep = span_representation([x], 0, 0, 1, w_alpha, table)
        assert rep.full.shape == (3 * 2 + 3,)
        np.testing.assert_array_equal(rep.full[:2], rep.start)
        np.testing.assert_array_equal(rep.full[2:4], rep.last)
        np.testing.assert_array_equal(rep.full[4:6], rep.pooled)
        np.testing.assert_array_equal(rep.full[6:], rep.width_feature)

    def test_out_of_bounds(self):
        w_alpha, table = self.params()
        x = np.zeros((2, 2))
        with pytest.raises(IndexError):
            span_representation([x], 0, 0, 2, w_alpha, table)
        with pytest.raises(IndexError):
            span_representation([x], 1, 0, 0, w_alpha, table)

    def test_weights_sum_to_one_and_convex(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((n, d))
            w_alpha = rng.standard_normal(d)
            table = rng.standard_normal((8, 4))
            rep = span_representation([x], 0, 0, n - 1, w_alpha, table)
            assert abs(rep.weights.sum() - 1.0) <= 1e-9
            assert (rep.weights >= 0).all()
            # pooled is inside the convex hull: check coordinate bounds
            assert (rep.pooled <= x.max(axis=0) + 1e-12).all()
            assert (rep.pooled >= x.min(axis=0) - 1e-12).all()

    def test_width_bucket_clamps(self):
        assert width_bucket(1, 8) == 0
        assert width_bucket(8, 8) == 7
        assert width_bucket(30, 8) == 7
        with pytest.raises(ValueError):
            width_bucket(0, 8)

    def test_pooled_gradient_matches_finite_differences(self, rng):
        # d(target . pooled)/d(w_alpha) vs central differences
        d = 4
        x = rng.standard_normal((5, d))
        table = np.zeros((8, 2))
        w_alpha = rng.standard_normal(d)
        target = rng.standard_normal(d)

        def value(w):
            rep = span_representation([x], 0, 0, 4, w, table)
            return float(target @ rep.pooled)

        rep = span_representation([x], 0, 0, 4, w_alpha, table)
        alpha = rep.weights
        d_alpha = x @ target
        inner = float(alpha @ d_alpha)
        analytic = (alpha * (d_alpha - inner)) @ x

        step = 1e-5
        for i in range(d):
            w_up = w_alpha.copy()
            w_up[i] += step
            w_dn = w_alpha.copy()
            w_dn[i] -= step
            numeric = (value(w_up) - value(w_dn)) / (2 * step)
            denom = max(abs(numeric), abs(analytic[i]), 1e-8)
            assert abs(numeric - analytic[i]) / denom <= 1e-4
