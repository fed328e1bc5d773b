"""Token embedding providers and the span representation.

Two providers share one interface: a deterministic hash embedder for
desk-scale runs (context-free, seeded, unit-norm vectors), and an HTTP
client for a contextual embedding service. A span is represented as the
concatenation of its first token vector, last token vector, an
attention-pooled vector over the span, and a learned width-bucket feature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
import requests

from .corpus import Document, check_record


class EmbeddingError(RuntimeError):
    pass


@dataclass
class EmbedderConfig:
    provider: str = "hash"  # "hash" or "service"
    d: int = 16
    seed: int = 0
    endpoint: Optional[str] = None
    d_len: int = 20
    max_width_bucket: int = 8
    timeout: float = 30.0

    def __post_init__(self):
        if self.provider not in ("hash", "service"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.provider == "service" and not self.endpoint:
            raise ValueError("service provider requires an endpoint")
        if self.d < 1 or self.d_len < 1 or self.max_width_bucket < 1:
            raise ValueError("d, d_len and max_width_bucket must be >= 1")


def hash_embed(token: str, d: int, seed: int) -> np.ndarray:
    """Deterministic unit-norm vector for a token.

    The token and seed are hashed into the state of a PCG64 generator, so the
    same (token, d, seed) always yields the same vector and distinct tokens
    get independent draws.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=16,
        key=seed.to_bytes(8, "little", signed=True)).digest()
    rng = np.random.Generator(
        np.random.PCG64(int.from_bytes(digest, "little")))
    vec = rng.standard_normal(d)
    norm = np.linalg.norm(vec)
    while norm == 0.0:  # astronomically unlikely; redraw keeps the contract
        vec = rng.standard_normal(d)
        norm = np.linalg.norm(vec)
    return vec / norm


class HashEmbedder:
    """Context-free per-token embedder; identical tokens get identical rows."""

    def __init__(self, config: EmbedderConfig):
        self.config = config
        self._token_cache: dict[str, np.ndarray] = {}

    def embed_sentence(self, tokens) -> np.ndarray:
        rows = []
        for tok in tokens:
            vec = self._token_cache.get(tok)
            if vec is None:
                vec = hash_embed(tok, self.config.d, self.config.seed)
                self._token_cache[tok] = vec
            rows.append(vec)
        return np.stack(rows)

    def embed_sentences(self, sentences) -> list[np.ndarray]:
        return [self.embed_sentence(tokens) for tokens in sentences]

    def embed_document(self, document: Document) -> list[np.ndarray]:
        return self.embed_sentences(document.sentences)


class ServiceEmbedder:
    """Client for the contextual embedding service.

    Protocol: POST a JSON body ``{"sentences": [[token, ...], ...]}``; the
    response is ``{"vectors": [[[...], ...], ...], "d": int}``.
    """

    def __init__(self, config: EmbedderConfig, session=None):
        if config.provider != "service":
            raise ValueError("ServiceEmbedder requires provider='service'")
        self.config = config
        self._session = session or requests.Session()

    def embed_sentences(self, sentences) -> list[np.ndarray]:
        """One matrix per token list of ``sentences``, from one request.
        A failed request or a reply off the protocol is an
        ``EmbeddingError`` naming the endpoint."""
        url = self.config.endpoint
        payload = {"sentences": [list(s) for s in sentences]}
        try:
            resp = self._session.post(url, json=payload,
                                      timeout=self.config.timeout)
        except requests.RequestException as exc:
            raise EmbeddingError(
                f"{url}: embedding service unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise EmbeddingError(
                f"{url}: embedding service returned HTTP {resp.status_code}")
        malformed = f"{url}: malformed embedding service response"
        try:
            body = resp.json()
        except ValueError as exc:
            raise EmbeddingError(f"{malformed}: {exc}") from exc
        check_record(body, {"vectors": list, "d": int}, malformed, "reply",
                     EmbeddingError)
        vectors, d = body["vectors"], body["d"]
        if d != self.config.d:
            raise EmbeddingError(f"{url}: service returned dimension {d}, "
                                 f"configured {self.config.d}")
        if len(vectors) != len(sentences):
            raise EmbeddingError(
                f"{url}: service returned vectors for {len(vectors)} "
                f"sentences, sent {len(sentences)}")
        out = []
        for sent, sent_vectors in zip(sentences, vectors):
            try:
                arr = np.asarray(sent_vectors, dtype=np.float64)
            except (ValueError, TypeError) as exc:
                raise EmbeddingError(
                    f"{url}: service returned vectors that are not a matrix "
                    f"of numbers for a sentence of {len(sent)} tokens") \
                    from exc
            if arr.shape != (len(sent), self.config.d):
                raise EmbeddingError(
                    f"{url}: service returned shape {arr.shape} for a "
                    f"sentence of {len(sent)} tokens at d={self.config.d}")
            if not np.isfinite(arr).all():  # JSON null reads as NaN
                raise EmbeddingError(f"{url}: service returned a vector "
                                     f"value that is not finite")
            out.append(arr)
        return out

    def embed_sentence(self, tokens) -> np.ndarray:
        return self.embed_sentences([tokens])[0]

    def embed_document(self, document: Document) -> list[np.ndarray]:
        return self.embed_sentences(document.sentences)


def make_embedder(config: EmbedderConfig):
    if config.provider == "hash":
        return HashEmbedder(config)
    return ServiceEmbedder(config)


@dataclass(frozen=True)
class SpanRepresentation:
    start: np.ndarray
    last: np.ndarray
    pooled: np.ndarray
    width_feature: np.ndarray
    weights: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.concatenate(
            [self.start, self.last, self.pooled, self.width_feature])


def width_bucket(width: int, max_width_bucket: int) -> int:
    """Bucket index (0-based) for a span of ``width`` tokens."""
    if width < 1:
        raise ValueError("span width must be >= 1")
    return min(width, max_width_bucket) - 1


def span_attention_weights(span_vectors: np.ndarray,
                           w_alpha: np.ndarray) -> np.ndarray:
    scores = span_vectors @ w_alpha
    scores = scores - scores.max()
    exp = np.exp(scores)
    return exp / exp.sum()


def span_representation(matrix, sentence_index: int, token_start: int,
                        token_end: int, w_alpha: np.ndarray,
                        width_table: np.ndarray) -> SpanRepresentation:
    """Build the span vector [start, last, pooled, width_feature].

    ``matrix`` is the per-sentence list of token-embedding arrays for one
    document. The pooled part is a softmax-weighted sum of the span's token
    vectors with logits ``w_alpha . x_t``; the width feature is the learned
    embedding of the (clamped) span width.
    """
    if not 0 <= sentence_index < len(matrix):
        raise IndexError(f"sentence_index {sentence_index} out of range")
    sent = np.asarray(matrix[sentence_index], dtype=np.float64)
    if not 0 <= token_start <= token_end < sent.shape[0]:
        raise IndexError(
            f"span [{token_start}, {token_end}] out of bounds for sentence "
            f"of length {sent.shape[0]}")
    span = sent[token_start:token_end + 1]
    weights = span_attention_weights(span, w_alpha)
    pooled = weights @ span
    bucket = width_bucket(token_end - token_start + 1, width_table.shape[0])
    return SpanRepresentation(start=span[0], last=span[-1], pooled=pooled,
                              width_feature=width_table[bucket],
                              weights=weights)
