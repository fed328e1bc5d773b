"""Commonsense-enhanced pairwise mention scorer.

The scorer consumes span representations for two mentions plus, in the
"intra" and "inter" modes, attention-pooled vectors over the embedded
before/after inference sentences. All forward and backward passes are
written directly in numpy at float64 so that training is deterministic and
every gradient can be verified against central finite differences.

Feature layout for a pair (i, j):

    g = [ctx_i, ctx_j, cs_i, cs_j]      (cs blocks absent in baseline mode)

where ctx is the span vector [start, last, pooled, width_feature] and
cs = [attended_before, attended_after] for the routed inference sets (the
mention's own sets in intra mode, the other mention's in inter mode; the
query is always the ctx the cs block is attached to).

Training runs the first layer pair-major, in two named stages each way:
``forward_head`` (span reps, attention, the gather of every pair's g into
``G``), which reads no ``TAIL_BLOCKS``, then ``forward_tail`` (``G @ W1 +
b1`` to the sigmoid); ``backward_tail`` down to the first layer's output,
then ``backward_head``. ``forward_batch``/``backward_batch`` compose them
for ``explain``, ``gradients`` and the gradcheck; the training loop runs
them itself, so that a helper thread can take ``W1``'s gradient and update
beside the rest of a step. Scoring runs one path in every mode,
``score_dataset``, which projects the first layer per attention row. Both
share one selection stage, ``attention_rows`` (span reps, attention rows
and sentence reps), and then attend with their own kernel: training with
``attention_forward``, which keeps the key projections its backward pass
reads, and scoring from the query side with ``query_side_attention``,
which projects no key.

``ModelParameters`` holds every block as a view into one contiguous
float64 vector in BLOCK_ORDER, and gradients use the same container: the
backward pass overwrites a gradient vector that the training loop owns,
and the optimizer, snapshots and the gradcheck each walk one vector.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Executor, wait
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import check_record, json_lines, naming_os_errors

MODES = ("baseline", "intra", "inter")

BLOCK_ORDER = ("w_alpha", "width_table", "W_q_before", "W_k_before",
               "W_q_after", "W_k_after", "W1", "b1", "W2", "b2")
# the blocks forward_tail reads, W1 and after; forward_head reads the rest
TAIL_BLOCKS = BLOCK_ORDER[BLOCK_ORDER.index("W1"):]

CKPT_MAGIC = b"CSCOREF-CKPT-1\n"

LOSS_EPS = 1e-7

# pairs per hidden-layer block in score_dataset: a (64, h) block stays in
# cache and reuses freed memory; a (pairs, h) array faults in fresh pages
PAIR_BLOCK = 64
# doubles per piece of a pass over the parameter vector (256 KB, in cache):
# init_parameters draws and scales a piece at a time, Adam steps one
INIT_PIECE = 1 << 15


class ScorerError(RuntimeError):
    pass


class NonFiniteParameterError(ScorerError):
    def __init__(self, block: str):
        super().__init__(f"non-finite values in parameter block {block!r}")
        self.block = block


@dataclass(frozen=True)
class ModelDims:
    d: int = 16
    d_len: int = 20
    d_a: int = 8
    h: int = 1024
    mode: str = "intra"
    max_width_bucket: int = 8
    version: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def rep_dim(self) -> int:
        return 3 * self.d + self.d_len

    @property
    def g_dim(self) -> int:
        factor = 2 if self.mode == "baseline" else 6
        return factor * self.rep_dim


class ModelParameters:
    """Named views into one float64 vector ``flat``, blocks in BLOCK_ORDER;
    ``slices[name]`` is a block's span in it. Gradients share the layout."""

    def __init__(self, dims: ModelDims, flat: Optional[np.ndarray] = None):
        self.dims = dims
        self.slices, size = {}, 0
        for name, shape in _expected_shapes(dims).items():
            self.slices[name] = slice(size, size + math.prod(shape))
            size += math.prod(shape)
        self.flat = np.zeros(size) if flat is None else flat
        for name, shape in _expected_shapes(dims).items():
            setattr(self, name, self.flat[self.slices[name]].reshape(shape))

    def __getitem__(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def __setitem__(self, name: str, value):
        getattr(self, name)[...] = value  # into the view: the layout holds

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_ORDER}

    def items(self):
        return self.blocks().items()

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.dims, self.flat.copy())


def _expected_shapes(dims: ModelDims) -> dict[str, tuple]:
    r = dims.rep_dim
    return {
        "w_alpha": (dims.d,),
        "width_table": (dims.max_width_bucket, dims.d_len),
        "W_q_before": (r, dims.d_a),
        "W_k_before": (r, dims.d_a),
        "W_q_after": (r, dims.d_a),
        "W_k_after": (r, dims.d_a),
        "W1": (dims.g_dim, dims.h),
        "b1": (dims.h,),
        "W2": (dims.h,),
        "b2": (),
    }


_FAN_IN = {
    "w_alpha": lambda d: d.d,
    "width_table": lambda d: d.d_len,
    "W_q_before": lambda d: d.rep_dim,
    "W_k_before": lambda d: d.rep_dim,
    "W_q_after": lambda d: d.rep_dim,
    "W_k_after": lambda d: d.rep_dim,
    "W1": lambda d: d.g_dim,
    "b1": lambda d: d.g_dim,
    "W2": lambda d: d.h,
    "b2": lambda d: d.h,
}


def init_parameters(dims: ModelDims, seed: int) -> ModelParameters:
    """Seeded initialization: every block uniform in +-1/sqrt(fan_in),
    drawn straight into the vector with rng.uniform's stream and bits, in
    pieces small enough that the two scaling passes stay in cache."""
    rng = np.random.default_rng(seed)
    params = ModelParameters(dims)
    for name, span in params.slices.items():
        bound = 1.0 / np.sqrt(_FAN_IN[name](dims))
        for lo in range(span.start, span.stop, INIT_PIECE):
            piece = params.flat[lo:min(lo + INIT_PIECE, span.stop)]
            rng.random(out=piece)
            piece *= 2 * bound
            piece -= bound
    return params


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over valid slots; fully masked rows get all zeros."""
    neg = np.where(mask, scores, -np.inf)
    rowmax = neg.max(axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.exp(neg - rowmax)  # exp(-inf) = 0 exactly, so masked slots drop out
    denom = e.sum(axis=-1, keepdims=True)
    return np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)


# ---------------------------------------------------------------------------
# single-instance operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttentionOutput:
    vector: np.ndarray
    weights: np.ndarray


def attend(query: np.ndarray, inference_reps, W_q: np.ndarray,
           W_k: np.ndarray) -> AttentionOutput:
    """Scaled dot-product attention with an identity value map.

    Scores are (W_q q) . (W_k r_j) / sqrt(d_a); the output is the
    weight-averaged stack of the raw inference representations. An empty
    stack yields a zero vector and empty weights.
    """
    query = np.asarray(query, dtype=np.float64)
    rep_dim = W_q.shape[0]
    if query.shape != (rep_dim,):
        raise ValueError(f"query has shape {query.shape}, expected "
                         f"({rep_dim},)")
    reps = [np.asarray(r, dtype=np.float64) for r in inference_reps]
    if not reps:
        return AttentionOutput(np.zeros(rep_dim), np.zeros(0))
    stack = np.stack(reps)
    if stack.shape[1] != rep_dim:
        raise ValueError(f"inference representations have dimension "
                         f"{stack.shape[1]}, expected {rep_dim}")
    d_a = W_q.shape[1]
    q_proj = query @ W_q
    k_proj = stack @ W_k
    scores = (k_proj @ q_proj) / np.sqrt(d_a)
    scores = scores - scores.max()
    e = np.exp(scores)
    weights = e / e.sum()
    return AttentionOutput(weights @ stack, weights)


def commonsense_vector(mode: str, ctx_self: np.ndarray, before_reps,
                       after_reps, params: ModelParameters):
    """Concatenated [before, after] attended vectors, with the raw traces.

    Callers route the inference sets: the mention's own sets for intra, the
    other mention's for inter. The query is always ``ctx_self``.
    """
    if mode == "baseline":
        raise ValueError("baseline mode has no commonsense vector")
    before = attend(ctx_self, before_reps, params.W_q_before,
                    params.W_k_before)
    after = attend(ctx_self, after_reps, params.W_q_after,
                   params.W_k_after)
    return np.concatenate([before.vector, after.vector]), {
        "before": before, "after": after}


@dataclass(frozen=True)
class PairFeature:
    g: np.ndarray


def pair_features(ctx_i: np.ndarray, ctx_j: np.ndarray,
                  cs_i: Optional[np.ndarray], cs_j: Optional[np.ndarray],
                  mode: str) -> PairFeature:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if ctx_i.shape != ctx_j.shape:
        raise ValueError("mention representations differ in dimension")
    if mode == "baseline":
        g = np.concatenate([ctx_i, ctx_j])
    else:
        if cs_i is None or cs_j is None:
            raise ValueError(f"{mode} mode requires commonsense vectors")
        if cs_i.shape != (2 * ctx_i.shape[0],):
            raise ValueError("commonsense vector has wrong dimension")
        g = np.concatenate([ctx_i, ctx_j, cs_i, cs_j])
    return PairFeature(g)


def score_pair(params: ModelParameters, g: np.ndarray) -> float:
    """Probability that the pair corefers: sigmoid MLP over the features.

    A non-finite value in ``W1``, ``b1``, ``W2`` or ``b2`` always makes the
    first-layer output or the logit non-finite (NaN and ``0 * inf``
    propagate), so only those two are checked; on a failure the first
    non-finite block is named in the raised NonFiniteParameterError.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (params.dims.g_dim,):
        raise ValueError(f"feature vector has shape {g.shape}, expected "
                         f"({params.dims.g_dim},)")
    with np.errstate(invalid="ignore", over="ignore"):
        z1 = g @ params.W1 + params.b1
    if not np.all(np.isfinite(z1)):
        raise _non_finite_block(params, "W1")
    hidden = np.maximum(z1, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        logit = hidden @ params.W2 + params.b2
    if not np.isfinite(logit):
        raise _non_finite_block(params, "W2")
    return float(sigmoid(np.asarray([logit]))[0])


def _non_finite_block(params: ModelParameters,
                      default: str) -> NonFiniteParameterError:
    """The error naming the first MLP block with a non-finite value, or
    ``default`` when every block is finite and the overflow came from the
    features."""
    for name in ("W1", "b1", "W2", "b2"):
        if not np.all(np.isfinite(getattr(params, name))):
            return NonFiniteParameterError(name)
    return NonFiniteParameterError(default)


def bce_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, probabilities clamped to [LOSS_EPS,
    1 - LOSS_EPS]."""
    if not len(probabilities):
        raise ValueError("empty batch")
    p = np.clip(probabilities, LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


# ---------------------------------------------------------------------------
# batched forward/backward over a prepared dataset
# ---------------------------------------------------------------------------

@dataclass
class SpanTensors:
    """Left-aligned padded token embeddings for a set of spans/sentences."""
    X: np.ndarray          # (N, T, d)
    mask: np.ndarray       # (N, T) bool
    buckets: np.ndarray    # (N,) 0-based width bucket
    lengths: np.ndarray    # (N,)

    @classmethod
    def from_matrices(cls, matrices, max_width_bucket: int):
        n = len(matrices)
        if n == 0:
            raise ValueError("no spans")
        d = matrices[0].shape[1]
        t_max = max(m.shape[0] for m in matrices)
        X = np.zeros((n, t_max, d))
        mask = np.zeros((n, t_max), dtype=bool)
        lengths = np.zeros(n, dtype=int)
        buckets = np.zeros(n, dtype=int)
        for i, m in enumerate(matrices):
            t = m.shape[0]
            X[i, :t] = m
            mask[i, :t] = True
            lengths[i] = t
            buckets[i] = min(t, max_width_bucket) - 1
        return cls(X, mask, buckets, lengths)

    def __len__(self):
        return self.X.shape[0]


def span_reps_forward(tensors: SpanTensors, w_alpha: np.ndarray,
                      width_table: np.ndarray):
    """Vectorized span representation [start, last, pooled, width]."""
    X, mask = tensors.X, tensors.mask
    scores = np.einsum("ntd,d->nt", X, w_alpha)
    alpha = masked_softmax(scores, mask)
    pooled = np.einsum("nt,ntd->nd", alpha, X)
    start = X[:, 0, :]
    last = X[np.arange(len(tensors)), tensors.lengths - 1, :]
    width = width_table[tensors.buckets]
    reps = np.concatenate([start, last, pooled, width], axis=1)
    return reps, {"alpha": alpha, "tensors": tensors}


def span_reps_backward(d_reps: np.ndarray, cache, d: int) -> np.ndarray:
    """The w_alpha gradient; token grads are discarded. The width rows
    ``d_reps[:, 3d:]`` are left to the caller, which sums every width-table
    row of a step in one ``segment_sum``."""
    tensors = cache["tensors"]
    alpha = cache["alpha"]
    X = tensors.X
    d_pooled = d_reps[:, 2 * d:3 * d]
    d_alpha = np.einsum("nd,ntd->nt", d_pooled, X)
    inner = (alpha * d_alpha).sum(axis=1, keepdims=True)
    d_score = alpha * (d_alpha - inner)
    return np.einsum("nt,ntd->d", d_score, X)


def segment_sum(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, width) sums of ``rows`` grouped by ``index``. Every bin adds its
    rows in input order from 0.0, so the result is bit-equal to np.add.at
    onto zeros, which visits them in the same order, only faster."""
    width = rows.shape[1]
    bins = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(bins, weights=rows.ravel(),
                       minlength=n * width).reshape(n, width)


def attention_forward(Q: np.ndarray, Kr: np.ndarray, kmask: np.ndarray,
                      W_q: np.ndarray, W_k: np.ndarray):
    """Batched attention: Q (B, R), Kr (B, k, R), kmask (B, k).

    Each of the B rows is one (query, inference set) attention; the R-wide
    projections run as 2-D matrix products over the flattened (B*k, R) keys.
    """
    b, k, r = Kr.shape
    d_a = W_q.shape[1]
    q_proj = Q @ W_q
    k_proj = (Kr.reshape(b * k, r) @ W_k).reshape(b, k, d_a)
    scores = np.einsum("ba,bka->bk", q_proj, k_proj) / np.sqrt(d_a)
    weights = masked_softmax(scores, kmask)
    out = np.einsum("bk,bkr->br", weights, Kr)
    return out, {"Q": Q, "Kr": Kr, "q_proj": q_proj, "k_proj": k_proj,
                 "weights": weights}


def attention_backward(d_out: np.ndarray, cache, W_q: np.ndarray,
                       W_k: np.ndarray, g_Wq: np.ndarray, g_Wk: np.ndarray):
    """Returns (dQ, dKr) and accumulates projection gradients in place."""
    Q, Kr = cache["Q"], cache["Kr"]
    q_proj, k_proj = cache["q_proj"], cache["k_proj"]
    weights = cache["weights"]
    b, k, r = Kr.shape
    d_a = W_q.shape[1]
    d_w = np.einsum("br,bkr->bk", d_out, Kr)
    d_Kr = np.einsum("bk,br->bkr", weights, d_out)
    inner = (weights * d_w).sum(axis=1, keepdims=True)
    d_score = weights * (d_w - inner) / np.sqrt(d_a)
    d_qproj = np.einsum("bk,bka->ba", d_score, k_proj)
    d_kproj = np.einsum("bk,ba->bka", d_score, q_proj).reshape(b * k, d_a)
    g_Wq += Q.T @ d_qproj
    g_Wk += Kr.reshape(b * k, r).T @ d_kproj
    d_Q = d_qproj @ W_q.T
    d_Kr += (d_kproj @ W_k.T).reshape(b, k, r)
    return d_Q, d_Kr


@dataclass
class PairDataset:
    """Everything the scorer needs about a split, as padded tensors.

    ``span_tensors`` holds one row per mention, whose id is
    ``mention_ids[row]``; ``sent_tensors`` one row per inference sentence,
    whose text is ``sentences[row]``. Pair c is the two mention rows
    ``pair_i[c]`` and ``pair_j[c]``, labelled ``labels[c]``.
    ``before_idx``/``after_idx`` map each mention row to its (up to k)
    sentence rows, padded with -1. A pair's commonsense blocks depend only on
    (query mention row, source mention row), so ``attention_rows`` selects
    one attention row per distinct such pair in a batch: one per mention in
    intra mode, one per ordered pair in inter mode. Training attends per row
    through ``attention_forward`` and multiplies the first layer per pair.
    Scoring, ``score_dataset`` in every mode, attends from the query side
    and projects the first layer per query mention and per row instead.
    """
    mention_ids: list
    span_tensors: SpanTensors
    sent_tensors: Optional[SpanTensors]
    before_idx: np.ndarray  # (M, k)
    after_idx: np.ndarray   # (M, k)
    pair_i: np.ndarray      # (N,) row indices
    pair_j: np.ndarray
    labels: np.ndarray      # (N,) float
    sentences: list = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        return len(self.labels)

    @property
    def pair_names(self) -> list:
        """Each pair's two mention ids, built on each read."""
        ids = self.mention_ids
        return [(ids[i], ids[j])
                for i, j in zip(self.pair_i.tolist(), self.pair_j.tolist())]


def attention_rows(params: ModelParameters, data: PairDataset,
                   qi: np.ndarray, qj: np.ndarray) -> dict:
    """The selection stage both attention kernels share, for pairs (qi, qj).

    There is one attention row per distinct (query, source) among the 2n
    stacked mentions (c < n is pair c's first, n + c its second), sorted.
    ``inverse[c]`` is stacked row c's attention row and ``att_q`` each
    row's query mention, a row of ``span_reps``. Outside baseline,
    ``sent_reps`` holds every inference sentence's representation and
    ``att[rel]`` each row's sentence indices ``idx`` (k of them, padded with
    -1) and their ``kmask``; ``att`` is None in baseline. The caller
    attends: ``forward_head`` through ``attention_forward``,
    ``score_dataset`` through ``query_side_attention``."""
    mode = params.dims.mode
    span_reps, span_cache = span_reps_forward(
        data.span_tensors, params.w_alpha, params.width_table)
    q_rows = np.concatenate([qi, qj])
    src_rows = np.concatenate([qj, qi]) if mode == "inter" else q_rows
    m = len(data.span_tensors)
    keys, inverse = np.unique(q_rows * m + src_rows, return_inverse=True)
    att_q, att_src = np.divmod(keys, m)
    rows = {"span_cache": span_cache, "att_q": att_q, "inverse": inverse,
            "span_reps": span_reps, "att": None}
    if mode == "baseline":
        return rows
    sent_reps, sent_cache = span_reps_forward(
        data.sent_tensors, params.w_alpha, params.width_table)
    att = {}
    for rel in ("before", "after"):
        idx = getattr(data, f"{rel}_idx")[att_src]
        att[rel] = {"idx": idx, "kmask": idx >= 0}
    rows.update({"att": att, "sent_reps": sent_reps,
                 "sent_cache": sent_cache})
    return rows


def query_side_attention(Q: np.ndarray, query_of: np.ndarray,
                         Kr: np.ndarray, kmask: np.ndarray,
                         W_q: np.ndarray, W_k: np.ndarray) -> np.ndarray:
    """``attention_forward``'s output without projecting any key.

    The score (W_q q) . (W_k r) / sqrt(d_a) is the bilinear form r . u with
    u = W_k (W_q^T q), so each distinct query ``Q[i]`` (Q is (n, R)) is
    mapped once to u; row b of Kr (B, k, R) attends with query
    ``query_of[b]``. Masked slots of Kr may hold any finite value: they get
    weight 0.
    """
    u = ((Q @ W_q) @ W_k.T)[query_of]
    scores = np.einsum("bkr,br->bk", Kr, u) / np.sqrt(W_q.shape[1])
    return np.einsum("bk,bkr->br", masked_softmax(scores, kmask), Kr)


def forward_head(params: ModelParameters, data: PairDataset,
                 sel: np.ndarray) -> dict:
    """The stage of ``forward_batch`` that reads no ``TAIL_BLOCKS``:
    ``attention_rows``, ``attention_forward`` per relation, and the gather
    of each selected pair's g into the rows of ``G`` (its ``g_dim``
    columns). Returns the cache ``backward_head`` reads, ``G`` in it."""
    qi = data.pair_i[sel]
    qj = data.pair_j[sel]
    n = len(sel)
    cache = attention_rows(params, data, qi, qj)
    cache.update({"qi": qi, "qj": qj})
    Q, inverse = cache["span_reps"][cache["att_q"]], cache["inverse"]
    blocks = [Q[inverse[:n]], Q[inverse[n:]]]
    if cache["att"] is not None:
        outs = []
        for rel, att in cache["att"].items():
            kmask = att["kmask"]
            Kr = cache["sent_reps"][att["idx"].clip(min=0)] \
                * kmask[:, :, None]
            out, att["cache"] = attention_forward(
                Q, Kr, kmask, getattr(params, f"W_q_{rel}"),
                getattr(params, f"W_k_{rel}"))
            outs.append(out)
        cs = np.concatenate(outs, axis=1)
        blocks += [cs[inverse[:n]], cs[inverse[n:]]]
    cache["G"] = np.concatenate(blocks, axis=1)
    return cache


def forward_tail(params: ModelParameters, G: np.ndarray,
                 training: bool = False,
                 dropout_mask: Optional[np.ndarray] = None,
                 dropout: float = 0.3):
    """The stage of ``forward_batch`` after the features: ``G @ W1 + b1``,
    the ReLU, dropout, the logit and the sigmoid. Returns (probabilities,
    the cache ``backward_tail`` reads)."""
    z1 = G @ params.W1
    z1 += params.b1
    hidden = np.maximum(z1, 0.0)
    if training:
        if dropout_mask is None:
            raise ValueError("training forward requires a dropout mask")
        hidden *= dropout_mask
        hidden /= 1.0 - dropout
    logits = hidden @ params.W2 + params.b2
    probs = sigmoid(logits)
    return probs, {"z1": z1, "hidden_used": hidden, "probs": probs,
                   "training": training, "dropout_mask": dropout_mask,
                   "dropout": dropout}


def forward_batch(params: ModelParameters, data: PairDataset,
                  sel: np.ndarray, training: bool = False,
                  dropout_mask: Optional[np.ndarray] = None,
                  dropout: float = 0.3):
    """End-to-end probabilities for the selected pairs, pair-major:
    ``forward_head`` then ``forward_tail``, with one cache for both
    backward stages. ``explain``, ``gradients`` and the gradcheck run it;
    training runs the two stages itself, and scoring runs
    ``score_dataset``.

    When ``training`` is set the caller supplies the hidden-layer dropout
    mask so that a loss evaluation and its gradient share the same mask.
    """
    cache = forward_head(params, data, sel)
    probs, tail = forward_tail(params, cache["G"], training=training,
                               dropout_mask=dropout_mask, dropout=dropout)
    cache.update(tail)
    return probs, cache


def score_dataset(params: ModelParameters, data: PairDataset,
                  executor: Optional[Executor] = None) -> np.ndarray:
    """Every pair's ``forward_batch(training=False)`` probability, up to
    rounding, in every mode, attending through ``query_side_attention``.

    g @ W1 splits by row blocks into a term of the pair's first attention
    row and one of its second. ctx is projected once per query mention, a
    row's cs only through the block of the side whose pairs use it (intra
    rows are mentions, used on both sides; inter rows are ordered pairs).

    Three pairs of steps are independent: the two ctx projections, the two
    relations' attention and the two sides' cs projections. Given an
    ``executor`` (one helper thread), the second step of each pair runs on
    it. No product is split, so the probabilities are those of one thread.
    """
    n, r, W1 = data.n_pairs, params.dims.rep_dim, params.W1
    if n == 0:
        return np.zeros(0)
    rows = attention_rows(params, data, data.pair_i, data.pair_j)
    queries, query_of = np.unique(rows["att_q"], return_inverse=True)
    Q = rows["span_reps"][queries]  # row b's query is Q[query_of[b]]
    ctx = _paired(executor, lambda side: Q @ W1[side * r:(side + 1) * r])
    ctx[0] += params.b1
    # per side: (term per row, each pair's row); baseline rows are queries
    sides = [(ctx[0], rows["inverse"][:n]), (ctx[1], rows["inverse"][n:])]
    if rows["att"] is not None:
        def attend(part):
            rel = ("before", "after")[part]
            att = rows["att"][rel]
            return query_side_attention(
                Q, query_of, rows["sent_reps"][att["idx"].clip(min=0)],
                att["kmask"], getattr(params, f"W_q_{rel}"),
                getattr(params, f"W_k_{rel}"))

        cs = np.concatenate(_paired(executor, attend), axis=1)

        def project(side):
            used, of_pair = np.unique(sides[side][1], return_inverse=True)
            term = cs[used] @ W1[(2 + 2 * side) * r:(4 + 2 * side) * r]
            term += ctx[side][query_of[used]]
            return term, of_pair

        sides = _paired(executor, project)
    (first, first_of), (second, second_of) = sides
    logits = np.empty(n)
    for lo in range(0, n, PAIR_BLOCK):
        hi = min(lo + PAIR_BLOCK, n)
        z1 = first[first_of[lo:hi]]
        z1 += second[second_of[lo:hi]]
        logits[lo:hi] = np.maximum(z1, 0.0, out=z1) @ params.W2
    return sigmoid(logits + params.b2)


def _paired(executor: Optional[Executor], step) -> list:
    """``[step(0), step(1)]``, with ``step(1)`` on ``executor`` when there
    is one; its error is raised here."""
    if executor is None:
        return [step(0), step(1)]
    job = executor.submit(step, 1)
    try:
        first = step(0)
    except BaseException:
        wait((job,))  # the helper is done with this call's arrays
        raise
    return [first, job.result()]


def backward_tail(params: ModelParameters, cache, labels: np.ndarray,
                  grads: ModelParameters) -> np.ndarray:
    """The gradients of ``b1``, ``W2`` and ``b2`` of the mean clamped BCE,
    from ``forward_tail``'s cache, written over those blocks of ``grads``;
    returns the gradient of the first layer's output, ``d_z1``. The caller
    finishes the first layer: ``W1``'s gradient is ``G.T @ d_z1`` and the
    head's ``d_G`` is ``d_z1 @ W1.T``."""
    grads.flat[grads.slices["W1"].stop:] = 0.0
    probs = cache["probs"]
    y = np.asarray(labels, dtype=np.float64)
    n = len(y)
    in_range = (probs > LOSS_EPS) & (probs < 1.0 - LOSS_EPS)
    d_logits = np.where(in_range, probs - y, 0.0) / n

    grads.W2 += cache["hidden_used"].T @ d_logits
    grads.b2 += d_logits.sum()
    d_z1 = np.outer(d_logits, params.W2)
    if cache["training"]:
        d_z1 *= cache["dropout_mask"]
        d_z1 /= 1.0 - cache["dropout"]
    d_z1 *= cache["z1"] > 0
    grads.b1 += d_z1.sum(axis=0)
    return d_z1


def backward_head(params: ModelParameters, data: PairDataset, cache,
                  d_G: np.ndarray, grads: ModelParameters):
    """The gradients of the blocks before ``W1`` (span representations and
    attention) from ``forward_head``'s cache and ``d_G``, written over
    those blocks of ``grads``. Each gathered row gradient is one
    ``segment_sum`` over the forward's gathers in order."""
    dims = params.dims
    grads.flat[:grads.slices["W1"].start] = 0.0
    r = dims.rep_dim
    span_index = [cache["qi"], cache["qj"]]
    span_rows = [d_G[:, :r], d_G[:, r:2 * r]]
    reps = []  # (row gradients, span cache): sentences first, then spans
    if dims.mode != "baseline":
        att_q = cache["att_q"]
        d_cs = segment_sum(cache["inverse"],  # summed onto attention rows
                           np.concatenate([d_G[:, 2 * r:4 * r],
                                           d_G[:, 4 * r:6 * r]]), len(att_q))
        d_Q_total = np.zeros((len(att_q), r))
        sent_index, sent_rows = [], []
        for part, rel in ((0, "before"), (1, "after")):
            att = cache["att"][rel]
            d_Q, d_Kr = attention_backward(
                d_cs[:, part * r:(part + 1) * r], att["cache"],
                getattr(params, f"W_q_{rel}"), getattr(params, f"W_k_{rel}"),
                grads[f"W_q_{rel}"], grads[f"W_k_{rel}"])
            d_Q_total += d_Q
            sent_index.append(att["idx"][att["kmask"]])
            sent_rows.append(d_Kr[att["kmask"]])
        span_index.append(att_q)
        span_rows.append(d_Q_total)
        reps.append((segment_sum(np.concatenate(sent_index),
                                 np.concatenate(sent_rows),
                                 len(data.sent_tensors)),
                     cache["sent_cache"]))
    reps.append((segment_sum(np.concatenate(span_index),
                             np.concatenate(span_rows),
                             len(data.span_tensors)), cache["span_cache"]))
    for d_reps, rep_cache in reps:
        grads.w_alpha += span_reps_backward(d_reps, rep_cache, dims.d)
    grads.width_table[...] = segment_sum(
        np.concatenate([c["tensors"].buckets for _, c in reps]),
        np.concatenate([d_reps[:, 3 * dims.d:] for d_reps, _ in reps]),
        dims.max_width_bucket)


def backward_batch(params: ModelParameters, data: PairDataset, cache,
                   labels: np.ndarray,
                   grads: Optional[ModelParameters] = None
                   ) -> ModelParameters:
    """Exact gradients of the mean clamped BCE for ``forward_batch``'s
    cache: ``backward_tail``, the first layer, then ``backward_head``.

    They overwrite ``grads`` (a fresh container when None) and return it.
    """
    grads = ModelParameters(params.dims) if grads is None else grads
    d_z1 = backward_tail(params, cache, labels, grads)
    np.matmul(cache["G"].T, d_z1, out=grads.W1)
    backward_head(params, data, cache, d_z1 @ params.W1.T, grads)
    return grads


def gradients(params: ModelParameters, data: PairDataset, sel: np.ndarray,
              training: bool = False,
              dropout_mask: Optional[np.ndarray] = None,
              dropout: float = 0.3):
    """(loss, gradient blocks) for the selected pairs.

    The dropout mask, when given, is shared between the loss and gradient
    evaluation, so finite differences of ``bce_loss`` over
    ``forward_batch`` with the same mask match these gradients exactly.
    """
    probs, cache = forward_batch(params, data, sel, training=training,
                                 dropout_mask=dropout_mask, dropout=dropout)
    loss = bce_loss(probs, data.labels[sel])
    grads = backward_batch(params, data, cache, data.labels[sel])
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParameters, path):
    """Self-describing binary: header JSON, then named float64-LE arrays."""
    header = {"version": params.dims.version, "d": params.dims.d,
              "d_len": params.dims.d_len, "d_a": params.dims.d_a,
              "h": params.dims.h, "mode": params.dims.mode,
              "max_width_bucket": params.dims.max_width_bucket}
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in BLOCK_ORDER:
            # asarray keeps 0-d blocks 0-d (ascontiguousarray would promote)
            arr = np.asarray(getattr(params, name), dtype="<f8", order="C")
            meta = {"name": name, "shape": list(arr.shape)}
            fh.write((json.dumps(meta, sort_keys=True) + "\n")
                     .encode("utf-8"))
            fh.write(arr)  # from the array's own buffer, no copy


_HEADER_FIELDS = {"version": int, "d": int, "d_len": int, "d_a": int,
                  "h": int, "mode": str, "max_width_bucket": int}
_BLOCK_FIELDS = {"name": str, "shape": list}


def load_checkpoint(path, into: Optional[ModelParameters] = None
                    ) -> ModelParameters:
    """Read a checkpoint written by ``save_checkpoint``: its header, then
    its body, into ``into`` when given (``checkpoint_shell``'s parameters
    of the same path) and into fresh parameters otherwise.

    A missing file raises ``FileNotFoundError``; a file that cannot be
    read otherwise (a directory, no permission), is not a checkpoint, or
    is truncated or corrupt, or whose header no longer matches ``into``,
    raises ``ScorerError`` naming the path.
    """
    with naming_os_errors(path, ScorerError), open(path, "rb") as fh:
        dims = _read_checkpoint_header(fh, path)
        if into is None:
            into = _zeroed_parameters(path, dims)
        elif into.dims != dims:
            raise ScorerError(f"{path}: checkpoint changed while it was "
                              f"read")
        return _read_checkpoint_body(fh, path, into)


def checkpoint_shell(path) -> ModelParameters:
    """Zeroed parameters of the dims in the checkpoint's header, with
    ``load_checkpoint``'s errors; the blocks are not read."""
    with naming_os_errors(path, ScorerError), open(path, "rb") as fh:
        return _zeroed_parameters(path, _read_checkpoint_header(fh, path))


def _read_checkpoint_header(fh, path) -> ModelDims:
    """The magic and the header line (lines 1 and 2) of ``fh``."""
    magic = fh.read(len(CKPT_MAGIC))
    if magic != CKPT_MAGIC:
        raise ScorerError(f"{path}: not a checkpoint file")
    header = _checkpoint_line(fh, path, 2, "checkpoint header",
                              _HEADER_FIELDS)
    try:  # a mode the model cannot take
        return ModelDims(**header)
    except ValueError as exc:
        raise ScorerError(f"{path}:2: {exc}") from exc


def _zeroed_parameters(path, dims: ModelDims) -> ModelParameters:
    try:  # a size the model cannot take
        return ModelParameters(dims)
    except ValueError as exc:
        raise ScorerError(f"{path}:2: {exc}") from exc


def _read_checkpoint_body(fh, path,
                          params: ModelParameters) -> ModelParameters:
    """``params`` filled from the block lines and arrays after the header,
    to the end of ``fh``."""
    for lineno, (name, arr) in enumerate(params.items(), start=3):
        meta = _checkpoint_line(fh, path, lineno, "checkpoint block line",
                                _BLOCK_FIELDS)
        if meta["name"] != name:
            raise ScorerError(
                f"{path}:{lineno}: checkpoint block order mismatch: "
                f"expected {name}, found {meta['name']}")
        shape = tuple(meta["shape"])
        if shape != arr.shape:
            raise ScorerError(
                f"{path}:{lineno}: checkpoint block {name} has shape "
                f"{shape}, expected {arr.shape}")
        if fh.readinto(arr) != arr.nbytes:  # straight into the view
            raise ScorerError(
                f"{path}: checkpoint truncated in block {name}")
    if fh.read(1):
        raise ScorerError(f"{path}: bytes after the last block")
    return params


def _checkpoint_line(fh, path, lineno: int, kind: str, fields: dict):
    """The next line of ``fh`` as a record of ``fields``; the magic is line
    1, the header line 2. An empty line holds none of the fields."""
    _, record = next(json_lines((fh.readline(),), path, ScorerError,
                                lineno - 1), (lineno, {}))
    return check_record(record, fields, f"{path}:{lineno}", kind, ScorerError)
