"""Training, threshold tuning, prediction, and gradient verification."""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import blas
from .cluster import (agglomerative_cluster, check_unit_interval,
                      cut_merge_sequence, merge_sequence)
from .commonsense import BULK_CHUNK, GenerationConfig, get_inferences
from .corpus import Clustering, Corpus, CorpusFormatError, candidate_pairs
from .embed import EmbedderConfig, make_embedder
from .metrics import EvalOptions, EvalReport, GoldKey, evaluate
from .scorer import (BLOCK_ORDER, LOSS_EPS, MODES, TAIL_BLOCKS, ModelDims,
                     ModelParameters, INIT_PIECE, PairDataset, SpanTensors,
                     backward_head, backward_tail, bce_loss, forward_batch,
                     forward_head, forward_tail, gradients, init_parameters,
                     score_dataset)
from .scorer import backward_batch  # not called here: the benchmark wraps it


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 128
    dropout: float = 0.3
    epochs: int = 10
    patience: Optional[int] = 2  # None disables early stopping
    seed: int = 0
    mode: str = "intra"
    d_a: int = 8
    hidden: int = 1024
    pair_scope: str = "subtopic"

    def __post_init__(self):
        # a value that would train nothing or on NaN fails as the INI loads
        for name, low, high in (("dropout", 0.0, 1.0),
                                ("learning_rate", 0.0, math.inf)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and low <= value < high):
                raise ValueError(f"{name} = {value!r} is not in "
                                 f"[{low}, {high})")
        for name, low in (("batch_size", 1), ("epochs", 1), ("hidden", 1),
                          ("d_a", 1), ("patience", 1), ("seed", 0)):
            value = getattr(self, name)
            if name == "patience" and value is None:
                continue  # no early stopping
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ValueError(f"{name} = {value!r} is not an integer "
                                 f">= {low}")
        if self.mode not in MODES:
            raise ValueError(f"mode = {self.mode!r} is not one of {MODES}")

    def model_dims(self, embed_config: EmbedderConfig) -> ModelDims:
        return ModelDims(d=embed_config.d, d_len=embed_config.d_len,
                         d_a=self.d_a, h=self.hidden, mode=self.mode,
                         max_width_bucket=embed_config.max_width_bucket)


def build_dataset(corpus: Corpus, embed_config: EmbedderConfig,
                  mode: str, inference_source=None,
                  gen_config: Optional[GenerationConfig] = None,
                  cache=None, scope: str = "subtopic",
                  labeled: bool = True) -> PairDataset:
    """Embed a split into the padded tensors the scorer consumes.

    Baseline mode never touches ``inference_source``. For the other modes,
    each mention's first k before/after sentences are fetched with one
    ``get_inferences`` call (through the optional cache),
    whitespace-tokenized, and embedded with the same provider as the mention
    spans, one ``embed_sentences`` call per ``BULK_CHUNK`` mentions; their
    text is kept in ``sentences``, one entry per sentence row.
    """
    embedder = make_embedder(embed_config)
    gen_config = gen_config or GenerationConfig()
    mentions = corpus.mentions_in_order()

    doc_matrices = {doc_id: embedder.embed_document(doc)
                    for doc_id, doc in corpus.documents.items()}
    span_matrices = []
    for m in mentions:
        sent = doc_matrices[m.doc_id][m.sentence_index]
        span_matrices.append(sent[m.token_start:m.token_end + 1])
    span_tensors = SpanTensors.from_matrices(
        span_matrices, embed_config.max_width_bucket)

    k = gen_config.k
    before_idx = -np.ones((len(mentions), k), dtype=int)
    after_idx = -np.ones((len(mentions), k), dtype=int)
    sent_tensors = None
    sentences = []
    if mode != "baseline":
        if inference_source is None:
            raise ValueError(f"{mode} mode requires an inference provider")
        inferences = get_inferences(inference_source, corpus, gen_config,
                                    cache=cache)
        sentence_matrices = []
        for lo in range(0, len(mentions), BULK_CHUNK):
            token_lists = []
            for row in range(lo, min(lo + BULK_CHUNK, len(mentions))):
                inf = inferences[mentions[row].mention_id]
                for idx_arr, side in ((before_idx, inf.before),
                                      (after_idx, inf.after)):
                    for slot, sentence in enumerate(side):
                        idx_arr[row, slot] = len(sentences)
                        token_lists.append(sentence.split())
                        sentences.append(sentence)
            if token_lists:
                sentence_matrices += embedder.embed_sentences(token_lists)
        if not sentence_matrices:
            # every mention came back empty (lenient provider): keep one
            # dummy row so the tensors exist; no index ever points at it
            sentence_matrices = [np.zeros((1, embed_config.d))]
        sent_tensors = SpanTensors.from_matrices(
            sentence_matrices, embed_config.max_width_bucket)

    pairs = candidate_pairs(corpus, scope)
    pair_i, pair_j = pairs.T.copy()
    labels = np.zeros(len(pairs))
    if labeled:
        code = {None: -1}  # gold cluster id -> integer code
        codes = np.array([code.setdefault(m.gold_cluster_id, len(code))
                          for m in mentions], dtype=int)
        missing = codes[pairs].ravel() < 0
        if missing.any():  # the first such mention in pair order
            bad = mentions[pairs.flat[np.argmax(missing)]]
            raise CorpusFormatError(f"mention {bad.mention_id!r} has no "
                                    f"gold cluster; cannot label pairs")
        labels[codes[pair_i] == codes[pair_j]] = 1.0
    return PairDataset(mention_ids=[m.mention_id for m in mentions],
                       span_tensors=span_tensors,
                       sent_tensors=sent_tensors, before_idx=before_idx,
                       after_idx=after_idx, pair_i=pair_i, pair_j=pair_j,
                       labels=labels, sentences=sentences)


class Adam:
    """Adaptive-moment updates over the flat parameter vector.

    Its only parameter-sized state is the two moments, so training holds
    five such vectors (see ``train``). An update runs its element-wise
    operations, one pass each in a fixed order, over pieces of a range of
    the vector (``INIT_PIECE`` doubles at most) into two piece-sized
    scratch buffers: each piece stays in cache, and every element sees the
    operations of a whole-vector pass, so the bytes are the same however
    the vector is cut.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, dims: ModelDims, lr: float):
        self.lr = lr
        self.t = 0
        size = ModelParameters(dims).flat.size
        self.m, self.v = np.zeros(size), np.zeros(size)

    @staticmethod
    def scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
        """Two buffers for ``update`` over up to ``n`` elements: a piece
        each, or ``n`` doubles when that is fewer."""
        piece = min(n, INIT_PIECE)
        return np.empty(piece), np.empty(piece)

    def step(self, params: ModelParameters, grads: ModelParameters):
        """One step over the whole vector."""
        size = params.flat.size
        self.update(params, grads, self.advance(), 0, size,
                    self.scratch(size))

    def advance(self) -> tuple[float, float]:
        """Count one step; returns its two bias corrections."""
        self.t += 1
        return 1.0 - self.BETA1 ** self.t, 1.0 - self.BETA2 ** self.t

    def update(self, params: ModelParameters, grads: ModelParameters,
               bias: tuple[float, float], lo: int, hi: int, scratch):
        """The step of ``bias`` over elements ``lo:hi``, in pieces the
        length of the ``scratch`` buffers. Two threads may update disjoint
        ranges at once, each with its own scratch."""
        bias1, bias2 = bias
        scratch_a, scratch_b = scratch
        for start in range(lo, hi, len(scratch_a)):
            stop = min(start + len(scratch_a), hi)
            g, m, v = (grads.flat[start:stop], self.m[start:stop],
                       self.v[start:stop])
            a, b = scratch_a[:stop - start], scratch_b[:stop - start]
            m *= self.BETA1
            m += np.multiply(1.0 - self.BETA1, g, out=a)
            v *= self.BETA2
            v += np.multiply(1.0 - self.BETA2, np.square(g, out=a), out=a)
            # update = (m / bias1) / (sqrt(v / bias2) + eps), then lr * update
            np.sqrt(np.divide(v, bias2, out=b), out=b)
            b += self.EPS
            np.divide(np.divide(m, bias1, out=a), b, out=a)
            params.flat[start:stop] -= np.multiply(self.lr, a, out=a)


def _wait(jobs: list):
    """Wait for the helper's jobs in order, raising the first one's error."""
    for job in jobs:
        job.result()
    jobs.clear()


def pairwise_f1(probs: np.ndarray, labels: np.ndarray,
                threshold: float = 0.5) -> float:
    pred = probs >= threshold
    gold = labels >= 0.5
    tp = int(np.sum(pred & gold))
    fp = int(np.sum(pred & ~gold))
    fn = int(np.sum(~pred & gold))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def train(data: PairDataset, embed_config: EmbedderConfig,
          train_config: TrainConfig, dev_data: Optional[PairDataset] = None):
    """Train the pairwise scorer; returns (best parameters, history).

    ``data`` and ``dev_data`` come from ``build_dataset`` in the config's
    mode, so a run that trains several seeds builds each split once.
    Fully deterministic given the config seed: initialization, epoch
    shuffles, and dropout masks all come from generators derived from it.
    After each epoch the dev pairwise F1 at threshold 0.5 is recorded; when
    it fails to improve for ``patience`` consecutive epochs, training stops
    and the best epoch's parameters are returned. Without dev data the
    training set doubles as the monitoring set.

    Training holds five parameter-sized vectors: the parameters, a
    best-epoch snapshot allocated once (each improving epoch is copied into
    it), the gradient vector the backward stages overwrite, and Adam's two
    moments. At the service dims (d=1024, d_a=512, h=1024) each is 25.3M
    doubles, 203 MB.

    Each step runs the scorer's stages (``forward_head``, ``forward_tail``,
    ``backward_tail``, ``backward_head``), and one helper thread, started
    per call and shut down on every exit, takes the work that touches only
    ``W1``, most of the parameters: its gradient ``G.T @ d_z1`` while this
    thread computes ``d_G`` from the old ``W1``, then Adam over ``W1``'s
    range while this thread finishes the backward pass, runs Adam over the
    rest and the next step's ``forward_head``, which reads no ``W1``. The
    step waits for the helper before its ``forward_tail``, and the epoch
    before dev scoring; an error in the helper is raised here. No
    element's operations change, so the bytes are those of one thread.
    They do depend on the BLAS thread count, so training runs at
    ``blas.TRAIN_THREADS`` whatever the environment sets, and restores the
    caller's count on return.
    """
    dev_data = data if dev_data is None else dev_data
    if data.n_pairs == 0:
        raise ValueError("no training pairs in scope")

    dims = train_config.model_dims(embed_config)
    params = init_parameters(dims, train_config.seed)
    optimizer = Adam(dims, train_config.learning_rate)
    shuffle_rng = np.random.default_rng([train_config.seed, 1])
    dropout_rng = np.random.default_rng([train_config.seed, 2])
    # one step's buffers, reused by every step: the gradient vector and the
    # dropout draws and mask (a short last batch uses their leading rows)
    grads = ModelParameters(dims)
    draws = np.empty((train_config.batch_size, dims.h))
    keep = np.empty(draws.shape, dtype=bool)
    # Adam's scratch: the helper's for W1, this thread's for the rest
    w1, size = params.slices["W1"], params.flat.size
    helper_scratch = optimizer.scratch(w1.stop - w1.start)
    scratch = optimizer.scratch(max(w1.start, size - w1.stop))

    history = []
    best_f1 = -1.0
    best_params = params.copy()
    best_epoch = -1
    stale = 0
    jobs = []  # the helper's jobs not yet waited for
    # the executor exits once the helper is done
    with blas.threads(blas.TRAIN_THREADS), ThreadPoolExecutor(1) as helper:
        for epoch in range(train_config.epochs):
            order = shuffle_rng.permutation(data.n_pairs)
            losses = []
            for lo in range(0, data.n_pairs, train_config.batch_size):
                sel = order[lo:lo + train_config.batch_size]
                mask = np.greater_equal(
                    dropout_rng.random(out=draws[:len(sel)]),
                    train_config.dropout, out=keep[:len(sel)])
                head = forward_head(params, data, sel)
                _wait(jobs)  # the last step's W1 update
                probs, tail = forward_tail(
                    params, head["G"], training=True, dropout_mask=mask,
                    dropout=train_config.dropout)
                loss = bce_loss(probs, data.labels[sel])
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite training loss at epoch {epoch}")
                d_z1 = backward_tail(params, tail, data.labels[sel], grads)
                bias = optimizer.advance()
                jobs.append(helper.submit(np.matmul, head["G"].T, d_z1,
                                          out=grads.W1))
                d_G = d_z1 @ params.W1.T  # before the helper moves W1
                jobs.append(helper.submit(optimizer.update, params, grads,
                                          bias, w1.start, w1.stop,
                                          helper_scratch))
                backward_head(params, data, head, d_G, grads)
                optimizer.update(params, grads, bias, 0, w1.start, scratch)
                optimizer.update(params, grads, bias, w1.stop, size, scratch)
                losses.append(loss)
            _wait(jobs)
            dev_probs = score_dataset(params, dev_data)
            dev_f1 = pairwise_f1(dev_probs, dev_data.labels)
            history.append({"epoch": epoch,
                            "train_loss": float(np.mean(losses)),
                            "dev_f1": dev_f1})
            if dev_f1 > best_f1:
                best_f1 = dev_f1
                best_params.flat[...] = params.flat
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if (train_config.patience is not None
                        and stale >= train_config.patience):
                    break
    return best_params, {"epochs": history, "best_epoch": best_epoch,
                         "best_dev_f1": best_f1}


DEFAULT_THRESHOLD_GRID = tuple(round(0.30 + 0.05 * i, 2) for i in range(11))


def scores_as_lookup(data: PairDataset, probs: np.ndarray) -> dict:
    """The clusterer's ``{(a, b): p}``, each id pair in sorted order."""
    ids = data.mention_ids
    return {tuple(sorted((ids[i], ids[j]))): p for i, j, p in
            zip(data.pair_i.tolist(), data.pair_j.tolist(), probs.tolist())}


def _scope_units(corpus: Corpus, scope: str) -> list[list[str]]:
    """Sorted mention ids of each clustering unit, units in sorted order."""
    return [sorted(m.mention_id for m in members)
            for members in corpus.units(scope).values()]


def cluster_from_scores(corpus: Corpus, score_lookup: dict, tau: float,
                        scope: str = "subtopic") -> Clustering:
    """Cluster every scope unit at threshold tau from a pair-score lookup."""
    assignment = {}
    for ids in _scope_units(corpus, scope):
        part = agglomerative_cluster(ids, score_lookup, tau)
        assignment.update(part.assignment)
    return Clustering(assignment)


def best_cut(corpus: Corpus, score_lookup: dict,
             grid=DEFAULT_THRESHOLD_GRID, scope: str = "subtopic",
             eval_options: Optional[EvalOptions] = None
             ) -> tuple[float, Clustering, EvalReport]:
    """``(tau, clustering, report)`` of the grid value whose clustering has
    the highest CoNLL F1 through the full cluster+evaluate path; ties break
    toward the larger threshold. A one-value grid is a fixed tau.

    Each scope unit's merge sequence is recorded once and cut at every grid
    value, which gives the clustering ``cluster_from_scores`` returns at
    that value. The gold side of the evaluation is built once and every
    cut is scored against it.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty threshold grid")
    for tau in grid:
        check_unit_interval("threshold", tau)
    eval_options = eval_options or EvalOptions()
    gold = GoldKey.build(corpus, eval_options)
    sequences = [(ids, merge_sequence(ids, score_lookup))
                 for ids in _scope_units(corpus, scope)]
    best = None
    for tau in grid:
        assignment = {}
        for ids, steps in sequences:
            assignment.update(cut_merge_sequence(ids, steps, tau).assignment)
        clustering = Clustering(assignment)
        report = evaluate(corpus, clustering, eval_options, key=gold)
        if best is None or (report.conll_f1, tau) >= best[0]:
            best = (report.conll_f1, tau), clustering, report
    (_, tau), clustering, report = best
    return tau, clustering, report


def tune_threshold_from_scores(corpus: Corpus, score_lookup: dict,
                               grid=DEFAULT_THRESHOLD_GRID,
                               scope: str = "subtopic",
                               eval_options: Optional[EvalOptions] = None
                               ) -> float:
    """``best_cut``'s tau alone."""
    return best_cut(corpus, score_lookup, grid, scope, eval_options)[0]


# ---------------------------------------------------------------------------
# finite-difference gradient verification
# ---------------------------------------------------------------------------

def make_random_dataset(dims: ModelDims, seed: int, n_mentions: int = 6,
                        n_pairs: int = 8, k: int = 3, max_span: int = 3,
                        max_sentence: int = 5) -> PairDataset:
    """Random dataset exercising every parameter block of the model."""
    rng = np.random.default_rng(seed)
    span_matrices = [rng.standard_normal((int(rng.integers(1, max_span + 1)),
                                          dims.d))
                     for _ in range(n_mentions)]
    span_tensors = SpanTensors.from_matrices(span_matrices,
                                             dims.max_width_bucket)
    n_sentences = n_mentions * 2 * k
    sent_matrices = [rng.standard_normal(
        (int(rng.integers(2, max_sentence + 1)), dims.d))
        for _ in range(n_sentences)]
    sent_tensors = SpanTensors.from_matrices(sent_matrices,
                                             dims.max_width_bucket)
    before_idx = -np.ones((n_mentions, k), dtype=int)
    after_idx = -np.ones((n_mentions, k), dtype=int)
    counter = 0
    for row in range(n_mentions):
        n_b = int(rng.integers(0, k + 1))
        n_a = int(rng.integers(1, k + 1))
        for slot in range(n_b):
            before_idx[row, slot] = counter
            counter += 1
        for slot in range(n_a):
            after_idx[row, slot] = counter
            counter += 1
    pair_i = rng.integers(0, n_mentions, size=n_pairs)
    pair_j = (pair_i + 1 + rng.integers(0, n_mentions - 1,
                                        size=n_pairs)) % n_mentions
    labels = rng.integers(0, 2, size=n_pairs).astype(np.float64)
    return PairDataset(mention_ids=[f"m{i}" for i in range(n_mentions)],
                       span_tensors=span_tensors, sent_tensors=sent_tensors,
                       before_idx=before_idx, after_idx=after_idx,
                       pair_i=pair_i, pair_j=pair_j, labels=labels)


def relative_error(analytic: float, numeric: float,
                   floor: float = 1e-6) -> float:
    denom = max(abs(analytic), abs(numeric), floor)
    return abs(analytic - numeric) / denom


@dataclass
class GradcheckReport:
    per_block: dict = field(default_factory=dict)  # name -> max rel error
    skipped: dict = field(default_factory=dict)    # name -> kink crossings
    tolerance: float = 1e-4
    seeds: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.per_block.values())

    def render(self) -> str:
        lines = [f"gradient check over seeds {self.seeds} "
                 f"(tolerance {self.tolerance:g})"]
        for name, err in self.per_block.items():
            flag = "ok" if err <= self.tolerance else "FAIL"
            skipped = self.skipped.get(name, 0)
            note = f" ({skipped} kink-crossing entries excluded)" \
                if skipped else ""
            lines.append(f"  {name:12s} max relative error {err:.3e} "
                         f"{flag}{note}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def finite_difference_check(params: ModelParameters, data: PairDataset,
                            sel: np.ndarray, step: float = 1e-5,
                            training: bool = False, dropout: float = 0.3,
                            dropout_rng=None,
                            _corrupt_block: Optional[str] = None):
    """Per-block max relative error between backprop and central differences.

    Returns (errors, skipped). The relative-error denominator is floored at
    1e-6 so entries whose true gradient vanishes are compared absolutely.
    Coordinates whose +-step perturbation changes a relu activation sign or
    crosses the loss clamp are excluded and counted in ``skipped``: there the
    loss is locally non-differentiable and central differences straddle two
    linear regions, so their disagreement says nothing about the gradient.
    With ``training`` set, one dropout mask is drawn up front and shared by
    the analytic gradients and every perturbed loss evaluation. A
    coordinate of ``TAIL_BLOCKS`` leaves ``forward_head`` unchanged, so its
    losses rerun only ``forward_tail`` on the head computed once; every
    other coordinate reruns ``forward_batch``.
    """
    mask = None
    if training:
        if dropout_rng is None:
            dropout_rng = np.random.default_rng(0)
        mask = dropout_rng.random((len(sel), params.dims.h)) >= dropout
    _, grads = gradients(params, data, sel, training=training,
                         dropout_mask=mask, dropout=dropout)
    if _corrupt_block is not None:
        grads[_corrupt_block] += 1e-3
    G = forward_head(params, data, sel)["G"]

    def loss_and_region(name):
        if name in TAIL_BLOCKS:
            probs, cache = forward_tail(params, G, training=training,
                                        dropout_mask=mask, dropout=dropout)
        else:
            probs, cache = forward_batch(params, data, sel,
                                         training=training,
                                         dropout_mask=mask, dropout=dropout)
        loss = bce_loss(probs, data.labels[sel])
        region = ((cache["z1"] > 0).tobytes(),
                  ((probs > LOSS_EPS)
                   & (probs < 1.0 - LOSS_EPS)).tobytes())
        return loss, region

    errors = dict.fromkeys(BLOCK_ORDER, 0.0)
    skipped = dict.fromkeys(BLOCK_ORDER, 0)
    flat = params.flat
    block_of = [name for name, span in params.slices.items()
                for _ in range(span.start, span.stop)]
    for idx, name in enumerate(block_of):
        orig = flat[idx]
        flat[idx] = orig + step
        up, region_up = loss_and_region(name)
        flat[idx] = orig - step
        down, region_down = loss_and_region(name)
        flat[idx] = orig
        if region_up != region_down:
            skipped[name] += 1
            continue
        numeric = (up - down) / (2 * step)
        errors[name] = max(errors[name],
                           relative_error(grads.flat[idx], numeric))
    return errors, skipped


def gradcheck(mode: str = "intra", seeds=(0, 1, 2, 3, 4), d: int = 16,
              d_len: int = 20, d_a: int = 8, hidden: int = 32,
              n_pairs: int = 8, step: float = 1e-5, tolerance: float = 1e-4,
              training_mode_seeds: int = 1,
              _corrupt_block: Optional[str] = None) -> GradcheckReport:
    """Exhaustive finite-difference verification at small dimensions.

    Every entry of every block is perturbed, for several random models and
    mini-batches. The first ``training_mode_seeds`` seeds are additionally
    checked under a fixed dropout mask. It runs at ``blas.TRAIN_THREADS``,
    as training does.
    """
    report = GradcheckReport(tolerance=tolerance, seeds=list(seeds))
    dims = ModelDims(d=d, d_len=d_len, d_a=d_a, h=hidden, mode=mode)
    for pos, seed in enumerate(seeds):
        params = init_parameters(dims, seed)
        data = make_random_dataset(dims, seed + 1000, n_pairs=n_pairs)
        sel = np.arange(data.n_pairs)
        runs = [dict(training=False)]
        if pos < training_mode_seeds:
            runs.append(dict(training=True,
                             dropout_rng=np.random.default_rng(seed + 7)))
        for kwargs in runs:
            with blas.threads(blas.TRAIN_THREADS):
                errors, skipped = finite_difference_check(
                    params, data, sel, step=step,
                    _corrupt_block=_corrupt_block, **kwargs)
            for name, err in errors.items():
                report.per_block[name] = max(
                    report.per_block.get(name, 0.0), err)
                report.skipped[name] = (report.skipped.get(name, 0)
                                        + skipped[name])
    return report
