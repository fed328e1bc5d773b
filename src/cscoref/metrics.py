"""Coreference evaluation: MUC, B-cubed, CEAF-e, and their CoNLL average.

All three metrics read one contingency table ``n_ij = |K_i & R_j|`` of a key
(gold) partition ``K`` and a response (system) partition ``R`` of the same
mentions. ``evaluate`` adds the protocol used for corpus runs: per unit (a
subtopic, a topic or the whole corpus), singleton removal on both sides and
universe harmonization, both done on the integer labels before the table is
built, then arithmetic averaging across units. Its gold side (``GoldKey``)
does not depend on the system clustering, so threshold tuning builds it once
and scores every grid value against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import SCOPES, Clustering, Corpus


@dataclass(frozen=True)
class MetricScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "MetricScore":
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(precision, recall, f1)

    @classmethod
    def zero(cls) -> "MetricScore":
        return cls(0.0, 0.0, 0.0)


def _check_universe(key: Clustering, response: Clustering):
    if key.mentions != response.mentions:
        only_key = sorted(key.mentions - response.mentions)[:5]
        only_resp = sorted(response.mentions - key.mentions)[:5]
        raise ValueError(
            f"clusterings cover different mentions "
            f"(key-only {only_key}, response-only {only_resp})")


def _compact(labels):
    """Codes 0..C-1 of ``labels`` and the size of each class."""
    _, codes, sizes = np.unique(labels, return_inverse=True,
                                return_counts=True)
    return codes, sizes


class Contingency:
    """The table ``n_ij = |K_i & R_j|`` of a key and a response partition of
    one mention universe, given as one key label and one response label per
    mention: its nonzero cells (``rows``, ``cols``, ``counts``), the cluster
    sizes on each side, and the number of mentions ``n``."""

    def __init__(self, key_labels, response_labels):
        key, self.key_sizes = _compact(key_labels)
        response, self.response_sizes = _compact(response_labels)
        width = len(self.response_sizes)
        cells, self.counts = np.unique(key * width + response,
                                       return_counts=True)
        self.rows, self.cols = np.divmod(cells, max(width, 1))
        self.n = len(key)


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def muc_table(t: Contingency) -> MetricScore:
    """Link recall and precision (Vilain et al. 1995). Key cluster i needs
    ``|K_i| - 1`` links and keeps ``|K_i|`` minus the number of response
    clusters it meets, so the kept links of either side are ``n - nnz``."""
    kept = t.n - len(t.counts)
    return MetricScore.from_pr(_ratio(kept, t.n - len(t.response_sizes)),
                               _ratio(kept, t.n - len(t.key_sizes)))


def b_cubed_table(t: Contingency) -> MetricScore:
    """Mean over mentions of the overlap of their two clusters: recall is
    ``sum n_ij^2 / |K_i|`` over ``n``, precision the same over ``|R_j|``."""
    squares = t.counts * t.counts
    recall = _ratio(float(np.sum(squares / t.key_sizes[t.rows])), t.n)
    precision = _ratio(float(np.sum(squares / t.response_sizes[t.cols])),
                       t.n)
    return MetricScore.from_pr(precision, recall)


def ceaf_e_table(t: Contingency) -> MetricScore:
    """Entity similarity ``phi4 = 2 n_ij / (|K_i| + |R_j|)`` summed over the
    optimal one-to-one cluster alignment (Luo 2005), over the number of key
    clusters for recall and of response clusters for precision; zero when
    either side has no cluster."""
    n_key, n_response = len(t.key_sizes), len(t.response_sizes)
    if not n_key or not n_response:
        return MetricScore.zero()
    sim = np.zeros((n_key, n_response))
    sim[t.rows, t.cols] = 2 * t.counts / (t.key_sizes[t.rows]
                                          + t.response_sizes[t.cols])
    rows, cols = linear_sum_assignment(-sim)
    best = float(sim[rows, cols].sum())
    return MetricScore.from_pr(best / n_response, best / n_key)


def _table(key: Clustering, response: Clustering) -> Contingency:
    _check_universe(key, response)
    mentions = list(key.assignment)
    return Contingency([key.assignment[m] for m in mentions],
                       [response.assignment[m] for m in mentions])


def muc(key: Clustering, response: Clustering) -> MetricScore:
    return muc_table(_table(key, response))


def b_cubed(key: Clustering, response: Clustering) -> MetricScore:
    return b_cubed_table(_table(key, response))


def ceaf_e(key: Clustering, response: Clustering) -> MetricScore:
    """Entity-alignment score over the optimal one-to-one cluster matching."""
    return ceaf_e_table(_table(key, response))


def conll_f1(scores) -> float:
    """Arithmetic mean of the three metric F1 values."""
    values = [s.f1 for s in scores]
    if len(values) != 3:
        raise ValueError(f"expected three metric scores, got {len(values)}")
    return sum(values) / 3


METRIC_FUNCS = (("muc", muc_table), ("b_cubed", b_cubed_table),
                ("ceaf_e", ceaf_e_table))


def _codes(labels: list) -> np.ndarray:
    """Integer codes of ``labels`` in order of first appearance."""
    index: dict = {}
    return np.fromiter((index.setdefault(x, len(index)) for x in labels),
                       dtype=np.intp, count=len(labels))


def _unit_table(key: np.ndarray, response: np.ndarray,
                drop_singletons: bool) -> Contingency | None:
    """The table of one unit from its key and response codes, after
    singleton removal on both sides; None when no key cluster survives it.

    A mention that survives on one side only stays in the universe as a
    singleton of the other side (harmonization): it takes a fresh label
    there, one that no other mention has.
    """
    if drop_singletons:
        in_key = np.bincount(key)[key] > 1
        if not in_key.any():
            return None
        in_response = np.bincount(response)[response] > 1
        fresh = -1 - np.arange(len(key))
        kept = in_key | in_response
        key = np.where(in_key, key, fresh)[kept]
        response = np.where(in_response, response, fresh)[kept]
    return Contingency(key, response)


@dataclass
class EvalOptions:
    drop_singletons: bool = True
    unit: str = "topic"  # one of corpus.SCOPES

    def __post_init__(self):
        if self.unit not in SCOPES:
            raise ValueError(f"eval unit must be one of {SCOPES}, "
                             f"got {self.unit!r}")


@dataclass
class EvalReport:
    per_topic: dict = field(default_factory=dict)
    aggregate: dict = field(default_factory=dict)
    conll_f1: float = 0.0
    skipped_topics: list = field(default_factory=list)
    options: EvalOptions = field(default_factory=EvalOptions)

    def render_table(self) -> str:
        header = (f"{'':12s} {'MUC':^23s} {'B3':^23s} {'CEAFe':^23s} "
                  f"{'CONLL':^7s}")
        sub = (f"{'':12s} " + " ".join(f"{h:^7s}" for h in
               ("P", "R", "F1") * 3) + f" {'F1':^7s}")
        lines = [header, sub]

        def row(label, scores, conll):
            cells = []
            for name, _ in METRIC_FUNCS:
                s = scores[name]
                cells += [f"{s.precision:7.4f}", f"{s.recall:7.4f}",
                          f"{s.f1:7.4f}"]
            return f"{label:12s} " + " ".join(cells) + f" {conll:7.4f}"

        for topic, scores in sorted(self.per_topic.items()):
            lines.append(row(topic, scores, conll_f1(
                [scores[n] for n, _ in METRIC_FUNCS])))
        if self.aggregate:
            lines.append(row("ALL", self.aggregate, self.conll_f1))
        if self.skipped_topics:
            lines.append(f"skipped (no key clusters after singleton "
                         f"removal): {', '.join(self.skipped_topics)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        def enc(scores):
            return {name: {"precision": s.precision, "recall": s.recall,
                           "f1": s.f1} for name, s in scores.items()}
        return {
            "per_topic": {t: enc(s) for t, s in self.per_topic.items()},
            "aggregate": enc(self.aggregate) if self.aggregate else {},
            "conll_f1": self.conll_f1,
            "skipped_topics": list(self.skipped_topics),
            "options": {"drop_singletons": self.options.drop_singletons,
                        "unit": self.options.unit},
        }


@dataclass(frozen=True)
class GoldKey:
    """The gold side of ``evaluate`` for one corpus, options and mention
    subset: every gold mention (a system clustering must cover them all),
    and for each unit with an evaluated mention its mention ids and their
    gold labels as integer codes."""
    options: EvalOptions
    mention_subset: frozenset | None
    mentions: frozenset
    units: tuple  # (unit, mention ids, gold codes), units in sorted order

    @classmethod
    def build(cls, corpus: Corpus, options: EvalOptions | None = None,
              mention_subset=None) -> "GoldKey":
        options = options or EvalOptions()
        gold = corpus.gold_clustering().assignment
        subset = None if mention_subset is None else frozenset(mention_subset)
        units = []
        for unit, members in corpus.units(options.unit).items():
            ids = [m.mention_id for m in members
                   if subset is None or m.mention_id in subset]
            if ids:
                units.append((unit, ids, _codes([gold[m] for m in ids])))
        return cls(options, subset, frozenset(gold), tuple(units))


def evaluate(corpus: Corpus, system: Clustering,
             options: EvalOptions | None = None,
             mention_subset=None, *, key: GoldKey | None = None
             ) -> EvalReport:
    """Score a system clustering against the corpus gold partition.

    Per unit (``options.unit``: each subtopic, each topic, or one
    ``"corpus"`` unit): remove singleton clusters from both key and
    response, harmonize the surviving mention universes, compute the three
    metrics from the unit's contingency table, then average
    precision/recall/F1 arithmetically across units. Units with no evaluated mention are left
    out; units whose key is empty after singleton removal are skipped and
    listed. ``mention_subset`` restricts the evaluation universe before
    anything else (e.g. to one generator difficulty class). System mentions
    outside the gold mentions are ignored; a gold mention missing from the
    system is a ValueError.

    ``key`` is the gold side, ``GoldKey.build(corpus, options,
    mention_subset)``; a caller that scores several clusterings of one
    corpus builds it once and passes it. A key built for other options or
    another subset is a ValueError.
    """
    options = options or EvalOptions()
    if key is None:
        key = GoldKey.build(corpus, options, mention_subset)
    elif (key.options != options or key.mention_subset != (
            None if mention_subset is None else frozenset(mention_subset))):
        raise ValueError("gold key was built for other evaluation options "
                         "or another mention subset")
    assignment = system.assignment
    missing = [m for m in key.mentions if m not in assignment]
    if missing:
        raise ValueError(
            f"system clustering is missing gold mentions: "
            f"{sorted(missing)[:5]}")

    report = EvalReport(options=options)
    for unit, ids, gold_codes in key.units:
        table = _unit_table(gold_codes, _codes([assignment[m] for m in ids]),
                            options.drop_singletons)
        if table is None:
            report.skipped_topics.append(unit)
            continue
        report.per_topic[unit] = {name: fn(table)
                                  for name, fn in METRIC_FUNCS}

    if report.per_topic:
        agg = {}
        for name, _ in METRIC_FUNCS:
            ps = [s[name].precision for s in report.per_topic.values()]
            rs = [s[name].recall for s in report.per_topic.values()]
            fs = [s[name].f1 for s in report.per_topic.values()]
            agg[name] = MetricScore(float(np.mean(ps)), float(np.mean(rs)),
                                    float(np.mean(fs)))
        report.aggregate = agg
        report.conll_f1 = conll_f1([agg[n] for n, _ in METRIC_FUNCS])
    return report
