"""Coreference evaluation: MUC, B-cubed, CEAF-e, and their CoNLL average.

All three scorers take a key (gold) and a response (system) clustering over
the same mention universe. ``evaluate`` adds the protocol used for corpus
runs: singleton removal on both sides, universe harmonization, per-topic
computation, and arithmetic averaging across topics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import Clustering, Corpus


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


def _muc_recall(key: Clustering, response: Clustering) -> float:
    """Link recall: for each key cluster, links recovered over links needed."""
    num = 0
    den = 0
    for members in key.clusters().values():
        # partition the key cluster by the response cluster of each mention
        parts = {response.assignment[m] for m in members}
        num += len(members) - len(parts)
        den += len(members) - 1
    return num / den if den > 0 else 0.0


def muc(key: Clustering, response: Clustering) -> MetricScore:
    _check_universe(key, response)
    recall = _muc_recall(key, response)
    precision = _muc_recall(response, key)
    return MetricScore.from_pr(precision, recall)


def _b3_recall(key: Clustering, response: Clustering) -> float:
    """Mean over key mentions of overlap between the two containing clusters."""
    key_clusters = key.clusters()
    resp_clusters = response.clusters()
    total = 0.0
    n = 0
    for members in key_clusters.values():
        for m in members:
            resp_members = resp_clusters[response.assignment[m]]
            total += len(members & resp_members) / len(members)
            n += 1
    return total / n if n > 0 else 0.0


def b_cubed(key: Clustering, response: Clustering) -> MetricScore:
    _check_universe(key, response)
    recall = _b3_recall(key, response)
    precision = _b3_recall(response, key)
    return MetricScore.from_pr(precision, recall)


def _phi4(a: frozenset, b: frozenset) -> float:
    return 2 * len(a & b) / (len(a) + len(b))


def ceaf_e(key: Clustering, response: Clustering) -> MetricScore:
    """Entity-alignment score over the optimal one-to-one cluster matching."""
    _check_universe(key, response)
    key_clusters = [frozenset(v) for v in key.clusters().values()]
    resp_clusters = [frozenset(v) for v in response.clusters().values()]
    if not key_clusters or not resp_clusters:
        return MetricScore.zero()
    sim = np.zeros((len(key_clusters), len(resp_clusters)))
    for i, kc in enumerate(key_clusters):
        for j, rc in enumerate(resp_clusters):
            sim[i, j] = _phi4(kc, rc)
    rows, cols = linear_sum_assignment(-sim)
    best = float(sim[rows, cols].sum())
    recall = best / len(key_clusters)
    precision = best / len(resp_clusters)
    return MetricScore.from_pr(precision, recall)


def conll_f1(scores) -> float:
    """Arithmetic mean of the three metric F1 values."""
    values = [s.f1 for s in scores]
    if len(values) != 3:
        raise ValueError(f"expected three metric scores, got {len(values)}")
    return sum(values) / 3


METRIC_FUNCS = (("muc", muc), ("b_cubed", b_cubed), ("ceaf_e", ceaf_e))


def harmonize(key: Clustering, response: Clustering):
    """Align the mention universes by adding one-sided mentions as singletons."""
    key_only = key.mentions - response.mentions
    resp_only = response.mentions - key.mentions
    new_key = dict(key.assignment)
    for m in resp_only:
        new_key[m] = f"_singleton_{m}"
    new_resp = dict(response.assignment)
    for m in key_only:
        new_resp[m] = f"_singleton_{m}"
    return Clustering(new_key), Clustering(new_resp)


def score_pair_of_clusterings(key: Clustering, response: Clustering,
                              drop_singletons: bool = True) -> dict:
    """Metrics for one evaluation unit, with optional singleton removal."""
    if drop_singletons:
        key = key.drop_singletons()
        response = response.drop_singletons()
    if not key.mentions:
        return {}
    key, response = harmonize(key, response)
    return {name: fn(key, response) for name, fn in METRIC_FUNCS}


@dataclass
class EvalOptions:
    topic_level: bool = True
    drop_singletons: bool = True
    unit: str = "topic"  # "topic" or "subtopic" granularity

    def __post_init__(self):
        if self.unit not in ("topic", "subtopic"):
            raise ValueError(f"eval unit must be 'topic' or 'subtopic', "
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
            "options": {"topic_level": self.options.topic_level,
                        "drop_singletons": self.options.drop_singletons,
                        "unit": self.options.unit},
        }


def evaluate(corpus: Corpus, system: Clustering,
             options: EvalOptions | None = None,
             mention_subset=None) -> EvalReport:
    """Score a system clustering against the corpus gold partition.

    Per unit (``options.unit``; with ``topic_level`` off, one ``"corpus"``
    unit): remove singleton clusters from both key and response, harmonize
    the surviving mention universes, compute the three metrics, then average
    precision/recall/F1 arithmetically across units. Units with no evaluated
    mention are left out; units whose key is empty after singleton removal
    are skipped and listed.
    ``mention_subset`` restricts the evaluation universe before anything
    else (e.g. to one generator difficulty class).
    """
    options = options or EvalOptions()
    gold = corpus.gold_clustering()
    missing = gold.mentions - system.mentions
    if missing:
        raise ValueError(
            f"system clustering is missing gold mentions: "
            f"{sorted(missing)[:5]}")
    system = system.restrict(gold.mentions)
    if mention_subset is not None:
        gold = gold.restrict(mention_subset)
        system = system.restrict(mention_subset)

    evaluated = gold.mentions
    scope = options.unit if options.topic_level else "corpus"
    report = EvalReport(options=options)
    for unit, members in corpus.units(scope).items():
        ids = [m.mention_id for m in members if m.mention_id in evaluated]
        if not ids:
            continue
        scores = score_pair_of_clusterings(
            gold.restrict(ids), system.restrict(ids),
            drop_singletons=options.drop_singletons)
        if not scores:
            report.skipped_topics.append(unit)
            continue
        report.per_topic[unit] = scores

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
