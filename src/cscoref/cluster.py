"""Agglomerative clustering of mentions from pairwise coreference scores."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import Clustering


class ScoreMatrix:
    """Symmetric pairwise probabilities over a declared mention set."""

    def __init__(self, mention_ids):
        ids = list(mention_ids)
        self.mention_ids = sorted(set(ids))
        if len(self.mention_ids) != len(ids):
            raise ValueError("duplicate mention ids")
        self._scores: dict[tuple[str, str], float] = {}

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        if a == b:
            raise ValueError(f"diagonal entry for {a!r} is unused")
        return (a, b) if a < b else (b, a)

    def set(self, a: str, b: str, score: float):
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        self._scores[self._key(a, b)] = float(score)

    def get(self, a: str, b: str) -> float:
        key = self._key(a, b)
        if key not in self._scores:
            raise KeyError(f"no score for pair {key}")
        return self._scores[key]


@dataclass
class ClusteringConfig:
    threshold: float = 0.5
    linkage: str = "average"
    scope: str = "subtopic"

    def __post_init__(self):
        if self.linkage != "average":
            raise ValueError("only average linkage is supported")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


def agglomerative_cluster(mentions, scores: ScoreMatrix,
                          config: ClusteringConfig) -> Clustering:
    """Merge the most similar cluster pair until similarity drops below the
    threshold.

    Cluster-to-cluster similarity is the average pairwise score. Ties are
    broken toward the lexicographically smallest (min-member, min-member)
    pair, making the merge sequence deterministic. Each output cluster is
    named after its smallest member mention id.
    """
    ids = sorted(mentions)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            scores.get(a, b)  # raises KeyError if the matrix is not total

    clusters: dict[str, set[str]] = {m: {m} for m in ids}
    # running sums of inter-cluster pairwise scores, keyed by rep pair
    link_sum: dict[tuple[str, str], float] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            link_sum[(a, b)] = scores.get(a, b)

    while len(clusters) > 1:
        best = None
        for (a, b), total in link_sum.items():
            avg = total / (len(clusters[a]) * len(clusters[b]))
            if best is None or avg > best[0] or (avg == best[0]
                                                 and (a, b) < best[1]):
                best = (avg, (a, b))
        best_avg, (a, b) = best
        if best_avg < config.threshold:
            break
        # merge b into a (a < b, so a stays the min-member representative)
        clusters[a] |= clusters[b]
        del clusters[b]
        del link_sum[(a, b)]
        for c in clusters:
            if c == a:
                continue
            key_cb = (min(b, c), max(b, c))
            key_ca = (min(a, c), max(a, c))
            link_sum[key_ca] = link_sum[key_ca] + link_sum.pop(key_cb)

    return Clustering({m: rep for rep, members in clusters.items()
                       for m in members})


def write_clustering(clustering: Clustering, path, metadata: dict):
    """Clustering file: one metadata header line, then one record per mention."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": metadata}, ensure_ascii=False,
                            separators=(",", ":")) + "\n")
        for m in sorted(clustering.assignment):
            record = {"mention_id": m, "cluster_id": clustering.assignment[m]}
            fh.write(json.dumps(record, ensure_ascii=False,
                                separators=(",", ":")) + "\n")


def read_clustering(path):
    """Returns (clustering, metadata) from a clustering file."""
    assignment = {}
    metadata = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record:
                metadata = record["meta"]
            else:
                assignment[record["mention_id"]] = record["cluster_id"]
    return Clustering(assignment), metadata
