"""Agglomerative clustering of mentions from pairwise coreference scores."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import Clustering


class ScoreMatrix:
    """Symmetric pairwise probabilities over a declared mention set.

    Scores live in a dense float64 matrix over the sorted ids; an unset
    pair holds NaN, which no accepted score can be.
    """

    def __init__(self, mention_ids):
        ids = list(mention_ids)
        self.mention_ids = sorted(set(ids))
        if len(self.mention_ids) != len(ids):
            raise ValueError("duplicate mention ids")
        self._row = {m: i for i, m in enumerate(self.mention_ids)}
        n = len(self.mention_ids)
        self._scores = np.full((n, n), np.nan)

    def _rows(self, a: str, b: str) -> tuple[int, int]:
        if a == b:
            raise ValueError(f"diagonal entry for {a!r} is unused")
        return self._row[a], self._row[b]

    def set(self, a: str, b: str, score: float):
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        i, j = self._rows(a, b)
        self._scores[i, j] = self._scores[j, i] = float(score)

    def get(self, a: str, b: str) -> float:
        i, j = self._rows(a, b)
        score = self._scores[i, j]
        if np.isnan(score):
            raise KeyError(f"no score for pair {tuple(sorted((a, b)))}")
        return float(score)


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


def merge_sequence(ids, scores: ScoreMatrix) -> list[tuple[float, str, str]]:
    """Average-linkage merges of ``ids`` all the way to one cluster.

    Each step is ``(average, a, b)``: cluster ``b`` merges into cluster
    ``a``, both named after their smallest member (``a < b``), at the
    average pairwise score between them. A step takes the highest average;
    ties go to the lexicographically smallest (a, b) pair. Raises KeyError
    when a pair of ``ids`` has no score.
    """
    ids = sorted(ids)
    n = len(ids)
    rows = [scores._row[m] for m in ids]
    sums = scores._scores[np.ix_(rows, rows)]
    unset = np.isnan(sums)
    np.fill_diagonal(unset, False)
    if unset.any():
        i, j = np.argwhere(unset)[0]
        raise KeyError(f"no score for pair {(ids[i], ids[j])}")
    np.fill_diagonal(sums, 0.0)

    # rows are sorted ids and a cluster keeps its smallest member's row, so
    # argmax's first maximum in row-major order over the upper triangle is
    # the smallest (min-member, min-member) pair
    avg = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), sums, -np.inf)
    size = np.ones(n)
    live = np.ones(n, dtype=bool)
    steps = []
    for _ in range(n - 1):
        a, b = divmod(int(np.argmax(avg)), n)
        steps.append((float(avg[a, b]), ids[a], ids[b]))
        sums[a] = sums[a] + sums[b]
        sums[:, a] = sums[a]
        size[a] += size[b]
        live[b] = False
        avg[b] = avg[:, b] = -np.inf
        row = np.where(live, sums[a] / (size[a] * size), -np.inf)
        avg[a, a + 1:] = row[a + 1:]
        avg[:a, a] = row[:a]
    return steps


def cut_merge_sequence(ids, steps, threshold: float) -> Clustering:
    """The partition after the merges of ``steps`` that come before the
    first one whose average is below ``threshold``."""
    clusters = {m: [m] for m in sorted(ids)}
    for average, a, b in steps:
        if average < threshold:
            break
        clusters[a] += clusters.pop(b)
    return Clustering({m: rep for rep, members in clusters.items()
                       for m in members})


def agglomerative_cluster(mentions, scores: ScoreMatrix,
                          config: ClusteringConfig) -> Clustering:
    """Merge the most similar cluster pair until similarity drops below the
    threshold.

    Cluster-to-cluster similarity is the average pairwise score. Ties are
    broken toward the lexicographically smallest (min-member, min-member)
    pair, making the merge sequence deterministic. Each output cluster is
    named after its smallest member mention id.

    The threshold only decides where that sequence stops, so the clustering
    is ``merge_sequence`` run to one cluster, then cut before the first merge
    whose average is below ``config.threshold``
    (``cut_merge_sequence``). A caller that needs several thresholds records
    the sequence once and cuts it at each. Raises KeyError when the matrix
    has no score for some pair of ``mentions``.
    """
    ids = sorted(mentions)
    return cut_merge_sequence(ids, merge_sequence(ids, scores),
                              config.threshold)


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
