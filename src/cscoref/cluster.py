"""Agglomerative clustering of mentions from pairwise coreference scores."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .corpus import (Clustering, CorpusFormatError, check_record,
                     json_lines, naming_os_errors)


def check_unit_interval(name: str, value: float):
    """Raise ValueError unless ``value`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} {value} outside [0, 1]")


def merge_sequence(ids, scores) -> list[tuple[float, str, str]]:
    """Average-linkage merges of ``ids`` all the way to one cluster.

    ``scores`` maps each sorted id pair ``(a, b)``, ``a < b``, to its
    probability. Each step is ``(average, a, b)``: cluster ``b`` merges into
    cluster ``a``, both named after their smallest member (``a < b``), at the
    average pairwise score between them. A step takes the highest average;
    ties go to the lexicographically smallest (a, b) pair. Raises ValueError
    for duplicate ids or a score outside [0, 1] (NaN included), and KeyError
    naming the first pair of ``ids``, in sorted order, with no score.

    The scores are read into a dense symmetric matrix in one pass at C
    level (``np.fromiter`` over the sorted pairs, placed by an upper-triangle
    mask); each merge then updates one row and column of it.
    """
    ids = sorted(ids)
    n = len(ids)
    if len(set(ids)) != n:
        raise ValueError("duplicate mention ids")
    try:
        values = np.fromiter(
            map(scores.__getitem__, itertools.combinations(ids, 2)),
            dtype=np.float64, count=n * (n - 1) // 2)
    except KeyError as exc:
        raise KeyError(f"no score for pair {exc.args[0]}") from None
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        pair = next(itertools.islice(itertools.combinations(ids, 2), i, None))
        raise ValueError(f"score {values[i]} for pair {pair} outside [0, 1]")
    # combinations of sorted ids run in row-major order over the upper
    # triangle, the order in which a boolean mask places values; the
    # diagonal stays 0
    upper = np.less.outer(np.arange(n), np.arange(n))
    sums = np.zeros((n, n))
    sums[upper] = values
    sums.T[upper] = values

    # rows are sorted ids and a cluster keeps its smallest member's row, so
    # argmax's first maximum in row-major order over the upper triangle is
    # the smallest (min-member, min-member) pair
    avg = np.full((n, n), -np.inf)
    avg[upper] = values
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


def agglomerative_cluster(mentions, scores, threshold: float) -> Clustering:
    """Merge the most similar cluster pair until similarity drops below the
    threshold.

    Cluster-to-cluster similarity is the average pairwise score. Ties are
    broken toward the lexicographically smallest (min-member, min-member)
    pair, making the merge sequence deterministic. Each output cluster is
    named after its smallest member mention id.

    The threshold only decides where that sequence stops, so the clustering
    is ``merge_sequence`` run to one cluster, then cut before the first merge
    whose average is below ``threshold`` (``cut_merge_sequence``). A caller
    that needs several thresholds records the sequence once and cuts it at
    each. ``scores`` maps sorted id pairs to probabilities, as for
    ``merge_sequence``. Raises ValueError for a threshold outside [0, 1] and
    KeyError when ``scores`` has no entry for some pair of ``mentions``.
    """
    check_unit_interval("threshold", threshold)
    ids = sorted(mentions)
    return cut_merge_sequence(ids, merge_sequence(ids, scores), threshold)


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
    """Returns (clustering, metadata) from a clustering file. A mention
    listed on two lines is a CorpusFormatError naming both."""
    assignment = {}
    line_of = {}  # mention id -> the line that assigns it
    metadata = {}
    with naming_os_errors(path, CorpusFormatError), open(path, "rb") as fh:
        for lineno, record in json_lines(fh, path, CorpusFormatError):
            where = f"{path}:{lineno}"
            if type(record) is dict and "meta" in record:
                metadata = check_record(record, {"meta": dict}, where,
                                        "metadata record",
                                        CorpusFormatError)["meta"]
            else:
                check_record(record, {"mention_id": str, "cluster_id": str},
                             where, "clustering record", CorpusFormatError)
                mention_id = record["mention_id"]
                first = line_of.setdefault(mention_id, lineno)
                if first != lineno:
                    raise CorpusFormatError(
                        f"{where}: mention {mention_id!r} is already "
                        f"assigned at line {first}")
                assignment[mention_id] = record["cluster_id"]
    return Clustering(assignment), metadata
