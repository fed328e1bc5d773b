"""Independent brute-force implementations used only as test oracles.

These share no code with the library: MUC recall is computed by union-find
link counting, B-cubed by raw per-mention loops, and the CEAF alignment by
exhaustive enumeration of injective cluster matchings. The clustering
oracle is the original dict-based average-linkage merge loop, which
re-runs the whole merge sequence for each threshold. ``evaluate_oracle`` is
the original set-based evaluation protocol: per unit, it restricts both
clusterings, drops singleton clusters, adds one-sided mentions as
singletons, and scores the three metrics over sets of mention ids.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _muc_recall_oracle(key_clusters, response_assignment):
    """Link-based recall: connect mentions that share both a key cluster and
    a response cluster, then count the components of each key cluster."""
    num = 0
    den = 0
    for cluster in key_clusters:
        members = sorted(cluster)
        uf = _UnionFind(members)
        for a, b in itertools.combinations(members, 2):
            ra = response_assignment.get(a)
            rb = response_assignment.get(b)
            if ra is not None and ra == rb:
                uf.union(a, b)
        components = len({uf.find(m) for m in members})
        num += len(members) - components
        den += len(members) - 1
    return num / den if den else 0.0


def muc_oracle(key, response):
    """key/response: dict mention -> cluster id over the same universe."""
    key_clusters = _clusters(key)
    resp_clusters = _clusters(response)
    r = _muc_recall_oracle(key_clusters, response)
    p = _muc_recall_oracle(resp_clusters, key)
    return p, r, _f1(p, r)


def _clusters(assignment):
    out = {}
    for m, c in assignment.items():
        out.setdefault(c, set()).add(m)
    return list(out.values())


def b_cubed_oracle(key, response):
    def one_side(first, second):
        mentions = list(first)
        total = 0.0
        for m in mentions:
            f_cluster = {x for x in first if first[x] == first[m]}
            if m in second:
                s_cluster = {x for x in second if second[x] == second[m]}
            else:
                s_cluster = {m}
            total += len(f_cluster & s_cluster) / len(f_cluster)
        return total / len(mentions) if mentions else 0.0

    r = one_side(key, response)
    p = one_side(response, key)
    return p, r, _f1(p, r)


def ceaf_e_oracle(key, response):
    """Optimal alignment by exhaustive enumeration (feasible for <= 7)."""
    key_clusters = _clusters(key)
    resp_clusters = _clusters(response)
    if not key_clusters or not resp_clusters:
        return 0.0, 0.0, 0.0

    def phi(a, b):
        return 2 * len(a & b) / (len(a) + len(b))

    small, large, swapped = ((key_clusters, resp_clusters, False)
                             if len(key_clusters) <= len(resp_clusters)
                             else (resp_clusters, key_clusters, True))
    best = 0.0
    for perm in itertools.permutations(range(len(large)), len(small)):
        total = sum(phi(small[i], large[j]) for i, j in enumerate(perm))
        best = max(best, total)
    r = best / len(key_clusters)
    p = best / len(resp_clusters)
    return p, r, _f1(p, r)


def conll_oracle(key, response):
    scores = [muc_oracle(key, response), b_cubed_oracle(key, response),
              ceaf_e_oracle(key, response)]
    return sum(s[2] for s in scores) / 3


def random_clustering(rng, mentions, max_clusters):
    """Uniformly random assignment of the mentions to at most max_clusters."""
    n = max(1, int(rng.integers(1, max_clusters + 1)))
    return {m: f"c{int(rng.integers(n))}" for m in mentions}


def agglomerative_cluster_oracle(mentions, scores, threshold):
    """Average linkage stopped at ``threshold``, one dict merge step at a
    time; ``scores.get(a, b)`` returns the pair's score. Returns the
    assignment mention -> smallest member of its cluster."""
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
        if best_avg < threshold:
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

    return {m: rep for rep, members in clusters.items() for m in members}


# ---------------------------------------------------------------------------
# the set-based evaluation protocol, on assignments mention -> cluster id
# ---------------------------------------------------------------------------

def _restrict(assignment, mentions):
    return {m: c for m, c in assignment.items() if m in mentions}


def _drop_singletons(assignment):
    sizes = {}
    for c in assignment.values():
        sizes[c] = sizes.get(c, 0) + 1
    return {m: c for m, c in assignment.items() if sizes[c] > 1}


def _harmonize(key, response):
    """Add each one-sided mention to the other side as a singleton."""
    new_key = dict(key)
    for m in set(response) - set(key):
        new_key[m] = f"_singleton_{m}"
    new_response = dict(response)
    for m in set(key) - set(response):
        new_response[m] = f"_singleton_{m}"
    return new_key, new_response


def _set_muc_recall(key, response):
    num = den = 0
    for members in _clusters(key):
        num += len(members) - len({response[m] for m in members})
        den += len(members) - 1
    return num / den if den > 0 else 0.0


def _set_b3_recall(key, response):
    key_clusters = {c: set() for c in key.values()}
    for m, c in key.items():
        key_clusters[c].add(m)
    resp_clusters = {c: set() for c in response.values()}
    for m, c in response.items():
        resp_clusters[c].add(m)
    total = 0.0
    for m, c in key.items():
        members = key_clusters[c]
        total += len(members & resp_clusters[response[m]]) / len(members)
    return total / len(key) if key else 0.0


def _set_ceaf_e(key, response):
    key_clusters = _clusters(key)
    resp_clusters = _clusters(response)
    if not key_clusters or not resp_clusters:
        return 0.0, 0.0
    sim = np.array([[2 * len(a & b) / (len(a) + len(b))
                     for b in resp_clusters] for a in key_clusters])
    rows, cols = linear_sum_assignment(-sim)
    best = float(sim[rows, cols].sum())
    return best / len(resp_clusters), best / len(key_clusters)


def _scores(key, response):
    """{metric: (precision, recall, f1)} on one harmonized unit."""
    muc_p, muc_r = _set_muc_recall(response, key), _set_muc_recall(
        key, response)
    b3_p, b3_r = _set_b3_recall(response, key), _set_b3_recall(
        key, response)
    ceaf_p, ceaf_r = _set_ceaf_e(key, response)
    return {name: (p, r, _f1(p, r)) for name, p, r in (
        ("muc", muc_p, muc_r), ("b_cubed", b3_p, b3_r),
        ("ceaf_e", ceaf_p, ceaf_r))}


def evaluate_oracle(corpus, system, drop_singletons=True, topic_level=True,
                    unit="topic", mention_subset=None):
    """The evaluation protocol over sets. ``system`` maps mention ids to
    cluster ids. Returns ``{"per_topic": {unit: {metric: (p, r, f1)}},
    "skipped_topics": [...], "aggregate": {metric: (p, r, f1)},
    "conll_f1": float}``; raises ValueError when ``system`` misses a gold
    mention."""
    gold = {m.mention_id: m.gold_cluster_id
            for m in corpus.mentions.values()}
    missing = set(gold) - set(system)
    if missing:
        raise ValueError(f"system clustering is missing gold mentions: "
                         f"{sorted(missing)[:5]}")
    system = _restrict(system, gold)
    if mention_subset is not None:
        gold = _restrict(gold, set(mention_subset))
        system = _restrict(system, set(mention_subset))
    units = {}
    for m in gold:
        doc = corpus.documents[corpus.mentions[m].doc_id]
        name = (getattr(doc, f"{unit}_id") if topic_level else "corpus")
        units.setdefault(name, set()).add(m)
    per_topic, skipped = {}, []
    for name in sorted(units):
        key = _restrict(gold, units[name])
        response = _restrict(system, units[name])
        if drop_singletons:
            key, response = _drop_singletons(key), _drop_singletons(response)
        if not key:
            skipped.append(name)
            continue
        per_topic[name] = _scores(*_harmonize(key, response))
    aggregate = {}
    conll = 0.0
    if per_topic:
        for metric in ("muc", "b_cubed", "ceaf_e"):
            aggregate[metric] = tuple(
                float(np.mean([s[metric][i] for s in per_topic.values()]))
                for i in range(3))
        conll = sum(aggregate[m][2] for m in aggregate) / 3
    return {"per_topic": per_topic, "skipped_topics": skipped,
            "aggregate": aggregate, "conll_f1": conll}
