"""Independent brute-force implementations used only as test oracles.

These share no code with the library: MUC recall is computed by union-find
link counting, B-cubed by raw per-mention loops, and the CEAF alignment by
exhaustive enumeration of injective cluster matchings. The clustering
oracle is the original dict-based average-linkage merge loop, which
re-runs the whole merge sequence for each threshold.
"""

import itertools


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
