import itertools

import pytest

from cscoref.cluster import (agglomerative_cluster, merge_sequence,
                             read_clustering, write_clustering)
from cscoref.corpus import Clustering


def run(scores, tau):
    ids = sorted({m for pair in scores for m in pair})
    return agglomerative_cluster(ids, scores, tau)


class TestPairScores:
    def test_id_order_does_not_matter(self):
        scores = {("a", "b"): 0.7}
        assert merge_sequence(["b", "a"], scores) == [(0.7, "a", "b")]

    def test_range_checked(self):
        with pytest.raises(ValueError, match="'a', 'b'"):
            merge_sequence(["a", "b"], {("a", "b"): 1.5})

    def test_missing_pair(self):
        with pytest.raises(KeyError):
            merge_sequence(["a", "b"], {})


class TestAgglomerative:
    def test_tau_above_all_scores_gives_singletons(self):
        result = run({("a", "b"): 0.4, ("a", "c"): 0.3, ("b", "c"): 0.2},
                     tau=0.5)
        assert len(result) == 3

    def test_two_mentions_merge(self):
        result = run({("a", "b"): 0.9}, tau=0.5)
        assert len(result) == 1

    def test_average_linkage_hand_trace(self):
        # ab=0.9 merges first; then linkage({a,b},{c}) = (0.8+0.2)/2 = 0.5,
        # which meets tau=0.5, so everything merges
        result = run({("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.2},
                     tau=0.5)
        assert len(result) == 1

    def test_hand_trace_stops_just_above(self):
        result = run({("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.2},
                     tau=0.51)
        assert result.clusters() == {"a": {"a", "b"}, "c": {"c"}}

    def test_tau_zero_single_cluster(self):
        result = run({("a", "b"): 0.0, ("a", "c"): 0.0, ("b", "c"): 0.0},
                     tau=0.0)
        assert len(result) == 1

    def test_missing_score_rejected(self):
        with pytest.raises(KeyError):
            agglomerative_cluster(["a", "b", "c"], {("a", "b"): 0.5}, 0.5)

    def test_output_is_partition(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ids = [f"m{i}" for i in range(n)]
            scores = {(a, b): float(rng.random())
                      for a, b in itertools.combinations(ids, 2)}
            result = run(scores, tau=float(rng.random()))
            assert result.mentions == set(ids)
            seen = [m for members in result.clusters().values()
                    for m in members]
            assert sorted(seen) == sorted(ids)

    def test_monotone_refinement_in_tau(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 8))
            ids = [f"m{i}" for i in range(n)]
            scores = {(a, b): float(rng.random())
                      for a, b in itertools.combinations(ids, 2)}
            previous = None
            for tau in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                current = run(scores, tau)
                if previous is not None:
                    # higher tau refines lower tau: every current cluster
                    # sits inside one previous cluster
                    for members in current.clusters().values():
                        containers = {previous.cluster_of(m)
                                      for m in members}
                        assert len(containers) == 1
                previous = current

    def test_deterministic_over_reruns(self, rng):
        ids = [f"m{i}" for i in range(7)]
        scores = {(a, b): float(rng.random())
                  for a, b in itertools.combinations(ids, 2)}
        baseline = run(scores, tau=0.4)
        for _ in range(100):
            again = run(scores, tau=0.4)
            assert again.assignment == baseline.assignment

    def test_cluster_named_after_min_member(self):
        result = run({("a", "b"): 0.9, ("a", "c"): 0.9, ("b", "c"): 0.9},
                     tau=0.5)
        assert set(result.assignment.values()) == {"a"}

    def test_tie_broken_toward_smallest_pair(self):
        # both pairs score 0.9; (a,b) < (b,c) so a-b merges first, then the
        # average to c is (0.9 + 0.0)/2 = 0.45 < tau
        result = run({("a", "b"): 0.9, ("b", "c"): 0.9, ("a", "c"): 0.0},
                     tau=0.5)
        assert result.clusters() == {"a": {"a", "b"}, "c": {"c"}}

    @pytest.mark.parametrize("tau", [1.5, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, tau):
        with pytest.raises(ValueError, match="threshold"):
            run({("a", "b"): 0.9}, tau=tau)


class TestClusteringFile:
    def test_roundtrip_with_metadata(self, tmp_path):
        clustering = Clustering({"m1": "c1", "m2": "c1", "m3": "c3"})
        path = tmp_path / "clusters.jsonl"
        write_clustering(clustering, path,
                         metadata={"tau": 0.5, "linkage": "average",
                                   "scope": "subtopic",
                                   "checkpoint": "abc123"})
        loaded, meta = read_clustering(path)
        assert loaded == clustering
        assert meta["tau"] == 0.5
        assert meta["checkpoint"] == "abc123"
