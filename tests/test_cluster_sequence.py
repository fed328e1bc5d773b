"""The recorded merge sequence, cut at a threshold, against the dict-based
merge loop in ``oracles.py``."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cscoref.cluster import (ScoreMatrix, agglomerative_cluster,
                             cut_merge_sequence, merge_sequence)
from cscoref.training import DEFAULT_THRESHOLD_GRID

from oracles import agglomerative_cluster_oracle

HAND = {("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.2}


class DictScores:
    """The oracle's score lookup: a plain dict keyed by sorted pair."""

    def __init__(self, scores):
        self.scores = {tuple(sorted(pair)): s for pair, s in scores.items()}

    def get(self, a, b):
        return self.scores[(a, b) if a < b else (b, a)]


def matrix_from(ids, scores):
    matrix = ScoreMatrix(ids)
    for (a, b), s in scores.items():
        matrix.set(a, b, s)
    return matrix


@st.composite
def units(draw, quantized):
    n = draw(st.integers(0, 12))
    # ids whose sorted order differs from creation order
    ids = [f"m{draw(st.integers(0, 99)):02d}_{i}" for i in range(n)]
    if quantized:
        score = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    else:
        score = st.floats(0.0, 1.0, allow_nan=False)
    scores = {pair: draw(score)
              for pair in itertools.combinations(ids, 2)}
    tau = draw(st.floats(0.0, 1.0, allow_nan=False))
    return ids, scores, tau


def assert_matches_oracle(ids, scores, random_tau):
    matrix = matrix_from(ids, scores)
    for tau in (*DEFAULT_THRESHOLD_GRID, 0.0, 1.0, random_tau):
        result = agglomerative_cluster(ids, matrix, tau)
        expected = agglomerative_cluster_oracle(ids, DictScores(scores), tau)
        assert result.assignment == expected, tau


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(units(quantized=True))
    def test_tie_heavy_scores(self, unit):
        assert_matches_oracle(*unit)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(units(quantized=False))
    def test_continuous_scores(self, unit):
        assert_matches_oracle(*unit)


class TestHandTrace:
    def test_sequence_averages(self):
        steps = merge_sequence(["c", "b", "a"], matrix_from("abc", HAND))
        assert [(avg, a, b) for avg, a, b in steps] == [
            (0.9, "a", "b"), (0.5, "a", "c")]

    def test_cut_at_half_merges_everything(self):
        steps = merge_sequence("abc", matrix_from("abc", HAND))
        assert set(cut_merge_sequence("abc", steps, 0.5)
                   .assignment.values()) == {"a"}

    def test_cut_just_above_stops_after_one_merge(self):
        steps = merge_sequence("abc", matrix_from("abc", HAND))
        assert cut_merge_sequence("abc", steps, 0.51).clusters() == {
            "a": {"a", "b"}, "c": {"c"}}


class TestScoreMatrixChecks:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix(["a", "b", "a"])

    def test_nan_rejected(self):
        matrix = ScoreMatrix(["a", "b"])
        with pytest.raises(ValueError):
            matrix.set("a", "b", float("nan"))
        with pytest.raises(KeyError):
            matrix.get("a", "b")

    def test_missing_pair_named(self):
        matrix = matrix_from("abc", {("a", "b"): 0.5, ("a", "c"): 0.5})
        with pytest.raises(KeyError, match="'b', 'c'"):
            merge_sequence("abc", matrix)
