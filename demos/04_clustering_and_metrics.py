"""Agglomerative clustering with a threshold, and the three metrics.

Average-linkage agglomerative clustering keeps merging the most similar
cluster pair until the best average score drops below tau. Evaluation is
MUC (links), B-cubed (per-mention overlap), and CEAF-e (optimal one-to-one
cluster alignment), averaged into the CoNLL score.
"""

from cscoref import (Clustering, ScoreMatrix, agglomerative_cluster,
                     b_cubed, ceaf_e, conll_f1, muc)

print("hand trace: ab=0.9, ac=0.8, bc=0.2")
ids = ["a", "b", "c"]
matrix = ScoreMatrix(ids)
matrix.set("a", "b", 0.9)
matrix.set("a", "c", 0.8)
matrix.set("b", "c", 0.2)
for tau in (0.95, 0.51, 0.5, 0.0):
    result = agglomerative_cluster(ids, matrix, tau)
    shape = sorted(sorted(v) for v in result.clusters().values())
    print(f"  tau={tau:4.2f} -> {shape}")
print("  (at tau=0.5 the pair (a,b) merges at 0.9, then the average "
      "linkage to c is (0.8+0.2)/2 = 0.5, which still meets tau)\n")

print("metrics on a partial response:")
key = Clustering({"a": "k1", "b": "k1", "c": "k1", "d": "k1"})
response = Clustering({"a": "r1", "b": "r1", "c": "r2", "d": "r2"})
scores = [muc(key, response), b_cubed(key, response),
          ceaf_e(key, response)]
for name, s in zip(("MUC", "B3", "CEAFe"), scores):
    print(f"  {name:6s} P={s.precision:.4f} R={s.recall:.4f} "
          f"F1={s.f1:.4f}")
print(f"  CoNLL = {conll_f1(scores):.4f}")
print("\nMUC rewards the links that survive (4-cluster key split in "
      "half keeps 2 of 3 links -> R=2/3), while CEAF-e charges the "
      "response for needing two clusters where the key has one.")
