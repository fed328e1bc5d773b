"""A tour of the corpus layer: synthesis, file format, pairs, and stats.

The synthetic generator plants two kinds of coreference signal. Easy gold
clusters share a head lexeme, so a span-level scorer can link their mentions
from the text alone. Hard clusters have pairwise-distinct head tokens that
never recur; the only thing tying them together is a shared pool of
inference sentences in the emitted fixtures.
"""

import tempfile
from pathlib import Path

from cscoref import (SyntheticSpec, candidate_pairs, generate_synthetic,
                     load_corpus, validate_stats, write_corpus)
from cscoref.synthgen import is_hard_cluster_id, write_fixtures

spec = SyntheticSpec(n_topics=2, clusters_per_topic=4,
                     mentions_per_cluster=3, hard_fraction=0.5,
                     distractor_rate=0.5, seed=42)
corpus, fixtures = generate_synthetic(spec)

print(f"spec: {spec}")
print(f"-> {len(corpus.documents)} documents, {len(corpus.mentions)} "
      f"mentions, {len({m.gold_cluster_id for m in corpus.mentions.values()})}"
      f" gold clusters\n")

print("one document:")
doc = next(iter(corpus.documents.values()))
for i, sentence in enumerate(doc.sentences):
    print(f"  [{i}] {' '.join(sentence)}")

print("\nmention spans in a hard cluster (note the distinct head tokens):")
hard = [m for m in corpus.mentions.values()
        if is_hard_cluster_id(m.gold_cluster_id)]
cluster_id = hard[0].gold_cluster_id
for m in sorted(corpus.mentions.values(), key=lambda m: m.mention_id):
    if m.gold_cluster_id == cluster_id:
        print(f"  {m.mention_id}: {m.text!r} in {m.doc_id}")

print("\n...and the anchor overlap in their inference fixtures:")
members = [m.mention_id for m in corpus.mentions.values()
           if m.gold_cluster_id == cluster_id]
shared = set(fixtures[members[0]].before) & set(fixtures[members[1]].before)
for sentence in sorted(shared):
    print(f"  shared: {sentence}")

with tempfile.TemporaryDirectory() as tmp:
    corpus_path = Path(tmp) / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    write_fixtures(corpus, fixtures, Path(tmp) / "fixtures.jsonl")
    print(f"\nfirst two corpus records:")
    for line in corpus_path.read_text().splitlines()[:2]:
        print(f"  {line[:100]}...")
    reloaded = load_corpus(corpus_path)
    print(f"reloaded: {len(reloaded.mentions)} mentions "
          f"(round-trip exact: {reloaded.mentions == corpus.mentions})")

report = validate_stats(corpus, {"mentions": 24, "clusters": 8})
print(f"\n{report}")

# each pair is two rows into the mentions in span order
pairs = candidate_pairs(corpus, scope="subtopic")
gold = [m.gold_cluster_id for m in corpus.mentions_in_order()]
positives = sum(gold[i] == gold[j] for i, j in pairs.tolist())
print(f"\nwithin-subtopic pairs: {len(pairs)} ({positives} coreferent)")
