"""Prompting, completion parsing, fixtures, and the persistent cache.

Generation prompts follow a fixed Context/Event/Before layout; completions
come back as free text that is split into at most k before and k after
sentences. Providers are interchangeable: a fixture file, the synthetic
rule, or an external generation service (not exercised here). One call,
``get_inferences``, fetches a whole corpus's sets through the cache, as
``gen-inferences`` and every dataset build do.
"""

import tempfile
from pathlib import Path

from cscoref import (GenerationConfig, InferenceCache, format_prompt,
                     get_inferences, parse_completion)
from cscoref.synthgen import SyntheticProvider, SyntheticSpec, \
    generate_synthetic

context = ("Lindsay Lohan checks into rehab at Betty Ford Center , "
           "rehires longtime lawyer Shawn Holley")
print("finetuned-format prompt:")
print(format_prompt(context, "rehires"))

print("\nparsing a completion:")
completion = (" She fired her old lawyer. She needs counsel.\n"
              "After: He gets a good pay. END")
before, after = parse_completion(completion, k=5)
print(f"  before: {before}")
print(f"  after:  {after}")

print("\nsynthetic provider + cache:")
spec = SyntheticSpec(n_topics=1, clusters_per_topic=2,
                     mentions_per_cluster=2, hard_fraction=1.0, seed=7)
corpus, _ = generate_synthetic(spec)
provider = SyntheticProvider(spec)
config = GenerationConfig(k=3)

with tempfile.TemporaryDirectory() as tmp:
    cache = InferenceCache(Path(tmp) / "cache.jsonl")
    results = get_inferences(provider, corpus, config, cache)
    mention = corpus.mentions_in_order()[0]
    result = results[mention.mention_id]
    print(f"  mention {mention.mention_id} ({mention.text!r}):")
    for s in result.before:
        print(f"    before: {s}")
    for s in result.after:
        print(f"    after:  {s}")
    print(f"  cache entries on disk: {len(cache)} "
          f"(one per mention of the corpus)")
    again = get_inferences(provider, corpus, config, cache)
    print(f"  second fetch identical (served from cache): {again == results}")
