"""End-to-end: train baseline vs intra on a synthetic corpus and compare.

A compact version of the full experiment: half the gold clusters are
"hard" (no lexical signal, commonsense anchors only). The baseline scorer
resolves the easy clusters and leaves the hard ones fragmented; the
intra-span model recovers them through the inference channel. Runs in
about a minute.
"""

import time

from cscoref import EmbedderConfig, TrainConfig, evaluate, train
from cscoref.metrics import EvalOptions
from cscoref.synthgen import (SyntheticProvider, SyntheticSpec,
                              easy_subset_mention_ids, generate_synthetic)
from cscoref.training import (build_dataset, predict_clustering,
                              tune_threshold)

specs = {
    "train": SyntheticSpec(n_topics=6, clusters_per_topic=4,
                           mentions_per_cluster=4, hard_fraction=0.5,
                           seed=11),
    "dev": SyntheticSpec(n_topics=3, clusters_per_topic=4,
                         mentions_per_cluster=4, hard_fraction=0.5,
                         seed=22),
    "test": SyntheticSpec(n_topics=3, clusters_per_topic=4,
                          mentions_per_cluster=4, hard_fraction=0.5,
                          seed=33),
}
corpora = {k: generate_synthetic(s)[0] for k, s in specs.items()}
embed_config = EmbedderConfig(provider="hash", d=16)
print(f"train/dev/test mentions: "
      f"{[len(corpora[k].mentions) for k in ('train', 'dev', 'test')]}")

for mode in ("baseline", "intra"):
    start = time.time()
    data = {k: build_dataset(corpora[k], embed_config, mode,
                             inference_source=(SyntheticProvider(s)
                                               if mode != "baseline"
                                               else None))
            for k, s in specs.items()}
    # this corpus is smaller than the desk preset (fewer steps per epoch),
    # so liftoff comes later; run the full budget instead of early stopping
    config = TrainConfig(mode=mode, epochs=60, patience=None, seed=0,
                         learning_rate=1e-3)
    params, history = train(data["train"], embed_config, config,
                            dev_data=data["dev"])
    tau = tune_threshold(params, corpora["dev"], dataset=data["dev"])
    system = predict_clustering(params, corpora["test"], data["test"], tau)
    report = evaluate(corpora["test"], system, EvalOptions())
    easy = evaluate(corpora["test"], system,
                    mention_subset=easy_subset_mention_ids(corpora["test"]))
    print(f"\n{mode}: trained {len(history['epochs'])} epochs in "
          f"{time.time() - start:.0f}s, tau={tau:.2f}")
    print(f"  test CoNLL F1 = {report.conll_f1:.4f} "
          f"(easy-only subset {easy.conll_f1:.4f})")
    print(report.render_table())
