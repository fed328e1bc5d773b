"""Cross-document event coreference with temporal commonsense channels."""

__version__ = "0.1.0"

from .cluster import agglomerative_cluster
from .commonsense import (FixtureProvider, GenerationConfig,
                          GenerationServiceProvider, InferenceCache,
                          InferenceSet, PromptExemplar, format_prompt,
                          get_inferences, parse_completion)
from .corpus import (Clustering, Corpus, CorpusFormatError, Document,
                     Mention, candidate_pairs, load_corpus, validate_stats,
                     write_corpus)
from .embed import (EmbedderConfig, HashEmbedder, ServiceEmbedder,
                    SpanRepresentation, hash_embed, make_embedder,
                    span_representation)
from .metrics import (EvalOptions, EvalReport, MetricScore, b_cubed, ceaf_e,
                      conll_f1, evaluate, muc)
from .scorer import (AttentionOutput, ModelDims, ModelParameters,
                     PairFeature, attend, commonsense_vector,
                     init_parameters, load_checkpoint, pair_features,
                     save_checkpoint, score_pair)
from .synthgen import (SyntheticProvider, SyntheticSpec, generate_synthetic,
                       write_fixtures)
from .training import (TrainConfig, best_cut, build_dataset, gradcheck,
                       train)
