"""Synthetic corpus generator with controllable coreference signal.

Every gold cluster belongs to an event lexeme family. In easy clusters all
mentions share the family head lexeme, so a span-level scorer can link them
lexically. In hard clusters the head tokens are uniquified per cluster
instance (pairwise distinct, and never repeated across corpora), so the only
usable coreference signal is in the emitted inference fixtures: each
mention's before/after lists start with two anchor sentences drawn from a
family-keyed shared pool, identical for every mention of the cluster, plus
per-mention noise sentences.

Everything is a pure function of the spec: per-item generators are seeded
from stable hashes of (seed, item key), so output never depends on
generation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .commonsense import GenerationConfig, InferenceSet, encode_record
from .corpus import Corpus, Document, Mention

SUBJECTS = ("Alice", "Omar", "Priya", "Jonas", "Mei", "Tariq", "Lena",
            "Carlos", "Ingrid", "Noah", "Fatima", "Viktor", "Amara",
            "Dmitri")
FILLER_NOUNS = ("crowd", "reporter", "mayor", "street", "festival",
                "stadium", "airport", "museum", "harbor", "council",
                "bridge", "market", "village", "campus")
FILLER_VERBS = ("described", "watched", "discussed", "mentioned", "recalled",
                "covered", "noted", "reported", "observed", "summarized")
TIME_WORDS = ("yesterday", "overnight", "recently", "today", "earlier",
              "afterwards", "eventually", "meanwhile", "suddenly", "later",
              "soon")

EASY_FAMILIES = ("earthquake", "wildfire", "referendum", "robbery",
                 "eruption", "blackout", "protest", "flood", "landslide",
                 "drought")
EASY_SPAN_MODS = ("incident", "saga", "situation")

HARD_FAMILIES = (
    ("collision", ("crash", "collision", "pileup", "wreck", "smashup",
                   "rearender")),
    ("takeover", ("buyout", "takeover", "acquisition", "absorption",
                  "annexation", "consolidation")),
    ("hiring", ("appointment", "hiring", "recruitment", "signing",
                "induction", "enlistment")),
    ("escape", ("breakout", "escape", "getaway", "jailbreak", "absconding",
                "vanishing")),
    ("verdict", ("ruling", "verdict", "judgment", "conviction", "acquittal",
                 "sentencing")),
    ("storm", ("hurricane", "cyclone", "typhoon", "tempest", "squall",
               "windstorm")),
    ("launch", ("liftoff", "launch", "blastoff", "ascent", "takeoff",
                "deployment")),
    ("outbreak", ("outbreak", "epidemic", "contagion", "infection",
                  "pandemic", "resurgence")),
    ("victory", ("victory", "triumph", "win", "upset", "sweep",
                 "championship")),
    ("heist", ("heist", "burglary", "theft", "holdup", "stickup",
               "larceny")),
)

ANCHOR_PEOPLE = ("residents", "officials", "witnesses", "neighbors",
                 "organizers", "investigators", "analysts", "volunteers",
                 "commuters", "editors", "lawyers", "nurses", "farmers",
                 "students")
ANCHOR_ACTIONS = ("prepared", "gathered", "warned", "waited", "planned",
                  "traveled", "phoned", "argued", "trained", "packed",
                  "rehearsed", "negotiated", "queued", "saved", "searched")
ANCHOR_OBJECTS = ("supplies", "documents", "tickets", "equipment",
                  "statements", "records", "banners", "contracts", "maps",
                  "provisions", "permits", "schedules", "budgets")
ANCHOR_AFTERMATH = ("cleanup", "paperwork", "interviews", "repairs",
                    "celebrations", "inquiries", "refunds", "inspections",
                    "negotiations", "memorials", "audits", "briefings",
                    "reviews")

FIXTURE_K = 5
N_POOL_PER_RELATION = 2  # anchor sentences shared by a cluster's mentions


@dataclass(frozen=True)
class SyntheticSpec:
    n_topics: int = 4
    clusters_per_topic: int = 4
    mentions_per_cluster: int = 4
    hard_fraction: float = 0.5
    distractor_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_topics, self.clusters_per_topic,
               self.mentions_per_cluster) < 1:
            raise ValueError("all counts must be >= 1")
        if not 0.0 <= self.hard_fraction <= 1.0:
            raise ValueError("hard_fraction must be in [0, 1]")
        if self.distractor_rate < 0:
            raise ValueError("distractor_rate must be >= 0")

    @property
    def n_hard_per_topic(self) -> int:
        return int(round(self.clusters_per_topic * self.hard_fraction))

    @property
    def n_mentions(self) -> int:
        return (self.n_topics * self.clusters_per_topic
                * self.mentions_per_cluster)


def _stable_rng(seed: int, *keys) -> np.random.Generator:
    """Generator keyed by (seed, keys); independent of generation order."""
    text = "|".join([str(seed)] + [str(k) for k in keys])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return np.random.Generator(
        np.random.PCG64(int.from_bytes(digest, "little")))


def _pick(rng: np.random.Generator, pool):
    return pool[int(rng.integers(len(pool)))]


def _cluster_kind(spec: SyntheticSpec, cluster_pos: int) -> str:
    return "hard" if cluster_pos < spec.n_hard_per_topic else "easy"


def _family_key(spec: SyntheticSpec, topic: int, cluster_pos: int):
    """Returns (kind, family key string, family index for pool rotation)."""
    if _cluster_kind(spec, cluster_pos) == "hard":
        global_idx = topic * spec.n_hard_per_topic + cluster_pos
        fam = global_idx % len(HARD_FAMILIES)
        return "hard", HARD_FAMILIES[fam][0], fam
    n_easy = spec.clusters_per_topic - spec.n_hard_per_topic
    global_idx = topic * n_easy + (cluster_pos - spec.n_hard_per_topic)
    fam = global_idx % len(EASY_FAMILIES)
    return "easy", EASY_FAMILIES[fam], fam + 50


def _hard_suffix(spec: SyntheticSpec, topic: int, cluster_pos: int) -> str:
    text = f"{spec.seed}|suffix|{topic}|{cluster_pos}"
    return hashlib.blake2b(text.encode("utf-8"), digest_size=3).hexdigest()


def _head_tokens(spec: SyntheticSpec, topic: int, cluster_pos: int,
                 mention_idx: int) -> tuple:
    """Span tokens of one mention; the head lexeme is the first token."""
    kind, key, fam_idx = _family_key(spec, topic, cluster_pos)
    if kind == "hard":
        synonyms = HARD_FAMILIES[fam_idx][1]
        base = synonyms[mention_idx % len(synonyms)]
        if mention_idx >= len(synonyms):
            base = f"{base}{mention_idx}"  # keep heads pairwise distinct
        return (f"{base}_{_hard_suffix(spec, topic, cluster_pos)}",)
    if mention_idx % 3 == 2:
        return (key, EASY_SPAN_MODS[fam_idx % len(EASY_SPAN_MODS)])
    return (key,)


def anchor_sentences(family_key: str, fam_idx: int) -> dict:
    """The family's shared inference pool: two before and two after anchors.

    A pure function of the family, independent of the corpus seed, so the
    pool recurs across independently generated corpora.
    """
    p1 = ANCHOR_PEOPLE[(7 * fam_idx + 1) % len(ANCHOR_PEOPLE)]
    p2 = ANCHOR_PEOPLE[(7 * fam_idx + 5) % len(ANCHOR_PEOPLE)]
    act1 = ANCHOR_ACTIONS[(5 * fam_idx + 2) % len(ANCHOR_ACTIONS)]
    act2 = ANCHOR_ACTIONS[(5 * fam_idx + 9) % len(ANCHOR_ACTIONS)]
    obj = ANCHOR_OBJECTS[(3 * fam_idx + 4) % len(ANCHOR_OBJECTS)]
    aft1 = ANCHOR_AFTERMATH[(11 * fam_idx + 3) % len(ANCHOR_AFTERMATH)]
    aft2 = ANCHOR_AFTERMATH[(11 * fam_idx + 8) % len(ANCHOR_AFTERMATH)]
    return {
        "before": (
            f"Local {p1} {act1} before the {family_key}.",
            f"The {p2} had {act2} {obj} ahead of the {family_key}.",
        ),
        "after": (
            f"The {aft1} after the {family_key} lasted for days.",
            f"Most {p1} discussed the {family_key} during the {aft2}.",
        ),
    }


def _noise_sentence(rng: np.random.Generator) -> str:
    p = _pick(rng, ANCHOR_PEOPLE)
    v = _pick(rng, FILLER_VERBS)
    n = _pick(rng, FILLER_NOUNS)
    t = _pick(rng, TIME_WORDS)
    return f"Some {p} {v} the {n} {t}."


def _mention_id(topic: int, cluster_pos: int, mention_idx: int) -> str:
    return f"t{topic:02d}_c{cluster_pos}_m{mention_idx}"


def parse_mention_id(mention_id: str):
    """Inverse of the generator's mention naming; returns (t, c, q)."""
    try:
        t_part, c_part, m_part = mention_id.split("_")
        return int(t_part[1:]), int(c_part[1:]), int(m_part[1:])
    except (ValueError, IndexError) as exc:
        raise ValueError(
            f"not a synthetic mention id: {mention_id!r}") from exc


def fixture_for_mention(spec: SyntheticSpec, topic: int, cluster_pos: int,
                        mention_idx: int) -> InferenceSet:
    """The mention's fixture: family anchors first, then per-mention noise."""
    _, key, fam_idx = _family_key(spec, topic, cluster_pos)
    anchors = anchor_sentences(key, fam_idx)
    mention_id = _mention_id(topic, cluster_pos, mention_idx)
    rng = _stable_rng(spec.seed, "fixture", mention_id)
    n_noise = FIXTURE_K - N_POOL_PER_RELATION
    before = anchors["before"] + tuple(_noise_sentence(rng)
                                       for _ in range(n_noise))
    after = anchors["after"] + tuple(_noise_sentence(rng)
                                     for _ in range(n_noise))
    return InferenceSet(mention_id, before, after, "synthetic")


def _mention_sentence(spec: SyntheticSpec, topic: int, cluster_pos: int,
                      mention_idx: int):
    """Returns (tokens, span_start, span_end) for one mention sentence."""
    span = _head_tokens(spec, topic, cluster_pos, mention_idx)
    mention_id = _mention_id(topic, cluster_pos, mention_idx)
    rng = _stable_rng(spec.seed, "sent", mention_id)
    template = int(rng.integers(3))
    subj = _pick(rng, SUBJECTS)
    if template == 0:
        tokens = [subj, _pick(rng, FILLER_VERBS), "the", *span,
                  _pick(rng, TIME_WORDS), "."]
        start = 3
    elif template == 1:
        tokens = ["The", _pick(rng, FILLER_NOUNS), _pick(rng, FILLER_VERBS),
                  "the", *span, "."]
        start = 4
    else:
        tokens = [subj, "and", _pick(rng, SUBJECTS),
                  _pick(rng, FILLER_VERBS), "the", *span, "near", "the",
                  _pick(rng, FILLER_NOUNS), "."]
        start = 5
    return tokens, start, start + len(span) - 1


def _distractor_sentence(rng: np.random.Generator):
    return [_pick(rng, SUBJECTS), _pick(rng, FILLER_VERBS), "the",
            _pick(rng, FILLER_NOUNS), _pick(rng, TIME_WORDS), "."]


def generate_synthetic(spec: SyntheticSpec):
    """Build (corpus, fixtures) deterministically from the spec.

    Topic t holds ``clusters_per_topic`` gold clusters and
    ``mentions_per_cluster`` documents; document q carries mention q of every
    cluster in the topic, so clusters span documents. Fixtures map every
    mention_id to its InferenceSet.
    """
    documents = []
    mentions = []
    fixtures: dict[str, InferenceSet] = {}
    for t in range(spec.n_topics):
        topic_id = f"t{t:02d}"
        subtopic_id = f"{topic_id}_s0"
        for q in range(spec.mentions_per_cluster):
            doc_id = f"{topic_id}_d{q}"
            items = []
            for c in range(spec.clusters_per_topic):
                items.append(("mention", c))
            d_rng = _stable_rng(spec.seed, "doc", topic_id, q)
            n_distract = int(spec.distractor_rate * len(items))
            if d_rng.random() < spec.distractor_rate * len(items) - n_distract:
                n_distract += 1
            for _ in range(n_distract):
                pos = int(d_rng.integers(len(items) + 1))
                items.insert(pos, ("distractor", None))
            sentences = []
            for sent_idx, (kind, c) in enumerate(items):
                if kind == "distractor":
                    sentences.append(_distractor_sentence(d_rng))
                    continue
                tokens, start, end = _mention_sentence(spec, t, c, q)
                sentences.append(tokens)
                mention_id = _mention_id(t, c, q)
                cluster_kind = _cluster_kind(spec, c)
                mentions.append(Mention(
                    mention_id=mention_id,
                    doc_id=doc_id,
                    sentence_index=sent_idx,
                    token_start=start,
                    token_end=end,
                    text=" ".join(tokens[start:end + 1]),
                    gold_cluster_id=f"{topic_id}_k{c:02d}_{cluster_kind}",
                ))
                fixtures[mention_id] = fixture_for_mention(spec, t, c, q)
            documents.append(Document(doc_id, topic_id, subtopic_id,
                                      sentences))
    corpus = Corpus(documents, mentions)
    return corpus, fixtures


def write_fixtures(corpus: Corpus, fixtures: dict, path):
    """Fixture file with the same record format as the inference cache."""
    with open(path, "wb") as fh:
        for mention_id in sorted(fixtures):
            _, line = encode_record(corpus.mentions[mention_id].doc_id,
                                    fixtures[mention_id])
            fh.write(line)


def is_hard_cluster_id(cluster_id: str) -> bool:
    return cluster_id.endswith("_hard")


def easy_subset_mention_ids(corpus: Corpus) -> set:
    """Mentions whose gold cluster carries only the lexical signal."""
    return {m.mention_id for m in corpus.mentions.values()
            if m.gold_cluster_id is not None
            and not is_hard_cluster_id(m.gold_cluster_id)}


class SyntheticProvider:
    """Regenerates the generator's fixtures on demand for any mention."""

    waits_on_service = False  # fills generate on the calling thread

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec

    def fingerprint(self, config: GenerationConfig) -> str:
        return "synthetic"

    def generate(self, mention, context_sentence: str,
                 config: GenerationConfig) -> InferenceSet:
        t, c, q = parse_mention_id(mention.mention_id)
        return fixture_for_mention(self.spec, t, c, q).truncated(config.k)
