"""Corpus data model and ingestion.

A corpus is a set of documents grouped into topics and subtopics, plus gold
event mention spans. The on-disk format is UTF-8 JSON lines; every line is an
object with exactly one top-level key naming the record kind:

    {"doc": {"doc_id": ..., "topic_id": ..., "subtopic_id": ..., "sentences": [[tok, ...], ...]}}
    {"mention": {"mention_id": ..., "doc_id": ..., "sentence_index": ..,
                 "token_start": .., "token_end": .., "text": ..., "gold_cluster_id": ...}}

Ids, text and tokens are strings, the indices integers. ``gold_cluster_id``
is optional; all other fields are required and unknown fields are rejected.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np


class CorpusFormatError(ValueError):
    """Raised when a corpus file violates the record format or an invariant."""


@contextmanager
def naming_os_errors(path, error):
    """Raise an ``OSError`` other than ``FileNotFoundError`` (a directory,
    no permission, a full disk) as ``error`` naming ``path``."""
    try:
        yield
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc


def all_strings(items) -> bool:
    """Whether every item is a ``str``: ``str.join`` checks each at C speed,
    several times faster than ``isinstance`` called per item."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


_DECODER = json.JSONDecoder()


def json_lines(lines, path, error, lineno=0):
    """Yield ``(line number, value)`` for each non-blank line of ``lines``,
    an iterable of ``bytes`` lines such as a file opened ``"rb"``, after
    ``lineno`` lines. The one decoder of every JSON-lines input: a line that
    is not UTF-8, or not exactly one JSON value, raises ``error`` as
    ``path:line: …``, quoting ``json.loads``'s own reason."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        try:  # json.loads less its wrappers: JSON whitespace around a value
            text = raw.decode("utf-8").strip(" \t\n\r")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: not valid UTF-8") from exc
        if not text:
            continue
        try:
            value, end = _DECODER.raw_decode(text)
        except json.JSONDecodeError:
            end = None
        if end != len(text):  # not one value: json.loads says why
            try:
                json.loads(text)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: not valid JSON "
                            f"({exc.msg})") from exc
        yield lineno, value


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def check_record(record, fields: dict, where: str, kind: str, error,
                 optional=frozenset()):
    """``record`` if it is an object holding the fields of ``fields``,
    ``{name: type}``, but perhaps those in ``optional``, and no other, each
    of its type: ``type(value) is t``, so ``true`` is not an integer.
    Otherwise raise ``error`` as ``where: …`` naming the unknown, missing
    and wrongly typed fields of the ``kind`` of record."""
    if type(record) is not dict:
        raise error(f"{where}: {kind} is {_JSON_TYPES[type(record)]}, "
                    f"not an object")
    if len(record) == len(fields):  # then no field missing means no other
        for name, t in fields.items():
            if type(record.get(name)) is not t:
                break
        else:
            return record
    problems = [f"{what} field(s) {sorted(names)} in {kind}"
                for what, names in (
                    ("unknown", record.keys() - fields.keys()),
                    ("missing", fields.keys() - record.keys() - optional))
                if names]
    problems += [f"{kind} field {name!r} must be {_JSON_TYPES[fields[name]]}"
                 f", not {_JSON_TYPES[type(value)]}"
                 for name, value in record.items()
                 if name in fields and type(value) is not fields[name]]
    if problems:
        raise error(f"{where}: {'; '.join(problems)}")
    return record


# unit scopes from narrowest to broadest: a subtopic lies in one topic
SCOPES = ("subtopic", "topic", "corpus")

_DOC_FIELDS = {"doc_id": str, "topic_id": str, "subtopic_id": str,
               "sentences": list}
_MENTION_FIELDS = {"mention_id": str, "doc_id": str, "sentence_index": int,
                   "token_start": int, "token_end": int, "text": str,
                   "gold_cluster_id": str}
_MENTION_OPTIONAL = frozenset({"gold_cluster_id"})


@dataclass(frozen=True)
class Document:
    doc_id: str
    topic_id: str
    subtopic_id: str
    sentences: tuple  # tuple of tuples of token strings

    def __post_init__(self):
        if not all(map(isinstance, self.sentences,
                       itertools.repeat((list, tuple)))):
            raise CorpusFormatError(f"document {self.doc_id!r}: sentences "
                                    f"must be lists of tokens")
        sentences = tuple(map(tuple, self.sentences))
        object.__setattr__(self, "sentences", sentences)
        for i, sent in enumerate(sentences):
            if not sent:
                raise CorpusFormatError(
                    f"document {self.doc_id!r}: sentence {i} is empty")
            # types first: "" in sent compares every token with ""
            if not all_strings(sent) or "" in sent:
                raise CorpusFormatError(
                    f"document {self.doc_id!r}: sentence {i} has a "
                    f"non-string or empty token")


@dataclass(frozen=True)
class Mention:
    mention_id: str
    doc_id: str
    sentence_index: int
    token_start: int
    token_end: int
    text: str
    gold_cluster_id: Optional[str] = None

    def span_key(self):
        """Canonical ordering key: document, then sentence, then span start."""
        return (self.doc_id, self.sentence_index, self.token_start,
                self.token_end, self.mention_id)


class Clustering:
    """A partition of a declared mention set into named clusters."""

    def __init__(self, assignment: dict[str, str]):
        if not all(isinstance(m, str) and isinstance(c, str)
                   for m, c in assignment.items()):
            raise ValueError("assignment must map mention_id to cluster_id")
        self.assignment = dict(assignment)

    @property
    def mentions(self) -> set[str]:
        return set(self.assignment)

    def clusters(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for m, c in self.assignment.items():
            out.setdefault(c, set()).add(m)
        return out

    def __eq__(self, other):
        if not isinstance(other, Clustering):
            return NotImplemented
        mine = frozenset(frozenset(v) for v in self.clusters().values())
        theirs = frozenset(frozenset(v) for v in other.clusters().values())
        return self.mentions == other.mentions and mine == theirs

    def __len__(self):
        return len(set(self.assignment.values()))

    def __repr__(self):
        return f"Clustering({len(self.assignment)} mentions, {len(self)} clusters)"


class Corpus:
    """Documents plus gold mentions, in file order."""

    def __init__(self, documents: Iterable[Document],
                 mentions: Iterable[Mention]):
        self.documents: dict[str, Document] = {}
        topic_of_subtopic: dict[str, str] = {}
        for doc in documents:
            if doc.doc_id in self.documents:
                raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
            topic = topic_of_subtopic.setdefault(doc.subtopic_id,
                                                 doc.topic_id)
            if topic != doc.topic_id:
                raise CorpusFormatError(
                    f"subtopic {doc.subtopic_id!r} lies under topics "
                    f"{topic!r} and {doc.topic_id!r}")
            self.documents[doc.doc_id] = doc
        self.mentions: dict[str, Mention] = {}
        for m in mentions:
            self._validate_mention(m)
            if m.mention_id in self.mentions:
                raise CorpusFormatError(
                    f"duplicate mention_id {m.mention_id!r}")
            self.mentions[m.mention_id] = m

    def _validate_mention(self, m: Mention):
        doc = self.documents.get(m.doc_id)
        if doc is None:
            raise CorpusFormatError(
                f"mention {m.mention_id!r} references unknown doc "
                f"{m.doc_id!r}")
        if not 0 <= m.sentence_index < len(doc.sentences):
            raise CorpusFormatError(
                f"mention {m.mention_id!r}: sentence_index "
                f"{m.sentence_index} out of range")
        sent = doc.sentences[m.sentence_index]
        if not 0 <= m.token_start <= m.token_end < len(sent):
            raise CorpusFormatError(
                f"mention {m.mention_id!r}: span "
                f"[{m.token_start}, {m.token_end}] out of bounds for "
                f"sentence of length {len(sent)}")
        covered = " ".join(sent[m.token_start:m.token_end + 1])
        if m.text != covered:
            raise CorpusFormatError(
                f"mention {m.mention_id!r}: text {m.text!r} does not match "
                f"covered tokens {covered!r}")

    def sentence_of(self, mention: Mention) -> tuple:
        return self.documents[mention.doc_id].sentences[mention.sentence_index]

    def gold_clustering(self) -> Clustering:
        missing = [m.mention_id for m in self.mentions.values()
                   if m.gold_cluster_id is None]
        if missing:
            raise CorpusFormatError(
                f"mentions without gold_cluster_id: {missing[:5]}")
        return Clustering({m.mention_id: m.gold_cluster_id
                           for m in self.mentions.values()})

    def mentions_in_order(self) -> list[Mention]:
        return sorted(self.mentions.values(), key=Mention.span_key)

    def units(self, scope: str) -> dict[str, list[Mention]]:
        """The mentions of each unit of ``scope``, in span order, keyed by
        subtopic id, topic id, or ``"corpus"`` for the whole corpus; keys
        in sorted order, units without mentions absent.

        Pairs are scored, mentions clustered, and clusterings evaluated
        within these units. Raises ValueError for a scope outside
        ``SCOPES``.
        """
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        units: dict[str, list[Mention]] = {}
        for m in self.mentions_in_order():
            unit = ("corpus" if scope == "corpus"
                    else getattr(self.documents[m.doc_id], f"{scope}_id"))
            units.setdefault(unit, []).append(m)
        return {unit: units[unit] for unit in sorted(units)}


def load_corpus(path) -> Corpus:
    """Load a JSON-lines corpus file, validating every record.

    A missing file raises ``FileNotFoundError``; any other file that cannot
    be read (a directory, no permission), or a line that breaks the format,
    raises ``CorpusFormatError`` naming the path (and line).
    """
    documents: list[Document] = []
    mentions: list[Mention] = []
    with naming_os_errors(path, CorpusFormatError), open(path, "rb") as fh:
        for lineno, record in json_lines(fh, path, CorpusFormatError):
            where = f"{path}:{lineno}"
            if type(record) is not dict or len(record) != 1:
                raise CorpusFormatError(
                    f"{where}: expected a single-key record object")
            kind, body = next(iter(record.items()))
            if kind == "doc":
                check_record(body, _DOC_FIELDS, where, "doc record",
                             CorpusFormatError)
                try:
                    documents.append(Document(**body))
                except CorpusFormatError as exc:
                    raise CorpusFormatError(f"{where}: {exc}") from exc
            elif kind == "mention":
                check_record(body, _MENTION_FIELDS, where, "mention record",
                             CorpusFormatError, _MENTION_OPTIONAL)
                mentions.append(Mention(**body))
            else:
                raise CorpusFormatError(
                    f"{where}: unknown record kind {kind!r}")
    return Corpus(documents, mentions)


def _doc_record(doc: Document) -> str:
    body = {
        "doc_id": doc.doc_id,
        "topic_id": doc.topic_id,
        "subtopic_id": doc.subtopic_id,
        "sentences": [list(s) for s in doc.sentences],
    }
    return json.dumps({"doc": body}, ensure_ascii=False,
                      separators=(",", ":"))


def _mention_record(m: Mention) -> str:
    body = {
        "mention_id": m.mention_id,
        "doc_id": m.doc_id,
        "sentence_index": m.sentence_index,
        "token_start": m.token_start,
        "token_end": m.token_end,
        "text": m.text,
    }
    if m.gold_cluster_id is not None:
        body["gold_cluster_id"] = m.gold_cluster_id
    return json.dumps({"mention": body}, ensure_ascii=False,
                      separators=(",", ":"))


def corpus_to_lines(corpus: Corpus) -> list[str]:
    lines = [_doc_record(d) for d in corpus.documents.values()]
    lines += [_mention_record(m) for m in corpus.mentions.values()]
    return lines


def write_corpus(corpus: Corpus, path):
    """Write the canonical serialization: docs then mentions, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in corpus_to_lines(corpus):
            fh.write(line + "\n")


def candidate_pairs(corpus: Corpus, scope: str = "subtopic") -> np.ndarray:
    """All unordered mention pairs within each unit of ``scope``, as an
    ``(N, 2)`` array of rows into ``corpus.mentions_in_order()``.

    Units come in sorted order and, within one, the pairs ``(a, b)`` with
    ``a < b`` in row-major order: a unit's members are in span order, so
    their rows increase and each pair's first mention comes first in span
    order.
    """
    row = {m.mention_id: i for i, m in enumerate(corpus.mentions_in_order())}
    pairs = [np.empty((0, 2), dtype=int)]
    for members in corpus.units(scope).values():
        rows = np.array([row[m.mention_id] for m in members], dtype=int)
        pairs.append(rows[np.column_stack(np.triu_indices(len(rows), 1))])
    return np.concatenate(pairs)


@dataclass
class StatsReport:
    expected_mentions: int
    expected_clusters: int
    found_mentions: int
    found_clusters: int
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        lines = [f"corpus stats: {status}",
                 f"  mentions: found {self.found_mentions}, "
                 f"expected {self.expected_mentions}",
                 f"  clusters: found {self.found_clusters}, "
                 f"expected {self.expected_clusters}"]
        return "\n".join(lines)


def validate_stats(corpus: Corpus, expected: dict) -> StatsReport:
    """Compare gold mention and cluster counts against expected values."""
    n_mentions = len(corpus.mentions)
    cluster_ids = {m.gold_cluster_id for m in corpus.mentions.values()
                   if m.gold_cluster_id is not None}
    n_clusters = len(cluster_ids)
    report = StatsReport(expected["mentions"], expected["clusters"],
                         n_mentions, n_clusters)
    if n_mentions != expected["mentions"]:
        report.mismatches.append(
            ("mentions", expected["mentions"], n_mentions))
    if n_clusters != expected["clusters"]:
        report.mismatches.append(
            ("clusters", expected["clusters"], n_clusters))
    return report
