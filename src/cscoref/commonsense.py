"""Temporal commonsense inference providers.

Every mention can be extended with short sentences describing what plausibly
happens before and after the event, in the context of its sentence. Three
interchangeable backends produce these inference sets: a fixture file, a
deterministic rule tied to the synthetic corpus generator, and an external
text-generation service. A persistent JSONL cache guarantees at most one
backend invocation per (doc, mention, provider) key. The cache is an
append-only log: each record is one line appended under an exclusive
``flock``, so several processes can fill one cache file; ``read_records``
is the one reader of that format, for caches and fixture files alike.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import requests

GENERATION_CREDENTIAL_ENV = "CSCOREF_GENERATION_API_KEY"


class InferenceError(RuntimeError):
    pass


@dataclass
class GenerationConfig:
    top_p: float = 0.9
    max_tokens: int = 150
    stop: str = "END"
    k: int = 5
    mode: str = "finetuned"  # "finetuned" or "fewshot"

    def __post_init__(self):
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in ("finetuned", "fewshot"):
            raise ValueError(f"unknown prompt mode {self.mode!r}")


@dataclass(frozen=True)
class InferenceSet:
    mention_id: str
    before: tuple
    after: tuple
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "before",
                           tuple(s.strip() for s in self.before))
        object.__setattr__(self, "after",
                           tuple(s.strip() for s in self.after))
        if any(not s for s in self.before + self.after):
            raise ValueError("inference sentences must be non-empty")
        if not self.provenance:
            raise ValueError("provenance must be set")

    def truncated(self, k: int) -> "InferenceSet":
        if len(self.before) <= k and len(self.after) <= k:
            return self
        return InferenceSet(self.mention_id, self.before[:k], self.after[:k],
                            self.provenance)


@dataclass(frozen=True)
class PromptExemplar:
    context: str
    event: str
    before: str
    after: str


FEWSHOT_INSTRUCTION = (
    "Given a context sentence and a target event from it, write short "
    "sentences describing what typically happens immediately before the "
    "event and immediately after it. Finish each answer with END."
)

N_FEWSHOT_EXEMPLARS = 8


def format_prompt(context: str, event: str, mode: str = "finetuned",
                  exemplars: Optional[list] = None) -> str:
    """Render the generation prompt for one (context, event) query.

    Finetuned mode is the bare query block; fewshot mode prepends an
    instruction and eight completed exemplar blocks. Either way the prompt
    ends at ``Before:`` so the model continues with the before inferences.
    """
    if event not in context:
        raise InferenceError(
            f"event {event!r} is not a substring of the context")
    query = f"Context: {context}\nEvent: {event}\nBefore:"
    if mode == "finetuned":
        return query
    if mode != "fewshot":
        raise ValueError(f"unknown prompt mode {mode!r}")
    exemplars = exemplars or []
    if len(exemplars) != N_FEWSHOT_EXEMPLARS:
        raise InferenceError(
            f"fewshot mode requires exactly {N_FEWSHOT_EXEMPLARS} "
            f"exemplars, got {len(exemplars)}")
    blocks = [FEWSHOT_INSTRUCTION]
    for ex in exemplars:
        blocks.append(f"Context: {ex.context}\nEvent: {ex.event}\n"
                      f"Before: {ex.before}\nAfter: {ex.after} END")
    blocks.append(query)
    return "\n\n".join(blocks)


_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]")


def split_sentences(text: str) -> list[str]:
    """Split on terminal punctuation; a trailing unpunctuated piece counts."""
    pieces = [m.group(0).strip() for m in _SENTENCE_RE.finditer(text)]
    tail = _SENTENCE_RE.sub("", text).strip()
    if tail:
        pieces.append(tail)
    return [p for p in pieces if len(p) >= 3]


def parse_completion(text: str, k: int,
                     stop: str = "END") -> tuple[list, list]:
    """Extract (before, after) sentence lists from a raw completion.

    The completion is cut at the first line starting with ``After:``; each
    side is sentence-split, fragments under 3 characters are dropped, and
    each list is truncated to ``k``. A missing after-section yields an empty
    after list with a warning.
    """
    if stop:
        idx = text.find(stop)
        if idx != -1:
            text = text[:idx]
    lines = text.split("\n")
    after_at = next((i for i, line in enumerate(lines)
                     if line.startswith("After:")), None)
    if after_at is None:
        if text.strip():
            warnings.warn("completion has no 'After:' section",
                          stacklevel=2)
        else:
            warnings.warn("empty completion", stacklevel=2)
        before_text = text
        after_text = ""
    else:
        before_text = "\n".join(lines[:after_at])
        after_text = "\n".join(
            [lines[after_at][len("After:"):]] + lines[after_at + 1:])
    before = split_sentences(before_text)[:k]
    after = split_sentences(after_text)[:k]
    return before, after


_RECORD_FIELDS = frozenset(("doc_id", "mention_id", "before", "after",
                           "provenance"))


def _parse_line(raw: bytes):
    """The JSON value of one line, or None when it does not decode."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _is_record(rec) -> bool:
    if not (isinstance(rec, dict) and rec.keys() >= _RECORD_FIELDS):
        return False
    before, after = rec["before"], rec["after"]
    return (isinstance(rec["doc_id"], str)
            and isinstance(rec["mention_id"], str)
            and isinstance(rec["provenance"], str)
            and isinstance(before, list) and isinstance(after, list)
            and all(isinstance(s, str) for s in before + after))


def _key(rec: dict) -> tuple:
    return rec["doc_id"], rec["mention_id"], rec["provenance"]


def _scan_records(data: bytes, path, entries: dict, lineno: int = 0) -> int:
    """Add the records in ``data`` to ``entries`` and return the length of
    its complete lines.

    A key already in ``entries`` keeps its record. An unterminated last line
    that does not parse is a torn tail left by an interrupted writer: it is
    not read and not counted in the returned length. Any other line that
    does not parse, or is not a record, raises ``InferenceError`` naming
    the path and line number; ``lineno`` is the number of lines in the file
    before ``data``.
    """
    tail = data[data.rfind(b"\n") + 1:]
    if tail.strip() and _parse_line(tail) is None:
        data = data[:len(data) - len(tail)]
    for i, raw in enumerate(data.split(b"\n"), start=lineno + 1):
        if not raw.strip():
            continue
        rec = _parse_line(raw)
        if not _is_record(rec):
            problem = ("is not valid JSON" if rec is None else
                       "is not a record: doc_id, mention_id and provenance "
                       "must be strings, before and after lists of strings")
            raise InferenceError(f"{path}:{i}: line {problem}")
        entries.setdefault(_key(rec), rec)
    return len(data)


def _load(path, entries: dict) -> tuple[int, int]:
    """Read ``path`` into ``entries``; return the length of its complete
    lines in bytes and in lines. The file is read under a shared ``flock``,
    so a cooperating writer's append is seen whole or not at all."""
    with open(path, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        data = fh.read()
    end = _scan_records(data, path, entries)
    lines = data.count(b"\n", 0, end)
    if end < len(data):
        warnings.warn(f"{path}:{lines + 1}: skipping a torn last line",
                      stacklevel=3)
    return end, lines


def read_records(path) -> dict[tuple, dict]:
    """Read a cache or fixture file into {(doc_id, mention_id, provenance):
    record}.

    A torn tail (an unterminated last line that does not parse) is skipped
    with a warning. Any other line that does not parse, or is not an object
    whose doc_id, mention_id and provenance are strings and whose before and
    after are lists of strings, raises ``InferenceError`` naming the path
    and line number. When a key appears twice (two processes generated the
    same mention concurrently), the first record wins.
    """
    entries: dict[tuple, dict] = {}
    _load(path, entries)
    return entries


def encode_record(doc_id: str,
                  inferences: InferenceSet) -> tuple[dict, bytes]:
    """The record of ``inferences`` and its line in a cache or fixture
    file: compact UTF-8 JSON ending in a newline."""
    rec = {"doc_id": doc_id, "mention_id": inferences.mention_id,
           "before": list(inferences.before),
           "after": list(inferences.after),
           "provenance": inferences.provenance}
    return rec, json.dumps(rec, ensure_ascii=False,
                           separators=(",", ":")).encode("utf-8") + b"\n"


def _to_inference_set(rec: dict) -> InferenceSet:
    return InferenceSet(mention_id=rec["mention_id"],
                        before=tuple(rec["before"]),
                        after=tuple(rec["after"]),
                        provenance=rec["provenance"])


class InferenceCache:
    """Persistent JSONL cache of inference sets, kept as an append-only log.

    Records carry {doc_id, mention_id, before, after, provenance}; the key is
    (doc_id, mention_id, provenance), and a key once written is immutable.
    Each ``put`` appends its one line with a single ``O_APPEND`` write under
    an exclusive ``flock``, so processes sharing a path keep each other's
    records. A writer that finds a torn tail (an unterminated last line
    that does not parse) truncates it before appending, so it never turns
    into a corrupt middle line. Loading reads the format as
    ``read_records`` does: the first record of a duplicated key wins.

    Under the same ``flock``, ``put`` first reads what other processes
    appended since this cache last read the file. If one of them wrote the
    key, ``put`` appends nothing and returns that process's set, so every
    process uses the set that later loads serve.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[tuple, dict] = {}
        # how far this cache has read the file: bytes, and lines in them
        self._end = self._lines = 0
        if os.path.exists(path):
            self._end, self._lines = _load(path, self._entries)

    def get(self, doc_id: str, mention_id: str,
            fingerprint: str) -> Optional[InferenceSet]:
        with self._lock:
            rec = self._entries.get((doc_id, mention_id, fingerprint))
        return None if rec is None else _to_inference_set(rec)

    def put(self, doc_id: str, inferences: InferenceSet) -> InferenceSet:
        """Store ``inferences`` and return the set the cache keeps for its
        key: ``inferences``, or the set another process sharing the file
        wrote first."""
        rec, line = encode_record(doc_id, inferences)
        key = _key(rec)
        with self._lock:
            existing = self._entries.get(key)
            if existing is None:
                stored = self._append(rec, line)
                self._entries[key] = stored
                return inferences if stored is rec else \
                    _to_inference_set(stored)
            if existing != rec:
                raise ValueError(
                    f"cache entry for {key} is immutable; refusing to "
                    f"overwrite it with a different inference set")
        return inferences  # idempotent re-put

    def _append(self, rec: dict, line: bytes) -> dict:
        """Append ``line``, the encoding of ``rec``, and return ``rec``,
        unless another process appended its key since this cache last read
        the file: then adopt and return that record instead."""
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            new = os.pread(fd, max(size - self._end, 0), self._end)
            done = _scan_records(new, self.path, self._entries, self._lines)
            self._lines += new.count(b"\n", 0, done)
            self._end += done
            found = self._entries.get(_key(rec))
            if found is not None:
                return found
            if self._end < size:
                os.ftruncate(fd, self._end)  # drop the torn tail
            elif size and os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + line  # terminate a complete last line
            if os.write(fd, line) != len(line):
                raise InferenceError(f"{self.path}: short write")
            self._end += len(line)
            self._lines += line.count(b"\n")
        finally:
            os.close(fd)  # releases the flock
        return rec

    def __len__(self):
        return len(self._entries)


class FixtureProvider:
    """Serves inference sets from a fixture file (same format as the cache)."""

    def __init__(self, path, strict: bool = True):
        self.strict = strict
        self._by_mention = {rec["mention_id"]: _to_inference_set(rec)
                            for rec in read_records(path).values()}

    def fingerprint(self, config: GenerationConfig) -> str:
        return "fixture"

    def generate(self, mention, context_sentence: str,
                 config: GenerationConfig) -> InferenceSet:
        found = self._by_mention.get(mention.mention_id)
        if found is None:
            if self.strict:
                raise InferenceError(
                    f"no fixture inference set for mention "
                    f"{mention.mention_id!r}")
            warnings.warn(
                f"no fixture for mention {mention.mention_id!r}; returning "
                f"an empty set", stacklevel=2)
            return InferenceSet(mention.mention_id, (), (), "fixture")
        return InferenceSet(mention.mention_id, found.before, found.after,
                            "fixture").truncated(config.k)


class GenerationServiceProvider:
    """Client for an external completion service.

    Request body: {"prompt", "top_p", "max_tokens", "stop"}; response:
    {"completion": str}. The credential is read from the environment at call
    time, sent as a bearer token, and never persisted or logged. Failures are
    retried with exponential backoff: ``MAX_ATTEMPTS`` tries, the first
    wait ``BACKOFF_START`` seconds, doubling after each.
    """

    MAX_ATTEMPTS = 3
    BACKOFF_START = 1.0

    def __init__(self, endpoint: str, model_id: str = "default",
                 exemplars: Optional[list] = None, session=None,
                 sleep=time.sleep, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model_id = model_id
        self.exemplars = exemplars
        self._session = session or requests.Session()
        self._sleep = sleep
        self.timeout = timeout

    def fingerprint(self, config: GenerationConfig) -> str:
        prefix = "fewshot" if config.mode == "fewshot" else "service"
        return f"{prefix}:{self.model_id}"

    def _complete(self, prompt: str, config: GenerationConfig) -> str:
        payload = {"prompt": prompt, "top_p": config.top_p,
                   "max_tokens": config.max_tokens, "stop": config.stop}
        headers = {}
        credential = os.environ.get(GENERATION_CREDENTIAL_ENV)
        if credential:
            headers["Authorization"] = f"Bearer {credential}"
        delay = self.BACKOFF_START
        last_error = None
        for attempt in range(self.MAX_ATTEMPTS):
            if attempt > 0:
                self._sleep(delay)
                delay *= 2
            try:
                resp = self._session.post(self.endpoint, json=payload,
                                          headers=headers,
                                          timeout=self.timeout)
                if resp.status_code != 200:
                    last_error = InferenceError(
                        f"generation service returned HTTP "
                        f"{resp.status_code}")
                    continue
                body = resp.json()
                return body["completion"]
            except (requests.RequestException, ValueError,
                    KeyError) as exc:
                last_error = InferenceError(
                    f"generation service failure: {exc}")
        raise last_error

    def generate(self, mention, context_sentence: str,
                 config: GenerationConfig) -> InferenceSet:
        prompt = format_prompt(context_sentence, mention.text,
                               mode=config.mode, exemplars=self.exemplars)
        completion = self._complete(prompt, config)
        before, after = parse_completion(completion, config.k,
                                         stop=config.stop)
        return InferenceSet(mention.mention_id, tuple(before), tuple(after),
                            self.fingerprint(config))


def get_inferences(provider, mention, context_sentence: str,
                   config: GenerationConfig,
                   cache: Optional[InferenceCache] = None) -> InferenceSet:
    """Cache-through fetch of one mention's inference set.

    The result holds at most ``config.k`` sentences per side, also when the
    cache holds a set generated at a larger k. On a miss it is the set the
    cache keeps, which is another process's when that process stored the
    key first.
    """
    fingerprint = provider.fingerprint(config)
    if cache is not None:
        hit = cache.get(mention.doc_id, mention.mention_id, fingerprint)
        if hit is not None:
            return hit.truncated(config.k)
    result = provider.generate(mention, context_sentence, config)
    if cache is not None:
        result = cache.put(mention.doc_id, result)
    return result.truncated(config.k)


BULK_CONCURRENCY = 4


def get_inferences_bulk(provider, corpus, config: GenerationConfig,
                        cache: Optional[InferenceCache] = None
                        ) -> dict[str, InferenceSet]:
    """Every mention's inference set. Threads generate the cache misses; this
    thread stores them in corpus order, so the cache bytes are reproducible."""
    from concurrent.futures import ThreadPoolExecutor

    mentions = corpus.mentions_in_order()
    fingerprint = provider.fingerprint(config)
    results: dict[str, InferenceSet] = {}
    pending = []
    for m in mentions:
        hit = cache.get(m.doc_id, m.mention_id,
                        fingerprint) if cache else None
        if hit is not None:
            results[m.mention_id] = hit.truncated(config.k)
        else:
            pending.append(m)

    def generate(m):
        return provider.generate(m, " ".join(corpus.sentence_of(m)), config)

    with ThreadPoolExecutor(BULK_CONCURRENCY) as pool:
        for m, inf in zip(pending, pool.map(generate, pending)):
            if cache is not None:
                inf = cache.put(m.doc_id, inf)
            results[m.mention_id] = inf.truncated(config.k)
    return results
