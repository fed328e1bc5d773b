"""Temporal commonsense inference providers.

Every mention can be extended with short sentences describing what plausibly
happens before and after the event, in the context of its sentence. Three
interchangeable backends produce these inference sets: a fixture file, a
deterministic rule tied to the synthetic corpus generator, and an external
text-generation service. ``get_inferences`` is the one way to fetch them,
for ``gen-inferences`` and for every dataset build alike: it serves a
corpus's cached sets, generates the missing ones in chunks, and stores each
chunk as one batch. The chunks run on a thread pool for a provider that
waits on a service, and on the calling thread for the fixture and synthetic
providers, which do not. A persistent JSONL cache guarantees at most one
backend invocation per (doc, mention, provider) key. The cache is an
append-only log: each record is one line, and each batch of records is one
append under an exclusive ``flock``, so several processes can fill one
cache file; ``read_records`` is the one reader of that format, for caches
and fixture files alike.
"""

from __future__ import annotations

import fcntl
import os
import re
import threading
import time
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring as _quote
from typing import Optional

import requests

from .corpus import all_strings, check_record, json_lines, naming_os_errors

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
        before = tuple(map(str.strip, self.before))
        after = tuple(map(str.strip, self.after))
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)
        if "" in before or "" in after:
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


_RECORD_FIELDS = {"doc_id": str, "mention_id": str, "before": list,
                  "after": list, "provenance": str}


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
    lines = data.split(b"\n")
    try:
        list(json_lines(lines[-1:], path, InferenceError))
    except InferenceError:  # a torn tail
        data, lines = data[:len(data) - len(lines[-1])], lines[:-1]
    for i, rec in json_lines(lines, path, InferenceError, lineno):
        check_record(rec, _RECORD_FIELDS, f"{path}:{i}", "inference record",
                     InferenceError)
        if not (all_strings(rec["before"]) and all_strings(rec["after"])):
            side = "after" if all_strings(rec["before"]) else "before"
            raise InferenceError(f"{path}:{i}: inference record field "
                                 f"{side!r} must be an array of strings")
        entries.setdefault(_key(rec), rec)
    return len(data)


def _load(path, entries: dict) -> tuple[int, int]:
    """Read ``path`` into ``entries``; return the length of its complete
    lines in bytes and in lines. The file is read under a shared ``flock``,
    so a cooperating writer's append is seen whole or not at all."""
    with naming_os_errors(path, InferenceError), open(path, "rb") as fh:
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
    of just these fields, doc_id, mention_id and provenance strings and
    before and after lists of strings, raises ``InferenceError`` naming the
    path and line number. When a key appears twice (two processes generated
    the same mention concurrently), the first record wins.
    """
    entries: dict[tuple, dict] = {}
    _load(path, entries)
    return entries


# a record's line with its five fields in this order
_LINE = ('{{"doc_id":{},"mention_id":{},"before":[{}],"after":[{}],'
         '"provenance":{}}}\n')


def encode_record(doc_id: str,
                  inferences: InferenceSet) -> tuple[dict, bytes]:
    """The record of ``inferences`` and its line in a cache or fixture
    file: the bytes of ``json.dumps(record, ensure_ascii=False,
    separators=(",", ":"))`` and a newline. The json module's own writer
    quotes each string inside a fixed frame, which saves building an
    encoder per record."""
    rec = {"doc_id": doc_id, "mention_id": inferences.mention_id,
           "before": list(inferences.before),
           "after": list(inferences.after),
           "provenance": inferences.provenance}
    line = _LINE.format(_quote(doc_id), _quote(inferences.mention_id),
                        ",".join(map(_quote, inferences.before)),
                        ",".join(map(_quote, inferences.after)),
                        _quote(inferences.provenance))
    return rec, line.encode("utf-8")


def _to_inference_set(rec: dict) -> InferenceSet:
    return InferenceSet(rec["mention_id"], rec["before"], rec["after"],
                        rec["provenance"])


class InferenceCache:
    """Persistent JSONL cache of inference sets, kept as an append-only log.

    Records carry {doc_id, mention_id, before, after, provenance}; the key is
    (doc_id, mention_id, provenance), and a key once written is immutable.
    ``put_many`` stores a batch of sets with one ``O_APPEND`` write under an
    exclusive ``flock``, and ``put`` is a batch of one, so processes sharing
    a path keep each other's records. A writer that finds a torn tail (an
    unterminated last line that does not parse) truncates it before
    appending, so it never turns into a corrupt middle line. Loading reads
    the format as ``read_records`` does: the first record of a duplicated
    key wins.

    Under the same ``flock``, a writer first reads what other processes
    appended since this cache last read the file. A key that another
    process recorded, then or before, is not written again: the cache
    returns that process's set, so every process uses the set that later
    loads serve. Only a key this cache wrote itself is checked: storing a
    different set for it raises ``ValueError``.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[tuple, dict] = {}
        self._written: set[tuple] = set()  # keys this cache appended
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
        return self.put_many([(doc_id, inferences)])[0]

    def put_many(self, items) -> list[InferenceSet]:
        """Store each ``(doc_id, inferences)`` of ``items`` as ``put`` would,
        in order, and return the set the cache keeps for each.

        The new records go to the file in one ``O_APPEND`` write under one
        exclusive ``flock``. Before it writes, it reads what other processes
        appended since this cache last read the file and adopts their
        records; a key held already is not written again. A set that
        differs from the one this cache wrote for its key, or from an
        earlier item's, raises ``ValueError`` before any byte is written.
        """
        encoded = [encode_record(doc_id, inferences)
                   for doc_id, inferences in items]
        with self._lock:
            fresh: dict[tuple, tuple[dict, bytes]] = {}
            for rec, line in encoded:
                key = _key(rec)
                held = self._entries.get(key)
                if held is None:
                    held = fresh.setdefault(key, (rec, line))[0]
                elif key not in self._written:
                    continue  # another writer's set, adopted
                if held != rec:
                    raise ValueError(
                        f"cache entry for {key} is immutable; refusing to "
                        f"overwrite it with a different inference set")
            if fresh:
                with naming_os_errors(self.path, InferenceError):
                    fd = os.open(self.path,
                                 os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX)
                        size = os.fstat(fd).st_size
                        new = os.pread(fd, max(size - self._end, 0),
                                       self._end)
                        done = _scan_records(new, self.path, self._entries,
                                             self._lines)
                        self._lines += new.count(b"\n", 0, done)
                        self._end += done
                        mine = [key for key in fresh
                                if key not in self._entries]
                        lines = [fresh[key][1] for key in mine]
                        if lines and self._end < size:
                            os.ftruncate(fd, self._end)  # drop the torn tail
                        elif lines and size and \
                                os.pread(fd, 1, size - 1) != b"\n":
                            lines.insert(0, b"\n")  # end a complete last line
                        blob = b"".join(lines)
                        if os.write(fd, blob) != len(blob):
                            raise InferenceError(f"{self.path}: short write")
                        self._end += len(blob)
                        self._lines += blob.count(b"\n")
                        for key in mine:
                            self._entries[key] = fresh[key][0]
                        self._written.update(mine)
                    finally:
                        os.close(fd)  # releases the flock
            stored = [self._entries[_key(rec)] for rec, _ in encoded]
        return [inferences if kept is rec else _to_inference_set(kept)
                for (_, inferences), (rec, _), kept
                in zip(items, encoded, stored)]

    def __len__(self):
        return len(self._entries)


class FixtureProvider:
    """Serves inference sets from a fixture file (same format as the cache).

    Each record becomes one set at load, labelled ``"fixture"`` whatever
    provenance the file gives it; ``generate`` serves that set cut to k.
    """

    waits_on_service = False  # fills generate on the calling thread

    def __init__(self, path, strict: bool = True):
        self.path = path
        self.strict = strict
        self._by_mention = {
            rec["mention_id"]: InferenceSet(rec["mention_id"], rec["before"],
                                            rec["after"], "fixture")
            for rec in read_records(path).values()}

    def fingerprint(self, config: GenerationConfig) -> str:
        return "fixture"

    def generate(self, mention, context_sentence: str,
                 config: GenerationConfig) -> InferenceSet:
        found = self._by_mention.get(mention.mention_id)
        if found is None:
            if self.strict:
                raise InferenceError(
                    f"{self.path}: no fixture inference set for mention "
                    f"{mention.mention_id!r}")
            warnings.warn(
                f"no fixture for mention {mention.mention_id!r}; returning "
                f"an empty set", stacklevel=2)
            return InferenceSet(mention.mention_id, (), (), "fixture")
        return found.truncated(config.k)


class GenerationServiceProvider:
    """Client for an external completion service.

    Request body: {"prompt", "top_p", "max_tokens", "stop"}; response:
    {"completion": str}. The credential is read from the environment at call
    time, sent as a bearer token, and never persisted or logged. Failures,
    a reply other than that object among them, are retried with
    exponential backoff: ``MAX_ATTEMPTS`` tries, the first wait
    ``BACKOFF_START`` seconds, doubling after each. The last failure is
    raised as an ``InferenceError`` naming the endpoint.
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
                        f"{self.endpoint}: generation service returned HTTP "
                        f"{resp.status_code}")
                    continue
                return check_record(resp.json(), {"completion": str},
                                    self.endpoint, "generation reply",
                                    InferenceError)["completion"]
            except (requests.RequestException, ValueError) as exc:
                last_error = InferenceError(
                    f"{self.endpoint}: generation service failure: {exc}")
            except InferenceError as exc:
                last_error = exc
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


BULK_CONCURRENCY = 4
# Most mentions one pool task generates and one ``put_many`` stores; a
# dataset build embeds their inference sentences with one request.
BULK_CHUNK = 32


def get_inferences(provider, corpus, config: GenerationConfig,
                   cache: Optional[InferenceCache] = None
                   ) -> dict[str, InferenceSet]:
    """Every mention's inference set, by mention id: the one fetch path of
    ``gen-inferences`` and of every dataset build.

    A set holds at most ``config.k`` sentences per side, also when the cache
    holds one generated at a larger k. A generated set is the one the cache
    keeps, which is another process's when that process stored the key
    first. The cache misses are cut into contiguous chunks of corpus order: a
    multiple of ``BULK_CONCURRENCY`` chunks, as few as keep each at most
    ``BULK_CHUNK`` mentions, with sizes that differ by at most one. So the
    ``BULK_CONCURRENCY`` threads stay busy until the last round ends. Each
    thread generates a chunk in corpus order; this thread stores each chunk
    with one ``put_many`` as the chunks arrive in corpus order. So the cache
    bytes are reproducible. A failed generation is raised once every
    mention before it is in the cache, and chunks after the failing one
    stop at their next mention; so do all chunks when a store fails.

    A provider whose ``waits_on_service`` is false has no wait for threads
    to overlap: its chunks are generated on this thread, one after another,
    and stored the same way, so the bytes are the same.
    """
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
    n = len(pending)
    count = BULK_CONCURRENCY * -(-n // (BULK_CONCURRENCY * BULK_CHUNK))
    chunks = [pending[i * n // count:(i + 1) * n // count]
              for i in range(count)]
    chunks = [chunk for chunk in chunks if chunk]
    failed = [len(chunks)]  # index of the first chunk known to have failed
    failed_lock = threading.Lock()

    def generate(index):
        """The chunk's generated prefix, and the error that ended it."""
        items = []
        for m in chunks[index]:
            if index > failed[0]:
                break  # an earlier chunk failed: these would be discarded
            try:
                items.append((m.doc_id, provider.generate(
                    m, " ".join(corpus.sentence_of(m)), config)))
            except Exception as exc:
                with failed_lock:
                    failed[0] = min(failed[0], index)
                return items, exc
        return items, None

    pool = (ThreadPoolExecutor(BULK_CONCURRENCY)
            if getattr(provider, "waits_on_service", True) else None)
    try:
        generated = (map if pool is None else pool.map)(
            generate, range(len(chunks)))
        for chunk, (items, error) in zip(chunks, generated):
            stored = (cache.put_many(items) if cache is not None
                      else [inf for _, inf in items])
            for m, inf in zip(chunk, stored):
                results[m.mention_id] = inf.truncated(config.k)
            if error is not None:
                raise error
    except BaseException:
        failed[0] = -1  # nothing more is stored: stop every chunk
        raise
    finally:
        if pool is not None:
            pool.shutdown()
    return results
