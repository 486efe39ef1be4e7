"""Model access layer: one Gateway in front of interchangeable backends.

The gateway owns the disk cache, keyed by the backend's identity and the
request fields, and through it coalesces identical concurrent requests.
The cache is one append-only log per cache directory, `cache.log`, one
entry per line (`<64-hex key>\t<JSON value>\n`), indexed in memory by a
keydir of fixed-size entries, after Bitcask (Sheehy & Smith, 2010): each
line's key prefix and its offset and length, 16 bytes a line. A process
keeps one index per log file, which its gateways share.
Transport concerns belong to the transport: HttpBackend caps its in-flight
requests and retries transient failures with backoff, for every call it
makes.

Two backends ship here.  HttpBackend talks to an OpenAI-style server (chat
completions for generation, echo+logprobs completions for teacher-forced
scoring, embeddings, and an entailment endpoint).  MockBackend replays a
JSON script of regex-matched canned responses, which is what makes the
whole pipeline runnable offline and deterministically.
"""
from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import re
import threading
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, TypeVar

import numpy as np

from .core import JSON_LINE, PipelineError, RecordError, json_value


class GatewayError(PipelineError):
    """Backend failure or malformed backend response."""


class TransientBackendError(GatewayError):
    """Transport-level failure worth retrying."""


class ScriptMatchError(GatewayError):
    """No mock script entry matched the request."""


@dataclass(frozen=True)
class PromptRequest:
    """A chat request: ordered (role, text) messages plus decoding knobs."""

    messages: tuple[tuple[str, str], ...]
    model_name: str
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self):
        if not self.messages:
            raise ValueError("request needs at least one message")
        for role, text in self.messages:
            if role not in ("system", "user", "assistant"):
                raise ValueError(f"unknown message role {role!r}")
            if not text:
                raise ValueError("empty message text")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        object.__setattr__(self, "messages", tuple(tuple(m) for m in self.messages))


@dataclass(frozen=True)
class ScoredContinuation:
    """Teacher-forced token logprobs for a continuation of some context."""

    logprobs: tuple[float, ...]

    def __post_init__(self):
        if not self.logprobs:
            raise ValueError("continuation must contain at least one token")
        for lp in self.logprobs:
            if lp > 0.0 or math.isnan(lp):
                raise ValueError(f"logprob {lp} out of range (must be <= 0)")
        object.__setattr__(self, "logprobs", tuple(float(lp) for lp in self.logprobs))


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"
    model: str = "mock-model"
    endpoint: str = ""
    api_key_env: str = ""
    script_path: str = ""
    cache_dir: str = ""
    timeout: float = 60.0
    max_retries: int = 2
    retry_backoff: float = 0.25
    max_in_flight: int = 4

    def __post_init__(self):
        # Each message starts with the field it names (the config loader
        # prefixes `backend.`).
        if self.kind not in ("mock", "http"):
            raise ValueError(f"kind must be mock or http, got {self.kind!r}")
        if self.kind == "mock" and not self.script_path:
            raise ValueError("script_path must be set for the mock backend")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("endpoint must be set for the http backend")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


class Backend(Protocol):
    # Names what answers requests; part of every cache key, so a cache shared
    # between backends (or mock scripts) never serves one's answer as another's.
    identity: str

    def complete(self, request: PromptRequest, stage: str) -> str: ...

    def score(
        self, context: str, continuation: str, model: str, stage: str
    ) -> ScoredContinuation: ...


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------


_SCRIPT_KINDS = ("chat", "score", "entail")


@dataclass(frozen=True)
class _ScriptEntry:
    """One entry of a mock script, read from its JSON object by the one JSON
    type rule (`core.json_value`)."""

    kind: str
    match: str = ""
    stage: str = ""
    response: str | None = None  # a chat entry's
    confidence: float | None = None  # a score entry's, or else its logprobs
    logprobs: tuple[float, ...] | None = None
    score: float | None = None  # an entail entry's

    def __post_init__(self):
        for broken, message in (
            (self.kind not in _SCRIPT_KINDS, f"unknown kind {self.kind!r}"),
            (self.kind == "chat" and self.response is None, "chat entry needs a response"),
            (self.kind == "score" and (self.logprobs is None) == (self.confidence is None),
             "score entry needs confidence or logprobs, not both"),
            (self.confidence is not None and not 0.0 < self.confidence <= 1.0,
             "confidence must be in (0, 1]"),
            (self.kind == "entail" and self.score is None, "entail entry needs a score"),
            (self.score is not None and not 0.0 <= self.score <= 1.0,
             "entail score must be in [0, 1]"),
        ):
            if broken:
                raise ValueError(message)
        # A chat response is cached and written as UTF-8, as HttpBackend's are.
        try:
            (self.response or "").encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"response does not encode as UTF-8: {exc}") from None
        # Not a field, so not a JSON key: the `match` regex, compiled once.
        object.__setattr__(self, "pattern", re.compile(self.match, re.DOTALL))


def _load_script(data: bytes, path: Path) -> list[_ScriptEntry]:
    raw = json.loads(data.decode("utf-8"))
    if not isinstance(raw, list):
        raise GatewayError(f"{path}: script must be a JSON list")
    entries = []
    for i, e in enumerate(raw):
        try:
            entries.append(json_value(_ScriptEntry, e))
        except (RecordError, ValueError) as exc:
            raise GatewayError(f"{path}[{i}]: {exc}") from None
    return entries


def _substitute(template: str, m: re.Match, text: str) -> str:
    out = template
    if "{digest}" in out:
        out = out.replace(
            "{digest}", hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
        )
    for i, group in enumerate(m.groups(), start=1):
        out = out.replace("{m%d}" % i, group or "")
    return out


class MockBackend:
    """Replays canned responses from a script.

    Entries match on (kind, stage, regex over the request text).  An entry
    with an empty stage applies to every stage.  Among the entries for the
    call's kind and stage, the first match in file order wins.  Chat
    responses may use {m1}..{mN} for regex groups and {digest} for a short
    hash of the matched text.  Score entries give either a single confidence c (every token gets
    logprob ln(c)) or an explicit per-token logprob list.
    """

    def __init__(self, script_path: str | Path):
        data = Path(script_path).read_bytes()
        self.identity = "mock:" + hashlib.sha256(data).hexdigest()
        entries = _load_script(data, Path(script_path))
        # The entries a call of (kind, stage) may match, in file order, for
        # every stage the script names; (kind, "") holds the stage-less
        # entries, which are all that any other stage may match. Built here
        # and only read afterwards, so concurrent callers share them freely.
        self._routes = {
            (kind, stage): tuple(e for e in entries if e.kind == kind and e.stage in ("", stage))
            for kind, stage in {(e.kind, e.stage) for e in entries}
            | {(k, "") for k in _SCRIPT_KINDS}
        }

    def _find(self, kind: str, stage: str, text: str) -> tuple[_ScriptEntry, re.Match]:
        route = self._routes.get((kind, stage))
        if route is None:
            route = self._routes[kind, ""]
        for entry in route:
            m = entry.pattern.search(text)
            if m:
                return entry, m
        raise ScriptMatchError(
            f"no script entry for kind={kind} stage={stage!r} text={text[:200]!r}"
        )

    def complete(self, request: PromptRequest, stage: str) -> str:
        text = "\n".join(f"{role}: {body}" for role, body in request.messages)
        entry, m = self._find("chat", stage, text)
        return _substitute(entry.response, m, text)

    def score(
        self, context: str, continuation: str, model: str, stage: str
    ) -> ScoredContinuation:
        text = context + "\n<CONT>\n" + continuation
        entry, _ = self._find("score", stage, text)
        n_tokens = len(continuation.split()) or 1
        if entry.logprobs is not None:
            if len(entry.logprobs) != n_tokens:
                raise GatewayError(
                    f"script logprobs length {len(entry.logprobs)} != token count {n_tokens}"
                )
            return ScoredContinuation(entry.logprobs)
        return ScoredContinuation((math.log(entry.confidence),) * n_tokens)

    def entail(self, premise: str, hypothesis: str) -> float:
        text = premise + "|||" + hypothesis
        entry, _ = self._find("entail", "", text)
        return entry.score


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


class HttpBackend:
    """OpenAI-style HTTP server: /chat/completions, echo-mode /completions,
    /embeddings and /entailment.

    Every request goes through `_post`, which keeps at most `max_in_flight`
    requests on the wire and retries transient failures (connection errors,
    HTTP 429 and 5xx) up to `max_retries` times, sleeping `retry_backoff`
    doubled per attempt without holding an in-flight slot.
    """

    def __init__(self, config: BackendConfig):
        import requests

        self._config = config
        self.identity = "http:" + config.endpoint
        self._session = requests.Session()
        self._semaphore = threading.Semaphore(config.max_in_flight)
        key = os.environ.get(config.api_key_env, "") if config.api_key_env else ""
        if key:
            self._session.headers["Authorization"] = f"Bearer {key}"

    def _post(self, path: str, payload: dict) -> dict:
        url = self._config.endpoint.rstrip("/") + path
        attempt = 0
        while True:
            try:
                with self._semaphore:
                    return self._post_once(url, payload)
            except TransientBackendError:
                if attempt == self._config.max_retries:
                    raise
            time.sleep(self._config.retry_backoff * 2**attempt)
            attempt += 1

    def _post_once(self, url: str, payload: dict) -> dict:
        import requests

        try:
            resp = self._session.post(url, json=payload, timeout=self._config.timeout)
        except requests.RequestException as exc:
            raise TransientBackendError(f"POST {url}: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientBackendError(f"POST {url}: HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise GatewayError(f"POST {url}: HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise GatewayError(f"POST {url}: non-JSON response") from exc

    def complete(self, request: PromptRequest, stage: str) -> str:
        payload = {
            "model": request.model_name,
            "messages": [{"role": r, "content": t} for r, t in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        data = self._post("/chat/completions", payload)
        try:
            content = data["choices"][0]["message"]["content"]
            # Only text that encodes as UTF-8 can be cached and written: no
            # JSON value but a string has `encode`, and a lone surrogate fails.
            content.encode("utf-8")
        except (KeyError, IndexError, TypeError, AttributeError, UnicodeEncodeError) as exc:
            raise GatewayError(f"malformed chat response: {data!r}") from exc
        return content

    def score(
        self, context: str, continuation: str, model: str, stage: str
    ) -> ScoredContinuation:
        payload = {
            "model": model,
            "prompt": context + continuation,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
            "temperature": 0,
        }
        data = self._post("/completions", payload)
        try:
            lp = data["choices"][0]["logprobs"]
            token_logprobs = lp["token_logprobs"]
            offsets = lp["text_offset"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response: {data!r}") from exc
        cut = len(context)
        picked: list[float] = []
        for tlp, off in zip(token_logprobs, offsets):
            if off >= cut:
                if tlp is None:
                    raise GatewayError("continuation token has no logprob")
                picked.append(min(float(tlp), 0.0))
        if not picked:
            raise GatewayError("no tokens aligned to the continuation span")
        return ScoredContinuation(tuple(picked))

    def embed(self, texts: list[str]) -> np.ndarray:
        data = self._post("/embeddings", {"model": self._config.model, "input": texts})
        try:
            rows = [item["embedding"] for item in data["data"]]
        except (KeyError, TypeError) as exc:
            raise GatewayError(f"malformed embeddings response: {data!r}") from exc
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != len(texts):
            raise GatewayError("embeddings response shape mismatch")
        if not np.isfinite(arr).all():
            raise GatewayError("embeddings response holds a non-finite value")
        norms = np.linalg.norm(arr, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return arr / norms

    def entail(self, premise: str, hypothesis: str) -> float:
        data = self._post("/entailment", {"premise": premise, "hypothesis": hypothesis})
        try:
            value = float(data["score"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GatewayError(f"malformed entailment response: {data!r}") from exc
        if not 0.0 <= value <= 1.0:
            raise GatewayError(f"entailment score {value} out of [0, 1]")
        return value


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------


def _key(*fields: str) -> bytes:
    """Hex sha256 over the fields, each prefixed with its UTF-8 length, so
    that ("ab", " c") and ("a", "b c") hash apart."""
    parts = []
    for field in fields:
        data = field.encode()
        parts.append(len(data).to_bytes(8, "big"))
        parts.append(data)
    return hashlib.sha256(b"".join(parts)).hexdigest().encode("ascii")


CACHE_LOG = "cache.log"

T = TypeVar("T")

_decode = json.JSONDecoder().decode


def _response(value: dict) -> str:
    """A cached chat answer: its `response`, which must be a string."""
    if type(response := value["response"]) is not str:
        raise TypeError("response must be a string")
    return response


def _scored(value: dict) -> ScoredContinuation:
    """A cached scoring answer: its `logprobs`, a list of numbers (a bool is
    no number, and the list is checked whole in C, so a hit stays cheap),
    which ScoredContinuation checks further. Any other field, such as the
    `tokens` that older lines hold, is not read."""
    if type(logprobs := value["logprobs"]) is not list:
        raise TypeError("logprobs must be a list")
    if not set(map(type, logprobs)) <= {int, float}:
        raise TypeError("logprobs must be numbers")
    return ScoredContinuation(tuple(logprobs))


# The keydir keeps the integer of each key's first _PREFIX_DIGITS hex digits,
# and packs a line's offset above _LENGTH_BITS bits of its length (logs up to
# 1 TiB). A line too long for the field stores the field's largest value and
# is read on to its newline. `recent` holds _RECENT_MIN lines, or a 32nd of
# the keydir's if that is more, before it is folded into the keydir.
_PREFIX_DIGITS = 16
_LENGTH_BITS = 24
_RECENT_MIN = 1024


def _prefix(key: bytes) -> int | None:
    """The keydir prefix of a key, or None when its digits are not hex."""
    try:
        prefix = int(key[:_PREFIX_DIGITS], 16)
    except ValueError:
        return None
    return prefix if prefix >= 0 else None


def _entry(offset: int, length: int) -> int:
    return offset << _LENGTH_BITS | min(length, (1 << _LENGTH_BITS) - 1)


def _column(n: int) -> memoryview:
    """`n` zeroed 8-byte integers in an anonymous mapping of their own, so
    that dropping the column unmaps it. A column allocated with malloc
    would, when freed, raise malloc's mmap threshold to its size and keep
    the process's later allocations below that size on the heap."""
    return memoryview(mmap.mmap(-1, 8 * n or 8, flags=mmap.MAP_PRIVATE)).cast("Q")[:n]


class _LogIndex:
    """The index of one cache log, shared by this process's gateways on it.

    It covers every complete line before byte `indexed`. `keydir` is a pair
    of `_column`s of equal length: the prefix of each indexed line's key, in
    ascending order, and beside it the line's `_entry`; within a prefix,
    entries are in the order the index learnt of their lines. A log line
    costs those 16 bytes; a key appended several times has one entry per
    line, and its last is its latest. `recent` maps each key indexed since
    the last fold to its latest entry. A fold builds new columns, so a
    reader that takes no lock sees either pair whole. `stamp` is the log's
    (size, mtime_ns) when the last gateway using the index closed, else
    None. `lock` guards the index and orders this process's appends to the
    log.
    """

    def __init__(self):
        self.keydir: tuple[memoryview, memoryview] = (_column(0), _column(0))
        self.recent: dict[bytes, int] = {}
        self.limit = _RECENT_MIN
        self.indexed = 0
        self.stamp: tuple[int, int] | None = None
        self.lock = threading.Lock()

    def add(self, key: bytes, entry: int) -> None:
        """Index a line of `key` newer than every line indexed so far. The
        caller holds the lock."""
        self.recent[key] = entry
        if len(self.recent) > self.limit:
            self.fold(array("Q"), array("Q"))

    def fold(self, prefixes: array, entries: array) -> None:
        """Publish new keydir columns: the keydir's entries, then `recent`'s,
        then the lines given as `prefixes` and `entries`, in the order the
        index learnt of them, so a key's last entry is the one a dict would
        hold; then empty `recent`. The caller holds the lock."""
        prefixes[:0] = array("Q", (int(key[:_PREFIX_DIGITS], 16) for key in self.recent))
        entries[:0] = array("Q", self.recent.values())
        new_prefixes = np.frombuffer(prefixes, np.uint64)
        order = np.argsort(new_prefixes, kind="stable")
        old_prefixes = self.keydir[0]
        # Each new entry goes after the keydir's of its prefix.
        at = np.searchsorted(np.frombuffer(old_prefixes, np.uint64), new_prefixes[order], "right")
        at += np.arange(len(at), dtype=at.dtype)
        kept = np.ones(len(old_prefixes) + len(at), bool)
        kept[at] = False
        columns = (_column(len(kept)), _column(len(kept)))
        for column, old, new in zip(columns, self.keydir, (prefixes, entries)):
            view = np.frombuffer(column, np.uint64)
            view[kept] = np.frombuffer(old, np.uint64)
            view[at] = np.frombuffer(new, np.uint64)[order]
        self.keydir = columns
        self.recent.clear()
        self.limit = max(_RECENT_MIN, len(kept) // 32)


# A cache log's (st_dev, st_ino) -> its index in this process.
_LOG_INDEXES: dict[tuple[int, int], _LogIndex] = {}
_LOG_INDEXES_LOCK = threading.Lock()


class Gateway:
    """Caching, coalescing front door to a backend.

    With a cache, identical concurrent requests reach the backend once, and
    a miss returns the backend's own answer. Without one there is nothing
    to coalesce: a request builds no key and goes straight to the backend,
    and identical ones may be in flight together."""

    def __init__(self, backend: Backend, config: BackendConfig):
        self._backend = backend
        self._config = config
        # One lock per two-hex-digit cache key prefix: identical requests take
        # turns, and at 4 workers a request waits on an unrelated one under
        # 1.2 % of the time (3/256).
        self._locks = tuple(threading.Lock() for _ in range(256))
        self._guard = threading.Lock()
        self.cache_hits = 0
        self.backend_calls = 0
        self._log = self._reader = self._index = None
        if config.cache_dir:
            path = Path(config.cache_dir) / CACHE_LOG
            path.parent.mkdir(parents=True, exist_ok=True)
            # Unbuffered, so each append is one write(2) on an O_APPEND file.
            self._log = open(path, "ab", buffering=0)
            self._reader = open(path, "rb")
            st = os.fstat(self._reader.fileno())
            self._log_id = (st.st_dev, st.st_ino)
            # The last gateway's index still holds if the log is as that
            # gateway left it; otherwise index the log afresh.
            with _LOG_INDEXES_LOCK:
                index = _LOG_INDEXES.get(self._log_id)
                if index is None or index.stamp != (st.st_size, st.st_mtime_ns):
                    index = _LOG_INDEXES[self._log_id] = _LogIndex()
            self._index = index

    @classmethod
    def from_config(cls, config: BackendConfig) -> "Gateway":
        if config.kind == "mock":
            backend: Backend = MockBackend(config.script_path)
        else:
            backend = HttpBackend(config)
        return cls(backend, config)

    @property
    def model(self) -> str:
        return self._config.model

    def close(self) -> None:
        """Close the cache log; the gateway must not be used afterwards."""
        index, self._index = self._index, None
        if index is not None:
            with index.lock:
                st = os.fstat(self._reader.fileno())
                index.stamp = (st.st_size, st.st_mtime_ns)
        for f in (self._log, self._reader):
            if f is not None:
                f.close()

    # -- the request path ----------------------------------------------

    def _cached(self, key: bytes, call: Callable[[], T], read: Callable[[dict], T],
                write: Callable[[T], dict]) -> T:
        """`read` of the value cached under `key`; else `call()`'s answer,
        whose value `write(answer)` is appended to the cache log.

        Callers with one key take turns, so identical concurrent requests
        reach the backend once. A line that is torn, does not decode, holds
        another key or a value `read` refuses (a field missing or of the
        wrong JSON type) is a miss; the fresh value is appended and becomes
        the key's latest line."""
        with self._locks[int(key[:2], 16)]:
            got = self._lookup(key, read)
            if got is not None:
                with self._guard:
                    self.cache_hits += 1
                return got
            with self._guard:
                self.backend_calls += 1
            answer = call()
            self._append(key, write(answer))
            return answer

    def _lookup(self, key: bytes, read: Callable[[dict], T]) -> T | None:
        index = self._index
        line = self._latest(index, key)
        if line is None:
            # Only a miss looks for lines appended since the log was indexed.
            with index.lock:
                if os.fstat(self._reader.fileno()).st_size > index.indexed:
                    self._index_tail()
                line = self._latest(index, key)
            if line is None:
                return None
        if not line:
            # The log changed under the index: the next gateway rebuilds it.
            with _LOG_INDEXES_LOCK:
                if _LOG_INDEXES.get(self._log_id) is index:
                    del _LOG_INDEXES[self._log_id]
            return None
        try:
            return read(_decode(line[len(key) + 1 :].decode("utf-8")))
        except (ValueError, TypeError, KeyError):  # not JSON, not an object, or refused
            return None

    def _latest(self, index: _LogIndex, key: bytes) -> bytes | None:
        """The latest indexed line of `key`; None when no indexed line has
        it, and b"" when a line the index places there holds neither `key`
        nor another key of its prefix: the log changed under the index.

        Lines of `key`'s prefix are read latest first; one of another key
        is a prefix collision, and the one before it is read."""
        head = key + b"\t"
        entry = index.recent.get(key)
        if entry is not None:
            line = self._read(entry)
            return line if line.startswith(head) and line.endswith(b"\n") else b""
        prefixes, entries = index.keydir
        prefix = int(key[:_PREFIX_DIGITS], 16)
        i = bisect_right(prefixes, prefix)
        while i and prefixes[i - 1] == prefix:
            i -= 1
            line = self._read(entries[i])
            if line.startswith(head) and line.endswith(b"\n"):
                return line
            if not (line[64:65] == b"\t" and line.endswith(b"\n") and _prefix(line) == prefix):
                return b""
        return None

    def _read(self, entry: int) -> bytes:
        """The line at a keydir entry, read with one pread unless it is too
        long for the entry to hold its length."""
        fd, longest = self._reader.fileno(), (1 << _LENGTH_BITS) - 1
        offset, length = entry >> _LENGTH_BITS, entry & longest
        line = os.pread(fd, length, offset)
        while length == longest and not line.endswith(b"\n"):
            more = os.pread(fd, 1 << 20, offset + len(line))
            if not more:
                break
            end = more.find(b"\n")
            line += more if end < 0 else more[: end + 1]
        return line

    def _index_tail(self) -> None:
        """Index the complete lines past `indexed`, streaming them, so
        entries that other gateways or processes appended become visible.
        A last line without its newline is left for the next call. A tail
        that fits in `recent` goes there; a longer one streams into arrays
        that one fold sorts into the keydir. The caller holds the index's
        lock."""
        index = self._index
        offset = index.indexed
        self._reader.seek(offset)
        longest = (1 << _LENGTH_BITS) - 1
        prefixes, entries = array("Q"), array("Q")
        # The tail's keys, while they fit in `recent`.
        keys: list[bytes] | None = []
        room = index.limit - len(index.recent)
        # `_prefix` and `_entry`, inlined: this loop reads every line of the log.
        for line in self._reader:
            if not line.endswith(b"\n"):
                break
            length = len(line)
            # Only a line with a 64-digit key before its tab can be a hit.
            if line[64:65] == b"\t":
                try:
                    prefixes.append(int(line[:_PREFIX_DIGITS], 16))
                except (ValueError, OverflowError):  # not hex digits, or signed
                    pass
                else:
                    entries.append(offset << _LENGTH_BITS | min(length, longest))
                    if keys is not None and len(keys) < room:
                        keys.append(line[:64])
                    else:
                        keys = None
            offset += length
        index.indexed = offset
        if keys is None:
            index.fold(prefixes, entries)
        else:
            index.recent.update(zip(keys, entries))

    def _append(self, key: bytes, value: dict) -> None:
        """Append `key`'s line and index it. A line that lands after another
        writer's torn line joins it, so a line that did not start at
        `indexed` is written again until the byte before a copy is a newline."""
        line = key + b"\t" + JSON_LINE.encode(value).encode("utf-8") + b"\n"
        index = self._index
        with index.lock:
            self._log.write(line)
            start = self._log.tell() - len(line)
            if start == index.indexed:
                index.indexed += len(line)
            else:
                fd = self._reader.fileno()
                while start and os.pread(fd, 1, start - 1) != b"\n":
                    self._log.write(line)
                    start = self._log.tell() - len(line)
            index.add(key, _entry(start, len(line)))

    # -- public API ----------------------------------------------------

    def complete(self, request: PromptRequest, stage: str = "") -> str:
        if self._log is None:
            with self._guard:
                self.backend_calls += 1
            return self._backend.complete(request, stage)
        knobs = (request.model_name, float(request.temperature).hex(), str(request.max_tokens))
        messages = (field for message in request.messages for field in message)
        key = _key(self._backend.identity, "chat", *knobs, *messages)
        return self._cached(
            key, lambda: self._backend.complete(request, stage), _response,
            lambda response: {"response": response},
        )

    def score_continuation(
        self, context: str, continuation: str, stage: str = ""
    ) -> ScoredContinuation:
        if not continuation:
            raise ValueError("continuation must be nonempty")
        model = self._config.model
        if self._log is None:
            with self._guard:
                self.backend_calls += 1
            return self._backend.score(context, continuation, model, stage)
        key = _key(self._backend.identity, "score", model, context, continuation)
        return self._cached(
            key, lambda: self._backend.score(context, continuation, model, stage), _scored,
            lambda scored: {"logprobs": list(scored.logprobs)},
        )


# ---------------------------------------------------------------------------
# Embedding and entailment clients
# ---------------------------------------------------------------------------


class MockEmbeddingClient:
    """Deterministic unit vectors seeded from each text's hash."""

    def __init__(self, dim: int = 16):
        if dim < 2:
            raise ValueError("embedding dim must be >= 2")
        self.dim = dim

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.empty((len(texts), self.dim), dtype=np.float64)
        for i, text in enumerate(texts):
            seed = int.from_bytes(
                hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
            )
            vec = np.random.default_rng(seed).standard_normal(self.dim)
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:  # pragma: no cover - measure-zero with gaussian draws
                vec[0] = 1.0
                norm = 1.0
            out[i] = vec / norm
        return out


class EntailmentScorer(Protocol):
    def entail(self, premise: str, hypothesis: str) -> float: ...
