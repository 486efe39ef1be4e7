"""Gateway caching and coalescing, the HTTP transport, and the scripted mock backend."""
import hashlib
import json
import math
import os
import re
import sys
import threading
import time
from array import array

import numpy as np
import pytest
import requests

from conftest import FakeResponse, make_gateway
from scirforge import gateway
from scirforge.gateway import (
    CACHE_LOG,
    BackendConfig,
    Gateway,
    GatewayError,
    HttpBackend,
    MockBackend,
    MockEmbeddingClient,
    PromptRequest,
    ScoredContinuation,
    ScriptMatchError,
    TransientBackendError,
)


def req(text, temperature=0.0):
    return PromptRequest((("user", text),), "mock-model", temperature=temperature)


@pytest.fixture
def closing():
    """Passes a gateway through, and closes it when the test ends."""
    opened = []

    def keep(gw):
        opened.append(gw)
        return gw

    yield keep
    for gw in opened:
        gw.close()


def test_prompt_request_validation():
    with pytest.raises(ValueError):
        PromptRequest((), "m")
    with pytest.raises(ValueError):
        PromptRequest((("narrator", "x"),), "m")
    with pytest.raises(ValueError):
        PromptRequest((("user", ""),), "m")
    with pytest.raises(ValueError):
        PromptRequest((("user", "x"),), "m", temperature=-0.5)
    with pytest.raises(ValueError):
        PromptRequest((("user", "x"),), "m", max_tokens=0)


def test_scored_continuation_validation():
    sc = ScoredContinuation((-0.1, -0.2))
    assert sc.logprobs == (-0.1, -0.2)
    assert ScoredContinuation([-1, 0]).logprobs == (-1.0, 0.0)
    with pytest.raises(ValueError):
        ScoredContinuation(())
    with pytest.raises(ValueError):
        ScoredContinuation((0.5,))
    with pytest.raises(ValueError):
        ScoredContinuation((float("nan"),))


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="grpc")
    with pytest.raises(ValueError):
        BackendConfig(kind="mock", script_path="")
    with pytest.raises(ValueError):
        BackendConfig(kind="http", endpoint="")
    BackendConfig(kind="http", endpoint="http://localhost:1")


def test_mock_stage_and_order(tmp_path):
    gw = make_gateway(
        tmp_path,
        [
            {"kind": "score", "match": "ping", "confidence": 0.5},
            {"kind": "chat", "stage": "alpha", "match": "ping", "response": "stage hit"},
            {"kind": "chat", "match": "ping", "response": "generic hit"},
            {"kind": "chat", "stage": "beta", "match": "p", "response": "beta hit"},
        ],
    )
    assert gw.complete(req("ping"), stage="alpha") == "stage hit"
    # The first match in file order wins: a stage-less entry before a
    # stage's own entry shadows it, and an entry of another kind never matches.
    assert gw.complete(req("ping"), stage="beta") == "generic hit"
    assert gw.complete(req("ping"), stage="gamma") == "generic hit"
    assert gw.complete(req("ping")) == "generic hit"
    assert gw.complete(req("pong"), stage="beta") == "beta hit"
    assert gw.score_continuation("ping", " x", stage="alpha").logprobs == (math.log(0.5),)
    for stage in ("alpha", "gamma", ""):
        with pytest.raises(ScriptMatchError):
            gw.complete(req("pong"), stage=stage)


def test_mock_substitution(tmp_path):
    gw = make_gateway(
        tmp_path,
        [
            {"kind": "chat", "match": r"name=(\w+)", "response": "hello {m1} {digest}"},
        ],
    )
    out = gw.complete(req("name=ada"))
    assert out.startswith("hello ada ")
    assert len(out.split()[-1]) == 8  # short hash of the matched text
    # identical request text gives an identical digest
    assert gw.complete(req("name=ada")) == out


def test_mock_score_confidence_and_logprobs(tmp_path):
    gw = make_gateway(
        tmp_path,
        [
            {"kind": "score", "match": "explicit", "logprobs": [-0.5, -1.0]},
            {"kind": "score", "match": "", "confidence": 0.25},
        ],
    )
    scored = gw.score_continuation("ctx", " two tokens")
    assert scored.logprobs == (math.log(0.25),) * 2  # one per whitespace token
    explicit = gw.score_continuation("explicit", " a b")
    assert explicit.logprobs == (-0.5, -1.0)
    with pytest.raises(GatewayError):
        gw.score_continuation("explicit", " one")  # 2 logprobs vs 1 token
    with pytest.raises(ValueError):
        gw.score_continuation("ctx", "")


def test_mock_score_entry_needs_exactly_one_source(tmp_path):
    script = tmp_path / "s.json"
    script.write_text('[{"kind": "score", "match": "", "confidence": 0.5, "logprobs": [-1]}]')
    with pytest.raises(GatewayError):
        MockBackend(script)
    script.write_text('[{"kind": "score", "match": ""}]')
    with pytest.raises(GatewayError):
        MockBackend(script)
    script.write_text('[{"kind": "score", "match": "", "confidence": 0.0}]')
    with pytest.raises(GatewayError):
        MockBackend(script)


@pytest.mark.parametrize("entry, message", [
    ({"kind": "chat", "match": "", "response": 5}, "response must be a string"),
    ({"kind": "chat", "match": ["x"], "response": "r"}, "match must be a string"),
    ({"kind": "score", "match": "", "logprobs": "-1"}, "logprobs must be a list"),
    ({"kind": "entail", "match": "", "score": True}, "score must be a number"),
    ({"match": "", "response": "r"}, "missing field kind"),
    ("chat", "value must be an object"),
])
def test_mock_script_entries_are_read_by_the_json_type_rule(tmp_path, entry, message):
    script = tmp_path / "s.json"
    script.write_text(json.dumps([entry]))
    with pytest.raises(GatewayError, match=re.escape(f"s.json[0]: {message}")):
        MockBackend(script)


def test_cache_hits_and_stage_not_in_key(tmp_path, closing):
    gw = closing(make_gateway(
        tmp_path,
        [{"kind": "chat", "match": "", "response": "r"}],
        cache=True,
    ))
    assert gw.complete(req("q"), stage="one") == "r"
    assert gw.backend_calls == 1 and gw.cache_hits == 0
    # same payload, different stage: the cache key ignores the stage
    assert gw.complete(req("q"), stage="two") == "r"
    assert gw.backend_calls == 1 and gw.cache_hits == 1
    # decoding knobs are part of the key
    gw.complete(req("q", temperature=0.5), stage="one")
    assert gw.backend_calls == 2


def test_cache_survives_across_gateways(tmp_path, closing):
    entries = [{"kind": "score", "match": "", "confidence": 0.5}]
    gw1 = closing(make_gateway(tmp_path, entries, cache=True))
    first = gw1.score_continuation("c", " a b c")
    gw2 = closing(make_gateway(tmp_path, entries, cache=True))
    second = gw2.score_continuation("c", " a b c")
    assert second == first
    assert gw2.backend_calls == 0 and gw2.cache_hits == 1


def test_uncached_gateway_builds_no_key(tmp_path, closing, monkeypatch):
    entries = [
        {"kind": "chat", "match": "", "response": "r"},
        {"kind": "score", "match": "", "confidence": 0.5},
    ]
    cached = closing(make_gateway(tmp_path, entries, cache=True))
    want = (cached.complete(req("q")), cached.score_continuation("c", " a b"))

    def no_key(*fields):
        raise AssertionError("a gateway without a cache built a cache key")

    monkeypatch.setattr(gateway, "_key", no_key)
    plain = make_gateway(tmp_path, entries)
    assert (plain.complete(req("q")), plain.score_continuation("c", " a b")) == want
    assert plain.backend_calls == 2 and plain.cache_hits == 0
    with pytest.raises(ValueError):
        plain.score_continuation("c", "")


def test_scripts_sharing_a_cache_keep_their_own_answers(tmp_path, closing):
    cache = tmp_path / "cache"

    def gateway(name, confidence):
        script = tmp_path / f"{name}.json"
        entries = [
            {"kind": "chat", "match": "", "response": f"from script {name}"},
            {"kind": "score", "match": "", "confidence": confidence},
        ]
        script.write_text(json.dumps(entries), encoding="utf-8")
        return closing(Gateway.from_config(
            BackendConfig(kind="mock", script_path=str(script), cache_dir=str(cache))
        ))

    a, b = gateway("A", 0.5), gateway("B", 0.25)
    assert a.complete(req("q")) == "from script A"
    assert a.score_continuation("c", " t").logprobs == (math.log(0.5),)
    assert b.complete(req("q")) == "from script B"
    assert b.score_continuation("c", " t").logprobs == (math.log(0.25),)
    assert b.backend_calls == 2 and b.cache_hits == 0
    # the same script text, wherever it lives, shares the entries
    again = gateway("A", 0.5)
    assert again.complete(req("q")) == "from script A" and again.cache_hits == 1


def test_backend_identity(tmp_path):
    script = tmp_path / "s.json"
    script.write_text('[{"kind": "chat", "match": "", "response": "r"}]', encoding="utf-8")
    digest = hashlib.sha256(script.read_bytes()).hexdigest()
    assert MockBackend(script).identity == "mock:" + digest
    http = HttpBackend(BackendConfig(kind="http", endpoint="http://localhost:1/v1"))
    assert http.identity == "http:http://localhost:1/v1"


class _CountingBackend:
    identity = "counting"

    def __init__(self, delay=0.0):
        self.calls = 0
        self.lock = threading.Lock()
        self.delay = delay

    def complete(self, request, stage):
        with self.lock:
            self.calls += 1
        time.sleep(self.delay)
        return "out"

    def score(self, context, continuation, model, stage):
        with self.lock:
            self.calls += 1
        return ScoredContinuation((-1.0,))


def test_identical_concurrent_requests_coalesce(tmp_path, closing):
    backend = _CountingBackend(delay=0.05)
    config = BackendConfig(
        kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache")
    )
    gw = closing(Gateway(backend, config))
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(gw.complete(req("same"))))
        for _ in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == ["out"] * 6
    assert backend.calls == 1  # five waiters served from the fresh cache entry


@pytest.fixture
def log_gateway(tmp_path, closing):
    """Builds counting gateways over one cache directory; closes them after."""
    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache"))
    return lambda: closing(Gateway(_CountingBackend(), config))


@pytest.mark.parametrize("call", ["complete", "score_continuation"])
@pytest.mark.parametrize("damage", ["truncate", "drop_field", "not_json"])
def test_corrupt_cache_file_is_a_miss_and_replaced(tmp_path, log_gateway, call, damage):
    """A damaged line of the cache log is a miss; the fresh value is appended."""
    def run(gw):
        if call == "complete":
            return gw.complete(req("same"))
        return gw.score_continuation("c", " t")

    first = run(log_gateway())
    log = tmp_path / "cache" / CACHE_LOG
    good = log.read_bytes()
    key = good.split(b"\t")[0]
    damaged = {
        "truncate": good[: len(good) // 2],  # a torn last line, no newline
        "drop_field": key + b'\t{"kind": "x"}\n',
        "not_json": key + b"\tnot json\n",
    }[damage]
    log.write_bytes(damaged)

    gw = log_gateway()
    assert run(gw) == first
    assert gw.backend_calls == 1 and gw.cache_hits == 0
    # A line appended after a torn one joins it, so it is written again.
    again = good if damage == "truncate" else b""
    assert log.read_bytes() == damaged + good + again
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [CACHE_LOG]
    # the appended line serves the next gateway
    again = log_gateway()
    assert run(again) == first and again.cache_hits == 1


@pytest.mark.parametrize("call, field, bad", [
    ("complete", "response", 5),
    ("complete", "response", None),
    ("score_continuation", "logprobs", [0.5]),  # out of range
    ("score_continuation", "logprobs", ["x"]),
    ("score_continuation", "logprobs", [True]),  # a bool is no number
    ("score_continuation", "logprobs", -1.0),
])
def test_cached_value_of_the_wrong_json_type_is_a_miss(tmp_path, log_gateway, call, field, bad):
    """A line whose value has a field of the wrong JSON type is a miss, as a
    line lacking the field is: the answer is fetched again and appended."""
    def run(gw):
        if call == "complete":
            return gw.complete(req("same"))
        return gw.score_continuation("c", " t")

    first = run(log_gateway())
    log = tmp_path / "cache" / CACHE_LOG
    good = log.read_bytes()
    key, value = good.split(b"\t")
    damaged = key + b"\t" + json.dumps({**json.loads(value), field: bad}).encode() + b"\n"
    log.write_bytes(damaged)

    gw = log_gateway()
    assert run(gw) == first
    assert gw.backend_calls == 1 and gw.cache_hits == 0
    assert log.read_bytes() == damaged + good
    again = log_gateway()
    assert run(again) == first and again.cache_hits == 1


class _WritingBackend(_CountingBackend):
    """Appends `written` to the cache log while each call is in flight, as
    another writer would."""

    def __init__(self, log, written):
        super().__init__()
        self.log, self.written = log, written

    def complete(self, request, stage):
        with self.log.open("ab") as f:
            f.write(self.written)
        return super().complete(request, stage)


def test_a_fragment_written_during_a_call_does_not_swallow_its_line(
    tmp_path, log_gateway, closing, monkeypatch
):
    """Another writer leaves a torn line while this gateway's backend call is
    in flight: the appended line joins it, so it is written again after its
    own newline, and a gateway that indexes the log afresh finds it."""
    log = tmp_path / "cache" / CACHE_LOG
    fragment = b"f" * 64 + b'\t{"resp'  # a writer died mid-line
    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache"))
    gw = closing(Gateway(_WritingBackend(log, fragment), config))
    assert gw.complete(req("a")) == "out" and gw.backend_calls == 1
    assert gw.complete(req("a")) == "out" and gw.cache_hits == 1
    monkeypatch.setattr(gateway, "_LOG_INDEXES", {})  # a new process
    fresh = log_gateway()
    assert fresh.complete(req("a")) == "out"
    assert fresh.backend_calls == 0 and fresh.cache_hits == 1
    data = log.read_bytes()
    line = data[len(fragment) :][: (len(data) - len(fragment)) // 2]
    assert data == fragment + line + line and line.count(b"\n") == 1


def test_an_append_where_the_index_ends_reads_nothing_back(
    tmp_path, log_gateway, closing, monkeypatch
):
    """An append that starts where this index read the log up to follows a
    complete line, so it makes no pread to check the byte before it."""
    gw = log_gateway()
    gw.complete(req("a"))
    calls = []
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda *args: calls.append(args) or pread(*args))
    gw.complete(req("b"))
    assert gw.backend_calls == 2 and calls == []
    # After a complete line another writer appends during the call, one
    # pread finds its newline, and the line is written once.
    log = tmp_path / "cache" / CACHE_LOG
    other_line = b"e" * 64 + b'\t{"response": "elsewhere"}\n'
    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache"))
    writing = closing(Gateway(_WritingBackend(log, other_line), config))
    before = log.read_bytes()
    assert writing.complete(req("c")) == "out" and writing.backend_calls == 1
    assert len(calls) == 1
    assert log.read_bytes()[: len(before) + len(other_line)] == before + other_line
    assert log.read_bytes().count(b"\n") == 4


def test_offset_at_another_keys_line_is_a_miss(tmp_path, log_gateway):
    gw = log_gateway()
    gw.complete(req("a"))
    gw.complete(req("b"))
    # Rewrite the log under the gateway's index: the two lines, of equal
    # length, trade places, so each indexed offset holds the other key.
    log = tmp_path / "cache" / CACHE_LOG
    a, b = log.read_bytes().splitlines(keepends=True)
    assert len(a) == len(b) and a != b
    log.write_bytes(b + a)
    assert gw.complete(req("a")) == "out"
    assert gw.backend_calls == 3 and gw.cache_hits == 0
    assert log.read_bytes() == b + a + a
    again = log_gateway()
    assert again.complete(req("a")) == again.complete(req("b")) == "out"
    assert again.backend_calls == 0 and again.cache_hits == 2


def test_gateway_sees_lines_appended_after_its_index(tmp_path, log_gateway):
    first, second = log_gateway(), log_gateway()
    first.complete(req("a"))
    assert second.complete(req("a")) == "out" and second.cache_hits == 1
    # `second` has indexed the log; `first` now appends a line it has not read
    first.complete(req("b"))
    assert second.complete(req("b")) == "out"
    assert second.backend_calls == 0 and second.cache_hits == 2
    log = tmp_path / "cache" / CACHE_LOG
    assert len(log.read_bytes().splitlines()) == 2


def test_second_gateway_on_an_unchanged_log_reads_no_line(tmp_path, log_gateway, monkeypatch):
    first = log_gateway()
    first.complete(req("a"))
    first.score_continuation("c", " t")
    first.close()
    log = tmp_path / "cache" / CACHE_LOG
    lines_read = []
    index_tail = Gateway._index_tail

    def counting(gw):
        start = gw._index.indexed
        index_tail(gw)
        lines_read.append(log.read_bytes()[start : gw._index.indexed].count(b"\n"))

    monkeypatch.setattr(Gateway, "_index_tail", counting)
    second = log_gateway()
    assert second.complete(req("a")) == "out"
    assert second.score_continuation("c", " t") == ScoredContinuation((-1.0,))
    assert second.backend_calls == 0 and second.cache_hits == 2
    assert sum(lines_read) == 0
    # Without the shared index, a gateway reads the log to serve a hit.
    monkeypatch.setattr(gateway, "_LOG_INDEXES", {})
    third = log_gateway()
    assert third.complete(req("a")) == "out" and third.cache_hits == 1
    assert lines_read == [2]


def test_a_hit_makes_no_fstat_call(log_gateway, monkeypatch):
    gw = log_gateway()
    gw.complete(req("a"))
    calls = []
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: calls.append(fd) or fstat(fd))
    assert gw.complete(req("a")) == "out" and gw.cache_hits == 1
    assert calls == []
    # A miss checks the log's size once, for lines appended elsewhere.
    gw.complete(req("b"))
    assert len(calls) == 1 and gw.backend_calls == 2


def test_a_miss_looks_again_after_waiting_for_another_tail_read(tmp_path, log_gateway, monkeypatch):
    log_gateway().close()
    writer, reader = log_gateway(), log_gateway()
    assert writer._index is reader._index
    # A line for "a" that another process appended: only a tail read finds it.
    other = Gateway(_CountingBackend(), BackendConfig(
        kind="mock", script_path="unused", cache_dir=str(tmp_path / "other")
    ))
    other.complete(req("a"))
    other.close()
    with (tmp_path / "cache" / CACHE_LOG).open("ab") as f:
        f.write((tmp_path / "other" / CACHE_LOG).read_bytes())
    index_tail = Gateway._index_tail
    reading = threading.Event()

    def slow(gw):
        reading.set()
        time.sleep(0.2)
        index_tail(gw)

    monkeypatch.setattr(Gateway, "_index_tail", slow)
    # `writer` misses "b" and reads the tail, holding the index's lock;
    # `reader` misses "a" before that read and waits for the lock.
    thread = threading.Thread(target=writer.complete, args=(req("b"),))
    thread.start()
    assert reading.wait(timeout=10)
    assert reader.complete(req("a")) == "out"
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert reader.cache_hits == 1 and reader.backend_calls == 0


def test_line_appended_between_gateways_is_found(tmp_path, log_gateway):
    first = log_gateway()
    first.complete(req("a"))
    first.close()
    # The line another writer appends for "b", made in a cache of its own.
    other = Gateway(_CountingBackend(), BackendConfig(
        kind="mock", script_path="unused", cache_dir=str(tmp_path / "other")
    ))
    other.complete(req("b"))
    other.close()
    log = tmp_path / "cache" / CACHE_LOG
    with log.open("ab") as f:
        f.write((tmp_path / "other" / CACHE_LOG).read_bytes())
    second = log_gateway()
    assert second.complete(req("b")) == second.complete(req("a")) == "out"
    assert second.backend_calls == 0 and second.cache_hits == 2


def test_log_rewritten_in_place_between_gateways_is_indexed_afresh(tmp_path, log_gateway):
    first = log_gateway()
    first.complete(req("a"))
    first.complete(req("b"))
    first.close()
    log = tmp_path / "cache" / CACHE_LOG
    before = log.stat()
    a, b = log.read_bytes().splitlines(keepends=True)
    assert len(a) == len(b)
    # Same size and same file, each line where the other was; a clock
    # coarser than this test could leave the mtime as it was, so move it on.
    log.write_bytes(b + a)
    os.utime(log, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    assert log.stat().st_ino == before.st_ino and log.stat().st_size == before.st_size
    second = log_gateway()
    assert second.complete(req("a")) == second.complete(req("b")) == "out"
    assert second.backend_calls == 0 and second.cache_hits == 2
    assert log.read_bytes() == b + a


def test_index_that_met_another_keys_line_is_not_passed_on(tmp_path, log_gateway):
    first = log_gateway()
    first.complete(req("a"))
    first.complete(req("b"))
    log = tmp_path / "cache" / CACHE_LOG
    a, b = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b + a)
    # `first` meets b's line at a's offset and appends a afresh; its index
    # still places b where a's line now is.
    assert first.complete(req("a")) == "out" and first.backend_calls == 3
    first.close()
    second = log_gateway()
    assert second.complete(req("b")) == "out"
    assert second.backend_calls == 0 and second.cache_hits == 1


def test_old_per_entry_cache_files_are_ignored(tmp_path, log_gateway):
    log_gateway().complete(req("q"))
    log = tmp_path / "cache" / CACHE_LOG
    key, value = log.read_text(encoding="utf-8").rstrip("\n").split("\t")
    # an earlier version kept one file per entry, named by the key
    old = tmp_path / "cache" / key[:2] / (key + ".json")
    old.parent.mkdir()
    old.write_text(value, encoding="utf-8")
    log.unlink()

    gw = log_gateway()
    assert gw.complete(req("q")) == "out"
    assert gw.backend_calls == 1 and gw.cache_hits == 0
    assert old.read_text(encoding="utf-8") == value
    assert log.read_text(encoding="utf-8") == f"{key}\t{value}\n"


def test_keydir_entry_past_4_gib_round_trips(tmp_path, log_gateway, monkeypatch):
    gw = log_gateway()
    gw.complete(req("a"))
    line = (tmp_path / "cache" / CACHE_LOG).read_bytes()
    far = 2**32 + 1
    entry = gateway._entry(far, len(line))
    assert entry >> gateway._LENGTH_BITS == far
    assert entry & (1 << gateway._LENGTH_BITS) - 1 == len(line)
    # The index places the key's only line past 4 GiB; pread serves it there.
    pread = os.pread
    monkeypatch.setattr(
        os, "pread", lambda fd, n, at: line[:n] if at == far else pread(fd, n, at)
    )
    index = gw._index
    with index.lock:
        index.recent.clear()
        index.keydir = (array("Q"), array("Q"))
        index.fold(array("Q", [gateway._prefix(line)]), array("Q", [entry]))
    assert list(index.keydir[1]) == [entry]
    assert gw.complete(req("a")) == "out" and gw.cache_hits == 1
    with index.lock:
        index.add(line[:64], entry)
    assert gw.complete(req("a")) == "out" and gw.cache_hits == 2


def test_line_longer_than_its_length_field_is_read_to_its_end(tmp_path, log_gateway, monkeypatch):
    monkeypatch.setattr(gateway, "_LENGTH_BITS", 6)  # every line is longer than 63 bytes
    first = log_gateway()
    first.complete(req("a"))
    first.complete(req("b" * 3000))
    assert first.complete(req("a")) == first.complete(req("b" * 3000)) == "out"
    monkeypatch.setattr(gateway, "_LOG_INDEXES", {})
    second = log_gateway()
    assert second.complete(req("b" * 3000)) == second.complete(req("a")) == "out"
    assert first.cache_hits == second.cache_hits == 2 and second.backend_calls == 0


def test_lines_that_cannot_hold_a_key_are_skipped(tmp_path, log_gateway, monkeypatch):
    first = log_gateway()
    first.complete(req("a"))
    first.complete(req("b"))
    first.close()
    log = tmp_path / "cache" / CACHE_LOG
    a, b = log.read_bytes().splitlines(keepends=True)
    junk = [b"-" * 64 + b"\t{}\n", b"z" * 64 + b"\t{}\n", b"short\t{}\n", b"\n"]
    log.write_bytes(a + b"".join(junk) + b)
    monkeypatch.setattr(gateway, "_RECENT_MIN", 1)  # the fresh index folds the log
    monkeypatch.setattr(gateway, "_LOG_INDEXES", {})
    second = log_gateway()
    assert second.complete(req("b")) == second.complete(req("a")) == "out"
    assert second.backend_calls == 0 and second.cache_hits == 2
    assert len(second._index.keydir[0]) == 2


def _sharing_first_digit(n):
    """`n` request texts whose cache keys share their first hex digit."""
    by_digit = {}
    for i in range(200):
        text = f"q{i}"
        key = gateway._key("counting", "chat", "mock-model", (0.0).hex(), "1024", "user", text)
        group = by_digit.setdefault(key[:1], [])
        group.append(text)
        if len(group) == n:
            return group
    raise AssertionError("no shared digit")


def test_prefix_collision_is_read_past_and_keeps_the_index(tmp_path, log_gateway, monkeypatch):
    monkeypatch.setattr(gateway, "_PREFIX_DIGITS", 1)
    monkeypatch.setattr(gateway, "_RECENT_MIN", 1)  # a fresh index of the log folds it
    older, newer = _sharing_first_digit(2)
    first = log_gateway()
    first.complete(req(older))
    first.complete(req(newer))
    first.close()
    monkeypatch.setattr(gateway, "_LOG_INDEXES", {})
    second = log_gateway()
    # `newer`'s line is read first, holds another key of the same prefix,
    # and is passed over for `older`'s.
    assert second.complete(req(older)) == second.complete(req(newer)) == "out"
    assert second.backend_calls == 0 and second.cache_hits == 2
    assert list(gateway._LOG_INDEXES.values()) == [second._index]
    assert len(second._index.keydir[0]) == 2


def test_fresh_index_streams_the_log_into_the_keydir(tmp_path, log_gateway, monkeypatch):
    monkeypatch.setattr(gateway, "_RECENT_MIN", 4)
    first = log_gateway()
    for i in range(40):
        first.complete(req(f"q{i}"))
    # Appends fold `recent` into the keydir once it passes its bound.
    assert len(first._index.recent) <= 4
    first.close()
    monkeypatch.setattr(gateway, "_LOG_INDEXES", {})
    folds = []
    fold = gateway._LogIndex.fold
    monkeypatch.setattr(gateway._LogIndex, "fold", lambda *a: folds.append(len(a[1])) or fold(*a))
    second = log_gateway()
    assert second.complete(req("q0")) == "out" and second.cache_hits == 1
    # The whole log went to the keydir in one sort, and none of it to `recent`.
    assert folds == [40] and second._index.recent == {}
    assert len(second._index.keydir[0]) == 40


class _OverlapBackend:
    """Counts calls and records any two calls for one prompt that overlap."""

    identity = "overlap"

    def __init__(self):
        self.calls = 0
        self.in_flight: dict[str, int] = {}
        self.overlaps = 0
        self.lock = threading.Lock()

    def complete(self, request, stage):
        text = request.messages[0][1]
        with self.lock:
            self.calls += 1
            self.in_flight[text] = self.in_flight.get(text, 0) + 1
            self.overlaps += self.in_flight[text] > 1
        time.sleep(0.0002)
        with self.lock:
            self.in_flight[text] -= 1
        return "out"


@pytest.mark.parametrize("cache", [True, False])
def test_key_locks_under_contention(tmp_path, closing, cache):
    backend = _OverlapBackend()
    config = BackendConfig(
        kind="mock",
        script_path="unused",
        cache_dir=str(tmp_path / "cache") if cache else "",
        max_in_flight=64,
    )
    gw = closing(Gateway(backend, config))
    n_keys, n_threads, rounds = 8, 32, 20
    errors = []

    def work(seed):
        try:
            for r in range(rounds):
                gw.complete(req(f"key {(seed + r) % n_keys}"))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    if cache:
        # identical requests never reach the backend at the same time, and
        # they coalesce to one backend call per key
        assert backend.overlaps == 0
        assert backend.calls == n_keys
        assert gw.cache_hits == n_threads * rounds - n_keys
    else:
        # without a cache there is nothing to coalesce: every request is
        # one backend call, counted once
        assert backend.calls == gw.backend_calls == n_threads * rounds


def test_uncached_mock_calls_under_contention(tmp_path, closing):
    """Unlocked uncached path: every call is counted and routed as alone."""
    gw = closing(make_gateway(
        tmp_path,
        [
            {"kind": "chat", "stage": "alpha", "match": r"q(\d)", "response": "alpha {m1}"},
            {"kind": "chat", "match": r"q([0-4])", "response": "any {m1}"},
            {"kind": "chat", "stage": "beta", "match": r"q(\d)", "response": "beta {m1}"},
            {"kind": "score", "stage": "beta", "match": "q", "confidence": 0.5},
            {"kind": "score", "match": "", "confidence": 0.25},
        ],
    ))
    stages = ("alpha", "beta", "gamma")

    def want(stage, i):
        if stage == "alpha":
            return f"alpha {i}"
        return f"any {i}" if i < 5 else (f"beta {i}" if stage == "beta" else None)

    n_threads, rounds = 8, 150
    results: list[list] = [[] for _ in range(n_threads)]
    errors = []

    def work(seed):
        try:
            for r in range(rounds):
                stage, i = stages[(seed + r) % 3], (seed * 7 + r) % 10
                if want(stage, i) is None:
                    stage = "alpha"
                got = gw.complete(req(f"q{i}"), stage=stage)
                lp = gw.score_continuation(f"q{i}", " t", stage=stage).logprobs[0]
                results[seed].append((stage, i, got, lp))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [len(r) for r in results] == [rounds] * n_threads
    for stage, i, got, lp in (row for rows in results for row in rows):
        assert got == want(stage, i)
        assert lp == math.log(0.5 if stage == "beta" else 0.25)
    assert gw.backend_calls == 2 * n_threads * rounds
    assert gw.cache_hits == 0


def test_gateways_sharing_an_index_under_contention(tmp_path, closing):
    """Two gateways on one index, each with its own key locks, from many
    threads: every answer is its prompt's, and no append is lost."""
    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache"))

    class Echo(_CountingBackend):
        def complete(self, request, stage):
            super().complete(request, stage)
            return "echo " + request.messages[0][1]

    backend = Echo()
    first = Gateway(backend, config)
    first.complete(req("key 0"))
    first.close()
    a, b = closing(Gateway(backend, config)), closing(Gateway(backend, config))
    assert a._index is b._index
    n_keys, n_threads, rounds = 12, 16, 30
    errors = []

    def work(seed):
        gw = (a, b)[seed % 2]
        try:
            for r in range(rounds):
                text = f"key {(seed + r) % n_keys}"
                if gw.complete(req(text)) != "echo " + text:
                    raise AssertionError(f"wrong answer for {text}")
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # Each gateway coalesces its own requests: at most one call per key each.
    assert n_keys - 1 <= backend.calls - 1 <= 2 * (n_keys - 1)
    lines = (tmp_path / "cache" / CACHE_LOG).read_bytes().splitlines(keepends=True)
    assert len(lines) == backend.calls
    assert all(line.endswith(b"}\n") and line.count(b"\t") == 1 for line in lines)
    # Every key is served from the log by a gateway that indexes it afresh.
    gateway._LOG_INDEXES.clear()
    fresh = closing(Gateway(backend, config))
    assert [fresh.complete(req(f"key {i}")) for i in range(n_keys)] == [
        f"echo key {i}" for i in range(n_keys)
    ]
    assert fresh.backend_calls == 0


def _http(monkeypatch, replies, **config):
    """An HttpBackend whose session answers each POST with the next reply,
    raising it instead when it is an exception; returns it and the list of
    (url, payload) posted."""
    backend = HttpBackend(BackendConfig(kind="http", endpoint="http://test/v1/", **config))
    replies = list(replies)
    posts = []

    def post(url, json, timeout):
        assert timeout == backend._config.timeout
        posts.append((url, json))
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(backend._session, "post", post)
    return backend, posts


# call name -> (call on an HttpBackend, path, good reply body, expected result)
_HTTP_CALLS = {
    "chat": (
        lambda b: b.complete(req("q"), "stage"),
        "/chat/completions",
        {"choices": [{"message": {"content": "hi"}}]},
        "hi",
    ),
    "score": (
        lambda b: b.score("ab", "cd", "m", "stage").logprobs,
        "/completions",
        {"choices": [{"logprobs": {
            "tokens": ["ab", "cd"], "token_logprobs": [None, -0.5], "text_offset": [0, 2],
        }}]},
        (-0.5,),
    ),
    "embed": (
        lambda b: b.embed(["x"]).tolist(),
        "/embeddings",
        {"data": [{"embedding": [3.0, 4.0]}]},
        [[0.6, 0.8]],
    ),
    "entail": (
        lambda b: b.entail("p", "h"),
        "/entailment",
        {"score": 0.75},
        0.75,
    ),
}


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("call", sorted(_HTTP_CALLS))
def test_every_http_call_retries_a_transient_status(monkeypatch, call, status):
    run, path, body, want = _HTTP_CALLS[call]
    monkeypatch.setattr(gateway.time, "sleep", lambda s: None)
    backend, posts = _http(monkeypatch, [FakeResponse(status, "busy"), FakeResponse(200, body)])
    assert run(backend) == want
    assert [url for url, _ in posts] == ["http://test/v1" + path] * 2


def test_retry_on_transient_only(monkeypatch):
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    ok = FakeResponse(200, {"score": 0.5})
    busy = FakeResponse(503, "busy")

    backend, posts = _http(
        monkeypatch, [busy, requests.ConnectionError("reset"), ok], max_retries=2
    )
    assert backend.entail("p", "h") == 0.5
    assert len(posts) == 3 and sleeps == [0.25, 0.5]

    backend, posts = _http(monkeypatch, [busy] * 3, max_retries=2)
    with pytest.raises(TransientBackendError):
        backend.entail("p", "h")
    assert len(posts) == 3

    backend, posts = _http(monkeypatch, [FakeResponse(400, "bad request")], max_retries=2)
    with pytest.raises(GatewayError, match="HTTP 400: bad request") as info:
        backend.entail("p", "h")
    assert not isinstance(info.value, TransientBackendError) and len(posts) == 1

    backend, posts = _http(monkeypatch, [FakeResponse(200, "<html>")], max_retries=2)
    with pytest.raises(GatewayError, match="non-JSON") as info:
        backend.entail("p", "h")
    assert not isinstance(info.value, TransientBackendError) and len(posts) == 1


def test_gateway_counts_requests_not_attempts(monkeypatch):
    monkeypatch.setattr(gateway.time, "sleep", lambda s: None)
    _, _, body, want = _HTTP_CALLS["chat"]
    backend, posts = _http(monkeypatch, [FakeResponse(503, "busy"), FakeResponse(200, body)])
    gw = Gateway(backend, backend._config)
    assert gw.complete(req("q")) == want
    assert len(posts) == 2 and gw.backend_calls == 1


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("content", [None, 5, "lone \ud800 surrogate"])
def test_http_chat_content_must_be_utf8_text(tmp_path, monkeypatch, closing, cached, content):
    """A chat answer that is not a string, or that holds a lone surrogate,
    fails where it enters, as a GatewayError, with a cache or without one;
    nothing is appended to the cache log."""
    body = {"choices": [{"message": {"content": content}}]}
    cache = tmp_path / "cache"
    backend, posts = _http(
        monkeypatch, [FakeResponse(200, body)], cache_dir=str(cache) if cached else ""
    )
    gw = closing(Gateway(backend, backend._config))
    with pytest.raises(GatewayError, match="malformed chat response"):
        gw.complete(req("q"))
    assert len(posts) == 1 and gw.backend_calls == 1 and gw.cache_hits == 0
    assert (cache / CACHE_LOG).read_bytes() == b"" if cached else not cache.exists()


def test_http_score_takes_the_continuation_span(monkeypatch):
    def reply(token_logprobs, text_offset=(0, 3, 7, 13)):
        return FakeResponse(200, {"choices": [{"logprobs": {
            "tokens": ["The", " ice", " melts", " fast"],
            "token_logprobs": token_logprobs,
            "text_offset": list(text_offset),
        }}]})

    backend, posts = _http(monkeypatch, [reply([None, -0.5, 0.25, -1.0])])
    scored = backend.score("The ice", " melts fast", "m", "stage")
    # The tokens from " melts" on; a positive logprob is clamped to 0.
    assert scored.logprobs == (0.0, -1.0)
    _, payload = posts[0]
    assert payload["prompt"] == "The ice melts fast"
    assert payload["echo"] is True and payload["max_tokens"] == 0

    backend, _ = _http(monkeypatch, [reply([None, -0.5, None, -1.0])])
    with pytest.raises(GatewayError, match="no logprob"):
        backend.score("The ice", " melts fast", "m", "stage")

    # No token starts inside the continuation: the span is empty.
    backend, _ = _http(monkeypatch, [reply([None, -0.5, -0.1, -1.0], (0, 1, 2, 3))])
    with pytest.raises(GatewayError, match="no tokens aligned"):
        backend.score("The ice", " melts fast", "m", "stage")


def test_http_embed_normalises_rows(monkeypatch):
    body = {"data": [{"embedding": [3.0, 4.0]}, {"embedding": [0.0, 0.0]}]}
    backend, posts = _http(monkeypatch, [FakeResponse(200, body)], model="emb")
    assert backend.embed(["a", "b"]).tolist() == [[0.6, 0.8], [0.0, 0.0]]
    assert posts[0][1] == {"model": "emb", "input": ["a", "b"]}

    backend, _ = _http(monkeypatch, [FakeResponse(200, body)])
    with pytest.raises(GatewayError, match="shape mismatch"):
        backend.embed(["a", "b", "c"])


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_http_embed_rejects_a_non_finite_value(monkeypatch, value):
    # Python's JSON parser reads these literals, so the body parses.
    body = f'{{"data": [{{"embedding": [1.0, {value}]}}]}}'
    backend, _ = _http(monkeypatch, [FakeResponse(200, body)])
    with pytest.raises(GatewayError, match="non-finite"):
        backend.embed(["a"])


@pytest.mark.parametrize("score", [-0.1, 1.5])
def test_http_entail_rejects_a_score_out_of_range(monkeypatch, score):
    backend, _ = _http(monkeypatch, [FakeResponse(200, {"score": score})])
    with pytest.raises(GatewayError, match=r"out of \[0, 1\]"):
        backend.entail("p", "h")


def test_http_api_key_env_sets_authorization(monkeypatch):
    monkeypatch.setenv("SCIRFORGE_TEST_API_KEY", "sekrit")
    config = BackendConfig(
        kind="http", endpoint="http://test/v1", api_key_env="SCIRFORGE_TEST_API_KEY"
    )
    assert HttpBackend(config)._session.headers["Authorization"] == "Bearer sekrit"
    monkeypatch.delenv("SCIRFORGE_TEST_API_KEY")
    assert "Authorization" not in HttpBackend(config)._session.headers


def test_http_in_flight_cap(monkeypatch):
    backend, _ = _http(monkeypatch, [], max_in_flight=2)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0, "posts": 0}

    def post(url, json, timeout):
        with lock:
            state["now"] += 1
            state["posts"] += 1
            state["peak"] = max(state["peak"], state["now"])
        time.sleep(0.01)
        with lock:
            state["now"] -= 1
        return FakeResponse(200, {"score": 0.5})

    monkeypatch.setattr(backend._session, "post", post)
    threads = [
        threading.Thread(target=backend.entail, args=("p", "h")) for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert state["posts"] == 8 and state["peak"] == 2


def test_mock_embedding_client_deterministic():
    client = MockEmbeddingClient(dim=8)
    a = client.embed(["alpha", "beta"])
    b = client.embed(["alpha", "beta"])
    assert a.shape == (2, 8)
    assert (a == b).all()
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    assert not np.allclose(a[0], a[1])
    with pytest.raises(ValueError):
        MockEmbeddingClient(dim=1)


def test_mock_entailment_scorer(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(
        '[{"kind": "entail", "match": "yes", "score": 0.9},'
        ' {"kind": "entail", "match": "", "score": 0.1}]'
    )
    backend = MockBackend(script)
    assert backend.entail("yes indeed", "ref") == 0.9
    assert backend.entail("other", "ref") == 0.1
    # an out-of-range score is rejected when the script loads
    for bad in (2.0, -0.5):
        script.write_text(json.dumps([{"kind": "entail", "match": "", "score": bad}]))
        with pytest.raises(GatewayError, match=r"\[0, 1\]"):
            MockBackend(script)
    script.write_text('[{"kind": "entail", "match": ""}]')
    with pytest.raises(GatewayError, match="needs a score"):
        MockBackend(script)
