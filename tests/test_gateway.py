"""Gateway caching, coalescing, retry, and the scripted mock backend."""
import hashlib
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from conftest import make_gateway
from scirforge.gateway import (
    BackendConfig,
    Gateway,
    GatewayError,
    HttpBackend,
    MockBackend,
    MockEmbeddingClient,
    MockEntailmentScorer,
    PromptRequest,
    ScoredContinuation,
    ScriptMatchError,
    TransientBackendError,
)


def req(text, temperature=0.0):
    return PromptRequest((("user", text),), "mock-model", temperature=temperature)


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
    sc = ScoredContinuation(("a", "b"), (-0.1, -0.2))
    assert sc.logprobs == (-0.1, -0.2)
    with pytest.raises(ValueError):
        ScoredContinuation(("a",), (-0.1, -0.2))
    with pytest.raises(ValueError):
        ScoredContinuation((), ())
    with pytest.raises(ValueError):
        ScoredContinuation(("a",), (0.5,))
    with pytest.raises(ValueError):
        ScoredContinuation(("a",), (float("nan"),))


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
            {"kind": "chat", "stage": "alpha", "match": "ping", "response": "stage hit"},
            {"kind": "chat", "match": "ping", "response": "generic hit"},
        ],
    )
    assert gw.complete(req("ping"), stage="alpha") == "stage hit"
    assert gw.complete(req("ping"), stage="beta") == "generic hit"
    with pytest.raises(ScriptMatchError):
        gw.complete(req("pong"), stage="beta")


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
    assert scored.tokens == ("two", "tokens")
    assert all(lp == pytest.approx(math.log(0.25)) for lp in scored.logprobs)
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


def test_cache_hits_and_stage_not_in_key(tmp_path):
    gw = make_gateway(
        tmp_path,
        [{"kind": "chat", "match": "", "response": "r"}],
        cache=True,
    )
    assert gw.complete(req("q"), stage="one") == "r"
    assert gw.backend_calls == 1 and gw.cache_hits == 0
    # same payload, different stage: the cache key ignores the stage
    assert gw.complete(req("q"), stage="two") == "r"
    assert gw.backend_calls == 1 and gw.cache_hits == 1
    # decoding knobs are part of the key
    gw.complete(req("q", temperature=0.5), stage="one")
    assert gw.backend_calls == 2


def test_cache_survives_across_gateways(tmp_path):
    entries = [{"kind": "score", "match": "", "confidence": 0.5}]
    gw1 = make_gateway(tmp_path, entries, cache=True)
    first = gw1.score_continuation("c", " a b c")
    gw2 = make_gateway(tmp_path, entries, cache=True)
    second = gw2.score_continuation("c", " a b c")
    assert second == first
    assert gw2.backend_calls == 0 and gw2.cache_hits == 1


def test_scripts_sharing_a_cache_keep_their_own_answers(tmp_path):
    cache = tmp_path / "cache"

    def gateway(name, confidence):
        script = tmp_path / f"{name}.json"
        entries = [
            {"kind": "chat", "match": "", "response": f"from script {name}"},
            {"kind": "score", "match": "", "confidence": confidence},
        ]
        script.write_text(json.dumps(entries), encoding="utf-8")
        return Gateway.from_config(
            BackendConfig(kind="mock", script_path=str(script), cache_dir=str(cache))
        )

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
        return ScoredContinuation(("t",), (-1.0,))


def test_identical_concurrent_requests_coalesce(tmp_path):
    backend = _CountingBackend(delay=0.05)
    config = BackendConfig(
        kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache")
    )
    gw = Gateway(backend, config)
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


@pytest.mark.parametrize("call", ["complete", "score_continuation"])
@pytest.mark.parametrize("damage", ["truncate", "drop_field"])
def test_corrupt_cache_file_is_a_miss_and_replaced(tmp_path, call, damage):
    def run(gw):
        if call == "complete":
            return gw.complete(req("same"))
        return gw.score_continuation("c", " t")

    config = BackendConfig(kind="mock", script_path="unused", cache_dir=str(tmp_path / "cache"))
    first = run(Gateway(_CountingBackend(), config))
    (path,) = (tmp_path / "cache").rglob("*.json")
    good = path.read_text(encoding="utf-8")
    if damage == "truncate":
        path.write_text(good[: len(good) // 2], encoding="utf-8")
    else:
        path.write_text('{"kind": "x"}', encoding="utf-8")

    backend = _CountingBackend()
    gw = Gateway(backend, config)
    assert run(gw) == first
    assert backend.calls == 1 and gw.cache_hits == 0
    assert path.read_text(encoding="utf-8") == good
    assert sorted(p.name for p in (tmp_path / "cache").rglob("*")) == sorted(
        [path.parent.name, path.name]
    )
    # the replaced file serves the next gateway
    again = Gateway(_CountingBackend(), config)
    assert run(again) == first and again.cache_hits == 1


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
def test_key_locks_under_contention(tmp_path, cache):
    backend = _OverlapBackend()
    config = BackendConfig(
        kind="mock",
        script_path="unused",
        cache_dir=str(tmp_path / "cache") if cache else "",
        max_in_flight=64,
    )
    gw = Gateway(backend, config)
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
    # identical requests never reach the backend at the same time ...
    assert backend.overlaps == 0
    if cache:
        # ... and with a cache they coalesce to one backend call per key
        assert backend.calls == n_keys
        assert gw.cache_hits == n_threads * rounds - n_keys
    else:
        assert backend.calls == n_threads * rounds
    assert gw._locks == {}


class _FlakyBackend:
    identity = "flaky"

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def complete(self, request, stage):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("boom")
        return "ok"

    def score(self, context, continuation, model, stage):
        raise GatewayError("permanent")


def test_retry_on_transient_only():
    config = BackendConfig(
        kind="mock", script_path="unused", max_retries=2, retry_backoff=0.0
    )
    backend = _FlakyBackend(failures=2)
    gw = Gateway(backend, config)
    assert gw.complete(req("x")) == "ok"
    assert backend.calls == 3
    exhausted = Gateway(_FlakyBackend(failures=5), config)
    with pytest.raises(TransientBackendError):
        exhausted.complete(req("x"))
    permanent = Gateway(_FlakyBackend(failures=0), config)
    with pytest.raises(GatewayError):
        permanent.score_continuation("c", " t")  # not retried


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
        ' {"kind": "entail", "match": "", "score": 2.0}]'
    )
    scorer = MockEntailmentScorer(script)
    assert scorer.score("yes indeed", "ref") == 0.9
    with pytest.raises(GatewayError):
        scorer.score("other", "ref")  # out-of-range scripted value
