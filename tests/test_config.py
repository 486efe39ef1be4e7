"""Config validation at load time."""
import json

import pytest

from scirforge.cli import FIXTURE_DIR
from scirforge.config import ConfigError, load_config


def _config(tmp_path, doc):
    path = tmp_path / "config.json"
    doc = {"backend": {"script_path": "script.json"}, **doc}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_defaults_load(tmp_path):
    config = load_config(_config(tmp_path, {}))
    assert config.split.ratios == (80, 15, 5)
    assert config.retrieval.mrr_cutoff == 100


def test_negative_split_ratio_rejected(tmp_path):
    path = _config(tmp_path, {"split": {"ratios": [110, -5, -5]}})
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(path)


@pytest.mark.parametrize("cutoff", [0, -1])
def test_mrr_cutoff_below_one_rejected(tmp_path, cutoff):
    path = _config(tmp_path, {"retrieval": {"mrr_cutoff": cutoff}})
    with pytest.raises(ConfigError, match="mrr_cutoff"):
        load_config(path)


def test_negative_regen_attempts_rejected(tmp_path):
    path = _config(tmp_path, {"generation": {"regen_attempts": -1}})
    with pytest.raises(ConfigError, match="regen_attempts"):
        load_config(path)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"bm25": {"k1": "abc"}}, "'k1'"),
        ({"concurrency": 2.5}, "'concurrency'"),
        ({"concurrency": True}, "'concurrency'"),
        ({"bm25": {"b": False}}, "'b'"),
        ({"embedding": {"enabled": 1}}, "'enabled'"),
        ({"template_dir": None}, "'template_dir'"),
        ({"retrieval": {"ks": [1, 5.5]}}, "'ks'"),
        ({"split": {"ratios": "80/15/5"}}, "'ratios'"),
        ({"bm25": 3}, "'bm25'"),
    ],
)
def test_value_of_another_type_rejected(tmp_path, doc, key):
    with pytest.raises(ConfigError, match=f"{key} must match the type of its default,"):
        load_config(_config(tmp_path, doc))


def test_int_accepted_where_default_is_float(tmp_path):
    config = load_config(_config(tmp_path, {"bm25": {"k1": 2}, "generation": {"temperature": 0}}))
    assert config.bm25.k1 == 2.0 and config.generation.temperature == 0.0


@pytest.mark.parametrize("section", ["embedding", "entailment"])
def test_unknown_model_kind_rejected(tmp_path, section):
    with pytest.raises(ConfigError, match=f"{section}.kind must be mock or http, got 'mok'"):
        load_config(_config(tmp_path, {section: {"kind": "mok"}}))
    doc = {section: {"kind": "http", "endpoint": "http://x.test/v1"}}
    config = load_config(_config(tmp_path, doc))
    assert getattr(config, section).kind == "http"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"backend": {"kind": "http", "endpoint": "http://x.test/v1"}},
            "entailment.kind mock replays backend.script_path, which is empty",
        ),
        (
            {"embedding": {"enabled": True, "kind": "http"}},
            "embedding.endpoint must be set when embedding.kind is http",
        ),
        (
            {"entailment": {"kind": "http"}},
            "entailment.endpoint must be set when entailment.kind is http",
        ),
    ],
    ids=["mock-entailment-without-script", "http-embedding-without-endpoint",
         "http-entailment-without-endpoint"],
)
def test_config_a_stage_cannot_run_is_rejected_at_load(tmp_path, doc, message):
    with pytest.raises(ConfigError, match=message):
        load_config(_config(tmp_path, doc))


def test_disabled_http_embedding_needs_no_endpoint(tmp_path):
    load_config(_config(tmp_path, {"embedding": {"kind": "http"}}))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"embedding": {"enabled": True, "dim": 1}}, "embedding.dim must be >= 2"),
        ({"backend": {"script_path": "s.json", "timeout": 0}}, "backend.timeout must be > 0"),
        ({"backend": {"script_path": "s.json", "retry_backoff": -0.5}},
         "backend.retry_backoff must be >= 0"),
        ({"backend": {"kind": "http"}}, "backend.endpoint must be set for the http backend"),
        ({"backend": {}}, "backend.script_path must be set for the mock backend"),
        ({"backend": {"script_path": "s.json", "kind": "grpc"}},
         "backend.kind must be mock or http, got 'grpc'"),
        ({"backend": {"script_path": "s.json", "max_retries": -1}},
         "backend.max_retries must be >= 0"),
        ({"backend": {"script_path": "s.json", "max_in_flight": 0}},
         "backend.max_in_flight must be >= 1"),
        # BM25 weights would be 0/0 at k1 = -1, b = 0.
        ({"bm25": {"k1": -1, "b": 0}}, "bm25.k1 must be finite and >= 0"),
        ({"bm25": {"k1": float("nan")}}, "bm25.k1 must be finite and >= 0"),
        ({"bm25": {"b": 1.5}}, r"bm25.b must be in \[0, 1\]"),
        ({"bm25": {"b": -0.25}}, r"bm25.b must be in \[0, 1\]"),
        ({"retrieval": {"ks": [1, 1]}}, "retrieval.ks must not repeat a k"),
        ({"rag": {"ks": [0, 0]}}, "rag.ks must not repeat a k"),
    ],
    ids=["mock-embedding-dim-1", "timeout-0", "negative-backoff", "http-without-endpoint",
         "mock-without-script", "unknown-kind", "negative-retries", "no-requests-in-flight",
         "negative-k1", "nan-k1", "b-above-1", "negative-b", "repeated-retrieval-k",
         "repeated-rag-k"],
)
def test_config_that_cannot_run_names_its_key(tmp_path, doc, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        load_config(_config(tmp_path, doc))


def test_disabled_embedding_ignores_dim(tmp_path):
    assert load_config(_config(tmp_path, {"embedding": {"dim": 1}})).embedding.dim == 1


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"^unknown config key bm25\.'k3'$"):
        load_config(_config(tmp_path, {"bm25": {"k3": 1}}))
    with pytest.raises(ConfigError, match=r"^unknown config key 'digest'$"):
        load_config(_config(tmp_path, {"digest": "x"}))


def test_paths_resolve_against_the_config_directory(tmp_path):
    doc = {"backend": {"script_path": "s.json", "cache_dir": "/abs/cache"}, "template_dir": "tpl"}
    config = load_config(_config(tmp_path, doc))
    assert config.backend.script_path == str(tmp_path / "s.json")
    assert config.backend.cache_dir == "/abs/cache"
    assert (config.template_dir, config.filter_labels_path) == (str(tmp_path / "tpl"), "")


# The digest is an on-disk format: a run directory records it, and one
# written before the section dataclasses must still resume.
def test_digest_of_the_bundled_config():
    digest = load_config(FIXTURE_DIR / "config.json").digest
    assert digest == "813b98447c67b365473f1c788eb1eac3fd3ec3eddcf45fa2e385c50ed85e3ba1"


def test_digest_keeps_the_raw_values(tmp_path):
    doc = {
        "backend": {"script_path": "s.json", "timeout": 30},
        "bm25": {"k1": 2, "b": 1},
        "generation": {"temperature": 0},
    }
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    digest = load_config(tmp_path / "config.json").digest
    assert digest == "48f011e0c3c89266de09a6f22140f4a58d9e95fd3ad42b13ecc87ee964b2741a"
