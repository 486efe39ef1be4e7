"""Config validation at load time."""
import json

import pytest

from scirforge.config import ConfigError, load_config


def _config(tmp_path, doc):
    path = tmp_path / "config.json"
    doc = {"backend": {"script_path": "script.json"}, **doc}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_defaults_load(tmp_path):
    config = load_config(_config(tmp_path, {}))
    assert config.split_ratios == (80, 15, 5)
    assert config.mrr_cutoff == 100


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
    assert config.k1 == 2.0 and config.gen_temperature == 0.0


@pytest.mark.parametrize("section", ["embedding", "entailment"])
def test_unknown_model_kind_rejected(tmp_path, section):
    with pytest.raises(ConfigError, match=f"{section}.kind must be mock or http, got 'mok'"):
        load_config(_config(tmp_path, {section: {"kind": "mok"}}))
    doc = {section: {"kind": "http", "endpoint": "http://x.test/v1"}}
    config = load_config(_config(tmp_path, doc))
    assert getattr(config, section)["kind"] == "http"


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
