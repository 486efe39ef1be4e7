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
