"""The config merge and digest as they were before the section dataclasses
became the schema: `DEFAULTS`, `_same_type` and `_merge` verbatim, and the
digest expression of `load_config`.  `load_config` must still give this
digest for every config both accept, so run directories keep resuming."""
from __future__ import annotations

import copy
import hashlib
import json
from typing import Any

from scirforge.config import ConfigError

DEFAULTS: dict[str, Any] = {
    "backend": {
        "kind": "mock",
        "model": "mock-model",
        "endpoint": "",
        "api_key_env": "",
        "script_path": "",
        "cache_dir": "",
        "timeout": 60.0,
        "max_retries": 2,
        "retry_backoff": 0.25,
        "max_in_flight": 4,
    },
    "template_dir": "",
    "concurrency": 4,
    "curation": {"max_paper_chars": 24000},
    "generation": {"temperature": 0.7, "regen_attempts": 2},
    "bm25": {"k1": 1.2, "b": 0.75},
    "split": {"ratios": [80, 15, 5], "seed": 13},
    "retrieval": {"ks": [1, 5, 20, 100], "mrr_cutoff": 100},
    "rag": {"ks": [0, 1, 5], "chunk_size": 100, "max_pairs": 0},
    "embedding": {"enabled": False, "kind": "mock", "dim": 16, "endpoint": "", "model": ""},
    "entailment": {"kind": "mock", "endpoint": "", "model": ""},
    "filter_labels_path": "",
}


def _same_type(default: Any, value: Any) -> bool:
    """Whether `value` has its default's JSON type: an int may stand for a
    float, a bool never for a number, and list items match the default's."""
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_type(default[0], v) for v in value)
    return isinstance(value, type(default))


def _merge(defaults: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key!r}")
        if not _same_type(defaults[key], value):
            raise ConfigError(
                f"config key {path}{key!r} must match the type of its default, got {value!r}"
            )
        if isinstance(value, dict):
            value = _merge(defaults[key], value, f"{path}{key}.")
        out[key] = value
    return out


def merged(user: dict) -> dict:
    return _merge(DEFAULTS, user, "")


def digest(user: dict) -> str:
    return hashlib.sha256(
        json.dumps(merged(user), sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
