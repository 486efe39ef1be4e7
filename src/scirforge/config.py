"""Run configuration: one declarative JSON file controls every stage.

Relative paths inside the file resolve against the file's own directory, so
a config can travel with its fixture data.  The config digest is computed
over the merged (defaults-applied) document before path resolution, making
it stable across checkouts.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .core import PipelineError
from .gateway import BackendConfig


class ConfigError(PipelineError):
    pass


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


@dataclass(frozen=True)
class RunConfig:
    document: dict
    digest: str
    base_dir: Path

    @property
    def backend(self) -> BackendConfig:
        b = dict(self.document["backend"])
        for key in ("script_path", "cache_dir"):
            if b[key]:
                b[key] = str(self._resolve(b[key]))
        return BackendConfig(**b)

    def _resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def template_dir(self) -> Path | None:
        raw = self.document["template_dir"]
        return self._resolve(raw) if raw else None

    @property
    def concurrency(self) -> int:
        return int(self.document["concurrency"])

    @property
    def max_paper_chars(self) -> int:
        return int(self.document["curation"]["max_paper_chars"])

    @property
    def gen_temperature(self) -> float:
        return float(self.document["generation"]["temperature"])

    @property
    def regen_attempts(self) -> int:
        return int(self.document["generation"]["regen_attempts"])

    @property
    def k1(self) -> float:
        return float(self.document["bm25"]["k1"])

    @property
    def b(self) -> float:
        return float(self.document["bm25"]["b"])

    @property
    def split_ratios(self) -> tuple[int, int, int]:
        ratios = self.document["split"]["ratios"]
        if len(ratios) != 3:
            raise ConfigError("split.ratios must have three entries")
        return tuple(int(r) for r in ratios)  # type: ignore[return-value]

    @property
    def split_seed(self) -> int:
        return int(self.document["split"]["seed"])

    @property
    def retrieval_ks(self) -> tuple[int, ...]:
        return tuple(int(k) for k in self.document["retrieval"]["ks"])

    @property
    def mrr_cutoff(self) -> int:
        return int(self.document["retrieval"]["mrr_cutoff"])

    @property
    def rag_ks(self) -> tuple[int, ...]:
        return tuple(int(k) for k in self.document["rag"]["ks"])

    @property
    def chunk_size(self) -> int:
        return int(self.document["rag"]["chunk_size"])

    @property
    def bench_max_pairs(self) -> int:
        return int(self.document["rag"]["max_pairs"])

    @property
    def embedding(self) -> dict:
        return self.document["embedding"]

    @property
    def entailment(self) -> dict:
        return self.document["entailment"]

    @property
    def filter_labels_path(self) -> Path | None:
        raw = self.document["filter_labels_path"]
        return self._resolve(raw) if raw else None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        user = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    merged = _merge(DEFAULTS, user, "")
    digest = hashlib.sha256(
        json.dumps(merged, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    config = RunConfig(document=merged, digest=digest, base_dir=path.parent.resolve())
    config.backend  # validate eagerly
    for section in ("embedding", "entailment"):
        kind = merged[section]["kind"]
        if kind not in ("mock", "http"):
            raise ConfigError(f"{section}.kind must be mock or http, got {kind!r}")
        used = merged[section].get("enabled", True)
        if used and kind == "http" and not merged[section]["endpoint"]:
            raise ConfigError(f"{section}.endpoint must be set when {section}.kind is http")
    if merged["entailment"]["kind"] == "mock" and not merged["backend"]["script_path"]:
        raise ConfigError("entailment.kind mock replays backend.script_path, which is empty")
    ratios = config.split_ratios
    if sum(ratios) != 100 or min(ratios) < 0:
        raise ConfigError(
            f"split.ratios must be nonnegative and sum to 100, got {list(ratios)}"
        )
    if config.regen_attempts < 0:
        raise ConfigError("generation.regen_attempts must be >= 0")
    if config.concurrency < 1:
        raise ConfigError("concurrency must be >= 1")
    if config.chunk_size < 1:
        raise ConfigError("rag.chunk_size must be >= 1")
    if any(k < 1 for k in config.retrieval_ks) or not config.retrieval_ks:
        raise ConfigError("retrieval.ks must be positive integers")
    if config.mrr_cutoff < 1:
        raise ConfigError("retrieval.mrr_cutoff must be >= 1")
    if any(k < 0 for k in config.rag_ks) or not config.rag_ks:
        raise ConfigError("rag.ks must be nonnegative integers")
    return config
