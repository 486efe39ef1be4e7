"""Run configuration: one declarative JSON file controls every stage.

The frozen dataclasses below are the config schema: each key is declared
once, as a field whose default applies when the file leaves the key out
and whose annotation gives its JSON type (`core.json_value`, the rule
record rows are read and written by).  `BackendConfig` is the `backend` section.
Relative paths inside the file resolve against the file's own directory,
so a config can travel with its fixture data.  The config digest is
computed over the merged (defaults-applied) document with the file's raw
values, before path resolution, making it stable across checkouts.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, get_type_hints

from .core import PipelineError, RecordError, json_value
from .gateway import BackendConfig


class ConfigError(PipelineError):
    pass


@dataclass(frozen=True)
class Curation:
    max_paper_chars: int = 24000


@dataclass(frozen=True)
class Generation:
    temperature: float = 0.7
    regen_attempts: int = 2


@dataclass(frozen=True)
class BM25:
    k1: float = 1.2
    b: float = 0.75


@dataclass(frozen=True)
class Split:
    ratios: tuple[int, ...] = (80, 15, 5)
    seed: int = 13


@dataclass(frozen=True)
class Retrieval:
    ks: tuple[int, ...] = (1, 5, 20, 100)
    mrr_cutoff: int = 100


@dataclass(frozen=True)
class Rag:
    ks: tuple[int, ...] = (0, 1, 5)
    chunk_size: int = 100
    max_pairs: int = 0


@dataclass(frozen=True)
class Embedding:
    enabled: bool = False
    kind: str = "mock"
    dim: int = 16
    endpoint: str = ""
    model: str = ""


@dataclass(frozen=True)
class Entailment:
    kind: str = "mock"
    endpoint: str = ""
    model: str = ""


@dataclass(frozen=True)
class RunConfig:
    backend: BackendConfig
    curation: Curation
    generation: Generation
    bm25: BM25
    split: Split
    retrieval: Retrieval
    rag: Rag
    embedding: Embedding
    entailment: Entailment
    template_dir: str = ""
    concurrency: int = 4
    filter_labels_path: str = ""
    # sha256 of the merged document, set by load_config; not a config key.
    digest: str = field(default="", metadata={"config_key": False})


# Keys holding a path, which resolves against the config file's directory.
_PATHS = ("script_path", "cache_dir", "template_dir", "filter_labels_path")


def _read(cls: type, user: dict, path: str, base: Path) -> tuple[Any, dict]:
    """`cls` read from one config object, and its merged document: the
    object's raw values over the declared defaults."""
    keys = {f.name: f for f in fields(cls) if f.metadata.get("config_key", True)}
    for key in user:
        if key not in keys:
            raise ConfigError(f"unknown config key {path}{key!r}")
    types = get_type_hints(cls)
    values, document = {}, {}
    for key, f in keys.items():
        value = user.get(key, {} if is_dataclass(types[key]) else f.default)
        try:
            if is_dataclass(types[key]) and isinstance(value, dict):
                values[key], document[key] = _read(types[key], value, f"{path}{key}.", base)
            else:
                values[key], document[key] = json_value(types[key], value), value
        except RecordError:
            raise ConfigError(
                f"config key {path}{key!r} must match the type of its default, got {value!r}"
            ) from None
        if key in _PATHS and value:
            values[key] = str(base / value)
    try:
        return cls(**values), document
    except ValueError as exc:  # BackendConfig's own checks name its field first
        raise ConfigError(f"{path}{exc}") from exc


def _check(config: RunConfig) -> None:
    """Every rule beyond the JSON types, so that a config that loads can run."""
    for name in ("embedding", "entailment"):
        section = getattr(config, name)
        if section.kind not in ("mock", "http"):
            raise ConfigError(f"{name}.kind must be mock or http, got {section.kind!r}")
        if getattr(section, "enabled", True) and section.kind == "http" and not section.endpoint:
            raise ConfigError(f"{name}.endpoint must be set when {name}.kind is http")
    emb, ratios = config.embedding, config.split.ratios
    retrieval_ks, rag_ks = config.retrieval.ks, config.rag.ks
    for broken, message in (
        (emb.enabled and emb.kind == "mock" and emb.dim < 2,
         "embedding.dim must be >= 2 when the mock embedding is enabled"),
        (config.entailment.kind == "mock" and not config.backend.script_path,
         "entailment.kind mock replays backend.script_path, which is empty"),
        (len(ratios) != 3, "split.ratios must have three entries"),
        (sum(ratios) != 100 or min(ratios) < 0,
         f"split.ratios must be nonnegative and sum to 100, got {list(ratios)}"),
        (config.generation.regen_attempts < 0, "generation.regen_attempts must be >= 0"),
        # Outside these, BM25 weights can be 0/0; ranks are counted on finite scores.
        (not 0 <= config.bm25.k1 < math.inf, "bm25.k1 must be finite and >= 0"),
        (not 0 <= config.bm25.b <= 1, "bm25.b must be in [0, 1]"),
        (config.concurrency < 1, "concurrency must be >= 1"),
        (config.rag.chunk_size < 1, "rag.chunk_size must be >= 1"),
        (not retrieval_ks or min(retrieval_ks) < 1, "retrieval.ks must be positive integers"),
        (config.retrieval.mrr_cutoff < 1, "retrieval.mrr_cutoff must be >= 1"),
        (not rag_ks or min(rag_ks) < 0, "rag.ks must be nonnegative integers"),
        # A repeated k would repeat a report column or every RAG call at that k.
        (len(set(retrieval_ks)) < len(retrieval_ks), "retrieval.ks must not repeat a k"),
        (len(set(rag_ks)) < len(rag_ks), "rag.ks must not repeat a k"),
    ):
        if broken:
            raise ConfigError(message)


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
    config, document = _read(RunConfig, user, "", path.parent.resolve())
    text = json.dumps(document, sort_keys=True, ensure_ascii=False)
    config = replace(config, digest=hashlib.sha256(text.encode("utf-8")).hexdigest())
    _check(config)
    return config
