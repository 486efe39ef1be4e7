"""Dataset retrieval benchmark: BM25 over dual index configurations, an
embedding-based search path, passage chunking for RAG, and rank metrics.

Document units are one metadata unit per dataset plus, in the WithPaper
configuration, one unit per verified aspect passage.  A dataset's score is
the maximum over its units; ties break by ascending dataset id so rankings
are reproducible.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Aspect, AspectUnit, DatasetRecord, PipelineError
from .gateway import EmbeddingClient

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


class IndexConfig(str, Enum):
    WITH_PAPER = "WithPaper"
    WITHOUT_PAPER = "WithoutPaper"


@dataclass(frozen=True)
class DocUnit:
    dataset_id: str
    source: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("doc unit text must be nonempty")
        if self.source != "Metadata":
            prefix, _, aspect = self.source.partition(":")
            if prefix != "Aspect" or not aspect:
                raise ValueError(f"unknown doc unit source {self.source!r}")
            Aspect(aspect)


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        ids = [d for d, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("ranked list has duplicate dataset ids")
        scores = [s for _, s in self.entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranked list scores must be non-increasing")

    def rank_of(self, dataset_id: str) -> int | None:
        """1-based rank, or None when absent."""
        for i, (d, _) in enumerate(self.entries, start=1):
            if d == dataset_id:
                return i
        return None


@dataclass
class Index:
    config: IndexConfig
    units: tuple[DocUnit, ...]
    dataset_ids: tuple[str, ...]
    unit_dataset_idx: np.ndarray
    # term -> (ascending unit ids holding it, the term's BM25 weight in each)
    postings: dict[str, tuple[np.ndarray, np.ndarray]]
    k1: float
    b: float

    @property
    def n_units(self) -> int:
        return len(self.units)


def _okapi_idf(n_units: int, df: int) -> float:
    return math.log((n_units - df + 0.5) / (df + 0.5) + 1.0)


def build_index(
    datasets: Sequence[DatasetRecord],
    aspects: Sequence[AspectUnit],
    config: IndexConfig,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Index:
    """One metadata unit per dataset; WithPaper adds one unit per aspect."""
    if not datasets:
        raise ValueError("cannot index an empty corpus")
    known = {d.id for d in datasets}
    units = [
        DocUnit(d.id, "Metadata", f"{d.title} {d.description}".strip())
        for d in datasets
    ]
    if config is IndexConfig.WITH_PAPER:
        for a in aspects:
            if a.dataset_id not in known:
                raise PipelineError(f"aspect references unknown dataset {a.dataset_id}")
            units.append(DocUnit(a.dataset_id, f"Aspect:{a.aspect.value}", a.text))
    return index_from_units(units, IndexConfig(config), k1=k1, b=b)


def index_from_units(
    units: Sequence[DocUnit],
    config: IndexConfig,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Index:
    """Weighted postings for a fixed unit list.

    Each posting stores its term's full BM25 contribution to that unit, so a
    query only adds weights up.
    """
    if not units:
        raise ValueError("cannot index an empty unit list")
    dataset_ids = tuple(sorted({u.dataset_id for u in units}))
    ds_index = {d: i for i, d in enumerate(dataset_ids)}
    unit_dataset_idx = np.array([ds_index[u.dataset_id] for u in units], dtype=np.int64)

    lengths = np.empty(len(units), dtype=np.float64)
    term_hits: dict[str, list[tuple[int, float]]] = {}
    for uid, unit in enumerate(units):
        terms = tokenize(unit.text)
        lengths[uid] = float(len(terms))
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t, c in counts.items():
            term_hits.setdefault(t, []).append((uid, float(c)))

    avg_len = float(lengths.mean())
    rel = lengths / avg_len if avg_len > 0 else np.zeros_like(lengths)
    norm = k1 * (1.0 - b + b * rel)

    postings = {}
    for t, hits in term_hits.items():
        unit_ids = np.array([uid for uid, _ in hits], dtype=np.int64)
        tfs = np.array([tf for _, tf in hits], dtype=np.float64)
        idf = _okapi_idf(len(units), len(hits))
        postings[t] = (unit_ids, idf * (tfs * (k1 + 1.0)) / (tfs + norm[unit_ids]))
    return Index(
        config=IndexConfig(config),
        units=tuple(units),
        dataset_ids=dataset_ids,
        unit_dataset_idx=unit_dataset_idx,
        postings=postings,
        k1=k1,
        b=b,
    )


def score_units(index: Index, query: str) -> np.ndarray:
    """BM25 score of every unit for the query."""
    scores = np.zeros(index.n_units, dtype=np.float64)
    for term in tokenize(query):
        if term in index.postings:
            unit_ids, weights = index.postings[term]
            # A posting lists each unit once, so the fancy-index += is safe.
            scores[unit_ids] += weights
    return scores


def _rank_datasets(index: Index, unit_scores: np.ndarray, k: int) -> RankedList:
    # Every dataset owns at least its metadata unit, so the -inf fill never
    # survives the max-aggregation.
    ds_scores = np.full(len(index.dataset_ids), -np.inf, dtype=np.float64)
    np.maximum.at(ds_scores, index.unit_dataset_idx, unit_scores)
    # dataset_ids is sorted, so a stable sort breaks score ties by ascending id.
    order = np.argsort(-ds_scores, kind="stable")[:k]
    ids = [index.dataset_ids[i] for i in order.tolist()]
    return RankedList(tuple(zip(ids, ds_scores[order].tolist())))


def search(index: Index, query: str, k: int) -> RankedList:
    """Rank datasets by max unit score, descending, ties by ascending id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _rank_datasets(index, score_units(index, query), k)


# ---------------------------------------------------------------------------
# Rank metrics
# ---------------------------------------------------------------------------


def recall_at_k(ranks: Sequence[int | None], k: int) -> float:
    """Fraction of queries whose gold rank (None when unranked) is at most k."""
    if not ranks:
        raise ValueError("no ranks to score")
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = 0
    for rank in ranks:
        if rank is not None and rank <= k:
            hits += 1
    return hits / len(ranks)


def mrr_at(ranks: Sequence[int | None], cutoff: int = 100) -> float:
    """Mean reciprocal gold rank (None when unranked), zero beyond the cutoff."""
    if not ranks:
        raise ValueError("no ranks to score")
    total = 0.0
    for rank in ranks:
        if rank is not None and rank <= cutoff:
            total += 1.0 / rank
    return total / len(ranks)


# ---------------------------------------------------------------------------
# Embedding search
# ---------------------------------------------------------------------------


def embed_corpus(index: Index, client: EmbeddingClient) -> np.ndarray:
    """Embed every unit's text; rows L2-normalized by the client contract."""
    return client.embed([u.text for u in index.units])


def embed_search(
    index: Index,
    unit_vectors: np.ndarray,
    query_vector: np.ndarray,
    k: int,
    unit_norms: np.ndarray | None = None,
) -> RankedList:
    """Cosine ranking of an embedded query, with the same aggregation and
    tie rules as search.  `unit_norms`, the row norms of `unit_vectors`, is
    computed when not given; callers ranking many queries pass it once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if unit_vectors.ndim != 2 or unit_vectors.shape[0] != index.n_units:
        raise ValueError("unit_vectors shape does not match the index")
    if query_vector.shape[0] != unit_vectors.shape[1]:
        raise ValueError(
            f"query dim {query_vector.shape[0]} != corpus dim {unit_vectors.shape[1]}"
        )
    if unit_norms is None:
        unit_norms = np.linalg.norm(unit_vectors, axis=1)
    qnorm = float(np.linalg.norm(query_vector))
    denom = unit_norms * (qnorm if qnorm > 0 else 1.0)
    denom[denom == 0.0] = 1.0
    sims = (unit_vectors @ query_vector) / denom
    return _rank_datasets(index, sims, k)


# ---------------------------------------------------------------------------
# Passages for RAG
# ---------------------------------------------------------------------------


def chunk_passages(text: str, chunk_size: int = 100) -> list[str]:
    """Non-overlapping windows of whitespace tokens, single-space rejoined."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    tokens = text.split()
    return [
        " ".join(tokens[i : i + chunk_size]) for i in range(0, len(tokens), chunk_size)
    ]


class PassageStore:
    """BM25-searchable store of fixed-size passages for RAG prompting.

    Each chunk is indexed as its own pseudo-dataset, so unit-level ranking
    falls out of the dataset machinery unchanged.
    """

    def __init__(self, passages: Sequence[str], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        self._texts = tuple(p for p in passages if p.strip())
        if not self._texts:
            raise ValueError("no passages to index")
        units = [
            DocUnit(f"p{i:06d}", "Metadata", text) for i, text in enumerate(self._texts)
        ]
        self._index = index_from_units(units, IndexConfig.WITHOUT_PAPER, k1=k1, b=b)

    @classmethod
    def from_index(cls, index: Index, chunk_size: int = 100, **kwargs) -> "PassageStore":
        passages: list[str] = []
        for unit in index.units:
            passages.extend(chunk_passages(unit.text, chunk_size))
        return cls(passages, **kwargs)

    def top_k(self, query: str, k: int) -> list[str]:
        """Top-k passage texts in rank order."""
        ranked = search(self._index, query, k)
        return [self._texts[int(pid[1:])] for pid, _ in ranked.entries]
