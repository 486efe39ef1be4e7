"""Dataset retrieval benchmark: BM25 over dual index configurations, an
embedding-based search path, passage chunking for RAG, and rank metrics.

Document units are one metadata unit per dataset plus, in the WithPaper
configuration, one unit per verified aspect passage.  Search scores units;
a dataset's score is the maximum over its units, and a gold dataset's rank
is counted from the unit scores, with ties broken by ascending dataset id so
rankings are reproducible.
"""
from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Aspect, AspectUnit, DatasetRecord, PipelineError

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


@dataclass
class Index:
    units: tuple[DocUnit, ...]
    dataset_ids: tuple[str, ...]
    # Each unit's dataset, as a position in `dataset_ids`.
    unit_datasets: np.ndarray
    # term -> (ascending unit ids holding it, the term's BM25 weight in each)
    postings: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def n_units(self) -> int:
        return len(self.units)


def _okapi_idf(n_units: int, df: int) -> float:
    return math.log((n_units - df + 0.5) / (df + 0.5) + 1.0)


def doc_units(
    datasets: Sequence[DatasetRecord],
    aspects: Sequence[AspectUnit],
    config: IndexConfig,
) -> list[DocUnit]:
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
    return units


def index_from_units(units: Sequence[DocUnit], k1: float, b: float) -> Index:
    """Weighted postings for a fixed unit list.

    Each posting stores its term's full BM25 contribution to that unit, so a
    query only adds weights up.
    """
    if not units:
        raise ValueError("cannot index an empty unit list")
    dataset_ids = tuple(sorted({u.dataset_id for u in units}))
    ds_index = {d: i for i, d in enumerate(dataset_ids)}

    lengths = np.empty(len(units), dtype=np.float64)
    # term -> (the units holding it, its count in each), in typed arrays: one
    # machine word per hit and field rather than a tuple of two objects.
    term_hits: dict[str, tuple[array, array]] = {}
    for uid, unit in enumerate(units):
        terms = tokenize(unit.text)
        lengths[uid] = float(len(terms))
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t, c in counts.items():
            hits = term_hits.get(t)
            if hits is None:
                hits = term_hits[t] = (array("q"), array("d"))
            hits[0].append(uid)
            hits[1].append(c)

    avg_len = float(lengths.mean())
    rel = lengths / avg_len if avg_len > 0 else np.zeros_like(lengths)
    norm = k1 * (1.0 - b + b * rel)

    postings = {}
    for t, (hit_units, hit_counts) in term_hits.items():
        unit_ids = np.array(hit_units, dtype=np.int64)
        tfs = np.array(hit_counts, dtype=np.float64)
        idf = _okapi_idf(len(units), len(hit_units))
        postings[t] = (unit_ids, idf * (tfs * (k1 + 1.0)) / (tfs + norm[unit_ids]))
    return Index(
        units=tuple(units),
        dataset_ids=dataset_ids,
        unit_datasets=np.array([ds_index[u.dataset_id] for u in units], dtype=np.int64),
        postings=postings,
    )


def score_units(index: Index, query: str) -> np.ndarray:
    """BM25 score of every unit for the query."""
    postings = [index.postings[t] for t in tokenize(query) if t in index.postings]
    if not postings:
        return np.zeros(index.n_units, dtype=np.float64)
    # bincount adds the weights in query-token order onto 0.0, as a per-term
    # `scores[unit_ids] += weights` loop does, so every bit is the same.
    return np.bincount(
        np.concatenate([unit_ids for unit_ids, _ in postings]),
        weights=np.concatenate([weights for _, weights in postings]),
        minlength=index.n_units,
    )


def search(index: Index, query: str) -> np.ndarray:
    """Every unit's BM25 score for the query; `rank_of` ranks datasets by
    them."""
    return score_units(index, query)


# ---------------------------------------------------------------------------
# Rank metrics
# ---------------------------------------------------------------------------


def rank_of(unit_scores: np.ndarray, unit_datasets: np.ndarray, gold: int) -> int:
    """1-based rank of dataset `gold` when datasets rank by their best unit
    score descending, ties by ascending dataset position (over an index,
    ascending id): gold's place in a stable argsort of the negated dataset
    maxima, for any scores but NaN.  `unit_datasets` is each unit's dataset.

    With s gold's best unit score, the datasets ahead of gold are those with
    a unit above s and those before gold with a unit equal to s; one flag per
    dataset counts each of them once, so no dataset maximum is built."""
    # Gold has a few units; Python's max over them costs less than numpy's.
    s = max(unit_scores[unit_datasets == gold].tolist())
    contenders = (unit_scores >= s).nonzero()[0]
    owners = unit_datasets[contenders]
    # Positions run below the unit count, so that many flags cover them all.
    ahead = np.zeros(len(unit_scores), dtype=bool)
    ahead[owners[(unit_scores[contenders] > s) | (owners < gold)]] = True
    return 1 + int(np.count_nonzero(ahead))


def recall_at_k(ranks: Sequence[int], k: int) -> float:
    """Fraction of queries whose gold rank is at most k."""
    if not ranks:
        raise ValueError("no ranks to score")
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for rank in ranks if rank <= k) / len(ranks)


def mrr_at(ranks: Sequence[int], cutoff: int) -> float:
    """Mean reciprocal gold rank, zero beyond the cutoff."""
    if not ranks:
        raise ValueError("no ranks to score")
    # A plain loop, because sum() over floats rounds differently from Python 3.12 on.
    total = 0.0
    for rank in ranks:
        if rank <= cutoff:
            total += 1.0 / rank
    return total / len(ranks)


# ---------------------------------------------------------------------------
# Embedding search
# ---------------------------------------------------------------------------


def embed_search(
    index: Index, unit_vectors: np.ndarray, query_vector: np.ndarray,
    unit_norms: np.ndarray, query_norm: float,
) -> np.ndarray:
    """Every unit's cosine similarity to an embedded query, ranked by
    `rank_of` as search's BM25 scores are.  `unit_norms` are the row norms of
    `unit_vectors` and `query_norm` the norm of `query_vector`, each computed
    once however many searches use it."""
    if unit_vectors.ndim != 2 or unit_vectors.shape[0] != index.n_units:
        raise ValueError("unit_vectors shape does not match the index")
    if query_vector.shape[0] != unit_vectors.shape[1]:
        raise ValueError(
            f"query dim {query_vector.shape[0]} != corpus dim {unit_vectors.shape[1]}"
        )
    denom = unit_norms * (query_norm if query_norm > 0 else 1.0)
    if not denom.all():
        denom[denom == 0.0] = 1.0
    return (unit_vectors @ query_vector) / denom


# ---------------------------------------------------------------------------
# Passages for RAG
# ---------------------------------------------------------------------------


def chunk_passages(text: str, chunk_size: int) -> list[str]:
    """Non-overlapping windows of whitespace tokens, single-space rejoined."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    tokens = text.split()
    return [
        " ".join(tokens[i : i + chunk_size]) for i in range(0, len(tokens), chunk_size)
    ]


class PassageStore:
    """BM25-searchable store of fixed-size passages for RAG prompting.

    Each chunk is indexed as a unit, and passages rank by their unit scores;
    none belongs to a dataset, so all share the empty dataset id.
    """

    def __init__(self, passages: Sequence[str], k1: float, b: float):
        self._texts = tuple(passages)
        self._index = index_from_units([DocUnit("", "Metadata", t) for t in self._texts], k1, b)

    @classmethod
    def from_units(
        cls, units: Sequence[DocUnit], chunk_size: int, k1: float, b: float
    ) -> "PassageStore":
        passages: list[str] = []
        for unit in units:
            passages.extend(chunk_passages(unit.text, chunk_size))
        return cls(passages, k1, b)

    def __len__(self) -> int:
        """Number of passages."""
        return len(self._texts)

    def top_k(self, query: str, k: int) -> list[str]:
        """Top-k passage texts in rank order: the first k of a stable sort by
        descending score, so equal scores keep passage order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = search(self._index, query)
        if k == 1:
            # argmax takes the first of equal maxima, as the stable sort does.
            return [self._texts[int(scores.argmax())]]
        neg = -scores
        # Only passages scoring at least the m-th best can be among the top
        # m; sorting those, in passage order, ranks them as the full sort
        # would.
        m = min(k, len(neg))
        kth = np.partition(neg, m - 1)[m - 1]
        candidates = np.flatnonzero(neg <= kth)
        order = candidates[np.argsort(neg[candidates], kind="stable")[:m]]
        return [self._texts[i] for i in order.tolist()]
