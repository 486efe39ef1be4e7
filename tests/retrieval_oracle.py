"""Per-unit BM25 reference that the weighted postings of
`scirforge.retrieval` are checked against, a brute-force gold rank over
per-dataset maxima that `rank_of`'s count is checked against, and the
ranking that `rank_of` gives a vector of unit scores.

A plain module, not hypothesis-gated, so that both `test_retrieval.py` and
`test_oracle_properties.py` can import it."""
from __future__ import annotations

import math
from typing import Sequence

from scirforge.retrieval import Index, _okapi_idf, rank_of, tokenize


def idf(index: Index, term: str) -> float:
    """Okapi idf of a seen term; terms absent from the corpus weigh zero."""
    if term not in index.postings:
        return 0.0
    return _okapi_idf(index.n_units, len(index.postings[term][0]))


def bm25_score(
    index: Index, terms: Sequence[str], unit_id: int, k1: float, b: float
) -> float:
    """Score one unit against a term list; repeated terms accumulate.

    The per-unit reference for score_units: term frequencies and the length
    normalisation come from the units' own texts, not from the weighted
    postings.  Token counts are integers, so their mean is exact.
    """
    if not 0 <= unit_id < index.n_units:
        raise ValueError(f"unit {unit_id} not in index")
    lengths = [len(tokenize(unit.text)) for unit in index.units]
    avg = sum(lengths) / len(lengths)
    unit_terms = tokenize(index.units[unit_id].text)
    score = 0.0
    for term in terms:
        tf = float(unit_terms.count(term))
        if tf == 0.0:
            continue
        norm = k1 * (1.0 - b + b * (lengths[unit_id] / avg))
        score += idf(index, term) * (tf * (k1 + 1.0)) / (tf + norm)
    return score


def dataset_maxima(unit_scores, owners) -> dict:
    """Each owner's best unit score, by a plain loop over the units."""
    best = {}
    for score, d in zip(list(unit_scores), list(owners)):
        best[d] = max(best.get(d, -math.inf), float(score))
    return best


def brute_rank(unit_scores, unit_datasets, gold: int) -> int:
    """Gold's 1-based place when datasets sort by (-best unit score,
    position)."""
    best = dataset_maxima(unit_scores, unit_datasets)
    return sorted(best, key=lambda d: (-best[d], d)).index(gold) + 1


def ranking(index: Index, unit_scores) -> list[tuple[str, float]]:
    """(dataset id, best unit score) for every dataset, in the order of their
    `rank_of` ranks, which are 1..n for finite scores."""
    n = len(index.dataset_ids)
    ranks = [rank_of(unit_scores, index.unit_datasets, d) for d in range(n)]
    assert sorted(ranks) == list(range(1, n + 1)), ranks
    best = dataset_maxima(unit_scores, [u.dataset_id for u in index.units])
    order = sorted(range(n), key=ranks.__getitem__)
    return [(index.dataset_ids[d], best[index.dataset_ids[d]]) for d in order]
