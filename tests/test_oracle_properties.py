"""Property tests: the bit-parallel LCS and the argsort ranking against the
plain DP and the (-score, id) sort they replaced."""
import math
import random
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scirforge import kernels, retrieval  # noqa: E402
from scirforge.retrieval import DocUnit, IndexConfig, embed_search, index_from_units, search  # noqa: E402
from test_kernels import lcs_oracle  # noqa: E402


def _tokens(max_size):
    """Token lists over an alphabet of 1 to 5 symbols, so repeats are common."""
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), max_size=max_size)
    )


@settings(max_examples=150, deadline=None)
@given(_tokens(150), _tokens(150))
def test_lcs_matches_dp(a, b):
    assert kernels.lcs_length(a, b) == lcs_oracle(a, b)
    assert kernels.lcs_length(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) == (
        lcs_oracle(a, b)
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1001, 1400), st.integers(0, 40))
def test_lcs_matches_dp_on_long_side(seed, alphabet, long_len, short_len):
    # Over a thousand bits, so the masks span many machine words.
    rng = random.Random(seed)
    a = [rng.randrange(alphabet) for _ in range(long_len)]
    b = [rng.randrange(alphabet) for _ in range(short_len)]
    want = lcs_oracle(a, b)
    assert kernels.lcs_length(a, b) == want
    assert kernels.lcs_length(b, a) == want


def rank_oracle(scores, ids, k):
    """The ranking rule the argsort replaced: score descending, then id."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [(ids[i], scores[i]) for i in order]


def _dataset_scores(index, unit_scores):
    best = {}
    for unit, score in zip(index.units, unit_scores):
        best[unit.dataset_id] = max(best.get(unit.dataset_id, -math.inf), score)
    return [best[d] for d in index.dataset_ids]


def _index(owners):
    units = [DocUnit(f"d{o:02d}", "Metadata", f"unit {u}") for u, o in enumerate(owners)]
    return index_from_units(units, IndexConfig.WITHOUT_PAPER)


def _assert_ranking(ranked, want):
    assert [d for d, _ in ranked.entries] == [d for d, _ in want]
    assert [s for _, s in ranked.entries] == [s for _, s in want]


# Few distinct values, so most rankings are decided by the id tie-break.
_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_matches_sort_oracle(data):
    owners = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=30))
    index = _index(owners)
    unit_scores = np.array(
        data.draw(st.lists(_SCORES, min_size=len(owners), max_size=len(owners)))
    )
    k = data.draw(st.integers(1, len(index.dataset_ids) + 3))
    with mock.patch.object(retrieval, "score_units", return_value=unit_scores):
        ranked = search(index, "query", k)
    want = rank_oracle(_dataset_scores(index, unit_scores), index.dataset_ids, k)
    _assert_ranking(ranked, want)


class _FixedQuery:
    def __init__(self, vector):
        self.vector = vector

    def embed(self, texts):
        return np.array([self.vector] * len(texts), dtype=np.float64)


def _cosine(row, query):
    # Small integer vectors keep every dot product and squared norm exact,
    # so this agrees with embed_search's numpy arithmetic bit for bit.
    dot = sum(r * q for r, q in zip(row, query))
    qnorm = math.sqrt(sum(q * q for q in query)) or 1.0
    denom = math.sqrt(sum(r * r for r in row)) * qnorm
    return float(dot) / (denom or 1.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_embed_search_matches_sort_oracle(data):
    owners = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=30))
    index = _index(owners)
    vec = st.lists(st.integers(-1, 2), min_size=3, max_size=3)
    rows = data.draw(st.lists(vec, min_size=len(owners), max_size=len(owners)))
    query = data.draw(vec)
    k = data.draw(st.integers(1, len(index.dataset_ids) + 3))
    ranked = embed_search(
        index, np.array(rows, dtype=np.float64), _FixedQuery(query), "query", k
    )
    sims = [_cosine(row, query) for row in rows]
    want = rank_oracle(_dataset_scores(index, sims), index.dataset_ids, k)
    _assert_ranking(ranked, want)
