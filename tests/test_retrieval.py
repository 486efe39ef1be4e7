"""BM25 index, dual configurations, ranking metrics, passage store."""
import math
import random

import numpy as np
import pytest

from scirforge.core import Aspect, AspectUnit, DatasetRecord, PipelineError
from scirforge.gateway import MockEmbeddingClient
from scirforge.retrieval import (
    DocUnit,
    IndexConfig,
    PassageStore,
    chunk_passages,
    doc_units,
    embed_search,
    index_from_units,
    mrr_at,
    rank_of,
    recall_at_k,
    search,
    tokenize,
)

from retrieval_oracle import bm25_score, idf, ranking

K1, B = 1.2, 0.75


def build_index(datasets, aspects, config, k1, b):
    return index_from_units(doc_units(datasets, aspects, config), k1, b)


def test_tokenize():
    assert tokenize("Hello, World!  x2") == ["hello", "world", "x2"]
    assert tokenize("under_score") == ["under", "score"]
    assert tokenize("") == []


def test_doc_unit_validation():
    DocUnit("d1", "Metadata", "text")
    DocUnit("d1", "Aspect:Methods", "text")
    with pytest.raises(ValueError):
        DocUnit("d1", "Metadata", "  ")
    with pytest.raises(ValueError):
        DocUnit("d1", "Aspect:NoSuch", "text")
    with pytest.raises(ValueError):
        DocUnit("d1", "Banner", "text")


DS = [
    DatasetRecord(id="d1", title="arctic ice cores", description="deep ice drilling"),
    DatasetRecord(id="d2", title="river discharge logs", description="gauging stations"),
]
ASPECTS = [
    AspectUnit("d1", "p1", Aspect.METHODS, "we drilled ice cores by hand"),
    AspectUnit("d2", "p2", Aspect.DATASET, "discharge from twelve gauging stations"),
]


def test_build_index_configs_differ_by_aspect_units():
    without = build_index(DS, ASPECTS, IndexConfig.WITHOUT_PAPER, K1, B)
    with_p = build_index(DS, ASPECTS, IndexConfig.WITH_PAPER, K1, B)
    assert without.n_units == 2
    assert with_p.n_units == 4
    extra = [u for u in with_p.units if u.source != "Metadata"]
    assert {u.source for u in extra} == {"Aspect:Methods", "Aspect:Dataset"}
    # metadata units are identical in both configurations
    assert [u.text for u in without.units] == [
        u.text for u in with_p.units if u.source == "Metadata"
    ]


def test_build_index_errors():
    with pytest.raises(ValueError):
        build_index([], [], IndexConfig.WITHOUT_PAPER, K1, B)
    stray = [AspectUnit("d9", "p1", Aspect.METHODS, "text")]
    with pytest.raises(PipelineError):
        build_index(DS, stray, IndexConfig.WITH_PAPER, K1, B)


def test_idf_formula():
    index = build_index(DS, ASPECTS, IndexConfig.WITH_PAPER, K1, B)
    n = index.n_units
    df = len(index.postings["ice"][0])
    assert idf(index, "ice") == pytest.approx(math.log((n - df + 0.5) / (df + 0.5) + 1.0))
    assert idf(index, "zzz") == 0.0


def test_bm25_hand_computed():
    ds = [DatasetRecord(id="d1", title="a a b", description="")]
    index = build_index(ds, [], IndexConfig.WITHOUT_PAPER, K1, B)
    # one unit, len 3 == avg len, so norm = k1; idf = ln((1-1+.5)/(1+.5)+1)
    idf = math.log(1.0 / 3.0 + 1.0)
    tf = 2.0
    expected = idf * tf * (K1 + 1) / (tf + K1)
    assert bm25_score(index, ["a"], 0, K1, B) == pytest.approx(expected, abs=1e-12)
    # a duplicated query term accumulates once per occurrence
    assert bm25_score(index, ["a", "a"], 0, K1, B) == pytest.approx(2 * expected, abs=1e-12)


def test_search_ranks_and_breaks_ties_ascending():
    twins = [
        DatasetRecord(id="d2", title="same words here", description=""),
        DatasetRecord(id="d1", title="same words here", description=""),
    ]
    index = build_index(twins, [], IndexConfig.WITHOUT_PAPER, K1, B)
    scores = search(index, "same words")
    assert index.dataset_ids == ("d1", "d2")
    assert index.unit_datasets.tolist() == [1, 0]
    assert scores[0] == scores[1] > 0
    assert [rank_of(scores, index.unit_datasets, i) for i in range(2)] == [1, 2]


def test_search_dataset_score_is_max_over_units():
    index = build_index(DS, ASPECTS, IndexConfig.WITH_PAPER, K1, B)
    terms = tokenize("gauging stations discharge")
    scores = search(index, "gauging stations discharge")
    # One score per unit, each the unit's own BM25 score.
    assert scores.tolist() == pytest.approx(
        [bm25_score(index, terms, u, K1, B) for u in range(index.n_units)], abs=1e-12
    )
    unit_best = max(
        bm25_score(index, terms, u, K1, B)
        for u in range(index.n_units)
        if index.units[u].dataset_id == "d2"
    )
    # The counted rank puts d2 first, at its best unit's score.
    assert rank_of(scores, index.unit_datasets, index.dataset_ids.index("d2")) == 1
    top_id, top_score = ranking(index, scores)[0]
    assert top_id == "d2" and top_score == pytest.approx(unit_best, abs=1e-12)


def test_index_round_trip_through_units():
    index = build_index(DS, ASPECTS, IndexConfig.WITH_PAPER, K1, B)
    clone = index_from_units(list(index.units), K1, B)
    assert clone.postings.keys() == index.postings.keys()
    for term, (ids, weights) in index.postings.items():
        assert clone.postings[term][0].tobytes() == ids.tobytes()
        assert clone.postings[term][1].tobytes() == weights.tobytes()
    assert search(clone, "ice cores").tobytes() == search(index, "ice cores").tobytes()


def _gold_ranks(ranks):
    """Gold's rank among 100 descending scores where it sits at each given rank."""
    scores = np.arange(100, 0, -1, dtype=np.float64)
    return [rank_of(scores, np.arange(100), r - 1) for r in ranks]


def test_recall_at_k_oracle():
    ranks = _gold_ranks([1, 3, 50, 7])
    assert ranks == [1, 3, 50, 7]
    assert recall_at_k(ranks, 1) == pytest.approx(0.25)
    assert recall_at_k(ranks, 3) == pytest.approx(0.5)
    assert recall_at_k(ranks, 10) == pytest.approx(0.75)


def test_mrr_oracle_and_cutoff():
    ranks = _gold_ranks([1, 4, 50])
    assert mrr_at(ranks, 10) == pytest.approx((1.0 + 0.25 + 0.0) / 3)  # rank 50 beyond cutoff
    assert mrr_at(ranks, 3) == pytest.approx((1.0 + 0.0 + 0.0) / 3)  # rank 4 beyond cutoff
    assert mrr_at(ranks, 100) == pytest.approx((1.0 + 0.25 + 0.02) / 3)


def test_rank_of_counts_ties_before_gold():
    scores = np.array([2.0, 3.0, 2.0, -0.0, 0.0, 2.0])
    assert [rank_of(scores, np.arange(6), i) for i in range(6)] == [2, 1, 3, 5, 6, 4]
    # Several units per dataset: each dataset counts once, at its best unit.
    # Maxima are 0: 2.0, 1: 3.0, 2: 2.0, 3: 0.0, so ties at 2.0 break by position.
    owners = np.array([2, 1, 0, 3, 0, 1, 2, 0])
    scores = np.array([2.0, 3.0, 2.0, 0.0, 1.0, 3.0, -1.0, 2.0])
    assert [rank_of(scores, owners, d) for d in range(4)] == [2, 1, 3, 4]


def test_chunk_passages():
    text = " ".join(f"w{i}" for i in range(250))
    chunks = chunk_passages(text, chunk_size=100)
    assert len(chunks) == 3
    assert chunks[0].split()[0] == "w0" and chunks[1].split()[0] == "w100"
    assert len(chunks[2].split()) == 50
    assert chunk_passages("   ", chunk_size=100) == []
    with pytest.raises(ValueError):
        chunk_passages("a b", chunk_size=0)


def test_passage_store_top_k():
    store = PassageStore(["ice cores drilled deep", "river discharge logs"], k1=K1, b=B)
    top = store.top_k("ice cores", 1)
    assert top == ["ice cores drilled deep"]
    assert len(store.top_k("ice", 5)) <= 2
    with pytest.raises(ValueError):
        store.top_k("ice", 0)


def test_passage_store_from_index_chunks_units():
    index = build_index(DS, ASPECTS, IndexConfig.WITH_PAPER, K1, B)
    store = PassageStore.from_units(index.units, chunk_size=3, k1=K1, b=B)
    texts = store.top_k("gauging", 10)
    assert any("gauging" in t for t in texts)
    # the store holds the units' chunks, and every chunk respects the window size
    chunks = [c for u in index.units for c in chunk_passages(u.text, 3)]
    assert set(texts) <= set(chunks)
    assert all(len(c.split()) <= 3 for c in chunks)


def test_embed_search_matches_cosine_oracle():
    client = MockEmbeddingClient(dim=12)
    index = build_index(DS, ASPECTS, IndexConfig.WITH_PAPER, K1, B)
    vectors = client.embed([u.text for u in index.units])
    assert vectors.shape == (index.n_units, 12)
    query = "ice drilling"
    qv = client.embed([query])[0]
    norms = np.linalg.norm(vectors, axis=1)
    scores = embed_search(index, vectors, qv, norms, float(np.linalg.norm(qv)))
    # The mock's vectors have unit norm, so each unit's cosine is its dot product.
    sims = vectors @ qv
    assert scores.tolist() == pytest.approx(sims.tolist(), abs=1e-12)
    # The caller's query norm gives the bits of the norm taken per call,
    # a zero query included (its scores are all 0).
    for v in (qv, np.zeros(12)):
        qnorm = float(np.linalg.norm(v))
        per_call = (vectors @ v) / (norms * (qnorm if qnorm > 0 else 1.0))
        assert embed_search(index, vectors, v, norms, qnorm).tobytes() == per_call.tobytes()
    best = {}
    for u, sim in enumerate(sims):
        d = index.units[u].dataset_id
        best[d] = max(best.get(d, -np.inf), float(sim))
    expected = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    ranked = ranking(index, scores)
    assert [d for d, _ in ranked] == [d for d, _ in expected]
    assert [s for _, s in ranked] == pytest.approx([s for _, s in expected], abs=1e-12)


def test_random_corpora_against_bruteforce():
    rng = random.Random(99)
    vocab = [f"t{i}" for i in range(12)]
    for _ in range(30):
        n_ds = rng.randrange(1, 6)
        datasets = []
        aspects = []
        for i in range(n_ds):
            title = " ".join(rng.choices(vocab, k=rng.randrange(1, 6)))
            datasets.append(DatasetRecord(id=f"d{i}", title=title))
            for _ in range(rng.randrange(0, 3)):
                text = " ".join(rng.choices(vocab, k=rng.randrange(1, 8)))
                aspects.append(AspectUnit(f"d{i}", "p", Aspect.METHODS, text))
        index = build_index(datasets, aspects, IndexConfig.WITH_PAPER, K1, B)
        query = " ".join(rng.choices(vocab, k=3))
        scores = search(index, query)
        terms = tokenize(query)
        want = {
            d.id: max(
                bm25_score(index, terms, u, K1, B)
                for u in range(index.n_units)
                if index.units[u].dataset_id == d.id
            )
            for d in datasets
        }
        expected = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [d for d, _ in ranking(index, scores)] == [d for d, _ in expected]
        # Each dataset's counted rank, as a gold, is its place in that sort.
        for place, (d, _) in enumerate(expected, start=1):
            assert rank_of(scores, index.unit_datasets, index.dataset_ids.index(d)) == place
