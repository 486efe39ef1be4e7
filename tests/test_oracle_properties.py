"""Property tests: fast paths against the plain versions they replaced.

The bit-parallel LCS against the DP, pre-split template rendering against
regex substitution, rank counting and the passage store's top-k against a
stable argsort and the (-score, id) sort, the gold rank counted from unit
scores against a sort of per-dataset maxima, eager BM25 weights against
per-unit scoring, one-pass BM25 scoring against the per-term loop, the
sorted sweep behind the filter curves against the per-threshold loop, and
the config sections against the defaults table and merge they replaced."""
import json
import math
import random
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import config_oracle  # noqa: E402
from scirforge import kernels, prompts, retrieval  # noqa: E402
from scirforge.config import load_config  # noqa: E402
from scirforge.retrieval import (  # noqa: E402
    DocUnit,
    embed_search,
    index_from_units,
    rank_of,
    score_units,
    search,
    tokenize,
)
from scirforge.seper import curve_points  # noqa: E402
from retrieval_oracle import bm25_score, brute_rank, dataset_maxima, ranking  # noqa: E402
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


def rank_oracle(scores, ids):
    """The ranking rule: score descending, then id."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], scores[i]) for i in order]


# Few distinct values (with both zeros), so most ranks are decided by ties.
_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
# Tie-heavy vectors, all-zero vectors, or any float but NaN.
_SCORE_VECTORS = (
    st.lists(_SCORES, min_size=1, max_size=40)
    | st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=40)
    | st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)
)


@settings(max_examples=300, deadline=None)
@given(_SCORE_VECTORS)
def test_rank_of_matches_stable_argsort(scores):
    # Every position is checked, so gold first and gold last are among them.
    # With one unit per dataset, a dataset's best score is its unit's.
    scores = np.array(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable").tolist()
    owners = np.arange(len(scores))
    assert [rank_of(scores, owners, i) for i in range(len(scores))] == [
        order.index(i) + 1 for i in range(len(scores))
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_counted_rank_matches_bruteforce(data):
    # 1 to 4 units per dataset, listed in shuffled dataset order.
    counts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    owners = data.draw(st.permutations([d for d, c in enumerate(counts) for _ in range(c)]))
    # Mostly few distinct values, so ties are common, and both infinities.
    values = _SCORES | st.sampled_from([-math.inf, math.inf]) | st.floats(allow_nan=False)
    unit_scores = np.array(
        data.draw(st.lists(values, min_size=len(owners), max_size=len(owners))), dtype=np.float64
    )
    if data.draw(st.booleans()):
        # Force a tie for the best score between the first and last datasets.
        first = owners.index(0)
        last = owners.index(len(counts) - 1)
        unit_scores[first] = unit_scores[last] = unit_scores.max()
    owners = np.array(owners, dtype=np.int64)
    # Every dataset as the gold, so gold first and gold last are among them.
    for gold in range(len(counts)):
        assert rank_of(unit_scores, owners, gold) == brute_rank(unit_scores, owners, gold)


def _index(owners):
    units = [DocUnit(f"d{o:02d}", "Metadata", f"unit {u}") for u, o in enumerate(owners)]
    return index_from_units(units, k1=1.2, b=0.75)


def _assert_ranking(index, scores, unit_scores):
    """One score per unit, and the ranking the counted ranks give is the
    (-dataset max, id) sort's."""
    assert scores.tolist() == list(unit_scores)
    best = dataset_maxima(unit_scores, [u.dataset_id for u in index.units])
    want = [best[d] for d in index.dataset_ids]
    assert ranking(index, scores) == rank_oracle(want, index.dataset_ids)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_matches_sort_oracle(data):
    # A permutation gives each dataset one unit; other lists give some
    # datasets several units.
    owners = data.draw(
        st.lists(st.integers(0, 11), min_size=1, max_size=30)
        | st.integers(1, 12).flatmap(lambda n: st.permutations(range(n)))
    )
    index = _index(owners)
    unit_scores = np.array(
        data.draw(st.lists(_SCORES, min_size=len(owners), max_size=len(owners)))
    )
    with mock.patch.object(retrieval, "score_units", return_value=unit_scores):
        scores = search(index, "query")
    _assert_ranking(index, scores, unit_scores)


@settings(max_examples=300, deadline=None)
@given(_SCORE_VECTORS, st.sampled_from(["1", "2", "n-1", "n", "n+1"]))
# Ties for the best score, where k = 1 takes the first passage holding it.
@example([1.0, 3.0, 0.25, 3.0], "1")
@example([-0.0, 0.0, 0.0], "1")
@example([3.0, 3.0, 3.0, 1.0], "2")
def test_top_k_matches_stable_argsort(scores, which):
    # argmax at k = 1, partial selection below n, the full sort at k >= n.
    n = len(scores)
    k = max(1, {"1": 1, "2": 2, "n-1": n - 1, "n": n, "n+1": n + 1}[which])
    texts = [f"passage {i}" for i in range(n)]
    store = retrieval.PassageStore(texts, k1=1.2, b=0.75)
    scores = np.array(scores, dtype=np.float64)
    with mock.patch.object(retrieval, "search", return_value=scores):
        got = store.top_k("query", k)
    assert got == [texts[i] for i in np.argsort(-scores, kind="stable")[:k]]


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
    vectors = np.array(rows, dtype=np.float64)
    qv = np.array(query, dtype=np.float64)
    scores = embed_search(
        index, vectors, qv, np.linalg.norm(vectors, axis=1), float(np.linalg.norm(qv))
    )
    _assert_ranking(index, scores, [_cosine(row, query) for row in rows])


def _render_by_regex(template, **values):
    """The regex substitution the pre-split templates replaced."""
    missing = set(prompts._PLACEHOLDER.findall(template)) - set(values)
    if missing:
        raise KeyError(f"template placeholders without values: {sorted(missing)}")
    return prompts._PLACEHOLDER.sub(lambda m: str(values[m.group(1)]), template)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["{a}", "{b_1}", "{B}", "{1a}", "{", "}", "{}", "x", " ", "{{a}}"]))
    .map("".join),
    st.dictionaries(st.sampled_from(["a", "b_1", "c"]), st.sampled_from(["", "v", "{a}"])),
)
def test_render_matches_regex_substitution(template, values):
    try:
        want = _render_by_regex(template, **values)
    except KeyError as exc:
        with pytest.raises(KeyError) as got:
            prompts.render(template, **values)
        assert got.value.args == exc.args
    else:
        assert prompts.render(template, **values) == want


_WORDS = ["ice", "core", "river", "gauge", "a", "b", "x1"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12)),
        min_size=1,
        max_size=15,
    ),
    st.lists(st.sampled_from(_WORDS + ["absent"]), max_size=8),
    st.floats(0.1, 3.0),
    st.floats(0.0, 1.0),
)
def test_score_units_matches_bm25_score_bitwise(units, query_terms, k1, b):
    index = index_from_units(
        [DocUnit(f"d{o}", "Metadata", " ".join(words)) for o, words in units],
        k1=k1,
        b=b,
    )
    query = " ".join(query_terms)
    want = np.array(
        [bm25_score(index, tokenize(query), u, k1, b) for u in range(index.n_units)]
    )
    assert score_units(index, query).tobytes() == want.tobytes()


def _score_units_by_term(index, query):
    """The per-term scatter-add that score_units' one bincount replaced."""
    scores = np.zeros(index.n_units, dtype=np.float64)
    for term in tokenize(query):
        if term in index.postings:
            unit_ids, weights = index.postings[term]
            scores[unit_ids] += weights
    return scores


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), min_size=1, max_size=15),
    # Few words, so queries repeat terms; "absent" and "nowhere" are in no unit.
    st.lists(st.sampled_from(_WORDS + ["absent", "nowhere"]), max_size=12),
    st.floats(0.1, 3.0),
    st.floats(0.0, 1.0),
)
def test_score_units_matches_per_term_loop_bitwise(units, query_terms, k1, b):
    index = index_from_units(
        [DocUnit(f"d{i:02d}", "Metadata", " ".join(words)) for i, words in enumerate(units)],
        k1=k1,
        b=b,
    )
    query = " ".join(query_terms)
    assert score_units(index, query).tobytes() == _score_units_by_term(index, query).tobytes()


def curve_points_oracle(deltas, labels):
    """The per-threshold recount the sorted sweep replaced."""
    positives = sum(1 for lab in labels if lab)
    negatives = len(labels) - positives
    pr, roc = [], []
    for threshold in sorted(set(deltas), reverse=True):
        tp = fp = 0
        for delta, label in zip(deltas, labels):
            if delta > threshold:
                if label:
                    tp += 1
                else:
                    fp += 1
        recall = tp / positives
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        pr.append((threshold, recall, precision))
        roc.append((threshold, fp / negatives, tp / positives))
    return tuple(pr), tuple(roc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_curve_points_matches_threshold_loop(data):
    # Few distinct values (with both zeros), so most thresholds are shared.
    delta = st.sampled_from([-0.5, -0.0, 0.0, 0.125, 0.3, 1.0]) | st.floats(-2.0, 2.0)
    pairs = data.draw(st.lists(st.tuples(delta, st.booleans()), min_size=2, max_size=40))
    labels = [lab for _, lab in pairs]
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    deltas = [d for d, _ in pairs]
    got, want = curve_points(deltas, labels), curve_points_oracle(deltas, labels)
    assert got == want
    # 0.0 == -0.0, so compare the thresholds' signs too: the CSVs print them.
    assert [repr(t) for t, *_ in got[0]] == [repr(t) for t, *_ in want[0]]


_NAME = st.text("abz./_-é", max_size=6)
_SET = _NAME.filter(bool)


def _some(required=None, **optional):
    """A config object with the `required` keys and any subset of the rest."""
    return st.fixed_dictionaries(required or {}, optional=optional)


@st.composite
def _ratios_list(draw):
    first = draw(st.integers(0, 100))
    second = draw(st.integers(0, 100 - first))
    return [first, second, 100 - first - second]


# Configs that load both before and after the section dataclasses (a repeated
# k has been rejected since; the oracle's merge predates that rule).
_CONFIGS = _some(
    {
        "backend": _some(
            {"script_path": _SET, "endpoint": _SET},
            kind=st.sampled_from(["mock", "http"]),
            model=_NAME,
            api_key_env=_NAME,
            cache_dir=_NAME,
            timeout=st.integers(1, 90) | st.floats(0.001, 90.0),
            max_retries=st.integers(0, 5),
            retry_backoff=st.integers(0, 2) | st.floats(0.0, 2.0),
            max_in_flight=st.integers(1, 8),
        )
    },
    template_dir=_NAME,
    concurrency=st.integers(1, 16),
    curation=_some(max_paper_chars=st.integers(-5, 50000)),
    generation=_some(temperature=st.integers(0, 2) | st.floats(0.0, 2.0),
                     regen_attempts=st.integers(0, 4)),
    bm25=_some(k1=st.integers(0, 3) | st.floats(0.0, 3.0),
               b=st.integers(0, 1) | st.floats(0.0, 1.0)),
    split=_some(ratios=_ratios_list(), seed=st.integers(-5, 10**6)),
    retrieval=_some(ks=st.lists(st.integers(1, 200), min_size=1, max_size=5, unique=True),
                    mrr_cutoff=st.integers(1, 200)),
    rag=_some(ks=st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True),
              chunk_size=st.integers(1, 500), max_pairs=st.integers(-3, 50)),
    embedding=(
        _some(enabled=st.booleans(), kind=st.just("mock"), dim=st.integers(2, 64),
              endpoint=_NAME, model=_NAME)
        | _some({"kind": st.just("http"), "endpoint": _SET},
                enabled=st.booleans(), dim=st.integers(-3, 64), model=_NAME)
        | _some({"enabled": st.just(False)}, kind=st.just("mock"), dim=st.integers(-3, 1))
    ),
    entailment=(
        _some(kind=st.just("mock"), endpoint=_NAME, model=_NAME)
        | _some({"kind": st.just("http"), "endpoint": _SET}, model=_NAME)
    ),
    filter_labels_path=_NAME,
)

# What the removed RunConfig properties resolved against the config's directory.
_PATH_KEYS = ("script_path", "cache_dir", "template_dir", "filter_labels_path")


def _effective(key, default, value, base):
    """A merged value as the removed properties returned it."""
    if key in _PATH_KEYS:
        return str(base / value) if value else ""
    if isinstance(default, list):
        return tuple(value)
    return type(default)(value)


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_config_sections_match_the_defaults_table_and_merge(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = load_config(path)
    assert config.digest == config_oracle.digest(doc)
    base = path.parent.resolve()
    for key, value in config_oracle.merged(doc).items():
        default = config_oracle.DEFAULTS[key]
        if isinstance(value, dict):
            pairs = [(getattr(getattr(config, key), k), _effective(k, default[k], v, base))
                     for k, v in value.items()]
        else:
            pairs = [(getattr(config, key), _effective(key, default, value, base))]
        for got, want in pairs:
            assert got == want and type(got) is type(want), (key, got, want)
