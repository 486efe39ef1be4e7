"""Property tests for split apportionment and the JSONL record format."""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scirforge.core import (  # noqa: E402
    DatasetRecord,
    Decision,
    FilterVerdict,
    Provenance,
    QAPair,
    QuestionType,
    load_datasets,
    load_qapairs,
    read_jsonl,
    split_sizes,
    write_jsonl,
)


@st.composite
def _ratios(draw):
    first = draw(st.integers(0, 100))
    second = draw(st.integers(0, 100 - first))
    return (first, second, 100 - first - second)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**20) | st.integers(0, 1000), _ratios())
def test_split_sizes_apportions_total(total, ratios):
    sizes = split_sizes(total, ratios)
    assert sum(sizes) == total
    for size, ratio in zip(sizes, ratios):
        assert abs(size - Fraction(total * ratio, 100)) < 1


_TEXT = st.text(min_size=1, max_size=30)


@st.composite
def _datasets(draw):
    ids = draw(st.lists(_TEXT, max_size=6, unique=True))
    return [
        DatasetRecord(
            id=i,
            title=draw(_TEXT),
            description=draw(st.text(max_size=30)),
            topics=tuple(draw(st.lists(st.text(max_size=10), max_size=3))),
            linked_paper_ids=tuple(draw(st.lists(_TEXT, max_size=3, unique=True))),
        )
        for i in ids
    ]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _verdicts(draw):
    delta = draw(_FINITE)
    decision = Decision.ACCEPT if delta > 0 else Decision.REJECT
    return FilterVerdict(delta, decision, draw(_FINITE), draw(_FINITE))


_NONBLANK = _TEXT.filter(str.strip)

_PAIRS = st.builds(
    QAPair,
    id=_TEXT,
    dataset_id=_TEXT,
    qtype=st.sampled_from(QuestionType),
    question=_NONBLANK,
    answer=_NONBLANK,
    provenance=st.sampled_from(Provenance),
    verdict=st.none() | _verdicts(),
)


@settings(max_examples=100, deadline=None)
@given(_datasets(), st.lists(_PAIRS, max_size=6))
def test_jsonl_round_trip_property(tmp_path_factory, datasets, pairs):
    # Any text, including line breaks and non-ASCII, stays on its own line.
    tmp = tmp_path_factory.mktemp("jsonl")
    write_jsonl(tmp / "d.jsonl", datasets)
    write_jsonl(tmp / "q.jsonl", pairs)
    assert load_datasets(tmp / "d.jsonl") == datasets
    assert load_qapairs(tmp / "q.jsonl") == pairs
    assert [n for n, _ in read_jsonl(tmp / "q.jsonl")] == list(range(1, len(pairs) + 1))
