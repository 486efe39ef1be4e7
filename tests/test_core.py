"""Core record types, question taxonomy plumbing, splits, and persistence."""
import random
import re
from dataclasses import dataclass

import pytest

from scirforge.core import (
    AnswerForm,
    CountedRows,
    PipelineError,
    Aspect,
    AspectUnit,
    DatasetRecord,
    Decision,
    FilterVerdict,
    PaperRecord,
    Provenance,
    QAPair,
    QUESTION_TYPE_ORDER,
    QuestionType,
    RecordError,
    SectionLabel,
    SHORT_TYPES,
    answer_form,
    load_records,
    match_question_type,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    split_corpus,
    split_sizes,
    word_count,
    write_jsonl,
)
from scirforge.retrieval import DocUnit


def test_taxonomy_shape():
    assert len(QUESTION_TYPE_ORDER) == 18
    assert len(SHORT_TYPES) == 5
    assert answer_form(QuestionType.VERIFICATION) is AnswerForm.SHORT
    assert answer_form(QuestionType.DEFINITION) is AnswerForm.LONG
    longs = [q for q in QUESTION_TYPE_ORDER if answer_form(q) is AnswerForm.LONG]
    assert len(longs) == 13


@pytest.mark.parametrize(
    "name,expected",
    [
        ("verification", QuestionType.VERIFICATION),
        ("  Concept completion ", QuestionType.CONCEPT_COMPLETION),
        ("concept-completion", QuestionType.CONCEPT_COMPLETION),
        ("Instrumental/Procedural", QuestionType.INSTRUMENTAL_PROCEDURAL),
        ("instrumental or procedural", QuestionType.INSTRUMENTAL_PROCEDURAL),
        ("procedural", QuestionType.INSTRUMENTAL_PROCEDURAL),
        ("Request/Directive", QuestionType.REQUEST_DIRECTIVE),
        ("request", QuestionType.REQUEST_DIRECTIVE),
        ("causal antecedents", QuestionType.CAUSAL_ANTECEDENT),
        ("CAUSAL CONSEQUENCE", QuestionType.CAUSAL_CONSEQUENCE),
        ("no such type", None),
        ("", None),
    ],
)
def test_match_question_type(name, expected):
    assert match_question_type(name) is expected


def test_word_count():
    assert word_count("") == 0
    assert word_count("  a  b\tc\nd ") == 4


def test_dataset_record_validation():
    with pytest.raises(RecordError):
        DatasetRecord(id="", title="t")
    with pytest.raises(RecordError):
        DatasetRecord(id="d1", title="")
    with pytest.raises(RecordError):
        DatasetRecord(id="d1", title="t", linked_paper_ids=("p1", "p1"))
    d = DatasetRecord(id="d1", title="t", topics=["a"], linked_paper_ids=["p1"])
    assert d.topics == ("a",) and d.linked_paper_ids == ("p1",)


def test_paper_record_validation():
    p = PaperRecord(id="p1", title="t", segments=((SectionLabel.METHOD, "we did x"),))
    assert p.full_text() == "we did x"
    two = PaperRecord(
        id="p2",
        title="t",
        segments=((SectionLabel.NONE, "a"), (SectionLabel.METHOD, "b")),
    )
    assert two.full_text() == "a\n\nb"
    with pytest.raises(RecordError):
        PaperRecord(id="p3", title="t", segments=((SectionLabel.METHOD, ""),))


def test_aspect_unit_word_count():
    u = AspectUnit("d1", "p1", Aspect.METHODS, "three word text".replace("  ", " "))
    assert u.word_count == 3
    with pytest.raises(RecordError):
        AspectUnit("d1", "p1", Aspect.METHODS, "two words", word_count=5)
    with pytest.raises(RecordError):
        AspectUnit("d1", "p1", Aspect.METHODS, "   ")


def test_filter_verdict_consistency():
    FilterVerdict(delta=0.2, decision=Decision.ACCEPT, conf_with=0.5, conf_without=0.3)
    with pytest.raises(RecordError):
        FilterVerdict(delta=-0.1, decision=Decision.ACCEPT, conf_with=0.2, conf_without=0.3)
    with pytest.raises(RecordError):
        FilterVerdict(delta=0.0, decision=Decision.ACCEPT, conf_with=0.3, conf_without=0.3)


def test_qapair_validation():
    with pytest.raises(RecordError):
        QAPair(id="x", dataset_id="d", qtype=QuestionType.DEFINITION, question=" ", answer="a")
    pair = QAPair(id="x", dataset_id="d", qtype=QuestionType.DEFINITION, question="q", answer="a")
    assert pair.verdict is None


def test_split_sizes_largest_remainder():
    assert split_sizes(10, (80, 15, 5)) == (8, 2, 0)
    assert split_sizes(5, (80, 15, 5)) == (4, 1, 0)
    assert split_sizes(0, (80, 15, 5)) == (0, 0, 0)
    assert split_sizes(3, (34, 33, 33)) == (1, 1, 1)  # remainders .02, .99, .99
    # Exact remainders: .6, .8, .6 and .4, .2, .4; ties go to the earlier share.
    assert split_sizes(12, (80, 15, 5)) == (10, 2, 0)
    assert split_sizes(40, (96, 3, 1)) == (39, 1, 0)
    rng = random.Random(7)
    for _ in range(200):
        total = rng.randrange(0, 500)
        sizes = split_sizes(total, (80, 15, 5))
        assert sum(sizes) == total
        assert all(s >= 0 for s in sizes)


def test_split_sizes_rejects_negative_ratios():
    # Sums to 100, but used to come back as (12, 1, 0) for ten items.
    with pytest.raises(ValueError, match="nonnegative"):
        split_sizes(10, (110, -5, -5))


def test_split_corpus_deterministic_and_disjoint():
    records = [DatasetRecord(id=f"d{i:03d}", title="t") for i in range(40)]
    rng = random.Random(3)
    for seed in range(5):
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = split_corpus(shuffled, (80, 15, 5), seed=seed)
        b = split_corpus(records, (80, 15, 5), seed=seed)
        assert a == b  # input order must not matter
        train, dev, test = a
        assert len(train) == 32 and len(dev) == 6 and len(test) == 2
        assert not (set(train) & set(dev)) and not (set(dev) & set(test))
        assert set(train) | set(dev) | set(test) == {r.id for r in records}


def test_split_corpus_errors():
    with pytest.raises(ValueError):
        split_corpus([], (80, 15, 5), seed=0)
    dup = [DatasetRecord(id="d1", title="t"), DatasetRecord(id="d1", title="u")]
    with pytest.raises(RecordError):
        split_corpus(dup, (80, 15, 5), seed=0)


def test_jsonl_round_trip(tmp_path):
    records = [
        DatasetRecord(id="d1", title="t1", description="x", linked_paper_ids=("p1",)),
        DatasetRecord(id="d2", title="t2", topics=("a", "b")),
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records, DatasetRecord)
    assert load_records(path, DatasetRecord) == records
    rows = list(read_jsonl(path))
    assert rows[0][0] == 1 and rows[1][0] == 2


def _dataset(n: int) -> DatasetRecord:
    return DatasetRecord(id=f"d{n}", title="t")


def test_a_failed_write_keeps_the_old_file_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "x.jsonl"
    write_jsonl(path, [_dataset(0)], DatasetRecord)
    old = path.read_bytes()

    def rows():
        yield _dataset(1)
        raise RuntimeError("backend down")

    with pytest.raises(RuntimeError, match="backend down"):
        write_jsonl(path, rows(), DatasetRecord)
    for count in (1, 3):  # declares one row fewer, then one more, than it makes
        with pytest.raises(PipelineError, match=f"the {count} declared"):
            rows = CountedRows(count, lambda: (_dataset(i) for i in range(2)))
            write_jsonl(path, rows, DatasetRecord)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]


@dataclass(frozen=True)
class _NamedDataset(DatasetRecord):
    name: str = ""


@pytest.mark.parametrize("row, kind", [
    ({"id": "d1", "title": "t"}, "dict"),  # the row's own dict
    (PaperRecord("p1"), "PaperRecord"),
    (_NamedDataset("d1", "t"), "_NamedDataset"),  # a subclass writes other keys
])
def test_write_jsonl_refuses_a_row_not_of_the_declared_type(tmp_path, row, kind):
    path = tmp_path / "x.jsonl"
    write_jsonl(path, [_dataset(0)], DatasetRecord)
    old = path.read_bytes()
    with pytest.raises(RecordError, match=f"^expected a DatasetRecord record, got {kind}$"):
        write_jsonl(path, [_dataset(1), row], DatasetRecord)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]
    # A record nested in a row is refused the same way.
    pair = QAPair("q1", "d1", QuestionType.DEFINITION, "q", "a", verdict=row)
    with pytest.raises(RecordError, match=f"^expected a FilterVerdict record, got {kind}$"):
        write_jsonl(path, [pair], QAPair)
    assert path.read_bytes() == old


def test_counted_rows_has_its_length_before_any_row_is_made():
    made = []
    rows = CountedRows(2, lambda: (made.append(i) or i for i in range(2)))
    assert len(rows) == 2 and made == []
    assert list(rows) == [0, 1] and made == [0, 1]


def test_qapair_round_trip_with_verdict():
    pair = QAPair(
        id="d1:definition:1",
        dataset_id="d1",
        qtype=QuestionType.DEFINITION,
        question="q",
        answer="a",
        provenance=Provenance.METADATA_ONLY,
        verdict=FilterVerdict(0.25, Decision.ACCEPT, 0.5, 0.25),
    )
    d = record_to_dict(pair)
    assert d["qtype"] == "Definition" and d["provenance"] == "MetadataOnly"
    assert record_from_dict(QAPair, d) == pair


def test_record_from_dict_defaults():
    d = record_from_dict(DatasetRecord, {"id": "d1", "title": "t"})
    assert d.description == "" and d.topics == () and d.linked_paper_ids == ()
    assert record_from_dict(PaperRecord, {"id": "p1"}) == PaperRecord("p1", "", ())
    # Keys the record does not declare are ignored (verdict rows carry pair_id and model).
    row = {"pair_id": "q1", "delta": 0.5, "decision": "Accept", "conf_with": 0.75,
           "conf_without": 0.25, "model": "m"}
    assert record_from_dict(FilterVerdict, row) == FilterVerdict(0.5, Decision.ACCEPT, 0.75, 0.25)


# One valid row per record type, with the fields declared `str` and the
# fields without a default.
_ROWS = {
    DatasetRecord: ({"id": "d1", "title": "t"}, ("id", "title", "description"), ("id", "title")),
    PaperRecord: ({"id": "p1", "title": "t", "segments": [["Method", "x"]]}, ("id", "title"), ("id",)),
    AspectUnit: (
        {"dataset_id": "d1", "paper_id": "p1", "aspect": "Methods", "text": "we did x"},
        ("dataset_id", "paper_id", "text"),
        ("dataset_id", "paper_id", "aspect", "text"),
    ),
    FilterVerdict: (
        {"delta": 0.5, "decision": "Accept", "conf_with": 0.75, "conf_without": 0.25},
        (),
        ("delta", "decision", "conf_with", "conf_without"),
    ),
    QAPair: (
        {"id": "q1", "dataset_id": "d1", "qtype": "Definition", "question": "q?", "answer": "a"},
        ("id", "dataset_id", "question", "answer"),
        ("id", "dataset_id", "qtype", "question", "answer"),
    ),
    DocUnit: (
        {"dataset_id": "d1", "source": "Aspect:Methods", "text": "we did x"},
        ("dataset_id", "source", "text"),
        ("dataset_id", "source", "text"),
    ),
}
_BAD_ROWS = [
    (cls, {**row, name: ["x"]}, f"{name} must be a string")
    for cls, (row, strings, _) in _ROWS.items()
    for name in strings
] + [
    (cls, {k: v for k, v in row.items() if k != name}, f"missing field {name}")
    for cls, (row, _, required) in _ROWS.items()
    for name in required
] + [
    (cls, {**_ROWS[cls][0], **change}, message)
    for cls, change, message in [
        (DatasetRecord, {"linked_paper_ids": "p1"}, "linked_paper_ids must be a list"),
        (DatasetRecord, {"topics": ["a", 1]}, "topics[1] must be a string"),
        (AspectUnit, {"word_count": 3.0}, "word_count must be an integer"),
        (AspectUnit, {"word_count": True}, "word_count must be an integer"),
        (FilterVerdict, {"delta": True}, "delta must be a number"),
        (FilterVerdict, {"delta": "0.5"}, "delta must be a number"),
        (FilterVerdict, {"decision": "Maybe"}, "decision must be one of Accept, Reject"),
        (QAPair, {"verdict": "Accept"}, "verdict must be an object"),
        (QAPair, {"verdict": {"delta": "x", "decision": "Accept", "conf_with": 0.5,
                              "conf_without": 0.5}}, "verdict.delta must be a number"),
        (QAPair, {"verdict": {"delta": 0.5}}, "missing field verdict.decision"),
        (PaperRecord, {"segments": [["Method"]]}, "segments[0] must be a list of 2 items"),
        (PaperRecord, {"segments": [["Method", "x"], ["Results", "y"]]},
         "segments[1][0] must be one of AbstractIntro, RelatedWork, Method, Experiment,"
         " Conclusion, None"),
    ]
]


@pytest.mark.parametrize("cls", list(_ROWS), ids=lambda cls: cls.__name__)
def test_record_from_dict_reads_the_valid_row(cls):
    # So each bad row below fails only for the field it changes.
    assert isinstance(record_from_dict(cls, _ROWS[cls][0]), cls)


@pytest.mark.parametrize(
    "cls, row, message", _BAD_ROWS, ids=[f"{cls.__name__}-{msg}" for cls, _, msg in _BAD_ROWS]
)
def test_record_from_dict_names_the_bad_field(cls, row, message):
    with pytest.raises(RecordError, match=f"^{re.escape(message)}$"):
        record_from_dict(cls, row)


def test_record_from_dict_reads_ints_as_floats_and_lists_as_tuples():
    row = {"delta": 1, "decision": "Accept", "conf_with": 1, "conf_without": 0}
    verdict = record_from_dict(FilterVerdict, row)
    assert [type(getattr(verdict, k)) for k in ("delta", "conf_with", "conf_without")] == [float] * 3
    pair = record_from_dict(QAPair, {**_ROWS[QAPair][0], "verdict": row})
    assert pair.verdict == verdict and pair.qtype is QuestionType.DEFINITION
    assert record_from_dict(QAPair, {**_ROWS[QAPair][0], "verdict": None}).verdict is None
    paper = record_from_dict(PaperRecord, {"id": "p1", "segments": [["Method", "x"]]})
    assert paper.segments == ((SectionLabel.METHOD, "x"),)


def test_load_records_names_file_and_line(tmp_path):
    path = tmp_path / "datasets.jsonl"
    path.write_text('{"id": "d1", "title": "t"}\n\n{"id": ["x"], "title": "t"}\n', encoding="utf-8")
    with pytest.raises(RecordError, match=r"^datasets\.jsonl:3: id must be a string$"):
        load_records(path, DatasetRecord)
    path.write_text('{"id": "d1", "title": "t"}\nnot json\n', encoding="utf-8")
    with pytest.raises(RecordError, match=r"^datasets\.jsonl:2: unparseable JSON: "):
        load_records(path, DatasetRecord)
    path.write_text('[1, 2]\n', encoding="utf-8")
    with pytest.raises(RecordError, match=r"^datasets\.jsonl:1: expected a JSON object, got list$"):
        load_records(path, DatasetRecord)
    # Errors from the record's own checks get the same prefix.
    path.write_text('{"id": "d1", "title": ""}\n', encoding="utf-8")
    with pytest.raises(RecordError, match=r"^datasets\.jsonl:1: dataset d1: title must be nonempty$"):
        load_records(path, DatasetRecord)
