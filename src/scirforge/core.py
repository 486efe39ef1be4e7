"""Domain types shared by every pipeline stage, plus corpus splitting and JSONL I/O.

All records are immutable value objects; construction validates the hard
invariants so anything loaded from disk is known-good downstream.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Iterable, Iterator, TypeVar, get_args, get_origin, get_type_hints

R = TypeVar("R")


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class RecordError(PipelineError):
    """A record violates its invariants or cannot be parsed."""


class ResponseParseError(PipelineError):
    """A model response did not match the expected format.

    Carries the raw response so failures can be inspected or re-prompted.
    """

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------


class SectionLabel(str, Enum):
    ABSTRACT_INTRO = "AbstractIntro"
    RELATED_WORK = "RelatedWork"
    METHOD = "Method"
    EXPERIMENT = "Experiment"
    CONCLUSION = "Conclusion"
    NONE = "None"


class Aspect(str, Enum):
    BACKGROUND = "Background"
    RESEARCH_OBJECTIVE = "ResearchObjective"
    METHODS = "Methods"
    CHALLENGES = "Challenges"
    DATASET = "Dataset"
    FINDINGS = "Findings"

    @property
    def display(self) -> str:
        return _ASPECT_DISPLAY[self]


# Canonical aspect order used for prompt blocks and reports.
ASPECT_ORDER: tuple[Aspect, ...] = tuple(Aspect)

_ASPECT_DISPLAY = {
    Aspect.BACKGROUND: "Background",
    Aspect.RESEARCH_OBJECTIVE: "Research Objective",
    Aspect.METHODS: "Methods",
    Aspect.CHALLENGES: "Challenges",
    Aspect.DATASET: "Dataset",
    Aspect.FINDINGS: "Findings",
}


class AnswerForm(str, Enum):
    SHORT = "Short"
    LONG = "Long"


class QuestionType(str, Enum):
    """The 18 question categories, 5 short-answer and 13 long-answer."""

    VERIFICATION = "Verification"
    DISJUNCTIVE = "Disjunctive"
    CONCEPT_COMPLETION = "Concept Completion"
    FEATURE_SPECIFICATION = "Feature Specification"
    QUANTIFICATION = "Quantification"
    DEFINITION = "Definition"
    EXAMPLE = "Example"
    COMPARISON = "Comparison"
    INTERPRETATION = "Interpretation"
    CAUSAL_ANTECEDENT = "Causal Antecedent"
    CAUSAL_CONSEQUENCE = "Causal Consequence"
    GOAL_ORIENTATION = "Goal Orientation"
    INSTRUMENTAL_PROCEDURAL = "Instrumental/Procedural"
    ENABLEMENT = "Enablement"
    EXPECTATION = "Expectation"
    JUDGMENTAL = "Judgmental"
    ASSERTION = "Assertion"
    REQUEST_DIRECTIVE = "Request/Directive"


# Canonical listing order: the five short types, then the thirteen long ones.
QUESTION_TYPE_ORDER: tuple[QuestionType, ...] = tuple(QuestionType)
SHORT_TYPES: frozenset[QuestionType] = frozenset(QUESTION_TYPE_ORDER[:5])


def answer_form(qtype: QuestionType) -> AnswerForm:
    """Short/Long grouping of a question type, used to pick evaluation metrics."""
    return AnswerForm.SHORT if qtype in SHORT_TYPES else AnswerForm.LONG


def _normalize_type_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_TYPE_ALIASES: dict[str, QuestionType] = {
    _normalize_type_name(q.value): q for q in QuestionType
}
_TYPE_ALIASES.update(
    {
        "instrumentalorprocedural": QuestionType.INSTRUMENTAL_PROCEDURAL,
        "instrumentalprocedural": QuestionType.INSTRUMENTAL_PROCEDURAL,
        "procedural": QuestionType.INSTRUMENTAL_PROCEDURAL,
        "requestordirective": QuestionType.REQUEST_DIRECTIVE,
        "request": QuestionType.REQUEST_DIRECTIVE,
        "directive": QuestionType.REQUEST_DIRECTIVE,
        "causalantecedents": QuestionType.CAUSAL_ANTECEDENT,
        "causalconsequences": QuestionType.CAUSAL_CONSEQUENCE,
    }
)


def match_question_type(name: str) -> QuestionType | None:
    """Map a free-form type name to its canonical value, or None if unknown.

    Matching ignores case and every non-alphanumeric character, and accepts
    a few common spelling variants ("Instrumental or Procedural").
    """
    return _TYPE_ALIASES.get(_normalize_type_name(name))


class Provenance(str, Enum):
    WITH_PAPER = "WithPaper"
    METADATA_ONLY = "MetadataOnly"


class Decision(str, Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


class CognitiveLevel(str, Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"


COGNITIVE_LEVELS: tuple[CognitiveLevel, ...] = tuple(CognitiveLevel)


def word_count(text: str) -> int:
    """Whitespace-token count."""
    return len(text.split())


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    title: str
    description: str = ""
    topics: tuple[str, ...] = ()
    linked_paper_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise RecordError("dataset id must be nonempty")
        if not self.title:
            raise RecordError(f"dataset {self.id}: title must be nonempty")
        if len(set(self.linked_paper_ids)) != len(self.linked_paper_ids):
            raise RecordError(f"dataset {self.id}: duplicate linked_paper_ids")
        object.__setattr__(self, "topics", tuple(self.topics))
        object.__setattr__(self, "linked_paper_ids", tuple(self.linked_paper_ids))


@dataclass(frozen=True)
class PaperRecord:
    id: str
    title: str = ""
    segments: tuple[tuple[SectionLabel, str], ...] = ()

    def __post_init__(self):
        if not self.id:
            raise RecordError("paper id must be nonempty")
        if not all(text for _, text in self.segments):
            raise RecordError(f"paper {self.id}: empty segment text")
        object.__setattr__(self, "segments", tuple(self.segments))

    def full_text(self) -> str:
        return "\n\n".join(text for _, text in self.segments)


@dataclass(frozen=True)
class AspectUnit:
    dataset_id: str
    paper_id: str
    aspect: Aspect
    text: str
    word_count: int = -1

    def __post_init__(self):
        if not self.text.strip():
            raise RecordError("aspect unit text must be nonempty")
        wc = word_count(self.text)
        if self.word_count < 0:
            object.__setattr__(self, "word_count", wc)
        elif self.word_count != wc:
            raise RecordError(
                f"aspect unit word_count {self.word_count} != token count {wc}"
            )


@dataclass(frozen=True)
class FilterVerdict:
    delta: float
    decision: Decision
    conf_with: float
    conf_without: float

    def __post_init__(self):
        expected = Decision.ACCEPT if self.delta > 0 else Decision.REJECT
        if self.decision is not expected:
            raise RecordError(
                f"verdict decision {self.decision.value} inconsistent with delta {self.delta}"
            )


@dataclass(frozen=True)
class QAPair:
    id: str
    dataset_id: str
    qtype: QuestionType
    question: str
    answer: str
    provenance: Provenance = Provenance.WITH_PAPER
    verdict: FilterVerdict | None = None

    def __post_init__(self):
        if not self.question.strip() or not self.answer.strip():
            raise RecordError(f"qa pair {self.id}: question and answer must be nonempty")


# ---------------------------------------------------------------------------
# Corpus splitting
# ---------------------------------------------------------------------------


def split_sizes(total: int, ratios: tuple[int, int, int]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of `total` into three ratio shares."""
    if sum(ratios) != 100 or min(ratios) < 0:
        raise ValueError(f"split ratios must be nonnegative and sum to 100, got {ratios}")
    base = [total * r // 100 for r in ratios]
    remainders = [total * r % 100 for r in ratios]  # exact, in hundredths
    leftover = total - sum(base)
    # Hand the leftover units to the largest remainders; ties go to the
    # earlier ratio so the result is order-stable.
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return tuple(base)  # type: ignore[return-value]


def split_corpus(
    records: Iterable[DatasetRecord], ratios: tuple[int, int, int], seed: int
) -> tuple[set[str], set[str], set[str]]:
    """Partition dataset ids into three disjoint sets with ratio-proportional sizes.

    Deterministic: ids are sorted, then shuffled with the seeded RNG, so the
    split depends only on (ids, ratios, seed).
    """
    ids = sorted(r.id for r in records)
    if not ids:
        raise ValueError("cannot split an empty corpus")
    if len(set(ids)) != len(ids):
        raise RecordError("duplicate dataset ids in corpus")
    sizes = split_sizes(len(ids), tuple(ratios))  # type: ignore[arg-type]
    rng = random.Random(seed)
    rng.shuffle(ids)
    a, b, _ = sizes
    return set(ids[:a]), set(ids[a : a + b]), set(ids[a + b :])


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------


# `json.dumps` with a non-default argument builds a new encoder per call;
# this one is shared (encoding keeps no state between calls).
JSON_LINE = json.JSONEncoder(ensure_ascii=False)


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write `chunks` to a `.tmp` sibling of `path`, then rename it over
    `path`, so a reader finds the old file or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(chunks)
        tmp.replace(path)
    except BaseException:
        # `chunks` may be computed as it is written: a failure there leaves
        # the old `path` and no `.tmp`.
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class CountedRows:
    """Rows made while they are written, with their number declared up front:
    `len` is `count` before any row exists, and iterating runs `make()` and
    raises a PipelineError if it yields any other number of rows."""

    count: int
    make: Callable[[], Iterable[Any]]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Any]:
        made = 0
        for row in self.make():
            made += 1
            if made > self.count:
                raise PipelineError(f"made more rows than the {self.count} declared")
            yield row
        if made != self.count:
            raise PipelineError(f"made {made} rows, not the {self.count} declared")


def read_jsonl(path: Path) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, parsed value) for every nonblank line; a
    line that is not JSON yields a RecordError that says why in its place."""
    with Path(path).open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                row = RecordError(f"unparseable JSON: {exc}")
            yield lineno, row


class _Mismatch(Exception):
    """A JSON value unlike its annotation. The message has a `{}` for where
    the value is; `path` collects that, innermost first, as the error unwinds."""

    def __init__(self, message: str, *path: str):
        super().__init__(message)
        self.path = list(path)


# Annotation -> (JSON types that may stand for it, what an error says it must be).
_SCALARS = {str: (str, "a string"), bool: (bool, "true or false"),
            int: (int, "an integer"), float: ((int, float), "a number")}


def _same(value: Any) -> Any:
    return value


@functools.cache
def _codec(tp: Any) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """The one JSON type rule, compiled once per annotation into a reader
    and a writer. The reader returns a JSON value as `tp` or raises
    _Mismatch: an int may stand for a float (and becomes one) but a bool
    never for a number; a list stands for a tuple, item by item; a string
    for an enum, an object for a dataclass and null for ``X | None``. The
    writer makes the JSON value that reads back as that `tp` value: a list
    for a tuple, and so on; a record not of exactly the dataclass `tp`
    raises a RecordError."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _SCALARS:
        types, expected = _SCALARS[tp]

        def read_scalar(value):
            if isinstance(value, types) and (tp is bool or not isinstance(value, bool)):
                return float(value) if tp is float else value
            raise _Mismatch("{} must be " + expected)

        return read_scalar, _same
    if origin is UnionType:  # X | None
        read, write = _codec(next(a for a in args if a is not type(None)))
        return (lambda value: None if value is None else read(value),
                write if write is _same else lambda value: None if value is None else write(value))
    if origin is tuple:
        fixed = args[-1] is not Ellipsis
        readers, writers = zip(*(_codec(a) for a in args[: len(args) if fixed else 1]))
        expected = f"a list of {len(args)} items" if fixed else "a list"

        def read_items(value):
            if not isinstance(value, (list, tuple)) or fixed and len(value) != len(args):
                raise _Mismatch("{} must be " + expected)
            for i, item in enumerate(value):
                try:
                    yield readers[i if fixed else 0](item)
                except _Mismatch as exc:
                    exc.path.append(f"[{i}]")
                    raise

        def write_items(value):
            return [writers[i if fixed else 0](item) for i, item in enumerate(value)]

        return (lambda value: tuple(read_items(value)),
                list if all(w is _same for w in writers) else write_items)
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def read_enum(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # not a member's value, or unhashable
                raise _Mismatch("{} must be one of " + ", ".join(members)) from None

        return read_enum, lambda member: member.value
    hints = get_type_hints(tp)  # a dataclass: per field, its codec and whether it has a default
    plan = [
        (f.name, *_codec(hints[f.name]),
         f.default is not MISSING or f.default_factory is not MISSING)
        for f in fields(tp)
    ]

    def read_record(row):
        if not isinstance(row, dict):
            raise _Mismatch("{} must be an object")
        values = {}
        for name, read, _, optional in plan:
            value = row.get(name, MISSING)
            if value is MISSING:
                if optional:
                    continue
                raise _Mismatch("missing field {}", "." + name)
            try:
                values[name] = read(value)
            except _Mismatch as exc:
                exc.path.append("." + name)
                raise
        return tp(**values)

    def write_record(record):
        if type(record) is not tp:
            raise RecordError(f"expected a {tp.__name__} record, got {type(record).__name__}")
        return {name: write(getattr(record, name)) for name, _, write, _ in plan}

    return read_record, write_record


def json_value(tp: Any, value: Any) -> Any:
    """`value` read as the annotation `tp` by the one JSON type rule, which
    reads the config and reads and writes every record row; a value that
    does not fit raises a RecordError saying where (`verdict.delta must be a number`)."""
    try:
        return _codec(tp)[0](value)
    except _Mismatch as exc:
        where = "".join(reversed(exc.path)).lstrip(".")
        raise RecordError(exc.args[0].format(where or "value")) from None


def record_from_dict(cls: type[R], row: dict[str, Any]) -> R:
    """JSON row -> `cls` record: the dataclass is the row schema. Keys `cls`
    does not declare are ignored."""
    return json_value(cls, row)


def record_to_dict(record: Any) -> dict[str, Any]:
    """Record -> its JSON row, fields in declaration order: its type's writer."""
    return _codec(type(record))[1](record)


def write_jsonl(path: Path, records: Iterable[Any], cls: type) -> None:
    """Write each record as one JSON line, the row of the record type `cls`.
    A record of another type raises a RecordError and leaves the old file."""
    _, write = _codec(cls)
    write_atomic(path, (JSON_LINE.encode(write(r)) + "\n" for r in records))


def read_records(path: Path, cls: type[R]) -> Iterator[tuple[int, R | RecordError]]:
    """Yield (1-based line number, the row as a `cls` record) for every
    nonblank line of a JSONL file; a malformed row yields a RecordError
    that says why in place of its record."""
    for lineno, row in read_jsonl(path):
        if not isinstance(row, RecordError):
            try:
                if not isinstance(row, dict):
                    raise RecordError(f"expected a JSON object, got {type(row).__name__}")
                row = record_from_dict(cls, row)
            except (RecordError, ValueError, TypeError) as exc:
                row = RecordError(str(exc))
        yield lineno, row


def load_records(path: Path, cls: type[R]) -> list[R]:
    """Every row of a JSONL file as a `cls` record; a malformed row raises
    a RecordError naming the file and line."""
    records = []
    for lineno, got in read_records(path, cls):
        if isinstance(got, RecordError):
            raise RecordError(f"{Path(path).name}:{lineno}: {got}") from got
        records.append(got)
    return records
