"""QA evaluation and corpus analysis: entailment-gated accuracy, ROUGE-L for
long answers, cognitive-level classification, the diversity index, and the
per-type statistics table.
"""
from __future__ import annotations

import re
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

from . import kernels
from .core import (
    AnswerForm,
    CognitiveLevel,
    COGNITIVE_LEVELS,
    QAPair,
    QUESTION_TYPE_ORDER,
    QuestionType,
    ResponseParseError,
    SHORT_TYPES,
    answer_form,
    word_count,
)
from .gateway import EntailmentScorer, Gateway
from .prompts import ask
from .retrieval import PassageStore, tokenize


def entailment_correct(
    prediction: str, reference: str, scorer: EntailmentScorer
) -> bool:
    """Correct iff the prediction entails the reference with score > 0.5."""
    score = scorer.entail(prediction, reference)
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"entailment score {score} out of [0, 1]")
    return score > 0.5


def rouge_l(prediction: str, reference: str) -> tuple[float, float, float]:
    """Token-level ROUGE-L (precision, recall, balanced F)."""
    pred = tokenize(prediction)
    ref = tokenize(reference)
    if not pred or not ref:
        return 0.0, 0.0, 0.0
    lcs = kernels.lcs_length(pred, ref)
    p = lcs / len(pred)
    r = lcs / len(ref)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


# ---------------------------------------------------------------------------
# Cognitive levels
# ---------------------------------------------------------------------------

_LEVEL_RE = re.compile(r"\bc([1-6])\b")


def parse_cognitive_level(response: str) -> CognitiveLevel:
    codes = set(_LEVEL_RE.findall(response.lower()))
    if len(codes) != 1:
        raise ResponseParseError(
            f"expected exactly one level code, found {len(codes)}", raw=response
        )
    return CognitiveLevel(f"C{codes.pop()}")


def classify_cognitive_level(question: str, gateway: Gateway, template: str) -> CognitiveLevel:
    if not question.strip():
        raise ValueError("question must be nonempty")
    return parse_cognitive_level(ask(gateway, "cognitive", template, question=question))


@dataclass(frozen=True)
class LevelDistribution:
    counts: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.counts) != 6 or any(c < 0 for c in self.counts):
            raise ValueError("need six nonnegative counts")

    @classmethod
    def from_levels(cls, levels: Sequence[CognitiveLevel]) -> "LevelDistribution":
        counts = {lv: 0 for lv in COGNITIVE_LEVELS}
        for lv in levels:
            counts[lv] += 1
        return cls(tuple(counts[lv] for lv in COGNITIVE_LEVELS))

    @property
    def total(self) -> int:
        return sum(self.counts)


def diversity_index(dist: LevelDistribution) -> float:
    """1 - sum of squared level proportions; 0 degenerate, 5/6 at uniform."""
    total = dist.total
    if total == 0:
        raise ValueError("empty distribution")
    return 1.0 - sum((c / total) ** 2 for c in dist.counts)


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsRow:
    label: str
    count: int
    pct: float
    avg_question_words: float
    avg_answer_words: float


def aggregate_stats(pairs: Sequence[QAPair]) -> list[StatsRow]:
    """Per-type counts and mean word lengths, with Short/Long/Total rollups."""
    if not pairs:
        raise ValueError("no pairs to aggregate")
    total = len(pairs)
    by_type: dict[QuestionType, list[QAPair]] = {q: [] for q in QUESTION_TYPE_ORDER}
    for p in pairs:
        by_type[p.qtype].append(p)

    def row(label: str, group: list[QAPair]) -> StatsRow:
        n = len(group)
        if n == 0:
            return StatsRow(label, 0, 0.0, 0.0, 0.0)
        return StatsRow(
            label,
            n,
            100.0 * n / total,
            sum(word_count(p.question) for p in group) / n,
            sum(word_count(p.answer) for p in group) / n,
        )

    rows: list[StatsRow] = []
    short_group: list[QAPair] = []
    long_group: list[QAPair] = []
    for q in QUESTION_TYPE_ORDER:
        if q in SHORT_TYPES:
            rows.append(row(q.value, by_type[q]))
            short_group.extend(by_type[q])
    rows.append(row("Short", short_group))
    for q in QUESTION_TYPE_ORDER:
        if q not in SHORT_TYPES:
            rows.append(row(q.value, by_type[q]))
            long_group.extend(by_type[q])
    rows.append(row("Long", long_group))
    rows.append(row("Total", list(pairs)))
    return rows


# ---------------------------------------------------------------------------
# RAG answering and per-pair evaluation
# ---------------------------------------------------------------------------


def rag_answer(
    question: str,
    store: PassageStore,
    gateway: Gateway,
    k: int,
    template: str,
) -> str:
    """Answer with the top-k retrieved passages prepended (k=0: no retrieval);
    a store with fewer than k passages gives all it has."""
    if k < 0:
        raise ValueError("k must be >= 0")
    passages = ""
    if k > 0:
        passages = "".join(
            f"Passage {i}: {t}\n\n" for i, t in enumerate(store.top_k(question, k), start=1)
        )
    return ask(gateway, "rag", template, passages=passages, question=question).strip()


@dataclass(frozen=True)
class QAEvalRecord:
    """A `qaeval.jsonl` row: one pair answered with k passages."""

    pair_id: str
    model: str
    prediction: str
    correct: bool
    qtype: QuestionType
    rouge_l: float | None = None
    _: KW_ONLY
    k: int
    level: CognitiveLevel

    def __post_init__(self):
        is_long = answer_form(self.qtype) is AnswerForm.LONG
        if is_long and self.rouge_l is None:
            raise ValueError(f"{self.pair_id}: long-form record needs rouge_l")
        if not is_long and self.rouge_l is not None:
            raise ValueError(f"{self.pair_id}: short-form record must omit rouge_l")


def evaluate_pair(
    pair: QAPair, prediction: str, model: str, scorer: EntailmentScorer,
    k: int, level: CognitiveLevel,
) -> QAEvalRecord:
    """Entailment-gated correctness, plus ROUGE-L F for long-form types, of
    a prediction made from k passages for a question of `level`."""
    correct = entailment_correct(prediction, pair.answer, scorer)
    rouge = None
    if answer_form(pair.qtype) is AnswerForm.LONG:
        rouge = rouge_l(prediction, pair.answer)[2]
    return QAEvalRecord(pair_id=pair.id, model=model, prediction=prediction, correct=correct,
                        qtype=pair.qtype, rouge_l=rouge, k=k, level=level)
