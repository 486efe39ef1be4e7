"""Entailment-gated accuracy, ROUGE-L, cognitive levels, stats table, RAG."""
import random

import pytest

from scirforge.core import CognitiveLevel, QAPair, QuestionType, ResponseParseError
from scirforge.evalqa import (
    LevelDistribution,
    QAEvalRecord,
    aggregate_stats,
    diversity_index,
    entailment_correct,
    evaluate_pair,
    parse_cognitive_level,
    rag_answer,
    rouge_l,
)
from scirforge.prompts import load_template
from scirforge.retrieval import PassageStore, tokenize

from conftest import make_gateway

RAG = load_template("rag.txt")


class _FixedScorer:
    def __init__(self, value):
        self.value = value

    def entail(self, premise, hypothesis):
        return self.value


def test_entailment_threshold_is_strict():
    assert entailment_correct("p", "r", _FixedScorer(0.51))
    assert not entailment_correct("p", "r", _FixedScorer(0.5))
    assert not entailment_correct("p", "r", _FixedScorer(0.49))
    with pytest.raises(ValueError):
        entailment_correct("p", "r", _FixedScorer(1.5))


def _lcs_oracle(a, b):
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            if a[i] == b[j]:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return table[m][n]


def test_rouge_l_edges():
    assert rouge_l("", "anything") == (0.0, 0.0, 0.0)
    assert rouge_l("anything", "") == (0.0, 0.0, 0.0)
    assert rouge_l("same exact words", "same exact words") == (1.0, 1.0, 1.0)
    assert rouge_l("aaa bbb", "ccc ddd") == (0.0, 0.0, 0.0)


def test_rouge_l_hand_example():
    # pred: "the cat sat", ref: "the cat on the mat sat down"; LCS = 3
    p, r, f = rouge_l("the cat sat", "the cat on the mat sat down")
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(3 / 7)
    assert f == pytest.approx(2 * 1.0 * (3 / 7) / (1.0 + 3 / 7), abs=1e-12)


def test_rouge_l_against_oracle():
    rng = random.Random(202)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    for _ in range(100):
        pred = " ".join(rng.choices(vocab, k=rng.randrange(1, 20)))
        ref = " ".join(rng.choices(vocab, k=rng.randrange(1, 20)))
        lcs = _lcs_oracle(tokenize(pred), tokenize(ref))
        p, r, f = rouge_l(pred, ref)
        ep = lcs / len(tokenize(pred))
        er = lcs / len(tokenize(ref))
        assert p == pytest.approx(ep, abs=1e-12)
        assert r == pytest.approx(er, abs=1e-12)
        ef = 0.0 if ep + er == 0 else 2 * ep * er / (ep + er)
        assert f == pytest.approx(ef, abs=1e-12)


@pytest.mark.parametrize(
    "text,level",
    [
        ("C3", "C3"),
        ("the level is c5.", "C5"),
        ("Level: C1 (recall)", "C1"),
        ("c6\n", "C6"),
        ("I'd say C2, definitely C2", "C2"),
    ],
)
def test_parse_cognitive_level(text, level):
    assert parse_cognitive_level(text) is CognitiveLevel(level)


@pytest.mark.parametrize("text", ["", "no code here", "C1 or C2", "C7", "c0", "ac1b"])
def test_parse_cognitive_level_rejects(text):
    with pytest.raises(ResponseParseError):
        parse_cognitive_level(text)


def test_level_distribution():
    dist = LevelDistribution.from_levels(
        [CognitiveLevel.C1, CognitiveLevel.C1, CognitiveLevel.C4]
    )
    assert dist.counts == (2, 0, 0, 1, 0, 0)
    assert dist.total == 3
    with pytest.raises(ValueError):
        LevelDistribution((1, 2, 3))
    with pytest.raises(ValueError):
        LevelDistribution((1, 2, 3, 4, 5, -1))


def test_diversity_index_bounds():
    assert diversity_index(LevelDistribution((7, 0, 0, 0, 0, 0))) == 0.0
    uniform = diversity_index(LevelDistribution((3, 3, 3, 3, 3, 3)))
    assert uniform == pytest.approx(5 / 6, abs=1e-12)
    mixed = diversity_index(LevelDistribution((2, 1, 0, 0, 0, 1)))
    assert mixed == pytest.approx(1 - (0.25 + 1 / 16 + 1 / 16), abs=1e-12)
    with pytest.raises(ValueError):
        diversity_index(LevelDistribution((0,) * 6))


def _pair(i, qtype, q="what is it", a="the answer"):
    return QAPair(id=f"d1:x:{i}", dataset_id="d1", qtype=qtype, question=q, answer=a)


def test_aggregate_stats_layout_and_rollups():
    pairs = [
        _pair(1, QuestionType.VERIFICATION, "is it real", "yes"),
        _pair(2, QuestionType.VERIFICATION, "is it big", "no it is not"),
        _pair(3, QuestionType.DEFINITION, "define the term x", "a long form answer"),
    ]
    rows = aggregate_stats(pairs)
    assert len(rows) == 21  # 5 short + Short + 13 long + Long + Total
    labels = [r.label for r in rows]
    assert labels[5] == "Short" and labels[19] == "Long" and labels[20] == "Total"
    byl = {r.label: r for r in rows}
    assert byl["Verification"].count == 2
    assert byl["Verification"].pct == pytest.approx(200 / 3)
    assert byl["Verification"].avg_question_words == pytest.approx(3.0)
    assert byl["Verification"].avg_answer_words == pytest.approx(2.5)
    assert byl["Short"].count == 2
    assert byl["Long"].count == 1
    assert byl["Definition"].avg_answer_words == pytest.approx(4.0)
    assert byl["Total"].count == 3 and byl["Total"].pct == pytest.approx(100.0)
    assert byl["Comparison"].count == 0 and byl["Comparison"].pct == 0.0
    with pytest.raises(ValueError):
        aggregate_stats([])


RAG_ENTRIES = [
    {
        "kind": "chat",
        "stage": "rag",
        "match": r"Passage 1:.*Question: ([^\n]+)",
        "response": "with passages: {m1}",
    },
    {
        "kind": "chat",
        "stage": "rag",
        "match": r"Question: ([^\n]+)",
        "response": "closed book: {m1}",
    },
]


def test_rag_answer_closed_book(tmp_path):
    # At k = 0 the store is not searched: the prompt holds no passage.
    gw = make_gateway(tmp_path, RAG_ENTRIES)
    store = PassageStore(["thaw depth readings"], k1=1.2, b=0.75)
    out = rag_answer("what is thaw depth?", store, gw, 0, RAG)
    assert out == "closed book: what is thaw depth?"


def test_rag_answer_with_retrieval(tmp_path):
    gw = make_gateway(tmp_path, RAG_ENTRIES)
    store = PassageStore(["thaw depth readings", "unrelated text"], k1=1.2, b=0.75)
    out = rag_answer("what is thaw depth?", store, gw, 1, RAG)
    assert out == "with passages: what is thaw depth?"


def test_rag_answer_short_store_gives_the_passages_it_has(tmp_path):
    """bench-qa warns once per k about a short store (see the pipeline
    tests); rag_answer itself just answers over every passage there is."""
    gw = make_gateway(tmp_path, [
        {"kind": "chat", "stage": "rag", "match": "Passage 2:", "response": "two or more"},
        {"kind": "chat", "stage": "rag", "match": "Passage 1: thaw", "response": "one"},
    ])
    store = PassageStore(["thaw depth readings"], k1=1.2, b=0.75)
    assert rag_answer("thaw depth", store, gw, 5, RAG) == "one"


def test_rag_answer_argument_errors(tmp_path):
    gw = make_gateway(tmp_path, RAG_ENTRIES)
    store = PassageStore(["thaw depth readings"], k1=1.2, b=0.75)
    with pytest.raises(ValueError):
        rag_answer("q", store, gw, -1, RAG)


def test_qa_eval_record_rouge_presence():
    at = {"k": 1, "level": CognitiveLevel.C1}
    QAEvalRecord("p1", "m", "text", True, QuestionType.VERIFICATION, **at)
    QAEvalRecord("p2", "m", "text", False, QuestionType.DEFINITION, rouge_l=0.5, **at)
    with pytest.raises(ValueError):
        QAEvalRecord("p3", "m", "text", True, QuestionType.DEFINITION, **at)
    with pytest.raises(ValueError):
        QAEvalRecord("p4", "m", "text", True, QuestionType.VERIFICATION, rouge_l=0.5, **at)


def test_evaluate_pair_short_and_long():
    short = _pair(1, QuestionType.QUANTIFICATION, a="twelve")
    rec = evaluate_pair(short, "twelve", "m", _FixedScorer(0.9), 5, CognitiveLevel.C2)
    assert rec.correct and rec.rouge_l is None and rec.pair_id == short.id
    assert rec.k == 5 and rec.level is CognitiveLevel.C2
    long = _pair(2, QuestionType.COMPARISON, a="site a is colder than site b")
    rec = evaluate_pair(long, "site a is colder", "m", _FixedScorer(0.2), 0, CognitiveLevel.C4)
    assert not rec.correct
    assert rec.rouge_l == pytest.approx(rouge_l("site a is colder", long.answer)[2])
