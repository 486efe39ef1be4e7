"""Belief-shift answer filter.

An answer is scored teacher-forced under the backend twice: conditioned on
the question alone, and on the question plus supporting context.  The shift
between the two length-normalized confidences decides acceptance; a positive
shift means the context genuinely raised the model's belief in the answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .core import Decision, FilterVerdict
from .gateway import Gateway, ScoredContinuation

WITHOUT_CONTEXT_TEMPLATE = "Question: {q}\nAnswer:"
WITH_CONTEXT_TEMPLATE = "Context: {d}\nQuestion: {q}\nAnswer:"


def answer_confidence(scored: ScoredContinuation) -> float:
    """Length-normalized sequence probability: exp(mean token logprob)."""
    return math.exp(math.fsum(scored.logprobs) / len(scored.logprobs))


def delta_seper(q: str, d: str, a: str, gateway: Gateway) -> FilterVerdict:
    """Score the answer with and without context and apply the sign rule."""
    if not q.strip() or not a.strip():
        raise ValueError("question and answer must be nonempty")
    continuation = " " + a
    conf_without = answer_confidence(
        gateway.score_continuation(
            WITHOUT_CONTEXT_TEMPLATE.format(q=q), continuation, stage="score_without"
        )
    )
    conf_with = answer_confidence(
        gateway.score_continuation(
            WITH_CONTEXT_TEMPLATE.format(d=d, q=q), continuation, stage="score_with"
        )
    )
    delta = conf_with - conf_without
    decision = Decision.ACCEPT if delta > 0 else Decision.REJECT
    return FilterVerdict(
        delta=delta, decision=decision, conf_with=conf_with, conf_without=conf_without
    )


@dataclass(frozen=True)
class FilterEvalReport:
    precision: float | None
    recall: float
    f1: float | None


def evaluate_filter(
    decisions: Sequence[Decision], labels: Sequence[bool]
) -> FilterEvalReport:
    """Precision/recall/F1 of Accept decisions against boolean quality labels."""
    if len(decisions) != len(labels):
        raise ValueError("decisions and labels must have equal length")
    if not decisions:
        raise ValueError("nothing to evaluate")
    positives = sum(1 for lab in labels if lab)
    if positives == 0:
        raise ValueError("labels contain no positives; recall is undefined")
    tp = fp = 0
    for decision, label in zip(decisions, labels):
        if decision is Decision.ACCEPT:
            if label:
                tp += 1
            else:
                fp += 1
    recall = tp / positives
    if tp + fp == 0:
        return FilterEvalReport(precision=None, recall=recall, f1=None)
    precision = tp / (tp + fp)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return FilterEvalReport(precision=precision, recall=recall, f1=f1)


def curve_points(
    deltas: Sequence[float], labels: Sequence[bool]
) -> tuple[tuple[tuple[float, float, float], ...], tuple[tuple[float, float, float], ...]]:
    """PR points (threshold, recall, precision) and ROC points (threshold,
    fpr, tpr) from sweeping the accept threshold over delta values.

    Thresholds are the distinct deltas in descending order, the first given
    of equal ones; at each, the decision is delta > threshold.  Precision is
    1.0 when nothing is accepted (the zero-prediction limit of the PR curve).
    """
    if len(deltas) != len(labels):
        raise ValueError("deltas and labels must have equal length")
    positives = sum(1 for lab in labels if lab)
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("curves need at least one positive and one negative label")
    pr: list[tuple[float, float, float]] = []
    roc: list[tuple[float, float, float]] = []
    # Sweep the deltas in descending order.  At each distinct threshold the
    # counts so far are exactly the deltas above it; then its own group joins.
    tp = fp = 0
    ranked = sorted(zip(deltas, labels), key=itemgetter(0), reverse=True)
    for threshold, group in groupby(ranked, key=itemgetter(0)):
        recall = tp / positives
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        pr.append((threshold, recall, precision))
        roc.append((threshold, fp / negatives, tp / positives))
        for _, label in group:
            if label:
                tp += 1
            else:
                fp += 1
    return tuple(pr), tuple(roc)
