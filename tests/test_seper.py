"""Belief-shift filtering: confidence estimator, delta rule, evaluation."""
import math
import random

import pytest

from conftest import make_gateway
from scirforge.core import Decision
from scirforge.gateway import ScoredContinuation
from scirforge.seper import (
    answer_confidence,
    curve_points,
    delta_seper,
    evaluate_filter,
)


def test_answer_confidence_closed_form():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 20)
        lps = [rng.uniform(-5.0, 0.0) for _ in range(n)]
        scored = ScoredContinuation(tuple(lps))
        expected = math.exp(math.fsum(lps) / n)
        assert answer_confidence(scored) == pytest.approx(expected, abs=1e-15)


def test_answer_confidence_length_invariant():
    # constant per-token logprob: confidence must not depend on length
    for n in (1, 2, 17, 100):
        scored = ScoredContinuation((math.log(0.4),) * n)
        assert answer_confidence(scored) == pytest.approx(0.4, abs=1e-12)


def _gateway(tmp_path, with_conf, without_conf):
    return make_gateway(
        tmp_path,
        [
            {"kind": "score", "stage": "score_with", "match": "", "confidence": with_conf},
            {"kind": "score", "stage": "score_without", "match": "", "confidence": without_conf},
        ],
    )


def test_delta_seper_accepts_positive_shift(tmp_path):
    gw = _gateway(tmp_path, 0.9, 0.2)
    v = delta_seper("what is x?", "x is a thing", "a thing", gw)
    assert v.decision is Decision.ACCEPT
    assert v.delta == pytest.approx(0.7, abs=1e-12)
    assert v.conf_with == pytest.approx(0.9, abs=1e-12)


def test_delta_seper_rejects_negative_and_zero_shift(tmp_path):
    down = _gateway(tmp_path, 0.1, 0.6)
    assert delta_seper("q?", "d", "a", down).decision is Decision.REJECT
    flat = _gateway(tmp_path, 0.5, 0.5)
    v = delta_seper("q?", "d", "a", flat)
    assert v.delta == 0.0 and v.decision is Decision.REJECT


def test_delta_seper_input_validation(tmp_path):
    gw = _gateway(tmp_path, 0.5, 0.5)
    with pytest.raises(ValueError):
        delta_seper(" ", "d", "a", gw)
    with pytest.raises(ValueError):
        delta_seper("q", "d", " ", gw)


def test_evaluate_filter_hand_case():
    decisions = [Decision.ACCEPT, Decision.ACCEPT, Decision.REJECT, Decision.ACCEPT]
    labels = [True, False, True, True]
    report = evaluate_filter(decisions, labels)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)


def test_evaluate_filter_no_accepts():
    report = evaluate_filter([Decision.REJECT, Decision.REJECT], [True, False])
    assert report.precision is None and report.f1 is None
    assert report.recall == 0.0


def test_evaluate_filter_errors():
    with pytest.raises(ValueError):
        evaluate_filter([], [])
    with pytest.raises(ValueError):
        evaluate_filter([Decision.ACCEPT], [True, False])
    with pytest.raises(ValueError):
        evaluate_filter([Decision.ACCEPT], [False])  # no positive labels


def test_curve_points_worked_example():
    deltas = [0.9, 0.8, 0.1]
    labels = [True, False, True]
    pr, roc = curve_points(deltas, labels)
    assert pr == ((0.9, 0.0, 1.0), (0.8, 0.5, 1.0), (0.1, 0.5, 0.5))
    assert roc == ((0.9, 0.0, 0.0), (0.8, 0.0, 0.5), (0.1, 1.0, 0.5))


def test_curve_points_threshold_semantics():
    # the positive set at threshold t is {delta > t}, strictly: the top
    # threshold yields an empty set and the minimum delta is never included
    deltas = [0.5, 0.5, -0.2]
    labels = [True, True, False]
    pr, roc = curve_points(deltas, labels)
    assert pr[0] == (0.5, 0.0, 1.0)
    assert roc[0] == (0.5, 0.0, 0.0)
    assert pr[-1] == (-0.2, 1.0, 1.0)
    assert roc[-1] == (-0.2, 0.0, 1.0)


def test_curve_points_requires_both_classes():
    with pytest.raises(ValueError):
        curve_points([0.1, 0.2], [True, True])
    with pytest.raises(ValueError):
        curve_points([0.1, 0.2], [False, False])
