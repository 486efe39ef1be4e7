"""Acceptance suite: ten oracle- and property-based criteria, one test each.

Every criterion runs offline against the mock backend; tolerances are stated
inline next to each assertion.  Each test prints a one-line summary so the
verbose run reads as a checklist.
"""
import hashlib
import json
import math
import random

import numpy as np
import pytest

from scirforge.cli import FIXTURE_DIR, main
from scirforge.core import (
    Aspect,
    AspectUnit,
    DatasetRecord,
    Decision,
    Provenance,
)
from scirforge.evalqa import LevelDistribution, diversity_index, rouge_l
from scirforge.gateway import BackendConfig, Gateway, ScoredContinuation
from scirforge.pipeline import validate_corpus
from scirforge.prompts import TEMPLATE_DIR, load_template
from scirforge.qagen import load_taxonomy, plan_generation
from scirforge.retrieval import (
    IndexConfig,
    DocUnit,
    doc_units,
    index_from_units,
    mrr_at,
    rank_of,
    recall_at_k,
    search,
    tokenize,
)
from scirforge.seper import answer_confidence, curve_points, delta_seper, evaluate_filter

from conftest import make_gateway
from retrieval_oracle import ranking
from test_parsers_adversarial import ERROR, check_case, iter_cases

K1, B = 1.2, 0.75


class _PairedScoreBackend:
    """Serves one queued (without, with) confidence pair per delta_seper call."""

    identity = "paired-score"

    def __init__(self, pairs):
        self.pairs = pairs
        self.n = 0

    def complete(self, request, stage):
        raise AssertionError("chat is not used here")

    def score(self, context, continuation, model, stage):
        without, with_ = self.pairs[self.n]
        if stage == "score_with":
            self.n += 1
            c = with_
        else:
            c = without
        return ScoredContinuation((math.log(c),) * (len(continuation.split()) or 1))


def test_criterion_01_sign_rule():
    rng = random.Random(11)
    pairs = []
    for i in range(1000):
        if i % 10 == 0:
            c = rng.uniform(0.05, 0.95)
            pairs.append((c, c))  # forced delta == 0
        else:
            pairs.append((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
    backend = _PairedScoreBackend(pairs)
    gw = Gateway(backend, BackendConfig(kind="mock", script_path="unused"))
    accepts = rejects = zeros = 0
    for i, (without, with_) in enumerate(pairs):
        verdict = delta_seper(f"q{i}", "ctx", f"a{i}", gw)
        assert (verdict.decision is Decision.ACCEPT) == (verdict.delta > 0.0)
        if without == with_:
            assert verdict.delta == 0.0 and verdict.decision is Decision.REJECT
            zeros += 1
        if verdict.decision is Decision.ACCEPT:
            accepts += 1
        else:
            rejects += 1
    assert accepts > 100 and rejects > 100 and zeros == 100
    print(f"criterion 1 PASS: 1000 triplets obey accept<=>delta>0 "
          f"({accepts} accepts, {rejects} rejects, {zeros} exact zeros)")


def test_criterion_02_confidence_estimator():
    rng = random.Random(23)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 21)
        lps = [rng.uniform(-6.0, 0.0) for _ in range(n)]
        got = answer_confidence(ScoredContinuation(tuple(lps)))
        want = math.exp(math.fsum(lps) / n)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12
    base = math.log(0.4)
    for n in range(1, 101):
        got = answer_confidence(ScoredContinuation((base,) * n))
        assert abs(got - 0.4) <= 1e-12
    print(f"criterion 2 PASS: closed form within 1e-12 (worst {worst:.2e}); "
          f"constant-logprob lengths 1..100 length-invariant")


def test_criterion_03_filter_evaluation():
    rng = random.Random(37)
    grid = [-0.4, -0.1, 0.0, 0.0, 0.1, 0.25, 0.25, 0.5]
    deltas = [rng.choice(grid) for _ in range(100)]
    labels = [rng.random() < 0.6 for _ in range(100)]
    decisions = [Decision.ACCEPT if d > 0 else Decision.REJECT for d in deltas]
    assert any(labels) and not all(labels)
    assert Decision.ACCEPT in decisions and Decision.REJECT in decisions

    tp = sum(1 for d, lab in zip(decisions, labels) if d is Decision.ACCEPT and lab)
    fp = sum(1 for d, lab in zip(decisions, labels) if d is Decision.ACCEPT and not lab)
    pos = sum(labels)
    precision = tp / (tp + fp)
    recall = tp / pos
    f1 = 2 * precision * recall / (precision + recall)
    report = evaluate_filter(decisions, labels)
    assert report.precision == precision  # exact
    assert report.recall == recall
    assert report.f1 == f1

    pr, roc = curve_points(deltas, labels)
    neg = len(labels) - pos
    thresholds = sorted(set(deltas), reverse=True)
    assert len(pr) == len(roc) == len(thresholds)
    for t, pr_point, roc_point in zip(thresholds, pr, roc):
        otp = sum(1 for d, lab in zip(deltas, labels) if d > t and lab)
        ofp = sum(1 for d, lab in zip(deltas, labels) if d > t and not lab)
        precision = 1.0 if otp + ofp == 0 else otp / (otp + ofp)
        assert pr_point == (t, otp / pos, precision)  # exact
        assert roc_point == (t, ofp / neg, otp / pos)
    print(f"criterion 3 PASS: P/R/F1 and {len(thresholds)} curve points match "
          f"the confusion-matrix oracle exactly on the 100-triplet fixture")


def test_criterion_04_generation_plans(tmp_path):
    eight = ("Verification\nConcept Completion\nQuantification\nDefinition\n"
             "Comparison\nCausal Antecedent\nGoal Orientation\nJudgmental")
    gw = make_gateway(
        tmp_path,
        [{"kind": "chat", "stage": "select_types", "match": "", "response": eight}],
    )
    taxonomy = load_taxonomy(TEMPLATE_DIR / "taxonomy.json")
    select_types = load_template("select_types.txt")
    rng = random.Random(41)
    words = ["ice", "flux", "river", "soil", "snow", "survey", "archive"]
    full = meta = 0
    for i in range(60):
        ds = DatasetRecord(
            id=f"d{i}",
            title=" ".join(rng.choices(words, k=rng.randrange(1, 5))),
            description=" ".join(rng.choices(words, k=rng.randrange(0, 9))),
        )
        if rng.random() < 0.5:
            plan = plan_generation(ds, True, gw, taxonomy, select_types)
            assert plan.mode is Provenance.WITH_PAPER and plan.total() == 54
            assert len(plan.quotas) == 18
            full += 1
        else:
            plan = plan_generation(ds, False, gw, taxonomy, select_types)
            assert plan.mode is Provenance.METADATA_ONLY and plan.total() == 8
            assert len(plan.quotas) == 8
            meta += 1
    assert full and meta
    print(f"criterion 4 PASS: {full} full plans total 54, {meta} metadata-only "
          f"plans total 8, zero deviations")


def _oracle_bm25_ranking(units, query_terms):
    """From-scratch BM25 over raw unit texts: max per dataset, ties by id."""
    toks = [tokenize(u.text) for u in units]
    n = len(units)
    avg = sum(len(t) for t in toks) / n
    df = {}
    for t in toks:
        for term in set(t):
            df[term] = df.get(term, 0) + 1
    scores = []
    for t in toks:
        counts = {}
        for term in t:
            counts[term] = counts.get(term, 0) + 1
        norm = K1 * (1.0 - B + B * (len(t) / avg))
        s = 0.0
        for term in query_terms:
            if term not in counts:
                continue
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            tf = float(counts[term])
            s += idf * (tf * (K1 + 1.0)) / (tf + norm)
        scores.append(s)
    best = {}
    for u, s in zip(units, scores):
        if u.dataset_id not in best or s > best[u.dataset_id]:
            best[u.dataset_id] = s
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def test_criterion_05_bm25_against_bruteforce():
    rng = random.Random(53)
    vocab = [f"t{i}" for i in range(12)]
    checked_units = 0
    for _ in range(200):
        n_ds = rng.randrange(1, 7)
        datasets, aspects = [], []
        for i in range(n_ds):
            datasets.append(
                DatasetRecord(
                    id=f"d{i}", title=" ".join(rng.choices(vocab, k=rng.randrange(1, 8)))
                )
            )
            for _ in range(rng.randrange(0, 6)):
                aspects.append(
                    AspectUnit(
                        f"d{i}",
                        "p",
                        rng.choice(list(Aspect)),
                        " ".join(rng.choices(vocab, k=rng.randrange(1, 8))),
                    )
                )
        without, with_p = (
            index_from_units(doc_units(datasets, aspects, cfg), K1, B)
            for cfg in (IndexConfig.WITHOUT_PAPER, IndexConfig.WITH_PAPER)
        )
        assert with_p.n_units <= 50
        checked_units += with_p.n_units

        # the two configurations differ exactly by the aspect units
        assert with_p.units[: len(datasets)] == without.units
        assert with_p.units[len(datasets) :] == tuple(
            DocUnit(a.dataset_id, f"Aspect:{a.aspect.value}", a.text) for a in aspects
        )

        query = " ".join(rng.choices(vocab + ["zzz"], k=rng.randrange(1, 5)))
        for index in (without, with_p):
            ranked = ranking(index, search(index, query))
            expected = _oracle_bm25_ranking(index.units, tokenize(query))
            assert [d for d, _ in ranked] == [d for d, _ in expected]
            for (_, got), (_, want) in zip(ranked, expected):
                assert abs(got - want) <= 1e-12
    print(f"criterion 5 PASS: 200 corpora ({checked_units} units) match the "
          f"brute-force scorer within 1e-12 with identical tie-broken order")


def _random_run(rng):
    """The counted gold rank among tied-heavy scores, and its place in the
    (-score, position) sort."""
    n = rng.randrange(2, 12)
    scores = [rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(n)]
    gold = rng.randrange(n)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return rank_of(np.array(scores), np.arange(n), gold), order.index(gold) + 1


def test_criterion_06_rank_metrics():
    rng = random.Random(67)
    for _ in range(100):
        runs, ranks = [], []
        for _ in range(rng.randrange(1, 30)):
            run, rank = _random_run(rng)
            runs.append(run)
            ranks.append(rank)
        assert runs == ranks
        for k in (1, 2, 3, 5, 10, 100):
            want = sum(1 for r in ranks if r <= k) / len(runs)
            assert abs(recall_at_k(runs, k) - want) <= 1e-12
        for cutoff in (1, 3, 100):
            want = sum(1.0 / r for r in ranks if r <= cutoff) / len(runs)
            assert abs(mrr_at(runs, cutoff) - want) <= 1e-12
    monotone = 0
    for _ in range(1000):
        run, _ = _random_run(rng)
        prev = -1.0
        for k in (1, 2, 3, 5, 8, 12):
            cur = recall_at_k([run], k)
            assert cur >= prev
            prev = cur
        monotone += 1
    print(f"criterion 6 PASS: recall/mrr equal enumeration oracles within 1e-12; "
          f"R@k monotone on {monotone} instances")


def _lcs_dp(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        append = curr.append
        left = 0
        for j, y in enumerate(b):
            if x == y:
                left = prev[j] + 1
            else:
                up = prev[j + 1]
                left = up if up > left else left
            append(left)
        prev = curr
    return prev[-1]


def test_criterion_07_rouge_l():
    rng = random.Random(79)
    vocab = ["w0", "w1", "w2", "w3", "w4", "w5"]
    worst = 0.0
    for _ in range(500):
        a = rng.choices(vocab, k=rng.randrange(1, 201))
        b = rng.choices(vocab, k=rng.randrange(1, 201))
        lcs = _lcs_dp(a, b)
        p_want = lcs / len(a)
        r_want = lcs / len(b)
        f_want = 0.0 if p_want + r_want == 0 else 2 * p_want * r_want / (p_want + r_want)
        p, r, f = rouge_l(" ".join(a), " ".join(b))
        worst = max(worst, abs(p - p_want), abs(r - r_want), abs(f - f_want))
        assert abs(p - p_want) <= 1e-12
        assert abs(r - r_want) <= 1e-12
        assert abs(f - f_want) <= 1e-12
    same = " ".join(rng.choices(vocab, k=40))
    assert rouge_l(same, same) == (1.0, 1.0, 1.0)
    assert rouge_l("aa bb cc", "dd ee ff") == (0.0, 0.0, 0.0)
    print(f"criterion 7 PASS: 500 pairs match the quadratic DP oracle "
          f"(worst {worst:.2e}); identical -> 1.0, disjoint -> 0.0")


def test_criterion_08_diversity_index():
    uniform = diversity_index(LevelDistribution((4, 4, 4, 4, 4, 4)))
    assert abs(uniform - 5 / 6) <= 1e-9
    assert f"{uniform:.6f}" == "0.833333"
    assert diversity_index(LevelDistribution((9, 0, 0, 0, 0, 0))) == 0.0
    rng = random.Random(83)
    for _ in range(300):
        counts = tuple(rng.randrange(0, 30) for _ in range(6))
        if sum(counts) == 0:
            continue
        total = sum(counts)
        want = 1.0 - sum((c / total) ** 2 for c in counts)
        got = diversity_index(LevelDistribution(counts))
        assert abs(got - want) <= 1e-12
        assert got <= 5 / 6 + 1e-12  # the formula cannot exceed 5/6
    print("criterion 8 PASS: uniform -> 0.833333, degenerate -> 0, "
          "formula oracle within 1e-12, bound <= 5/6 holds")


def _tree_digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_criterion_09_end_to_end_determinism(fixture_run, tmp_path, capsys):
    _, run1, statuses = fixture_run
    assert statuses == {s: "done" for s in statuses}
    assert validate_corpus(run1) == []

    run2 = tmp_path / "run2"
    rc = main(
        [
            "all",
            "--config",
            str(FIXTURE_DIR / "config.json"),
            "--output",
            str(run2),
            "--input",
            str(FIXTURE_DIR),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert validate_corpus(run2) == []

    d1, d2 = _tree_digests(run1), _tree_digests(run2)
    assert sorted(d1) == sorted(d2)
    different = [name for name in d1 if d1[name] != d2[name]]
    assert different == []
    print(f"criterion 9 PASS: two runs byte-identical across {len(d1)} files "
          f"(manifest timestamps excluded); validator reports zero violations")


def test_criterion_10_parser_robustness():
    cases = list(iter_cases())
    assert len(cases) >= 30
    errors = accepts = 0
    for _, apply, text, expected in cases:
        check_case(apply, text, expected)
        if expected is ERROR:
            errors += 1
        else:
            accepts += 1
    print(f"criterion 10 PASS: {len(cases)} adversarial fixtures "
          f"({accepts} accepted, {errors} rejected) behave as contracted")
