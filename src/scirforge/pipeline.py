"""Resumable file pipeline: stage DAG, run manifest, and artifact layout.

Every stage reads only its declared inputs, writes its outputs atomically,
and records content digests in manifest.json.  Rerunning a completed stage
whose input digests are unchanged and whose outputs still have their
recorded digests is a no-op, so interrupted runs resume where they stopped;
a stage that runs again first deletes the outputs its entry lists.
With the mock backend the whole pipeline is deterministic: everything
except the manifest (which carries timestamps, durations and model-call
counts) is byte-identical across runs.
"""
from __future__ import annotations

import collections
import csv
import dataclasses
import fcntl
import hashlib
import io
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence

import numpy as np

from .config import Embedding, Entailment, RunConfig
from .core import (
    COGNITIVE_LEVELS,
    AspectUnit,
    CountedRows,
    Decision,
    DatasetRecord,
    FilterVerdict,
    PaperRecord,
    PipelineError,
    QAPair,
    R,
    RecordError,
    SectionLabel,
    load_records,
    read_records,
    record_from_dict,
    record_to_dict,
    split_corpus,
    write_atomic,
    write_jsonl,
)
from .curation import (
    assess_relevance,
    extract_aspects,
    label_segments,
    merge_drafts,
    truncate_text,
    verify_aspects,
)
from .evalqa import (
    LevelDistribution,
    QAEvalRecord,
    aggregate_stats,
    classify_cognitive_level,
    diversity_index,
    evaluate_pair,
    rag_answer,
)
from .gateway import Gateway, HttpBackend, MockBackend, MockEmbeddingClient
from .prompts import template_path
from .qagen import build_context, generate_qa, load_taxonomy, plan_generation
from .retrieval import (
    DocUnit,
    IndexConfig,
    PassageStore,
    doc_units,
    embed_search,
    index_from_units,
    mrr_at,
    rank_of,
    recall_at_k,
    search,
)
from .seper import curve_points, delta_seper, evaluate_filter


class StageError(PipelineError):
    """Stage preconditions or execution failed."""


# ---------------------------------------------------------------------------
# Small file helpers
# ---------------------------------------------------------------------------


# Below glibc's default 128 KiB mmap threshold, so the buffer comes from the
# heap; freeing an mmapped block raises that threshold and lets later large
# allocations grow the heap instead.
_DIGEST_BUFFER = 1 << 16


def file_digest(path: Path) -> str:
    """sha256 of a file's bytes, read into one reused 64 KiB buffer."""
    digest = hashlib.sha256()
    buf = bytearray(_DIGEST_BUFFER)
    with open(path, "rb", buffering=0) as f, memoryview(buf) as view:
        while n := f.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def write_json_atomic(path: Path, value: Any) -> None:
    write_atomic(path, [json.dumps(value, sort_keys=True, indent=2), "\n"])


def write_csv_atomic(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, [buf.getvalue()])


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


# ---------------------------------------------------------------------------
# Stage context
# ---------------------------------------------------------------------------

# What stages made of their inputs, shared by every stage this process runs:
# (sha256 of each input read, what was made of them) -> (the labels they
# were read under, the result).  A key names file content, not a path, so
# an edited file misses; only reads fill it, and run_stage drops each
# entry that no remaining stage can ask for.
_PARSED: dict[tuple[tuple[str, ...], Any], tuple[tuple[str, ...], Any]] = {}


@dataclass
class StageContext:
    """What one stage run may touch: its declared inputs (manifest label ->
    path), the outputs it may write (`writes`, relative to `run_dir`, with
    each one's record type) and those it records, as it writes them."""

    config: RunConfig
    run_dir: Path
    inputs: dict[str, Path] = dataclasses.field(default_factory=dict)
    writes: Mapping[str, type | None] = dataclasses.field(default_factory=dict)
    # sha256 by input label, as run_stage recorded it for the manifest; an
    # input missing here is hashed when first read.
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    outputs: list[Path] = dataclasses.field(default_factory=list, init=False)
    # Warnings that no artifact holds; the stage's manifest entry lists them.
    warnings: list[str] = dataclasses.field(default_factory=list, init=False)

    def __post_init__(self):
        self._gateway: Gateway | None = None
        # pmap workers race to the first call; they must share one gateway.
        self._gateway_lock = threading.Lock()
        # Worker threads only overlap time spent waiting on an HTTP backend
        # (the main one, or bench-qa's entailment scorer). The mock never
        # waits, so under it threads only add switching cost.
        self.waits_on_http = "http" in (self.config.backend.kind, self.config.entailment.kind)

    @property
    def gateway(self) -> Gateway:
        # Set once and never cleared, so only its creation takes the lock.
        if self._gateway is None:
            with self._gateway_lock:
                if self._gateway is None:
                    self._gateway = Gateway.from_config(self.config.backend)
        return self._gateway

    def close(self) -> None:
        if self._gateway is not None:
            self._gateway.close()

    def input(self, label: str) -> Path:
        if label not in self.inputs:
            raise StageError(f"{label!r} is not a declared input of this stage")
        return self.inputs[label]

    def records(self, label: str, cls: type[R]) -> tuple[R, ...]:
        """Input `label` as `cls` records: one per line of a JSONL file, or
        a JSON file's whole document as one.  Each file content is parsed
        once per process and the records are shared, so they must not be
        changed (the record classes are frozen)."""
        path = self.input(label)

        def parse() -> tuple:
            if path.suffix == ".jsonl":
                return tuple(load_records(path, cls))
            return (record_from_dict(cls, json.loads(path.read_text(encoding="utf-8"))),)

        return self.derived((label,), cls, parse)

    def template(self, name: str) -> str:
        """The text of declared input ``template:<name>``, read once per
        process for each content of the file."""
        label = _TEMPLATE + name
        path = self.input(label)
        return self.derived((label,), str, lambda: path.read_text(encoding="utf-8"))

    def derived(self, labels: tuple[str, ...], what: Any, compute: Callable[[], Any]) -> Any:
        """`compute()`, made once per process for each content of the
        inputs `labels`; `what` tells apart results made from the same
        files.  Every label still resolves through `input`."""
        digests = []
        for label in labels:
            path = self.input(label)
            if label not in self.digests:
                self.digests[label] = file_digest(path)
            digests.append(self.digests[label])
        key = (tuple(digests), what)
        hit = _PARSED.get(key)
        if hit is None:
            hit = _PARSED[key] = (labels, compute())
        return hit[1]

    def output(self, name: str) -> Path:
        """Record `name` (relative to the run directory) as an output."""
        if name not in self.writes:
            raise StageError(f"{name!r} is not a declared output of this stage")
        path = self.run_dir / name
        self.outputs.append(path)
        return path

    def write_rows(self, name: str, rows: Collection) -> None:
        """Write JSONL output `name` as rows of the record type its stage declares."""
        write_jsonl(self.output(name), rows, self.writes[name])

    def pmap(self, fn: Callable, items: Sequence) -> Iterator:
        """Yield `fn(item)` for each item, in input order: computed on up to
        `concurrency` worker threads when the work can wait on an HTTP
        backend, else one at a time on this thread as they are asked for."""
        workers = min(self.config.concurrency, len(items)) if self.waits_on_http else 1
        if workers <= 1:
            yield from map(fn, items)
            return
        # Imported only here, where a thread starts: the module also loads
        # `logging`, which a run under the mock would carry for nothing.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, items)


# ---------------------------------------------------------------------------
# Stage runners (each reads ctx.input files and writes ctx.output files)
# ---------------------------------------------------------------------------


# The rows of matches.jsonl and verdicts.jsonl, as their stages write them.
@dataclass(frozen=True)
class _MatchRow:
    dataset_id: str
    paper_id: str
    used: bool
    explanation: str
    truncated: bool


@dataclass(frozen=True)
class _VerdictRow(FilterVerdict):
    pair_id: str
    model: str


def _stage_ingest(ctx: StageContext) -> None:
    datasets = ctx.records("input:datasets.jsonl", DatasetRecord)
    papers = ctx.records("input:papers.jsonl", PaperRecord)
    for kind, records in (("dataset", datasets), ("paper", papers)):
        ids = [r.id for r in records]
        if len(set(ids)) != len(ids):
            raise StageError(f"duplicate {kind} ids in input")
    ctx.write_rows("datasets.jsonl", datasets)
    ctx.write_rows("papers.jsonl", papers)


def _stage_match(ctx: StageContext) -> None:
    datasets = ctx.records("datasets.jsonl", DatasetRecord)
    papers = {p.id: p for p in ctx.records("papers.jsonl", PaperRecord)}
    tasks: list[tuple[DatasetRecord, str]] = []
    for d in datasets:
        for pid in d.linked_paper_ids:
            if pid not in papers:
                raise StageError(f"dataset {d.id} links unknown paper {pid}")
            tasks.append((d, pid))
    template = ctx.template("relevance.txt")

    def work(task: tuple[DatasetRecord, str]) -> _MatchRow:
        d, pid = task
        paper = papers[pid]
        verdict = assess_relevance(
            d,
            paper,
            ctx.gateway,
            max_paper_chars=ctx.config.curation.max_paper_chars,
            template=template,
        )
        _, truncated = truncate_text(paper.full_text(), ctx.config.curation.max_paper_chars)
        return _MatchRow(d.id, pid, verdict.used, verdict.explanation, truncated)

    rows = list(ctx.pmap(work, tasks))
    ctx.write_rows("matches.jsonl", rows)


def _paper_sections(paper, ctx: StageContext, template: str) -> list[tuple[SectionLabel, str]]:
    """Use provided section labels when any exist; otherwise classify."""
    if paper.segments and any(lab is not SectionLabel.NONE for lab, _ in paper.segments):
        sections = list(paper.segments)
    else:
        text = paper.full_text()
        sections = list(label_segments(text, ctx.gateway, template))
    return [(lab, text) for lab, text in sections if lab is not SectionLabel.NONE]


def _stage_parse(ctx: StageContext) -> None:
    datasets = {d.id: d for d in ctx.records("datasets.jsonl", DatasetRecord)}
    papers = {p.id: p for p in ctx.records("papers.jsonl", PaperRecord)}
    matches = ctx.records("matches.jsonl", _MatchRow)
    positive = [(m.dataset_id, m.paper_id) for m in matches if m.used]

    segment, extract, verify = map(ctx.template, ("segment.txt", "extract.txt", "verify.txt"))

    needed = sorted({pid for _, pid in positive})
    labelled = ctx.pmap(lambda pid: _paper_sections(papers[pid], ctx, segment), needed)
    sections_by_paper = dict(zip(needed, labelled))

    def work(pair: tuple[str, str]) -> tuple[list[AspectUnit], list[str]]:
        ds_id, pid = pair
        dataset = datasets[ds_id]
        local: list[str] = []
        sections = sections_by_paper[pid]
        if not sections:
            local.append(f"{ds_id}/{pid}: paper has no labeled sections")
            return [], local
        drafts = [extract_aspects(text, ctx.gateway, extract) for _, text in sections]
        merged = merge_drafts(drafts, ds_id, pid)
        if not merged.has_candidates():
            local.append(f"{ds_id}/{pid}: extraction produced no candidates")
            return [], local
        units = verify_aspects(merged, dataset, ctx.gateway, verify, warnings=local)
        return units, local

    results = ctx.pmap(work, positive)
    units: list[AspectUnit] = []
    warnings: list[str] = []
    for got, local in results:
        units.extend(got)
        warnings.extend(local)
    ctx.write_rows("aspects.jsonl", units)
    write_json_atomic(ctx.output("parse_meta.json"), {"warnings": warnings})


def _datasets_with_aspects(ctx: StageContext) -> list[tuple[DatasetRecord, list[AspectUnit]]]:
    """Every dataset, in file order, with its verified aspect units."""
    datasets = ctx.records("datasets.jsonl", DatasetRecord)
    by_ds: dict[str, list[AspectUnit]] = {}
    for a in ctx.records("aspects.jsonl", AspectUnit):
        by_ds.setdefault(a.dataset_id, []).append(a)
    return [(d, by_ds.get(d.id, [])) for d in datasets]


def _stage_generate(ctx: StageContext) -> None:
    grouped = _datasets_with_aspects(ctx)
    taxonomy = load_taxonomy(ctx.input("template:taxonomy.json"))
    select_types, generate = ctx.template("select_types.txt"), ctx.template("generate.txt")

    tasks = []
    plans_meta = {}
    for d, ds_aspects in grouped:
        plan = plan_generation(d, bool(ds_aspects), ctx.gateway, taxonomy, select_types)
        context = build_context(d, ds_aspects)
        plans_meta[d.id] = {"mode": plan.mode.value, "total": plan.total()}
        for qtype, quota in plan.quotas:
            tasks.append((d.id, context, taxonomy[qtype], quota, plan.mode))

    def work(task) -> tuple[list[QAPair], list[str]]:
        ds_id, context, entry, quota, mode = task
        local: list[str] = []
        pairs = generate_qa(
            context,
            entry,
            quota,
            ctx.gateway,
            dataset_id=ds_id,
            provenance=mode,
            temperature=ctx.config.generation.temperature,
            regen_attempts=ctx.config.generation.regen_attempts,
            template=generate,
            warnings=local,
        )
        return pairs, local

    results = ctx.pmap(work, tasks)
    pairs: list[QAPair] = []
    warnings: list[str] = []
    for got, local in results:
        pairs.extend(got)
        warnings.extend(local)
    ctx.write_rows("qapairs.jsonl", pairs)
    write_json_atomic(
        ctx.output("generation_meta.json"),
        {
            "dedup": "none",
            "total_pairs": len(pairs),
            "plans": plans_meta,
            "warnings": warnings,
        },
    )


def _stage_filter(ctx: StageContext) -> None:
    pairs = ctx.records("qapairs.jsonl", QAPair)
    contexts = {d.id: build_context(d, asp) for d, asp in _datasets_with_aspects(ctx)}

    def work(pair: QAPair) -> _VerdictRow:
        if pair.dataset_id not in contexts:
            raise StageError(f"pair {pair.id}: unknown dataset {pair.dataset_id}")
        verdict = delta_seper(
            pair.question, contexts[pair.dataset_id], pair.answer, ctx.gateway
        )
        return _VerdictRow(**vars(verdict), pair_id=pair.id, model=ctx.gateway.model)

    rows = list(ctx.pmap(work, pairs))
    ctx.write_rows("verdicts.jsonl", rows)

    if "filter_labels" in ctx.inputs:
        labels_doc = json.loads(ctx.input("filter_labels").read_text(encoding="utf-8"))
        if not isinstance(labels_doc, dict):
            raise StageError("filter labels must be a JSON object from pair id to true or false")
        by_id = {row.pair_id: row for row in rows}
        unknown = sorted(set(labels_doc) - set(by_id))
        if unknown:
            raise StageError(f"filter labels reference unknown pairs: {unknown[:5]}")
        not_bool = sorted(pid for pid, lab in labels_doc.items() if not isinstance(lab, bool))
        if not_bool:
            raise StageError(
                f"filter labels must be true or false; other values for pairs {not_bool[:5]}"
            )
        labeled = [(by_id[pid], lab) for pid, lab in sorted(labels_doc.items())]
        decisions = [row.decision for row, _ in labeled]
        labels = [lab for _, lab in labeled]
        report = evaluate_filter(decisions, labels)
        write_csv_atomic(
            ctx.output("reports/filter_eval.csv"),
            ["precision", "recall", "f1", "n"],
            [[_fmt(report.precision), _fmt(report.recall), _fmt(report.f1), len(labeled)]],
        )
        if any(labels) and not all(labels):
            pr, roc = curve_points([row.delta for row, _ in labeled], labels)
            write_csv_atomic(
                ctx.output("reports/filter_pr_curve.csv"),
                ["threshold", "recall", "precision"],
                [list(map(_fmt, point)) for point in pr],
            )
            write_csv_atomic(
                ctx.output("reports/filter_roc_curve.csv"),
                ["threshold", "fpr", "tpr"],
                [list(map(_fmt, point)) for point in roc],
            )


_INDEX_FILES = {
    IndexConfig.WITHOUT_PAPER: "index/without_paper.json",
    IndexConfig.WITH_PAPER: "index/with_paper.json",
}


@dataclass(frozen=True)
class _IndexDoc:
    """An index file: its units and BM25 settings, with no postings."""

    config: IndexConfig
    k1: float
    b: float
    units: tuple[DocUnit, ...]


def _stage_index(ctx: StageContext) -> None:
    """Write each configuration's units; the stages that search an index
    build its postings."""
    datasets = ctx.records("datasets.jsonl", DatasetRecord)
    aspects = ctx.records("aspects.jsonl", AspectUnit)
    for cfg, name in _INDEX_FILES.items():
        units = tuple(doc_units(datasets, aspects, cfg))
        doc = _IndexDoc(cfg, ctx.config.bm25.k1, ctx.config.bm25.b, units)
        write_json_atomic(ctx.output(name), record_to_dict(doc))


def _index_doc(ctx: StageContext, cfg: IndexConfig) -> _IndexDoc:
    (doc,) = ctx.records(_INDEX_FILES[cfg], _IndexDoc)
    return doc


def _accepted_pairs(ctx: StageContext) -> tuple[QAPair, ...]:
    """The pairs whose verdict accepts them, in file order, joined once per
    process for each content of the two files.  Verdict rows are read only
    here, and not kept."""

    def join() -> tuple[QAPair, ...]:
        pairs = ctx.records("qapairs.jsonl", QAPair)
        decisions = {
            v.pair_id: v.decision
            for v in load_records(ctx.input("verdicts.jsonl"), _VerdictRow)
        }
        missing = [p.id for p in pairs if p.id not in decisions]
        if missing:
            raise StageError(f"pairs missing verdicts: {missing[:5]}")
        return tuple(p for p in pairs if decisions[p.id] is Decision.ACCEPT)

    return ctx.derived(_PAIRS, "accepted pairs", join)


def _bench_pairs(ctx: StageContext) -> tuple[QAPair, ...]:
    """Accepted pairs, capped by rag.max_pairs; benchmarking none is an error."""
    accepted = _accepted_pairs(ctx)
    cap = ctx.config.rag.max_pairs
    if cap > 0:
        accepted = accepted[:cap]
    if not accepted:
        raise StageError("no accepted pairs to benchmark")
    return accepted


def _http_backend(ctx: StageContext, section: Embedding | Entailment) -> HttpBackend:
    """HTTP backend for an embedding or entailment config section; transport
    settings (timeout, retries, in-flight cap, API key) come from `backend`."""
    main = ctx.config.backend
    model = section.model or main.model
    return HttpBackend(
        dataclasses.replace(main, kind="http", endpoint=section.endpoint, model=model)
    )


def _embedding_client(ctx: StageContext):
    emb = ctx.config.embedding
    if not emb.enabled:
        return None
    if emb.kind == "mock":
        return MockEmbeddingClient(dim=emb.dim)
    return _http_backend(ctx, emb)


def _stage_bench_retrieval(ctx: StageContext) -> None:
    pairs = _bench_pairs(ctx)
    questions = [p.question for p in pairs]
    golds = [p.dataset_id for p in pairs]
    ks = ctx.config.retrieval.ks
    cutoff = ctx.config.retrieval.mrr_cutoff

    indexes = {}
    for cfg in _INDEX_FILES:
        doc = _index_doc(ctx, cfg)
        indexes[cfg] = index_from_units(doc.units, doc.k1, doc.b)
    gold_positions = {}
    for cfg, index in indexes.items():
        position = {d: i for i, d in enumerate(index.dataset_ids)}
        unknown = sorted(set(golds) - position.keys())
        if unknown:
            raise StageError(f"{_INDEX_FILES[cfg]} has no units for datasets {unknown[:5]}")
        gold_positions[cfg] = [position[g] for g in golds]
    client = _embedding_client(ctx)

    header = ["method"]
    for cfg_label in ("without_paper", "with_paper"):
        header += [f"{cfg_label}_r_at_{k}" for k in ks]
        header.append(f"{cfg_label}_mrr_at_{cutoff}")

    # Each query keeps only its gold rank; no score vector outlives its query.
    def cells(ranks: list[int]) -> list[str]:
        return [_fmt(recall_at_k(ranks, k)) for k in ks] + [_fmt(mrr_at(ranks, cutoff))]

    configs = (IndexConfig.WITHOUT_PAPER, IndexConfig.WITH_PAPER)
    bm25_row: list = ["bm25"]
    for cfg in configs:
        index = indexes[cfg]
        bm25_row += cells(
            [
                rank_of(search(index, q), index.unit_datasets, g)
                for q, g in zip(questions, gold_positions[cfg])
            ]
        )
    rows = [bm25_row]

    if client is not None:
        query_vectors = client.embed(questions)
        query_norms = [float(np.linalg.norm(v)) for v in query_vectors]
        # WithoutPaper's units are WithPaper's metadata units: embed each
        # distinct text once and give every index its rows of the result.
        texts = list(dict.fromkeys(u.text for cfg in configs for u in indexes[cfg].units))
        text_vectors = client.embed(texts)
        row_of = {text: i for i, text in enumerate(texts)}
        emb_row: list = [f"embedding-{ctx.config.embedding.kind}"]
        for cfg in configs:
            index = indexes[cfg]
            unit_vectors = text_vectors[[row_of[u.text] for u in index.units]]
            norms = np.linalg.norm(unit_vectors, axis=1)
            emb_row += cells(
                [
                    rank_of(embed_search(index, unit_vectors, v, norms, qn), index.unit_datasets, g)
                    for v, qn, g in zip(query_vectors, query_norms, gold_positions[cfg])
                ]
            )
        rows.append(emb_row)

    write_csv_atomic(ctx.output("reports/retrieval.csv"), header, rows)
    write_json_atomic(
        ctx.output("reports/retrieval_meta.json"),
        {
            "aggregation": "dataset score = max over its doc units",
            "tie_break": "ascending dataset id",
            "with_paper_units": "one unit per verified aspect passage",
            "query_source": "questions of filter-accepted pairs",
            "n_queries": len(questions),
            # Literal so the report stays byte-identical; dropping it changes the format.
            "kernel_backend": "numpy",
            "embedding": ctx.config.embedding.kind if client else None,
        },
    )


def _entailment_scorer(ctx: StageContext):
    ent = ctx.config.entailment
    if ent.kind == "mock":
        return MockBackend(ctx.config.backend.script_path)
    return _http_backend(ctx, ent)


_LEVEL_CODES = tuple(level.value for level in COGNITIVE_LEVELS)


def _share(tally: list[int]) -> str:
    """Formatted share correct of an [n, correct] tally, or "" when n is 0."""
    n, correct = tally
    return _fmt(correct / n) if n else ""


def _stage_bench_qa(ctx: StageContext) -> None:
    accepted = _bench_pairs(ctx)
    # BM25's settings come from the index file, as bench-retrieval takes them.
    doc = _index_doc(ctx, IndexConfig.WITH_PAPER)
    store = PassageStore.from_units(doc.units, ctx.config.rag.chunk_size, doc.k1, doc.b)
    scorer = _entailment_scorer(ctx)
    cognitive, rag = ctx.template("cognitive.txt"), ctx.template("rag.txt")
    levels = ctx.pmap(
        lambda p: classify_cognitive_level(p.question, ctx.gateway, cognitive), accepted
    )
    level_of = {p.id: lv for p, lv in zip(accepted, levels)}
    ks = ctx.config.rag.ks
    # Rows are written as they are made; of each k's rows only what the two
    # summaries read is kept: [n, correct] over all rows, short- and
    # long-form rows and each level, and the long-form rows' ROUGE-L.
    tallies: list[tuple[int, dict[str, list[int]], list[float]]] = []

    def eval_rows() -> Iterator[QAEvalRecord]:
        for k in ks:
            counts = {group: [0, 0] for group in ("all", "short", "long", *_LEVEL_CODES)}
            rouge: list[float] = []
            tallies.append((k, counts, rouge))

            def work(pair: QAPair) -> QAEvalRecord:
                reply = rag_answer(pair.question, store, ctx.gateway, k, rag)
                return evaluate_pair(pair, reply, ctx.gateway.model, scorer, k, level_of[pair.id])

            for row in ctx.pmap(work, accepted):
                if row.rouge_l is None:
                    form = "short"
                else:
                    form = "long"
                    rouge.append(row.rouge_l)
                for group in ("all", form, row.level.value):
                    counts[group][0] += 1
                    counts[group][1] += row.correct
                yield row
            # The shortfall depends only on k and the store's size.
            if k > len(store):
                ctx.warnings.append(
                    f"wanted {k} passages, only {len(store)} available"
                    f" for {len(accepted)} questions"
                )

    rows = CountedRows(len(ks) * len(accepted), eval_rows)
    ctx.write_rows("reports/qaeval.jsonl", rows)
    write_csv_atomic(
        ctx.output("reports/qa_summary.csv"),
        ["k", "n", "accuracy", "short_accuracy", "long_accuracy", "long_rouge_l"],
        [
            # sum() of the list, not a running total: on Python 3.12 sum()
            # adds floats with compensation, so the last bits differ.
            [k, counts["all"][0], _share(counts["all"]), _share(counts["short"]),
             _share(counts["long"]), _fmt(sum(rouge) / len(rouge)) if rouge else ""]
            for k, counts, rouge in tallies
        ],
    )
    write_csv_atomic(
        ctx.output("reports/qa_by_level.csv"),
        ["k", "micro_avg", *_LEVEL_CODES],
        [
            [k, _share(counts["all"]), *(_share(counts[code]) for code in _LEVEL_CODES)]
            for k, counts, _ in tallies
        ],
    )


def _stage_stats(ctx: StageContext) -> None:
    accepted = _accepted_pairs(ctx)
    if not accepted:
        raise StageError("no accepted pairs to summarize")
    rows = aggregate_stats(accepted)
    write_csv_atomic(
        ctx.output("reports/stats.csv"),
        ["label", "count", "pct", "avg_question_words", "avg_answer_words"],
        [
            [r.label, r.count, _fmt(r.pct), _fmt(r.avg_question_words), _fmt(r.avg_answer_words)]
            for r in rows
        ],
    )
    cognitive = ctx.template("cognitive.txt")
    levels = ctx.pmap(
        lambda p: classify_cognitive_level(p.question, ctx.gateway, cognitive), accepted
    )
    dist = LevelDistribution.from_levels(levels)
    write_csv_atomic(
        ctx.output("reports/levels.csv"),
        ["C1", "C2", "C3", "C4", "C5", "C6", "total", "diversity_index"],
        [list(dist.counts) + [dist.total, _fmt(diversity_index(dist))]],
    )


@dataclass(frozen=True)
class _Splits:
    """splits.json: the split settings and each part's sorted dataset ids."""

    ratios: tuple[int, int, int]
    seed: int
    train: tuple[str, ...]
    dev: tuple[str, ...]
    test: tuple[str, ...]


def _stage_split(ctx: StageContext) -> None:
    datasets = ctx.records("datasets.jsonl", DatasetRecord)
    ratios, seed = ctx.config.split.ratios, ctx.config.split.seed
    parts = (tuple(sorted(part)) for part in split_corpus(datasets, ratios, seed))
    write_json_atomic(ctx.output("splits.json"), record_to_dict(_Splits(ratios, seed, *parts)))


# ---------------------------------------------------------------------------
# Stage registry
# ---------------------------------------------------------------------------

_INPUT = "input:"
_TEMPLATE = "template:"
_SCRIPT = "mock_script"


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared once.

    Each entry of `inputs` is a path relative to the run directory and also
    the label under which the manifest stores that file's digest; an
    ``input:`` prefix resolves against ``--input`` instead, and a
    ``template:`` prefix names a prompt template or ``taxonomy.json``,
    resolved through ``template_dir``, and ``mock_script`` names
    ``backend.script_path`` when that is set.  Labels are an on-disk format:
    renaming one reruns the stage in every run directory.  `writes` maps
    each file the stage may write to its record type (one per JSONL row, or
    the whole JSON document), or to None for a file that is only hashed.
    """

    name: str
    inputs: tuple[str, ...]
    writes: Mapping[str, type | None]
    run: Callable[[StageContext], None]

    @property
    def deps(self) -> tuple[str, ...]:
        """The stages that write one of this stage's inputs, in run order."""
        return tuple(s.name for s in STAGES if not s.writes.keys().isdisjoint(self.inputs))


_PAIRS = ("qapairs.jsonl", "verdicts.jsonl")

# Run order: every stage comes after the stages that write its inputs.
STAGES = (
    Stage("ingest", ("input:datasets.jsonl", "input:papers.jsonl"),
          {"datasets.jsonl": DatasetRecord, "papers.jsonl": PaperRecord}, _stage_ingest),
    Stage("match", ("datasets.jsonl", "papers.jsonl", "template:relevance.txt", _SCRIPT),
          {"matches.jsonl": _MatchRow}, _stage_match),
    Stage("parse", ("datasets.jsonl", "papers.jsonl", "matches.jsonl", "template:segment.txt",
                    "template:extract.txt", "template:verify.txt", _SCRIPT),
          {"aspects.jsonl": AspectUnit, "parse_meta.json": None}, _stage_parse),
    Stage("generate", ("datasets.jsonl", "aspects.jsonl", "template:select_types.txt",
                       "template:generate.txt", "template:taxonomy.json", _SCRIPT),
          {"qapairs.jsonl": QAPair, "generation_meta.json": None}, _stage_generate),
    Stage("filter", ("datasets.jsonl", "aspects.jsonl", "qapairs.jsonl", _SCRIPT),
          {"verdicts.jsonl": _VerdictRow, "reports/filter_eval.csv": None,
           "reports/filter_pr_curve.csv": None, "reports/filter_roc_curve.csv": None},
          _stage_filter),
    Stage("index", ("datasets.jsonl", "aspects.jsonl"),
          dict.fromkeys(_INDEX_FILES.values(), _IndexDoc), _stage_index),
    Stage("bench-retrieval", (*_PAIRS, *_INDEX_FILES.values()),
          {"reports/retrieval.csv": None, "reports/retrieval_meta.json": None},
          _stage_bench_retrieval),
    Stage("bench-qa", (*_PAIRS, _INDEX_FILES[IndexConfig.WITH_PAPER],
                       "template:cognitive.txt", "template:rag.txt", _SCRIPT),
          {"reports/qaeval.jsonl": QAEvalRecord, "reports/qa_summary.csv": None,
           "reports/qa_by_level.csv": None}, _stage_bench_qa),
    Stage("stats", (*_PAIRS, "template:cognitive.txt", _SCRIPT),
          {"reports/stats.csv": None, "reports/levels.csv": None}, _stage_stats),
    Stage("split", ("datasets.jsonl",), {"splits.json": _Splits}, _stage_split),
)

STAGE_ORDER = tuple(s.name for s in STAGES)


# ---------------------------------------------------------------------------
# Manifest and stage execution
# ---------------------------------------------------------------------------


def _stage_inputs(
    stage: Stage, run_dir: Path, input_dir: Path | None, config: RunConfig
) -> dict[str, Path]:
    """Manifest label -> file, for every input the stage reads."""
    inputs: dict[str, Path] = {}
    for label in stage.inputs:
        if label == _SCRIPT:
            if config.backend.script_path:
                inputs[label] = Path(config.backend.script_path)
        elif label.startswith(_TEMPLATE):
            inputs[label] = template_path(label[len(_TEMPLATE):], config.template_dir)
        elif not label.startswith(_INPUT):
            inputs[label] = run_dir / label
        elif input_dir is None:
            raise StageError(f"{stage.name} requires --input pointing at the source corpus")
        else:
            inputs[label] = input_dir / label[len(_INPUT):]
    if stage.name == "filter" and config.filter_labels_path:
        inputs["filter_labels"] = Path(config.filter_labels_path)
    return inputs


def _read_manifest(path: Path) -> dict:
    """The manifest at `path`: an object whose `stages` maps each stage to an
    object, with `outputs`, if any, an object.  Any other shape raises."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise StageError(f"unparseable JSON in {path.name}: {exc}") from exc
    entries = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(entries, dict) or not all(
        isinstance(e, dict) and isinstance(e.get("outputs", {}), dict) for e in entries.values()
    ):
        raise StageError(f"{path.name} must be an object whose stages are objects")
    return manifest


def _changed_outputs(run_dir: Path, entry: dict) -> list[tuple[str, str]]:
    """(output, what is wrong with it) for each output in a stage's manifest
    entry that is missing or no longer has its recorded sha256."""
    changed = []
    for name, digest in entry.get("outputs", {}).items():
        path = run_dir / name
        if not path.exists():
            changed.append((name, "is missing"))
        elif file_digest(path) != digest:
            changed.append((name, "differs from its recorded sha256"))
    return changed


def _remove_outputs(run_dir: Path, entry: dict) -> None:
    """Delete the files a stage's manifest entry lists, so that running the
    stage again leaves only what that run writes.  The manifest comes from
    disk: a name that resolves outside the run directory, or to the manifest
    itself, is left alone."""
    root = run_dir.resolve()
    for name in entry.get("outputs", {}):
        path = (run_dir / name).resolve()
        if root in path.parents and path != root / "manifest.json" and path.is_file():
            path.unlink()


def _forget_unreachable(stage: Stage, digests: dict[str, str]) -> None:
    """Drop every parsed input that no remaining stage can ask for: one read
    from a file that neither `stage` nor a later stage in STAGES declares, or
    from other content than `stage` finds in that file now."""
    live = {label for s in STAGES[STAGES.index(stage):] for label in s.inputs}
    for key, (labels, _) in list(_PARSED.items()):
        if any(
            label not in live or digests.get(label, digest) != digest
            for label, digest in zip(labels, key[0])
        ):
            _PARSED.pop(key, None)


def run_stage(
    name: str,
    config: RunConfig,
    run_dir: Path,
    input_dir: Path | None = None,
) -> str:
    """Execute one stage; returns "done" or "noop"."""
    stage = next((s for s in STAGES if s.name == name), None)
    if stage is None:
        raise StageError(f"unknown stage {name!r}; choose from {', '.join(STAGE_ORDER)}")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        manifest = _read_manifest(manifest_path)
        if manifest.get("config_digest") != config.digest:
            raise StageError(
                "config digest mismatch: this run directory was started with a "
                "different configuration"
            )
    else:
        manifest = {
            "run_id": config.digest[:12],
            "config_digest": config.digest,
            "stages": {},
        }

    for dep in stage.deps:
        if manifest["stages"].get(dep, {}).get("status") != "done":
            raise StageError(f"stage {name!r} requires {dep!r} to be done first")

    inputs = _stage_inputs(stage, run_dir, input_dir, config)
    for label, path in inputs.items():
        if not path.exists():
            raise StageError(f"stage {name!r}: missing input {label} ({path})")
    input_digests = {label: file_digest(path) for label, path in inputs.items()}
    _forget_unreachable(stage, input_digests)

    entry = manifest["stages"].get(name)
    if (
        entry
        and entry.get("status") == "done"
        and entry.get("inputs") == input_digests
        and not _changed_outputs(run_dir, entry)
    ):
        return "noop"
    if entry:
        _remove_outputs(run_dir, entry)

    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    clock = time.perf_counter()
    ctx = StageContext(config=config, run_dir=run_dir, inputs=inputs, writes=stage.writes,
                       digests=dict(input_digests))

    def record(status: str, **extra: str) -> None:
        # A failed attempt lists what it wrote too, so the next run removes it.
        gateway = ctx._gateway
        own = {
            "status": status,
            "inputs": input_digests,
            "outputs": {
                str(p.relative_to(run_dir)): file_digest(p) for p in ctx.outputs if p.exists()
            },
            "started_at": started,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "duration_s": round(time.perf_counter() - clock, 6),
            # A stage that sent no model request never opened a gateway.
            "backend_calls": gateway.backend_calls if gateway else 0,
            "cache_hits": gateway.cache_hits if gateway else 0,
            **({"warnings": ctx.warnings} if ctx.warnings else {}),
            **extra,
        }
        # Stage commands may run at once on one run directory: each sets only
        # its own entry in the manifest on disk, under a lock on the directory
        # (a lock file would be an artifact).
        fd = os.open(run_dir, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            current = _read_manifest(manifest_path) if manifest_path.exists() else manifest
            current["stages"][name] = own
            write_json_atomic(manifest_path, current)
        finally:
            os.close(fd)

    try:
        stage.run(ctx)
    except Exception as exc:
        record("failed", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        ctx.close()
    record("done")
    return "done"


def run_all(config: RunConfig, run_dir: Path, input_dir: Path | None) -> dict[str, str]:
    """Run every stage in dependency order; returns stage → done/noop."""
    return {
        name: run_stage(name, config, run_dir, input_dir if name == "ingest" else None)
        for name in STAGE_ORDER
    }


# ---------------------------------------------------------------------------
# Corpus validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    file: str
    line: int
    message: str


def validate_outputs(run_dir: Path) -> list[Violation]:
    """One violation per output of a done stage that is missing or edited
    since the stage wrote it; running the stage again rewrites it."""
    path = Path(run_dir) / "manifest.json"
    if not path.exists():
        return []
    try:
        manifest = _read_manifest(path)
    except StageError as exc:
        return [Violation(path.name, 0, str(exc))]
    return [
        Violation(output, 0, f"output of stage {name} {problem}")
        for name, entry in manifest["stages"].items()
        if entry.get("status") == "done"
        for output, problem in _changed_outputs(Path(run_dir), entry)
    ]


def _accepted_positions(rows: dict[str, list[tuple[int, Any]]]) -> dict[str, int]:
    """Each accepted pair's id and its position among the pairs read."""
    decisions = {v.pair_id: v.decision for _, v in rows.get("verdicts.jsonl", ())}
    return {
        p.id: i
        for i, (_, p) in enumerate(rows.get("qapairs.jsonl", ()))
        if decisions.get(p.id) is Decision.ACCEPT
    }


def _eval_row_check(
    rows: dict[str, list[tuple[int, Any]]], name: str, out: list[Violation]
) -> Callable[[int, QAEvalRecord], None]:
    """A check of each `qaeval.jsonl` row, given the pairs and verdicts
    read: the row's pair must be accepted, and have one row per k."""
    accepted = _accepted_positions(rows)
    n_pairs = len(rows.get("qapairs.jsonl", ()))
    # Per k, a mark for each pair that has its row.
    seen: dict[int, bytearray] = collections.defaultdict(lambda: bytearray(n_pairs))

    def check(lineno: int, row: QAEvalRecord) -> None:
        i = accepted.get(row.pair_id)
        if i is None:
            out.append(Violation(name, lineno, f"unknown accepted pair {row.pair_id}"))
        elif seen[row.k][i]:
            message = f"duplicate row for pair {row.pair_id} at k {row.k}"
            out.append(Violation(name, lineno, message))
        else:
            seen[row.k][i] = 1

    return check


def validate_corpus(run_dir: Path) -> list[Violation]:
    """Every row of each JSONL file a stage writes rows of a record type to,
    read as that type, then referential checks across the files present."""
    run_dir = Path(run_dir)
    if not (run_dir / "datasets.jsonl").exists():
        return [Violation("datasets.jsonl", 0, "file missing")]
    out: list[Violation] = []
    # File -> (line, record) for each well-formed row of a file present.
    # A report's rows are parsed and checked as they are read, not kept
    # (bench-qa writes one per pair and k).
    rows: dict[str, list[tuple[int, Any]]] = {}
    for stage in STAGES:
        for name, cls in stage.writes.items():
            if cls is None or not name.endswith(".jsonl") or not (run_dir / name).exists():
                continue
            kept = rows[name] = []
            check = _eval_row_check(rows, name, out) if cls is QAEvalRecord else None
            for lineno, got in read_records(run_dir / name, cls):
                if isinstance(got, RecordError):
                    out.append(Violation(name, lineno, str(got)))
                elif check:
                    check(lineno, got)
                elif not name.startswith("reports/"):
                    kept.append((lineno, got))

    def ids(name: str, what: str) -> set[str]:
        """The ids of a file's rows; each repeated id is a violation."""
        seen: set[str] = set()
        for lineno, r in rows.get(name, ()):
            if r.id in seen:
                out.append(Violation(name, lineno, f"duplicate {what} id {r.id}"))
            seen.add(r.id)
        return seen

    ds_ids, paper_ids = ids("datasets.jsonl", "dataset"), ids("papers.jsonl", "paper")
    pair_ids = ids("qapairs.jsonl", "pair")
    if "papers.jsonl" in rows:
        for lineno, d in rows["datasets.jsonl"]:
            for pid in d.linked_paper_ids:
                if pid not in paper_ids:
                    out.append(
                        Violation("datasets.jsonl", lineno, f"{d.id} links unknown paper {pid}")
                    )
    # File -> (field, what it names, the ids it must be one of) per reference.
    refs = {
        "matches.jsonl": [("dataset_id", "dataset", ds_ids), ("paper_id", "paper", paper_ids)],
        "aspects.jsonl": [("dataset_id", "dataset", ds_ids)],
        "qapairs.jsonl": [("dataset_id", "dataset", ds_ids)],
        "verdicts.jsonl": [("pair_id", "pair", pair_ids)],
    }
    if paper_ids:  # an aspect's paper is checked only when some paper was read
        refs["aspects.jsonl"].append(("paper_id", "paper", paper_ids))
    for name, checks in refs.items():
        for lineno, r in rows.get(name, ()):
            for field, what, known in checks:
                if (value := getattr(r, field)) not in known:
                    out.append(Violation(name, lineno, f"unknown {what} {value}"))
    datasets = [d for _, d in rows["datasets.jsonl"]]
    aspects = [a for _, a in rows.get("aspects.jsonl", ())]
    for cfg, name in _INDEX_FILES.items():
        if (run_dir / name).exists():
            out += _index_violations(run_dir, cfg, datasets, aspects)
    if "qapairs.jsonl" in rows and "verdicts.jsonl" in rows:
        out += _total_violations(run_dir, len(_accepted_positions(rows)))
    if (run_dir / "splits.json").exists():
        out += _split_violations(run_dir, datasets)
    if (run_dir / "reports/retrieval.csv").exists():
        out += _retrieval_violations(run_dir)
    return out


def _index_violations(
    run_dir: Path, cfg: IndexConfig, datasets: list[DatasetRecord], aspects: list[AspectUnit]
) -> list[Violation]:
    """An index file must hold the units that `doc_units` makes of the
    datasets and aspects for its configuration."""
    name = _INDEX_FILES[cfg]
    try:
        doc = record_from_dict(_IndexDoc, json.loads((run_dir / name).read_text(encoding="utf-8")))
    except (ValueError, RecordError) as exc:
        return [Violation(name, 0, f"malformed: {exc}")]
    try:
        want = doc_units(datasets, aspects, cfg)
    except (ValueError, PipelineError) as exc:
        return [Violation(name, 0, f"its units cannot be derived: {exc}")]
    got = doc.units
    if got == tuple(want):
        return []
    first = next(
        (i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want))
    )
    message = (f"units differ from those datasets.jsonl and aspects.jsonl make from unit"
               f" {first} on ({len(got)} units, {len(want)} made)")
    return [Violation(name, 0, message)]


def _total_violations(run_dir: Path, accepted: int) -> list[Violation]:
    """The Total row's count in stats.csv and the total in levels.csv must
    each be the number of accepted pairs."""
    out = []
    for name, label, column in (
        ("reports/stats.csv", "Total", "count"), ("reports/levels.csv", None, "total")
    ):
        if not (run_dir / name).exists():
            continue
        what = f"{label} {column}" if label else column
        try:
            with (run_dir / name).open(encoding="utf-8", newline="") as f:
                found = [(lineno, row.get(column))
                         for lineno, row in enumerate(csv.DictReader(f), start=2)
                         if label is None or row.get("label") == label]
        except (ValueError, csv.Error) as exc:
            out.append(Violation(name, 0, f"malformed: {exc}"))
            continue
        if not found:
            out.append(Violation(name, 0, f"has no {what}"))
        out += [
            Violation(name, lineno, f"{what} {value} is not the {accepted} accepted pairs")
            for lineno, value in found
            if value != str(accepted)
        ]
    return out


def _split_violations(run_dir: Path, datasets: list[DatasetRecord]) -> list[Violation]:
    """splits.json must be the split of the datasets under its own ratios
    and seed, each part's ids sorted."""
    try:
        doc = json.loads((run_dir / "splits.json").read_text(encoding="utf-8"))
        got = record_from_dict(_Splits, doc)
        want = split_corpus(datasets, got.ratios, got.seed)
    except (ValueError, RecordError) as exc:
        return [Violation("splits.json", 0, f"malformed: {exc}")]
    settings = f"under ratios {list(got.ratios)} and seed {got.seed}"
    return [
        Violation("splits.json", 0, f"{part} differs from the split of datasets.jsonl {settings}")
        for part, ids in zip(("train", "dev", "test"), want)
        if getattr(got, part) != tuple(sorted(ids))
    ]


# The `<index>_r_at_<k>` and `<index>_mrr_at_<cutoff>` columns of retrieval.csv.
_METRIC_COLUMN = re.compile(r"(\w+)_(r|mrr)_at_(\d+)")


def _retrieval_violations(run_dir: Path) -> list[Violation]:
    """In each row of retrieval.csv, per index: every recall in [0, 1],
    recall that does not drop as k grows, and MRR no lower than R@1."""
    name = "reports/retrieval.csv"
    try:
        with (run_dir / name).open(encoding="utf-8", newline="") as f:
            header, *rows = list(csv.reader(f)) or [[]]
    except (ValueError, csv.Error) as exc:
        return [Violation(name, 0, f"malformed: {exc}")]
    # (index, whether MRR, k, position) of each metric column: per index,
    # its recalls by ascending k, then its MRR.
    columns = sorted((m[1], m[2] == "mrr", int(m[3]), i) for i, column in enumerate(header)
                     if (m := _METRIC_COLUMN.fullmatch(column)))
    out = []
    for lineno, row in enumerate(rows, start=2):

        def say(message: str) -> None:
            out.append(Violation(name, lineno, f"{row[0] if row else ''}: {message}"))

        try:
            cells = [(index, is_mrr, k, float(row[i])) for index, is_mrr, k, i in columns]
        except (ValueError, IndexError):
            say("a metric is not a number")
            continue
        recalls: dict[str, list[tuple[int, float]]] = collections.defaultdict(list)
        for index, is_mrr, k, value in cells:
            at_k = recalls[index]
            if is_mrr:
                if at_k and at_k[0][0] == 1 and value < at_k[0][1]:
                    say(f"{index} MRR {value} is below its recall at k 1, {at_k[0][1]}")
                continue
            if not 0.0 <= value <= 1.0:
                say(f"{index} recall at k {k} is {value}, outside [0, 1]")
            if at_k and value < at_k[-1][1]:
                say(f"{index} recall drops from {at_k[-1][1]} at k {at_k[-1][0]} to {value} at k {k}")
            at_k.append((k, value))
    return out
