"""Spans around calls into each scirforge layer, installed from outside.

`Tracer.install` wraps the public functions listed in TARGETS at every
binding where they are looked up. Several modules import names with
`from .x import y`, so the wrapper replaces the function in every scirforge
module namespace that holds it, not only in the defining module; methods
are replaced on their class. Nothing under src/ is edited.

A span is (id, name, start, end, parent id, thread id, info). Spans are kept
in memory and written once by `Tracer.write`. A span opened on a worker
thread with no open span of its own takes the main thread's innermost open
span (the running stage) as its parent. `layer_metrics` turns a written
trace into the per-layer metrics.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path


def _stage_label(args, kwargs, result):
    return kwargs.get("stage", args[2] if len(args) > 2 else "")


def _lcs_cells(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _second_arg_len(args, kwargs, result):
    return len(args[1])


def _length(args, kwargs, result):
    return len(result)


def _accepted(args, kwargs, result):
    return int(result.delta > 0)


def _stage_name(args, kwargs, result):
    return args[0]


# Marks a generator function: timed only while it produces, counted per item.
GENERATOR = object()

# module -> [(public name, info function or None)]; "Class.method" wraps a method.
TARGETS = {
    "core": [("read_jsonl", GENERATOR), ("write_jsonl", _second_arg_len)],
    "prompts": [("load_template", None), ("render", None)],
    "kernels": [("lcs_length", _lcs_cells), ("bm25_accumulate", _second_arg_len)],
    "retrieval": [
        ("search", None), ("embed_search", None), ("score_units", None),
        ("index_from_units", None), ("recall_at_k", None), ("mrr_at", None),
        ("PassageStore.top_k", None),
    ],
    "evalqa": [
        ("rouge_l", None), ("classify_cognitive_level", None),
        ("rag_answer", None), ("evaluate_pair", None),
    ],
    "curation": [
        ("assess_relevance", None), ("label_segments", None),
        ("extract_aspects", None), ("verify_aspects", _length),
    ],
    "qagen": [("plan_generation", None), ("generate_qa", _length)],
    "seper": [("delta_seper", _accepted)],
    "gateway": [
        ("Gateway.complete", _stage_label),
        ("Gateway.score_continuation", _stage_label),
    ],
    "pipeline": [("run_stage", _stage_name), ("file_digest", None)],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.tallies: list[tuple[str, float, int]] = []
        self.gateways: list = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append(
                    (sid, name, start, time.perf_counter(), parent, threading.get_ident(), None)
                )
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            extra = info(args, kwargs, result) if info else None
            tracer.spans.append((sid, name, start, end, parent, threading.get_ident(), extra))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            busy = 0.0
            items = 0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        return
                    busy += time.perf_counter() - start
                    items += 1
                    yield item
            finally:
                tracer.tallies.append((name, busy, items))

        return traced

    def install(self) -> None:
        """Wrap every target; call before the pipeline runs. A target the
        program no longer has is skipped and listed in `missing`, so its
        metrics read 0 and its count checks are skipped."""
        import importlib

        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "scirforge" or key.startswith("scirforge.")
        ]

        def rebind(original, wrapper):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

        def lookup(module, target):
            try:
                owner = importlib.import_module(f"scirforge.{module}")
            except ImportError:
                return None, None
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                return None, None
            return owner, attr

        for module, entries in TARGETS.items():
            for target, info in entries:
                name = f"{module}.{target}"
                owner, attr = lookup(module, target)
                if owner is None:
                    self.missing.append(name)
                elif isinstance(owner, type):
                    setattr(owner, attr, self._wrap(name, getattr(owner, attr), info))
                elif info is GENERATOR:
                    original = getattr(owner, attr)
                    rebind(original, self._wrap_generator(name, original))
                else:
                    original = getattr(owner, attr)
                    rebind(original, self._wrap(name, original, info))

        owner, _ = lookup("gateway", "Gateway.__init__")
        if owner is None:
            self.missing.append("gateway.Gateway.__init__")
            return
        original_init = owner.__init__

        @functools.wraps(original_init)
        def init(gw, *args, **kwargs):
            original_init(gw, *args, **kwargs)
            self.gateways.append(gw)

        owner.__init__ = init

    def write(self, path: Path) -> None:
        doc = {
            "spans": self.spans,
            "tallies": self.tallies,
            "missing": self.missing,
            "gateway": {
                "cache_hits": sum(getattr(g, "cache_hits", 0) for g in self.gateways),
                "backend_calls": sum(getattr(g, "backend_calls", 0) for g in self.gateways),
            },
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

GATEWAY_LABELS = (
    "relevance", "segment", "extract", "verify", "select_types", "generate",
    "score_without", "score_with", "cognitive", "rag",
)
STAGES = (
    "ingest", "match", "parse", "generate", "filter", "index",
    "bench-retrieval", "bench-qa", "stats", "split",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(doc: dict, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    `_s` metrics are inclusive seconds summed over calls unless stated,
    `_ms.p50/.p99` are per-call latencies, the rest are counts or ratios.
    """
    spans = doc["spans"]
    by_name: dict[str, list] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))

    def durations(name):
        return [s[3] - s[2] for s in by_name.get(name, [])]

    def total(*names):
        return sum(sum(durations(n)) for n in names)

    def count(name):
        return len(by_name.get(name, []))

    def infos(name):
        return [s[6] for s in by_name.get(name, [])]

    def self_time(*names):
        """Span time minus the part of it that child spans cover."""
        out = 0.0
        for n in names:
            for sid, _, start, end, *_ in by_name.get(n, []):
                out += (end - start) - _union_length(children.get(sid, []))
        return out

    def ms(name, q):
        return 1000.0 * percentile(durations(name), q)

    m: dict[str, float] = {}
    # retrieval
    m["retrieval.rank_s"] = self_time("retrieval.search", "retrieval.embed_search")
    for key, name in (
        ("search_ms", "retrieval.search"),
        ("top_k_ms", "retrieval.PassageStore.top_k"),
        ("embed_search_ms", "retrieval.embed_search"),
    ):
        m[f"retrieval.{key}.p50"] = ms(name, 0.50)
        m[f"retrieval.{key}.p99"] = ms(name, 0.99)
    m["retrieval.score_units_s"] = total("retrieval.score_units")
    m["retrieval.index_build_s"] = total("retrieval.index_from_units")
    m["retrieval.rank_metrics_s"] = total("retrieval.recall_at_k", "retrieval.mrr_at")
    m["retrieval.queries"] = count("retrieval.search") + count("retrieval.embed_search")
    # kernels
    m["kernels.lcs_calls"] = count("kernels.lcs_length")
    m["kernels.lcs_cells"] = sum(infos("kernels.lcs_length"))
    m["kernels.lcs_s"] = total("kernels.lcs_length")
    m["kernels.bm25_calls"] = count("kernels.bm25_accumulate")
    m["kernels.bm25_postings"] = sum(infos("kernels.bm25_accumulate"))
    m["kernels.bm25_s"] = total("kernels.bm25_accumulate")
    # evalqa
    m["evalqa.rouge_l_s"] = total("evalqa.rouge_l")
    m["evalqa.classify_calls"] = count("evalqa.classify_cognitive_level")
    m["evalqa.classify_s"] = total("evalqa.classify_cognitive_level")
    m["evalqa.rag_answer_ms.p50"] = ms("evalqa.rag_answer", 0.50)
    m["evalqa.rag_answer_ms.p99"] = ms("evalqa.rag_answer", 0.99)
    m["evalqa.evaluate_s"] = total("evalqa.evaluate_pair")
    # gateway
    labels = infos("gateway.Gateway.complete") + infos("gateway.Gateway.score_continuation")
    for label in GATEWAY_LABELS:
        m[f"gateway.calls.{label}"] = labels.count(label)
    gw = doc["gateway"]
    m["gateway.backend_calls"] = gw["backend_calls"]
    m["gateway.cache_hits"] = gw["cache_hits"]
    m["gateway.hit_ratio"] = gw["cache_hits"] / len(labels) if labels else 0.0
    m["gateway.complete_ms.p50"] = ms("gateway.Gateway.complete", 0.50)
    m["gateway.complete_ms.p99"] = ms("gateway.Gateway.complete", 0.99)
    m["gateway.score_ms.p50"] = ms("gateway.Gateway.score_continuation", 0.50)
    m["gateway.score_ms.p99"] = ms("gateway.Gateway.score_continuation", 0.99)
    # Wall seconds during which at least one gateway call was in flight.
    m["gateway.busy_s"] = _union_length(
        [(s[2], s[3]) for n in ("gateway.Gateway.complete", "gateway.Gateway.score_continuation")
         for s in by_name.get(n, [])]
    )
    # curation
    m["curation.relevance_s"] = total("curation.assess_relevance")
    m["curation.segment_s"] = total("curation.label_segments")
    m["curation.extract_s"] = total("curation.extract_aspects")
    m["curation.verify_s"] = total("curation.verify_aspects")
    m["curation.units_out"] = sum(infos("curation.verify_aspects"))
    # qagen
    m["qagen.plan_s"] = total("qagen.plan_generation")
    m["qagen.generate_s"] = total("qagen.generate_qa")
    m["qagen.generate_calls"] = count("qagen.generate_qa")
    m["qagen.pairs_out"] = sum(infos("qagen.generate_qa"))
    generate_calls = m["qagen.generate_calls"]
    m["qagen.attempt_ratio"] = (
        m["gateway.calls.generate"] / generate_calls if generate_calls else 0.0
    )
    # seper
    m["seper.delta_s"] = total("seper.delta_seper")
    deltas = count("seper.delta_seper")
    m["seper.accept_ratio"] = sum(infos("seper.delta_seper")) / deltas if deltas else 0.0
    # pipeline
    stage_time = {s[6]: s[3] - s[2] for s in by_name.get("pipeline.run_stage", [])}
    for stage in STAGES:
        m[f"pipeline.stage_s.{stage}"] = stage_time.get(stage, 0.0)
    m["pipeline.digest_s"] = total("pipeline.file_digest")
    m["pipeline.cpu_s"] = cpu_s
    # prompts
    m["prompts.load_template_calls"] = count("prompts.load_template")
    m["prompts.load_template_s"] = total("prompts.load_template")
    m["prompts.render_s"] = total("prompts.render")
    # core
    reads = [t for t in doc["tallies"] if t[0] == "core.read_jsonl"]
    m["core.read_jsonl_s"] = sum(t[1] for t in reads)
    m["core.records_read"] = sum(t[2] for t in reads)
    m["core.write_jsonl_s"] = total("core.write_jsonl")
    m["core.records_written"] = sum(infos("core.write_jsonl"))
    m["trace.spans"] = len(spans)
    return m


def unit_of(name: str) -> str:
    if name.endswith((".p50", ".p99")):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced invocation reports, in order."""
    empty = {"spans": [], "tallies": [], "gateway": {"cache_hits": 0, "backend_calls": 0}}
    return list(layer_metrics(empty, 0.0)) + ["trace.overhead_s"]
