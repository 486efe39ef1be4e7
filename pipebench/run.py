"""Pipeline benchmark: run `all` under the mock backend on seeded synthetic
corpora and report end-to-end and per-layer metrics.

    python3 pipebench/run.py --workload meta_scale --seed 1 --seconds 28 --trace 0
    python3 pipebench/run.py --check-demo
    python3 pipebench/run.py --record 1-10

Run from anywhere; the program is imported from the checkout's src/. Work
files live under .pipebench-work/ at the checkout root and are removed on
exit.

Workloads (closed loop: one pipeline run at a time, each in a fresh process
from an empty run directory):
  meta_scale  metadata-only datasets, concurrency 1, no disk cache, no
              embeddings. Retrieval ranking and ROUGE-L dominate; curation
              does no work and the gateway has no cache.
  paper_rich  datasets each linked to a three-section paper, concurrency 2,
              mock embeddings, an empty disk cache per repetition: every
              gateway call is a miss followed by a cache write.
  warm_cache  paper_rich's inputs against a cache filled during set-up:
              every gateway call is a disk hit.

--trace 0 prints the end-to-end metrics (medians over repetitions):
all_s, corpus_s (ingest..filter), report_s (index..split), peak_rss_mb and
setup_s (median over set-ups). On warm_cache a set-up is input generation
plus the cache fill, one whole pipeline run, done SETUP_REPEATS times. On
meta_scale and paper_rich it is input generation plus the program's start-up
in a fresh interpreter (imports and config load, up to the first stage):
PROBE_REPEATS set-ups first, then one before each untraced repetition, which
runs on its own fresh inputs. --trace 1 alternates traced
and untraced repetitions and prints the per-layer metrics of tracer.layer_metrics plus
trace.overhead_s (traced minus untraced all_s).

A repetition fails when the child exits nonzero, when validate_corpus
reports any violation, when the artifact digest differs from the reference
(references.json for recorded seeds, else the first run of this
invocation), when a warm_cache run changes the cache's file count, and, on
traced runs, when a count disagrees with the value derived from the
artifacts or with the other traced runs. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "scirforge" / "fixtures"
WORK = ROOT / ".pipebench-work"
REFERENCES = BENCH / "references.json"

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 3  # on warm_cache each set-up includes a whole pipeline run
PROBE_REPEATS = 5  # elsewhere a set-up is generation plus a start-up probe
MIN_REPS = 2
MIN_TRACED_REPS = 3  # traced, untraced, traced: counts must repeat, overhead needs both
HARD_LIMIT_S = 165.0  # every invocation must end within 180 s
END_TO_END = (
    ("all_s", "s"), ("corpus_s", "s"), ("report_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
CORPUS_STAGES = ("ingest", "match", "parse", "generate", "filter")


class ChildFailed(Exception):
    pass


def run_child(config: Path, run_dir: Path, trace: Path | None, timeout: float,
              probe: bool = False) -> dict:
    """One pipeline run in a fresh interpreter (with probe, only its start-up);
    returns child.py's result."""
    out = run_dir.parent / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
        "--config", str(config), "--run-dir", str(run_dir), "--out", str(out),
    ]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise ChildFailed(f"exit {proc.returncode}: {last[0]}")
    return json.loads(out.read_text(encoding="utf-8"))


def count_files(path: Path) -> int:
    return sum(1 for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def _lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def _csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def expected_counts(run_dir: Path) -> dict[str, tuple[str, int]]:
    """Per-layer counts that follow from a finished run's artifacts alone,
    each with the traced target whose spans produce it."""
    pairs = len(_lines(run_dir / "qapairs.jsonl"))
    qa_rows = [json.loads(ln) for ln in _lines(run_dir / "reports/qaeval.jsonl")]
    summary = _csv(run_dir / "reports/qa_summary.csv")
    n_bench = int(summary[0]["n"])
    meta = json.loads((run_dir / "reports/retrieval_meta.json").read_text(encoding="utf-8"))
    methods = len(_csv(run_dir / "reports/retrieval.csv"))
    plans = json.loads((run_dir / "generation_meta.json").read_text(encoding="utf-8"))["plans"]
    classified = int(_csv(run_dir / "reports/levels.csv")[0]["total"])
    complete = "gateway.Gateway.complete"
    return {
        "gateway.calls.score_with": ("gateway.Gateway.score_continuation", pairs),
        "gateway.calls.score_without": ("gateway.Gateway.score_continuation", pairs),
        "qagen.pairs_out": ("qagen.generate_qa", pairs),
        "gateway.calls.relevance": (complete, len(_lines(run_dir / "matches.jsonl"))),
        "curation.units_out": ("curation.verify_aspects", len(_lines(run_dir / "aspects.jsonl"))),
        # bench-retrieval ranks every query on both indexes for each method
        # row; every RAG question with k > 0 ranks the passage store once.
        "retrieval.queries": (
            "retrieval.search",
            meta["n_queries"] * 2 * methods + sum(int(r["n"]) for r in summary if int(r["k"]) > 0),
        ),
        "gateway.calls.rag": (complete, len(qa_rows)),
        "kernels.lcs_calls": (
            "kernels.lcs_length", sum(1 for r in qa_rows if r["rouge_l"] is not None),
        ),
        # stats classifies every accepted pair, bench-qa every benchmarked one.
        "evalqa.classify_calls": ("evalqa.classify_cognitive_level", classified + n_bench),
        "gateway.calls.cognitive": (complete, classified + n_bench),
        "gateway.calls.select_types": (
            complete, sum(1 for p in plans.values() if p["mode"] == "MetadataOnly"),
        ),
        # A full plan asks for 3 pairs of each of 18 types, a metadata-only
        # plan for 1 pair of each of 8: one generate_qa call per type.
        "qagen.generate_calls": (
            "qagen.generate_qa",
            sum(p["total"] // 3 if p["mode"] == "WithPaper" else p["total"]
                for p in plans.values()),
        ),
    }


def count_failures(m: dict, missing: list[str], run_dir: Path, workload: str) -> list[str]:
    out = []
    for name, (source, want) in expected_counts(run_dir).items():
        if source not in missing and m[name] != want:
            out.append(f"{name} = {m[name]}, artifacts give {want}")
    if not any(t.startswith("gateway.") for t in missing):
        calls = sum(m[f"gateway.calls.{label}"] for label in tracer.GATEWAY_LABELS)
        if m["gateway.backend_calls"] + m["gateway.cache_hits"] != calls:
            out.append(f"backend calls + cache hits != {calls} gateway calls")
        if workload == "warm_cache" and m["gateway.backend_calls"] != 0:
            out.append(f"{m['gateway.backend_calls']} gateway calls missed the warm cache")
    return out


def tail(values: list[float]) -> str:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"max {max(values):.4f} (n={n}, too few for a tail percentile)"
    q = (n - 10) / n
    return f"p{int(100 * q)} {tracer.percentile(values, q):.4f} (n={n})"


def environment(kernel_backend: str) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernel_backend,
    }


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def artifact_key(workload: str) -> str:
    """warm_cache must reproduce paper_rich's artifacts exactly."""
    return "paper_rich" if workload == "warm_cache" else workload


def fresh_work_dir(label: str) -> Path:
    work = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


# ---------------------------------------------------------------------------
# One benchmark invocation
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, dest: Path) -> Path:
    """Write the workload's inputs for this seed under dest; returns the config."""
    return corpus.write_inputs(workload, seed, dest, FIXTURES / "mock_script.json")


def snapshot(config: Path) -> dict[str, bytes]:
    """The generated input files beside a config, by name."""
    return {p.name: p.read_bytes() for p in config.parent.iterdir() if p.is_file()}


def setup(workload: str, seed: int, work: Path, hard_deadline: float):
    """Set-ups before the repetitions: generate the inputs, then on
    warm_cache fill the cache with one whole pipeline run (SETUP_REPEATS
    times), elsewhere start the program up to its first stage
    (PROBE_REPEATS times). Returns (config of the first, seconds per set-up,
    digests of the fill runs)."""
    times, fills = [], []
    warm = workload == "warm_cache"
    for i in range(SETUP_REPEATS if warm else PROBE_REPEATS):
        start = time.perf_counter()
        config = generate(workload, seed, work / f"inputs{i}")
        if warm:
            fill = run_child(config, work / "fill" / "run", None, hard_deadline - start)
            fills.append(fill["digest"])
            times.append(time.perf_counter() - start)
        else:
            probe = run_child(config, work / "fill" / "run", None, hard_deadline - start, True)
            times.append(probe["ready"] - start)
        shutil.rmtree(work / "fill", ignore_errors=True)
        if i:
            if snapshot(config) != snapshot(work / "inputs0" / "config.json"):
                raise RuntimeError("one seed generated different inputs")
            shutil.rmtree(config.parent)
    return work / "inputs0" / "config.json", times, fills


def one_rep(config: Path, rep_dir: Path, traced: bool, workload: str, hard_deadline: float):
    """Run one repetition; returns (child result or None, failures, metrics)."""
    cache = config.parent / "cache"
    cache_files = count_files(cache)
    trace_path = rep_dir / "trace.json" if traced else None
    try:
        result = run_child(config, rep_dir / "run", trace_path, hard_deadline - time.perf_counter())
    except ChildFailed as exc:
        return None, [str(exc)], None
    failures = list(result["violations"][:5])
    if workload == "warm_cache" and count_files(cache) != cache_files:
        failures.append("the run changed the warm cache's file count")
    metrics = None
    if traced:
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        metrics = tracer.layer_metrics(doc, result["cpu_s"])
        failures += count_failures(metrics, doc["missing"], rep_dir / "run", workload)
        if doc["missing"]:
            print(f"tracer targets missing from the program: {', '.join(doc['missing'])}")
    return result, failures, metrics


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    work = fresh_work_dir(f"{workload}-{seed}")
    try:
        return _bench(workload, seed, seconds, trace, work, hard_deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another invocation is still using it
            pass


def _bench(workload, seed, seconds, trace, work, hard_deadline) -> dict:
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    try:
        config, setup_times, fill_digests = setup(workload, seed, work, hard_deadline)
    except ChildFailed as exc:
        print(f"set-up failed: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    recorded = load_references().get(artifact_key(workload), {}).get(str(seed))
    reference = recorded or (fill_digests[0] if fill_digests else None)
    print(f"reference digest: {'recorded' if recorded else 'first run of this invocation'}")
    problems = [f"set-up fill digest {d[:12]} != reference" for d in fill_digests if d != reference]

    reps: list[dict] = []
    layer: list[dict] = []
    kernel_backend = "unknown"
    deadline = time.perf_counter() + seconds
    inputs = snapshot(config)
    while True:
        traced = trace and len(reps) % 2 == 0
        rep_dir = work / f"rep{len(reps)}"
        t0 = time.perf_counter()
        rep_config = config
        if workload != "warm_cache":
            # Fresh inputs (and so an empty cache) for every repetition.
            rep_config = generate(workload, seed, rep_dir / "inputs")
        result, failures, metrics = one_rep(rep_config, rep_dir, traced, workload, hard_deadline)
        if workload != "warm_cache" and result is not None and not traced:
            # Generation plus start-up is this repetition's set-up; sampling
            # it here spreads set-up samples over the whole run.
            setup_times.append(result["ready"] - t0)
        if snapshot(rep_config) != inputs:
            failures.append("one seed generated different inputs")
        rep = {"traced": traced, "wall": time.perf_counter() - t0, "failures": failures}
        shutil.rmtree(rep_dir, ignore_errors=True)
        if result is not None:
            kernel_backend = result["kernel_backend"]
            stages = result["stage_s"]
            rep.update(
                all_s=result["all_s"],
                corpus_s=sum(stages[s] for s in CORPUS_STAGES),
                report_s=sum(v for s, v in stages.items() if s not in CORPUS_STAGES),
                peak_rss_mb=result["peak_rss_mb"],
            )
            if reference is None:
                reference = result["digest"]
            elif result["digest"] != reference:
                failures.append(
                    f"artifact digest {result['digest'][:12]} != reference {reference[:12]}"
                )
        if metrics is not None:
            layer.append(metrics)
        if "all_s" in rep:
            print(f"repetition {len(reps)}{' traced' if traced else ''}: all_s {rep['all_s']:.4f} "
                  f"corpus_s {rep['corpus_s']:.4f} report_s {rep['report_s']:.4f} "
                  f"peak_rss_mb {rep['peak_rss_mb']:.1f}")
        for failure in failures:
            print(f"repetition {len(reps)} failed: {failure}")
        reps.append(rep)
        now = time.perf_counter()
        typical = statistics.median(r["wall"] for r in reps)
        if now + typical > hard_deadline:
            break
        if len(reps) >= (MIN_TRACED_REPS if trace else MIN_REPS) and now + typical > deadline:
            break

    failed = sum(1 for r in reps if r["failures"])
    print(f"env {json.dumps(environment(kernel_backend), sort_keys=True)}")
    print(f"error_rate {failed / len(reps):.4f} ratio ({failed} failed of {len(reps)} repetitions)")
    print(f"setup_s {statistics.median(setup_times):.4f} s median, {tail(setup_times)}")
    untraced = [r for r in reps if not r["traced"] and "all_s" in r]
    metrics: dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END:
            values = setup_times if name == "setup_s" else [r[name] for r in untraced]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            if values and name != "setup_s":
                print(f"{name} {metrics[name]['value']:.4f} {unit} median, {tail(values)}")
    elif layer:
        for name in tracer.per_layer_names():
            unit = tracer.unit_of(name)
            if name == "trace.overhead_s":
                traced_all = [r["all_s"] for r in reps if r["traced"] and "all_s" in r]
                if not untraced:
                    continue
                value = statistics.median(traced_all) - statistics.median(
                    r["all_s"] for r in untraced
                )
            else:
                values = [m[name] for m in layer]
                if unit == "count" and len(set(values)) > 1:
                    problems.append(f"{name} differs between traced runs: {values}")
                value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(problem)
    return {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Demo count check and reference recording
# ---------------------------------------------------------------------------


def check_demo() -> bool:
    """Two traced runs and one untraced run of the bundled demo: counts must
    equal the artifact-derived values and repeat exactly, and every run's
    artifacts must match the recorded demo digest byte for byte."""
    work = fresh_work_dir("demo")
    reference = load_references().get("demo")
    ok = True
    try:
        config = FIXTURES / "config.json"
        seen = []
        deadline = time.perf_counter() + HARD_LIMIT_S
        for i, traced in enumerate((True, False, True)):
            result, failures, metrics = one_rep(config, work / f"rep{i}", traced, "demo", deadline)
            if result is not None and result["digest"] != reference:
                failures.append(f"digest {result['digest'][:12]} != recorded demo digest")
            if metrics is not None:
                seen.append({n: v for n, v in metrics.items() if tracer.unit_of(n) == "count"})
            for failure in failures:
                print(f"demo run {i} ({'traced' if traced else 'untraced'}): {failure}")
            ok = ok and not failures
        if len(seen) == 2 and seen[0] != seen[1]:
            print("demo counts differ between traced runs")
            ok = False
        for name, value in sorted(seen[0].items()) if seen else []:
            print(f"{name} {value}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("demo check", "ok" if ok else "FAILED")
    return ok


def record(seeds: list[int]) -> None:
    """Record artifact digests for each workload's inputs at these seeds and
    for the bundled demo. An existing digest that disagrees is an error."""
    refs = load_references()
    work = fresh_work_dir("record")
    try:
        jobs = [("demo", None)] + [(w, s) for w in ("meta_scale", "paper_rich") for s in seeds]
        for workload, seed in jobs:
            if workload == "demo":
                config = FIXTURES / "config.json"
            else:
                config = generate(workload, seed, work / "inputs")
            deadline = time.perf_counter() + HARD_LIMIT_S
            result, failures, _ = one_rep(config, work / "rep", False, workload, deadline)
            shutil.rmtree(work / "inputs", ignore_errors=True)
            shutil.rmtree(work / "rep", ignore_errors=True)
            if failures:
                raise SystemExit(f"{workload} seed {seed}: {failures}")
            if workload == "demo":
                old, refs["demo"] = refs.get("demo"), result["digest"]
            else:
                table = refs.setdefault(workload, {})
                old, table[str(seed)] = table.get(str(seed)), result["digest"]
            if old not in (None, result["digest"]):
                raise SystemExit(f"{workload} seed {seed}: digest changed from the recorded one")
            print(f"{workload}{'' if seed is None else f' seed {seed}'}: {result['digest']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs["meta_scale"] = dict(sorted(refs.get("meta_scale", {}).items(), key=lambda kv: int(kv[0])))
    refs["paper_rich"] = dict(sorted(refs.get("paper_rich", {}).items(), key=lambda kv: int(kv[0])))
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scirforge pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-demo", action="store_true",
                        help="count and byte-identity check on the bundled demo")
    parser.add_argument("--record", metavar="LO-HI",
                        help="record reference digests for these seeds")
    args = parser.parse_args(argv)
    if not (SRC / "scirforge" / "pipeline.py").is_file():
        print(f"no scirforge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.check_demo:
        return 0 if check_demo() else 1
    if args.record:
        record(_seed_range(args.record))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    outcome = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
