"""One benchmark repetition: run every pipeline stage in this fresh process.

    python3 pipebench/child.py --src SRC --config CONFIG --run-dir RUN --out RESULT [--trace SPANS] [--probe]

The input files (datasets.jsonl, papers.jsonl) sit beside CONFIG. Writes
RESULT as JSON: per-stage wall seconds, process CPU seconds, peak RSS,
the sha256 over every artifact except manifest.json, the validator's
violations, and `ready`, the time.perf_counter() reading (CLOCK_MONOTONIC,
so comparable with the parent's) once the program is imported and the
config loaded. Timing starts there and stops after the last stage, so
the digest, the validation and writing the trace are not timed. With
--trace the tracer is installed before the first stage and its spans are
written to SPANS once at the end. With --probe the child stops at `ready`
and RESULT holds only that reading.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def artifact_digest(run_dir: Path) -> str:
    """sha256 over (relative path, bytes) of every file but manifest.json."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(run_dir).as_posix()
        if rel == "manifest.json":
            continue
        h.update(rel.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """High-water resident set of this process image. ru_maxrss is not used
    on Linux because it carries the parent's size over fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default="")
    parser.add_argument("--probe", action="store_true", help="stop once the config is loaded")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from scirforge import pipeline
    from scirforge.config import load_config

    if not Path(pipeline.__file__).resolve().is_relative_to(src):
        print(f"scirforge imported from {pipeline.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    config = load_config(args.config)
    ready = time.perf_counter()
    if args.probe:
        Path(args.out).write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0
    run_dir = Path(args.run_dir)
    stage_s = {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    input_dir = Path(args.config).parent
    for name in pipeline.STAGE_ORDER:
        start = time.perf_counter()
        status = pipeline.run_stage(name, config, run_dir, input_dir if name == "ingest" else None)
        stage_s[name] = time.perf_counter() - start
        if status != "done":
            print(f"stage {name} returned {status!r} in a fresh run dir", file=sys.stderr)
            return 1
    all_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    try:
        from scirforge.kernels import backend_name

        kernel_backend = backend_name()
    except ImportError:
        kernel_backend = "none"
    result = {
        "kernel_backend": kernel_backend,
        "ready": ready,
        "all_s": all_s,
        "cpu_s": cpu_s,
        "stage_s": stage_s,
        "peak_rss_mb": peak_rss_mb(),
        "digest": artifact_digest(run_dir),
        "violations": [
            f"{v.file}:{v.line}: {v.message}" for v in pipeline.validate_corpus(run_dir)
        ],
    }
    if tracer is not None:
        tracer.write(Path(args.trace))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
