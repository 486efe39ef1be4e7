"""Stage orchestration, manifest semantics, artifact checks, validator, CLI."""
import csv
import dataclasses
import hashlib
import io
import json
import random
import re
import os
import shutil
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

from conftest import FakeResponse

from scirforge import core, pipeline
from scirforge.cli import FIXTURE_DIR, main
from scirforge.config import load_config
from scirforge.core import PipelineError
from scirforge.evalqa import QAEvalRecord
from scirforge.gateway import CACHE_LOG, MockBackend, MockEmbeddingClient, PromptRequest
from scirforge.prompts import TEMPLATE_DIR, split_roles
from scirforge.pipeline import (
    STAGE_ORDER,
    STAGES,
    StageError,
    file_digest,
    run_all,
    run_stage,
    validate_corpus,
    validate_outputs,
    write_csv_atomic,
    write_json_atomic,
)

FIXTURE_CONFIG = FIXTURE_DIR / "config.json"


def _read_csv(path: Path):
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _count_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def test_file_helpers(tmp_path):
    p = tmp_path / "doc.json"
    write_json_atomic(p, {"b": 1, "a": 2})
    text = p.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"') and text.endswith("\n")
    assert file_digest(p) == hashlib.sha256(p.read_bytes()).hexdigest()
    c = tmp_path / "t.csv"
    write_csv_atomic(c, ["x", "y"], [[1, "a"], [2, "b"]])
    assert c.read_text(encoding="utf-8") == "x,y\n1,a\n2,b\n"


_B = pipeline._DIGEST_BUFFER


@pytest.mark.parametrize(
    "size", [0, _B - 1, _B, _B + 1, 3 * _B + 7, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7]
)
def test_file_digest_reads_in_chunks(tmp_path, size):
    """Sizes on each side of the digest buffer's length, and of 1 MiB, hash
    as the whole file does."""
    p = tmp_path / "blob"
    p.write_bytes(random.Random(size).randbytes(size))
    assert file_digest(p) == hashlib.sha256(p.read_bytes()).hexdigest()


def test_stage_graph_is_consistent():
    assert STAGE_ORDER == tuple(stage.name for stage in STAGES)
    assert len(set(STAGE_ORDER)) == len(STAGES) == 10
    seen = set()
    writers = {}
    for stage in STAGES:
        assert all(dep in seen for dep in stage.deps), stage.name
        assert len(set(stage.inputs)) == len(stage.inputs), stage.name
        for name in stage.writes:
            assert writers.setdefault(name, stage.name) == stage.name, name
        seen.add(stage.name)


def test_deps_are_the_writers_of_the_run_directory_inputs():
    writers = {name: stage.name for stage in STAGES for name in stage.writes}
    for stage in STAGES:
        files = [
            label for label in stage.inputs
            if not label.startswith(("input:", "template:", "mock_script"))
        ]
        assert all(label in writers for label in files), stage.name
        assert set(stage.deps) == {writers[label] for label in files}, stage.name
    deps = {stage.name: stage.deps for stage in STAGES}
    assert deps["split"] == deps["match"] == ("ingest",)
    assert deps["bench-qa"] == ("generate", "filter", "index")


def test_split_runs_right_after_ingest(tmp_path):
    config = load_config(FIXTURE_CONFIG)
    run_dir = tmp_path / "run"
    assert run_stage("ingest", config, run_dir, FIXTURE_DIR) == "done"
    assert run_stage("split", config, run_dir) == "done"
    assert run_stage("split", config, run_dir) == "noop"
    with pytest.raises(StageError, match="requires 'ingest' to be done first"):
        run_stage("split", config, tmp_path / "fresh")


def test_readme_stage_table_follows_stages():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index("| stage "):].split("\n\n")[0].splitlines()[2:]
    table = {}
    for line in lines:
        stage, needs, writes = (cell.strip() for cell in line.strip("|").split("|"))
        table[stage] = (
            () if needs == "`--input` dir" else tuple(needs.split(", ")),
            re.findall(r"`([^`]+)`", writes),
        )
    assert table == {stage.name: (stage.deps, list(stage.writes)) for stage in STAGES}


def test_stage_context_opens_only_declared_inputs(tmp_path):
    ctx = pipeline.StageContext(
        config=load_config(FIXTURE_CONFIG),
        run_dir=tmp_path,
        inputs={"datasets.jsonl": tmp_path / "datasets.jsonl"},
        writes={"reports/x.csv": None},
    )
    assert ctx.input("datasets.jsonl") == tmp_path / "datasets.jsonl"
    with pytest.raises(StageError, match="'papers.jsonl' is not a declared input"):
        ctx.input("papers.jsonl")
    with pytest.raises(StageError, match="'template:rag.txt' is not a declared input"):
        ctx.template("rag.txt")
    assert ctx.output("reports/x.csv") == tmp_path / "reports/x.csv"
    assert ctx.outputs == [tmp_path / "reports/x.csv"]
    with pytest.raises(StageError, match="'reports/y.csv' is not a declared output"):
        ctx.output("reports/y.csv")
    assert ctx.outputs == [tmp_path / "reports/x.csv"]


# Manifest input labels are an on-disk format: renaming one reruns that stage
# in every existing run directory.  The fixture config sets filter_labels_path,
# and every stage that asks the model declares the mock script.
MANIFEST_INPUT_LABELS = {
    "ingest": ["input:datasets.jsonl", "input:papers.jsonl"],
    "match": ["datasets.jsonl", "mock_script", "papers.jsonl", "template:relevance.txt"],
    "parse": [
        "datasets.jsonl",
        "matches.jsonl",
        "mock_script",
        "papers.jsonl",
        "template:extract.txt",
        "template:segment.txt",
        "template:verify.txt",
    ],
    "generate": [
        "aspects.jsonl",
        "datasets.jsonl",
        "mock_script",
        "template:generate.txt",
        "template:select_types.txt",
        "template:taxonomy.json",
    ],
    "filter": ["aspects.jsonl", "datasets.jsonl", "filter_labels", "mock_script", "qapairs.jsonl"],
    "index": ["aspects.jsonl", "datasets.jsonl"],
    "bench-retrieval": [
        "index/with_paper.json",
        "index/without_paper.json",
        "qapairs.jsonl",
        "verdicts.jsonl",
    ],
    "bench-qa": [
        "index/with_paper.json",
        "mock_script",
        "qapairs.jsonl",
        "template:cognitive.txt",
        "template:rag.txt",
        "verdicts.jsonl",
    ],
    "stats": ["mock_script", "qapairs.jsonl", "template:cognitive.txt", "verdicts.jsonl"],
    "split": ["datasets.jsonl"],
}


def test_manifest_input_labels(fixture_run):
    _, run_dir, _ = fixture_run
    entries = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert {name: sorted(entry["inputs"]) for name, entry in entries.items()} == (
        MANIFEST_INPUT_LABELS
    )

    # Every run-directory input is written by some stage upstream of its reader.
    deps = {stage.name: stage.deps for stage in STAGES}
    for stage in STAGES:
        upstream, todo = set(), list(stage.deps)
        while todo:
            name = todo.pop()
            if name not in upstream:
                upstream.add(name)
                todo.extend(deps[name])
        produced = {path for name in upstream for path in entries[name]["outputs"]}
        for label in stage.inputs:
            if not label.startswith(("input:", "template:", "mock_script")):
                assert label in produced, (stage.name, label)


def _artifacts(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


# Runs one stage command whose manifest writes take 50 ms longer, so that
# commands finishing together overlap between reading and writing it.
_SLOW_MANIFEST_COMMAND = """
import sys, time
from scirforge import pipeline
from scirforge.cli import main
write = pipeline.write_json_atomic
def slow(path, doc):
    if path.name == "manifest.json":
        time.sleep(0.05)
    write(path, doc)
pipeline.write_json_atomic = slow
sys.exit(main(sys.argv[1:]))
"""


def test_concurrent_stage_commands_keep_every_manifest_entry(fixture_run, tmp_path):
    """Four stage commands started at once on one run directory: each one's
    manifest entry survives the others', over several trials, and the
    artifacts are the serial run's."""
    _, run_dir, _ = fixture_run
    stages = ("bench-retrieval", "bench-qa", "stats", "split")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for trial in range(4):
        copy = tmp_path / f"trial{trial}"
        shutil.copytree(run_dir, copy)
        manifest_path = copy / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for stage in stages:
            del manifest["stages"][stage]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SLOW_MANIFEST_COMMAND, stage,
                 "--config", str(FIXTURE_DIR / "config.json"), "--output", str(copy)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for stage in stages
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))["stages"]
        assert sorted(entries) == sorted(STAGE_ORDER), trial
        assert all(entries[stage]["status"] == "done" for stage in stages)
        assert _artifacts(copy) == _artifacts(run_dir)


def test_stages_read_only_declared_inputs(tmp_path, monkeypatch):
    """Each stage opens every input it declares through ctx.input, templates
    and taxonomy.json included, and no other; a stage declares the mock
    script exactly when it builds a gateway, whose backend reads the script."""
    opened: dict[str, set[str]] = {}
    current = []  # the mock backend runs every stage on this thread

    def traced(stage):
        def run(ctx):
            current[:] = [stage.name]
            opened[stage.name] = set()
            stage.run(ctx)
            if ctx._gateway is not None:
                opened[stage.name].add("mock_script")

        return dataclasses.replace(stage, run=run)

    real_input = pipeline.StageContext.input

    def input_(ctx, label):
        opened[current[0]].add(label)
        return real_input(ctx, label)

    monkeypatch.setattr(pipeline, "STAGES", tuple(traced(s) for s in STAGES))
    monkeypatch.setattr(pipeline.StageContext, "input", input_)

    run_dir = tmp_path / "run"
    assert set(run_all(load_config(FIXTURE_CONFIG), run_dir, FIXTURE_DIR).values()) == {"done"}
    entries = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    for name in STAGE_ORDER:
        assert opened[name] == set(entries[name]["inputs"]), name


def _fixture_copy(tmp_path: Path, **changes) -> tuple[Path, pipeline.RunConfig]:
    """The bundled fixture copied to tmp_path/inputs, with top-level config
    keys replaced by `changes`."""
    inputs = tmp_path / "inputs"
    shutil.copytree(FIXTURE_DIR, inputs)
    doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    doc.update(changes)
    (inputs / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    return inputs, load_config(inputs / "config.json")


def test_template_dir_overrides_file_by_file(fixture_run, tmp_path):
    _, fresh, _ = fixture_run
    custom = tmp_path / "tpl"
    custom.mkdir()
    shutil.copy(TEMPLATE_DIR / "taxonomy.json", custom)
    inputs, config = _fixture_copy(tmp_path, template_dir=str(custom))
    run_dir = tmp_path / "run"
    assert set(run_all(config, run_dir, inputs).values()) == {"done"}
    assert _artifacts(run_dir) == _artifacts(fresh)
    inputs_of = pipeline._stage_inputs(
        next(s for s in STAGES if s.name == "generate"), run_dir, None, config
    )
    assert inputs_of["template:taxonomy.json"] == custom / "taxonomy.json"
    assert inputs_of["template:generate.txt"] == TEMPLATE_DIR / "generate.txt"


def test_editing_a_template_reruns_the_stages_that_read_it(tmp_path):
    """A template edited between two runs in one process reaches the model:
    the stages that declare it rerun and send its new text."""
    custom = tmp_path / "tpl"
    shutil.copytree(TEMPLATE_DIR, custom)
    backend = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))["backend"]
    backend["cache_dir"] = str(tmp_path / "cache")
    inputs, config = _fixture_copy(tmp_path, template_dir=str(custom), backend=backend)
    run_dir = tmp_path / "run"
    run_all(config, run_dir, inputs)

    def edit(name):
        path = custom / name
        path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")

    def calls(stage):
        entry = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"][stage]
        return entry["backend_calls"], entry["cache_hits"]

    edit("rag.txt")
    assert run_all(config, run_dir, inputs) == {
        name: "done" if name == "bench-qa" else "noop" for name in STAGE_ORDER
    }
    # Each of the 172 accepted questions asks the new RAG prompt at each of
    # the three ks; its cognitive level comes from the cache.
    assert calls("bench-qa") == (3 * 172, 172)
    edit("cognitive.txt")
    assert run_stage("stats", config, run_dir) == "done"
    assert calls("stats") == (172, 0)


def test_editing_the_mock_script_reruns_the_stages_that_ask_the_model(tmp_path):
    """The mock script is an input of every stage that asks the model: after
    an edit, those six stages rerun and the run equals a fresh one."""
    inputs, config = _fixture_copy(tmp_path)
    run_dir = tmp_path / "run"
    run_all(config, run_dir, inputs)
    script = inputs / "mock_script.json"
    entries = json.loads(script.read_text(encoding="utf-8"))
    edited = {"kind": "chat", "stage": "rag", "match": "(?s).*", "response": "EDITED"}
    script.write_text(json.dumps([edited, *entries]), encoding="utf-8")
    asks = {"match", "parse", "generate", "filter", "bench-qa", "stats"}
    assert run_all(config, run_dir, inputs) == {
        name: "done" if name in asks else "noop" for name in STAGE_ORDER
    }
    fresh = tmp_path / "fresh"
    run_all(config, fresh, inputs)
    assert _artifacts(run_dir) == _artifacts(fresh)
    assert '"prediction": "EDITED"' in (run_dir / "reports/qaeval.jsonl").read_text(encoding="utf-8")


def test_artifacts_do_not_depend_on_concurrency(tmp_path):
    runs = {}
    for concurrency in (1, 4):
        inputs = tmp_path / f"inputs{concurrency}"
        shutil.copytree(FIXTURE_DIR, inputs)
        doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
        doc["concurrency"] = concurrency
        (inputs / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        run_dir = tmp_path / f"run{concurrency}"
        run_all(load_config(inputs / "config.json"), run_dir, inputs)
        runs[concurrency] = _artifacts(run_dir)
    assert "reports/retrieval.csv" in runs[1]
    assert runs[1].keys() == runs[4].keys()
    assert [name for name in runs[1] if runs[1][name] != runs[4][name]] == []


def test_resume_after_crash_matches_uninterrupted_run(tmp_path, monkeypatch):
    """A process that dies at backend call N, then runs again, ends with the
    artifacts of a run that never stopped."""
    inputs = tmp_path / "inputs"
    shutil.copytree(FIXTURE_DIR, inputs)
    doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    doc["concurrency"] = 1

    def config(name):
        doc["backend"]["cache_dir"] = str(tmp_path / f"cache_{name}")
        path = inputs / f"config_{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_config(path)

    state = {"calls": 0, "crash_at": None}  # one worker: calls come in order

    def counted(method):
        def wrapper(self, *args):
            state["calls"] += 1
            if state["crash_at"] is not None and state["calls"] >= state["crash_at"]:
                raise SystemExit(f"crash at backend call {state['calls']}")
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(MockBackend, "complete", counted(MockBackend.complete))
    monkeypatch.setattr(MockBackend, "score", counted(MockBackend.score))

    reference_config, reference = config("ref"), tmp_path / "reference"
    first_call = {}
    for name in STAGE_ORDER:
        first_call[name] = state["calls"] + 1
        run_stage(name, reference_config, reference, inputs if name == "ingest" else None)
    expected = _artifacts(reference)
    assert not [name for name in expected if name.endswith(".tmp")]

    for name in ("match", "parse", "generate", "filter", "bench-qa"):
        end = first_call[STAGE_ORDER[STAGE_ORDER.index(name) + 1]]
        assert end > first_call[name], f"{name} made no backend calls"
        crash_at = (first_call[name] + end) // 2
        run_config, run_dir = config(crash_at), tmp_path / f"run_{crash_at}"
        state.update(calls=0, crash_at=crash_at)
        with pytest.raises(SystemExit):
            run_all(run_config, run_dir, inputs)
        assert not list(run_dir.rglob("*.tmp")), crash_at
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["stages"]) == sorted(STAGE_ORDER[: STAGE_ORDER.index(name)])

        state.update(crash_at=None)
        run_all(run_config, run_dir, inputs)
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        listed = [out for entry in manifest["stages"].values() for out in entry["outputs"]]
        assert not [out for out in listed if out.endswith(".tmp")]
        artifacts = _artifacts(run_dir)
        assert artifacts.keys() == expected.keys(), crash_at
        assert [n for n in expected if artifacts[n] != expected[n]] == [], crash_at


def test_resume_after_crash_at_an_artifact_write(tmp_path, monkeypatch):
    """A process that dies at artifact write N, before the write or between
    the write and the rename, then runs again without a crash, ends with
    the artifacts of a run that never stopped and no .tmp file."""
    real = core.write_atomic
    state = {"writes": 0, "crash_at": None}

    def crashing(path, chunks):
        state["writes"] += 1
        if state["crash_at"] is not None and state["writes"] == state["crash_at"][0]:
            if state["crash_at"][1] == "before rename":
                # A complete .tmp beside an untouched target.
                real(path.with_suffix(path.suffix + ".tmp"), chunks)
            raise SystemExit(f"crash at write {state['crash_at']}")
        real(path, chunks)

    # write_jsonl calls core's binding; the JSON, CSV and manifest writers, pipeline's.
    monkeypatch.setattr(core, "write_atomic", crashing)
    monkeypatch.setattr(pipeline, "write_atomic", crashing)
    config = load_config(FIXTURE_CONFIG)
    run_all(config, tmp_path / "reference", FIXTURE_DIR)
    expected = _artifacts(tmp_path / "reference")
    writes = state["writes"]

    points = [(n, when) for n in range(1, writes + 1) for when in ("before write", "before rename")]
    inner = random.Random(13).sample(points[1:-1], 6)
    for point in [points[0], *inner, points[-1]]:
        run_dir = tmp_path / f"run_{point[0]}_{point[1].replace(' ', '_')}"
        state.update(writes=0, crash_at=point)
        with pytest.raises(SystemExit):
            run_all(config, run_dir, FIXTURE_DIR)
        state.update(crash_at=None)
        run_all(config, run_dir, FIXTURE_DIR)
        assert _artifacts(run_dir) == expected, point
        assert not list(run_dir.rglob("*.tmp")), point
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        listed = [out for entry in manifest["stages"].values() for out in entry["outputs"]]
        assert not [out for out in listed if out.endswith(".tmp")], point


def _fixture_config(inputs: Path, **changes) -> Path:
    """Copies the fixture inputs to `inputs`, with `changes` at the top level
    of the config; returns the config's path."""
    shutil.copytree(FIXTURE_DIR, inputs)
    doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    doc.update(changes)
    (inputs / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    return inputs / "config.json"


_HTTP_BACKEND = {
    "kind": "http",
    "endpoint": "http://scripted.test/v1",
    "model": "mock-model",
    "script_path": "mock_script.json",  # still read by the mock entailment scorer
}


def test_stage_workers_share_one_gateway(tmp_path):
    config = load_config(_fixture_config(tmp_path / "inputs", backend=_HTTP_BACKEND))
    # Building the gateway (and its HttpBackend) sends no request.
    ctx = pipeline.StageContext(config=config, run_dir=tmp_path)
    assert ctx.waits_on_http and ctx.config.concurrency > 1
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gateways = list(ctx.pmap(lambda _: ctx.gateway, range(64)))
    finally:
        sys.setswitchinterval(old)
        ctx.close()
    assert len({id(gw) for gw in gateways}) == 1


def test_racing_first_accesses_build_one_gateway(tmp_path, monkeypatch):
    """Threads racing on the first access all get one gateway from one
    `Gateway.from_config` call, and once it exists no access takes the lock."""
    config = load_config(_fixture_config(tmp_path / "inputs"))
    ctx = pipeline.StageContext(config=config, run_dir=tmp_path)
    built = []
    real = pipeline.Gateway.from_config.__func__

    def slow(cls, backend):
        built.append(backend)
        time.sleep(0.05)  # the other threads reach the check meanwhile
        return real(cls, backend)

    monkeypatch.setattr(pipeline.Gateway, "from_config", classmethod(slow))
    start = threading.Barrier(8)
    got = []

    def first_access():
        start.wait()
        got.append(ctx.gateway)

    threads = [threading.Thread(target=first_access) for _ in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert len(got) == 8 and len({id(gw) for gw in got}) == 1
        ctx._gateway_lock = None  # a later access that took the lock would fail
        assert ctx.gateway is got[0]
    finally:
        ctx.close()


def test_threaded_pmap_yields_in_input_order(tmp_path):
    """Items finish in reverse order on four workers; pmap yields them in
    input order."""
    config = load_config(_fixture_config(tmp_path / "inputs", backend=_HTTP_BACKEND))
    ctx = pipeline.StageContext(config=config, run_dir=tmp_path)
    assert ctx.waits_on_http and ctx.config.concurrency == 4
    finished = []
    lock = threading.Lock()

    def slow(i):
        time.sleep(0.05 * (4 - i))
        with lock:
            finished.append(i)
        return i * i

    assert list(ctx.pmap(slow, range(4))) == [0, 1, 4, 9]
    assert finished == [3, 2, 1, 0]


def test_mock_backend_maps_on_the_calling_thread(tmp_path, monkeypatch):
    """The mock never waits, so no stage starts a thread at any concurrency."""
    config = load_config(FIXTURE_CONFIG)
    assert config.concurrency == 4
    ctx = pipeline.StageContext(config=config, run_dir=tmp_path)
    assert not ctx.waits_on_http

    def refuse(thread):
        raise AssertionError(f"started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    caller = threading.get_ident()
    assert list(ctx.pmap(lambda i: (i, threading.get_ident()), range(8))) == [
        (i, caller) for i in range(8)
    ]
    assert run_all(config, tmp_path / "run", FIXTURE_DIR) == {
        name: "done" for name in STAGE_ORDER
    }


# A mock `all` on the demo, then a pmap under an HTTP backend; prints the
# thread pool's import state after each and the threads the map ran on.
_POOL_IMPORT_COMMAND = """
import json, sys, threading, time
from pathlib import Path
from scirforge import pipeline
from scirforge.cli import FIXTURE_DIR, main
from scirforge.config import load_config
run_dir, http_config = sys.argv[1:]
args = ["all", "--config", str(FIXTURE_DIR / "config.json"), "--output", run_dir,
        "--input", str(FIXTURE_DIR)]
assert main(args) == 0
after_mock = "concurrent.futures" in sys.modules
ctx = pipeline.StageContext(config=load_config(http_config), run_dir=Path(run_dir))
def where(i):
    time.sleep(0.01)
    return threading.get_ident()
idents = set(ctx.pmap(where, range(8)))
print(json.dumps({"after_mock": after_mock, "after_http": "concurrent.futures" in sys.modules,
                  "main_thread_used": threading.get_ident() in idents, "threads": len(idents)}))
"""


def test_thread_pool_is_imported_only_under_http(tmp_path):
    """A mock run never imports the thread pool's module; a map that can
    wait on HTTP imports it and runs on worker threads."""
    config_path = _fixture_config(tmp_path / "inputs", backend=_HTTP_BACKEND)
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_IMPORT_COMMAND, str(tmp_path / "run"), str(config_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert (got["after_mock"], got["after_http"], got["main_thread_used"]) == (False, True, False)
    assert 1 < got["threads"] <= 4


# Each bundled template's first line names the stage that renders it.
_STAGE_OF_FIRST_LINE = {
    split_roles(path.read_text(encoding="utf-8"))[0][1].split("\n")[0]: path.stem
    for path in TEMPLATE_DIR.glob("*.txt")
}
_ANSWER_CUE = "\nAnswer:"  # ends both belief-shift scoring contexts


def _serve_script(monkeypatch, script: Path) -> dict:
    """Answer every HttpBackend POST as the mock script would, after a short
    wait; returns live counts of posts and of the most in flight at once."""
    mock = MockBackend(script)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0, "posts": 0}

    def answer(path: str, payload: dict) -> dict:
        if path.endswith("/chat/completions"):
            messages = tuple((m["role"], m["content"]) for m in payload["messages"])
            stage = _STAGE_OF_FIRST_LINE[messages[0][1].split("\n")[0]]
            request = PromptRequest(
                messages, payload["model"], payload["temperature"], payload["max_tokens"]
            )
            return {"choices": [{"message": {"content": mock.complete(request, stage)}}]}
        assert path.endswith("/completions") and payload["echo"]
        prompt = payload["prompt"]
        cut = prompt.rindex(_ANSWER_CUE) + len(_ANSWER_CUE)
        stage = "score_with" if prompt.startswith("Context: ") else "score_without"
        scored = mock.score(prompt[:cut], prompt[cut:], payload["model"], stage)
        # The mock scores one logprob per whitespace token of the answer.
        tokens = prompt[cut:].split()
        offsets, at = [], cut
        for token in tokens:
            at = prompt.index(token, at)
            offsets.append(at)
            at += len(token)
        logprobs = {
            "tokens": [prompt[:cut], *tokens],
            "token_logprobs": [None, *scored.logprobs],
            "text_offset": [0, *offsets],
        }
        return {"choices": [{"logprobs": logprobs}]}

    def post(session, url, json, timeout):
        with lock:
            state["now"] += 1
            state["posts"] += 1
            state["peak"] = max(state["peak"], state["now"])
        try:
            time.sleep(0.0005)
            return FakeResponse(200, answer(url, json))
        finally:
            with lock:
                state["now"] -= 1

    monkeypatch.setattr(requests.Session, "post", post)
    return state


def test_http_backend_overlaps_requests_at_concurrency(fixture_run, tmp_path, monkeypatch):
    state = _serve_script(monkeypatch, FIXTURE_DIR / "mock_script.json")
    runs, peaks = {}, {}
    for concurrency in (1, 4):
        config_path = _fixture_config(
            tmp_path / f"inputs{concurrency}", backend=_HTTP_BACKEND, concurrency=concurrency
        )
        state.update(peak=0, posts=0)
        run_dir = tmp_path / f"run{concurrency}"
        run_all(load_config(config_path), run_dir, config_path.parent)
        runs[concurrency], peaks[concurrency] = _artifacts(run_dir), state["peak"]
        assert state["posts"] > 0 and state["now"] == 0
    # At most 4 in flight: the worker count and the default max_in_flight.
    assert peaks[1] == 1 and 1 < peaks[4] <= 4
    # The fake answers as the mock does, so the bytes match a mock run too.
    _, mock_run, _ = fixture_run
    assert runs[1] == runs[4] == _artifacts(mock_run)


def test_warm_rerun_appends_nothing_to_the_cache(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    shutil.copytree(FIXTURE_DIR, inputs)
    doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    doc["backend"]["cache_dir"] = "cache"
    (inputs / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    config = load_config(inputs / "config.json")
    calls = []

    def counted(method):
        def wrapper(self, *args):
            calls.append(args)
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(MockBackend, "complete", counted(MockBackend.complete))
    monkeypatch.setattr(MockBackend, "score", counted(MockBackend.score))
    run_all(config, tmp_path / "cold", inputs)
    log = inputs / "cache" / CACHE_LOG
    size = log.stat().st_size
    assert len(calls) == len(log.read_bytes().splitlines())
    calls.clear()
    run_all(config, tmp_path / "warm", inputs)
    assert calls == []
    assert log.stat().st_size == size
    assert [p.name for p in (inputs / "cache").iterdir()] == [CACHE_LOG]
    assert _artifacts(tmp_path / "warm") == _artifacts(tmp_path / "cold")


def test_manifest_counts_each_stages_calls_and_hits(tmp_path):
    backend = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))["backend"]
    inputs = tmp_path / "inputs"
    config = load_config(_fixture_config(inputs, backend={**backend, "cache_dir": "cache"}))

    def entries(name):
        run_all(config, tmp_path / name, inputs)
        return json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))[
            "stages"
        ]

    cold, warm = entries("cold"), entries("warm")
    for entry in (*cold.values(), *warm.values()):
        assert isinstance(entry["duration_s"], float) and entry["duration_s"] >= 0.0
    # Stages that send no model request count nothing.
    calls = {name: e["backend_calls"] + e["cache_hits"] for name, e in cold.items()}
    assert [name for name in STAGE_ORDER if not calls[name]] == [
        "ingest", "index", "bench-retrieval", "split",
    ]
    assert all(e["backend_calls"] == 0 for e in warm.values())
    assert {name: e["cache_hits"] for name, e in warm.items()} == calls


def test_bench_retrieval_embeds_each_question_once(fixture_run, tmp_path, monkeypatch):
    """One batch of the questions, then one batch holding each distinct unit
    text of both indexes once, though WithoutPaper's units repeat
    WithPaper's metadata units."""
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    batches = []

    class CountingClient(MockEmbeddingClient):
        def embed(self, texts):
            batches.append(list(texts))
            return super().embed(texts)

    monkeypatch.setattr(pipeline, "_embedding_client", lambda ctx: CountingClient(dim=16))
    stage = next(s for s in STAGES if s.name == "bench-retrieval")
    inputs = pipeline._stage_inputs(stage, copy, None, config)
    stage.run(
        pipeline.StageContext(config=config, run_dir=copy, inputs=inputs, writes=stage.writes)
    )
    meta = json.loads((copy / "reports/retrieval_meta.json").read_text(encoding="utf-8"))
    texts = [
        u["text"]
        for side in ("without_paper", "with_paper")
        for u in json.loads((copy / f"index/{side}.json").read_text(encoding="utf-8"))["units"]
    ]
    assert len(set(texts)) < len(texts)
    assert [len(b) for b in batches] == [meta["n_queries"], len(set(texts))]
    assert sorted(batches[1]) == sorted(set(texts))
    name = "reports/retrieval.csv"
    assert (copy / name).read_bytes() == (run_dir / name).read_bytes()


def test_bench_retrieval_keeps_no_ranked_list(fixture_run, tmp_path, monkeypatch):
    """Every score vector is gone before the next query is scored, on the
    BM25 and the embedding path alike, so memory does not grow with the
    number of queries."""
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    counts = {"search": 0, "embed_search": 0}
    latest = []  # a weak reference to the score vector made last

    def keeping(name):
        inner = getattr(pipeline, name)

        def ranked(*args, **kwargs):
            assert not latest or latest[0]() is None, "an earlier list outlived its query"
            out = inner(*args, **kwargs)
            latest[:] = [weakref.ref(out)]
            counts[name] += 1
            return out

        return ranked

    for name in counts:
        monkeypatch.setattr(pipeline, name, keeping(name))
    stage = next(s for s in STAGES if s.name == "bench-retrieval")
    inputs = pipeline._stage_inputs(stage, copy, None, config)
    stage.run(
        pipeline.StageContext(config=config, run_dir=copy, inputs=inputs, writes=stage.writes)
    )
    meta = json.loads((copy / "reports/retrieval_meta.json").read_text(encoding="utf-8"))
    assert counts == {"search": 2 * meta["n_queries"], "embed_search": 2 * meta["n_queries"]}
    assert latest[0]() is None
    name = "reports/retrieval.csv"
    assert (copy / name).read_bytes() == (run_dir / name).read_bytes()


def test_full_run_statuses(fixture_run):
    _, _, statuses = fixture_run
    assert statuses == {name: "done" for name in STAGE_ORDER}


def test_validator_clean_on_fresh_run(fixture_run):
    _, run_dir, _ = fixture_run
    assert validate_corpus(run_dir) == []
    assert validate_outputs(run_dir) == []


def test_corpus_artifact_counts(fixture_run):
    _, run_dir, _ = fixture_run
    assert _count_lines(run_dir / "aspects.jsonl") == 18
    assert _count_lines(run_dir / "qapairs.jsonl") == 178
    verdicts = [
        json.loads(line)
        for line in (run_dir / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(verdicts) == 178
    rejects = [v for v in verdicts if v["decision"] == "Reject"]
    assert len(rejects) == 6
    assert all(v["delta"] <= 0 for v in rejects)
    accepts = [v for v in verdicts if v["decision"] == "Accept"]
    assert all(v["delta"] > 0 for v in accepts)


def test_filter_report_artifacts(fixture_run):
    _, run_dir, _ = fixture_run
    header, rows = _read_csv(run_dir / "reports/filter_eval.csv")
    assert header == ["precision", "recall", "f1", "n"]
    assert rows == [["0.750000", "1.000000", "0.857143", "6"]]
    header, rows = _read_csv(run_dir / "reports/filter_pr_curve.csv")
    assert header == ["threshold", "recall", "precision"]
    assert len(rows) == 3 and rows[0][0] == "0.500000"
    header, rows = _read_csv(run_dir / "reports/filter_roc_curve.csv")
    assert header == ["threshold", "fpr", "tpr"]
    assert rows[0] == ["0.500000", "0.000000", "0.000000"]


def test_retrieval_report(fixture_run):
    _, run_dir, _ = fixture_run
    header, rows = _read_csv(run_dir / "reports/retrieval.csv")
    assert header[0] == "method"
    assert [r[0] for r in rows] == ["bm25", "embedding-mock"]
    bm25 = rows[0]
    # titles are unique and embedded in every question, so bm25 is perfect
    assert all(cell == "1.000000" for cell in bm25[1:])
    meta = json.loads((run_dir / "reports/retrieval_meta.json").read_text(encoding="utf-8"))
    assert meta["n_queries"] == 172
    assert meta["tie_break"] == "ascending dataset id"


def test_qa_reports(fixture_run):
    _, run_dir, _ = fixture_run
    header, rows = _read_csv(run_dir / "reports/qa_summary.csv")
    assert header == ["k", "n", "accuracy", "short_accuracy", "long_accuracy", "long_rouge_l"]
    assert [r[0] for r in rows] == ["0", "1", "5"]
    assert [r[2] for r in rows] == ["0.000000", "1.000000", "1.000000"]
    assert all(r[1] == "172" for r in rows)
    header, by_level = _read_csv(run_dir / "reports/qa_by_level.csv")
    assert header == ["k", "micro_avg", "C1", "C2", "C3", "C4", "C5", "C6"]
    assert by_level[0][1] == "0.000000" and by_level[1][1] == "1.000000"
    assert _count_lines(run_dir / "reports/qaeval.jsonl") == 3 * 172


def test_stats_reports(fixture_run):
    _, run_dir, _ = fixture_run
    header, rows = _read_csv(run_dir / "reports/stats.csv")
    assert len(rows) == 21
    byl = {r[0]: r for r in rows}
    assert byl["Total"][1] == "172" and byl["Total"][2] == "100.000000"
    assert int(byl["Short"][1]) + int(byl["Long"][1]) == 172
    header, rows = _read_csv(run_dir / "reports/levels.csv")
    assert header == ["C1", "C2", "C3", "C4", "C5", "C6", "total", "diversity_index"]
    assert rows == [["11", "113", "9", "22", "8", "9", "172", "0.540292"]]


def test_split_artifact(fixture_run):
    _, run_dir, _ = fixture_run
    doc = json.loads((run_dir / "splits.json").read_text(encoding="utf-8"))
    assert doc["ratios"] == [80, 15, 5] and doc["seed"] == 13
    assert doc["train"] == ["ds001", "ds002", "ds004", "ds005"]
    assert doc["dev"] == ["ds003"] and doc["test"] == []


def test_manifest_records_outputs(fixture_run):
    config, run_dir, _ = fixture_run
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["run_id"] == config.digest[:12]
    assert set(manifest["stages"]) == set(STAGE_ORDER)
    split_entry = manifest["stages"]["split"]
    assert split_entry["status"] == "done"
    assert split_entry["outputs"]["splits.json"] == file_digest(run_dir / "splits.json")


def test_bench_qa_takes_bm25_settings_from_the_index_file(fixture_run, tmp_path, monkeypatch):
    """bench-qa's passage store scores with the index file's k1 and b, as
    bench-retrieval does, not with the config's."""
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / "index/with_paper.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(k1=0.5, b=0.25)
    write_json_atomic(path, doc)
    assert (config.bm25.k1, config.bm25.b) != (0.5, 0.25)
    built = []
    real = pipeline.PassageStore.from_units

    def from_units(units, chunk_size, k1, b):
        built.append((k1, b))
        return real(units, chunk_size, k1, b)

    monkeypatch.setattr(pipeline.PassageStore, "from_units", from_units)
    assert run_stage("bench-qa", config, copy) == "done"
    assert built == [(0.5, 0.25)]


def test_bench_qa_records_passage_shortfalls_in_the_manifest(fixture_run, tmp_path):
    _, fresh, _ = fixture_run
    stages = json.loads((fresh / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert not [name for name, entry in stages.items() if "warnings" in entry]

    # The demo's WithPaper index holds far fewer than 5000 passages.
    config = load_config(_fixture_config(tmp_path / "inputs", rag={"ks": [0, 2, 5000]}))
    run_dir = tmp_path / "run"
    run_all(config, run_dir, tmp_path / "inputs")
    stages = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert [name for name, entry in stages.items() if "warnings" in entry] == ["bench-qa"]
    # One warning for k = 5000, counting the benchmarked questions.
    [warning] = stages["bench-qa"]["warnings"]
    assert warning.startswith("wanted 5000 passages, only ")
    assert warning.endswith(" available for 172 questions")


def _qa_summaries_from_rows(rows: list[dict]) -> tuple[str, str]:
    """qa_summary.csv and qa_by_level.csv recomputed from qaeval.jsonl rows
    alone, by filtering each k's whole row list."""
    by_k: dict[int, list[dict]] = {}
    for row in rows:
        by_k.setdefault(row["k"], []).append(row)

    def share(group):
        return f"{sum(1 for r in group if r['correct']) / len(group):.6f}" if group else ""

    summary, by_level = io.StringIO(), io.StringIO()
    s_out = csv.writer(summary, lineterminator="\n")
    l_out = csv.writer(by_level, lineterminator="\n")
    s_out.writerow(["k", "n", "accuracy", "short_accuracy", "long_accuracy", "long_rouge_l"])
    l_out.writerow(["k", "micro_avg", "C1", "C2", "C3", "C4", "C5", "C6"])
    for k, group in by_k.items():
        long_rows = [r for r in group if r["rouge_l"] is not None]
        rouge = sum(r["rouge_l"] for r in long_rows) / len(long_rows) if long_rows else None
        s_out.writerow([
            k, len(group), share(group), share([r for r in group if r["rouge_l"] is None]),
            share(long_rows), "" if rouge is None else f"{rouge:.6f}",
        ])
        l_out.writerow([k, share(group)] + [
            share([r for r in group if r["level"] == code])
            for code in ("C1", "C2", "C3", "C4", "C5", "C6")
        ])
    return summary.getvalue(), by_level.getvalue()


def test_qa_summaries_follow_from_the_eval_rows(tmp_path):
    """The summaries bench-qa tallies while it streams its rows equal the
    ones rebuilt from the written rows, with a k past the store's size and
    a capped pair count."""
    config = load_config(
        _fixture_config(tmp_path / "inputs", rag={"ks": [0, 2, 5000], "max_pairs": 61})
    )
    run_dir = tmp_path / "run"
    run_all(config, run_dir, tmp_path / "inputs")
    text = (run_dir / "reports/qaeval.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == 3 * 61 and [r["k"] for r in rows[::61]] == [0, 2, 5000]
    summary, by_level = _qa_summaries_from_rows(rows)
    assert (run_dir / "reports/qa_summary.csv").read_text(encoding="utf-8") == summary
    assert (run_dir / "reports/qa_by_level.csv").read_text(encoding="utf-8") == by_level


@pytest.mark.parametrize("off_by", [1, -1])
def test_a_miscounted_row_stream_fails_the_stage(fixture_run, tmp_path, monkeypatch, off_by):
    """bench-qa makes one row more or one fewer than it declares: the stage
    fails, and neither its rows nor a .tmp file are left."""
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "reports/qa_summary.csv").unlink()  # so that bench-qa runs again
    monkeypatch.setattr(
        pipeline, "CountedRows", lambda count, make: core.CountedRows(count - off_by, make)
    )
    with pytest.raises(PipelineError, match="declared"):
        run_stage("bench-qa", config, copy)
    entry = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))["stages"]["bench-qa"]
    assert entry["status"] == "failed" and entry["outputs"] == {}
    assert not (copy / "reports/qaeval.jsonl").exists()
    assert not list(copy.rglob("*.tmp"))


def test_rerun_is_noop(fixture_run):
    config, run_dir, _ = fixture_run
    statuses = run_all(config, run_dir, FIXTURE_DIR)
    assert statuses == {name: "noop" for name in STAGE_ORDER}


@pytest.mark.parametrize(
    "output, stage, damage",
    [("reports/qa_summary.csv", "bench-qa", "delete"), ("splits.json", "split", "edit")],
)
def test_damaged_output_reruns_its_stage(fixture_run, tmp_path, capsys, output, stage, damage):
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    good = (copy / output).read_bytes()
    if damage == "delete":
        (copy / output).unlink()
        problem = "is missing"
    else:
        (copy / output).write_bytes(good + b" ")
        problem = "differs from its recorded sha256"

    assert validate_corpus(copy) == []
    assert validate_outputs(copy) == [
        pipeline.Violation(output, 0, f"output of stage {stage} {problem}")
    ]
    assert main(["validate", "--output", str(copy)]) == 1
    assert f"{output}:0: output of stage {stage} {problem}" in capsys.readouterr().out

    statuses = run_all(config, copy, FIXTURE_DIR)
    assert statuses == {name: "done" if name == stage else "noop" for name in STAGE_ORDER}
    assert (copy / output).read_bytes() == good
    assert validate_outputs(copy) == []


def _write_labels(inputs: Path, labels: dict) -> None:
    (inputs / "labels.json").write_text(json.dumps(labels), encoding="utf-8")


def test_rerun_leaves_what_a_fresh_run_leaves(fixture_run, tmp_path):
    """With every label true the filter writes no curves; a rerun must remove
    the curves the first labels gave."""
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    config_path = _fixture_config(tmp_path / "inputs")
    labels = json.loads((config_path.parent / "labels.json").read_text(encoding="utf-8"))
    _write_labels(config_path.parent, {pid: True for pid in labels})
    config = load_config(config_path)

    statuses = run_all(config, copy, config_path.parent)
    assert statuses == {name: "done" if name == "filter" else "noop" for name in STAGE_ORDER}
    assert not (copy / "reports/filter_pr_curve.csv").exists()
    run_all(config, tmp_path / "fresh", config_path.parent)
    assert _artifacts(copy) == _artifacts(tmp_path / "fresh")
    assert validate_outputs(copy) == []


def test_failed_attempt_lists_what_it_wrote(fixture_run, tmp_path):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    config_path = _fixture_config(tmp_path / "inputs")
    _write_labels(config_path.parent, {"no-such-pair": True})
    with pytest.raises(StageError, match="unknown pairs"):
        run_stage("filter", load_config(config_path), copy)
    entry = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))["stages"]["filter"]
    assert entry["status"] == "failed"
    # The reports the earlier run wrote are gone; the verdicts this attempt wrote are listed.
    assert entry["outputs"] == {"verdicts.jsonl": file_digest(copy / "verdicts.jsonl")}
    assert not (copy / "reports/filter_eval.csv").exists()


def test_filter_labels_must_be_json_booleans(fixture_run, tmp_path):
    """A label written as the string "false" is an error, not a true label."""
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    config_path = _fixture_config(tmp_path / "inputs")
    labels = json.loads((config_path.parent / "labels.json").read_text(encoding="utf-8"))
    _write_labels(config_path.parent, {pid: lab or "false" for pid, lab in labels.items()})
    first = min(pid for pid, lab in labels.items() if not lab)
    with pytest.raises(StageError, match=f"true or false.*{first}"):
        run_stage("filter", load_config(config_path), copy)
    assert not (copy / "reports/filter_eval.csv").exists()
    (config_path.parent / "labels.json").write_text(json.dumps(list(labels)), encoding="utf-8")
    with pytest.raises(StageError, match="must be a JSON object"):
        run_stage("filter", load_config(config_path), copy)


def test_rerun_removes_no_file_outside_the_run_dir(fixture_run, tmp_path):
    """Output names come from a manifest on disk; one that points outside
    the run directory is not deleted."""
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    outside = tmp_path / "outside.txt"
    outside.write_text("keep me", encoding="utf-8")
    manifest = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))
    manifest["stages"]["split"]["outputs"]["../outside.txt"] = "0" * 64
    (copy / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    assert run_stage("split", config, copy) == "done"
    assert outside.read_text(encoding="utf-8") == "keep me"
    entry = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))["stages"]["split"]
    assert list(entry["outputs"]) == ["splits.json"]


def test_validate_outputs_reports_an_unparseable_manifest(fixture_run, tmp_path):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "manifest.json").write_text("not json", encoding="utf-8")
    [violation] = validate_outputs(copy)
    assert violation.file == "manifest.json" and "unparseable JSON" in violation.message


@pytest.mark.parametrize(
    "doc",
    [[], {"stages": []}, {"stages": {"split": "done"}}, {"stages": {"split": {"outputs": []}}}],
    ids=["list", "stages-a-list", "entry-a-string", "outputs-a-list"],
)
def test_a_manifest_of_another_shape_is_an_error(fixture_run, tmp_path, capsys, doc):
    """validate reports one violation and a stage fails with a JSON error;
    neither stops with a traceback."""
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    message = "manifest.json must be an object whose stages are objects"
    assert main(["validate", "--output", str(copy)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"manifest.json:0: {message}", "1 violation(s)"]
    assert main(["split", "--config", str(FIXTURE_CONFIG), "--output", str(copy)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "StageError", "message": message}


def test_rerun_after_input_change(fixture_run, tmp_path):
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    before = (copy / "splits.json").read_bytes()
    # same records, different bytes: the digest changes so the stage reruns
    ds = copy / "datasets.jsonl"
    ds.write_text(ds.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert run_stage("split", config, copy) == "done"
    assert (copy / "splits.json").read_bytes() == before


def test_config_digest_mismatch(fixture_run, tmp_path):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    doc = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
    doc["concurrency"] = 2
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StageError, match="config digest mismatch"):
        run_stage("split", load_config(other), copy)


def test_unmet_dependency(tmp_path):
    config = load_config(FIXTURE_CONFIG)
    with pytest.raises(StageError, match="requires 'ingest'"):
        run_stage("match", config, tmp_path / "fresh")


def test_missing_input(tmp_path):
    config = load_config(FIXTURE_CONFIG)
    with pytest.raises(StageError, match="requires --input"):
        run_stage("ingest", config, tmp_path / "r1")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(StageError, match="missing input"):
        run_stage("ingest", config, tmp_path / "r2", input_dir=empty)


def test_unknown_stage(tmp_path):
    config = load_config(FIXTURE_CONFIG)
    with pytest.raises(StageError, match="unknown stage"):
        run_stage("polish", config, tmp_path / "r")


def test_failure_recorded_in_manifest(fixture_run, tmp_path):
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    extra = {
        "id": "ds001:extra:9",
        "dataset_id": "ds001",
        "qtype": "Verification",
        "question": "is there a verdict for this pair",
        "answer": "no",
    }
    qp = copy / "qapairs.jsonl"
    qp.write_text(
        qp.read_text(encoding="utf-8") + json.dumps(extra) + "\n", encoding="utf-8"
    )
    with pytest.raises(StageError, match="missing verdicts"):
        run_stage("stats", config, copy)
    manifest = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))
    entry = manifest["stages"]["stats"]
    assert entry["status"] == "failed"
    assert "missing verdicts" in entry["error"]


def test_validator_flags_tampering(fixture_run, tmp_path):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)

    ds = copy / "datasets.jsonl"
    first = ds.read_text(encoding="utf-8").splitlines()[0]
    dup = json.loads(first)
    dup["linked_paper_ids"] = ["ghost-paper"]
    ds.write_text(
        ds.read_text(encoding="utf-8") + json.dumps(dup) + "\nnot json\n",
        encoding="utf-8",
    )
    vq = copy / "verdicts.jsonl"
    stray = json.loads(vq.read_text(encoding="utf-8").splitlines()[0])
    stray["pair_id"] = "ghost-pair"
    vq.write_text(
        vq.read_text(encoding="utf-8") + json.dumps(stray) + "\n", encoding="utf-8"
    )

    messages = [v.message for v in validate_corpus(copy)]
    assert any("duplicate dataset id" in m for m in messages)
    assert any("unknown paper ghost-paper" in m for m in messages)
    assert any("unparseable JSON" in m for m in messages)
    assert any("unknown pair ghost-pair" in m for m in messages)


def test_validator_checks_each_qaeval_row_against_the_accepted_pairs(fixture_run, tmp_path):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / "reports/qaeval.jsonl"
    text = path.read_text(encoding="utf-8")
    # bench-qa writes each row as its declared type's row, bytes and key order.
    for line in text.splitlines():
        row = core.record_from_dict(QAEvalRecord, json.loads(line))
        assert core.JSON_LINE.encode(core.record_to_dict(row)) == line
    first = json.loads(text.splitlines()[0])
    verdicts = (copy / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    rejected = next(
        row["pair_id"] for row in map(json.loads, verdicts) if row["decision"] != "Accept"
    )
    n = len(text.splitlines())
    extra = [
        first,  # a copy of the first row
        {**first, "pair_id": "ghost"},
        {**first, "pair_id": rejected},
        {**first, "k": 7},  # a k the config does not name still has one row per pair
        {key: first[key] for key in first if key not in ("k", "level")} | {"pair_id": "ghost"},
    ]
    path.write_text(text + "".join(json.dumps(row) + "\n" for row in extra), encoding="utf-8")

    violations = validate_corpus(copy)
    assert [(v.file, v.line, v.message) for v in violations] == [
        ("reports/qaeval.jsonl", n + 1,
         f"duplicate row for pair {first['pair_id']} at k {first['k']}"),
        ("reports/qaeval.jsonl", n + 2, "unknown accepted pair ghost"),
        ("reports/qaeval.jsonl", n + 3, f"unknown accepted pair {rejected}"),
        ("reports/qaeval.jsonl", n + 5, "missing field k"),
    ]
    assert validate_corpus(run_dir) == []


_SPLIT_DAMAGE = {
    "a dropped id": (lambda doc: doc["train"].pop(), ["train"]),
    "an id moved": (lambda doc: doc["dev"].append(doc["train"].pop()), ["train", "dev"]),
    "another seed": (lambda doc: doc.update(seed=doc["seed"] + 1), None),
}


@pytest.mark.parametrize("damage", _SPLIT_DAMAGE)
def test_validator_checks_splits_are_the_split_of_the_datasets(fixture_run, tmp_path, damage):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / "splits.json"
    text = path.read_text(encoding="utf-8")
    # The split stage writes the declared type's document.
    doc = json.loads(text)
    splits = core.record_from_dict(pipeline._Splits, doc)
    assert json.dumps(core.record_to_dict(splits), sort_keys=True, indent=2) + "\n" == text
    change, parts = _SPLIT_DAMAGE[damage]
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    violations = validate_corpus(copy)
    assert violations and all(v.file == "splits.json" and v.line == 0 for v in violations)
    if parts is not None:
        assert [v.message.split()[0] for v in violations] == parts
    settings = f"under ratios {doc['ratios']} and seed {doc['seed']}"
    assert all(v.message.endswith(settings) for v in violations)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1", "malformed: Expecting ',' delimiter"),
        ("[]", "malformed: value must be an object"),
        ('{"ratios": [80, 20], "seed": 13}', "malformed: ratios must be a list of 3 items"),
        ('{"ratios": [80, 15, 5], "seed": "13", "train": [], "dev": [], "test": []}',
         "malformed: seed must be an integer"),
        ('{"ratios": [50, 50, 5], "seed": 13, "train": [], "dev": [], "test": []}',
         "malformed: split ratios must be nonnegative and sum to 100"),
    ],
    ids=["not-json", "not-an-object", "two-ratios", "string-seed", "ratios-over-100"],
)
def test_validator_reports_a_malformed_splits_file(fixture_run, tmp_path, text, message):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "splits.json").write_text(text, encoding="utf-8")
    (violation,) = validate_corpus(copy)
    assert (violation.file, violation.line) == ("splits.json", 0)
    assert violation.message.startswith(message), violation.message


def _edit_json(name: str, edit):
    def damage(run_dir: Path) -> None:
        path = run_dir / name
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    return damage


def _edit_csv_cell(name: str, line: int, column: str, value: str):
    def damage(run_dir: Path) -> None:
        path = run_dir / name
        header, *rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        rows[line - 2][header.index(column)] = value
        pipeline.write_csv_atomic(path, header, rows)

    return damage


def _drop_last_line(name: str):
    def damage(run_dir: Path) -> None:
        path = run_dir / name
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:-1]),
                        encoding="utf-8")

    return damage


# The fixture run: 5 datasets, 23 WithPaper units, 172 accepted pairs, and
# the Total row on line 22 of stats.csv.
@pytest.mark.parametrize(
    "damage, want",
    [
        (_edit_json("index/with_paper.json", lambda doc: doc["units"].pop()),
         [("index/with_paper.json", 0, "units differ from those datasets.jsonl and"
           " aspects.jsonl make from unit 22 on (22 units, 23 made)")]),
        (_edit_json("index/without_paper.json",
                    lambda doc: doc["units"][3].update(text=doc["units"][3]["text"] + " x")),
         [("index/without_paper.json", 0, "units differ from those datasets.jsonl and"
           " aspects.jsonl make from unit 3 on (5 units, 5 made)")]),
        (_drop_last_line("aspects.jsonl"),
         [("index/with_paper.json", 0, "units differ from those datasets.jsonl and"
           " aspects.jsonl make from unit 22 on (23 units, 22 made)")]),
        (_edit_json("index/with_paper.json", lambda doc: doc["units"][0].pop("text")),
         [("index/with_paper.json", 0, "malformed: missing field units[0].text")]),
        (_edit_csv_cell("reports/stats.csv", 22, "count", "173"),
         [("reports/stats.csv", 22, "Total count 173 is not the 172 accepted pairs")]),
        (_edit_csv_cell("reports/levels.csv", 2, "total", "x"),
         [("reports/levels.csv", 2, "total x is not the 172 accepted pairs")]),
        (_drop_last_line("reports/stats.csv"),
         [("reports/stats.csv", 0, "has no Total count")]),
    ],
    ids=["unit-dropped", "unit-edited", "aspect-dropped", "index-malformed", "stats-total",
         "levels-total", "no-total-row"],
)
def test_validator_checks_indexes_and_totals_against_the_corpus(
    fixture_run, tmp_path, damage, want
):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    damage(copy)
    assert [(v.file, v.line, v.message) for v in validate_corpus(copy)] == want


def _edit_retrieval(run_dir: Path, edit) -> None:
    """Rewrite reports/retrieval.csv after `edit(header, rows)` changes its cells."""
    path = run_dir / "reports/retrieval.csv"
    header, *rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    edit(header, rows)
    pipeline.write_csv_atomic(path, header, rows)


def _set_cell(column, value):
    def edit(header, rows):
        rows[0][header.index(column)] = value

    return edit


def _reverse_metric_columns(header, rows):
    """The columns in another order, as a config whose `retrieval.ks` is not
    sorted writes them: each k is read from its column's name."""
    for row in [header, *rows]:
        row[1:] = row[:0:-1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_cell("with_paper_r_at_100", "1.500000"),
         "bm25: with_paper recall at k 100 is 1.5, outside [0, 1]"),
        (_set_cell("without_paper_r_at_1", "-0.100000"),
         "bm25: without_paper recall at k 1 is -0.1, outside [0, 1]"),
        (_set_cell("without_paper_r_at_20", "0.500000"),
         "bm25: without_paper recall drops from 1.0 at k 5 to 0.5 at k 20"),
        (_set_cell("with_paper_mrr_at_100", "0.900000"),
         "bm25: with_paper MRR 0.9 is below its recall at k 1, 1.0"),
        (_set_cell("with_paper_r_at_5", "n/a"), "bm25: a metric is not a number"),
        (lambda header, rows: (_reverse_metric_columns(header, rows),
                               _set_cell("with_paper_r_at_100", "0.000000")(header, rows)),
         "bm25: with_paper recall drops from 1.0 at k 20 to 0.0 at k 100"),
        (_reverse_metric_columns, None),
    ],
    ids=["above-1", "below-0", "drops-with-k", "mrr-below-r1", "not-a-number",
         "drops-with-k-columns-reversed", "columns-reversed"],
)
def test_validator_checks_retrieval_metrics(fixture_run, tmp_path, edit, message):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    _edit_retrieval(copy, edit)
    got = [(v.file, v.line, v.message) for v in validate_corpus(copy)]
    assert got == ([("reports/retrieval.csv", 2, message)] if message else [])


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("verdicts.jsonl", '{"pair_id": "p", "delta": "x", "decision": "Accept",'
         ' "conf_with": 0.5, "conf_without": 0.5}', "delta must be a number"),
        ("verdicts.jsonl", "[1, 2]", "expected a JSON object, got list"),
        ("verdicts.jsonl", '{"pair_id": ["p"], "delta": 0.5, "decision": "Accept",'
         ' "conf_with": 0.5, "conf_without": 0.5}', "pair_id must be a string"),
        ("matches.jsonl", "not json", "unparseable JSON"),
        ("matches.jsonl", '{"dataset_id": "d"}', "missing field paper_id"),
        ("matches.jsonl", '{"dataset_id": {}, "paper_id": "p", "used": true}',
         "dataset_id must be a string"),
        ("datasets.jsonl", '{"id": ["x"], "title": "t"}', "id must be a string"),
        ("papers.jsonl", '{"id": ["x"], "title": "t"}', "id must be a string"),
        ("aspects.jsonl", '{"dataset_id": "d", "paper_id": ["p"], "aspect": "Background",'
         ' "text": "t"}', "paper_id must be a string"),
        ("qapairs.jsonl", '{"id": "q", "dataset_id": ["d"], "qtype": "Verification",'
         ' "question": "q?", "answer": "a"}', "dataset_id must be a string"),
        ("reports/qaeval.jsonl", '{"pair_id": "p", "model": "m", "prediction": "x",'
         ' "correct": "yes", "qtype": "Verification"}', "correct must be true or false"),
        ("matches.jsonl", '{"dataset_id": "ds001", "paper_id": "p1", "used": false,'
         ' "explanation": "", "truncated": "no"}', "truncated must be true or false"),
        ("verdicts.jsonl", '{"pair_id": "p", "delta": 0.5, "decision": "Accept",'
         ' "conf_with": 0.5, "conf_without": 0.5}', "missing field model"),
    ],
    ids=[
        "verdict-delta-not-a-number", "verdict-not-an-object", "verdict-id-not-a-string",
        "match-not-json", "match-missing-field", "match-id-not-a-string",
        "dataset-id-not-a-string", "paper-id-not-a-string", "aspect-id-not-a-string",
        "pair-id-not-a-string", "qaeval-correct-not-a-bool", "match-truncated-not-a-bool",
        "verdict-without-model",
    ],
)
def test_validator_reports_each_malformed_row(
    fixture_run, tmp_path, capsys, name, line, message
):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    violations = validate_corpus(copy)
    assert [(v.file, v.line) for v in violations] == [(name, 2)]
    assert message in violations[0].message
    assert main(["validate", "--output", str(copy)]) == 1
    assert f"{name}:2: " in capsys.readouterr().out


@pytest.mark.parametrize(
    "stage, name, field",
    [("parse", "matches.jsonl", "used"), ("stats", "verdicts.jsonl", "decision")],
    ids=["parse", "stats"],
)
def test_stage_names_a_bad_row(fixture_run, tmp_path, capsys, stage, name, field):
    _, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / name
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    del row[field]
    path.write_text("\n".join([json.dumps(row), *lines[1:]]) + "\n", encoding="utf-8")
    assert main([stage, "--config", str(FIXTURE_CONFIG), "--output", str(copy)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "RecordError", "message": f"{name}:1: missing field {field}"
    }


def test_http_sections_inherit_backend_transport(tmp_path):
    doc = {
        "backend": {
            "script_path": str(FIXTURE_DIR / "mock_script.json"),
            "timeout": 5.0,
            "max_retries": 4,
            "retry_backoff": 0.5,
            "max_in_flight": 3,
            "api_key_env": "SCIRFORGE_TEST_API_KEY",
        },
        "embedding": {"enabled": True, "kind": "http", "endpoint": "http://emb/v1", "model": "e"},
        "entailment": {"kind": "http", "endpoint": "http://nli/v1"},
    }
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    ctx = SimpleNamespace(config=load_config(tmp_path / "config.json"))
    emb = pipeline._embedding_client(ctx)._config
    ent = pipeline._entailment_scorer(ctx)._config
    assert (emb.kind, emb.endpoint, emb.model) == ("http", "http://emb/v1", "e")
    assert (ent.kind, ent.endpoint, ent.model) == ("http", "http://nli/v1", "mock-model")
    for c in (emb, ent):
        assert (c.timeout, c.max_retries, c.retry_backoff, c.max_in_flight, c.api_key_env) == (
            5.0, 4, 0.5, 3, "SCIRFORGE_TEST_API_KEY"
        )


def test_validator_missing_corpus(tmp_path):
    violations = validate_corpus(tmp_path)
    assert len(violations) == 1 and violations[0].message == "file missing"


def test_cli_fixture_copy(tmp_path, capsys):
    dest = tmp_path / "demo"
    assert main(["fixture", "--dest", str(dest)]) == 0
    for name in ("datasets.jsonl", "papers.jsonl", "mock_script.json", "config.json", "labels.json"):
        assert (dest / name).exists()
    assert "fixtures copied" in capsys.readouterr().out


def test_cli_validate(fixture_run, tmp_path, capsys):
    _, run_dir, _ = fixture_run
    assert main(["validate", "--output", str(run_dir)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["validate", "--output", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "datasets.jsonl:0: file missing" in out and "1 violation(s)" in out


def test_cli_stage_noop(fixture_run, capsys):
    _, run_dir, _ = fixture_run
    rc = main(["split", "--config", str(FIXTURE_CONFIG), "--output", str(run_dir)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "split: noop"


@pytest.mark.parametrize(
    "row, error, message",
    [
        ('{"id": ["x"], "title": "t"}', "RecordError", "datasets.jsonl:6: id must be a string"),
        ('{"title": "t"}', "RecordError", "datasets.jsonl:6: missing field id"),
        ("[1, 2]", "RecordError", "datasets.jsonl:6: expected a JSON object, got list"),
        ("not json", "RecordError",
         "datasets.jsonl:6: unparseable JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"id": "ds001", "title": "t"}', "StageError", "duplicate dataset ids in input"),
        ('{"id": "d9", "title": "t", "linked_paper_ids": "p1"}', "RecordError",
         "datasets.jsonl:6: linked_paper_ids must be a list"),
    ],
    ids=["id-not-a-string", "missing-id", "not-an-object", "not-json", "duplicate-id",
         "tuple-field-not-a-list"],
)
def test_ingest_reports_a_bad_row_as_json(tmp_path, capsys, row, error, message):
    inputs, _ = _fixture_copy(tmp_path)
    with (inputs / "datasets.jsonl").open("a", encoding="utf-8") as f:
        f.write(row + "\n")
    argv = ["--config", str(inputs / "config.json"), "--output", str(tmp_path / "run")]
    assert main(["ingest", *argv, "--input", str(inputs)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}


def test_config_that_cannot_run_fails_before_any_stage(tmp_path, capsys):
    inputs = tmp_path / "inputs"
    shutil.copytree(FIXTURE_DIR, inputs)
    doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    doc["embedding"] = {"enabled": True, "dim": 1}
    (inputs / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = ["all", "--config", str(inputs / "config.json"), "--output", str(tmp_path / "run")]
    assert main([*argv, "--input", str(inputs)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ConfigError" and err["message"].startswith("embedding.dim ")
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_cli_reports_errors_as_json(tmp_path, capsys):
    rc = main(["match", "--config", str(FIXTURE_CONFIG), "--output", str(tmp_path / "r")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StageError" and "ingest" in err["message"]


# ---------------------------------------------------------------------------
# Inputs parsed once per process
# ---------------------------------------------------------------------------


def _counting_reads(monkeypatch) -> dict[Path, int]:
    """Count every parse of a stage input file, by path."""
    reads: dict[Path, int] = {}
    real_load, real_from_dict = pipeline.load_records, pipeline.record_from_dict

    def load_records(path, cls):
        reads[Path(path)] = reads.get(Path(path), 0) + 1
        return real_load(path, cls)

    def record_from_dict(cls, row):
        if cls is pipeline._IndexDoc:
            key = Path(f"index/{row['config']}")
            reads[key] = reads.get(key, 0) + 1
        return real_from_dict(cls, row)

    monkeypatch.setattr(pipeline, "load_records", load_records)
    monkeypatch.setattr(pipeline, "record_from_dict", record_from_dict)
    return reads


def test_each_file_is_parsed_once_per_run(tmp_path, monkeypatch):
    reads = _counting_reads(monkeypatch)
    run_dir = tmp_path / "run"
    run_all(load_config(FIXTURE_CONFIG), run_dir, FIXTURE_DIR)
    names = {
        "datasets.jsonl", "papers.jsonl", "matches.jsonl", "aspects.jsonl",
        "qapairs.jsonl", "verdicts.jsonl",
    }
    assert set(reads) == (
        {run_dir / n for n in names}
        | {FIXTURE_DIR / "datasets.jsonl", FIXTURE_DIR / "papers.jsonl"}
        | {Path("index/WithoutPaper"), Path("index/WithPaper")}
    )
    assert set(reads.values()) == {1}


def test_parsed_inputs_equal_a_fresh_parse(tmp_path):
    """After each stage every memo entry equals a fresh parse of the file
    that has its digest."""
    config = load_config(FIXTURE_CONFIG)
    run_dir = tmp_path / "run"
    checked = set()
    for name in STAGE_ORDER:
        run_stage(name, config, run_dir, FIXTURE_DIR if name == "ingest" else None)
        for (digests, what), (labels, value) in pipeline._PARSED.items():
            paths = [
                FIXTURE_DIR / label.removeprefix("input:") if label.startswith("input:")
                else TEMPLATE_DIR / label.removeprefix("template:")
                if label.startswith("template:")
                else run_dir / label
                for label in labels
            ]
            assert [file_digest(p) for p in paths] == list(digests)
            if what is str:
                fresh = paths[0].read_text(encoding="utf-8")
            elif what == "accepted pairs":
                qapairs, verdicts = paths
                accepted = {
                    row["pair_id"]
                    for row in map(json.loads, verdicts.read_text(encoding="utf-8").splitlines())
                    if row["decision"] == "Accept"
                }
                pairs = core.load_records(qapairs, core.QAPair)
                fresh = tuple(p for p in pairs if p.id in accepted)
            elif paths[0].suffix == ".jsonl":
                fresh = tuple(core.load_records(paths[0], what))
            else:
                doc = json.loads(paths[0].read_text(encoding="utf-8"))
                fresh = (core.record_from_dict(what, doc),)
            assert value == fresh, labels
            checked.update(labels)
    assert checked == {
        "input:datasets.jsonl", "input:papers.jsonl", "datasets.jsonl", "papers.jsonl",
        "matches.jsonl", "aspects.jsonl", "qapairs.jsonl", "verdicts.jsonl",
        "index/without_paper.json", "index/with_paper.json",
        *(f"template:{name}.txt" for name in (
            "relevance", "segment", "extract", "verify", "select_types", "generate",
            "cognitive", "rag",
        )),
    }


def test_an_edited_input_is_parsed_again(tmp_path, monkeypatch):
    """Editing qapairs.jsonl between two stages of one process makes the
    next stage read the new content."""
    config = load_config(FIXTURE_CONFIG)
    run_dir = tmp_path / "run"
    for name in STAGE_ORDER[: STAGE_ORDER.index("filter") + 1]:
        run_stage(name, config, run_dir, FIXTURE_DIR if name == "ingest" else None)
    verdicts = (run_dir / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    accepted = [row["pair_id"] for row in map(json.loads, verdicts) if row["decision"] == "Accept"]
    qapairs = run_dir / "qapairs.jsonl"
    lines = qapairs.read_text(encoding="utf-8").splitlines(keepends=True)
    qapairs.write_text(
        "".join(ln for ln in lines if json.loads(ln)["id"] != accepted[0]), encoding="utf-8"
    )
    reads = _counting_reads(monkeypatch)
    assert run_stage("stats", config, run_dir) == "done"
    assert reads == {qapairs: 1, run_dir / "verdicts.jsonl": 1}
    header, rows = _read_csv(run_dir / "reports/levels.csv")
    assert int(rows[0][header.index("total")]) == len(accepted) - 1


def test_a_failed_join_stores_nothing(fixture_run, tmp_path):
    config, run_dir, _ = fixture_run
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    verdicts = copy / "verdicts.jsonl"
    good = verdicts.read_bytes()
    verdicts.write_bytes(b"".join(good.splitlines(keepends=True)[1:]))
    with pytest.raises(StageError, match="pairs missing verdicts"):
        run_stage("stats", config, copy)
    assert [what for _, what in pipeline._PARSED] == [core.QAPair]
    verdicts.write_bytes(good)
    assert run_stage("stats", config, copy) == "done"
