"""Shared helpers: scripted mock gateways, a fake HTTP response and a
session-wide fixture run."""
import json
from pathlib import Path

import pytest

from scirforge.cli import FIXTURE_DIR
from scirforge.config import load_config
from scirforge.gateway import BackendConfig, Gateway
from scirforge import gateway, pipeline
from scirforge.pipeline import run_all


def make_gateway(tmp_path: Path, entries: list[dict], cache: bool = False, **kwargs) -> Gateway:
    """Build a mock-backed Gateway from inline script entries."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps(entries), encoding="utf-8")
    config = BackendConfig(
        kind="mock",
        script_path=str(script),
        cache_dir=str(tmp_path / "cache") if cache else "",
        **kwargs,
    )
    return Gateway.from_config(config)


class FakeResponse:
    """Stands in for a requests.Response: a status and a JSON or text body."""

    def __init__(self, status, body):
        self.status_code = status
        self.text = body if isinstance(body, str) else json.dumps(body)

    def json(self):
        return json.loads(self.text)


@pytest.fixture(autouse=True)
def _no_parsed_inputs_carried_over():
    """Every test starts without the inputs earlier tests' stages parsed."""
    pipeline._PARSED.clear()
    yield
    pipeline._PARSED.clear()


@pytest.fixture(autouse=True)
def _no_cache_log_indexes_carried_over():
    """Every test starts without the cache-log indexes earlier tests built."""
    gateway._LOG_INDEXES.clear()
    yield
    gateway._LOG_INDEXES.clear()


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory):
    """One full pipeline run over the bundled fixture corpus."""
    run_dir = tmp_path_factory.mktemp("e2e") / "run"
    config = load_config(FIXTURE_DIR / "config.json")
    statuses = run_all(config, run_dir, FIXTURE_DIR)
    return config, run_dir, statuses
