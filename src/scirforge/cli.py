"""Command line entry point for the scirforge pipeline."""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from .config import load_config
from .core import PipelineError
from .pipeline import STAGE_ORDER, run_all, run_stage, validate_corpus, validate_outputs

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _add_run_args(sub: argparse.ArgumentParser, with_input: bool) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON config file")
    sub.add_argument("--output", required=True, help="run directory for artifacts")
    if with_input:
        sub.add_argument("--input", help="directory holding datasets.jsonl and papers.jsonl")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scirforge",
        description="Generate, filter, and benchmark dataset QA corpora.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_ORDER:
        sub = subs.add_parser(name, help=f"run the {name} stage")
        _add_run_args(sub, with_input=(name == "ingest"))
    sub = subs.add_parser("all", help="run every stage in order")
    _add_run_args(sub, with_input=True)
    sub = subs.add_parser("validate", help="check artifacts in a run directory")
    sub.add_argument("--output", required=True, help="run directory to validate")
    sub = subs.add_parser("fixture", help="copy the bundled demo corpus")
    sub.add_argument("--dest", required=True, help="directory to copy fixtures into")
    return parser


def _cmd_fixture(dest: str) -> int:
    target = Path(dest)
    target.mkdir(parents=True, exist_ok=True)
    for item in sorted(FIXTURE_DIR.iterdir()):
        if item.is_file():
            shutil.copy(item, target / item.name)
    print(f"fixtures copied to {target}")
    return 0


def _cmd_validate(output: str) -> int:
    violations = validate_corpus(Path(output)) + validate_outputs(Path(output))
    for v in violations:
        print(f"{v.file}:{v.line}: {v.message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fixture":
            return _cmd_fixture(args.dest)
        if args.command == "validate":
            return _cmd_validate(args.output)
        config = load_config(Path(args.config))
        run_dir = Path(args.output)
        if args.command == "all":
            input_dir = Path(args.input) if args.input else None
            statuses = run_all(config, run_dir, input_dir)
            for name, status in statuses.items():
                print(f"{name}: {status}")
            return 0
        input_dir = Path(args.input) if getattr(args, "input", None) else None
        status = run_stage(args.command, config, run_dir, input_dir)
        print(f"{args.command}: {status}")
        return 0
    except (PipelineError, OSError, ValueError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
