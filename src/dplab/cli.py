"""Command-line entry point: run, validate, and list experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from .errors import ConfigError, DplabError
from .harness import (
    FAMILIES,
    SCHEMA_VERSION,
    check_output_dir,
    emit_report,
    load_config,
    run_experiment,
)
from .rvgen import check_seed
from .verify import resolve_threads


def _held(rule: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type that holds a flag to the rule of the config field it
    overrides, so a value the field would reject exits 2 at the flag."""

    def parse(text: str):
        try:
            return rule(text)
        except ValueError as exc:  # an ArgumentError is a ValueError too
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dplab",
        description=(
            "Dirichlet-process simulation lab: sample exact representations and "
            "verify the large-concentration limit laws against closed forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config and emit artifacts")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--seed", type=_held(lambda text: check_seed(int(text), "seed")),
                       default=None, help="override the config seed")
    run_p.add_argument("--out", type=_held(check_output_dir), default=None,
                       help="override the output directory")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("--config", required=True, help="path to a JSON config")

    sub.add_parser("list", help="print experiment families and the schema version")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        print(f"schema_version: {SCHEMA_VERSION}")
        print("experiment families:")
        for name in FAMILIES + ("all",):
            print(f"  {name}")
        return 0

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config OK: experiment={config.experiment} seed={config.seed}")
        return 0

    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_dir = args.out

    try:
        resolve_threads()  # a bad DPLAB_THREADS makes nothing under --out
        Path(config.output_dir).mkdir(parents=True, exist_ok=True)  # before anything is drawn
        report = run_experiment(config)
        emit_report(report, config.output_dir)
    except (DplabError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    for family, ok in report.family_passed.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {family}")
    print(
        f"overall: {'PASS' if report.overall_pass else 'FAIL'} "
        f"({report.wall_clock_seconds:.1f}s, artifacts in {config.output_dir})"
    )
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
