"""Command line entry points: parse, run, report.

`run` executes a JSON experiment config and writes JSONL records plus a
derived CSV summary. `report` re-reads a JSONL results file and emits
figure-ready CSV groupings. `parse` dumps the shape of a QASM file and
its ideal top-5 distribution.

Only `report` is imported at start-up: `parse` and `run` import the
simulator (and numpy) when they run, so `qtrust report` never loads them.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import report


def _write_error(exc: OSError, path: Path) -> int:
    print(f"error: {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _cmd_parse(args) -> int:
    from .circuit import CircuitError
    from .metrics import Counts, ranked
    from .qasm import QasmError, parse_qasm
    from .simulator import prepare

    path = Path(args.path)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        circuit = parse_qasm(source, name=path.stem)
        dist = Counts(prepare(circuit).ideal)
    except (QasmError, CircuitError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    print(f"name:        {circuit.name}")
    print(f"qubits:      {circuit.num_qubits}")
    print(f"gates:       {circuit.gate_count()}")
    print(f"depth:       {circuit.depth()}")
    print(f"measured:    {circuit.num_measured}")
    print("ideal top-5:")
    for key, p in ranked(dist, 5):
        print(f"  {key}  {p:.6f}")
    return 0


def _cmd_run(args) -> int:
    from .harness import ConfigError, load_config, run_experiment

    try:
        config = load_config(args.config)
    except (ConfigError, report.IoError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, master_seed=args.seed)
    records, errors = run_experiment(config, jobs=args.jobs)
    out = Path(args.out or config.out or "results.jsonl")
    summary = out.with_suffix(".summary.csv")
    try:
        report.write_jsonl(records, out)
        report.write_csv(report.summarize(records), summary)
    except OSError as exc:
        return _write_error(exc, out)
    print(f"wrote {len(records)} records to {out}")
    print(f"wrote summary to {summary}")
    for message in errors:
        print(f"cell failed: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_report(args) -> int:
    try:
        records = report.read_jsonl(args.results)
    except report.IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or "report")
    try:
        written = report.write_reports(records, out_dir)
    except OSError as exc:
        return _write_error(exc, out_dir)
    if not written:
        print("no matching records for any report grouping", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrust",
        description="Simulate tampered cloud quantum backends and defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="dump a QASM file's shape")
    p_parse.add_argument("path", help="QASM 2.0 source file")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--jobs", type=int, default=1, help="worker threads")
    p_run.add_argument("--out", default=None, help="JSONL output path")

    p_report = sub.add_parser("report", help="emit figure-ready CSV groupings")
    p_report.add_argument("results", help="JSONL results path")
    p_report.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "parse":
        return _cmd_parse(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
