"""Command line entry points: parse, run, report.

`run` executes a JSON experiment config and writes JSONL records plus a
derived CSV summary. `report` re-reads a JSONL results file and emits
figure-ready CSV groupings. `parse` dumps the shape of a QASM file and
its ideal top-5 distribution.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from .circuit import CircuitError
from .harness import (
    ConfigError,
    IoError,
    field_mean,
    group_by,
    load_config,
    read_jsonl,
    run_experiment,
    summarize,
    write_csv,
    write_jsonl,
)
from .metrics import ranked
from .qasm import QasmError, parse_qasm
from .simulator import run_statevector


def _cmd_parse(args) -> int:
    path = Path(args.path)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        circuit = parse_qasm(source, name=path.stem)
        dist = run_statevector(circuit)
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
    try:
        config = load_config(args.config)
    except (ConfigError, IoError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, master_seed=args.seed)
    records, errors = run_experiment(config, jobs=args.jobs)
    out = Path(args.out or config.out or "results.jsonl")
    write_jsonl(records, out)
    write_csv(summarize(records), out.with_suffix(".summary.csv"))
    print(f"wrote {len(records)} records to {out}")
    print(f"wrote summary to {out.with_suffix('.summary.csv')}")
    for message in errors:
        print(f"cell failed: {message}", file=sys.stderr)
    return 1 if errors else 0


def _defense(mode, field="defense"):
    """Record filter: the given defense mode, carrying `field`."""
    return lambda r: r["defense"] == mode and field in r


def _means(fields, metrics, where):
    """Report builder: the mean of each metric per group of `fields`."""

    def build(records):
        rows = []
        for key, g in group_by(records, fields, where):
            row = dict(zip(fields, key))
            row.update((f"{m}_mean", field_mean(g, m)) for m in metrics)
            rows.append(row)
        return rows

    return build


_CELL = ("workload", "t", "shots", "seed")


def _rows_fig12(records):
    """Adaptive split: selection rate and mean shot share per backend."""
    rows = []
    fields = ("workload", "t", "shots")
    for key, g in group_by(records, fields, _defense("adaptive")):
        allocations = [dict(r["allocations"]) for r in g]
        pm_mean = field_mean(g, "pm")
        for name in sorted({name for a in allocations for name in a}):
            shares = [a.get(name, 0) / sum(a.values()) for a in allocations]
            selected = sum(r.get("selected") == name for r in g)
            rows.append(
                {
                    **dict(zip(fields, key)),
                    "backend": name,
                    "mean_shot_share": statistics.fmean(shares),
                    "selection_rate": selected / len(g),
                    "pm_mean": pm_mean,
                }
            )
    return rows


def _rows_table3(records):
    """Per-backend probe fingerprints from adaptive runs."""
    rows = []
    for key, g in group_by(records, _CELL, _defense("adaptive", "probe")):
        cell = dict(zip(_CELL, key))
        for r in g:
            probe = r["probe"]
            for bp in sorted(probe["backends"], key=lambda bp: bp["name"]):
                rows.append(
                    {
                        **cell,
                        "backend": bp["name"],
                        "repeatable": bp["repeatable"],
                        "run_tops": " ".join(bp["run_tops"]),
                        "mean_pm": bp["mean_pm"],
                        "mean_inter_run_tvd": bp["mean_inter_run_tvd"],
                        "mean_confidence": bp["mean_confidence"],
                        "voted_answer": probe["voted_answer"],
                    }
                )
    return rows


def _rows_table6(records):
    """Adaptive QAOA: probe ARs and selection per t."""
    rows = []
    for key, g in group_by(records, _CELL, _defense("qaoa_adaptive")):
        cell = dict(zip(_CELL, key))
        for r in g:
            for name, ars in sorted(r["probe_ars"].items()):
                rows.append(
                    {
                        **cell,
                        "backend": name,
                        "probe_ars": " ".join(f"{a:.4f}" for a in ars),
                        "selected": r["selected"] == name,
                        "final_ar": r["ar"] if r["selected"] == name else None,
                    }
                )
    return rows


# fig8 and table2 are the same grouping: PM against the shot budget
_SHOTS = _means(
    ("workload", "backend", "t", "shots"),
    ("pm", "tvd_vs_ideal"),
    _defense("none", "pm"),
)

_REPORTS = {
    # PM and TVD vs t per backend (no defense)
    "fig6": _means(
        ("workload", "backend", "t"),
        ("pm", "tvd_vs_ideal", "tvd_vs_clean"),
        _defense("none", "pm"),
    ),
    "fig8": _SHOTS,
    # equal-split PM/TVD vs t
    "fig11": _means(
        ("workload", "t", "shots"), ("pm", "tvd_vs_ideal"), _defense("equal")
    ),
    "fig12": _rows_fig12,
    "table2": _SHOTS,
    "table3": _rows_table3,
    # iteration-split AR vs t
    "table5": _means(
        ("workload", "t"), ("ar", "phase_a_ar", "phase_b_ar"), _defense("qaoa_split")
    ),
    "table6": _rows_table6,
}


def _cmd_report(args) -> int:
    try:
        records = read_jsonl(args.results)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or "report")
    written = []
    for key, builder in _REPORTS.items():
        rows = builder(records)
        if not rows:
            continue
        path = out_dir / f"{key}.csv"
        write_csv(rows, path)
        written.append(path)
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
