"""Command line entry points: parse, run, report.

`run` executes a JSON experiment config and writes JSONL records plus a
derived CSV summary. `report` re-reads a JSONL results file and emits
figure-ready CSV groupings. `parse` dumps the shape of a QASM file and
its ideal top-5 distribution.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    IoError,
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
    except QasmError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    print(f"name:        {circuit.name}")
    print(f"qubits:      {circuit.num_qubits}")
    print(f"gates:       {circuit.gate_count()}")
    print(f"depth:       {circuit.depth()}")
    print(f"measured:    {circuit.num_measured}")
    dist = run_statevector(circuit)
    print("ideal top-5:")
    for key, p in ranked(dist)[:5]:
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


def _mean(values):
    values = [v for v in values if isinstance(v, (int, float))]
    return statistics.fmean(values) if values else None


def _rows_fig6(records):
    """PM and TVD vs t per backend (no defense)."""
    groups = {}
    for r in records:
        if r["defense"] != "none" or "pm" not in r:
            continue
        groups.setdefault((r["workload"], r["backend"], r["t"]), []).append(r)
    return [
        {
            "workload": wl,
            "backend": bk,
            "t": t,
            "pm_mean": _mean([r["pm"] for r in g]),
            "tvd_vs_ideal_mean": _mean([r["tvd_vs_ideal"] for r in g]),
            "tvd_vs_clean_mean": _mean([r["tvd_vs_clean"] for r in g]),
        }
        for (wl, bk, t), g in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def _rows_shots(records):
    """PM vs shot budget per backend (no defense)."""
    groups = {}
    for r in records:
        if r["defense"] != "none" or "pm" not in r:
            continue
        groups.setdefault((r["workload"], r["backend"], r["t"], r["shots"]), []).append(r)
    return [
        {
            "workload": wl,
            "backend": bk,
            "t": t,
            "shots": shots,
            "pm_mean": _mean([r["pm"] for r in g]),
            "tvd_vs_ideal_mean": _mean([r["tvd_vs_ideal"] for r in g]),
        }
        for (wl, bk, t, shots), g in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def _rows_fig11(records):
    """Equal-split PM/TVD vs t."""
    groups = {}
    for r in records:
        if r["defense"] != "equal":
            continue
        groups.setdefault((r["workload"], r["t"]), []).append(r)
    return [
        {
            "workload": wl,
            "t": t,
            "pm_mean": _mean([r["pm"] for r in g]),
            "tvd_vs_ideal_mean": _mean([r["tvd_vs_ideal"] for r in g]),
        }
        for (wl, t), g in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def _rows_fig12(records):
    """Adaptive split: selection rate and mean shot share per backend."""
    groups = {}
    for r in records:
        if r["defense"] != "adaptive":
            continue
        groups.setdefault((r["workload"], r["t"]), []).append(r)
    rows = []
    for (wl, t), g in sorted(groups.items(), key=lambda kv: str(kv[0])):
        names = sorted({name for r in g for name, _ in r["allocations"]})
        for name in names:
            shares = []
            selected = 0
            for r in g:
                total = sum(s for _, s in r["allocations"])
                share = dict((n, s) for n, s in r["allocations"]).get(name, 0)
                shares.append(share / total)
                selected += r.get("selected") == name
            rows.append(
                {
                    "workload": wl,
                    "t": t,
                    "backend": name,
                    "mean_shot_share": _mean(shares),
                    "selection_rate": selected / len(g),
                    "pm_mean": _mean([r["pm"] for r in g]),
                }
            )
    return rows


def _rows_table3(records):
    """Per-backend probe fingerprints from adaptive runs."""
    rows = []
    for r in records:
        if r["defense"] != "adaptive" or "probe" not in r:
            continue
        for bp in r["probe"]["backends"]:
            rows.append(
                {
                    "workload": r["workload"],
                    "t": r["t"],
                    "seed": r["seed"],
                    "backend": bp["name"],
                    "repeatable": bp["repeatable"],
                    "run_tops": " ".join(bp["run_tops"]),
                    "mean_pm": bp["mean_pm"],
                    "mean_inter_run_tvd": bp["mean_inter_run_tvd"],
                    "mean_confidence": bp["mean_confidence"],
                    "voted_answer": r["probe"]["voted_answer"],
                }
            )
    rows.sort(key=lambda row: (str(row["t"]), row["seed"], row["backend"]))
    return rows


def _rows_table5(records):
    """Iteration-split AR vs t."""
    groups = {}
    for r in records:
        if r["defense"] != "qaoa_split":
            continue
        groups.setdefault((r["workload"], r["t"]), []).append(r)
    return [
        {
            "workload": wl,
            "t": t,
            "ar_mean": _mean([r["ar"] for r in g]),
            "phase_a_ar_mean": _mean([r["phase_a_ar"] for r in g]),
            "phase_b_ar_mean": _mean([r["phase_b_ar"] for r in g]),
        }
        for (wl, t), g in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def _rows_table6(records):
    """Adaptive QAOA: probe ARs and selection per t."""
    rows = []
    for r in records:
        if r["defense"] != "qaoa_adaptive":
            continue
        for name, ars in sorted(r["probe_ars"].items()):
            rows.append(
                {
                    "workload": r["workload"],
                    "t": r["t"],
                    "seed": r["seed"],
                    "backend": name,
                    "probe_ars": " ".join(f"{a:.4f}" for a in ars),
                    "selected": r["selected"] == name,
                    "final_ar": r["ar"] if r["selected"] == name else None,
                }
            )
    rows.sort(key=lambda row: (str(row["t"]), row["seed"], row["backend"]))
    return rows


_REPORTS = {
    "fig6": _rows_fig6,
    "fig8": _rows_shots,
    "fig11": _rows_fig11,
    "fig12": _rows_fig12,
    "table2": _rows_shots,
    "table3": _rows_table3,
    "table5": _rows_table5,
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
