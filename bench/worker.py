"""One benchmark pass over a generated workload, in a fresh process.

Run by ``run.py``; prints one JSON object on its last stdout line. A pass
imports qtrust, loads every config (set-up), runs every config with
``jobs=1`` (sweep), writes JSONL, CSV summary and ``qtrust report`` output
(output), checks the records and hashes them.

Modes:
  sweep  untraced; the output stage is repeated and its fastest repeat reported
  trace  the same pass with the layer tracer installed before set-up
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

TVD_SLACK = 1e-12  # summation rounding; a real defect is far larger


def _record_problems(record: dict) -> list[str]:
    problems = []
    pm = record.get("pm")
    if pm is not None and pm != "inf":
        if not isinstance(pm, (int, float)) or math.isnan(pm) or pm < 0:
            problems.append(f"pm {pm!r} is not >= 0 or 'inf'")
    for key in ("tvd_vs_ideal", "tvd_vs_clean"):
        if key in record and not -TVD_SLACK <= record[key] <= 1 + TVD_SLACK:
            problems.append(f"{key} {record[key]!r} outside [0, 1]")
    if "allocations" in record:
        total = sum(share for _, share in record["allocations"])
        if total != record["shots"]:
            problems.append(f"allocations sum to {total}, cell has {record['shots']}")
    if "ar" in record and not 0.0 <= record["ar"] <= 1.0:
        problems.append(f"approximation ratio {record['ar']!r} outside [0, 1]")
    return problems


def _check(spec: dict, per_config: list[tuple[list[dict], list[str]]]) -> tuple[int, list[str]]:
    """Failed cells and the problems found in one pass's outputs."""
    failed_cells: set = set()
    problems: list[str] = []
    failed = 0
    for index, (records, errors) in enumerate(per_config):
        failed += len(errors)
        problems += [f"config {index}: {e}" for e in errors]
        if len(records) != spec["records"][index]:
            problems.append(
                f"config {index}: {len(records)} records, "
                f"expected {spec['records'][index]}"
            )
            failed += 1
        hidden = spec["hidden"][index]
        for record in records:
            found = _record_problems(record)
            if hidden is not None and record.get("correct") != hidden:
                found.append(
                    f"ideal top outcome {record.get('correct')!r}, "
                    f"hidden string is {hidden!r}"
                )
            if found:
                failed_cells.add((index, record["t"], record["shots"], record["seed"]))
                problems += found
    return failed + len(failed_cells), problems


def _digest(paths: list[Path]) -> tuple[str, int]:
    """sha256 and byte size of the JSONL records without the wall-clock field."""
    h = hashlib.sha256()
    size = 0
    for path in paths:
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("wall_time_s", None)
            payload = json.dumps(record, sort_keys=True).encode() + b"\n"
            h.update(payload)
            size += len(payload)
    return h.hexdigest(), size


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--mode", choices=("sweep", "trace"), required=True)
    parser.add_argument("--output-reps", type=int, default=1)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((args.workdir / "workload.json").read_text())
    tracer = Tracer() if args.mode == "trace" else None

    start = time.perf_counter()
    import qtrust
    from qtrust import cli, harness

    if Path(qtrust.__file__).resolve().parent != (args.src / "qtrust").resolve():
        print(f"error: imported qtrust from {qtrust.__file__}", file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.install()
    load_start = time.perf_counter()
    configs = [harness.load_config(Path(p)) for p in spec["configs"]]
    end = time.perf_counter()
    setup_s, load_s = end - start, end - load_start

    per_config = []
    config_s = []
    for config in configs:
        t0 = time.perf_counter()
        records, errors = harness.run_experiment(config, jobs=1)
        config_s.append(time.perf_counter() - t0)
        per_config.append((records, errors))

    def call_report(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    out = args.workdir / f"out-{args.mode}"
    jsonl = [out / f"{index}.jsonl" for index in range(len(configs))]
    output_times = []
    report_codes = set()
    for _ in range(args.output_reps):
        t0 = time.perf_counter()
        for path, (records, _) in zip(jsonl, per_config):
            harness.write_jsonl(records, path)
            harness.write_csv(harness.summarize(records), path.with_suffix(".summary.csv"))
            argv = ["report", str(path), "--out", str(path.with_suffix(""))]
            if tracer is not None:
                report_codes.add(tracer.span("cli.report", call_report, argv))
            else:
                report_codes.add(call_report(argv))
        output_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.restore()

    failed, problems = _check(spec, per_config)
    digest, payload_bytes = _digest(jsonl)
    if report_codes != {0}:
        problems.append(f"qtrust report exited with {sorted(report_codes)}")
        failed += 1
    result = {
        "setup_s": setup_s,
        "load_s": load_s,
        "sweep_s": sum(config_s),
        "config_s": config_s,
        "output_s": min(output_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": sum(len(c.t_sweep) * len(c.shots_sweep) * len(c.seeds) for c in configs),
        "failed": failed,
        "problems": problems[:20],
        "records_digest": digest,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        counters = dict(tracer.counters)
        # bytes without wall_time_s, whose printed length varies run to run
        counters["harness.write_jsonl.bytes"] = payload_bytes
        result.update(
            self_s=tracer.self_times(),
            counters=counters,
            absent=tracer.absent,
            broken_counters=sorted(tracer.broken_counters),
        )
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
