"""qtrust benchmark: one workload, measured end to end or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cells_small --seed 1 --seconds 55 --trace 0

The workload's inputs are generated from ``--seed`` into a scratch
directory under ``.bench_out/``. Each measured pass runs in a fresh
``bench/worker.py`` process (import, load every config, run every config
with ``jobs=1``, write outputs, check them), one pass after another: a
closed loop with one caller. Passes repeat until ``--seconds`` is used up,
with at least ``MIN_PASSES``.

Estimators. ``setup_s`` and ``peak_rss_mb`` are medians over passes.
``sweep_s`` sums, over the workload's configs, each config's fastest run
across passes, and ``output_s`` is the fastest output stage: on a shared
host the same pass runs up to 1.9x slower while a neighbour is busy, and
the fastest of many short passes is the estimate that repeats best.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass
with the layer tracer plus untraced passes, and prints the per-layer
metrics and the tracing overhead. The last stdout line is the result
object; the line before it holds run metadata. The exit code is 1 when an
output check fails and 2 when the checkout has no qtrust sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import workloads
from tracer import LAYER_STATS, STAT_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # fewest untraced passes in a --trace 0 run
OUTPUT_REPS = 5  # output stage repeats per pass; the pass reports the fastest
RUN_LIMIT_S = 170.0  # every run ends well within the 180 s a run may take
COVERAGE_TOLERANCE = 0.05  # traced self times vs. the stages timed from outside

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "output_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A pass could not run; no result can be reported."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{layer}.{stat}": STAT_UNITS[stat]
        for layer, stats in LAYER_STATS.items()
        for stat in stats
    }
    units["trace.overhead_s"] = "s"
    return units


def _run_pass(workdir: Path, mode: str, deadline: float, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workdir",
        str(workdir),
        "--src",
        str(SRC),
        "--mode",
        mode,
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass started")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=workdir
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(workdir: Path, until: float, minimum: int, deadline: float) -> list[dict]:
    """Untraced passes, back to back, until the next would end after ``until``."""
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        passes.append(
            _run_pass(workdir, "sweep", deadline, ("--output-reps", str(OUTPUT_REPS)))
        )
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        if len(passes) >= minimum and now + per_pass > min(until, deadline):
            return passes


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _best_sweep(passes: list[dict]) -> float:
    """Sum over configs of each config's fastest run across passes."""
    return sum(min(times) for times in zip(*(p["config_s"] for p in passes)))


def _per_layer(traced: dict, untraced_sweep_s: float) -> dict[str, float]:
    counters, self_s = traced["counters"], traced["self_s"]
    values: dict[str, float] = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            if stat == "self_s":
                value = self_s.get(layer, 0.0)
            elif stat == "distinct_ratio":
                calls = counters.get(f"{layer}.calls", 0)
                value = counters.get(f"{layer}.distinct", 0) / calls if calls else 0.0
            else:
                value = counters.get(f"{layer}.{stat}", 0)
            values[f"{layer}.{stat}"] = value
    values["trace.overhead_s"] = traced["sweep_s"] - untraced_sweep_s
    return values


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, metadata)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=out_root))
    try:
        workload = workloads.generate(workload_name, seed, workdir)
        spec = asdict(workload)
        spec["configs"] = [str(p) for p in workload.configs]
        (workdir / "workload.json").write_text(json.dumps(spec))
        traced = None
        if trace:
            spans = out_root / f"spans-{workload_name}.jsonl"
            traced = _run_pass(workdir, "trace", deadline, ("--spans", str(spans)))
        untraced = _passes(
            workdir, start + seconds, 1 if trace else MIN_PASSES, deadline
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = untraced + ([traced] if traced else [])
    problems = [p for one in all_passes for p in one["problems"]]
    digests = sorted({one["records_digest"] for one in all_passes})
    attempted = sum(one["cells"] for one in all_passes)
    failed = sum(one["failed"] for one in all_passes)
    if len(digests) > 1:
        problems.append(f"records differ between passes: {digests}")
        failed += 1
    meta = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(untraced),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": untraced[0]["numpy"],
        "git_rev": _git_rev(),
        "records_digest": digests[0] if len(digests) == 1 else digests,
        "sweep_s_untraced": _median(untraced, "sweep_s"),
        "sweep_s_traced": traced["sweep_s"] if traced else None,
        "cell_error_rate": {"value": failed / attempted, "unit": "ratio"},
        "samples": {
            key: [one[key] for one in untraced]
            for key in ("setup_s", "sweep_s", "output_s", "peak_rss_mb")
        },
    }
    if traced:
        # self times of all layers against the stages timed from outside
        outside = traced["load_s"] + traced["sweep_s"] + traced["output_s"]
        coverage = sum(traced["self_s"].values()) / outside
        meta.update(
            trace_coverage=coverage,
            absent=traced["absent"],
            broken_counters=traced["broken_counters"],
        )
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            problems.append(f"traced self times cover {coverage:.3f} of the run")
        units = per_layer_units()
        values = _per_layer(traced, meta["sweep_s_untraced"])
    else:
        units = END_TO_END
        values = {
            "setup_s": _median(untraced, "setup_s"),
            "sweep_s": _best_sweep(untraced),
            "output_s": min(one["output_s"] for one in untraced),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        }
    meta["problems"] = problems[:20]
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtrust" / "__init__.py").is_file():
        print(f"error: no qtrust sources at {SRC / 'qtrust'}", file=sys.stderr)
        return 2
    try:
        result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in meta["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
