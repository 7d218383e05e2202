"""Config-driven experiment harness.

A JSON config describes one experiment: a workload (builtin circuit, QASM
file or QAOA instance), a set of backend models, sweeps over the tampering
coefficient and the shot budget, a defense mode and a list of seeds. Every
(t, shots, seed) cell runs independently on a bounded worker pool and
produces one JSONL record; a CSV summary with per-group mean/std over
seeds is derived from the records, never the other way around.

Determinism: the cell seed is a hash of (master seed, workload, t, shots,
seed index), and every stochastic stage below derives its own sub-stream,
so records are byte-identical across re-runs and worker counts
(wall_time_s excepted).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import jsonschema

from .adversary import TamperMode, TamperSpec
from .backend import BackendModel, NoiseError, NoiseModel
from .benchmarks import builtin
from .circuit import Circuit, CircuitError
from .defense import (
    SELECTION_ORDER,
    adaptive_split,
    equal_split,
    qaoa_adaptive,
    qaoa_iteration_split,
    select_backend,
)
from .metrics import Counts, pm, ranked, top_outcome, tvd
from .qaoa import Graph, QaoaConfig, optimize, random_regular_graph
from .qasm import QasmError, parse_qasm
from .rng import derive_seed
from .simulator import Prepared, clean_distribution, execute, prepare

SCHEMA_VERSION = 1

# artifact defaults, not measured hardware values
DEFAULT_READOUT = 0.02
DEFAULT_DRIFT = 0.01


class ConfigError(ValueError):
    """Config rejected; the message carries a JSON pointer to the field."""


class IoError(OSError):
    pass


_TAMPER_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["random_all", "random_subset", "targeted"]},
        "t": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "k": {"type": "integer", "minimum": 1},
    },
    "required": ["mode", "t"],
    "additionalProperties": False,
}

_READOUT_SCHEMA = {
    "oneOf": [
        {"type": "number", "minimum": 0.0, "maximum": 0.5},
        {
            "type": "array",
            "items": {"type": "number", "minimum": 0.0, "maximum": 0.5},
            "minItems": 2,
            "maxItems": 2,
        },
        {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number", "minimum": 0.0, "maximum": 0.5},
                "minItems": 2,
                "maxItems": 2,
            },
            "minItems": 1,
        },
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "workload": {
            "type": "object",
            "properties": {
                "builtin": {"type": "string"},
                "qasm": {"type": "string"},
                "qaoa": {
                    "type": "object",
                    "properties": {
                        "nodes": {"type": "integer", "minimum": 2},
                        "degree": {"type": "integer", "minimum": 1},
                        "edges": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                        "graph_seed": {"type": "integer"},
                        "p": {"type": "integer", "minimum": 1},
                        "iterations": {"type": "integer", "minimum": 1},
                        "shots_per_iter": {"type": "integer", "minimum": 1},
                    },
                    "required": ["nodes"],
                    "additionalProperties": False,
                },
            },
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
        },
        "backends": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "readout": _READOUT_SCHEMA,
                    "gate_depolarizing": {
                        "type": "number",
                        "minimum": 0.0,
                        "maximum": 1.0,
                    },
                    "drift": {"type": "number", "minimum": 0.0},
                    "tamper": _TAMPER_SCHEMA,
                },
                "required": ["name"],
                "additionalProperties": False,
            },
        },
        "shots": {"type": "integer", "minimum": 1},
        "shots_sweep": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "t_sweep": {
            "type": "array",
            "items": {"type": "number", "minimum": 0.0, "maximum": 1.0},
            "minItems": 1,
        },
        "defense": {
            "type": "object",
            "properties": {
                "mode": {
                    "enum": ["none", "equal", "adaptive", "qaoa_split", "qaoa_adaptive"]
                },
                "k": {"type": "integer", "minimum": 10},
                "r": {"type": "integer", "minimum": 2},
                "order": {
                    "type": "array",
                    "items": {"enum": list(SELECTION_ORDER)},
                    "minItems": 4,
                    "maxItems": 4,
                    "uniqueItems": True,
                },
                "probe_iterations": {"type": "integer", "minimum": 1},
                "probe_runs": {"type": "integer", "minimum": 1},
            },
            "required": ["mode"],
            "additionalProperties": False,
        },
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "master_seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
    },
    "required": ["workload", "backends", "shots", "seeds"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "sample" or "qaoa"
    name: str
    prepared: Prepared | None = None  # circuit and its noise-free vector
    correct: str | None = None
    graph: Graph | None = None
    qaoa: QaoaConfig | None = None

    @property
    def circuit(self) -> Circuit | None:
        return None if self.prepared is None else self.prepared.circuit


@dataclass(frozen=True)
class DefenseSpec:
    mode: str = "none"
    k: int = 50
    r: int = 2
    order: tuple[str, ...] | None = None
    probe_iterations: int = 5
    probe_runs: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    workload: Workload
    backends: tuple[BackendModel, ...]
    shots: int
    t_sweep: tuple[float | None, ...]
    shots_sweep: tuple[int, ...]
    defense: DefenseSpec
    seeds: tuple[int, ...]
    master_seed: int
    out: str | None
    experiment_id: str


def _pointer(error: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


def _build_workload(raw: dict, base_dir: Path) -> Workload:
    if "builtin" in raw:
        try:
            bench = builtin(raw["builtin"])
        except KeyError:
            raise ConfigError(f"/workload/builtin: unknown builtin {raw['builtin']!r}")
        return Workload(
            "sample", bench.name, prepare(bench.circuit), bench.expected_output
        )
    if "qasm" in raw:
        path = base_dir / raw["qasm"]
        try:
            source = path.read_text()
        except OSError as exc:
            raise ConfigError(f"/workload/qasm: cannot read {path}: {exc}")
        try:
            prepared = prepare(parse_qasm(source, name=path.stem))
        except (QasmError, CircuitError) as exc:
            raise ConfigError(f"/workload/qasm: {path}: {exc}")
        correct, _ = top_outcome(Counts(prepared.ideal))
        return Workload("sample", prepared.circuit.name, prepared, correct)
    spec = raw["qaoa"]
    if "edges" in spec:
        graph = Graph.from_edges(spec["nodes"], [tuple(e) for e in spec["edges"]])
    elif "degree" in spec:
        graph = random_regular_graph(
            spec["nodes"], spec["degree"], spec.get("graph_seed", 0)
        )
    else:
        raise ConfigError("/workload/qaoa: needs either edges or degree")
    config = QaoaConfig(
        **{f.name: spec[f.name] for f in fields(QaoaConfig) if f.name in spec}
    )
    name = f"qaoa_n{graph.n}"
    return Workload("qaoa", name, graph=graph, qaoa=config)


def _build_backend(raw: dict) -> BackendModel:
    readout = raw.get("readout", DEFAULT_READOUT)
    if isinstance(readout, (int, float)):
        pairs = (float(readout), float(readout))
    elif readout and isinstance(readout[0], list):
        pairs = tuple((float(a), float(b)) for a, b in readout)
    else:
        pairs = (float(readout[0]), float(readout[1]))
    noise = NoiseModel(
        readout=pairs, gate_depolarizing=raw.get("gate_depolarizing", 0.0)
    )
    tamper = None
    if "tamper" in raw:
        spec = raw["tamper"]
        tamper = TamperSpec(TamperMode(spec["mode"]), spec["t"], spec.get("k"))
    return BackendModel(
        name=raw["name"],
        noise=noise,
        tamper=tamper,
        drift=raw.get("drift", DEFAULT_DRIFT),
    )


def _check_readout(backends, workload: Workload) -> None:
    """Every backend needs a readout pair for every measured qubit."""
    if workload.kind == "qaoa":
        last = workload.graph.n - 1
    else:
        last = max(q for q, _ in workload.circuit.measured_pairs)
    for i, backend in enumerate(backends):
        try:
            backend.noise.pair_for(last)
        except NoiseError as exc:
            raise ConfigError(f"/backends/{i}/readout: {exc}")


def load_config(source: dict | str | Path, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config (dict or JSON file path)."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        base_dir = base_dir or path.parent
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise IoError(str(exc))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"/: invalid JSON: {exc}")
    else:
        raw = source
        base_dir = base_dir or Path.cwd()
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        raise ConfigError(f"{_pointer(err)}: {err.message}")

    seeds = raw["seeds"]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("/seeds: seeds must be distinct")
    backends = tuple(_build_backend(b) for b in raw["backends"])
    names = [b.name for b in backends]
    if len(set(names)) != len(names):
        raise ConfigError("/backends: backend names must be unique")
    workload = _build_workload(raw["workload"], base_dir)

    _check_readout(backends, workload)

    defense_raw = dict(raw.get("defense", {"mode": "none"}))
    if "order" in defense_raw:
        defense_raw["order"] = tuple(defense_raw["order"])
    defense = DefenseSpec(**defense_raw)
    if defense.mode in ("equal", "adaptive", "qaoa_split", "qaoa_adaptive"):
        if len(backends) < 2:
            raise ConfigError(f"/defense/mode: {defense.mode} needs >= 2 backends")
    if defense.mode == "qaoa_split" and len(backends) != 2:
        raise ConfigError("/defense/mode: qaoa_split needs exactly 2 backends")
    if workload.kind == "qaoa" and defense.mode in ("equal", "adaptive"):
        raise ConfigError(f"/defense/mode: {defense.mode} needs a sampling workload")
    if workload.kind == "sample" and defense.mode.startswith("qaoa"):
        raise ConfigError(f"/defense/mode: {defense.mode} needs a qaoa workload")

    t_sweep = tuple(raw["t_sweep"]) if "t_sweep" in raw else (None,)
    shots_sweep = tuple(raw.get("shots_sweep", [raw["shots"]]))
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    experiment_id = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return ExperimentConfig(
        workload=workload,
        backends=backends,
        shots=raw["shots"],
        t_sweep=t_sweep,
        shots_sweep=shots_sweep,
        defense=defense,
        seeds=tuple(seeds),
        master_seed=raw.get("master_seed", 0),
        out=raw.get("out"),
        experiment_id=experiment_id,
    )


def _with_t(backends: tuple[BackendModel, ...], t: float | None):
    """Override the tampering coefficient of every tampered backend."""
    if t is None:
        return list(backends)
    out = []
    for b in backends:
        if b.tamper is not None:
            out.append(b.with_tamper(replace(b.tamper, t=float(t))))
        else:
            out.append(b)
    return out


def _probe_summary(report) -> dict:
    return {
        "voted_answer": report.voted_answer,
        "backends": [
            {
                "name": bp.name,
                "repeatable": bp.repeatable,
                "mean_inter_run_tvd": bp.mean_inter_run_tvd,
                "mean_pm": bp.mean_pm,
                "mean_confidence": bp.mean_confidence,
                "run_tops": [run.top for run in bp.runs],
            }
            for bp in report.backends
        ],
    }


def _finite(x: float) -> float | str:
    # JSON has no inf; PM's sentinel round-trips as a string
    return x if math.isfinite(x) else "inf"


def _clean_mixture(clean: dict[str, Counts], allocations) -> Counts:
    total = sum(s for _, s in allocations if s > 0)
    # vec * share / total in allocation order; vec * (share / total) moves bits
    return Counts(sum(clean[n].vector * s / total for n, s in allocations if s > 0))


def _qaoa_record_fields(record: dict, run) -> None:
    record.update(
        ar=run.ar,
        cmax=run.cmax,
        best_expectation=run.best_expectation,
        gamma=list(run.best_params.gamma),
        beta=list(run.best_params.beta),
    )


def _fill(config: ExperimentConfig, backends, shots, seed, clean, record: dict) -> None:
    """Run one backend group under the config's defense mode and write that
    mode's fields into `record`."""
    wl, defense = config.workload, config.defense
    if wl.kind == "qaoa":
        qcfg = wl.qaoa
        if defense.mode == "none":
            (backend,) = backends
            run = optimize(
                backend, wl.graph, qcfg.p, qcfg.iterations, qcfg.shots_per_iter, seed
            )
            _qaoa_record_fields(record, run)
        elif defense.mode == "qaoa_split":
            split = qaoa_iteration_split(backends[0], backends[1], wl.graph, qcfg, seed)
            record.update(
                ar=split.ar,
                cmax=split.cmax,
                phase_a_ar=split.phase_a.ar,
                phase_b_ar=split.phase_b.ar,
            )
        else:  # qaoa_adaptive
            result = qaoa_adaptive(
                backends,
                wl.graph,
                qcfg,
                probe_iterations=defense.probe_iterations,
                probe_runs=defense.probe_runs,
                seed=seed,
            )
            record["selected"] = result.selected
            record["probe_ars"] = {k: list(v) for k, v in result.probe_ars.items()}
            _qaoa_record_fields(record, result.final)
            record["ar"] = result.ar
        return

    if defense.mode == "none":
        (backend,) = backends
        counts = execute(backend, wl.prepared, shots, seed)
        clean_mix = clean[backend.name]
    else:
        if defense.mode == "equal":
            counts, plan = equal_split(backends, wl.prepared, shots, seed)
        else:  # adaptive
            counts, plan, report = adaptive_split(
                backends,
                wl.prepared,
                shots,
                k=defense.k,
                r=defense.r,
                seed=seed,
                order=defense.order,
            )
            record["probe"] = _probe_summary(report)
            record["selected"] = select_backend(report, defense.order)
        record["allocations"] = list(plan.allocations)
        clean_mix = _clean_mixture(clean, plan.allocations)
    top, confidence = top_outcome(counts)
    record.update(
        pm=_finite(pm(counts, wl.correct)),
        tvd_vs_ideal=tvd(counts, Counts(wl.prepared.ideal)),
        tvd_vs_clean=tvd(counts, clean_mix),
        top_outcome=top,
        confidence=confidence,
        correct=wl.correct,
        top_counts=dict(ranked(counts, 5)),
        shots_in_answer=int(counts.vector.sum()),
    )


def _run_cell(config: ExperimentConfig, t, shots, seed, clean) -> list[dict]:
    """One record per backend under `none`, else one for the whole cell."""
    backends = _with_t(config.backends, t)
    groups = [[b] for b in backends] if config.defense.mode == "none" else [backends]
    cell_seed = _cell_seed(config, t, shots, seed)
    records = []
    for group in groups:
        start = time.perf_counter()
        record = _base_record(config, t, shots, seed, "+".join(b.name for b in group))
        _fill(config, group, shots, cell_seed, clean, record)
        record["wall_time_s"] = time.perf_counter() - start
        records.append(record)
    return records


def _base_record(config: ExperimentConfig, t, shots, seed, backend: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": config.experiment_id,
        "workload": config.workload.name,
        "backend": backend,
        "defense": config.defense.mode,
        "t": t,
        "shots": shots,
        "seed": seed,
    }


def _cell_seed(config: ExperimentConfig, t, shots, seed) -> int:
    t_token = "none" if t is None else float(t)
    return derive_seed(
        config.master_seed, config.workload.name, t_token, shots, seed
    )


def _order_key(values) -> list:
    """Sort key over field values: None first, then natural order."""
    return [(v is not None, v) for v in values]


_RECORD_ORDER = ("workload", "defense", "t", "shots", "seed", "backend")


def _sort_key(record: dict) -> list:
    return _order_key(record[f] for f in _RECORD_ORDER)


def group_by(records, fields, where=None) -> list[tuple[tuple, list[dict]]]:
    """(key, records) pairs over the records `where` accepts, grouped by
    the values of `fields` and sorted by key (None first, numbers as
    numbers)."""
    get = operator.itemgetter(*fields)
    key = get if len(fields) > 1 else lambda record: (get(record),)
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        if where is None or where(record):
            groups.setdefault(key(record), []).append(record)
    return sorted(groups.items(), key=lambda kv: _order_key(kv[0]))


def _numeric(records, field) -> list:
    # skips missing fields and PM's "inf" sentinel
    return [r[field] for r in records if isinstance(r.get(field), (int, float))]


def field_mean(records, field) -> float | None:
    """Mean of the numeric values of `field`; None if there are none."""
    values = _numeric(records, field)
    return statistics.fmean(values) if values else None


def run_experiment(
    config: ExperimentConfig, jobs: int = 1
) -> tuple[list[dict], list[str]]:
    """Run every (t, shots, seed) cell; returns (records, cell errors).

    Records come back sorted by cell key, independent of scheduling.
    """
    wl = config.workload
    # cell-invariant: ignores t, seed, drift and tampering
    clean = (
        {b.name: clean_distribution(b, wl.prepared) for b in config.backends}
        if wl.kind == "sample"
        else {}
    )
    cells = [
        (t, shots, seed)
        for t in config.t_sweep
        for shots in config.shots_sweep
        for seed in config.seeds
    ]

    def one(cell):
        try:
            return _run_cell(config, *cell, clean), None
        except Exception as exc:  # noqa: BLE001 - cell isolation
            t, shots, seed = cell
            return [], f"cell t={t} shots={shots} seed={seed}: {exc}"

    if jobs <= 1:
        outcomes = list(map(one, cells))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, cells))
    records = [record for result, _ in outcomes for record in result]
    records.sort(key=_sort_key)
    return records, [error for _, error in outcomes if error is not None]


def write_jsonl(records: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such results file: {path}")
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


_SUMMARY_METRICS = ("pm", "tvd_vs_ideal", "tvd_vs_clean", "confidence", "ar")
_SUMMARY_GROUP = ("workload", "defense", "backend", "t", "shots")


def summarize(records: list[dict]) -> list[dict]:
    """Mean/std over seeds per (workload, defense, backend, t, shots)."""
    rows = []
    for key, group in group_by(records, _SUMMARY_GROUP):
        row = dict(zip(_SUMMARY_GROUP, key), n_seeds=len(group))
        for metric in _SUMMARY_METRICS:
            values = _numeric(group, metric)
            if not values:
                continue
            row[f"{metric}_mean"] = statistics.fmean(values)
            # pstdev works in exact fractions; skip it for a single value
            row[f"{metric}_std"] = statistics.pstdev(values) if len(values) > 1 else 0.0
        rows.append(row)
    return rows


def write_csv(rows: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
