"""Config-driven experiment harness.

A JSON config describes one experiment: a workload (builtin circuit, QASM
file or QAOA instance), a set of backend models, sweeps over the tampering
coefficient and the shot budget, a defense mode and a list of seeds. Every
(t, shots, seed) cell runs independently on a bounded worker pool and
produces one record. This module loads and checks configs and runs them;
writing, reading and summarising the records is `qtrust.report`'s job.

Determinism: the cell seed is a hash of (master seed, workload, t, shots,
seed index), and every stochastic stage below derives its own sub-stream,
so records are byte-identical across re-runs and worker counts
(wall_time_s excepted).
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

from .adversary import TamperMode, TamperSpec
from .backend import BackendModel, NoiseError, NoiseModel
from .benchmarks import builtin
from .circuit import CapacityExceeded, CircuitError
from .defense import (
    SELECTION_ORDER,
    adaptive_split,
    equal_split,
    qaoa_adaptive,
    qaoa_iteration_split,
)
from .metrics import Counts, pm, ranked, top_outcome, tvd
from .qaoa import Graph, GraphError, QaoaConfig, optimize, random_regular_graph
from .qasm import QasmError, parse_qasm
# summarize, write_csv and write_jsonl: bench/worker.py calls them as harness.*
from .report import IoError, record_key, summarize, write_csv, write_jsonl
from .rng import derive_seed
from .simulator import Prepared, clean_distribution, execute, prepare

SCHEMA_VERSION = 1

# artifact defaults, not measured hardware values
DEFAULT_READOUT = 0.02
DEFAULT_DRIFT = 0.01


class ConfigError(ValueError):
    """Config rejected; the message carries a JSON pointer to the field."""


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
            "uniqueItems": True,
        },
        "t_sweep": {
            "type": "array",
            "items": {"type": "number", "minimum": 0.0, "maximum": 1.0},
            "minItems": 1,
            "uniqueItems": True,
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
            "uniqueItems": True,
        },
        "master_seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
    },
    "required": ["workload", "backends", "shots", "seeds"],
    "additionalProperties": False,
}


# --- config checker ---------------------------------------------------------
#
# _errors reads CONFIG_SCHEMA as plain data. It implements the keywords in
# _KEYWORDS with JSON Schema (draft 2020-12) semantics and jsonschema's
# messages, and adds one rule: a number or integer must be finite, because
# Python's json reads NaN and Infinity. The tests compare it with jsonschema.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: _is_number(value)
    and (isinstance(value, int) or value.is_integer()),
}

# size keyword -> (the type it applies to, whether it is a lower limit,
# message); jsonschema words a lower limit of 1 and an upper limit of 0
# as emptiness
_SIZES = {
    "minLength": (str, True, "is too short"),
    "minItems": (list, True, "is too short"),
    "maxItems": (list, False, "is too long"),
    "minProperties": (dict, True, "does not have enough properties"),
    "maxProperties": (dict, False, "has too many properties"),
}

_KEYWORDS = frozenset(
    {"$schema", "type", "const", "enum", "minimum", "maximum", "uniqueItems"}
    | {"items", "properties", "required", "additionalProperties", "oneOf"}
    | _SIZES.keys()
)


def _canonical(value):
    """Hashable form under which JSON values are equal as jsonschema's
    ``equal`` has it: ``0 == 0.0`` but ``True != 1``. A value of no JSON
    type equals only itself."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, list):
        return ("array", tuple(map(_canonical, value)))
    if isinstance(value, dict):
        return ("object", frozenset((k, _canonical(v)) for k, v in value.items()))
    if value is None or isinstance(value, (str, int, float)):
        return ("scalar", value)
    return ("other", id(value))


#: longest quoted value in a config error message, ellipsis included
_QUOTE_LIMIT = 80


def _quote(value) -> str:
    """``repr(value)``, cut to ``_QUOTE_LIMIT`` characters with an ellipsis."""
    text = repr(value)
    if len(text) <= _QUOTE_LIMIT:
        return text
    return text[: _QUOTE_LIMIT - 3] + "..."


def _errors(schema: dict, value, path: tuple = ()):
    """Yield ``(path, message)`` for each violation of ``schema`` by
    ``value``, in document order: a value's own violations come before
    those of its items and properties."""
    kind = schema.get("type")
    if kind in ("number", "integer") and isinstance(value, float):
        if not math.isfinite(value):
            yield path, f"{_quote(value)} is not a finite number"
            return
    if kind is not None and not _TYPES[kind](value):
        yield path, f"{_quote(value)} is not of type {kind!r}"
        return
    if "const" in schema and _canonical(value) != _canonical(schema["const"]):
        yield path, f"{schema['const']!r} was expected"
    if "enum" in schema and _canonical(value) not in map(_canonical, schema["enum"]):
        yield path, f"{_quote(value)} is not one of {schema['enum']!r}"
    if "oneOf" in schema:
        branches = schema["oneOf"]
        firsts = [next(_errors(branch, value, path), None) for branch in branches]
        if None not in firsts:
            # the one branch of the value's type, if any, says what is wrong
            typed = [
                first
                for branch, first in zip(branches, firsts)
                if "type" in branch and _TYPES[branch["type"]](value)
            ]
            if len(typed) == 1 and typed[0][0] == path:
                yield typed[0]
            else:
                yield path, f"{_quote(value)} is not valid under any of the given schemas"
        elif firsts.count(None) > 1:
            valid = [branch for branch, first in zip(branches, firsts) if first is None]
            listed = ", ".join(map(repr, valid))
            yield path, f"{_quote(value)} is valid under each of {listed}"
    if _is_number(value):
        low, high = schema.get("minimum"), schema.get("maximum")
        if low is not None and value < low:
            yield path, f"{_quote(value)} is less than the minimum of {low!r}"
        if high is not None and value > high:
            yield path, f"{_quote(value)} is greater than the maximum of {high!r}"
    for keyword, (applies_to, lower, message) in _SIZES.items():
        if keyword not in schema or not isinstance(value, applies_to):
            continue
        limit = schema[keyword]
        if lower and len(value) < limit:
            empty = limit == 1
            yield path, f"{_quote(value)} {'should be non-empty' if empty else message}"
        elif not lower and len(value) > limit:
            empty = limit == 0
            yield path, f"{_quote(value)} {'is expected to be empty' if empty else message}"
    if isinstance(value, list):
        if schema.get("uniqueItems") and len(set(map(_canonical, value))) < len(value):
            yield path, f"{_quote(value)} has non-unique elements"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _errors(schema["items"], item, (*path, i))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extras = sorted((key for key in value if key not in properties), key=str)
            if extras:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield path, (
                    "Additional properties are not allowed "
                    f"({listed} {verb} unexpected)"
                )
        for key, item in value.items():
            if key in properties:
                yield from _errors(properties[key], item, (*path, key))


@dataclass(frozen=True)
class Workload:
    kind: str  # "sample" or "qaoa"
    name: str
    prepared: Prepared | None = None  # circuit and its noise-free vector
    correct: str | None = None
    graph: Graph | None = None
    qaoa: QaoaConfig | None = None


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
    t_sweep: tuple[float | None, ...]
    shots_sweep: tuple[int, ...]
    defense: DefenseSpec
    seeds: tuple[int, ...]
    master_seed: int
    out: str | None
    canonical: str  # the loaded JSON with sorted keys and no spaces

    @cached_property
    def experiment_id(self) -> str:
        """Hash of the config as it is run: its JSON, with the master seed
        put in when the run's differs from the file's own."""
        canonical = self.canonical
        raw = json.loads(canonical)
        if self.master_seed != raw.get("master_seed", 0):
            canonical = _sorted_json({**raw, "master_seed": self.master_seed})
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _sorted_json(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


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
    try:
        if "edges" in spec:
            graph = Graph.from_edges(spec["nodes"], [tuple(e) for e in spec["edges"]])
        elif "degree" in spec:
            graph = random_regular_graph(
                spec["nodes"], spec["degree"], spec.get("graph_seed", 0)
            )
        else:
            raise ConfigError("/workload/qaoa: needs either edges or degree")
    except (GraphError, CapacityExceeded) as exc:
        raise ConfigError(f"/workload/qaoa: {exc}")
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
        last = max(q for q, _ in workload.prepared.circuit.measured_pairs)
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
    error = next(_errors(CONFIG_SCHEMA, raw), None)
    if error is not None:
        path, message = error
        raise ConfigError(f"/{'/'.join(map(str, path))}: {message}")

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
    return ExperimentConfig(
        workload=workload,
        backends=backends,
        t_sweep=t_sweep,
        shots_sweep=shots_sweep,
        defense=defense,
        seeds=tuple(raw["seeds"]),
        master_seed=raw.get("master_seed", 0),
        out=raw.get("out"),
        canonical=_sorted_json(raw),
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
            record["selected"] = plan.selected
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
    records.sort(key=record_key)
    return records, [error for _, error in outcomes if error is not None]
