"""Config-driven experiment harness.

A JSON config describes one experiment: a workload (builtin circuit, QASM
file or QAOA instance), a set of backend models, sweeps over the tampering
coefficient and the shot budget, a defense mode and a list of seeds. Every
(t, shots, seed) cell runs independently on a bounded worker pool and
produces one record. This module loads and checks configs and runs them;
writing, reading and summarising the records is `qtrust.report`'s job.
Budgets are `defense.allocation`'s: the load checks QAOA iteration budgets
and the gate-noise bound with it, and shot budgets fail per cell.
A run imports `qtrust.qasm` only for a `qasm` workload, `qtrust.qaoa`
only for a `qaoa` workload, and the thread pool only for ``jobs > 1``:
each branch imports what it calls.

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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .adversary import TamperError, TamperMode, TamperSpec
from .backend import BackendModel, NoiseError
from .benchmarks import builtin
from .circuit import CapacityExceeded, CircuitError
from .defense import (
    SELECTION_ORDER,
    DefenseError,
    adaptive_split,
    allocation,
    equal_split,
    qaoa_adaptive,
    qaoa_iteration_split,
)
from .metrics import Counts, pm, ranked, top_outcome, tvd
# summarize, write_csv and write_jsonl: bench/worker.py calls them as harness.*
from .report import IoError, record_key, summarize, write_csv, write_jsonl
from .rng import derive_seed
from .simulator import (
    Prepared,
    clean_distribution,
    execute,
    prepare,
    trajectory_cost,
)

if TYPE_CHECKING:
    from .qaoa import Graph, QaoaConfig

SCHEMA_VERSION = 1

# artifact defaults, not measured hardware values
DEFAULT_READOUT = 0.02
DEFAULT_DRIFT = 0.01


class ConfigError(ValueError):
    """Config rejected; the message carries a JSON pointer to the field."""


# defense mode -> (the workload kind it runs on or None, the options it reads)
_MODES = {
    "none": (None, ()),
    "equal": ("sample", ()),
    "adaptive": ("sample", ("k", "r", "order")),
    "qaoa_split": ("qaoa", ()),
    "qaoa_adaptive": ("qaoa", ("probe_iterations", "probe_runs")),
}

# tamper mode -> the `tamper` options it reads besides mode and t
_TAMPER_MODES = {
    TamperMode.RANDOM_ALL: (),
    TamperMode.RANDOM_SUBSET: ("k",),
    TamperMode.TARGETED: (),
}

_TAMPER_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": [m.value for m in _TAMPER_MODES]},
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
                "mode": {"enum": list(_MODES)},
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
# messages, and adds two rules, because Python's json reads NaN and Infinity
# and reads 1.0 as a float: a number or integer must be finite, and an
# integer must be an int. The tests compare it with jsonschema.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
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
class ExperimentConfig:
    workload: Workload
    backends: tuple[BackendModel, ...]
    t_sweep: tuple[float | None, ...]
    shots_sweep: tuple[int, ...]
    defense: str  # the mode
    options: dict  # the `defense` options the mode passes on
    seeds: tuple[int, ...]
    master_seed: int
    out: str | None
    experiment_id: str


def _build_workload(raw: dict, base_dir: Path) -> Workload:
    if "builtin" in raw:
        try:
            bench = builtin(raw["builtin"])
        except KeyError:
            raise ConfigError(f"/workload/builtin: unknown builtin {raw['builtin']!r}")
        return Workload(
            "sample", bench.circuit.name, prepare(bench.circuit), bench.expected_output
        )
    if "qasm" in raw:
        from .qasm import QasmError, parse_qasm

        path = base_dir / raw["qasm"]
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"/workload/qasm: cannot read {path}: {exc}")
        try:
            prepared = prepare(parse_qasm(source, name=path.stem))
        except (QasmError, CircuitError) as exc:
            raise ConfigError(f"/workload/qasm: {path}: {exc}")
        correct, _ = top_outcome(Counts(prepared.ideal))
        return Workload("sample", prepared.circuit.name, prepared, correct)
    from .qaoa import Graph, GraphError, QaoaConfig, random_regular_graph

    spec = raw["qaoa"]
    try:
        if "edges" in spec:
            unread = [key for key in spec if key in ("degree", "graph_seed")]
            _check_reads("/workload/qaoa", "edges", unread, ())
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


def _build_backend(raw: dict, index: int) -> BackendModel:
    readout = raw.get("readout", DEFAULT_READOUT)
    if isinstance(readout, (int, float)):
        pairs = (float(readout), float(readout))
    elif readout and isinstance(readout[0], list):
        pairs = tuple((float(a), float(b)) for a, b in readout)
    else:
        pairs = (float(readout[0]), float(readout[1]))
    tamper = None
    if "tamper" in raw:
        pointer = f"/backends/{index}/tamper"
        options = dict(raw["tamper"])
        mode = TamperMode(options.pop("mode"))
        t = options.pop("t")
        _check_reads(pointer, mode.value, options, _TAMPER_MODES[mode])
        try:
            tamper = TamperSpec(mode, t, **options)
        except TamperError as exc:
            raise ConfigError(f"{pointer}: {exc}")
    return BackendModel(
        name=raw["name"],
        readout=pairs,
        gate_depolarizing=raw.get("gate_depolarizing", 0.0),
        drift=raw.get("drift", DEFAULT_DRIFT),
        tamper=tamper,
    )


def _check_reads(pointer: str, mode: str, options, reads) -> None:
    """Reject an option that ``mode`` never reads, at its pointer."""
    for key in options:
        if key not in reads:
            raise ConfigError(f"{pointer}/{key}: {mode} does not read {key}")


def _check_widths(backends, workload: Workload) -> None:
    """Every backend needs a readout pair for every measured qubit, and a
    tamper subset no wider than the measured lines."""
    if workload.kind == "qaoa":
        pairs = workload.graph.lines
    else:
        pairs = workload.prepared.measured_pairs
    width = len(pairs)
    for i, backend in enumerate(backends):
        try:
            backend.line_pairs(pairs)
        except NoiseError as exc:
            raise ConfigError(f"/backends/{i}/readout: {exc}")
        if backend.tamper is None:
            continue
        try:
            backend.tamper.check_width(width)
        except TamperError as exc:
            raise ConfigError(f"/backends/{i}/tamper/k: {exc}")


#: gate-noise work one cell may take, in ``simulator.trajectory_cost``'s
#: amplitude updates: 45-60 s on a 2-vCPU Xeon host, where 2 000-shot
#: executes at p = 0.002 ran 5.0e8 of them per second at 14 qubits and
#: 6.9e8 at 18 (the estimate counts every gate; a pattern runs about half)
GATE_NOISE_BUDGET = 3e10


def _check_gate_noise(backends, workload: Workload, mode: str, budget, shots):
    """Reject a config whose largest cell's gate-noise trajectories, one per
    shot of ``defense.allocation``'s runs, are estimated above
    ``GATE_NOISE_BUDGET``, at the backend that costs most."""
    noisy = {i: b.gate_depolarizing for i, b in enumerate(backends)}
    noisy = {i: p for i, p in noisy.items() if p > 0.0}
    if not noisy:
        return
    if workload.kind == "qaoa":
        from .qaoa import QaoaParams, build_qaoa_circuit

        angles = (0.0,) * workload.qaoa.p
        circuit = build_qaoa_circuit(workload.graph, QaoaParams(angles, angles))
        total, shots_per_run = workload.qaoa.iterations, workload.qaoa.shots_per_iter
    else:
        circuit = workload.prepared.circuit
        total, shots_per_run = shots, 1
    try:
        shares, extra = allocation(mode, len(backends), total, **budget)
    except DefenseError:  # every cell fails before it executes
        return
    cost = {i: trajectory_cost(circuit, p) for i, p in noisy.items()}
    # every backend at the largest share, the selected one's extra at the
    # costliest
    every, selected = max(shares) * shots_per_run, extra * shots_per_run
    work = every * sum(cost.values()) + selected * max(cost.values())
    if work > GATE_NOISE_BUDGET:
        worst = max(cost, key=cost.get)
        raise ConfigError(
            f"/backends/{worst}/gate_depolarizing: a cell's gate-noise "
            f"trajectories take about {work:.2g} amplitude updates, above the "
            f"budget of {GATE_NOISE_BUDGET:.2g} (about 60 s)"
        )


def load_config(source: dict | str | Path, master_seed: int | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config (dict or JSON file path);
    ``master_seed`` (``qtrust run --seed``) overrides the config's own and
    is checked like it, and ``experiment_id`` hashes the config as run,
    with the override when they differ."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        base_dir = path.parent
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise IoError(str(exc))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"/: invalid JSON: {exc}")
    else:
        raw = source
        base_dir = Path.cwd()
    if isinstance(raw, dict) and master_seed is not None:
        if _canonical(master_seed) != _canonical(raw.get("master_seed", 0)):
            raw = {**raw, "master_seed": master_seed}
    error = next(_errors(CONFIG_SCHEMA, raw), None)
    if error is not None:
        path, message = error
        raise ConfigError(f"/{'/'.join(map(str, path))}: {message}")

    backends = tuple(_build_backend(b, i) for i, b in enumerate(raw["backends"]))
    names = [b.name for b in backends]
    if len(set(names)) != len(names):
        raise ConfigError("/backends: backend names must be unique")
    workload = _build_workload(raw["workload"], base_dir)

    _check_widths(backends, workload)

    options = dict(raw.get("defense", {"mode": "none"}))
    mode = options.pop("mode")
    kind, reads = _MODES[mode]
    _check_reads("/defense", mode, options, reads)
    if mode != "none" and len(backends) < 2:
        raise ConfigError(f"/defense/mode: {mode} needs >= 2 backends")
    if mode == "qaoa_split" and len(backends) != 2:
        raise ConfigError("/defense/mode: qaoa_split needs exactly 2 backends")
    if kind not in (None, workload.kind):
        noun = "sampling" if kind == "sample" else kind
        raise ConfigError(f"/defense/mode: {mode} needs a {noun} workload")
    # the options that size the split; `order` only ranks the probes
    budget = {key: value for key, value in options.items() if key != "order"}
    if kind == "qaoa":
        try:
            allocation(mode, len(backends), workload.qaoa.iterations, **budget)
        except DefenseError as exc:
            raise ConfigError(f"/workload/qaoa/iterations: {exc}")

    if workload.kind == "qaoa" and "shots_sweep" in raw:
        # the QAOA modes read shots_per_iter; a sweep would only reseed cells
        raise ConfigError("/shots_sweep: a qaoa workload does not read shots")
    if "t_sweep" in raw and all(b.tamper is None for b in backends):
        # _with_t overrides t on tampered backends only; a sweep would only reseed
        raise ConfigError("/t_sweep: no backend is tampered")
    shots_sweep = tuple(raw.get("shots_sweep", [raw["shots"]]))
    _check_gate_noise(backends, workload, mode, budget, max(shots_sweep))
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    t_sweep = tuple(raw["t_sweep"]) if "t_sweep" in raw else (None,)
    return ExperimentConfig(
        workload=workload,
        backends=backends,
        t_sweep=t_sweep,
        shots_sweep=shots_sweep,
        defense=mode,
        options=options,
        seeds=tuple(raw["seeds"]),
        master_seed=raw.get("master_seed", 0),
        out=raw.get("out"),
        experiment_id=hashlib.sha256(canonical.encode()).hexdigest()[:12],
    )


def _with_t(backends: tuple[BackendModel, ...], t: float | None):
    """Override the tampering coefficient of every tampered backend."""
    if t is None:
        return list(backends)
    out = []
    for b in backends:
        if b.tamper is not None:
            out.append(replace(b, tamper=replace(b.tamper, t=float(t))))
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
                "mean_pm": _finite(bp.mean_pm),
                "mean_confidence": bp.mean_confidence,
                "run_tops": [run.top for run in bp.runs],
            }
            for bp in report.backends
        ],
    }


def _finite(x: float) -> float | str:
    # JSON has no inf; PM's sentinel round-trips as a string
    return x if math.isfinite(x) else "inf"


def _clean_mixture(backends, prepared: Prepared, allocations) -> Counts:
    total = sum(s for _, s in allocations)
    clean = [clean_distribution(b, prepared).vector for b in backends]
    # vec * share / total in allocation order; vec * (share / total) moves bits
    return Counts(sum(vec * s / total for vec, (_, s) in zip(clean, allocations)))


def _fill(config: ExperimentConfig, backends, shots, seed, record: dict) -> None:
    """Run one backend group under the config's defense mode and write that
    mode's fields into `record`."""
    wl, mode = config.workload, config.defense
    if wl.kind == "qaoa":
        qcfg = wl.qaoa
        if mode == "none":
            from .qaoa import optimize

            (backend,) = backends
            run = optimize(
                backend, wl.graph, qcfg.p, qcfg.iterations, qcfg.shots_per_iter, seed
            )
        elif mode == "qaoa_split":
            split = qaoa_iteration_split(backends[0], backends[1], wl.graph, qcfg, seed)
            run = split.best
            record.update(phase_a_ar=split.phase_a.ar, phase_b_ar=split.phase_b.ar)
        else:  # qaoa_adaptive
            result = qaoa_adaptive(
                backends, wl.graph, qcfg, seed=seed, **config.options
            )
            run = result.best
            record["selected"] = result.selected
            record["probe_ars"] = {k: list(v) for k, v in result.probe_ars.items()}
        record.update(
            ar=run.ar,
            cmax=run.cmax,
            best_expectation=run.best_expectation,
            gamma=list(run.best_params.gamma),
            beta=list(run.best_params.beta),
        )
        return

    if mode == "none":
        (backend,) = backends
        counts = execute(backend, wl.prepared, shots, seed)
        clean_mix = clean_distribution(backend, wl.prepared)
    else:
        if mode == "equal":
            counts, plan = equal_split(backends, wl.prepared, shots, seed)
            clean_mix = _clean_mixture(backends, wl.prepared, plan.allocations)
        else:  # adaptive: the answer holds the selected backend's shots alone
            counts, plan, report = adaptive_split(
                backends, wl.prepared, shots, seed=seed, **config.options
            )
            record["probe"] = _probe_summary(report)
            record["selected"] = plan.selected
            selected = next(b for b in backends if b.name == plan.selected)
            clean_mix = clean_distribution(selected, wl.prepared)
        record["allocations"] = list(plan.allocations)
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


def _run_cell(config: ExperimentConfig, t, shots, seed) -> list[dict]:
    """One record per backend under `none`, else one for the whole cell."""
    backends = _with_t(config.backends, t)
    groups = [[b] for b in backends] if config.defense == "none" else [backends]
    cell_seed = _cell_seed(config, t, shots, seed)
    records = []
    for group in groups:
        start = time.perf_counter()
        record = _base_record(config, t, shots, seed, "+".join(b.name for b in group))
        _fill(config, group, shots, cell_seed, record)
        record["wall_time_s"] = time.perf_counter() - start
        records.append(record)
    return records


def _base_record(config: ExperimentConfig, t, shots, seed, backend: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": config.experiment_id,
        "workload": config.workload.name,
        "backend": backend,
        "defense": config.defense,
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
    cells = [
        (t, shots, seed)
        for t in config.t_sweep
        for shots in config.shots_sweep
        for seed in config.seeds
    ]

    def one(cell):
        try:
            return _run_cell(config, *cell), None
        except Exception as exc:  # noqa: BLE001 - cell isolation
            t, shots, seed = cell
            return [], f"cell t={t} shots={shots} seed={seed}: {exc}"

    if jobs <= 1:
        outcomes = list(map(one, cells))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, cells))
    records = [record for result, _ in outcomes for record in result]
    records.sort(key=record_key)
    return records, [error for _, error in outcomes if error is not None]
