"""Seeded input generation for the benchmark workloads.

``generate(name, seed, workdir)`` writes the workload's experiment configs
(and the QASM circuit of the wide part) into ``workdir`` and returns a
``Workload`` naming the files plus the facts the output checks need. The
program under test only ever sees the generated files. The same seed gives
byte-identical files; only the stdlib ``random`` module is used, so the
inputs do not depend on the numpy version.

Sizes are chosen so that the work per sweep does not depend on the seed:
seeds move sampling streams, tampering coefficients, the hidden string and
the graph, never the number of cells, gates, shots or evaluations.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# cells part
CELLS_T_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
CELLS_T_VALUES = 5
CELLS_SHOTS = (1000, 10000)
CELLS_SEEDS = 6
# wide part: 13 data qubits plus one phase-kickback ancilla
WIDE_DATA_QUBITS = 13
WIDE_HIDDEN_WEIGHT = 7  # fixed popcount keeps the gate count seed-independent
WIDE_LADDERS = 2  # CX ladder + its mirror, repeated; cancels to identity
WIDE_SHOTS = 10000
# A targeted backend that wins the probe re-plans its attack for the main
# run, a full clean pipeline. Tampering this strong flips its top outcome,
# so it never wins and the work per sweep stays seed-independent.
WIDE_TARGETED_T = 0.9
# QAOA part
QAOA_NODES = 10
QAOA_DEGREE = 3
QAOA_SHOTS_PER_ITER = 100
# Evaluations per cell. Adaptive: a 3-evaluation probe run twice on each
# backend (12), then 1 on the selected one; which backend wins depends on
# the seed and only the tampered one pays for the tamper channel, so the
# final phase is kept short to keep the work per sweep seed-independent.
# Split: half of the budget on each backend.
QAOA_PROBE_ITERATIONS = 3
QAOA_ADAPTIVE_ITERATIONS = 13
QAOA_SPLIT_ITERATIONS = 16
# gate-noise part
NOISE_BUILTIN = "adder_n10"
NOISE_DEPOLARIZING = 0.002
NOISE_SHOTS = 300  # one statevector trajectory per shot


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Path, ...]
    records: tuple[int, ...]  # expected record count, per config
    hidden: tuple[str | None, ...]  # expected ideal top outcome, per config


Part = tuple[Path, int, "str | None"]


def _sampling_backends(targeted_t: float = 0.3) -> list[dict]:
    return [
        {"name": "honest"},
        {"name": "targeted", "tamper": {"mode": "targeted", "t": targeted_t}},
        {"name": "subset", "tamper": {"mode": "random_subset", "t": 0.3, "k": 2}},
    ]


def _write(workdir: Path, stem: str, config: dict) -> Path:
    path = workdir / f"{stem}.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return path


def _cells(rng: random.Random, workdir: Path) -> list[Part]:
    t_values = sorted(rng.sample(CELLS_T_GRID, CELLS_T_VALUES))
    seeds = sorted(rng.sample(range(1_000_000), CELLS_SEEDS))
    master_seed = rng.randrange(2**31)
    cells = len(t_values) * len(CELLS_SHOTS) * len(seeds)
    parts = []
    for mode in ("none", "equal", "adaptive"):
        config = {
            "workload": {"builtin": "adder_n4"},
            "backends": _sampling_backends(),
            "shots": CELLS_SHOTS[0],
            "shots_sweep": list(CELLS_SHOTS),
            "t_sweep": t_values,
            "defense": {"mode": mode},
            "seeds": seeds,
            "master_seed": master_seed,
        }
        # "none" writes one record per backend, the defenses one per cell
        records = cells * (len(config["backends"]) if mode == "none" else 1)
        parts.append((_write(workdir, f"cells_{mode}", config), records, None))
    return parts


def _hidden_string_qasm(bits: list[int], ladders: int) -> str:
    """Bernstein-Vazirani circuit whose ideal output is ``bits``.

    ``bits[i]`` is the value measured into c[i]. Each ladder is a CX chain
    over the data qubits followed by its mirror image, which is the
    identity, so it adds gates without moving the answer.
    """
    n = len(bits)
    anc = n
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n + 1}];",
        f"creg c[{n}];",
        f"x q[{anc}];",
    ]
    lines += [f"h q[{q}];" for q in range(n + 1)]
    chain = [f"cx q[{q}],q[{q + 1}];" for q in range(n - 1)]
    for _ in range(ladders):
        lines += chain + chain[::-1]
    lines += [f"cx q[{q}],q[{anc}];" for q in range(n) if bits[q]]
    lines += [f"h q[{q}];" for q in range(n)]
    lines += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    return "\n".join(lines) + "\n"


def _wide_adaptive(rng: random.Random, workdir: Path) -> list[Part]:
    ones = set(rng.sample(range(WIDE_DATA_QUBITS), WIDE_HIDDEN_WEIGHT))
    bits = [1 if q in ones else 0 for q in range(WIDE_DATA_QUBITS)]
    qasm = workdir / "hidden_string.qasm"
    qasm.write_text(_hidden_string_qasm(bits, WIDE_LADDERS))
    config = {
        "workload": {"qasm": qasm.name},
        "backends": _sampling_backends(WIDE_TARGETED_T),
        "shots": WIDE_SHOTS,
        "defense": {"mode": "adaptive"},
        "seeds": [rng.randrange(1_000_000)],
        "master_seed": rng.randrange(2**31),
    }
    # result keys put c[n-1] leftmost
    hidden = "".join(str(b) for b in reversed(bits))
    return [(_write(workdir, "wide_adaptive", config), 1, hidden)]


def _qaoa_maxcut(rng: random.Random, workdir: Path) -> list[Part]:
    graph_seed = rng.randrange(2**31)
    seeds = [rng.randrange(1_000_000)]
    master_seed = rng.randrange(2**31)
    parts = []
    for mode, iterations in (
        ("qaoa_adaptive", QAOA_ADAPTIVE_ITERATIONS),
        ("qaoa_split", QAOA_SPLIT_ITERATIONS),
    ):
        defense = {"mode": mode}
        if mode == "qaoa_adaptive":
            defense.update(probe_iterations=QAOA_PROBE_ITERATIONS, probe_runs=2)
        config = {
            "workload": {
                "qaoa": {
                    "nodes": QAOA_NODES,
                    "degree": QAOA_DEGREE,
                    "graph_seed": graph_seed,
                    "p": 1,
                    "iterations": iterations,
                    "shots_per_iter": QAOA_SHOTS_PER_ITER,
                }
            },
            "backends": [
                {"name": "honest"},
                {"name": "rogue", "tamper": {"mode": "random_all", "t": 0.3}},
            ],
            "shots": QAOA_SHOTS_PER_ITER,
            "defense": defense,
            "seeds": seeds,
            "master_seed": master_seed,
        }
        parts.append((_write(workdir, f"qaoa_maxcut_{mode}", config), 1, None))
    return parts


def _gate_noise(rng: random.Random, workdir: Path) -> list[Part]:
    config = {
        "workload": {"builtin": NOISE_BUILTIN},
        "backends": [
            {"name": "noisy", "gate_depolarizing": NOISE_DEPOLARIZING},
            {
                "name": "noisy_targeted",
                "gate_depolarizing": NOISE_DEPOLARIZING,
                "tamper": {"mode": "targeted", "t": 0.3},
            },
        ],
        "shots": NOISE_SHOTS,
        "defense": {"mode": "none"},
        "seeds": [rng.randrange(1_000_000)],
        "master_seed": rng.randrange(2**31),
    }
    return [(_write(workdir, "gate_noise", config), 2, None)]


#: the parts each workload is made of, in run order
WORKLOADS = {
    "cells_small": (_cells,),
    "heavy_paths": (_wide_adaptive, _qaoa_maxcut, _gate_noise),
}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    parts = [part for make in WORKLOADS[name] for part in make(rng, workdir)]
    paths, records, hidden = zip(*parts)
    return Workload(name, paths, records, hidden)
