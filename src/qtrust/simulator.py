"""Dense statevector execution, readout-noise channels and seeded shot
sampling.

One dense vector indexed by the integer outcome runs through readout and
tamper flips (both ``adversary.flip_channel``) to the multinomial draw, and
every result is a ``metrics.Counts`` view of the vector computed: of
probabilities or of shot counts. Keys follow the q_{n-1}...q_0 convention;
line 0 is the rightmost character.

``prepare`` is the one place that evolves a noise-free statevector; every
entry point takes its ``Prepared`` result or a plain circuit. Gate noise
evolves each distinct Pauli error pattern of a run once (Monte-Carlo
wavefunction trajectories weighted by how often each pattern was drawn).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .adversary import flip_channel, plan_targeted, TamperMode
from .backend import BackendModel, ReadoutPair
from .circuit import Circuit, CircuitError, GateKind
from .gates import matrix
from .metrics import Counts, to_vector
from .rng import derive_rng, derive_seed

PLAN_SHOTS = 10_000  # private clean run the adversary uses to pick targets


class DimensionMismatch(ValueError):
    pass


def _apply_gate(psi: np.ndarray, gate: np.ndarray, axes: list[int]) -> np.ndarray:
    k = len(axes)
    tensor = gate.reshape((2,) * (2 * k))
    psi = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(psi, range(k), axes)


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)

#: Pauli errors of one trajectory: {instruction index: ((qubit, Pauli), ...)}
Errors = dict[int, tuple[tuple[int, GateKind], ...]]


@dataclass(frozen=True, eq=False)
class Prepared:
    """A circuit with its noise-free measured-bit vector (read-only).

    Build it with ``prepare``; every stage that runs the same circuit again
    reads ``ideal`` instead of evolving the statevector.
    """

    circuit: Circuit
    ideal: np.ndarray

    def __post_init__(self):
        # shared by every later stage and cell: a write raises, not corrupts
        self.ideal.flags.writeable = False


def _evolve(circuit: Circuit, errors: Errors | None = None) -> np.ndarray:
    """Run all gates, applying the Paulis in ``errors`` right after their
    gate. Returns the probability vector of the measured bits, indexed by
    the integer value of their bitstring."""
    pairs = circuit.measured_pairs
    if not pairs:
        raise CircuitError("circuit has no measurements")
    errors = errors or {}
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    measured: set[int] = set()
    for index, instr in enumerate(circuit.instructions):
        if instr.kind is GateKind.BARRIER:
            continue
        if instr.kind is GateKind.MEASURE:
            measured.add(instr.qubits[0])
            continue
        if measured.intersection(instr.qubits):
            raise CircuitError("gate after measurement is unsupported")
        axes = [n - 1 - q for q in instr.qubits]
        psi = _apply_gate(psi, matrix(instr.kind, instr.params), axes)
        for q, kind in errors.get(index, ()):
            psi = _apply_gate(psi, matrix(kind), [n - 1 - q])
        if __debug__:
            norm = float(np.sum(np.abs(psi) ** 2))
            assert abs(norm - 1.0) < 1e-10, f"norm drifted to {norm}"
    probs = np.abs(psi) ** 2
    front = [n - 1 - q for q, _ in pairs]  # output order, clbit descending
    rest = [a for a in range(n) if a not in front]
    return np.transpose(probs, front + rest).reshape(2 ** len(front), -1).sum(axis=1)


def prepare(circuit: Circuit | Prepared) -> Prepared:
    """Evolve the noise-free vector of ``circuit`` once; a ``Prepared``
    comes back unchanged."""
    if isinstance(circuit, Prepared):
        return circuit
    return Prepared(circuit, _evolve(circuit))


def run_statevector(circuit: Circuit | Prepared) -> Counts:
    """Exact outcome distribution over the measured classical bits."""
    return Counts(prepare(circuit).ideal)


def _draw_errors(circuit: Circuit, p: float, rng) -> Errors:
    """One trajectory's Pauli errors: for every (gate, qubit) one
    ``random()``, and one ``integers(3)`` choosing X, Y or Z per hit."""
    errors: Errors = {}
    for index, instr in enumerate(circuit.instructions):
        if instr.kind in (GateKind.BARRIER, GateKind.MEASURE):
            continue
        hits = tuple(
            (q, _PAULIS[rng.integers(3)]) for q in instr.qubits if rng.random() < p
        )
        if hits:
            errors[index] = hits
    return errors


def _trajectory_vector(
    prepared: Prepared, depolarizing: float, trajectories: int, rng
) -> np.ndarray:
    """Mean of ``trajectories`` Pauli trajectories, evolving each distinct
    error pattern once and weighting it by how often it was drawn."""
    drawn = Counter(
        tuple(_draw_errors(prepared.circuit, depolarizing, rng).items())
        for _ in range(trajectories)
    )
    acc = 0.0
    for pattern, count in drawn.items():  # first-drawn order
        vec = _evolve(prepared.circuit, dict(pattern)) if pattern else prepared.ideal
        acc += (count / trajectories) * vec
    return acc


def apply_readout_channel(
    dist: dict[str, float], pairs: list[ReadoutPair]
) -> Counts:
    """Per-line 2x2 stochastic matrix [[1-p01, p10], [p01, 1-p10]].

    ``pairs`` is indexed by line (pairs[0] acts on the rightmost bit).
    """
    if not dist:
        return Counts(np.zeros(1))
    width = len(next(iter(dist)))
    if len(pairs) != width:
        raise DimensionMismatch(
            f"{len(pairs)} readout channels supplied for {width}-bit keys"
        )
    return Counts(flip_channel(to_vector(dist), dict(enumerate(pairs))))


def sample_counts(dist: dict[str, float], shots: int, seed: int) -> Counts:
    """Seeded multinomial draw; identical inputs give identical Counts."""
    probs = to_vector(dist)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    mass = probs.sum()
    if probs.min() < 0.0 or abs(mass - 1.0) > 1e-9:
        raise ValueError(f"not a distribution: mass {mass} or a negative entry")
    return Counts(derive_rng(seed).multinomial(shots, probs / mass))


def _line_pairs(backend: BackendModel, circuit: Circuit) -> list[ReadoutPair]:
    ordered = circuit.measured_pairs  # clbit descending = left to right
    return [backend.noise.pair_for(q) for q, _ in reversed(ordered)]


def _clean_vector(backend: BackendModel, prepared: Prepared) -> np.ndarray:
    pairs = dict(enumerate(_line_pairs(backend, prepared.circuit)))
    return flip_channel(prepared.ideal, pairs)


def clean_distribution(
    backend: BackendModel, circuit: Circuit | Prepared
) -> Counts:
    """Analytic post-readout distribution without drift or tampering."""
    return Counts(_clean_vector(backend, prepare(circuit)))


def resolve_tamper(
    backend: BackendModel, circuit: Circuit | Prepared, seed: int
) -> BackendModel:
    """Fill in the tamper target lines once per backend instance.

    Targeted mode plans against a privately sampled clean execution;
    random-subset mode draws its lines from a seeded stream.
    """
    spec = backend.tamper
    if spec is None or not spec.needs_resolution:
        return backend
    prepared = prepare(circuit)
    width = prepared.circuit.num_measured
    if spec.mode is TamperMode.TARGETED:
        private = sample_counts(
            Counts(_clean_vector(backend, prepared)),
            PLAN_SHOTS,
            derive_seed(seed, backend.name, "tamper-plan"),
        )
        lines = plan_targeted(private)
    else:  # RANDOM_SUBSET
        rng = derive_rng(seed, backend.name, "tamper-lines")
        k = min(spec.k, width)
        lines = tuple(sorted(rng.choice(width, size=k, replace=False).tolist()))
    return backend.with_tamper(spec.with_lines(lines))


def execute(
    backend: BackendModel, circuit: Circuit | Prepared, shots: int, seed: int
) -> Counts:
    """Full pipeline: statevector -> drift jitter -> readout channel ->
    tamper channel -> multinomial sampling."""
    prepared = prepare(circuit)
    if backend.noise.gate_depolarizing > 0.0:
        rng = derive_rng(seed, backend.name, "trajectories")
        probs = _trajectory_vector(
            prepared, backend.noise.gate_depolarizing, shots, rng
        )
    else:
        probs = prepared.ideal
    pairs = _line_pairs(backend, prepared.circuit)
    if backend.drift > 0.0:
        rng = derive_rng(seed, backend.name, "drift")
        pairs = np.array(pairs)
        jitter = rng.uniform(-backend.drift, backend.drift, size=pairs.shape)
        pairs = np.clip(pairs + jitter, 0.0, 0.5).tolist()
    probs = flip_channel(probs, dict(enumerate(pairs)))
    if backend.tamper is not None:
        resolved = resolve_tamper(backend, prepared, seed)
        probs = flip_channel(probs, resolved.tamper.flips(len(pairs)))
    seed = derive_seed(seed, backend.name, "sample")
    return sample_counts(Counts(probs), shots, seed)
