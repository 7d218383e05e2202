"""Dense statevector execution, readout and tamper noise, and seeded shot
sampling.

One dense vector indexed by the integer outcome runs through readout and
tamper flips (both ``adversary.flip_channel``) to the multinomial draw.
``sample_counts`` takes a ``metrics.Counts``, and every result is one: a
view of the vector computed, of probabilities or of shot counts. Keys
follow the q_{n-1}...q_0 convention; line 0 is the rightmost character.

``prepare`` is the one place that evolves a noise-free statevector and the
one stage that takes a plain circuit; every other stage takes its
``Prepared`` result and reads the vector from it. The QAOA objective builds
its ``Prepared`` from ``qaoa.probabilities``, which computes the vector of
its circuit without evolving gates. ``_evolve`` owns one state array, plus
one gather buffer of the same size, for the whole run: a permutation gate
(X, CX, SWAP, CCX) swaps two slices of the state in place, and any other
gate is one ``matmul`` of its ``gates.matrix`` against the state gathered
with the gate's axes first, written back into the state array. Gate noise
evolves each distinct Pauli error pattern of a run once (Monte-Carlo
wavefunction trajectories weighted by how often each pattern was drawn),
and draws all patterns from the raw generator words at once, replaying the
stream of one ``random()`` per (gate, qubit) exactly.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .adversary import flip_channel, plan_targeted, TamperMode
from .backend import BackendModel, ReadoutPair
from .circuit import Circuit, CircuitError, GateKind
from .gates import matrix
from .metrics import Counts
from .rng import derive_rng, derive_seed

PLAN_SHOTS = 10_000  # private clean run the adversary uses to pick targets


# Permutation gates: the two basis states of the gate's qubits (bits in
# listed order) that it exchanges; it leaves every other state alone.
_SWAPS = {
    GateKind.X: ((0,), (1,)),
    GateKind.CX: ((1, 0), (1, 1)),
    GateKind.SWAP: ((0, 1), (1, 0)),
    GateKind.CCX: ((1, 1, 0), (1, 1, 1)),
}


def _apply(
    psi: np.ndarray,
    kind: GateKind,
    params: tuple[float, ...],
    axes: list[int],
    state: np.ndarray,
    buffer: np.ndarray,
) -> np.ndarray:
    """Apply one gate on ``axes`` of ``psi``, the ``(2,)*n`` qubit-axis view
    of the flat ``state``; returns the view of ``state`` after the gate.

    A permutation gate swaps the two slices of ``psi`` it exchanges, in
    place and with no arithmetic, holding one in ``buffer``, and returns
    ``psi``. Any other gate gathers ``psi`` into ``buffer`` with ``axes``
    first and writes one ``matmul`` of its 2^k x 2^k matrix against it into
    ``state``, so the state's memory order changes and the returned view
    follows it.
    """
    swap = _SWAPS.get(kind)
    if swap is not None:
        a, b = [slice(None)] * psi.ndim, [slice(None)] * psi.ndim
        for axis, bit_a, bit_b in zip(axes, *swap):
            a[axis], b[axis] = bit_a, bit_b
        a, b = tuple(a), tuple(b)
        held = buffer[: psi[a].size].reshape(psi[a].shape)
        np.copyto(held, psi[a])
        psi[a] = psi[b]
        psi[b] = held
        return psi
    k = len(axes)
    order = axes + [axis for axis in range(psi.ndim) if axis not in axes]
    np.copyto(buffer.reshape(psi.shape), psi.transpose(order))
    gate = matrix(kind, params)
    np.matmul(gate, buffer.reshape(2**k, -1), out=state.reshape(2**k, -1))
    return state.reshape(psi.shape).transpose(np.argsort(order))


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)

#: Pauli errors of one trajectory: {instruction index: ((qubit, Pauli), ...)}
Errors = dict[int, tuple[tuple[int, GateKind], ...]]
#: the same as a hashable ``tuple(errors.items())``; () when nothing hit
Pattern = tuple[tuple[int, tuple[tuple[int, GateKind], ...]], ...]


@dataclass(frozen=True, eq=False)
class Prepared:
    """A circuit with its noise-free measured-bit vector (read-only).

    Build it with ``prepare``; every stage that runs the same circuit again
    reads ``ideal`` instead of evolving the statevector.
    """

    circuit: Circuit
    ideal: np.ndarray

    def __post_init__(self):
        width = self.circuit.num_measured
        if self.ideal.size != 1 << width:
            raise CircuitError(
                f"{self.ideal.size}-entry ideal vector for {width} measured bits"
            )
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
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    buffer = np.empty_like(state)
    psi = state.reshape((2,) * n)
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
        psi = _apply(psi, instr.kind, instr.params, axes, state, buffer)
        for q, kind in errors.get(index, ()):
            psi = _apply(psi, kind, (), [n - 1 - q], state, buffer)
        if __debug__:
            norm = np.vdot(state, state).real
            assert abs(norm - 1.0) < 1e-10, f"norm drifted to {norm}"
    del buffer  # the probabilities below need the room
    probs = np.abs(psi) ** 2
    front = [n - 1 - q for q, _ in pairs]  # output order, clbit descending
    rest = [a for a in range(n) if a not in front]
    return np.transpose(probs, front + rest).reshape(2 ** len(front), -1).sum(axis=1)


def prepare(circuit: Circuit) -> Prepared:
    """Evolve the noise-free vector of ``circuit`` once; its exact outcome
    distribution is ``Counts(prepare(circuit).ideal)``."""
    return Prepared(circuit, _evolve(circuit))


_CHUNK = 1 << 16  # raw words per read; bounds the words held, not the draw
_TO_DOUBLE = 2.0**-53


def _draw_errors(circuit: Circuit, p: float, rng, trajectories: int) -> list[Pattern]:
    """The Pauli error patterns of ``trajectories`` trajectories, drawn as
    one per-trajectory loop would: for every (gate, qubit) one ``random()``,
    and one ``integers(3)`` choosing X, Y or Z per hit.

    Reads the raw PCG64 words instead and compares all their doubles
    ``(u >> 11) * 2**-53`` with ``p`` at once. Only hits go through Python,
    where ``integers(3)`` is replayed as numpy's Lemire draw (threshold 1)
    on the buffered ``next_uint32``: the low half of a fresh word, or the
    high half kept from the previous one. ``rng`` ends in the state the
    loop would leave it in.
    """
    slots = [
        (index, q)
        for index, instr in enumerate(circuit.instructions)
        if instr.kind not in (GateKind.BARRIER, GateKind.MEASURE)
        for q in instr.qubits
    ]
    found: dict[int, Errors] = {}  # trajectory -> its errors, if any
    bitgen = rng.bit_generator
    first = bitgen.state
    has, held = first["has_uint32"], first["uinteger"]  # the uint32 buffer
    total, slot = len(slots) * trajectories, 0  # slot: next unread double
    while slot < total:
        words = bitgen.random_raw(min(total - slot, _CHUNK))
        hits = np.flatnonzero((words >> np.uint64(11)) * _TO_DOUBLE < p)
        start = 0  # the word of `slot`'s double
        for hit in hits.tolist():
            if hit < start:
                continue  # the word fed an integers(3) draw
            slot += hit - start
            start = hit + 1
            while True:
                if has:
                    has, value = 0, held * 3
                else:
                    word = int(words[start]) if start < words.size else bitgen.random_raw()
                    start += 1
                    has, held, value = 1, word >> 32, (word & 0xFFFFFFFF) * 3
                if value & 0xFFFFFFFF:  # Lemire rejects a zero remainder
                    break
            trajectory, at = divmod(slot, len(slots))
            index, q = slots[at]
            errors = found.setdefault(trajectory, {})
            errors[index] = errors.get(index, ()) + ((q, _PAULIS[value >> 32]),)
            slot += 1
        # past the end when the last draw read a fresh word of its own
        slot += max(words.size - start, 0)
    if (has, held) != (first["has_uint32"], first["uinteger"]):
        state = bitgen.state
        state.update(has_uint32=has, uinteger=held)
        bitgen.state = state
    patterns: list[Pattern] = [()] * trajectories
    for trajectory, errors in found.items():
        patterns[trajectory] = tuple(errors.items())
    return patterns


def _trajectory_vector(
    prepared: Prepared, depolarizing: float, trajectories: int, rng
) -> np.ndarray:
    """Mean of ``trajectories`` Pauli trajectories, evolving each distinct
    error pattern once and weighting it by how often it was drawn."""
    drawn = Counter(_draw_errors(prepared.circuit, depolarizing, rng, trajectories))
    acc = 0.0
    for pattern, count in drawn.items():  # first-drawn order
        vec = _evolve(prepared.circuit, dict(pattern)) if pattern else prepared.ideal
        acc += (count / trajectories) * vec
    return acc


def sample_counts(dist: Counts, shots: int, seed: int) -> Counts:
    """Seeded multinomial draw; identical inputs give identical Counts."""
    probs = dist.vector
    if shots < 1:
        raise ValueError("shots must be >= 1")
    mass = probs.sum()
    if probs.min() < 0.0 or abs(mass - 1.0) > 1e-9:
        raise ValueError(f"not a distribution: mass {mass} or a negative entry")
    return Counts(derive_rng(seed).multinomial(shots, probs / mass))


def _line_pairs(backend: BackendModel, circuit: Circuit) -> list[ReadoutPair]:
    ordered = circuit.measured_pairs  # clbit descending = left to right
    return [backend.noise.pair_for(q) for q, _ in reversed(ordered)]


def clean_distribution(backend: BackendModel, prepared: Prepared) -> Counts:
    """Analytic post-readout distribution without drift or tampering."""
    pairs = dict(enumerate(_line_pairs(backend, prepared.circuit)))
    return Counts(flip_channel(prepared.ideal, pairs))


def resolve_tamper(
    backend: BackendModel, prepared: Prepared, seed: int
) -> BackendModel:
    """Fill in the tamper target lines once per backend instance.

    Targeted mode plans against a privately sampled clean execution;
    random-subset mode draws its lines from a seeded stream.
    """
    spec = backend.tamper
    if spec is None or not spec.needs_resolution:
        return backend
    width = prepared.circuit.num_measured
    if spec.mode is TamperMode.TARGETED:
        private = sample_counts(
            clean_distribution(backend, prepared),
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
    backend: BackendModel, prepared: Prepared, shots: int, seed: int
) -> Counts:
    """Full pipeline: statevector -> drift jitter -> readout channel ->
    tamper channel -> multinomial sampling."""
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
