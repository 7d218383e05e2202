"""Dense statevector execution, readout and tamper noise, and seeded shot
sampling.

Every stage reads the fields of one ``BackendModel`` (readout pairs,
gate_depolarizing, drift, tamper) and a ``Prepared`` circuit. ``prepare``
is the one stage that takes a plain circuit and the one place that evolves
its noise-free vector; the QAOA objective builds its ``Prepared`` from
``qaoa.probabilities`` instead. A ``Circuit`` measures each qubit after its
last gate, so ``_evolve`` runs ``circuit.gates`` on one state array and one
gather buffer (a gate of ``_IN_PLACE`` swaps and phases slices in place,
any other gate is one ``matmul``) and then sums out the unmeasured qubits
over a C-ordered copy with the measured qubits first, in one order
whatever layout the gates left. Gate noise evolves each distinct Pauli
error pattern of a run once (Monte-Carlo wavefunction trajectories
weighted by how often each pattern was drawn), many per ``_evolve`` along
a leading batch axis; one ``random()`` per (trajectory, gate, qubit)
picks the hit and its Pauli, which ``_apply`` runs as a gate. Until its
first hit a trajectory is the noise-free state: the patterns run in order
of their first hit, and one noise-free state, carried forward once per
run, is copied into each batch at its earliest first hit, so a pattern
costs only the gates from its first hit on. ``trajectory_cost`` estimates
that work for the config loader's bound.
The resulting vector, indexed by the integer outcome, runs through
readout and tamper flips (two ``adversary.flip_channel`` calls, each one
``gates.apply_lines`` pass per block of 4 lines above 4 lines) to the
multinomial draw; every result is a ``metrics.Counts``. Keys follow the
q_{n-1}...q_0 convention; line 0 is the rightmost character.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import flip_channel, plan_targeted, TamperMode
from .backend import BackendModel
from .circuit import Circuit, CircuitError, GateKind
from .gates import matrix
from .metrics import Counts
from .rng import derive_rng, derive_seed

PLAN_SHOTS = 10_000  # private clean run the adversary uses to pick targets


# Gates that swap at most two basis states of their qubits (bits in listed
# order) and multiply some by -1, i or -i: the pair swapped, or None, and
# each (basis state, phase) after the swap; other states stay as they are.
_IN_PLACE = {
    GateKind.X: (((0,), (1,)), ()),
    GateKind.Y: (((0,), (1,)), (((0,), -1j), ((1,), 1j))),
    GateKind.Z: (None, (((1,), -1.0),)),
    GateKind.S: (None, (((1,), 1j),)),
    GateKind.SDG: (None, (((1,), -1j),)),
    GateKind.CX: (((1, 0), (1, 1)), ()),
    GateKind.CZ: (None, (((1, 1), -1.0),)),
    GateKind.SWAP: (((0, 1), (1, 0)), ()),
    GateKind.CCX: (((1, 1, 0), (1, 1, 1)), ()),
}


def _slice(psi: np.ndarray, axes: list[int], bits) -> np.ndarray:
    """The view of ``psi`` where axis ``axes[j]`` holds ``bits[j]``."""
    index = [slice(None)] * psi.ndim
    for axis, bit in zip(axes, bits):
        index[axis] = bit
    return psi[tuple(index)]


def _apply(
    psi: np.ndarray,
    kind: GateKind,
    params: tuple[float, ...],
    axes: list[int],
    state: np.ndarray,
    buffer: np.ndarray,
) -> np.ndarray:
    """Apply one gate on ``axes`` of ``psi``, the ``(B,) + (2,)*n`` view of
    B states in the flat ``state``; returns the view of ``state`` after it.

    A gate of ``_IN_PLACE`` swaps its slices of ``psi`` (holding one in
    ``buffer``) and multiplies its phased ones in place, exactly, and
    returns ``psi``. Any other gate gathers ``psi`` into ``buffer`` with
    ``axes`` first in each state and writes one ``matmul`` of its 2^k x 2^k
    matrix per state (the BLAS call it gets alone) into ``state``, so the
    state's memory order changes and the returned view follows it.
    """
    table = _IN_PLACE.get(kind)
    if table is not None:
        swap, phases = table
        if swap is not None:
            a, b = (_slice(psi, axes, bits) for bits in swap)
            held = buffer[: a.size].reshape(a.shape)
            np.copyto(held, a)
            np.copyto(a, b)
            np.copyto(b, held)
        for bits, phase in phases:
            part = _slice(psi, axes, bits)
            np.multiply(part, phase, out=part)
        return psi
    k, batch = len(axes), len(psi)
    order = [0] + axes + [axis for axis in range(1, psi.ndim) if axis not in axes]
    np.copyto(buffer.reshape(psi.shape), psi.transpose(order))
    gate = matrix(kind, params)
    blocks = (batch, 2**k, -1)
    np.matmul(gate, buffer.reshape(blocks), out=state.reshape(blocks))
    return state.reshape(psi.shape).transpose(np.argsort(order))


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)

#: Pauli errors of one trajectory: {instruction index: ((qubit, Pauli), ...)}
Errors = dict[int, tuple[tuple[int, GateKind], ...]]
#: the same as a hashable ``tuple(errors.items())``, in circuit order; ()
#: when nothing hit
Pattern = tuple[tuple[int, tuple[tuple[int, GateKind], ...]], ...]


@dataclass(frozen=True, eq=False)
class Prepared:
    """A noise-free measured-bit vector ``ideal`` (read-only), indexed by
    ``measured_pairs`` as in ``Circuit.measured_pairs``.

    ``prepare(circuit)`` evolves it; only gate-noise trajectories run the
    circuit again. Without gate noise the circuit may be left out, as
    ``Prepared(None, vector, measured_pairs)``.
    """

    circuit: Circuit | None
    ideal: np.ndarray
    measured_pairs: tuple[tuple[int, int], ...] | None = None
    # clean_distribution's vectors, one per distinct tuple of line pairs
    _clean: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if (self.circuit is None) == (self.measured_pairs is None):
            raise CircuitError("give a circuit or, without one, its measured lines")
        if self.circuit is not None:
            object.__setattr__(self, "measured_pairs", self.circuit.measured_pairs)
        width = len(self.measured_pairs)
        if self.ideal.size != 1 << width:
            raise CircuitError(
                f"{self.ideal.size}-entry ideal vector for {width} measured bits"
            )
        # shared by every later stage and cell: a write raises, not corrupts
        self.ideal.flags.writeable = False


def _run(psi: np.ndarray, gates, hits, state: np.ndarray, buffer: np.ndarray):
    """Apply ``gates`` (entries of ``Circuit.gates``) to the B states of
    ``psi``, a ``(B,) + (2,)*n`` view of the flat ``state``, with state t's
    Paulis (``hits``: instruction index -> [(t, qubit, Pauli)]) right after
    their gate, gathering in ``buffer`` (the size of ``state``). Under
    ``__debug__`` every state's norm is checked after every gate. Returns
    the view of ``state`` after the last gate."""
    n, batch = psi.ndim - 1, len(psi)
    # the norm check's halves of each (batch-major) state: OpenBLAS keeps a
    # dot of 2^n doubles on one thread up to 13 qubits, one of 2^(n+1) not
    halves = state.view(float).reshape(2 * batch, 1, -1)
    across = halves.transpose(0, 2, 1)
    for index, instr in gates:
        axes = [n - q for q in instr.qubits]
        psi = _apply(psi, instr.kind, instr.params, axes, state, buffer)
        for t, q, kind in hits.get(index, ()):
            _apply(psi[t : t + 1], kind, (), [n - q], state, buffer)
        if __debug__:  # every trajectory's norm
            norms = np.matmul(halves, across).reshape(batch, 2).sum(1)
            assert abs(norms - 1.0).max() < 1e-10, f"norm drifted to {norms}"
    return psi


def _evolve(
    circuit: Circuit, patterns: Sequence[Pattern] = ((),), start=None
) -> np.ndarray:
    """Run the gates on one state per error pattern, its Paulis right after
    their gate. Row t is pattern t's probability vector of the measured
    bits, indexed by the integer value of their bitstring.

    Every state starts as |0...0> before the first gate or, given ``start
    = (position, clean, buffer)``, as a copy of ``clean``: the noise-free
    ``(1,) + (2,)*n`` state before gate ``position`` of ``circuit.gates``,
    which no pattern may hit earlier. ``buffer``, the gather buffer, holds
    at least one complex per amplitude of the batch; it is also where the
    probabilities are summed, so no larger array is made after the gates.
    """
    pairs = circuit.measured_pairs
    if not pairs:
        raise CircuitError("circuit has no measurements")
    n, batch = circuit.num_qubits, len(patterns)
    hits: dict[int, list[tuple[int, int, GateKind]]] = {}  # index -> (t, q, Pauli)
    for t, pattern in enumerate(patterns):
        for index, errors in pattern:
            hits.setdefault(index, []).extend((t, q, kind) for q, kind in errors)
    shape = (batch,) + (2,) * n  # qubit q is axis n - q
    if start is None:
        position = 0
        state = np.zeros(batch << n, dtype=complex)
        state[:: 1 << n] = 1.0  # |0...0> in every trajectory
        buffer = np.empty_like(state)
    else:
        position, clean, buffer = start
        state = np.empty(batch << n, dtype=complex)
        np.copyto(state.reshape(shape), clean)
        buffer = buffer[: state.size]
    psi = _run(state.reshape(shape), circuit.gates[position:], hits, state, buffer)
    # |psi|^2 in the buffer's first half, then a C-ordered copy with the
    # measured qubits first in its second half, so the sum's order does not
    # depend on the memory order the last dense gate left
    probs, ordered = buffer.view(float).reshape((2,) + shape)
    np.abs(psi, out=probs)
    probs **= 2
    front = [n - q for q, _ in pairs]  # output order, clbit descending
    rest = [a for a in range(1, n + 1) if a not in front]
    np.copyto(ordered, np.transpose(probs, [0] + front + rest))
    return ordered.reshape(batch, 2 ** len(front), -1).sum(axis=2)


def prepare(circuit: Circuit) -> Prepared:
    """Evolve the noise-free vector of ``circuit`` once, as a batch of one;
    its exact outcome distribution is ``Counts(prepare(circuit).ideal)``."""
    return Prepared(circuit, _evolve(circuit)[0])


_CHUNK = 1 << 16  # doubles per read; bounds the memory held, not the stream


def _draw_errors(circuit: Circuit, p: float, rng, trajectories: int) -> list[Pattern]:
    """The Pauli error patterns of ``trajectories`` trajectories. Each
    (trajectory, gate, qubit), trajectory-major in circuit order, reads one
    ``rng.random()`` double u: u < p is an error, X below p/3, Y below 2p/3
    and Z below p, so the Pauli is uniform given a hit. Only hits go
    through Python; the stream does not depend on ``_CHUNK``."""
    slots = [(index, q) for index, instr in circuit.gates for q in instr.qubits]
    bins = (p / 3, 2 * p / 3, p)
    found: dict[int, Errors] = {}  # trajectory -> its errors, if any
    total = len(slots) * trajectories
    for first in range(0, total, _CHUNK):
        u = rng.random(min(total - first, _CHUNK))
        hits = np.flatnonzero(u < p)
        paulis = np.searchsorted(bins, u[hits], side="right")
        for slot, pauli in zip((hits + first).tolist(), paulis.tolist()):
            trajectory, at = divmod(slot, len(slots))
            index, q = slots[at]
            errors = found.setdefault(trajectory, {})
            errors[index] = errors.get(index, ()) + ((q, _PAULIS[pauli]),)
    patterns: list[Pattern] = [()] * trajectories
    for trajectory, errors in found.items():
        patterns[trajectory] = tuple(errors.items())
    return patterns


def _first_hit(pattern: Pattern) -> int:
    return pattern[0][0]


# Amplitudes per batched evolve: 16 adder_n10 patterns, or 2 multiply_n13
# ones, which took 510-530 ms at 2 000 shots and p = 0.002 against 640-780
# ms one at a time. heavy_paths peak RSS rose by under 0.1 MB.
_BATCH_AMPLITUDES = 1 << 14


def _trajectory_vector(
    prepared: Prepared, depolarizing: float, trajectories: int, rng
) -> np.ndarray:
    """Mean of ``trajectories`` Pauli trajectories, evolving each distinct
    error pattern once and weighting it by how often it was drawn.

    Until its first hit a trajectory is the noise-free state. So the noisy
    patterns run in order of their first hit (drawn order among ties),
    ``_BATCH_AMPLITUDES >> n`` (at least one) per ``_evolve``, and one
    noise-free state is carried forward to each batch's earliest first hit
    and copied into the batch's rows, which run only the gates from there.
    Each batch's weighted rows are added as it finishes, after the
    error-free weight, so one batch of rows is alive at a time.
    """
    circuit = prepared.circuit
    if circuit is None:
        raise CircuitError("gate noise needs the circuit's gates")
    drawn = Counter(_draw_errors(circuit, depolarizing, rng, trajectories))
    acc = 0.0
    if () in drawn:
        acc += (drawn[()] / trajectories) * prepared.ideal
    noisy = sorted((pattern for pattern in drawn if pattern), key=_first_hit)
    if not noisy:
        return acc
    n = circuit.num_qubits
    size = max(1, _BATCH_AMPLITUDES >> n)
    position = {index: at for at, (index, _) in enumerate(circuit.gates)}
    buffer = np.empty(min(size, len(noisy)) << n, dtype=complex)
    clean = np.zeros(1 << n, dtype=complex)
    clean[0] = 1.0  # |0...0>
    psi, done = clean.reshape((1,) + (2,) * n), 0
    for first in range(0, len(noisy), size):
        batch = noisy[first : first + size]
        at = position[_first_hit(batch[0])]
        psi = _run(psi, circuit.gates[done:at], {}, clean, buffer[: clean.size])
        done = at
        rows = _evolve(circuit, batch, (at, psi, buffer))
        for t, pattern in enumerate(batch):
            acc += (drawn[pattern] / trajectories) * rows[t]
        del rows  # one batch of rows at a time: gone before the next evolve
    return acc


def trajectory_cost(circuit: Circuit, p: float) -> float:
    """Expected amplitude updates that one trajectory adds to a gate-noise
    ``execute``: the chance ``1 - (1 - p)^slots`` that one of its
    (gate, qubit) slots is hit, times ``gates x 2^n``, one evolve from
    |0...0>. Distinct patterns are fewer than hit trajectories, and each
    runs only the gates from its first hit, so this estimates from above.
    """
    slots = sum(len(instr.qubits) for _, instr in circuit.gates)
    hit = 1.0 - (1.0 - p) ** slots
    return hit * len(circuit.gates) * 2.0**circuit.num_qubits


def sample_counts(dist: Counts, shots: int, seed: int) -> Counts:
    """Seeded multinomial draw; identical inputs give identical Counts."""
    probs = dist.vector
    if shots < 1:
        raise ValueError("shots must be >= 1")
    mass = probs.sum()
    if probs.min() < 0.0 or abs(mass - 1.0) > 1e-9:
        raise ValueError(f"not a distribution: mass {mass} or a negative entry")
    return Counts(derive_rng(seed).multinomial(shots, probs / mass))


def clean_distribution(backend: BackendModel, prepared: Prepared) -> Counts:
    """Analytic post-readout distribution without drift or tampering.

    Computed once per ``prepared`` and line pairs, the key, since the vector
    depends on nothing else: backends whose readouts give the same pair on
    every measured line, and targeted planning, share one read-only vector.
    """
    pairs = backend.line_pairs(prepared.measured_pairs)
    clean = prepared._clean.get(pairs)
    if clean is None:  # two threads may both compute it; they get one
        clean = Counts(flip_channel(prepared.ideal, dict(enumerate(pairs))))
        clean = prepared._clean.setdefault(pairs, clean)
    return clean


def resolve_tamper(
    backend: BackendModel, prepared: Prepared, seed: int
) -> BackendModel:
    """Fill in the tamper target lines once per backend instance.

    Targeted mode plans against a privately sampled clean execution;
    random-subset mode draws its lines from a seeded stream.
    """
    spec = backend.tamper
    if spec is None or spec.mode is TamperMode.RANDOM_ALL or spec.lines is not None:
        return backend
    width = len(prepared.measured_pairs)
    if spec.mode is TamperMode.TARGETED:
        private = sample_counts(
            clean_distribution(backend, prepared),
            PLAN_SHOTS,
            derive_seed(seed, backend.name, "tamper-plan"),
        )
        lines = plan_targeted(private)
    else:  # RANDOM_SUBSET
        spec.check_width(width)
        rng = derive_rng(seed, backend.name, "tamper-lines")
        lines = tuple(sorted(rng.choice(width, size=spec.k, replace=False).tolist()))
    return replace(backend, tamper=replace(spec, lines=lines))


def execute(
    backend: BackendModel, prepared: Prepared, shots: int, seed: int
) -> Counts:
    """Full pipeline: statevector -> drift jitter -> readout channel ->
    tamper channel -> multinomial sampling."""
    if backend.gate_depolarizing > 0.0:
        rng = derive_rng(seed, backend.name, "trajectories")
        probs = _trajectory_vector(prepared, backend.gate_depolarizing, shots, rng)
    else:
        probs = prepared.ideal
    pairs = backend.line_pairs(prepared.measured_pairs)
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
