"""Independent reference implementations used only by the tests.

The full-unitary, density-matrix and per-shot trajectory oracles build
every gate as an explicit 2^n x 2^n matrix by basis-state embedding,
deliberately avoiding the simulator's in-place slice-swap and matmul
kernel, so the two can cross-check each other. Gate matrices are restated
here from their textbook definitions instead of being imported.
``tensordot_apply`` is the simulator's earlier gate kernel, kept as the
reference for the in-place one, and ``per_call_errors`` the trajectory
error stream drawn one scalar ``random()`` at a time. ``per_line_apply``
is the one-pass-per-line loop that ``flip_channel`` and the QAOA mixer
ran before ``gates.apply_lines``.
``circuit_objective`` is the QAOA objective that evolved the built
circuit in every evaluation. jsonschema
is the reference for the config checker; qtrust itself does not import it.
``as_counts`` turns a dict literal into the ``Counts`` the library takes.
"""
from __future__ import annotations

import cmath
import math

import jsonschema
import numpy as np

from qtrust import qaoa
from qtrust.metrics import Counts
from qtrust.rng import derive_seed
from qtrust.simulator import execute, prepare

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _controlled(u):
    dim = u.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = u
    return out


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP_M = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def reference_matrix(kind_name: str, params) -> np.ndarray:
    """Textbook unitary for a gate name; |q_first q_second ...> ordering."""
    p = list(params)
    fixed = {
        "h": _H,
        "x": _X,
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.diag([1, -1]).astype(complex),
        "s": np.diag([1, 1j]).astype(complex),
        "sdg": np.diag([1, -1j]).astype(complex),
        "t": np.diag([1, cmath.exp(1j * math.pi / 4)]),
        "tdg": np.diag([1, cmath.exp(-1j * math.pi / 4)]),
        "cx": _controlled(_X),
        "cz": np.diag([1, 1, 1, -1]).astype(complex),
        "swap": _SWAP_M,
        "ccx": _controlled(_controlled(_X)),
    }
    if kind_name in fixed:
        return fixed[kind_name]
    if kind_name == "rx":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind_name == "ry":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind_name == "rz":
        return np.diag(
            [cmath.exp(-0.5j * p[0]), cmath.exp(0.5j * p[0])]
        ).astype(complex)
    if kind_name == "u1":
        return np.diag([1, cmath.exp(1j * p[0])]).astype(complex)
    if kind_name == "u2":
        return _u3(math.pi / 2, p[0], p[1])
    if kind_name == "u3":
        return _u3(*p)
    raise KeyError(kind_name)


def embed(num_qubits: int, qubits, u: np.ndarray) -> np.ndarray:
    """Lift a k-qubit unitary to the full 2^n space by explicit basis maps.

    Integer basis index bit q is qubit q; the first listed qubit is the
    most significant bit of the small matrix index.
    """
    dim = 2**num_qubits
    k = len(qubits)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> q) & 1 for q in range(num_qubits)]
        sub_in = 0
        for j, q in enumerate(qubits):
            sub_in |= bits[q] << (k - 1 - j)
        for sub_out in range(2**k):
            amp = u[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for j, q in enumerate(qubits):
                new_bits[q] = (sub_out >> (k - 1 - j)) & 1
            row = sum(b << q for q, b in enumerate(new_bits))
            out[row, col] += amp
    return out


def _gates(circuit):
    """(qubits, embedded unitary) for every gate, in circuit order."""
    n = circuit.num_qubits
    for instr in circuit.instructions:
        name = instr.kind.value
        if name not in ("barrier", "measure"):
            gate = reference_matrix(name, instr.params)
            yield instr.qubits, embed(n, instr.qubits, gate)


def _measured(probs: np.ndarray, circuit) -> np.ndarray:
    """Marginal over the measured bits, indexed by the integer value of the
    key (clbit descending = left-to-right)."""
    pairs = circuit.measured_pairs
    width = len(pairs)
    out = np.zeros(2**width)
    for index, p in enumerate(probs):
        bits = [(index >> q) & 1 for q, _ in pairs]
        out[sum(b << (width - 1 - j) for j, b in enumerate(bits))] += p
    return out


def _as_dict(vec: np.ndarray) -> dict[str, float]:
    width = vec.size.bit_length() - 1
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(vec)}


def oracle_distribution(circuit) -> dict[str, float]:
    """Measured-bit probabilities from an explicit full-unitary product."""
    unitary = np.eye(2**circuit.num_qubits, dtype=complex)
    for _, gate in _gates(circuit):
        unitary = gate @ unitary
    return _as_dict(_measured(np.abs(unitary[:, 0]) ** 2, circuit))


def _paulis(n: int) -> list[list[np.ndarray]]:
    """X, Y and Z on qubit q, embedded, at index q."""
    return [
        [embed(n, (q,), reference_matrix(name, ())) for name in "xyz"]
        for q in range(n)
    ]


def depolarizing_oracle(circuit, p: float) -> dict[str, float]:
    """Exact measured-bit distribution of the gate-noise model (n <= 6).

    A density matrix evolves as rho -> U rho U^dagger per gate; then, on
    each qubit the gate touched, the depolarizing channel
    (1 - p) rho + (p/3) sum_{P in X, Y, Z} P rho P.
    """
    n = circuit.num_qubits
    if n > 6:
        raise ValueError(f"{n} qubits: the density-matrix oracle is for n <= 6")
    paulis = _paulis(n)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for qubits, gate in _gates(circuit):
        rho = gate @ rho @ gate.conj().T
        for q in qubits:
            rho = (1.0 - p) * rho + (p / 3.0) * sum(P @ rho @ P for P in paulis[q])
    return _as_dict(_measured(np.real(np.diag(rho)), circuit))


def _pauli_hit(u: float, p: float) -> int | None:
    """Which Pauli (0, 1, 2 for X, Y, Z) a draw ``u`` of one (gate, qubit)
    puts there: none unless ``u < p``, then X below p/3, Y below 2p/3, Z
    below p."""
    if u >= p:
        return None
    return 0 if u < p / 3 else 1 if u < 2 * p / 3 else 2


def per_shot_trajectories(circuit, p: float, shots: int, rng) -> np.ndarray:
    """Mean measured-bit vector of ``shots`` Pauli trajectories, one
    statevector per shot, drawing errors inline as the simulator's stream
    does: per (gate, qubit) one ``rng.random()``, whose value decides
    whether an X, Y or Z is applied right after the gate."""
    n = circuit.num_qubits
    gates = list(_gates(circuit))
    paulis = _paulis(n)
    acc = np.zeros(2 ** circuit.num_measured)
    for _ in range(shots):
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        for qubits, gate in gates:
            psi = gate @ psi
            for q in qubits:
                hit = _pauli_hit(rng.random(), p)
                if hit is not None:
                    psi = paulis[q][hit] @ psi
        acc += _measured(np.abs(psi) ** 2, circuit) / shots
    return acc


def tensordot_apply(psi: np.ndarray, gate: np.ndarray, axes) -> np.ndarray:
    """A new state: ``gate`` (k qubits, first listed most significant)
    contracted with ``psi`` of shape ``(2,)*n`` on ``axes`` by tensordot."""
    k = len(axes)
    tensor = gate.reshape((2,) * (2 * k))
    out = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, range(k), axes)


def per_call_errors(circuit, p: float, rng) -> dict:
    """One trajectory's Pauli errors, one scalar ``rng.random()`` per
    (gate, qubit) in circuit order, binned by ``_pauli_hit``.
    {instruction index: ((qubit, "x" | "y" | "z"), ...)}"""
    errors = {}
    for index, instr in enumerate(circuit.instructions):
        if instr.kind.value in ("barrier", "measure"):
            continue
        draws = [(q, _pauli_hit(rng.random(), p)) for q in instr.qubits]
        hits = tuple((q, "xyz"[hit]) for q, hit in draws if hit is not None)
        if hits:
            errors[index] = hits
    return errors


def per_line_apply(vec: np.ndarray, mats) -> np.ndarray:
    """``mats[i]`` (None: the identity) along line i of ``vec``, one
    ``matmul`` pass per line, lowest line first."""
    for line, m in enumerate(mats):
        if m is not None:
            vec = (m @ vec.reshape(-1, 2, 1 << line)).reshape(-1)
    return vec


def flip_monte_carlo(
    dist: dict[str, float],
    line_flip_probs: dict[int, float | tuple[float, float]],
    shots: int,
    rng: np.random.Generator,
) -> dict[str, int]:
    """Per-shot bit-flip sampling; reference for the analytic channels.

    ``line_flip_probs`` maps line index (0 = rightmost character) to
    either a symmetric flip probability or a (p01, p10) pair, where p01
    is the chance of reading 1 given a true 0.
    """
    keys = sorted(dist)
    probs = np.array([dist[k] for k in keys])
    probs = probs / probs.sum()
    width = len(keys[0])
    counts: dict[str, int] = {}
    draws = rng.choice(len(keys), size=shots, p=probs)
    uniforms = {line: rng.random(shots) for line in line_flip_probs}
    for shot in range(shots):
        chars = list(keys[draws[shot]])
        for line, spec in line_flip_probs.items():
            pos = width - 1 - line
            if isinstance(spec, tuple):
                threshold = spec[0] if chars[pos] == "0" else spec[1]
            else:
                threshold = spec
            if uniforms[line][shot] < threshold:
                chars[pos] = "1" if chars[pos] == "0" else "0"
        key = "".join(chars)
        counts[key] = counts.get(key, 0) + 1
    return counts


def readout_oracle(
    dist: dict[str, float], line_pairs: dict[int, tuple[float, float]], width: int
) -> dict[str, float]:
    """Tensored bit-flip map as one explicit 2^w x 2^w matrix.

    The matrix is the Kronecker product of the per-line 2x2 matrices
    [[1-p01, p10], [p01, 1-p10]], line w-1 first and line 0 as the last
    (least significant) factor; lines missing from ``line_pairs`` get the
    identity. The returned dict has every key, zeros included.
    """
    full = np.ones((1, 1))
    for line in reversed(range(width)):
        p01, p10 = line_pairs.get(line, (0.0, 0.0))
        full = np.kron(full, np.array([[1.0 - p01, p10], [p01, 1.0 - p10]]))
    vec = np.zeros(2**width)
    for key, p in dist.items():
        vec[int(key, 2)] += p
    keys = [format(i, f"0{width}b") for i in range(2**width)]
    return dict(zip(keys, (full @ vec).tolist()))


# --- dict metrics: key-by-key references for the vector metrics ----------------
#
# These walk string keys the way the metrics did before they moved onto the
# dense vector. Sums run left to right in the dict's iteration order, so a
# histogram given in key order reproduces the vector metrics' bits exactly.


def left_to_right_sum(values):
    """``acc = acc + x`` over ``values``: the order the metrics add in, which
    Python's ``sum`` keeps for floats only before 3.12."""
    acc = 0
    for x in values:
        acc = acc + x
    return acc


def _check_widths(keys, width: int | None = None) -> int:
    for k in keys:
        if width is None:
            width = len(k)
        elif len(k) != width:
            raise ValueError(f"mixed key lengths ({width} and {len(k)})")
    if width is None:
        raise ValueError("empty histogram")
    return width


def as_counts(hist: dict) -> Counts:
    """The ``Counts`` of a dict literal with keys of one width; integer
    values give an integer vector."""
    values = np.array(list(hist.values()))
    vec = np.zeros(1 << _check_widths(hist.keys()), dtype=values.dtype)
    vec[[int(k, 2) for k in hist]] = values
    return Counts(vec)


def dict_ranked(hist: dict) -> list[tuple]:
    return sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))


def dict_pm(counts: dict, correct: str) -> float:
    _check_widths(counts.keys(), len(correct))
    good = counts.get(correct, 0)
    worst_bad = max((c for k, c in counts.items() if k != correct), default=0)
    if worst_bad == 0:
        return math.inf if good > 0 else 0.0
    return good / worst_bad


def _normalize(hist: dict) -> dict:
    total = float(left_to_right_sum(hist.values()))
    return {k: v / total for k, v in hist.items()}


def dict_tvd(a: dict, b: dict) -> float:
    _check_widths(b.keys(), _check_widths(a.keys()))
    pa, pb = _normalize(a), _normalize(b)
    keys = sorted(set(pa) | set(pb))
    return 0.5 * left_to_right_sum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


def dict_stitch(parts: list[dict]) -> dict:
    width = None
    out: dict = {}
    for part in parts:
        width = _check_widths(part.keys(), width)
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return out


def dict_top_outcome(counts: dict) -> tuple[str, float]:
    key, count = dict_ranked(counts)[0]
    return key, count / left_to_right_sum(counts.values())


def string_cut_value(bitstring: str, edges) -> int:
    """Edges whose endpoints differ, read off the characters: node u is
    character n-1-u."""
    n = len(bitstring)
    return sum(1 for u, v in edges if bitstring[n - 1 - u] != bitstring[n - 1 - v])


def circuit_objective(self, x) -> float:
    """``qaoa._Objective.__call__`` with the built circuit prepared, which
    evolves it gate by gate for the ideal vector, before ``execute``."""
    if self.evals >= self.budget:
        raise qaoa._BudgetExhausted
    params = qaoa.QaoaParams.from_vector(x)
    counts = execute(
        self.backend,
        prepare(qaoa.build_qaoa_circuit(self.graph, params)),
        self.shots,
        derive_seed(self.seed, "eval", self.evals),
    )
    value = qaoa.expectation(counts, self.graph)
    self.evals += 1
    self.trace.append(value)
    if value > self.best_value:
        self.best_value = value
        self.best_params = params
    return value


# draft 2020-12 with the config checker's integer rule: an int, not 1.0
_IntOnlyValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer",
        lambda _, value: isinstance(value, int) and not isinstance(value, bool),
    ),
)


def jsonschema_error_paths(schema: dict, value) -> set[tuple]:
    """The ``absolute_path`` of every error jsonschema's draft 2020-12
    validator, with integers limited to ints, reports; empty when it
    accepts ``value``."""
    validator = _IntOnlyValidator(schema)
    return {tuple(error.absolute_path) for error in validator.iter_errors(value)}
