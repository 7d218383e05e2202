"""QAOA MaxCut on unweighted d-regular graphs: circuit construction,
shot-based expectation, brute-force optimum, and a simplex direct-search
optimizer tolerant of shot noise.

An objective evaluation evolves no gates for its noise-free vector:
``probabilities`` computes the measured vector of the QAOA circuit
directly, the cost layer as one phase multiply over ``Graph.cuts`` and the
mixer as one ``gates.apply_lines`` call (RX(2 beta) on every line, in
blocks of 4 lines above n = 4). On a backend without gate noise
``execute`` gets that vector as a ``Prepared`` with the circuit's measured
lines alone, which ``Graph.lines`` reads once per graph from a circuit of no
layers; on a gate-noise backend it gets the built circuit of each evaluation, whose
gates the trajectories evolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backend import BackendModel
from .circuit import Circuit, CircuitBuilder, GateKind, CapacityExceeded
from .gates import apply_lines
from .metrics import Counts, _ordered_sum
from .rng import derive_rng, derive_seed
from .simulator import Prepared, execute

MAX_QAOA_NODES = 20


class GraphError(ValueError):
    pass


class InfeasibleDegree(GraphError):
    pass


class LengthMismatch(ValueError):
    pass


def _check_capacity(n: int) -> None:
    if n > MAX_QAOA_NODES:
        raise CapacityExceeded(f"{n} nodes exceeds {MAX_QAOA_NODES}")


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 2:
            raise GraphError("graph needs at least two nodes")
        _check_capacity(self.n)
        if not self.edges:  # every cut is 0, so cmax is 0 and the AR undefined
            raise GraphError("graph has no edges")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise GraphError("edges must be stored as (min, max) pairs")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        edge_list = list(edges)
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edge_list)
        if len(normalized) != len(edge_list):
            raise GraphError("duplicate edges")
        return cls(n, normalized)

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @cached_property
    def cuts(self) -> np.ndarray:
        """Read-only cut value of every assignment, indexed like a
        histogram vector: bit u of the index is node u."""
        index = np.arange(1 << self.n, dtype=np.uint32)
        cuts = np.zeros(index.size, dtype=np.min_scalar_type(len(self.edges)))
        for u, v in self.edges:
            cuts += ((index >> u) ^ (index >> v)) & 1
        cuts.flags.writeable = False
        return cuts

    @cached_property
    def energy(self) -> np.ndarray:
        """Read-only ``|E| - 2 cuts``, the cost layer's phase per angle."""
        energy = len(self.edges) - 2.0 * self.cuts
        energy.flags.writeable = False
        return energy

    @cached_property
    def lines(self) -> tuple[tuple[int, int], ...]:
        """The measured lines of every QAOA circuit on this graph, whatever
        its depth and angles: those of a circuit of no layers."""
        return build_qaoa_circuit(self, QaoaParams((), ())).measured_pairs


@dataclass(frozen=True)
class QaoaParams:
    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if len(self.gamma) != len(self.beta):
            raise LengthMismatch("gamma and beta must have the same length p")

    @property
    def p(self) -> int:
        return len(self.gamma)

    @classmethod
    def from_vector(cls, x) -> "QaoaParams":
        x = list(x)
        p = len(x) // 2
        return cls(tuple(x[:p]), tuple(x[p:]))

    def to_vector(self) -> np.ndarray:
        return np.array(self.gamma + self.beta, dtype=float)


@dataclass
class QaoaRunRecord:
    best_params: QaoaParams
    trace: list[float]
    ar: float
    cmax: int
    best_expectation: float


@dataclass(frozen=True)
class QaoaConfig:
    p: int = 1
    iterations: int = 50
    shots_per_iter: int = 50


def build_qaoa_circuit(graph: Graph, params: QaoaParams) -> Circuit:
    """Alternating cost (CX-RZ-CX per edge) and mixer (RX) layers."""
    b = CircuitBuilder(graph.n, name=f"qaoa_p{params.p}_n{graph.n}")
    for q in range(graph.n):
        b.gate(GateKind.H, q)
    for gamma, beta in zip(params.gamma, params.beta):
        for u, v in graph.sorted_edges:
            b.gate(GateKind.CX, u, v)
            b.gate(GateKind.RZ, v, params=(2.0 * gamma,))
            b.gate(GateKind.CX, u, v)
        for q in range(graph.n):
            b.gate(GateKind.RX, q, params=(2.0 * beta,))
    b.measure_all()
    return b.build()


def probabilities(graph: Graph, params: QaoaParams) -> np.ndarray:
    """Measured-bit probability vector of ``build_qaoa_circuit(graph,
    params)``, indexed like ``Graph.cuts``, without evolving its gates.

    From the uniform state, each layer multiplies by the cost phase
    ``exp(-i gamma (|E| - 2 cuts))``, which the CX-RZ-CX ladder applies
    edge by edge, then applies ``RX(2 beta)`` to every qubit through
    ``gates.apply_lines``.
    """
    n = graph.n
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    phase = np.empty_like(state)
    for gamma, beta in zip(params.gamma, params.beta):
        np.multiply(graph.energy, -1j * gamma, out=phase)
        state *= np.exp(phase, out=phase)
        c, m = math.cos(beta), -1j * math.sin(beta)
        state = apply_lines(state, [np.array([[c, m], [m, c]])] * n)  # RX(2 beta)
    probs = np.abs(state) ** 2
    if __debug__:  # stands in for the per-gate norm check of the circuit path
        mass = probs.sum()
        assert abs(mass - 1.0) < 1e-10, f"mass drifted to {mass}"
    return probs


def expectation(counts: Counts, graph: Graph) -> float:
    """Shot-weighted mean cut value."""
    if not counts:
        raise LengthMismatch("empty counts")
    return exact_expectation(counts, graph) / counts.vector.sum().item()


def exact_expectation(dist: Counts, graph: Graph) -> float:
    """Sum of weight times cut value (an integer dot product for counts)."""
    vec = dist.vector
    if vec.size != graph.cuts.size:
        raise LengthMismatch(f"{vec.size}-entry histogram for {graph.n} nodes")
    index = np.flatnonzero(vec)
    return _ordered_sum(vec[index] * graph.cuts[index])


def cmax(graph: Graph) -> int:
    """Maximum cut, over every assignment."""
    return int(graph.cuts.max())


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """d-regular simple graph from the pairing model, retried on clashes."""
    _check_capacity(n)  # before the pairing model, whose work grows with n
    if d >= n or (n * d) % 2 != 0:
        raise InfeasibleDegree(f"no {d}-regular simple graph on {n} nodes")
    rng = derive_rng(seed, "regular-graph", n, d)
    for _ in range(10_000):
        stubs = [node for node in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, frozenset(edges))
    raise InfeasibleDegree(f"pairing model failed for n={n}, d={d}")


# --- simplex direct search ------------------------------------------------

_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5
# under shot noise a tight simplex cannot order points reliably, so the
# collapse threshold is generous and triggers a restart near the incumbent
_COLLAPSE_DIAMETER = 0.1


class _BudgetExhausted(Exception):
    pass


class _Objective:
    """Counts evaluations, remembers the incumbent and the trace."""

    def __init__(self, backend, graph, shots, seed, budget):
        self.backend = backend
        self.graph = graph
        self.shots = shots
        self.seed = seed
        self.budget = budget
        self.evals = 0
        self.trace: list[float] = []
        self.best_value = -math.inf
        self.best_params: QaoaParams | None = None
        self.lines = graph.lines  # the same at every depth and angle

    def __call__(self, x) -> float:
        if self.evals >= self.budget:
            raise _BudgetExhausted
        params = QaoaParams.from_vector(x)
        vector = probabilities(self.graph, params)
        if self.backend.gate_depolarizing > 0.0:  # trajectories run its gates
            prepared = Prepared(build_qaoa_circuit(self.graph, params), vector)
        else:
            prepared = Prepared(None, vector, self.lines)
        counts = execute(
            self.backend,
            prepared,
            self.shots,
            derive_seed(self.seed, "eval", self.evals),
        )
        value = expectation(counts, self.graph)
        self.evals += 1
        self.trace.append(value)
        if value > self.best_value:
            self.best_value = value
            self.best_params = params
        return value


def _initial_point(p: int, rng) -> np.ndarray:
    gamma = rng.uniform(0.0, math.pi, size=p)
    beta = rng.uniform(0.0, math.pi / 2, size=p)
    return np.concatenate([gamma, beta])


def _simplex_search(objective: _Objective, x0: np.ndarray, rng, step: float = 0.3):
    """Nelder-Mead maximization; runs until the evaluation budget is spent."""
    dim = len(x0)
    try:
        while True:  # restart loop
            points = [x0.copy()]
            for i in range(dim):
                xi = x0.copy()
                xi[i] += step
                points.append(xi)
            values = [objective(p) for p in points]
            while True:
                order = sorted(range(dim + 1), key=lambda i: -values[i])
                points = [points[i] for i in order]
                values = [values[i] for i in order]
                spread = max(
                    float(np.max(np.abs(p - points[0]))) for p in points[1:]
                )
                if spread < _COLLAPSE_DIAMETER:
                    break  # restart around the incumbent
                centroid = np.mean(points[:-1], axis=0)
                worst = points[-1]
                reflected = centroid + _REFLECT * (centroid - worst)
                fr = objective(reflected)
                if fr > values[0]:
                    expanded = centroid + _EXPAND * (centroid - worst)
                    fe = objective(expanded)
                    if fe > fr:
                        points[-1], values[-1] = expanded, fe
                    else:
                        points[-1], values[-1] = reflected, fr
                elif fr > values[-2]:
                    points[-1], values[-1] = reflected, fr
                else:
                    contracted = centroid + _CONTRACT * (worst - centroid)
                    fc = objective(contracted)
                    if fc > values[-1]:
                        points[-1], values[-1] = contracted, fc
                    else:
                        best = points[0]
                        for i in range(1, dim + 1):
                            points[i] = best + _SHRINK * (points[i] - best)
                            values[i] = objective(points[i])
            x0 = points[0] + rng.uniform(-0.2, 0.2, size=dim)
    except _BudgetExhausted:
        pass


def optimize(
    backend: BackendModel,
    graph: Graph,
    p: int = QaoaConfig.p,
    iterations: int = QaoaConfig.iterations,
    shots_per_iter: int = QaoaConfig.shots_per_iter,
    seed: int = 0,
    init_params: QaoaParams | None = None,
) -> QaoaRunRecord:
    """Derivative-free maximization of the cut expectation.

    One circuit execution per objective evaluation; ``iterations`` is the
    total evaluation budget. The reported AR uses the best observed
    expectation, not the final simplex point.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    objective = _Objective(backend, graph, shots_per_iter, seed, iterations)
    rng = derive_rng(seed, "simplex")
    x0 = init_params.to_vector() if init_params is not None else _initial_point(p, rng)
    _simplex_search(objective, x0, rng)
    best_cut = cmax(graph)
    record = QaoaRunRecord(
        best_params=objective.best_params,
        trace=objective.trace,
        ar=objective.best_value / best_cut,
        cmax=best_cut,
        best_expectation=objective.best_value,
    )
    return record
