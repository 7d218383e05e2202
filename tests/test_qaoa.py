import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrust.adversary import TamperMode, TamperSpec
from qtrust.backend import BackendModel, NoiseModel
from qtrust.circuit import CapacityExceeded, GateKind
from qtrust import qaoa, simulator
from qtrust.defense import qaoa_adaptive, qaoa_iteration_split
from qtrust.metrics import Counts
from qtrust.qaoa import (
    MAX_QAOA_NODES,
    Graph,
    GraphError,
    InfeasibleDegree,
    LengthMismatch,
    QaoaConfig,
    QaoaParams,
    build_qaoa_circuit,
    cmax,
    cut_value,
    exact_expectation,
    expectation,
    optimize,
    random_regular_graph,
)
from qtrust.simulator import prepare

from oracles import as_counts, circuit_objective, string_cut_value


def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


# --- graphs -------------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(GraphError):
        Graph.from_edges(1, [])


def test_graph_normalizes_edge_order():
    g = Graph.from_edges(3, [(2, 0)])
    assert g.sorted_edges == [(0, 2)]


def test_cut_value_convention():
    g = Graph.from_edges(3, [(0, 2)])
    # bitstring is q2 q1 q0; "100" separates node 2 from node 0
    assert cut_value("100", g) == 1
    assert cut_value("101", g) == 0


def test_cut_value_length_check():
    with pytest.raises(LengthMismatch):
        cut_value("01", c4())


def test_cmax_known_graphs():
    assert cmax(c4()) == 4
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert cmax(triangle) == 2
    edge = Graph.from_edges(2, [(0, 1)])
    assert cmax(edge) == 1


def _random_graph(n: int, rng: random.Random) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))


@pytest.mark.parametrize("n", range(2, 13))
def test_cmax_matches_brute_force_over_every_bitstring(n):
    graph = _random_graph(n, random.Random(n))
    keys = (format(i, f"0{n}b") for i in range(2**n))
    assert cmax(graph) == max(string_cut_value(key, graph.edges) for key in keys)


@pytest.mark.parametrize("n", range(2, 13))
def test_cut_kernel_matches_string_reference(n):
    rng = random.Random(n)
    graph = _random_graph(n, rng)
    keys = [format(i, f"0{n}b") for i in range(2**n)]
    cut = {key: string_cut_value(key, graph.edges) for key in keys}
    assert graph.cuts is graph.cuts and not graph.cuts.flags.writeable
    assert graph.cuts.dtype == np.uint8
    assert graph.cuts.tolist() == list(cut.values())
    assert {key: cut_value(key, graph) for key in keys} == cut
    observed = sorted(rng.sample(keys, min(len(keys), 40)))  # key order
    counts = {key: rng.randint(1, 500) for key in observed}
    want = sum(c * cut[key] for key, c in counts.items()) / sum(counts.values())
    assert expectation(as_counts(counts), graph) == want
    dist = {key: rng.random() for key in observed}
    assert exact_expectation(as_counts(dist), graph) == sum(p * cut[k] for k, p in dist.items())


def test_graph_node_limit(monkeypatch):
    widest = Graph.from_edges(MAX_QAOA_NODES, [(0, MAX_QAOA_NODES - 1)])
    assert widest.cuts.size == 1 << MAX_QAOA_NODES
    with pytest.raises(CapacityExceeded):
        Graph.from_edges(MAX_QAOA_NODES + 1, [(0, 1)])
    # the limit is checked before the pairing model, whose work grows with
    # the node count: a stream drawn for it fails the test
    monkeypatch.setattr(qaoa, "derive_rng", None)
    with pytest.raises(CapacityExceeded, match="^200000 nodes exceeds 20$"):
        random_regular_graph(200_000, 3, seed=0)


def test_cmax_capacity_guard():
    with pytest.raises(CapacityExceeded):
        cmax(Graph.from_edges(25, [(0, 1)]))


def test_expectation_shot_weighted():
    g = Graph.from_edges(2, [(0, 1)])
    assert expectation(as_counts({"01": 3, "00": 1}), g) == pytest.approx(0.75)
    with pytest.raises(LengthMismatch):
        expectation(Counts(np.zeros(4, dtype=np.int64)), g)


def test_expectation_rejects_a_histogram_of_another_width():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(LengthMismatch):
        exact_expectation(as_counts({"01": 0.5, "10": 0.5}), g)
    with pytest.raises(LengthMismatch):
        expectation(as_counts({"0110": 7}), g)


def test_random_regular_graph_is_regular():
    for n, d in ((6, 2), (6, 3), (8, 3)):
        g = random_regular_graph(n, d, seed=1)
        degree = {v: 0 for v in range(n)}
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        assert all(deg == d for deg in degree.values())


def test_random_regular_graph_deterministic():
    assert random_regular_graph(8, 3, seed=4) == random_regular_graph(8, 3, seed=4)
    assert random_regular_graph(8, 3, seed=4) != random_regular_graph(8, 3, seed=5)


def test_random_regular_graph_infeasible():
    with pytest.raises(InfeasibleDegree):
        random_regular_graph(5, 3, seed=0)  # odd n*d
    with pytest.raises(InfeasibleDegree):
        random_regular_graph(4, 4, seed=0)  # d >= n


# --- parameters and circuit ---------------------------------------------------


def test_params_vector_round_trip():
    params = QaoaParams((0.1, 0.2), (0.3, 0.4))
    assert QaoaParams.from_vector(params.to_vector()) == params
    with pytest.raises(LengthMismatch):
        QaoaParams((0.1,), (0.2, 0.3))


def test_circuit_structure():
    g = c4()
    circuit = build_qaoa_circuit(g, QaoaParams((0.7,), (0.3,)))
    kinds = [i.kind for i in circuit.instructions]
    assert kinds.count(GateKind.H) == 4
    assert kinds.count(GateKind.CX) == 8  # two per edge
    assert kinds.count(GateKind.RZ) == 4
    assert kinds.count(GateKind.RX) == 4
    assert circuit.num_measured == 4


def test_zero_angles_give_uniform_distribution():
    g = c4()
    circuit = build_qaoa_circuit(g, QaoaParams((0.0,), (0.0,)))
    dist = Counts(prepare(circuit).ideal)
    for p in dist.values():
        assert p == pytest.approx(1 / 16, abs=1e-9)


def test_exact_expectation_uniform_equals_half_edges():
    # uniform sampling cuts each edge with probability 1/2
    g = c4()
    circuit = build_qaoa_circuit(g, QaoaParams((0.0,), (0.0,)))
    value = exact_expectation(Counts(prepare(circuit).ideal), g)
    assert value == pytest.approx(len(g.edges) / 2)


def test_single_edge_p1_analytic_expectation():
    # E(gamma, beta) = (1 - sin(2 gamma) sin(4 beta)) / 2 for one edge
    g = Graph.from_edges(2, [(0, 1)])
    for gamma, beta in ((0.5, 0.3), (1.2, 0.7), (3 * math.pi / 4, math.pi / 8)):
        params = QaoaParams((gamma,), (beta,))
        expected = 0.5 * (1.0 - math.sin(2 * gamma) * math.sin(4 * beta))
        for dist in (
            Counts(prepare(build_qaoa_circuit(g, params)).ideal),
            Counts(qaoa.probabilities(g, params)),
        ):
            assert exact_expectation(dist, g) == pytest.approx(expected, abs=1e-9)


_ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


@st.composite
def qaoa_cases(draw):
    """Any simple graph on 2-12 nodes, regular or not, with p = 1-3."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    p = draw(st.integers(min_value=1, max_value=3))
    gamma = draw(st.lists(_ANGLES, min_size=p, max_size=p))
    beta = draw(st.lists(_ANGLES, min_size=p, max_size=p))
    return Graph.from_edges(n, edges), QaoaParams(tuple(gamma), tuple(beta))


@settings(max_examples=80, deadline=None)
@given(qaoa_cases())
def test_probabilities_match_the_evolved_circuit(case):
    graph, params = case
    got = qaoa.probabilities(graph, params)
    want = simulator._evolve(build_qaoa_circuit(graph, params))
    assert got.shape == want.shape == graph.cuts.shape
    assert np.abs(got - want).max() <= 1e-12
    assert abs(got.sum() - 1.0) <= 1e-12


# --- optimizer ----------------------------------------------------------------


def test_optimize_respects_budget():
    backend = BackendModel("hw", NoiseModel.symmetric(0.02))
    g = Graph.from_edges(2, [(0, 1)])
    record = optimize(backend, g, iterations=17, shots_per_iter=50, seed=0)
    assert len(record.trace) == 17
    assert record.cmax == 1
    assert 0.0 <= record.ar <= 1.0
    assert record.best_expectation == pytest.approx(max(record.trace))


def test_optimize_deterministic():
    backend = BackendModel("hw", NoiseModel.symmetric(0.02), drift=0.01)
    g = c4()
    a = optimize(backend, g, iterations=20, seed=9)
    b = optimize(backend, g, iterations=20, seed=9)
    assert a.trace == b.trace
    assert a.best_params == b.best_params


def test_optimize_warm_start_used():
    backend = BackendModel("hw", NoiseModel())
    g = Graph.from_edges(2, [(0, 1)])
    init = QaoaParams((3 * math.pi / 4,), (math.pi / 8,))  # the exact optimum
    record = optimize(backend, g, iterations=5, shots_per_iter=200, seed=0,
                      init_params=init)
    # the first evaluation is the warm-start point itself
    assert record.trace[0] >= 0.9


def _count_evolves(monkeypatch) -> list[int]:
    calls = [0]
    original = simulator._evolve

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, "_evolve", counting)
    return calls


def test_optimize_evolves_no_gates_without_gate_noise(monkeypatch):
    calls = _count_evolves(monkeypatch)
    rogue = TamperSpec(TamperMode.RANDOM_ALL, 0.3)
    backend = BackendModel("hw", NoiseModel.symmetric(0.02), rogue, drift=0.01)
    record = optimize(backend, c4(), iterations=12, seed=3)
    assert len(record.trace) == 12
    assert calls == [0]
    # gate-noise trajectories still evolve the built circuit
    noisy = BackendModel("noisy", NoiseModel(gate_depolarizing=0.05))
    optimize(noisy, c4(), iterations=3, seed=3)
    assert calls[0] > 0


_RECORD_BACKENDS = (
    BackendModel("ideal", NoiseModel()),
    BackendModel(
        "rogue", NoiseModel.symmetric(0.02), TamperSpec(TamperMode.RANDOM_ALL, 0.3)
    ),
    BackendModel("noisy", NoiseModel(gate_depolarizing=0.003)),
)


@pytest.mark.parametrize("seed", [0, 31, 412])
def test_records_equal_those_of_the_circuit_objective(monkeypatch, seed):
    # not regular: node 5 has degree 1, node 2 degree 3
    graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)])
    config = QaoaConfig(p=2, iterations=36, shots_per_iter=50)

    def records():
        return (
            [optimize(b, graph, 1, 8, 50, seed) for b in _RECORD_BACKENDS],
            [
                qaoa_iteration_split(a, b, graph, config, seed)
                for a, b in zip(_RECORD_BACKENDS, _RECORD_BACKENDS[1:])
            ],
            qaoa_adaptive(list(_RECORD_BACKENDS), graph, config, 3, 2, seed),
        )

    vector = records()
    monkeypatch.setattr(qaoa._Objective, "__call__", circuit_objective)
    assert records() == vector


def test_optimize_rejects_bad_budget():
    backend = BackendModel("hw", NoiseModel())
    with pytest.raises(ValueError):
        optimize(backend, c4(), iterations=0)
