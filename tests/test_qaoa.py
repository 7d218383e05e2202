import math
import random

import pytest

from qtrust.backend import BackendModel, NoiseModel
from qtrust.circuit import CapacityExceeded, GateKind
from qtrust.metrics import Counts, to_vector
from qtrust.qaoa import (
    Graph,
    GraphError,
    InfeasibleDegree,
    LengthMismatch,
    QaoaParams,
    build_qaoa_circuit,
    cmax,
    cut_value,
    exact_expectation,
    expectation,
    optimize,
    random_regular_graph,
)
from qtrust.simulator import run_statevector

from oracles import string_cut_value


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
    assert {key: cut_value(key, graph) for key in keys} == cut
    observed = sorted(rng.sample(keys, min(len(keys), 40)))  # key order
    counts = {key: rng.randint(1, 500) for key in observed}
    want = sum(c * cut[key] for key, c in counts.items()) / sum(counts.values())
    assert expectation(counts, graph) == want
    assert expectation(Counts(to_vector(counts)), graph) == want
    dist = {key: rng.random() for key in observed}
    assert exact_expectation(dist, graph) == sum(p * cut[k] for k, p in dist.items())


def test_cmax_capacity_guard():
    with pytest.raises(CapacityExceeded):
        cmax(Graph.from_edges(25, [(0, 1)]))


def test_expectation_shot_weighted():
    g = Graph.from_edges(2, [(0, 1)])
    assert expectation({"01": 3, "00": 1}, g) == pytest.approx(0.75)
    with pytest.raises(LengthMismatch):
        expectation({}, g)


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
    dist = run_statevector(circuit)
    for p in dist.values():
        assert p == pytest.approx(1 / 16, abs=1e-9)


def test_exact_expectation_uniform_equals_half_edges():
    # uniform sampling cuts each edge with probability 1/2
    g = c4()
    circuit = build_qaoa_circuit(g, QaoaParams((0.0,), (0.0,)))
    value = exact_expectation(run_statevector(circuit), g)
    assert value == pytest.approx(len(g.edges) / 2)


def test_single_edge_p1_analytic_expectation():
    # E(gamma, beta) = (1 - sin(2 gamma) sin(4 beta)) / 2 for one edge
    g = Graph.from_edges(2, [(0, 1)])
    for gamma, beta in ((0.5, 0.3), (1.2, 0.7), (3 * math.pi / 4, math.pi / 8)):
        circuit = build_qaoa_circuit(g, QaoaParams((gamma,), (beta,)))
        value = exact_expectation(run_statevector(circuit), g)
        expected = 0.5 * (1.0 - math.sin(2 * gamma) * math.sin(4 * beta))
        assert value == pytest.approx(expected, abs=1e-9)


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


def test_optimize_rejects_bad_budget():
    backend = BackendModel("hw", NoiseModel())
    with pytest.raises(ValueError):
        optimize(backend, c4(), iterations=0)
