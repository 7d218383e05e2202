import pytest

from qtrust.benchmarks import (
    BENCHMARK_NAMES,
    LARGE_BENCHMARK_NAMES,
    UnknownBenchmark,
    builtin,
)
from qtrust.metrics import Counts
from qtrust.simulator import prepare

ALL_NAMES = BENCHMARK_NAMES + LARGE_BENCHMARK_NAMES


def test_name_inventory():
    assert set(BENCHMARK_NAMES) == {
        "grover_n2",
        "grover_n3",
        "fredkin_n3",
        "toffoli_n3",
        "adder_n4",
        "inverseqft_n4",
        "hs4_n4",
    }
    assert set(LARGE_BENCHMARK_NAMES) == {"adder_n10", "multiply_n13"}


def test_unknown_name():
    with pytest.raises(UnknownBenchmark):
        builtin("no_such_bench")


def test_large_flag_gates_lookup():
    assert builtin("adder_n10").circuit.name == "adder_n10"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_is_named_by_its_circuit(name):
    assert builtin(name).circuit.name == name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expected_output_dominates(name):
    """The declared answer is the unique mode with probability >= 0.9."""
    bench = builtin(name)
    dist = Counts(prepare(bench.circuit).ideal)
    assert dist[bench.expected_output] >= 0.9
    others = [p for k, p in dist.items() if k != bench.expected_output]
    assert all(p < dist[bench.expected_output] for p in others)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expected_output_width_matches_measured_bits(name):
    bench = builtin(name)
    assert len(bench.expected_output) == bench.circuit.num_measured


def test_exact_benchmarks_are_deterministic():
    # everything except grover_n3 produces its answer with certainty
    for name in ALL_NAMES:
        if name == "grover_n3":
            continue
        bench = builtin(name)
        dist = Counts(prepare(bench.circuit).ideal)
        assert dist[bench.expected_output] == pytest.approx(1.0, abs=1e-9)


def test_grover_n3_amplitude():
    dist = Counts(prepare(builtin("grover_n3").circuit).ideal)
    # two iterations on 3 qubits: sin^2(5 asin(1/sqrt 8)) ~ 0.9453
    assert dist["111"] == pytest.approx(0.9453, abs=5e-4)


def test_adder_n10_is_five_plus_six():
    bench = builtin("adder_n10")
    # cout=q9 ... sum bits q4..q1, a restored to 5 on q8..q5, cin q0
    assert bench.expected_output == "0010110110"


def test_multiply_n13_product():
    bench = builtin("multiply_n13")
    # product bits q9..q5 read 01111 = 15 = 3 * 5
    assert bench.expected_output[3:8] == "01111"
