import pytest

from qtrust.circuit import (
    MAX_QUBITS,
    CapacityExceeded,
    Circuit,
    CircuitBuilder,
    CircuitError,
    GateKind,
    Instruction,
)


def test_instruction_arity_enforced():
    with pytest.raises(CircuitError):
        Instruction(GateKind.CX, (0,))
    with pytest.raises(CircuitError):
        Instruction(GateKind.H, (0, 1))


def test_instruction_rejects_duplicate_qubits():
    with pytest.raises(CircuitError):
        Instruction(GateKind.CX, (2, 2))


def test_empty_barrier_rejected():
    # it would serialize as "barrier ;", which the QASM parser rejects
    with pytest.raises(CircuitError):
        Instruction(GateKind.BARRIER, ())
    (barrier,) = CircuitBuilder(3).gate(GateKind.BARRIER).build().instructions
    assert barrier.qubits == (0, 1, 2)


def test_instruction_param_count():
    Instruction(GateKind.RZ, (0,), (0.5,))
    with pytest.raises(CircuitError):
        Instruction(GateKind.RZ, (0,))
    with pytest.raises(CircuitError):
        Instruction(GateKind.H, (0,), (1.0,))


def test_measure_needs_clbit():
    with pytest.raises(CircuitError):
        Instruction(GateKind.MEASURE, (0,))
    with pytest.raises(CircuitError):
        Instruction(GateKind.X, (0,), clbit=0)


def test_capacity_guard():
    with pytest.raises(CapacityExceeded):
        Circuit(MAX_QUBITS + 1, 0, ())
    # boundary value is fine
    Circuit(MAX_QUBITS, 0, ())


def test_out_of_range_qubit_rejected():
    with pytest.raises(CircuitError):
        Circuit(2, 0, (Instruction(GateKind.H, (2,)),))


def test_measure_map_must_be_injective():
    b = CircuitBuilder(2, 2)
    b.measure(0, 0)
    b.measure(0, 1)
    with pytest.raises(CircuitError):
        b.build()
    b = CircuitBuilder(2, 2)
    b.measure(0, 0)
    b.measure(1, 0)
    with pytest.raises(CircuitError):
        b.build()


def test_measured_pairs_ordered_by_clbit_descending():
    b = CircuitBuilder(3, 2)
    b.measure(0, 1)
    b.measure(2, 0)
    c = b.build()
    assert c.measured_pairs == ((0, 1), (2, 0))
    assert c.num_measured == 2


def test_gate_count_ignores_measure_and_barrier():
    b = CircuitBuilder(2)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.BARRIER)
    b.gate(GateKind.CX, 0, 1)
    b.measure_all()
    c = b.build()
    assert c.gate_count() == 2


def test_depth_layering():
    b = CircuitBuilder(3)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.H, 1)  # parallel with the first H
    b.gate(GateKind.CX, 0, 1)
    b.gate(GateKind.H, 2)  # parallel with everything
    c = b.build()
    assert c.depth() == 2


def test_builder_measure_all_grows_clbits():
    c = CircuitBuilder(3).measure_all().build()
    assert c.num_clbits == 3
    assert c.measured_pairs == ((2, 2), (1, 1), (0, 0))
