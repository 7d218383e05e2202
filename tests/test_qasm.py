import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrust.circuit import Circuit, GateKind, Instruction
from qtrust.qasm import (
    QasmIndexError,
    QasmSyntaxError,
    UnsupportedGateError,
    circuit_to_qasm,
    parse_qasm,
)
from qtrust.simulator import run_statevector

DATA = Path(__file__).parent / "data"


def test_bell_file():
    circuit = parse_qasm((DATA / "bell.qasm").read_text(), name="bell")
    assert circuit.num_qubits == 2
    assert circuit.num_measured == 2
    dist = run_statevector(circuit)
    assert dist["00"] == pytest.approx(0.5)
    assert dist["11"] == pytest.approx(0.5)


def test_qft_file_with_macro():
    """QFT applied to |0101> (x on q0 and q2); checks cu1 macro expansion."""
    circuit = parse_qasm((DATA / "qft4.qasm").read_text())
    dist = run_statevector(circuit)
    # QFT of a basis state is a flat superposition
    assert len(dist) == 16
    for p in dist.values():
        assert p == pytest.approx(1 / 16, abs=1e-9)


def test_header_optional():
    circuit = parse_qasm("qreg q[1]; creg c[1]; x q[0]; measure q[0] -> c[0];")
    assert run_statevector(circuit)["1"] == pytest.approx(1.0)


def test_expression_arithmetic():
    source = """
    qreg q[1]; creg c[1];
    rx(2*pi/4 + 0*sin(1.0)) q[0];
    measure q[0] -> c[0];
    """
    dist = run_statevector(parse_qasm(source))
    # rx(pi/2) puts the qubit on the equator
    assert dist["0"] == pytest.approx(0.5, abs=1e-9)


def test_unary_minus_and_power():
    source = "qreg q[1]; creg c[1]; u1(-pi^2) q[0]; measure q[0] -> c[0];"
    circuit = parse_qasm(source)
    (instr,) = [i for i in circuit.instructions if i.kind is GateKind.U1]
    assert instr.params[0] == pytest.approx(-math.pi**2)


def test_broadcast_single_qubit_gate():
    circuit = parse_qasm("qreg q[3]; creg c[3]; h q; measure q -> c;")
    assert sum(1 for i in circuit.instructions if i.kind is GateKind.H) == 3


def test_broadcast_mixed_register_and_bit():
    # cx q, r[0] with |q|=2 is a size mismatch under our broadcast rules
    circuit = parse_qasm(
        "qreg q[2]; qreg r[2]; creg c[2];"
        "x q[0]; cx q[0], r; measure r -> c;"
    )
    dist = run_statevector(circuit)
    assert dist["11"] == pytest.approx(1.0)


def test_broadcast_size_mismatch_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2]; qreg r[3]; cx q, r;")


def test_gate_macro_with_params():
    source = """
    gate rot(theta) a { rx(theta) a; rz(theta) a; }
    qreg q[1]; creg c[1];
    rot(pi) q[0];
    measure q[0] -> c[0];
    """
    circuit = parse_qasm(source)
    kinds = [i.kind for i in circuit.instructions]
    assert GateKind.RX in kinds and GateKind.RZ in kinds


def test_gate_macro_nesting():
    source = """
    gate inner a, b { cx a, b; }
    gate outer a, b { inner a, b; inner b, a; }
    qreg q[2]; creg c[2];
    outer q[0], q[1];
    measure q -> c;
    """
    circuit = parse_qasm(source)
    assert circuit.gate_count() == 2


def test_recursive_gate_rejected():
    source = "gate loop a { loop a; } qreg q[1]; loop q[0];"
    with pytest.raises(UnsupportedGateError):
        parse_qasm(source)


def test_unknown_gate_rejected():
    with pytest.raises(UnsupportedGateError):
        parse_qasm("qreg q[1]; foo q[0];")


def test_unsupported_statements_rejected():
    for stmt in ("if (c == 1) x q[0];", "reset q[0];", "opaque mystery a;"):
        with pytest.raises(QasmSyntaxError):
            parse_qasm(f"qreg q[1]; creg c[1]; {stmt}")


def test_index_out_of_range():
    with pytest.raises(QasmIndexError):
        parse_qasm("qreg q[2]; x q[5];")


def test_index_error_is_also_index_error():
    with pytest.raises(IndexError):
        parse_qasm("qreg q[2]; x q[5];")


def test_syntax_error_carries_line_number():
    source = "qreg q[1];\ncreg c[1];\nx q[0]\nmeasure q[0] -> c[0];"
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(source)
    assert err.value.line == 4  # missing semicolon noticed at 'measure'


def test_redefined_register_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; qreg q[2];")


def test_id_gate_is_a_no_op():
    circuit = parse_qasm("qreg q[1]; creg c[1]; id q[0]; measure q[0] -> c[0];")
    assert circuit.gate_count() == 0


def test_u_and_cx_builtin_spellings():
    source = "qreg q[2]; creg c[2]; U(pi,0,pi) q[0]; CX q[0], q[1]; measure q -> c;"
    dist = run_statevector(parse_qasm(source))
    assert dist["11"] == pytest.approx(1.0, abs=1e-9)


def test_barrier_accepted_and_ignored_in_depth():
    circuit = parse_qasm(
        "qreg q[2]; creg c[2]; h q[0]; barrier q; h q[1]; measure q -> c;"
    )
    assert circuit.depth() == 2  # the two h gates can still share a layer


def test_measure_register_size_mismatch():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2]; creg c[3]; measure q -> c;")


def test_round_trip_preserves_semantics():
    for path in ("bell.qasm", "qft4.qasm"):
        circuit = parse_qasm((DATA / path).read_text())
        again = parse_qasm(circuit_to_qasm(circuit))
        a, b = run_statevector(circuit), run_statevector(again)
        for key in set(a) | set(b):
            assert a.get(key, 0.0) == pytest.approx(b.get(key, 0.0), abs=1e-12)


def test_round_trip_float_params_exact():
    source = "qreg q[1]; creg c[1]; rz(0.12345678901234567) q[0]; measure q[0] -> c[0];"
    circuit = parse_qasm(source)
    again = parse_qasm(circuit_to_qasm(circuit))
    assert circuit.instructions == again.instructions


@st.composite
def circuits(draw):
    """Valid circuits over every gate kind, barriers and measurements."""
    n = draw(st.integers(1, 5))
    clbits = draw(st.integers(0, 5))
    kinds = [
        k for k in GateKind
        if k is GateKind.BARRIER or (k is not GateKind.MEASURE and k.arity <= n)
    ]
    angles = st.floats(allow_nan=False, allow_infinity=False)
    instructions = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        qubits = draw(st.permutations(range(n)))
        width = draw(st.integers(1, n)) if kind is GateKind.BARRIER else kind.arity
        params = tuple(draw(angles) for _ in range(kind.num_params))
        instructions.append(Instruction(kind, tuple(qubits[:width]), params))
    # distinct qubits onto distinct clbits, anywhere in the program
    measured = draw(st.integers(0, min(n, clbits)))
    qubits = draw(st.permutations(range(n)))[:measured]
    targets = draw(st.permutations(range(clbits)))[:measured]
    for q, c in zip(qubits, targets):
        at = draw(st.integers(0, len(instructions)))
        instructions.insert(at, Instruction(GateKind.MEASURE, (q,), clbit=c))
    return Circuit(n, clbits, tuple(instructions))


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_round_trip_property(circuit):
    assert parse_qasm(circuit_to_qasm(circuit)) == circuit


@pytest.mark.parametrize("angle", [-0.0, 5e-324, 1e20, -1.5e-7])
def test_round_trip_edge_params(angle):
    circuit = Circuit(1, 0, (Instruction(GateKind.RZ, (0,), (angle,)),))
    again = parse_qasm(circuit_to_qasm(circuit))
    assert again == circuit
    assert math.copysign(1.0, again.instructions[0].params[0]) == math.copysign(
        1.0, angle
    )
