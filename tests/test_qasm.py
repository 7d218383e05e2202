import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrust import qasm
from qtrust.circuit import (
    CapacityExceeded,
    Circuit,
    CircuitError,
    GateKind,
    Instruction,
)
from qtrust.metrics import Counts
from qtrust.qasm import (
    QasmError,
    QasmIndexError,
    QasmSyntaxError,
    UnsupportedGateError,
    circuit_to_qasm,
    parse_qasm,
)
from qtrust.simulator import prepare

DATA = Path(__file__).parent / "data"


def test_bell_file():
    circuit = parse_qasm((DATA / "bell.qasm").read_text(), name="bell")
    assert circuit.num_qubits == 2
    assert circuit.num_measured == 2
    dist = Counts(prepare(circuit).ideal)
    assert dist["00"] == pytest.approx(0.5)
    assert dist["11"] == pytest.approx(0.5)


def test_qft_file_with_macro():
    """QFT applied to |0101> (x on q0 and q2); checks cu1 macro expansion."""
    circuit = parse_qasm((DATA / "qft4.qasm").read_text())
    dist = Counts(prepare(circuit).ideal)
    # QFT of a basis state is a flat superposition
    assert len(dist) == 16
    for p in dist.values():
        assert p == pytest.approx(1 / 16, abs=1e-9)


def test_header_optional():
    circuit = parse_qasm("qreg q[1]; creg c[1]; x q[0]; measure q[0] -> c[0];")
    assert Counts(prepare(circuit).ideal)["1"] == pytest.approx(1.0)


def test_expression_arithmetic():
    source = """
    qreg q[1]; creg c[1];
    rx(2*pi/4 + 0*sin(1.0)) q[0];
    measure q[0] -> c[0];
    """
    dist = Counts(prepare(parse_qasm(source)).ideal)
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
    dist = Counts(prepare(circuit).ideal)
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


def test_id_inside_gate_body_is_a_no_op():
    # qelib1.inc defines id as a gate, so a macro may apply it
    source = "gate g a { id a; x a; } qreg q[1]; creg c[1]; g q[0]; measure q -> c;"
    circuit = parse_qasm(source)
    assert circuit.gate_count() == 1
    assert Counts(prepare(circuit).ideal)["1"] == pytest.approx(1.0)


def test_id_cannot_be_redefined():
    # a user `id` would be parsed, then silently skipped when applied
    with pytest.raises(QasmSyntaxError, match="gate 'id' redefined"):
        parse_qasm("gate id a { x a; } qreg q[1]; id q[0];")


def test_u_and_cx_builtin_spellings():
    source = "qreg q[2]; creg c[2]; U(pi,0,pi) q[0]; CX q[0], q[1]; measure q -> c;"
    dist = Counts(prepare(parse_qasm(source)).ideal)
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
        a, b = Counts(prepare(circuit).ideal), Counts(prepare(again).ideal)
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


DEEP = 3000
BAD_EXPRESSIONS = {
    "division_by_zero": "1/0",
    "log_of_negative": "ln(-1)",
    "sqrt_of_negative": "sqrt(-1)",
    "power_overflow": "2.0^2000",
    "exp_overflow": "exp(1000)",
    "fractional_power_of_negative": "(-8)^(1/3)",
    "infinite_literal": "1e400",
    "nan": "1e400 - 1e400",
    "nested_parentheses": "(" * DEEP + "1" + ")" * DEEP,
    "unary_minuses": "-" * DEEP + "1",
    "power_chain": "^".join(["1"] * DEEP),
}


@pytest.mark.parametrize("expr", BAD_EXPRESSIONS.values(), ids=list(BAD_EXPRESSIONS))
def test_bad_expression_is_a_syntax_error_at_its_line(expr):
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(f"qreg q[1];\nrx({expr}) q[0];")
    assert err.value.line == 2


def test_bad_expression_in_gate_body_reports_the_body_line():
    source = "gate inv(a) b {\n  rx(1/a) b;\n}\nqreg q[1];\ninv(0) q[0];"
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(source)
    assert err.value.line == 2


def test_long_sums_and_shallow_nesting_evaluate():
    terms = "+".join(["1"] * DEEP)
    nested = "(" * 40 + "-2^2" + ")" * 40
    circuit = parse_qasm(f"qreg q[1]; u2({terms}, {nested}) q[0];")
    assert circuit.instructions[0].params == (float(DEEP), -4.0)


@pytest.mark.parametrize(
    "source",
    ["x(", "gate g(", "gate g a { x(", "gate g a { barrier a", "qreg q[2]; x q["],
)
def test_end_of_input_is_a_syntax_error(source):
    with pytest.raises(QasmSyntaxError, match="unexpected end of input"):
        parse_qasm(source)


@pytest.mark.parametrize("index", ["1e3", "1e0", "1.0"])
def test_index_must_be_plain_digits(index):
    with pytest.raises(QasmSyntaxError, match="index must be an integer"):
        parse_qasm(f"qreg q[2]; x q[{index}];")


def test_huge_index_is_a_qasm_error():
    with pytest.raises(QasmError):  # past int()'s digit limit, where it has one
        parse_qasm("qreg q[2]; x q[" + "9" * 5000 + "];")


def test_every_error_carries_its_line():
    cases = [
        ("qreg q[2];\nx q[5];", QasmIndexError, 2),
        ("qreg q[1];\n\nfoo q[0];", UnsupportedGateError, 3),
        ("gate g a {\n  bar a;\n}", UnsupportedGateError, 2),
    ]
    for source, kind, line in cases:
        with pytest.raises(kind) as err:
            parse_qasm(source)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")


def test_register_capacity_checked_at_declaration():
    # raised at the declaration, before the unknown gate that follows it
    with pytest.raises(CapacityExceeded, match="25 qubits exceeds the 24-qubit"):
        parse_qasm("qreg q[20]; qreg r[5]; foo q[0];")
    # so no instruction of a huge broadcast is ever built
    with pytest.raises(CapacityExceeded, match="100000000 qubits"):
        parse_qasm("qreg q[100000000]; creg c[100000000]; h q; measure q -> c;")
    assert parse_qasm("qreg q[24]; creg c[100];").num_qubits == 24


def _doubling_macros(levels: int) -> str:
    """Gate g{levels} expands to 2^(levels + 1) x instructions."""
    lines = ["qreg q[1];", "gate g0 a { x a; x a; }"]
    for i in range(1, levels + 1):
        lines.append(f"gate g{i} a {{ g{i - 1} a; g{i - 1} a; }}")
    return "\n".join(lines + [f"g{levels} q[0];"])


def test_macro_expansion_capped_before_building():
    # 131 072 instructions: raised at the application's line, not built
    with pytest.raises(CapacityExceeded, match="line 19: g16 would take"):
        parse_qasm(_doubling_macros(16))
    # 2^32 instructions: fails at once instead of running for hours
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match="100000-instruction guard"):
        parse_qasm(_doubling_macros(31))
    assert time.perf_counter() - start < 1.0


def test_instruction_cap_counts_the_whole_circuit(monkeypatch):
    monkeypatch.setattr(qasm, "MAX_INSTRUCTIONS", 6)
    macro = "gate two a { x a; x a; } qreg q[2]; "
    assert len(parse_qasm(macro + "two q; id q; h q[0]; h q[1];").instructions) == 6
    with pytest.raises(CapacityExceeded, match="line 1: h would take the circuit to 7"):
        parse_qasm(macro + "two q; h q; h q[0];")


# --- robustness: malformed input raises QasmError or CircuitError -------

MACRO_SOURCE = """OPENQASM 2.0;
include "qelib1.inc";
gate rot(theta, phi) a { rx(theta) a; barrier a; rz(-phi^2 / 2 + sin(theta)) a; }
gate pair(theta) a, b { rot(theta, pi) a; cx a, b; rot(2*theta, ln(2)) b; }
qreg q[3];
qreg r[3];
creg c[3];
creg d[1];
pair(pi/4) q, r;
barrier q, r[1];
u3(0.1, -0.2, 1e-3) q[2];
measure r -> c;
measure q[0] -> d[0];
"""

FUZZ_SOURCES = [
    (DATA / "bell.qasm").read_text(),
    (DATA / "qft4.qasm").read_text(),
    MACRO_SOURCE,
]

# a token split independent of the parser's own tokenizer
_TOKEN = re.compile(r'//[^\n]*|"[^"]*"|->|\d*\.?\d+(?:[eE][+-]?\d+)?|\w+|\S')


def _parses_or_rejects(source):
    """The contract callers rely on: a Circuit, QasmError or CircuitError."""
    try:
        parse_qasm(source)
    except (QasmError, CircuitError):
        pass


def test_fuzz_sources_parse():
    for source in FUZZ_SOURCES:
        parse_qasm(source)


@pytest.mark.parametrize("index", range(len(FUZZ_SOURCES)))
def test_every_token_prefix_parses_or_rejects(index):
    source = FUZZ_SOURCES[index]
    ends = [m.end() for m in _TOKEN.finditer(source)]
    assert len(ends) > 20
    for end in ends:
        _parses_or_rejects(source[:end])


@pytest.mark.parametrize("index", range(len(FUZZ_SOURCES)))
def test_every_single_token_replacement_parses_or_rejects(index):
    source = FUZZ_SOURCES[index]
    for m in _TOKEN.finditer(source):
        for word in ("0", "1e400", "-", "(", ";"):
            _parses_or_rejects(source[: m.start()] + word + source[m.end() :])


VOCABULARY = (
    "( ) [ ] { } ; , -> ^ / - * + 0 1 1e3 1e400 pi ln sqrt gate barrier measure "
    "q r c a x cx rot cu1 qreg creg"
).split()


@st.composite
def mutated_sources(draw):
    """A fuzz source with tokens deleted, duplicated, swapped or replaced."""
    source = draw(st.sampled_from(FUZZ_SOURCES))
    tokens = [t for t in _TOKEN.findall(source) if not t.startswith("//")]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(VOCABULARY))
    return " ".join(tokens)


@settings(max_examples=400, deadline=None)
@given(mutated_sources())
def test_mutated_sources_parse_or_reject(source):
    _parses_or_rejects(source)
