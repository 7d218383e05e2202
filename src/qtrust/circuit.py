"""Gate-level circuit IR shared by the parser, the simulator and the
builtin benchmark constructions.

Bitstring convention used everywhere: the leftmost character of a key is
the highest-indexed qubit, i.e. "q_{n-1} ... q_1 q_0".
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

MAX_QUBITS = 24


class CircuitError(ValueError):
    """Structurally invalid circuit."""


class CapacityExceeded(CircuitError):
    """Circuit exceeds the dense-statevector capacity guard."""


class GateKind(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    CCX = "ccx"
    BARRIER = "barrier"
    MEASURE = "measure"

    @property
    def arity(self) -> int:
        if self in (GateKind.CX, GateKind.CZ, GateKind.SWAP):
            return 2
        if self is GateKind.CCX:
            return 3
        return 1

    @property
    def num_params(self) -> int:
        return _NUM_PARAMS.get(self, 0)


_NUM_PARAMS = {
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.U1: 1,
    GateKind.U2: 2,
    GateKind.U3: 3,
}


@dataclass(frozen=True)
class Instruction:
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    def __post_init__(self):
        if self.kind is GateKind.BARRIER and not self.qubits:
            raise CircuitError("barrier needs at least one qubit")
        if self.kind is not GateKind.BARRIER and len(self.qubits) != self.kind.arity:
            raise CircuitError(
                f"{self.kind.value} expects {self.kind.arity} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit in {self.kind.value} {self.qubits}")
        if len(self.params) != self.kind.num_params:
            raise CircuitError(
                f"{self.kind.value} expects {self.kind.num_params} parameter(s), "
                f"got {len(self.params)}"
            )
        if self.kind is GateKind.MEASURE and self.clbit is None:
            raise CircuitError("measure requires a classical bit")
        if self.kind is not GateKind.MEASURE and self.clbit is not None:
            raise CircuitError(f"{self.kind.value} cannot carry a classical bit")


def check_measure_rules(instr: Instruction, measured: set, written: set) -> None:
    """Check ``instr``, following instructions that measured the qubits
    ``measured`` into the clbits ``written``, against the measure-last rule
    and the distinct measure map; a measurement joins both sets."""
    if instr.kind is GateKind.MEASURE:
        if instr.qubits[0] in measured or instr.clbit in written:
            raise CircuitError(
                "measurements must map distinct qubits to distinct clbits"
            )
        measured.add(instr.qubits[0])
        written.add(instr.clbit)
    elif measured and not measured.isdisjoint(instr.qubits):
        # no set work until a qubit is measured
        if instr.kind is not GateKind.BARRIER:
            raise CircuitError("gate after measurement is unsupported")


@dataclass(frozen=True)
class Circuit:
    """Immutable instruction list; no gate may act on a measured qubit."""

    num_qubits: int
    num_clbits: int
    instructions: tuple[Instruction, ...]
    name: str = ""

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        if self.num_qubits > MAX_QUBITS:
            raise CapacityExceeded(
                f"{self.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit guard"
            )
        if self.num_clbits < 0:
            raise CircuitError("negative classical bit count")
        measured, written = set(), set()
        for instr in self.instructions:
            for q in instr.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(f"qubit index {q} out of range")
            if instr.kind is GateKind.MEASURE:
                if not 0 <= instr.clbit < self.num_clbits:
                    raise CircuitError(f"clbit index {instr.clbit} out of range")
            if measured or instr.kind is GateKind.MEASURE:  # no rule applies before one
                check_measure_rules(instr, measured, written)

    @cached_property
    def measured_pairs(self) -> tuple[tuple[int, int], ...]:
        """(qubit, clbit) pairs sorted by clbit descending (output bit order)."""
        pairs = [
            (i.qubits[0], i.clbit)
            for i in self.instructions
            if i.kind is GateKind.MEASURE
        ]
        return tuple(sorted(pairs, key=lambda p: -p[1]))

    @property
    def num_measured(self) -> int:
        return len(self.measured_pairs)

    @cached_property
    def gates(self) -> tuple[tuple[int, Instruction], ...]:
        """(instruction index, instruction) of each gate, in circuit order."""
        listed = enumerate(self.instructions)
        skip = (GateKind.BARRIER, GateKind.MEASURE)
        return tuple((i, instr) for i, instr in listed if instr.kind not in skip)

    def gate_count(self) -> int:
        return len(self.gates)

    def depth(self) -> int:
        """Greedy layering depth over gates and measurements."""
        level = [0] * self.num_qubits
        for instr in self.instructions:
            if instr.kind is GateKind.BARRIER:
                continue
            d = 1 + max(level[q] for q in instr.qubits)
            for q in instr.qubits:
                level[q] = d
        return max(level, default=0)


class CircuitBuilder:
    """Mutable builder; produces an immutable Circuit."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = ""):
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self._instructions: list[Instruction] = []

    def gate(self, kind: GateKind, *qubits: int, params=()) -> "CircuitBuilder":
        if kind is GateKind.BARRIER and not qubits:
            qubits = tuple(range(self.num_qubits))  # as QASM's "barrier q;"
        self._instructions.append(
            Instruction(kind, tuple(qubits), tuple(float(p) for p in params))
        )
        return self

    def measure(self, qubit: int, clbit: int) -> "CircuitBuilder":
        self._instructions.append(
            Instruction(GateKind.MEASURE, (qubit,), clbit=clbit)
        )
        return self

    def measure_all(self) -> "CircuitBuilder":
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def build(self) -> Circuit:
        return Circuit(
            self.num_qubits, self.num_clbits, tuple(self._instructions), self.name
        )
