"""Builtin benchmark circuits with deterministic expected outputs.

These are canonical constructions (not verbatim QASMBench sources): each
yields its expected bitstring as the unique most-probable outcome of a
noise-free run with probability >= 0.9. External QASM files remain
loadable through qasm.parse_qasm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, CircuitBuilder, GateKind


class UnknownBenchmark(KeyError):
    pass


@dataclass(frozen=True)
class Benchmark:
    circuit: Circuit
    expected_output: str


def _cu1(b: CircuitBuilder, lam: float, control: int, target: int) -> None:
    b.gate(GateKind.U1, control, params=(lam / 2,))
    b.gate(GateKind.CX, control, target)
    b.gate(GateKind.U1, target, params=(-lam / 2,))
    b.gate(GateKind.CX, control, target)
    b.gate(GateKind.U1, target, params=(lam / 2,))


def _ccz(b: CircuitBuilder, q0: int, q1: int, q2: int) -> None:
    b.gate(GateKind.H, q2)
    b.gate(GateKind.CCX, q0, q1, q2)
    b.gate(GateKind.H, q2)


def _maj(b: CircuitBuilder, c: int, s: int, a: int) -> None:
    b.gate(GateKind.CX, a, s)
    b.gate(GateKind.CX, a, c)
    b.gate(GateKind.CCX, c, s, a)


def _uma(b: CircuitBuilder, c: int, s: int, a: int) -> None:
    b.gate(GateKind.CCX, c, s, a)
    b.gate(GateKind.CX, a, c)
    b.gate(GateKind.CX, c, s)


def _toffoli_n3() -> Benchmark:
    b = CircuitBuilder(3, name="toffoli_n3")
    b.gate(GateKind.X, 0)
    b.gate(GateKind.X, 1)
    b.gate(GateKind.CCX, 0, 1, 2)
    b.measure_all()
    return Benchmark(b.build(), "111")


def _fredkin_n3() -> Benchmark:
    # controlled-SWAP on prepared |1>|1>|0>; CSWAP = CX;CCX;CX
    b = CircuitBuilder(3, name="fredkin_n3")
    b.gate(GateKind.X, 0)
    b.gate(GateKind.X, 1)
    b.gate(GateKind.CX, 2, 1)
    b.gate(GateKind.CCX, 0, 1, 2)
    b.gate(GateKind.CX, 2, 1)
    b.measure_all()
    return Benchmark(b.build(), "101")


def _grover_n2() -> Benchmark:
    # one Grover iteration marking |11>; exact on 2 qubits
    b = CircuitBuilder(2, name="grover_n2")
    b.gate(GateKind.H, 0)
    b.gate(GateKind.H, 1)
    b.gate(GateKind.CZ, 0, 1)
    for q in (0, 1):
        b.gate(GateKind.H, q)
        b.gate(GateKind.Z, q)
    b.gate(GateKind.CZ, 0, 1)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.H, 1)
    b.measure_all()
    return Benchmark(b.build(), "11")


def _grover_n3() -> Benchmark:
    # two Grover iterations marking |111>; P(111) ~ 0.945
    b = CircuitBuilder(3, name="grover_n3")
    for q in range(3):
        b.gate(GateKind.H, q)
    for _ in range(2):
        _ccz(b, 0, 1, 2)  # oracle
        for q in range(3):
            b.gate(GateKind.H, q)
        for q in range(3):
            b.gate(GateKind.X, q)
        _ccz(b, 0, 1, 2)
        for q in range(3):
            b.gate(GateKind.X, q)
        for q in range(3):
            b.gate(GateKind.H, q)
    b.measure_all()
    return Benchmark(b.build(), "111")


def _adder_n4() -> Benchmark:
    # 1-bit ripple-carry (MAJ/UMA): cin=q0, sum/b=q1, a=q2, cout=q3
    # operands a=1, b=1 -> sum 0, carry 1
    b = CircuitBuilder(4, name="adder_n4")
    b.gate(GateKind.X, 1)
    b.gate(GateKind.X, 2)
    _maj(b, 0, 1, 2)
    b.gate(GateKind.CX, 2, 3)
    _uma(b, 0, 1, 2)
    b.measure_all()
    return Benchmark(b.build(), "1100")


def _inverseqft_n4() -> Benchmark:
    # prepare the Fourier state encoding k=5 as a product state, then
    # run the inverse QFT; ideal output |0101>
    n, k = 4, 5
    b = CircuitBuilder(n, name="inverseqft_n4")
    for q in range(n):
        b.gate(GateKind.H, q)
        b.gate(GateKind.U1, q, params=(2 * math.pi * k / 2 ** (n - q),))
    # inverse of the textbook QFT (rotations then swaps), daggered
    for i in range(n // 2):
        b.gate(GateKind.SWAP, i, n - 1 - i)
    for target in range(n):
        for control in range(target):
            _cu1(b, -math.pi / 2 ** (target - control), control, target)
        b.gate(GateKind.H, target)
    b.measure_all()
    return Benchmark(b.build(), "0101")


def _hs4_n4() -> Benchmark:
    # Bernstein-Vazirani-style hidden-subgroup instance, hidden string 101
    hidden = (1, 0, 1)  # bits for q0, q1, q2
    b = CircuitBuilder(4, 3, name="hs4_n4")
    b.gate(GateKind.X, 3)
    for q in range(4):
        b.gate(GateKind.H, q)
    for q, bit in enumerate(hidden):
        if bit:
            b.gate(GateKind.CX, q, 3)
    for q in range(3):
        b.gate(GateKind.H, q)
    for q in range(3):
        b.measure(q, q)
    return Benchmark(b.build(), "101")


def _adder_n10() -> Benchmark:
    # 4-bit ripple-carry: cin=q0, b=q1..q4, a=q5..q8, cout=q9; 5+6=11
    b = CircuitBuilder(10, name="adder_n10")
    for bit, q in zip((0, 1, 1, 0), range(1, 5)):  # b = 6
        if bit:
            b.gate(GateKind.X, q)
    for bit, q in zip((1, 0, 1, 0), range(5, 9)):  # a = 5
        if bit:
            b.gate(GateKind.X, q)
    _maj(b, 0, 1, 5)
    _maj(b, 5, 2, 6)
    _maj(b, 6, 3, 7)
    _maj(b, 7, 4, 8)
    b.gate(GateKind.CX, 8, 9)
    _uma(b, 7, 4, 8)
    _uma(b, 6, 3, 7)
    _uma(b, 5, 2, 6)
    _uma(b, 0, 1, 5)
    b.measure_all()
    return Benchmark(b.build(), "0010110110")


def _multiply_n13() -> Benchmark:
    # shift-add multiplier, 2-bit a=3 times 3-bit b=5 into a 5-bit product
    # a=q0,q1; b=q2..q4; p=q5..q9; temp=q10,q11; cin=q12
    b = CircuitBuilder(13, name="multiply_n13")
    a0, a1 = 0, 1
    b_bits = (2, 3, 4)
    p = (5, 6, 7, 8, 9)
    t0, t1, cin = 10, 11, 12
    b.gate(GateKind.X, a0)
    b.gate(GateKind.X, a1)  # a = 3
    b.gate(GateKind.X, b_bits[0])
    b.gate(GateKind.X, b_bits[2])  # b = 5
    for j, bj in enumerate(b_bits):
        b.gate(GateKind.CCX, a0, bj, t0)
        b.gate(GateKind.CCX, a1, bj, t1)
        _maj(b, cin, p[j], t0)
        _maj(b, t0, p[j + 1], t1)
        b.gate(GateKind.CX, t1, p[j + 2])
        _uma(b, t0, p[j + 1], t1)
        _uma(b, cin, p[j], t0)
        b.gate(GateKind.CCX, a0, bj, t0)
        b.gate(GateKind.CCX, a1, bj, t1)
    b.measure_all()
    return Benchmark(b.build(), "0000111110111")


_BUILDERS = {
    "grover_n2": _grover_n2,
    "grover_n3": _grover_n3,
    "fredkin_n3": _fredkin_n3,
    "toffoli_n3": _toffoli_n3,
    "adder_n4": _adder_n4,
    "inverseqft_n4": _inverseqft_n4,
    "hs4_n4": _hs4_n4,
}

_LARGE_BUILDERS = {
    "adder_n10": _adder_n10,
    "multiply_n13": _multiply_n13,
}

BENCHMARK_NAMES = tuple(_BUILDERS)
LARGE_BENCHMARK_NAMES = tuple(_LARGE_BUILDERS)


def builtin(name: str) -> Benchmark:
    """Look up a builtin benchmark by name."""
    make = _BUILDERS.get(name) or _LARGE_BUILDERS.get(name)
    if make is None:
        raise UnknownBenchmark(name)
    return make()
