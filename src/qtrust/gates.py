"""Unitary matrices for the gates the simulator multiplies.

X, CX, SWAP and CCX have none here: the simulator applies them, and X
errors, by swapping slices of the state. Multi-qubit matrices are written
in the basis |q_first q_second ...> where the first listed qubit is the
most significant bit.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import GateKind

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}

CZ = np.diag([1, 1, 1, -1]).astype(complex)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def matrix(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """Unitary of a gate that is not a permutation: H, Y, Z, S, SDG, T,
    TDG, RX, RY, RZ, U1, U2, U3 and CZ."""
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    if kind is GateKind.RX:
        return u3(params[0], -math.pi / 2, math.pi / 2)
    if kind is GateKind.RY:
        return u3(params[0], 0.0, 0.0)
    if kind is GateKind.RZ:
        (lam,) = params
        return np.array(
            [[np.exp(-0.5j * lam), 0], [0, np.exp(0.5j * lam)]], dtype=complex
        )
    if kind is GateKind.U1:
        return np.array([[1, 0], [0, np.exp(1j * params[0])]], dtype=complex)
    if kind is GateKind.U2:
        return u3(math.pi / 2, params[0], params[1])
    if kind is GateKind.U3:
        return u3(*params)
    if kind is GateKind.CZ:
        return CZ
    raise ValueError(f"{kind} has no matrix here")
