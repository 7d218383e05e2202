"""Unitary matrices for the gates the simulator multiplies (H, T, TDG and
the rotations), and ``apply_lines``, the one kernel for a 2x2 map along
each line of a dense vector (readout, tamper and the QAOA mixer).

X, Y, Z, S, SDG, CX, CZ, SWAP and CCX have none here: the simulator
applies them, and every Pauli error, as slice swaps and phase flips of the
state (``simulator._IN_PLACE``).
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .circuit import GateKind

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


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
    """Unitary of a gate the simulator multiplies: H, T, TDG, RX, RY, RZ,
    U1, U2 and U3."""
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
    raise ValueError(f"{kind} has no matrix here")


# Lines per Kronecker block of ``apply_lines``. At 4 lines a 16x16 build
# was no faster than 4 per-line passes, so vectors this narrow keep them.
_BLOCK = 4
_EYE = np.eye(2)


def _kron(mats: Sequence[np.ndarray | None]) -> np.ndarray:
    """Kronecker product of ``mats`` (None is the identity), the last one
    the most significant factor: the map of lines lo, lo+1, ... on the
    index bits they own."""
    k, *rest = [_EYE if m is None else m for m in reversed(mats)]
    for m in rest:
        k = (k[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(k), -1)
    return k


def apply_lines(vec: np.ndarray, mats: Sequence[np.ndarray | None]) -> np.ndarray:
    """Apply the 2x2 map ``mats[i]`` (None: the identity) along line i of
    ``vec``, the bit i of its index. Returns a new vector, or ``vec``
    itself when every map is None.

    Up to ``_BLOCK`` lines of ``vec`` it makes one pass per line. Wider,
    it makes one pass per block of ``_BLOCK`` lines that holds a map, with
    the block's Kronecker matrix K cut to the span of its maps: one GEMM
    ``vec.reshape(-1, 16) @ K.T`` for a span from line 0, and the batched
    ``K @ vec.reshape(-1, 16, 2**lo)`` above it.
    """
    if vec.size <= 1 << _BLOCK:
        for line, m in enumerate(mats):
            if m is not None:
                vec = (m @ vec.reshape(-1, 2, 1 << line)).reshape(-1)
        return vec
    for first in range(0, len(mats), _BLOCK):
        held = [i for i, m in enumerate(mats[first : first + _BLOCK]) if m is not None]
        if not held:
            continue
        lo, hi = first + held[0], first + held[-1] + 1
        k = _kron(mats[lo:hi])
        if lo == 0:
            vec = (vec.reshape(-1, len(k)) @ k.T).reshape(-1)
        else:
            vec = (k @ vec.reshape(-1, len(k), 1 << lo)).reshape(-1)
    return vec
