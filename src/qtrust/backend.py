"""Simulated backends, the unit of (un)trust: one ``BackendModel`` holds
the five fields of a config's ``backends[]`` object, and ``line_pairs``
maps its readout onto a circuit's measured lines.

Default noise magnitudes used by the harness (symmetric readout error
0.02, drift 0.01) are artifact choices, not measured hardware values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .adversary import TamperSpec

ReadoutPair = tuple[float, float]  # (p01, p10)


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class BackendModel:
    """A named simulated hardware target.

    ``readout`` is a (p01, p10) tuple broadcast to every qubit, or a
    non-empty tuple of them, one per qubit index. ``gate_depolarizing`` is
    the per-gate, per-qubit Pauli error rate; ``drift`` the finite per-run
    uniform jitter amplitude on the readout probabilities.
    """

    name: str
    readout: ReadoutPair | tuple[ReadoutPair, ...] = (0.0, 0.0)
    gate_depolarizing: float = 0.0
    drift: float = 0.0
    tamper: TamperSpec | None = None

    def __post_init__(self):
        if not self.name:
            raise NoiseError("backend needs a name")
        pairs = self.readout
        if not (isinstance(pairs, tuple) and pairs and isinstance(pairs[0], tuple)):
            pairs = (pairs,)  # broadcast
        for pair in pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise NoiseError("readout is not a (p01, p10) tuple or a tuple of them")
            for p in pair:
                if not (isinstance(p, (int, float)) and 0.0 <= p <= 0.5):
                    raise NoiseError(f"readout probability {p} outside [0, 0.5]")
        if not 0.0 <= self.gate_depolarizing <= 1.0:
            raise NoiseError("gate_depolarizing outside [0, 1]")
        if not math.isfinite(self.drift):
            raise NoiseError(f"drift amplitude {self.drift} is not finite")
        if self.drift < 0.0:
            raise NoiseError("drift amplitude must be non-negative")

    def line_pairs(self, measured_pairs) -> tuple[ReadoutPair, ...]:
        """The (p01, p10) pair of each measured line, line 0 first, for
        ``measured_pairs`` as in ``Circuit.measured_pairs`` (clbit
        descending, so line 0 is the last). A per-qubit readout without a
        pair for the highest measured qubit raises ``NoiseError``."""
        if not isinstance(self.readout[0], tuple):  # broadcast
            return (self.readout,) * len(measured_pairs)
        last = max(q for q, _ in measured_pairs)
        if last >= len(self.readout):
            raise NoiseError(f"no readout pair for qubit {last}")
        return tuple(self.readout[q] for q, _ in reversed(measured_pairs))
