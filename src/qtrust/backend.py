"""Simulated backends, the unit of (un)trust: one ``BackendModel`` holds
the five fields of a config's ``backends[]`` object.

Default noise magnitudes used by the harness (symmetric readout error
0.02, drift 0.01) are artifact choices, not measured hardware values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .adversary import TamperSpec

ReadoutPair = tuple[float, float]  # (p01, p10)


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class BackendModel:
    """A named simulated hardware target.

    ``readout`` is either a single (p01, p10) pair broadcast to every
    qubit, or one pair per qubit index. ``gate_depolarizing`` is the
    per-gate, per-qubit Pauli error rate; ``drift`` the per-run uniform
    jitter amplitude on the readout probabilities.
    """

    name: str
    readout: ReadoutPair | tuple[ReadoutPair, ...] = (0.0, 0.0)
    gate_depolarizing: float = 0.0
    drift: float = 0.0
    tamper: TamperSpec | None = None

    def __post_init__(self):
        if not self.name:
            raise NoiseError("backend needs a name")
        pairs = self.readout if self._per_qubit() else (self.readout,)
        for p in (p for pair in pairs for p in pair):
            if not 0.0 <= p <= 0.5:
                raise NoiseError(f"readout probability {p} outside [0, 0.5]")
        if not 0.0 <= self.gate_depolarizing <= 1.0:
            raise NoiseError("gate_depolarizing outside [0, 1]")
        if self.drift < 0.0:
            raise NoiseError("drift amplitude must be non-negative")

    def _per_qubit(self) -> bool:
        return bool(self.readout) and isinstance(self.readout[0], tuple)

    def pair_for(self, qubit: int) -> ReadoutPair:
        if self._per_qubit():
            if qubit >= len(self.readout):
                raise NoiseError(f"no readout pair for qubit {qubit}")
            return self.readout[qubit]
        return self.readout  # broadcast

    def with_tamper(self, tamper: TamperSpec | None) -> "BackendModel":
        return replace(self, tamper=tamper)
