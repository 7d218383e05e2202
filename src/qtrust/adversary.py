"""Adversarial tampering: random and targeted bit-flip channels applied to
measured-bit distributions, plus the error-masking arithmetic a rogue
provider uses to hide the extra flip probability inside quoted readout
error figures.

Tampering and readout error are one tensored bit-flip map with different
probabilities: ``flip_channel`` on a dense outcome vector, which
``tamper_channel`` wraps for histograms. Line i is the i-th character from the
right of a key (q_i under the q_{n-1}...q_0 convention), bit i of an index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .metrics import Counts, ranked, to_vector


class TamperError(ValueError):
    pass


class DegenerateCounts(TamperError):
    """Only one outcome observed; no wrong bitstring to target."""


class UnresolvedTamperSpec(TamperError):
    """Channel applied before the target lines were resolved."""


class InvalidLineCount(TamperError):
    pass


class TamperMode(Enum):
    RANDOM_ALL = "random_all"
    RANDOM_SUBSET = "random_subset"
    TARGETED = "targeted"


@dataclass(frozen=True)
class TamperSpec:
    """Static tampering configuration of a rogue backend.

    ``lines`` is filled once per backend instance: by the targeted planner
    for TARGETED mode, by a seeded draw for RANDOM_SUBSET.
    """

    mode: TamperMode
    t: float
    k: int | None = None
    lines: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise TamperError(f"tampering coefficient {self.t} outside [0, 1]")
        if self.mode is TamperMode.RANDOM_SUBSET and self.lines is None:
            if self.k is None or self.k < 1:
                raise TamperError("random_subset needs a positive subset size k")

    @property
    def needs_resolution(self) -> bool:
        return self.mode is not TamperMode.RANDOM_ALL and self.lines is None

    def with_lines(self, lines) -> "TamperSpec":
        return replace(self, lines=tuple(sorted(lines)))

    def resolved_lines(self, num_lines: int) -> tuple[int, ...]:
        if self.mode is TamperMode.RANDOM_ALL:
            return tuple(range(num_lines))
        if self.lines is None:
            raise UnresolvedTamperSpec(f"{self.mode.value} spec has no target lines")
        if any(not 0 <= i < num_lines for i in self.lines):
            raise TamperError(f"target lines {self.lines} outside [0, {num_lines})")
        return self.lines

    def flips(self, num_lines: int) -> dict[int, tuple[float, float]]:
        """Symmetric ``(t, t)`` flip pair on every target line."""
        return {line: (self.t, self.t) for line in self.resolved_lines(num_lines)}


@dataclass(frozen=True)
class MaskingReport:
    """Net readout error a user would see once tampering is folded in."""

    base_rae: float
    t: float
    n: int
    delta_tampering: float
    net_rae: float


def plan_targeted(untampered: dict[str, int]) -> tuple[int, ...]:
    """Lines where the most frequent outcome and the runner-up differ.

    The counts come from a clean execution the rogue provider runs
    privately; no ground truth is needed.
    """
    # ties broken toward the lexicographically smallest key, for determinism
    order = ranked(untampered, 2)
    if len(order) < 2:
        raise DegenerateCounts("need at least two distinct outcomes to plan")
    (a, _), (b, _) = order
    width = len(a)
    return tuple(i for i in range(width) if a[width - 1 - i] != b[width - 1 - i])


def flip_channel(
    probs: np.ndarray, flips: dict[int, tuple[float, float]]
) -> np.ndarray:
    """Apply [[1-p01, p10], [p01, 1-p10]] along line i for each
    ``i: (p01, p10)`` in ``flips``; ``probs`` is indexed by integer outcome.
    """
    for line, (p01, p10) in flips.items():
        if p01 == 0.0 and p10 == 0.0:
            continue
        m = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        probs = (m @ probs.reshape(-1, 2, 1 << line)).reshape(-1)
    return probs


def tamper_channel(dist: dict[str, float], spec: TamperSpec) -> Counts:
    """Symmetric bit-flip with probability t on every targeted line."""
    if not dist:
        return Counts(np.zeros(1))
    flips = spec.flips(len(next(iter(dist))))
    return Counts(flip_channel(to_vector(dist), flips))


def masked_rae(
    base_rae: float, t: float, total_lines: int, tampered_lines: int
) -> MaskingReport:
    """Combine native readout error with diluted tampering in quadrature."""
    if tampered_lines < 1 or tampered_lines > total_lines:
        raise InvalidLineCount(
            f"tampered lines {tampered_lines} outside [1, {total_lines}]"
        )
    n = total_lines - tampered_lines + 1
    delta = t / n
    net = math.sqrt(base_rae**2 + delta**2)
    return MaskingReport(base_rae, t, n, delta, net)
