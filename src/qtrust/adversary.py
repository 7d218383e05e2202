"""Adversarial tampering: random and targeted bit-flip channels applied to
measured-bit distributions.

Tampering and readout error are one tensored bit-flip map with different
probabilities: ``flip_channel`` on a dense outcome vector, such as the
``vector`` of a ``metrics.Counts``, one ``gates.apply_lines`` call (one
pass per line up to 4 lines, one per block of 4 lines wider). Line i is
the i-th character from the right of a key (q_i under the
q_{n-1}...q_0 convention), bit i of an index.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gates import apply_lines
from .metrics import Counts, ranked


class TamperError(ValueError):
    pass


class DegenerateCounts(TamperError):
    """Only one outcome observed; no wrong bitstring to target."""


class UnresolvedTamperSpec(TamperError):
    """Channel applied before the target lines were resolved."""


class TamperMode(Enum):
    RANDOM_ALL = "random_all"
    RANDOM_SUBSET = "random_subset"
    TARGETED = "targeted"


@dataclass(frozen=True)
class TamperSpec:
    """Static tampering configuration of a rogue backend.

    ``lines`` is filled once per backend instance: by the targeted planner
    for TARGETED mode, by a seeded draw for RANDOM_SUBSET. ``flips`` is
    the one reader of the target lines.
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

    def check_width(self, width: int) -> None:
        """A subset of ``k`` lines must fit in the ``width`` measured lines."""
        if self.k is not None and self.k > width:
            raise TamperError(
                f"subset size k={self.k} exceeds the {width} measured lines"
            )

    def flips(self, num_lines: int) -> dict[int, tuple[float, float]]:
        """Symmetric ``(t, t)`` flip pair on every target line: each of the
        ``num_lines`` lines under RANDOM_ALL, else ``lines``."""
        lines = range(num_lines) if self.mode is TamperMode.RANDOM_ALL else self.lines
        if lines is None:
            raise UnresolvedTamperSpec(f"{self.mode.value} spec has no target lines")
        return {line: (self.t, self.t) for line in lines}


def plan_targeted(untampered: Counts) -> tuple[int, ...]:
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
    A line outside the vector's lines raises ``TamperError``.
    """
    width = probs.size.bit_length() - 1
    lines, entries = [], []
    for line, (p01, p10) in flips.items():
        if not 0 <= line < width:
            raise TamperError(f"line {line} outside the {width} lines [0, {width})")
        if p01 != 0.0 or p10 != 0.0:
            lines.append(line)
            entries += (1.0 - p01, p10, p01, 1.0 - p10)
    if not lines:
        return probs
    # one array for all the maps: at 4 lines, building a 2x2 array per
    # line cost as much as applying it
    mats: list[np.ndarray | None] = [None] * width
    for line, m in zip(lines, np.array(entries).reshape(-1, 2, 2)):
        mats[line] = m
    return apply_lines(probs, mats)
