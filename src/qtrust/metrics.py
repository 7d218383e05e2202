"""Outcome-quality metrics: performance metric (PM), total variation
distance (TVD), counts stitching and ranking. Each reads the dense vector
behind ``Counts``, the one histogram type they take and return (shot
counts or probabilities); wrap a vector of your own as ``Counts(vector)``.

PM uses math.inf as the sentinel when no incorrect outcome was observed;
inf compares greater than any finite PM, which is exactly the intended
ordering.
"""
from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np


class KeyLengthMismatch(ValueError):
    pass


class Counts(Mapping):
    """Read-only histogram view over ``vector`` (length 2^w, indexed by
    ``int(key, 2)``); zero entries are absent keys. ``dict(counts)`` copies."""

    __slots__ = ("vector",)

    def __init__(self, vector: np.ndarray):
        if vector.ndim != 1 or vector.size != 1 << _width(vector):
            raise ValueError(f"vector of shape {vector.shape} is not 2^w long")
        vector.flags.writeable = False
        self.vector = vector

    def __getitem__(self, key):
        width = _width(self.vector)
        if isinstance(key, str) and len(key) == width and not key.strip("01"):
            value = self.vector[int("0" + key, 2)]  # "0" + admits width 0
            if value != 0:
                return value.item()
        raise KeyError(key)

    def __iter__(self):
        fmt = f"0{_width(self.vector)}b"
        return (format(i, fmt) for i in np.flatnonzero(self.vector).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.vector))


def _width(vec: np.ndarray) -> int:
    return vec.size.bit_length() - 1


def _ordered_sum(values):
    """``values`` (an array or a sequence) added strictly left to right, as
    ``acc = acc + x`` does, so records keep their bits on every Python:
    numpy's ``.sum()`` adds pairwise, and since 3.12 Python's ``sum``
    compensates float rounding (CPython gh-100425)."""
    return np.add.accumulate(values).item(-1) if len(values) else 0


def ranked(hist: Counts, k: int | None = None) -> list[tuple]:
    """The first ``k`` (default all) nonzero items by descending value,
    ties broken toward the smallest key."""
    vec = hist.vector
    nonzero = np.flatnonzero(vec)
    order = nonzero[np.argsort(-vec[nonzero], kind="stable")][:k]
    fmt = f"0{_width(vec)}b"
    return [(format(i, fmt), v) for i, v in zip(order.tolist(), vec[order].tolist())]


def pm(counts: Counts, correct: str) -> float:
    """P(correct) / max over incorrect outcomes of P(outcome).

    Returns math.inf when only the correct outcome was observed, 0.0 when
    the correct outcome was never observed.
    """
    vec = counts.vector
    if len(correct) != _width(vec) or correct.strip("01"):
        raise KeyLengthMismatch(
            f"correct string {correct!r} is not a {_width(vec)}-bit key"
        )
    i = int(correct, 2)
    good = vec[i].item()
    worst_bad = max(vec[:i].max(initial=0), vec[i + 1 :].max(initial=0)).item()
    if worst_bad == 0:
        return math.inf if good > 0 else 0.0
    return good / worst_bad


def tvd(a: Counts, b: Counts) -> float:
    """Half L1 distance between two (normalized) histograms."""
    va, vb = a.vector, b.vector
    if va.size != vb.size:
        raise KeyLengthMismatch(f"mixed key lengths ({_width(va)} and {_width(vb)})")
    ta, tb = float(_ordered_sum(va)), float(_ordered_sum(vb))
    if ta <= 0 or tb <= 0:
        raise KeyLengthMismatch("histogram has no mass")
    return 0.5 * _ordered_sum(np.abs(va / ta - vb / tb))


def stitch(parts: list[Counts]) -> Counts:
    """Key-wise sum of count histograms."""
    vecs = [part.vector for part in parts]
    widths = {_width(vec) for vec in vecs}
    if len(widths) > 1:
        raise KeyLengthMismatch(f"mixed key lengths {sorted(widths)}")
    return Counts(sum(vecs) if vecs else np.zeros(1, dtype=np.int64))


def top_outcome(counts: Counts) -> tuple[str, float]:
    """Modal outcome and its empirical probability (lexicographic tie-break)."""
    vec = counts.vector
    i = int(np.argmax(vec))  # the first maximum is the smallest key
    return format(i, f"0{_width(vec)}b"), vec[i].item() / _ordered_sum(vec)
