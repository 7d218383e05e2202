"""Outcome-quality metrics: performance metric (PM), total variation
distance (TVD), counts stitching and ranking. Each reads the dense vector
behind ``Counts``, the one histogram type (shot counts or probabilities);
a plain dict histogram is converted by ``to_vector``.

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


def to_vector(hist: Mapping[str, float]) -> np.ndarray:
    """Dense vector of a histogram: a ``Counts``' own vector, or one built
    from a plain dict (integer values give an integer vector)."""
    if isinstance(hist, Counts):
        return hist.vector
    widths = {len(k) for k in hist}
    if len(widths) != 1:
        raise KeyLengthMismatch(
            f"mixed key lengths {sorted(widths)}" if widths else "empty histogram"
        )
    values = np.array(list(hist.values()))
    vec = np.zeros(1 << widths.pop(), dtype=values.dtype)
    vec[[int(k, 2) for k in hist]] = values
    return vec


def ranked(hist: Mapping, k: int | None = None) -> list[tuple]:
    """The first ``k`` (default all) nonzero items by descending value,
    ties broken toward the smallest key."""
    vec = to_vector(hist)
    nonzero = np.flatnonzero(vec)
    order = nonzero[np.argsort(-vec[nonzero], kind="stable")][:k]
    fmt = f"0{_width(vec)}b"
    return [(format(i, fmt), v) for i, v in zip(order.tolist(), vec[order].tolist())]


def pm(counts: Mapping[str, int], correct: str) -> float:
    """P(correct) / max over incorrect outcomes of P(outcome).

    Returns math.inf when only the correct outcome was observed, 0.0 when
    the correct outcome was never observed.
    """
    vec = to_vector(counts)
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


def tvd(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Half L1 distance between two (normalized) histograms."""
    va, vb = to_vector(a), to_vector(b)
    if va.size != vb.size:
        raise KeyLengthMismatch(f"mixed key lengths ({_width(va)} and {_width(vb)})")
    # Python's sum, in key order, is bit-reproducible; numpy's .sum() is not
    ta, tb = float(sum(va.tolist())), float(sum(vb.tolist()))
    if ta <= 0 or tb <= 0:
        raise KeyLengthMismatch("histogram has no mass")
    return 0.5 * sum(np.abs(va / ta - vb / tb).tolist())


def stitch(parts: list[Mapping[str, int]]) -> Counts:
    """Key-wise sum of count histograms."""
    vecs = [to_vector(part) for part in parts]
    widths = {_width(vec) for vec in vecs}
    if len(widths) > 1:
        raise KeyLengthMismatch(f"mixed key lengths {sorted(widths)}")
    return Counts(sum(vecs) if vecs else np.zeros(1, dtype=np.int64))


def top_outcome(counts: Mapping[str, int]) -> tuple[str, float]:
    """Modal outcome and its empirical probability (lexicographic tie-break)."""
    vec = to_vector(counts)
    i = int(np.argmax(vec))  # the first maximum is the smallest key
    return format(i, f"0{_width(vec)}b"), vec[i].item() / sum(vec.tolist())
