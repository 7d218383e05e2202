"""Outcome-quality metrics: performance metric (PM), total variation
distance (TVD), counts stitching and the conversion between bitstring
histograms and dense vectors of length 2^w indexed by ``int(key, 2)``.

PM uses math.inf as the sentinel when no incorrect outcome was observed;
inf compares greater than any finite PM, which is exactly the intended
ordering.
"""
from __future__ import annotations

import math

import numpy as np


class KeyLengthMismatch(ValueError):
    pass


class Counts(dict):
    """Histogram from bitstring outcomes to non-negative shot counts."""


def _check_widths(keys, width: int | None = None) -> int:
    for k in keys:
        if width is None:
            width = len(k)
        elif len(k) != width:
            raise KeyLengthMismatch(f"mixed key lengths ({width} and {len(k)})")
    if width is None:
        raise KeyLengthMismatch("empty histogram")
    return width


def to_vector(hist: dict[str, float]) -> np.ndarray:
    """Dense float64 vector of a histogram."""
    vec = np.zeros(1 << _check_widths(hist))
    vec[[int(k, 2) for k in hist]] = list(hist.values())
    return vec


def from_vector(vec: np.ndarray) -> dict:
    """Histogram of the nonzero entries of a dense vector, in key order."""
    fmt = f"0{vec.size.bit_length() - 1}b"
    nonzero = np.flatnonzero(vec)
    return {format(i, fmt): v for i, v in zip(nonzero.tolist(), vec[nonzero].tolist())}


def ranked(hist: dict) -> list[tuple]:
    """Items by descending value, ties broken toward the smallest key."""
    return sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))


def pm(counts: dict[str, int], correct: str) -> float:
    """P(correct) / max over incorrect outcomes of P(outcome).

    Returns math.inf when only the correct outcome was observed, 0.0 when
    the correct outcome was never observed.
    """
    width = _check_widths(counts.keys())
    if len(correct) != width:
        raise KeyLengthMismatch(
            f"correct string has length {len(correct)}, keys have {width}"
        )
    good = counts.get(correct, 0)
    worst_bad = max((c for k, c in counts.items() if k != correct), default=0)
    if worst_bad == 0:
        return math.inf if good > 0 else 0.0
    return good / worst_bad


def _normalize(hist: dict[str, float]) -> dict[str, float]:
    total = float(sum(hist.values()))
    if total <= 0:
        raise KeyLengthMismatch("histogram has no mass")
    return {k: v / total for k, v in hist.items()}


def tvd(a: dict[str, float], b: dict[str, float]) -> float:
    """Half L1 distance between two (normalized) histograms."""
    width = _check_widths(a.keys())
    _check_widths(b.keys(), width)
    pa, pb = _normalize(a), _normalize(b)
    keys = sorted(set(pa) | set(pb))  # fixed order: summation is bit-reproducible
    return 0.5 * sum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


def stitch(parts: list[dict[str, int]]) -> Counts:
    """Key-wise sum of count histograms."""
    width = None
    out = Counts()
    for part in parts:
        width = _check_widths(part.keys(), width)
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return out


def top_outcome(counts: dict[str, int]) -> tuple[str, float]:
    """Modal outcome and its empirical probability (lexicographic tie-break)."""
    key, count = ranked(counts)[0]
    return key, count / sum(counts.values())
