"""``gates.apply_lines`` against the one-pass-per-line loop it replaced."""
import numpy as np
import pytest

from oracles import per_line_apply
from qtrust.adversary import flip_channel
from qtrust.gates import apply_lines


def _stochastic(rng) -> np.ndarray:
    p01, p10 = rng.random(2)
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def _complex(rng) -> np.ndarray:
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def _case(width: int, complex_maps: bool, seed: int):
    """A random vector and one map per line; about a third are None."""
    rng = np.random.default_rng(seed)
    vec = rng.random(1 << width)
    if complex_maps:
        vec = vec + 1j * rng.random(1 << width)
    draw = _complex if complex_maps else _stochastic
    mats = [draw(rng) if rng.random() > 0.3 else None for _ in range(width)]
    return vec, mats


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("complex_maps", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_narrow_vectors_equal_the_per_line_loop_bitwise(width, complex_maps, seed):
    vec, mats = _case(width, complex_maps, seed)
    assert np.array_equal(apply_lines(vec, mats), per_line_apply(vec, mats))


@pytest.mark.parametrize("width", range(5, 15))
@pytest.mark.parametrize("complex_maps", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_line_blocks_match_the_per_line_loop(width, complex_maps, seed):
    vec, mats = _case(width, complex_maps, seed)
    if seed == 1:  # an all-identity block between held ones
        mats[4:8] = [None] * 4
    if seed == 2:  # maps on the top line alone
        mats = [None] * (width - 1) + mats[-1:]
    want = per_line_apply(vec, mats)
    got = apply_lines(vec, mats)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("width", [4, 6])
def test_all_identity_maps_return_the_vector(width):
    vec = np.arange(float(1 << width))
    assert apply_lines(vec, [None] * width) is vec


@pytest.mark.parametrize("width", [5, 10, 13])
def test_half_flip_makes_each_outcome_and_its_partner_equal(width):
    """t = 0.5 on one line maps an outcome and its flipped partner to the
    same bits, whichever block the line is in (README: exactly
    equiprobable)."""
    rng = np.random.default_rng(width)
    probs = rng.random(1 << width)
    probs /= probs.sum()
    index = np.arange(probs.size)
    for line in range(width):
        out = flip_channel(probs, {line: (0.5, 0.5)})
        assert np.array_equal(out, out[index ^ (1 << line)]), line
