import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_counts
from qtrust.adversary import (
    DegenerateCounts,
    TamperError,
    TamperMode,
    TamperSpec,
    UnresolvedTamperSpec,
    flip_channel,
    plan_targeted,
)
from qtrust.metrics import Counts


# --- spec construction --------------------------------------------------------


def test_t_range_enforced():
    with pytest.raises(TamperError):
        TamperSpec(TamperMode.RANDOM_ALL, -0.1)
    with pytest.raises(TamperError):
        TamperSpec(TamperMode.RANDOM_ALL, 1.5)


def test_random_subset_needs_k():
    with pytest.raises(TamperError):
        TamperSpec(TamperMode.RANDOM_SUBSET, 0.3)
    TamperSpec(TamperMode.RANDOM_SUBSET, 0.3, k=2)


def test_flips_random_all_covers_everything():
    spec = TamperSpec(TamperMode.RANDOM_ALL, 0.3)
    assert spec.flips(4) == {line: (0.3, 0.3) for line in range(4)}


def test_unresolved_channel_raises():
    spec = TamperSpec(TamperMode.TARGETED, 0.3)
    with pytest.raises(UnresolvedTamperSpec):
        flip_channel(as_counts({"01": 1.0}).vector, spec.flips(2))


def test_lines_out_of_range_rejected():
    spec = TamperSpec(TamperMode.TARGETED, 0.3, lines=(5,))
    with pytest.raises(TamperError):
        flip_channel(as_counts({"01": 1.0}).vector, spec.flips(2))


@pytest.mark.parametrize("line", [5, -1])
def test_flip_channel_rejects_a_line_outside_the_vector(line):
    """A list-indexed kernel would read line -1 as the top line."""
    with pytest.raises(TamperError, match=f"line {line} outside"):
        flip_channel(as_counts({"01": 1.0}).vector, {line: (0.1, 0.1)})


# --- targeted planning --------------------------------------------------------


def test_plan_targeted_basic():
    counts = as_counts({"111": 90, "011": 8, "000": 2})
    assert plan_targeted(counts) == (2,)  # leftmost char is line 2


def test_plan_targeted_multi_line():
    counts = as_counts({"111": 90, "000": 10})
    assert plan_targeted(counts) == (0, 1, 2)


def test_plan_targeted_tie_breaks_lexicographically():
    counts = as_counts({"11": 50, "10": 25, "01": 25})
    # runner-up tie between "01" and "10" goes to "01"; differs on line 1
    assert plan_targeted(counts) == (1,)


def test_plan_targeted_degenerate():
    with pytest.raises(DegenerateCounts):
        plan_targeted(as_counts({"111": 100}))


@given(
    st.dictionaries(
        st.text(alphabet="01", min_size=3, max_size=3),
        st.integers(min_value=1, max_value=1000),
        min_size=2,
    ).map(as_counts)
)
def test_plan_targeted_never_empty(counts):
    # distinct keys always differ somewhere
    assert len(plan_targeted(counts)) >= 1


# --- channel arithmetic -------------------------------------------------------


def test_channel_single_line():
    spec = TamperSpec(TamperMode.TARGETED, 0.3, lines=(0,))
    out = Counts(flip_channel(as_counts({"00": 1.0}).vector, spec.flips(2)))
    assert out["00"] == pytest.approx(0.7)
    assert out["01"] == pytest.approx(0.3)


def test_channel_t_zero_is_identity():
    spec = TamperSpec(TamperMode.TARGETED, 0.0, lines=(0, 1))
    dist = {"01": 0.4, "10": 0.6}
    out = Counts(flip_channel(as_counts(dist).vector, spec.flips(2)))
    assert out == pytest.approx(dist)


def test_channel_half_fully_mixes_line():
    spec = TamperSpec(TamperMode.TARGETED, 0.5, lines=(1,))
    out = Counts(flip_channel(as_counts({"10": 1.0}).vector, spec.flips(2)))
    assert out["10"] == pytest.approx(0.5)
    assert out["00"] == pytest.approx(0.5)


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60)
def test_channel_composition_law(t1, t2, weight):
    """Two flips on the same line compose to p = t1 + t2 - 2 t1 t2."""
    dist = as_counts({"0": weight, "1": 1.0 - weight}).vector
    s1 = TamperSpec(TamperMode.TARGETED, t1, lines=(0,))
    s2 = TamperSpec(TamperMode.TARGETED, t2, lines=(0,))
    combined = t1 + t2 - 2.0 * t1 * t2
    s12 = TamperSpec(TamperMode.TARGETED, combined, lines=(0,))
    lhs = flip_channel(flip_channel(dist, s1.flips(1)), s2.flips(1))
    rhs = flip_channel(dist, s12.flips(1))
    for i in range(2):
        assert lhs[i] == pytest.approx(rhs[i], abs=1e-12)


@given(
    st.dictionaries(
        st.text(alphabet="01", min_size=2, max_size=2),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
    ),
    st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60)
def test_channel_preserves_total_mass(raw, t):
    total = sum(raw.values())
    dist = as_counts({k: v / total for k, v in raw.items()})
    spec = TamperSpec(TamperMode.RANDOM_ALL, t)
    out = Counts(flip_channel(dist.vector, spec.flips(2)))
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)
