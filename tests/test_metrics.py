import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import as_counts
from qtrust.backend import BackendModel
from qtrust.benchmarks import builtin
from qtrust.metrics import (
    Counts,
    KeyLengthMismatch,
    _ordered_sum,
    pm,
    ranked,
    stitch,
    top_outcome,
    tvd,
)
from qtrust.simulator import execute, prepare


def test_pm_basic_ratio():
    counts = as_counts({"11": 80, "10": 16, "01": 4})
    assert pm(counts, "11") == pytest.approx(5.0)


def test_pm_correct_never_observed():
    assert pm(as_counts({"00": 10, "01": 5}), "11") == 0.0


def test_pm_only_correct_observed():
    assert pm(as_counts({"11": 100}), "11") == math.inf


def test_pm_width_mismatch():
    # a correct string of another width, or not of 0s and 1s
    for correct in ("111", "1", "1a", "2", " 1", "+1", "0b"):
        with pytest.raises(KeyLengthMismatch):
            pm(as_counts({"11": 10, "01": 5}), correct)


def test_pm_below_one_when_wrong_answer_dominates():
    assert pm(as_counts({"00": 60, "11": 40}), "11") < 1.0


def test_tvd_identical():
    a, b = as_counts({"0": 1, "1": 1}), as_counts({"0": 5, "1": 5})
    assert tvd(a, b) == pytest.approx(0.0)


def test_tvd_disjoint():
    assert tvd(as_counts({"0": 10}), as_counts({"1": 10})) == pytest.approx(1.0)


def test_tvd_known_value():
    a, b = as_counts({"0": 9, "1": 1}), as_counts({"0": 5, "1": 5})
    assert tvd(a, b) == pytest.approx(0.4)


def test_tvd_normalizes_inputs():
    a, b = as_counts({"0": 90, "1": 10}), as_counts({"0": 0.9, "1": 0.1})
    assert tvd(a, b) == pytest.approx(0.0)


def test_tvd_empty_rejected():
    one = as_counts({"0": 1})
    with pytest.raises(KeyLengthMismatch):
        tvd(Counts(np.zeros(2)), one)
    with pytest.raises(KeyLengthMismatch):
        tvd(one, Counts(np.zeros(2, dtype=np.int64)))


def test_tvd_rejects_mixed_widths():
    with pytest.raises(KeyLengthMismatch):
        tvd(as_counts({"0": 1}), as_counts({"00": 1}))


_hist = st.dictionaries(
    st.text(alphabet="01", min_size=2, max_size=2),
    st.floats(min_value=0.001, max_value=100.0),
    min_size=1,
).map(as_counts)


@given(_hist, _hist)
@settings(max_examples=80)
def test_tvd_symmetry(a, b):
    assert tvd(a, b) == pytest.approx(tvd(b, a), abs=1e-12)


@given(_hist, _hist, _hist)
@settings(max_examples=80)
def test_tvd_triangle_inequality(a, b, c):
    assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-12


@given(_hist)
@settings(max_examples=40)
def test_tvd_identity_of_indiscernibles(a):
    assert tvd(a, a) == pytest.approx(0.0, abs=1e-12)


@given(_hist, _hist)
@settings(max_examples=80)
def test_tvd_bounded(a, b):
    value = tvd(a, b)
    assert -1e-12 <= value <= 1.0 + 1e-12


def test_stitch_sums_keywise():
    out = stitch([as_counts({"00": 3, "01": 1}), as_counts({"00": 2, "11": 4})])
    assert out == {"00": 5, "01": 1, "11": 4}


def test_stitch_rejects_mixed_widths():
    with pytest.raises(KeyLengthMismatch):
        stitch([as_counts({"00": 1}), as_counts({"000": 1})])


def test_stitch_empty_parts():
    assert stitch([]) == {}


def test_top_outcome_and_confidence():
    top, conf = top_outcome(as_counts({"00": 6, "11": 4}))
    assert top == "00"
    assert conf == pytest.approx(0.6)


def test_top_outcome_tie_breaks_lexicographically():
    top, _ = top_outcome(as_counts({"10": 5, "01": 5}))
    assert top == "01"


# --- the Counts view ------------------------------------------------------------


def test_counts_is_a_read_only_mapping_view_of_its_vector():
    vector = np.array([0, 3, 0, 5, 1, 0, 0, 0])
    counts = Counts(vector)
    assert counts.vector is vector
    assert list(counts) == ["001", "011", "100"]  # nonzero keys, key order
    assert len(counts) == 3
    assert counts["011"] == 5 and type(counts["011"]) is int
    # a zero entry, a wrong width and non-binary keys are all absent
    for key in ("000", "11", "0011", "0b1", "0_1", " 11", "+11", "abc", 3):
        assert key not in counts
        assert counts.get(key) is None
    with pytest.raises(KeyError):
        counts["000"]
    assert counts == {"001": 3, "011": 5, "100": 1}
    assert {"001": 3, "011": 5, "100": 1} == counts
    assert counts != {"001": 3, "011": 5}
    assert not isinstance(counts, dict)
    with pytest.raises(ValueError):
        counts.vector[0] = 1
    with pytest.raises(TypeError):
        counts["000"] = 1
    text = json.dumps(dict(counts))
    assert json.loads(text) == {"001": 3, "011": 5, "100": 1}
    assert all(type(v) is int for v in dict(counts).values())


def test_counts_rejects_a_vector_that_is_not_2_to_the_w_long():
    with pytest.raises(ValueError):
        Counts(np.zeros(6))


def test_probabilities_are_counts_of_python_floats():
    dist = Counts(prepare(builtin("toffoli_n3").circuit).ideal)
    assert isinstance(dist, Counts)
    assert all(type(p) is float for p in dict(dist).values())
    json.dumps(dict(dist))


def test_execute_returns_a_counts_over_every_outcome():
    circuit = builtin("adder_n4").circuit
    counts = execute(
        BackendModel("hw", readout=(0.02, 0.02)), prepare(circuit), 200, 1
    )
    assert isinstance(counts, Counts)
    assert counts.vector.size == 2**circuit.num_measured
    assert sum(counts.values()) == 200
    assert len(counts) == np.count_nonzero(counts.vector)


# --- the vector metrics against the dict references -------------------------------


def _keys(width):
    return st.integers(0, 2**width - 1).map(lambda i: format(i, f"0{width}b"))


_VALUES = st.sampled_from(
    [
        st.integers(1, 4),  # many ties
        st.integers(1, 10**6),
        st.floats(1e-9, 1e3),
        st.sampled_from([0.125, 0.25, 0.5]),  # float ties
    ]
)


@st.composite
def _histogram(draw, width):
    values = draw(_VALUES)
    hist = draw(st.dictionaries(_keys(width), values, min_size=1, max_size=40))
    return dict(sorted(hist.items()))  # key order, as the vector sums


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vector_metrics_equal_the_dict_references_exactly(data):
    width = data.draw(st.integers(1, 8))
    a, b = data.draw(_histogram(width)), data.draw(_histogram(width))
    correct = data.draw(_keys(width))
    ca, cb = as_counts(a), as_counts(b)
    assert pm(ca, correct) == oracles.dict_pm(a, correct)
    assert top_outcome(ca) == oracles.dict_top_outcome(a)
    assert ranked(ca) == oracles.dict_ranked(a)
    assert ranked(ca, 2) == oracles.dict_ranked(a)[:2]
    assert tvd(ca, cb) == oracles.dict_tvd(a, b)
    assert stitch([ca, cb]) == oracles.dict_stitch([a, b])
    assert stitch([ca]) == a


# --- left-to-right sums -----------------------------------------------------------


@given(
    st.lists(
        st.floats(-1e6, 1e6) | st.floats(0, 1) | st.sampled_from([0.1, 0.2, 0.3]),
        max_size=96,
    )
)
@settings(max_examples=300, deadline=None)
def test_ordered_sum_adds_left_to_right_on_both_branches(values):
    want = oracles.left_to_right_sum(values)
    for given_as in (values, np.array(values, dtype=float)):
        got = _ordered_sum(given_as)
        assert type(got) is type(want) and got == want  # equal, not close
    counts = [round(abs(v)) for v in values]
    assert _ordered_sum(np.array(counts, dtype=np.int64)) == sum(counts)


# Python 3.12's sum() gives the exactly rounded 0.6 and 4.0 here
ORDER_SENSITIVE = {
    "short": ([0.1, 0.2, 0.3], 0.6000000000000001),
    "long": ([0.1] * 40, 4.000000000000002),
}


def test_ordered_sum_differs_from_a_compensated_sum():
    for values, want in ORDER_SENSITIVE.values():
        assert math.fsum(values) != want
        assert _ordered_sum(values) == want
        assert _ordered_sum(np.array(values)) == want
