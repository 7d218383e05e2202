import math
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtrust.adversary import TamperError, TamperMode, TamperSpec, flip_channel
from qtrust import simulator
from qtrust.backend import BackendModel, NoiseError
from qtrust.benchmarks import builtin
from qtrust.circuit import CircuitBuilder, CircuitError, GateKind
from qtrust.metrics import Counts, top_outcome, tvd
from qtrust.rng import derive_rng
from qtrust.simulator import (
    Prepared,
    _draw_errors,
    _trajectory_vector,
    clean_distribution,
    execute,
    prepare,
    resolve_tamper,
    sample_counts,
)

from oracles import (
    as_counts,
    depolarizing_oracle,
    oracle_distribution,
    per_call_errors,
    per_shot_trajectories,
    readout_oracle,
    reference_matrix,
    tensordot_apply,
)


def _bell():
    b = CircuitBuilder(2)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.CX, 0, 1)
    b.measure_all()
    return b.build()


def test_bell_state():
    dist = Counts(prepare(_bell()).ideal)
    assert dist["00"] == pytest.approx(0.5)
    assert dist["11"] == pytest.approx(0.5)
    assert dist.get("01", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_ghz_matches_oracle():
    b = CircuitBuilder(3)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.CX, 0, 1)
    b.gate(GateKind.CX, 1, 2)
    b.measure_all()
    circuit = b.build()
    got = Counts(prepare(circuit).ideal)
    want = oracle_distribution(circuit)
    for key in set(got) | set(want):
        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-12)


def test_partial_measurement_marginalizes():
    # only qubit 0 of a Bell pair is measured
    b = CircuitBuilder(2, 1)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.CX, 0, 1)
    b.measure(0, 0)
    dist = Counts(prepare(b.build()).ideal)
    assert set(dist) == {"0", "1"}
    assert dist["0"] == pytest.approx(0.5)


def _ry_ladder(seed: int, last: int):
    """Six qubits of random RY layers around a CX chain, then Z on qubits 0
    and 5 with qubit ``last`` last; qubits 0 and 1 are measured."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder(6, 2)
    angles = rng.uniform(0.0, 3.0, size=12).tolist()
    for q in range(6):
        b.gate(GateKind.RY, q, params=(angles[q],))
    for q in range(5):
        b.gate(GateKind.CX, q, q + 1)
    for q in range(6):
        b.gate(GateKind.RY, q, params=(angles[6 + q],))
    for q in (5 - last, last):
        b.gate(GateKind.Z, q)
    b.measure(0, 0)
    b.measure(1, 1)
    return b.build()


@pytest.mark.parametrize("seed", range(5))
def test_marginal_does_not_depend_on_the_last_gate_layout(seed):
    """The Z gates commute exactly, but each dense gate leaves its qubit's
    axis first in memory; summing out the four unmeasured qubits must not
    follow that layout."""
    a = prepare(_ry_ladder(seed, last=0)).ideal
    b = prepare(_ry_ladder(seed, last=5)).ideal
    assert np.array_equal(a, b)


def test_clbit_order_defines_string_order():
    # qubit 0 is |1>, qubit 1 is |0>; swap the clbits
    b = CircuitBuilder(2, 2)
    b.gate(GateKind.X, 0)
    b.measure(0, 1)
    b.measure(1, 0)
    dist = Counts(prepare(b.build()).ideal)
    assert dist["10"] == pytest.approx(1.0)


_GATE_POOL = [
    (GateKind.H, 0), (GateKind.X, 0), (GateKind.Y, 0), (GateKind.Z, 0),
    (GateKind.S, 0), (GateKind.SDG, 0), (GateKind.T, 0), (GateKind.TDG, 0),
    (GateKind.RX, 1), (GateKind.RY, 1), (GateKind.RZ, 1), (GateKind.U1, 1),
    (GateKind.U2, 2), (GateKind.U3, 3),
    (GateKind.CX, 0), (GateKind.CZ, 0), (GateKind.SWAP, 0), (GateKind.CCX, 0),
]


@st.composite
def random_circuits(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    depth = draw(st.integers(min_value=1, max_value=12))
    b = CircuitBuilder(n)
    for _ in range(depth):
        kind, n_params = draw(st.sampled_from(_GATE_POOL))
        if kind.arity > n:
            continue
        qubits = draw(
            st.permutations(range(n)).map(lambda p: tuple(p[: kind.arity]))
        )
        params = tuple(
            draw(st.floats(min_value=-2 * math.pi, max_value=2 * math.pi))
            for _ in range(n_params)
        )
        b.gate(kind, *qubits, params=params)
    b.measure_all()
    return b.build()


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_random_circuits_match_full_unitary_oracle(circuit):
    got = Counts(prepare(circuit).ideal)
    want = oracle_distribution(circuit)
    for key in set(got) | set(want):
        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_distribution_normalized(circuit):
    dist = Counts(prepare(circuit).ideal)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= -1e-12 for p in dist.values())


# --- readout channel --------------------------------------------------------


def _readout(dist: dict, pairs: list) -> Counts:
    """The readout step of ``execute``: ``pairs[i]`` flips line i."""
    return Counts(flip_channel(as_counts(dist).vector, dict(enumerate(pairs))))


def test_readout_channel_single_bit():
    dist = _readout({"0": 1.0}, [(0.1, 0.2)])
    assert dist["0"] == pytest.approx(0.9)
    assert dist["1"] == pytest.approx(0.1)
    dist = _readout({"1": 1.0}, [(0.1, 0.2)])
    assert dist["0"] == pytest.approx(0.2)


def test_readout_channel_is_per_line():
    # pairs[0] acts on line 0 = rightmost character
    dist = _readout({"00": 1.0}, [(0.3, 0.0), (0.0, 0.0)])
    assert dist["01"] == pytest.approx(0.3)
    assert dist["00"] == pytest.approx(0.7)


def test_readout_channel_identity_when_zero():
    dist = {"01": 0.25, "10": 0.75}
    out = _readout(dist, [(0.0, 0.0)] * 2)
    assert out == pytest.approx(dist)


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=50, deadline=None)
def test_readout_channel_preserves_mass(p01, p10, weight):
    dist = {"0": weight, "1": 1.0 - weight}
    out = _readout(dist, [(p01, p10)])
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)


_probability = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def flip_cases(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.lists(_probability, min_size=2**width, max_size=2**width))
    total = sum(weights)
    assume(total > 0.0)
    dist = {format(i, f"0{width}b"): w / total for i, w in enumerate(weights) if w}
    pairs = draw(
        st.lists(
            st.tuples(_probability, _probability), min_size=width, max_size=width
        )
    )
    lines = draw(st.sets(st.integers(min_value=0, max_value=width - 1), min_size=1))
    return dist, pairs, draw(_probability), tuple(sorted(lines))


@settings(max_examples=80, deadline=None)
@given(flip_cases())
def test_channels_match_kronecker_oracle(case):
    dist, pairs, t, lines = case
    width = len(pairs)
    readout = _readout(dist, pairs)
    want = readout_oracle(dist, dict(enumerate(pairs)), width)
    for key, p in want.items():
        assert readout.get(key, 0.0) == pytest.approx(p, abs=1e-12)
    spec = TamperSpec(TamperMode.TARGETED, t, lines=lines)
    tampered = Counts(flip_channel(readout.vector, spec.flips(width)))
    want = readout_oracle(readout, {line: (t, t) for line in lines}, width)
    for key, p in want.items():
        assert tampered.get(key, 0.0) == pytest.approx(p, abs=1e-12)


# --- sampling and the execute pipeline ---------------------------------------


def test_sample_counts_deterministic():
    dist = as_counts({"00": 0.5, "11": 0.5})
    a = sample_counts(dist, 1000, seed=7)
    b = sample_counts(dist, 1000, seed=7)
    assert a == b
    assert sum(a.values()) == 1000


@pytest.mark.parametrize(
    "dist",
    [{"0": 0.25, "1": 0.25}, {"0": 1.2, "1": -0.2}],
    ids=["half_mass", "negative"],
)
def test_sample_counts_rejects_invalid_distribution(dist):
    with pytest.raises(ValueError):
        sample_counts(as_counts(dist), 100, seed=0)


def test_sample_counts_seed_sensitivity():
    dist = as_counts({"00": 0.5, "11": 0.5})
    assert sample_counts(dist, 1000, seed=1) != sample_counts(dist, 1000, seed=2)


def test_execute_shot_conservation():
    backend = BackendModel("hw", readout=(0.02, 0.02), drift=0.01)
    counts = execute(backend, prepare(_bell()), 500, seed=3)
    assert sum(counts.values()) == 500


def test_execute_reproducible():
    backend = BackendModel("hw", readout=(0.02, 0.02), drift=0.01)
    bell = prepare(_bell())
    assert execute(backend, bell, 200, seed=5) == execute(backend, bell, 200, seed=5)


def test_execute_backend_name_decorrelates_streams():
    bell = prepare(_bell())
    a = execute(BackendModel("hw_a", readout=(0.02, 0.02)), bell, 400, seed=5)
    b = execute(BackendModel("hw_b", readout=(0.02, 0.02)), bell, 400, seed=5)
    assert a != b


def test_clean_distribution_ignores_drift():
    bell = prepare(_bell())
    base = BackendModel("hw", readout=(0.05, 0.05))
    drifty = BackendModel("hw", readout=(0.05, 0.05), drift=0.05)
    assert clean_distribution(base, bell) == clean_distribution(drifty, bell)


def test_clean_distribution_is_computed_once_per_line_pairs(monkeypatch):
    calls = [0]
    real = simulator.flip_channel

    def counting(vec, flips):
        calls[0] += 1
        return real(vec, flips)

    monkeypatch.setattr(simulator, "flip_channel", counting)
    bell = prepare(_bell())
    plain = BackendModel("a", readout=(0.05, 0.1), drift=0.05)
    twin = BackendModel("b", readout=(0.05, 0.1), tamper=TamperSpec(TamperMode.TARGETED, 0.3))
    per_line = BackendModel("c", readout=((0.05, 0.1), (0.2, 0.1)))
    first = clean_distribution(plain, bell)
    assert clean_distribution(twin, bell) is first and calls == [1]
    # the key is the pair on each measured line, whatever readout gives it:
    # the broadcast pair per qubit, or a pair more for unmeasured qubit 2
    same = BackendModel("d", readout=((0.05, 0.1), (0.05, 0.1)))
    unmeasured = BackendModel("e", readout=((0.05, 0.1), (0.05, 0.1), (0.3, 0.3)))
    assert clean_distribution(same, bell) is first
    assert clean_distribution(unmeasured, bell) is first and calls == [1]
    other = clean_distribution(per_line, bell)
    assert calls == [2]
    # the same bits as a channel of its own; line 0 is qubit 0
    want = real(bell.ideal, {0: (0.05, 0.1), 1: (0.05, 0.1)})
    assert first.vector.tobytes() == want.tobytes()
    want = real(bell.ideal, {0: (0.05, 0.1), 1: (0.2, 0.1)})
    assert other.vector.tobytes() == want.tobytes()
    # targeted planning reads the same vector; another Prepared has its own
    resolve_tamper(twin, bell, seed=2)
    clean_distribution(plain, prepare(_bell()))
    assert calls == [3]


def test_clean_distribution_memo_is_shared_across_threads():
    # more threads than cores, switching often: every caller gets the one
    # vector kept, whichever thread computed it
    prepared = [prepare(builtin("adder_n10").circuit) for _ in range(20)]
    backends = [BackendModel(f"hw{i}", readout=(0.02, 0.03)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for one in prepared:
                got = list(
                    pool.map(lambda b: clean_distribution(b, one), backends, timeout=60)
                )
                assert all(counts is got[0] for counts in got)
                assert list(one._clean.values()) == [got[0]]
    finally:
        sys.setswitchinterval(interval)


def test_drift_jitter_changes_results_between_seeds():
    backend = BackendModel("hw", readout=(0.1, 0.1), drift=0.1)
    bell = prepare(_bell())
    outcomes = {
        tuple(sorted(execute(backend, bell, 2000, seed=s).items()))
        for s in range(4)
    }
    assert len(outcomes) > 1


def test_gate_depolarizing_degrades_output():
    b = CircuitBuilder(2)
    b.gate(GateKind.X, 0)
    b.gate(GateKind.CX, 0, 1)
    b.measure_all()
    prepared = prepare(b.build())
    clean = BackendModel("hw")
    noisy = BackendModel("hw", gate_depolarizing=0.2)
    c_clean = execute(clean, prepared, 4000, seed=0)
    c_noisy = execute(noisy, prepared, 4000, seed=0)
    assert c_clean.get("11", 0) > c_noisy.get("11", 0)


# each a readout or drift the stages cannot run: an unpacking or hashing
# error inside them, or counts drawn from NaN
BAD_NOISE = {
    "empty_readout": {"readout": ()},
    "one_number": {"readout": (0.1,)},
    "three_numbers": {"readout": (0.1, 0.2, 0.3)},
    "short_pair_of_qubit_0": {"readout": ((0.1,), (0.2, 0.3), (0.1, 0.1))},
    "list_readout": {"readout": [0.1, 0.2]},
    "nan_drift": {"drift": float("nan")},
    "inf_drift": {"drift": float("inf")},
}


@pytest.mark.parametrize("fields", BAD_NOISE.values(), ids=list(BAD_NOISE))
def test_backend_rejects_a_readout_or_drift_it_cannot_run(fields):
    with pytest.raises(NoiseError):
        BackendModel("hw", **fields)


def test_per_qubit_readout_pairs():
    backend = BackendModel("hw", readout=((0.0, 0.0), (0.5, 0.5)))
    b = CircuitBuilder(2)
    b.measure_all()
    dist = clean_distribution(backend, prepare(b.build()))
    # qubit 1 (left char) is fully mixed, qubit 0 untouched
    assert dist["00"] == pytest.approx(0.5)
    assert dist["10"] == pytest.approx(0.5)

    # clbit c holds line c: measured qubits 0, 1, 3 into clbits 2, 0, 1,
    # qubit 2 summed out
    b = CircuitBuilder(4, 3)
    b.gate(GateKind.RY, 0, params=(1.2,))
    b.gate(GateKind.CX, 0, 1)
    b.gate(GateKind.H, 2)
    b.gate(GateKind.CX, 2, 3)
    b.gate(GateKind.RY, 3, params=(0.4,))
    b.measure(0, 2).measure(1, 0).measure(3, 1)
    prepared = prepare(b.build())
    readout = ((0.01, 0.02), (0.03, 0.04), (0.05, 0.06), (0.07, 0.08))
    dist = clean_distribution(BackendModel("hw", readout=readout), prepared)
    on_line = {0: readout[1], 1: readout[3], 2: readout[0]}
    want = readout_oracle(Counts(prepared.ideal), on_line, 3)
    assert dist.vector.tolist() == pytest.approx(list(want.values()), abs=1e-12)
    short = BackendModel("short", readout=readout[:3])
    with pytest.raises(NoiseError, match="^no readout pair for qubit 3$"):
        clean_distribution(short, prepared)


# --- prepared ideal vector and gate-noise trajectories ------------------------


def _count_evolves(monkeypatch) -> list[int]:
    """Counts the error patterns ``_evolve`` runs; ``prepare`` runs one."""
    calls = [0]
    original = simulator._evolve

    def counting(circuit, patterns=((),), *args):
        calls[0] += len(patterns)
        return original(circuit, patterns, *args)

    monkeypatch.setattr(simulator, "_evolve", counting)
    return calls


def _noisy_circuit():
    b = CircuitBuilder(3)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.CX, 0, 1)
    b.gate(GateKind.RY, 2, params=(0.7,))
    b.gate(GateKind.CCX, 0, 1, 2)
    b.gate(GateKind.T, 1)
    b.gate(GateKind.H, 1)
    b.measure_all()
    return b.build()


def test_prepare_evolves_once_and_stages_evolve_nothing(monkeypatch):
    backend = BackendModel(
        "hw",
        readout=(0.05, 0.05),
        drift=0.01,
        tamper=TamperSpec(TamperMode.TARGETED, 0.3),
    )
    calls = _count_evolves(monkeypatch)
    prepared = prepare(_bell())
    resolved = resolve_tamper(backend, prepared, seed=2)
    execute(resolved, prepared, 500, seed=2)
    clean_distribution(backend, prepared)
    assert calls == [1]  # the stages read prepared.ideal


def test_resolve_tamper_refuses_a_subset_wider_than_the_lines():
    # the rule the config loader applies holds for library callers too
    prepared = prepare(_bell())
    wide = BackendModel("hw", tamper=TamperSpec(TamperMode.RANDOM_SUBSET, 0.3, k=3))
    with pytest.raises(TamperError, match="^subset size k=3 exceeds the 2 measured"):
        resolve_tamper(wide, prepared, seed=2)
    fits = replace(wide, tamper=TamperSpec(TamperMode.RANDOM_SUBSET, 0.3, k=2))
    assert resolve_tamper(fits, prepared, seed=2).tamper.lines == (0, 1)


def test_resolve_tamper_fills_only_missing_lines():
    b = CircuitBuilder(4)
    b.gate(GateKind.H, 0)
    for q in range(3):
        b.gate(GateKind.CX, q, q + 1)
    b.measure_all()
    prepared = prepare(b.build())  # GHZ: targeted planning flips every line
    for spec in (
        None,
        TamperSpec(TamperMode.RANDOM_ALL, 0.3),
        TamperSpec(TamperMode.TARGETED, 0.3, lines=(2,)),
    ):
        backend = BackendModel("hw", readout=(0.01, 0.02), tamper=spec)
        assert resolve_tamper(backend, prepared, seed=2) is backend
    for spec, size in (
        (TamperSpec(TamperMode.TARGETED, 0.3), 4),
        (TamperSpec(TamperMode.RANDOM_SUBSET, 0.3, k=3), 3),
    ):
        backend = BackendModel("hw", readout=(0.01, 0.02), tamper=spec)
        resolved = resolve_tamper(backend, prepared, seed=2)
        lines = resolved.tamper.lines
        assert len(lines) == size and lines == tuple(sorted(set(lines)))
        assert resolved == replace(backend, tamper=replace(spec, lines=lines))


def test_prepared_ideal_is_read_only():
    prepared = prepare(_bell())
    with pytest.raises(ValueError):
        prepared.ideal[0] = 1.0
    with pytest.raises(ValueError):
        prepared.ideal += 0.0


def test_prepared_rejects_an_ideal_of_another_width():
    # a Prepared built by hand, as the QAOA objective does, is checked too
    bell = _bell()
    with pytest.raises(CircuitError, match="^8-entry ideal vector for 2 measured bits$"):
        Prepared(bell, np.full(8, 1 / 8))
    assert Prepared(bell, prepare(bell).ideal.copy()).ideal.size == 4


def test_prepared_without_a_circuit_carries_its_measured_lines():
    # the restated form: a vector and its measured lines, for backends
    # without gate noise; it runs as the same vector with its circuit does
    b = CircuitBuilder(2, 2)
    b.gate(GateKind.X, 0)
    b.measure(0, 1)
    b.measure(1, 0)
    with_circuit = prepare(b.build())
    lines = with_circuit.circuit.measured_pairs
    assert with_circuit.measured_pairs == lines == ((0, 1), (1, 0))
    bare = Prepared(None, with_circuit.ideal.copy(), lines)
    backend = BackendModel(
        "hw", readout=((0.01, 0.02), (0.05, 0.1)), drift=0.01,
        tamper=TamperSpec(TamperMode.RANDOM_SUBSET, 0.3, k=1),
    )
    assert execute(backend, bare, 500, seed=3) == execute(
        backend, with_circuit, 500, seed=3
    )
    with pytest.raises(CircuitError, match="^gate noise needs the circuit's gates$"):
        execute(BackendModel("noisy", gate_depolarizing=0.01), bare, 10, seed=3)
    for args in [(None, bare.ideal), (b.build(), bare.ideal, lines)]:
        with pytest.raises(CircuitError, match="circuit or, without one"):
            Prepared(*args)
    with pytest.raises(CircuitError, match="^8-entry ideal vector for 2 measured"):
        Prepared(None, np.full(8, 1 / 8), lines)


def test_trajectory_mixture_replays_the_per_shot_stream():
    # the per-shot reference draws inline, so a change to the draw order
    # or to the weighting moves the mixture away from it
    circuit, p, shots = _noisy_circuit(), 0.05, 2000
    want = per_shot_trajectories(circuit, p, shots, np.random.default_rng(11))
    got = _trajectory_vector(prepare(circuit), p, shots, np.random.default_rng(11))
    assert np.max(np.abs(got - want)) < 1e-12


def test_gate_noise_execute_evolves_each_distinct_pattern_once(monkeypatch):
    circuit = builtin("adder_n4").circuit
    prepared = prepare(circuit)
    backend = BackendModel("noisy", gate_depolarizing=0.01)
    shots, seed = 500, 4
    rng = derive_rng(seed, backend.name, "trajectories")
    patterns = set(_draw_errors(circuit, 0.01, rng, shots))
    distinct = len(patterns - {()})
    assert 1 < distinct < shots
    calls = _count_evolves(monkeypatch)
    execute(backend, prepared, shots, seed)
    assert calls == [distinct]


def test_trajectory_mixture_matches_density_matrix_oracle():
    # The mixture is the mean of T independent measured-bit vectors v whose
    # expectation is the oracle's distribution. With K outcomes,
    # E[TVD] <= 1/2 sum_k sqrt(Var v_k / T) <= 1/2 sqrt(K/T), because
    # sum_k Var v_k <= sum_k E[v_k^2] <= 1.
    circuit, p, shots = _noisy_circuit(), 0.05, 20_000
    bound = 0.5 * math.sqrt(2**circuit.num_measured / shots)
    want = depolarizing_oracle(circuit, p)
    got = Counts(
        _trajectory_vector(prepare(circuit), p, shots, np.random.default_rng(3))
    )
    assert tvd(got, as_counts(want)) < bound
    # the check has power: the noise moves the distribution much further
    noiseless = as_counts(depolarizing_oracle(circuit, 0.0))
    assert tvd(noiseless, as_counts(want)) > 5 * bound


def test_gate_noise_10000_shots_runs_in_seconds(monkeypatch):
    bench = builtin("adder_n10")
    backend = BackendModel("noisy", gate_depolarizing=0.002)
    calls = _count_evolves(monkeypatch)
    start = time.perf_counter()
    counts = execute(backend, prepare(bench.circuit), 10_000, seed=1)
    elapsed = time.perf_counter() - start
    assert sum(counts.values()) == 10_000
    assert top_outcome(counts)[0] == bench.expected_output
    # one ideal plus one per distinct error pattern, not one per shot
    assert calls[0] < 1_000
    assert elapsed < 10.0


# --- in-place gate kernel and batched error draws ----------------------------

_UNITARY_KINDS = [k for k in GateKind if k not in (GateKind.BARRIER, GateKind.MEASURE)]
_IN_PLACE_KINDS = set(simulator._IN_PLACE)


@st.composite
def kernel_cases(draw):
    """n <= 8, one to three gates, each on distinct qubits in random order."""
    kinds = draw(st.lists(st.sampled_from(_UNITARY_KINDS), min_size=1, max_size=3))
    n = draw(st.integers(max(kind.arity for kind in kinds), 8))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    gates = []
    for kind in kinds:
        qubits = draw(st.permutations(range(n)))[: kind.arity]
        gates.append((kind, tuple(draw(angle) for _ in range(kind.num_params)), qubits))
    return n, gates, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_in_place_kernel_matches_tensordot_oracle(case):
    # a dense gate changes the state's memory order, so later gates run on
    # a permuted view: the sequence checks that too
    n, gates, seed = case
    rng = np.random.default_rng(seed)
    want = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
    want /= np.linalg.norm(want)
    state = want.reshape(-1).copy()
    buffer = np.empty_like(state)
    psi = state.reshape((1,) + want.shape)  # a batch of one state
    exact = True
    for kind, params, qubits in gates:
        axes = [n - 1 - q for q in qubits]
        want = tensordot_apply(want, reference_matrix(kind.value, params), axes)
        psi = simulator._apply(psi, kind, params, [a + 1 for a in axes], state, buffer)
        assert np.shares_memory(psi, state)
        exact = exact and kind in _IN_PLACE_KINDS  # products with 0, ±1, ±i
        if exact:
            assert np.array_equal(psi[0], want)
        else:
            assert np.max(np.abs(psi[0] - want)) <= 1e-12


def test_permutation_gates_read_no_matrix(monkeypatch):
    # H alone reads its matrix; around it the phases of the table gates
    # decide the outcome
    real = simulator.matrix

    def h_only(kind, params=()):
        if kind is not GateKind.H:
            raise AssertionError(f"{kind} read its matrix")
        return real(kind, params)

    monkeypatch.setattr(simulator, "matrix", h_only)
    b = CircuitBuilder(3)
    b.gate(GateKind.X, 0)
    b.gate(GateKind.CX, 0, 2)
    b.gate(GateKind.SWAP, 2, 1)
    b.gate(GateKind.CCX, 1, 0, 2)  # |111>
    b.gate(GateKind.H, 2)
    b.gate(GateKind.CZ, 0, 2)  # Z on qubit 2, as qubit 0 is |1>
    b.gate(GateKind.H, 2)  # HZH = X: |0> on qubit 2
    b.gate(GateKind.H, 2)
    b.gate(GateKind.Z, 2)
    b.gate(GateKind.H, 2)  # |1> on qubit 2
    b.gate(GateKind.H, 1)
    for kind in (GateKind.S, GateKind.S, GateKind.S, GateKind.SDG):
        b.gate(kind, 1)  # S^3 SDG = Z, where S^4 = SDG^4 = I
    b.gate(GateKind.H, 1)  # |0> on qubit 1
    b.gate(GateKind.Y, 0)  # -i|0> on qubit 0
    b.gate(GateKind.H, 0)
    b.gate(GateKind.Y, 0)  # HYH = -Y, HXH = Z
    b.gate(GateKind.H, 0)  # |1> on qubit 0
    b.measure_all()
    ideal = prepare(b.build()).ideal
    assert ideal == pytest.approx([0.0] * 5 + [1.0, 0.0, 0.0], abs=1e-12)  # "101"


# the norm check is an assert under __debug__, which python -O removes
needs_debug = pytest.mark.skipif(not __debug__, reason="python -O removes asserts")


@needs_debug
@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9])
def test_norm_check_catches_a_non_unitary_gate(monkeypatch, scale):
    real = simulator.matrix

    def scaled_h(kind, params=()):
        gate = real(kind, params)
        return scale * gate if kind is GateKind.H else gate

    monkeypatch.setattr(simulator, "matrix", scaled_h)
    with pytest.raises(AssertionError, match="norm drifted"):
        simulator._evolve(_bell())


# --- batched trajectories -----------------------------------------------------

_PAULI_OR_NONE = st.sampled_from([None, None, None, GateKind.X, GateKind.Y, GateKind.Z])


@st.composite
def batch_cases(draw):
    """A circuit on n <= 8 qubits over every gate kind, measuring a random
    subset into random clbits, and one to twelve Pauli error patterns on
    its gates (empty and repeated patterns included)."""
    n = draw(st.integers(1, 8))
    kinds = [kind for kind in _UNITARY_KINDS if kind.arity <= n]
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    b = CircuitBuilder(n, n)
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))[: kind.arity]
        b.gate(kind, *qubits, params=[draw(angle) for _ in range(kind.num_params)])
    measured = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    for q, clbit in zip(measured, draw(st.permutations(range(n)))):
        b.measure(q, clbit)
    circuit = b.build()
    patterns = []
    for _ in range(draw(st.integers(1, 12))):
        pattern = []
        for index, instr in circuit.gates:
            hits = [(q, draw(_PAULI_OR_NONE)) for q in instr.qubits]
            hits = tuple((q, kind) for q, kind in hits if kind is not None)
            if hits:
                pattern.append((index, hits))
        patterns.append(tuple(pattern))
    return circuit, patterns


@settings(max_examples=150, deadline=None)
@given(batch_cases())
def test_batched_evolve_equals_one_pattern_at_a_time(case):
    circuit, patterns = case
    batched = simulator._evolve(circuit, patterns)
    assert batched.shape == (len(patterns), 2**circuit.num_measured)
    for row, pattern in zip(batched, patterns):
        alone = simulator._evolve(circuit, [pattern])[0]
        assert row.tobytes() == alone.tobytes()  # bitwise, not close


_HIT_GATES = [
    (GateKind.H, (0,), ()), (GateKind.CX, (0, 1), ()), (GateKind.T, (1,), ()),
    (GateKind.RY, (2,), (0.3,)), (GateKind.CZ, (2, 0), ()), (GateKind.H, (1,), ()),
    (GateKind.SWAP, (1, 2), ()), (GateKind.H, (0,), ()), (GateKind.H, (2,), ()),
]


def _hit_circuit(pauli=None, after=None, qubit=None):
    """The gates of ``_HIT_GATES``, with ``pauli`` on ``qubit`` right after
    gate ``after`` when given."""
    b = CircuitBuilder(3)
    for index, (kind, qubits, params) in enumerate(_HIT_GATES):
        b.gate(kind, *qubits, params=params)
        if index == after:
            b.gate(pauli, qubit)
    b.measure_all()
    return b.build()


@pytest.mark.parametrize("pauli", [GateKind.X, GateKind.Y, GateKind.Z])
@pytest.mark.parametrize("after", range(len(_HIT_GATES)))
def test_a_pauli_hit_is_the_pauli_gate_after_the_hit_gate(pauli, after):
    # the hit trajectory sits between two clean ones of its batch
    circuit = _hit_circuit()
    for qubit in _HIT_GATES[after][1]:
        hit = ((after, ((qubit, pauli),)),)
        rows = simulator._evolve(circuit, [(), hit, ()])
        gate = prepare(_hit_circuit(pauli, after, qubit)).ideal
        assert rows[1].tobytes() == gate.tobytes()
        assert rows[0].tobytes() == rows[2].tobytes() == prepare(circuit).ideal.tobytes()


@needs_debug
def test_norm_check_covers_every_trajectory_of_a_batch(monkeypatch):
    # a Z error that scales the |1> half of one trajectory of 64 by
    # 1 + 1e-9 moves its norm by 1e-9 (that half holds mass 1/2), far below
    # the batch's total mass of 64 times 1e-10
    monkeypatch.setitem(
        simulator._IN_PLACE, GateKind.Z, (None, (((1,), -(1.0 + 1e-9)),))
    )
    b = CircuitBuilder(2)
    b.gate(GateKind.H, 0)
    b.gate(GateKind.CX, 0, 1)
    b.measure_all()
    patterns = [()] * 64
    patterns[37] = ((1, ((0, GateKind.Z),)),)
    with pytest.raises(AssertionError, match="norm drifted"):
        simulator._evolve(b.build(), patterns)


@pytest.mark.parametrize("amplitudes", [1, 1 << 5, 1 << 10])
def test_trajectory_chunks_do_not_move_the_vector(monkeypatch, amplitudes):
    # adder_n4 has 4 qubits: chunks of 1, 2 and 64 patterns against all at once
    prepared = prepare(builtin("adder_n4").circuit)
    p, shots = 0.05, 400

    def vector(cap):
        monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", cap)
        calls = []
        original = simulator._evolve

        def recording(circuit, patterns=((),), *args):
            calls.append(len(patterns))
            return original(circuit, patterns, *args)

        monkeypatch.setattr(simulator, "_evolve", recording)
        got = _trajectory_vector(prepared, p, shots, np.random.default_rng(5))
        monkeypatch.setattr(simulator, "_evolve", original)
        return got, calls

    whole, calls = vector(1 << 30)
    assert len(calls) == 1 and calls[0] > 64  # every distinct pattern at once
    chunked, chunks = vector(amplitudes)
    assert sum(chunks) == calls[0] and len(chunks) > 1
    assert max(chunks) == max(1, amplitudes >> 4)
    assert chunked.tobytes() == whole.tobytes()


def _as_names(pattern):
    return {index: tuple((q, kind.value) for q, kind in hits) for index, hits in pattern}


def _check_draws_match_per_call(circuit, p, seed, trajectories):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if seed % 2:  # a uint32 left in the buffer, which random() must not touch
        want_rng.integers(3)
        got_rng.integers(3)
    want = [per_call_errors(circuit, p, want_rng) for _ in range(trajectories)]
    got = _draw_errors(circuit, p, got_rng, trajectories)
    assert [_as_names(pattern) for pattern in got] == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("p", [0.001, 0.002, 0.01, 0.05, 0.3])
@pytest.mark.parametrize("name", ["adder_n10", "noisy"])
def test_raw_stream_draws_match_per_call_draws(name, p):
    circuit = builtin("adder_n10").circuit if name == "adder_n10" else _noisy_circuit()
    for seed in range(6):
        _check_draws_match_per_call(circuit, p, seed, 200)


@pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
def test_raw_stream_draws_match_across_buffer_refills(monkeypatch, p):
    # 5-double reads end mid-trajectory and mid-gate
    monkeypatch.setattr(simulator, "_CHUNK", 5)
    for seed in range(6):
        _check_draws_match_per_call(_noisy_circuit(), p, seed, 40)


# chi-square critical values at the 0.001 level for 1 and 2 degrees of freedom
_CHI2_999 = {1: 10.828, 2: 13.816}


def _chi2(observed, expected) -> float:
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


@pytest.mark.parametrize("p", [0.05, 1.0])
def test_error_draws_hit_at_rate_p_with_uniform_paulis(p):
    circuit = builtin("adder_n10").circuit
    slots = sum(
        len(instr.qubits)
        for instr in circuit.instructions
        if instr.kind not in (GateKind.BARRIER, GateKind.MEASURE)
    )
    trajectories = 2000
    patterns = _draw_errors(circuit, p, np.random.default_rng(2024), trajectories)
    paulis = Counter(
        kind for pattern in patterns for _, hits in pattern for _, kind in hits
    )
    hits, total = sum(paulis.values()), slots * trajectories
    if p < 1.0:
        rate = _chi2([hits, total - hits], [total * p, total * (1 - p)])
        assert rate < _CHI2_999[1]
    else:
        assert hits == total
    third = [hits / 3] * 3
    observed = [paulis[kind] for kind in (GateKind.X, GateKind.Y, GateKind.Z)]
    assert _chi2(observed, third) < _CHI2_999[2]


# --- the shared noise-free prefix ---------------------------------------------


@st.composite
def prefix_cases(draw):
    """A circuit on 1 to 14 qubits over every gate kind, dense and in place,
    and the drawn patterns of its trajectories, in a shuffled order: error
    free ones and noisy ones whose first hits fall on its first gate, on its
    last gate and on a gate that another pattern's first hit shares."""
    n = draw(st.integers(1, 14))
    kinds = [kind for kind in _UNITARY_KINDS if kind.arity <= n]
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    b = CircuitBuilder(n, n)
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))[: kind.arity]
        b.gate(kind, *qubits, params=[draw(angle) for _ in range(kind.num_params)])
    measured = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    for q, clbit in zip(measured, draw(st.permutations(range(n)))):
        b.measure(q, clbit)
    circuit = b.build()
    gates = circuit.gates
    firsts = [0, len(gates) - 1]
    firsts += draw(st.lists(st.integers(0, len(gates) - 1), max_size=4))
    firsts.append(draw(st.sampled_from(firsts)))  # a shared first hit
    pauli = st.sampled_from([GateKind.X, GateKind.Y, GateKind.Z])
    drawn = [()] * draw(st.integers(0, 3))
    for first in firsts:
        pattern = []
        for index, instr in gates[first:]:
            hits = [(q, draw(_PAULI_OR_NONE)) for q in instr.qubits]
            if not pattern:  # the first hit
                hits[0] = (hits[0][0], draw(pauli))
            hits = tuple((q, kind) for q, kind in hits if kind is not None)
            if hits:
                pattern.append((index, hits))
        drawn += [tuple(pattern)] * draw(st.integers(1, 3))
    return circuit, draw(st.permutations(drawn))


@settings(max_examples=60, deadline=None)
@given(prefix_cases())
def test_prefix_started_rows_equal_evolves_from_zero(case):
    circuit, drawn = case
    n, prepared = circuit.num_qubits, prepare(circuit)
    alone = {
        pattern: simulator._evolve(circuit, [pattern])[0]
        for pattern in set(drawn) - {()}
    }
    # the mixture in drawn order, as each pattern evolved from |0...0>
    want = 0.0
    for pattern, count in Counter(drawn).items():
        vec = alone[pattern] if pattern else prepared.ideal
        want += (count / len(drawn)) * vec
    mixtures = []
    for rows in (1, 2, 16):
        started = []
        original = simulator._evolve

        def recording(circuit, patterns=((),), *args):
            got = original(circuit, patterns, *args)
            started.extend(zip(patterns, got))
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_BATCH_AMPLITUDES", rows << n)
            patch.setattr(simulator, "_draw_errors", lambda *args: list(drawn))
            patch.setattr(simulator, "_evolve", recording)
            mixtures.append(_trajectory_vector(prepared, 0.1, len(drawn), None))
        assert Counter(pattern for pattern, _ in started) == Counter(list(alone))
        for pattern, row in started:
            assert row.tobytes() == alone[pattern].tobytes()  # bitwise
        assert np.max(np.abs(mixtures[-1] - want)) <= 1e-14 * np.max(want)
    assert mixtures[0].tobytes() == mixtures[1].tobytes() == mixtures[2].tobytes()


def _norm_case(monkeypatch, scaled: GateKind, firsts):
    """``_hit_circuit``'s gates with ``scaled`` (an H or the RY) scaled by
    1 + 1e-9 once its noise-free vector is prepared, and one X pattern
    first hit at each of ``firsts``; returns how many states ``_evolve``
    started before the norm check fired."""
    circuit = _hit_circuit()
    prepared = prepare(circuit)
    real = simulator.matrix

    def scaled_gate(kind, params=()):
        gate = real(kind, params)
        return (1.0 + 1e-9) * gate if kind is scaled else gate

    drawn = [((first, ((_HIT_GATES[first][1][0], GateKind.X),)),) for first in firsts]
    started = [0]
    original = simulator._evolve

    def counting(circuit, patterns=((),), *args):
        started[0] += len(patterns)
        return original(circuit, patterns, *args)

    monkeypatch.setattr(simulator, "matrix", scaled_gate)
    monkeypatch.setattr(simulator, "_draw_errors", lambda *args: list(drawn))
    monkeypatch.setattr(simulator, "_evolve", counting)
    with pytest.raises(AssertionError, match="norm drifted"):
        _trajectory_vector(prepared, 0.1, len(drawn), None)
    return started[0]


@needs_debug
def test_norm_check_covers_the_carried_prefix(monkeypatch):
    # the RY (gate 3) sits before every first hit: the carried noise-free
    # state runs it, and its check fires before any pattern starts
    assert _norm_case(monkeypatch, GateKind.RY, [4, 5, 6]) == 0


@needs_debug
def test_norm_check_covers_the_gates_after_every_first_hit(monkeypatch):
    # the RY (gate 3) sits after every first hit: only the trajectories run it
    assert _norm_case(monkeypatch, GateKind.RY, [0, 1, 2]) > 0
