import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtrust.adversary import TamperMode, TamperSpec, flip_channel
from qtrust import simulator
from qtrust.backend import BackendModel, NoiseModel
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
    backend = BackendModel("hw", NoiseModel.symmetric(0.02), drift=0.01)
    counts = execute(backend, prepare(_bell()), 500, seed=3)
    assert sum(counts.values()) == 500


def test_execute_reproducible():
    backend = BackendModel("hw", NoiseModel.symmetric(0.02), drift=0.01)
    bell = prepare(_bell())
    assert execute(backend, bell, 200, seed=5) == execute(backend, bell, 200, seed=5)


def test_execute_backend_name_decorrelates_streams():
    noise, bell = NoiseModel.symmetric(0.02), prepare(_bell())
    a = execute(BackendModel("hw_a", noise), bell, 400, seed=5)
    b = execute(BackendModel("hw_b", noise), bell, 400, seed=5)
    assert a != b


def test_clean_distribution_ignores_drift():
    bell = prepare(_bell())
    base = BackendModel("hw", NoiseModel.symmetric(0.05))
    drifty = BackendModel("hw", NoiseModel.symmetric(0.05), drift=0.05)
    assert clean_distribution(base, bell) == clean_distribution(drifty, bell)


def test_drift_jitter_changes_results_between_seeds():
    backend = BackendModel("hw", NoiseModel.symmetric(0.1), drift=0.1)
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
    clean = BackendModel("hw", NoiseModel())
    noisy = BackendModel("hw", NoiseModel(gate_depolarizing=0.2))
    c_clean = execute(clean, prepared, 4000, seed=0)
    c_noisy = execute(noisy, prepared, 4000, seed=0)
    assert c_clean.get("11", 0) > c_noisy.get("11", 0)


def test_per_qubit_readout_pairs():
    noise = NoiseModel(readout=((0.0, 0.0), (0.5, 0.5)))
    backend = BackendModel("hw", noise)
    b = CircuitBuilder(2)
    b.measure_all()
    dist = clean_distribution(backend, prepare(b.build()))
    # qubit 1 (left char) is fully mixed, qubit 0 untouched
    assert dist["00"] == pytest.approx(0.5)
    assert dist["10"] == pytest.approx(0.5)


# --- prepared ideal vector and gate-noise trajectories ------------------------


def _count_evolves(monkeypatch) -> list[int]:
    calls = [0]
    original = simulator._evolve

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

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
        NoiseModel.symmetric(0.05),
        drift=0.01,
        tamper=TamperSpec(TamperMode.TARGETED, 0.3),
    )
    calls = _count_evolves(monkeypatch)
    prepared = prepare(_bell())
    resolved = resolve_tamper(backend, prepared, seed=2)
    execute(resolved, prepared, 500, seed=2)
    clean_distribution(backend, prepared)
    assert calls == [1]  # the stages read prepared.ideal


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
    backend = BackendModel("noisy", NoiseModel(gate_depolarizing=0.01))
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
    backend = BackendModel("noisy", NoiseModel(gate_depolarizing=0.002))
    calls = _count_evolves(monkeypatch)
    start = time.perf_counter()
    counts = execute(backend, prepare(bench.circuit), 10_000, seed=1)
    elapsed = time.perf_counter() - start
    assert sum(counts.values()) == 10_000
    assert top_outcome(counts)[0] == bench.expected_output
    # one ideal plus one per distinct error pattern, not one per shot
    assert calls[0] < 1_000
    assert elapsed < 10.0


# --- in-place gate kernel and raw-stream error draws ---------------------------

_UNITARY_KINDS = [k for k in GateKind if k not in (GateKind.BARRIER, GateKind.MEASURE)]
_PERMUTATION_KINDS = {GateKind.X, GateKind.CX, GateKind.SWAP, GateKind.CCX}


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
    psi = state.reshape(want.shape)
    exact = True
    for kind, params, qubits in gates:
        axes = [n - 1 - q for q in qubits]
        want = tensordot_apply(want, reference_matrix(kind.value, params), axes)
        psi = simulator._apply(psi, kind, params, axes, state, buffer)
        assert np.shares_memory(psi, state)
        exact = exact and kind in _PERMUTATION_KINDS
        if exact:
            assert np.array_equal(psi, want)
        else:
            assert np.max(np.abs(psi - want)) <= 1e-12


def test_permutation_gates_read_no_matrix(monkeypatch):
    def no_matrix(kind, params=()):
        raise AssertionError(f"{kind} read its matrix")

    monkeypatch.setattr(simulator, "matrix", no_matrix)
    b = CircuitBuilder(3)
    b.gate(GateKind.X, 0)
    b.gate(GateKind.CX, 0, 2)
    b.gate(GateKind.SWAP, 2, 1)
    b.gate(GateKind.CCX, 1, 0, 2)
    b.measure_all()
    assert prepare(b.build()).ideal.tolist() == [0.0] * 7 + [1.0]  # "111"


@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9])
def test_norm_check_catches_a_non_unitary_gate(monkeypatch, scale):
    real = simulator.matrix

    def scaled_h(kind, params=()):
        gate = real(kind, params)
        return scale * gate if kind is GateKind.H else gate

    monkeypatch.setattr(simulator, "matrix", scaled_h)
    with pytest.raises(AssertionError, match="norm drifted"):
        simulator._evolve(_bell())


def _as_names(pattern):
    return {index: tuple((q, kind.value) for q, kind in hits) for index, hits in pattern}


def _check_draws_match_per_call(circuit, p, seed, trajectories):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if seed % 2:  # start with half a word left in the uint32 buffer
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
    # a 5-word buffer refills mid-trajectory and runs out inside integers(3)
    monkeypatch.setattr(simulator, "_CHUNK", 5)
    for seed in range(6):
        _check_draws_match_per_call(_noisy_circuit(), p, seed, 40)
