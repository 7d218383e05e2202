"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
Every criterion is expected to pass. Criteria 04 and 05 test the
tampered PM at t = 0.5 against its exact value: the symmetric flip makes
the correct outcome and its flipped partner equiprobable, so the
analytic PM is 1, and the sampled mean may exceed it only by sampling
error (E[X/Y] >= 1 for exchangeable counts X, Y).
"""
import json
import math
import statistics
import time

import numpy as np
import pytest

from qtrust.adversary import TamperMode, TamperSpec, flip_channel
from qtrust.backend import BackendModel, NoiseModel
from qtrust.benchmarks import BENCHMARK_NAMES, LARGE_BENCHMARK_NAMES, builtin
from qtrust.defense import equal_split, probe, qaoa_iteration_split, select_backend
from qtrust.harness import load_config, run_experiment
from qtrust.metrics import Counts, pm, tvd
from qtrust.qaoa import (
    Graph,
    QaoaConfig,
    QaoaParams,
    build_qaoa_circuit,
    cmax,
    exact_expectation,
    optimize,
)
from qtrust.rng import derive_rng
from qtrust.simulator import (
    clean_distribution,
    execute,
    prepare,
    resolve_tamper,
    sample_counts,
)

from oracles import as_counts, oracle_distribution

NOISE = NoiseModel.symmetric(0.02)
DRIFT = 0.01


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _clean(name="hw_a"):
    return BackendModel(name, NOISE, drift=DRIFT)


def _tampered(name="hw_b", t=0.5):
    return BackendModel(
        name, NOISE, tamper=TamperSpec(TamperMode.TARGETED, t), drift=DRIFT
    )


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for name in ("grover_n2", "grover_n3", "fredkin_n3", "toffoli_n3"):
        bench = builtin(name)
        got = Counts(prepare(bench.circuit).ideal)
        want = oracle_distribution(bench.circuit)
        for key in set(got) | set(want):
            worst = max(worst, abs(got.get(key, 0.0) - want.get(key, 0.0)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _verdict(1, "oracle equivalence", ok, f"max |dp|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_channel_exactness():
    start = time.perf_counter()
    shots = 1_000_000
    circuit = builtin("toffoli_n3").circuit
    ideal = Counts(prepare(circuit).ideal)
    pairs = [(0.02, 0.02)] * 3
    worst = 0.0
    rng = derive_rng("channel-mc")
    for t in (0.1, 0.3, 0.5):
        for lines in ((0,), (0, 2)):
            spec = TamperSpec(TamperMode.TARGETED, t, lines=lines)
            readout = flip_channel(ideal.vector, dict(enumerate(pairs)))
            analytic = Counts(flip_channel(readout, spec.flips(3)))

            # per-shot Monte-Carlo: sample ideal outcomes, then flip bits
            keys = sorted(ideal)
            probs = np.array([ideal[k] for k in keys])
            draws = rng.choice(len(keys), size=shots, p=probs / probs.sum())
            bits = np.array([[int(c) for c in k] for k in keys])[draws]
            for line, (p01, p10) in enumerate(pairs):
                pos = 2 - line
                flip = rng.random(shots) < np.where(bits[:, pos] == 0, p01, p10)
                bits[:, pos] ^= flip
            for line in lines:
                pos = 2 - line
                bits[:, pos] ^= rng.random(shots) < t
            packed = bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2]
            mc = {
                format(v, "03b"): int(c)
                for v, c in zip(*np.unique(packed, return_counts=True))
            }
            worst = max(worst, tvd(as_counts(mc), analytic))
    elapsed = time.perf_counter() - start
    ok = worst < 0.005 and elapsed < 30.0
    _verdict(2, "channel exactness vs Monte-Carlo", ok,
             f"max TVD={worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_full_mixing_invariant():
    worst_analytic = 0.0
    for name in BENCHMARK_NAMES + LARGE_BENCHMARK_NAMES:
        bench = builtin(name)
        width = bench.circuit.num_measured
        dist = clean_distribution(BackendModel("hw", NOISE), prepare(bench.circuit))
        for line in range(width):
            spec = TamperSpec(TamperMode.TARGETED, 0.5, lines=(line,))
            out = Counts(flip_channel(dist.vector, spec.flips(width)))
            marginal = sum(
                p for k, p in out.items() if k[width - 1 - line] == "1"
            )
            worst_analytic = max(worst_analytic, abs(marginal - 0.5))
    # sampled check on one representative line
    bench = builtin("toffoli_n3")
    spec = TamperSpec(TamperMode.TARGETED, 0.5, lines=(0,))
    clean = clean_distribution(BackendModel("hw", NOISE), prepare(bench.circuit))
    dist = Counts(flip_channel(clean.vector, spec.flips(3)))
    counts = sample_counts(dist, 100_000, seed=0)
    sampled = sum(c for k, c in counts.items() if k[2] == "1") / 100_000
    ok = worst_analytic < 1e-12 and abs(sampled - 0.5) < 0.01
    _verdict(3, "full mixing at t=0.5", ok,
             f"analytic |m-0.5|<={worst_analytic:.1e}, sampled={sampled:.4f}")


def _pm_values(name: str, t: float, shots: int, seeds: int = 20) -> list[float]:
    bench = builtin(name)
    prepared = prepare(bench.circuit)
    values = []
    for seed in range(seeds):
        if t == 0.0:
            backend = _clean("hw")
        else:
            backend = BackendModel(
                "hw", NOISE, tamper=TamperSpec(TamperMode.TARGETED, t), drift=DRIFT
            )
        backend = resolve_tamper(backend, prepared, seed)
        counts = execute(backend, prepared, shots, seed)
        values.append(pm(counts, bench.expected_output))
    return values


def _analytic_pm(name: str, t: float, seeds: int = 20) -> float:
    """Largest exact PM of the tampered distribution over the seeds' plans."""
    bench = builtin(name)
    backend = BackendModel("hw", NOISE, tamper=TamperSpec(TamperMode.TARGETED, t))
    prepared = prepare(bench.circuit)
    dist = clean_distribution(backend, prepared)
    width = bench.circuit.num_measured
    flips = [
        resolve_tamper(backend, prepared, seed).tamper.flips(width)
        for seed in range(seeds)
    ]
    return max(
        pm(Counts(flip_channel(dist.vector, f)), bench.expected_output) for f in flips
    )


#: standard errors a sampled mean PM may sit above its exact value; a
#: one-sided family bound over the 12 comparisons of criteria 04 and 05
PM_SE_BOUND = 4.0


def _tie_clause(label: str, values: list[float], exact: float) -> tuple[bool, str]:
    """Check the t = 0.5 tie: the exact PM is at most 1 and the sampled
    mean lies at most PM_SE_BOUND standard errors above it."""
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    z = (mean - exact) / se
    ok = exact <= 1.0 + 1e-12 and z <= PM_SE_BOUND
    line = f"{label}: exact={exact:.6f} mean={mean:.4f} se={se:.4f} z={z:+.1f}"
    return ok, line + ("" if ok else " FAIL")


def test_criterion_04_pm_vs_t_trend():
    start = time.perf_counter()
    t_grid = (0.0, 0.1, 0.3, 0.5)
    failures = []
    lines = []
    for name in BENCHMARK_NAMES:
        values = {t: _pm_values(name, t, 10_000) for t in t_grid}
        means = [statistics.fmean(values[t]) for t in t_grid]
        if not all(means[i + 1] <= means[i] + 1e-9 for i in range(len(means) - 1)):
            failures.append(f"{name} not monotone {['%.2f' % m for m in means]}")
        tie_ok, line = _tie_clause(name, values[0.5], _analytic_pm(name, 0.5))
        lines.append(line)
        if not tie_ok:
            failures.append(f"{name} t=0.5 tie")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _verdict(4, "PM vs t trend", ok, "; ".join(failures + lines) + f" [{elapsed:.0f}s]")


def test_criterion_05_pm_vs_shots():
    shots_grid = (500, 1000, 2000, 5000, 10_000)
    exact = _analytic_pm("toffoli_n3", 0.5)
    results = [
        _tie_clause(f"{shots} shots", _pm_values("toffoli_n3", 0.5, shots), exact)
        for shots in shots_grid
    ]
    _verdict(5, "tampered PM at the t=0.5 tie across shot budgets",
             all(ok for ok, _ in results), "; ".join(line for _, line in results))


def test_criterion_06_equal_split_analytic():
    prepared = prepare(builtin("toffoli_n3").circuit)
    # analytic check without drift so the expected mixture is exact
    failures = []
    worst_tvd = 0.0
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        clean_bk = BackendModel("hw_a", NOISE)
        tampered_bk = BackendModel(
            "hw_b", NOISE, tamper=TamperSpec(TamperMode.TARGETED, t)
        )
        counts, _ = equal_split([clean_bk, tampered_bk], prepared, 100_000, seed=0)
        resolved = resolve_tamper(tampered_bk, prepared, 0)
        dist_clean = clean_distribution(clean_bk, prepared)
        tampered = flip_channel(dist_clean.vector, resolved.tamper.flips(3))
        mixture = Counts(0.5 * dist_clean.vector + 0.5 * tampered)
        worst_tvd = max(worst_tvd, tvd(counts, mixture))
        pm_split = pm(counts, "111")
        pm_tampered = statistics.fmean(
            pm(execute(resolved, prepared, 100_000, seed), "111") for seed in range(5)
        )
        if not pm_split > pm_tampered:
            failures.append(f"t={t}: split {pm_split:.2f} <= tampered {pm_tampered:.2f}")
    ok = worst_tvd < 0.01 and not failures
    _verdict(6, "equal split mixture + PM improvement", ok,
             f"max TVD={worst_tvd:.4f}" + ("; " + "; ".join(failures) if failures else ""))


def _detection_rate(t: float, n_backends: int, seeds: int = 100) -> float:
    prepared = prepare(builtin("toffoli_n3").circuit)
    wins = 0
    for seed in range(seeds):
        backends = [_clean("hw_a")]
        for i in range(n_backends - 1):
            backends.append(_tampered(f"hw_{chr(98 + i)}", t=t))
        report = probe(backends, prepared, k=50, r=2, seed=seed)
        wins += select_backend(report) == "hw_a"
    return wins / seeds


def test_criterion_07_adaptive_detection_rate():
    start = time.perf_counter()
    results = {
        ("2bk", 0.1): (_detection_rate(0.1, 2), 0.70),
        ("2bk", 0.3): (_detection_rate(0.3, 2), 0.90),
        ("2bk", 0.5): (_detection_rate(0.5, 2), 0.90),
        ("3bk", 0.3): (_detection_rate(0.3, 3), 0.90),
        ("3bk", 0.5): (_detection_rate(0.5, 3), 0.90),
    }
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"{setup} t={t}: {rate:.2f} (need {need})"
        for (setup, t), (rate, need) in results.items()
    )
    ok = all(rate >= need for rate, need in results.values())
    _verdict(7, "adaptive detection rate", ok, detail + f" [{elapsed:.0f}s]")


def test_criterion_08_qaoa_sanity():
    graph = Graph.from_edges(2, [(0, 1)])
    # grid oracle: exact expectation over the init domain reaches cmax
    best = max(
        exact_expectation(
            Counts(prepare(build_qaoa_circuit(graph, QaoaParams((g,), (b,)))).ideal),
            graph,
        )
        for g in np.linspace(0.0, math.pi, 41)
        for b in np.linspace(0.0, math.pi / 2, 21)
    )
    grid_ok = best >= cmax(graph) - 1e-6

    backend = BackendModel("hw", NoiseModel.ideal())
    hits = sum(
        optimize(backend, graph, iterations=50, shots_per_iter=50, seed=s).ar >= 0.95
        for s in range(20)
    )
    ok = grid_ok and hits >= 18
    _verdict(8, "QAOA single-edge sanity", ok,
             f"grid max={best:.4f}, {hits}/20 seeds reach AR>=0.95")


def test_criterion_09_qaoa_tamper_trend():
    start = time.perf_counter()
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    config = QaoaConfig()
    ar_clean, ar_tampered, ar_split = [], [], []
    for seed in range(10):
        clean_bk = _clean("hw_a")
        tampered_bk = _tampered("hw_b", t=0.5)
        ar_clean.append(
            optimize(clean_bk, graph, iterations=50, shots_per_iter=50, seed=seed).ar
        )
        ar_tampered.append(
            optimize(tampered_bk, graph, iterations=50, shots_per_iter=50, seed=seed).ar
        )
        ar_split.append(
            qaoa_iteration_split(clean_bk, tampered_bk, graph, config, seed).ar
        )
    m_clean = statistics.fmean(ar_clean)
    m_tampered = statistics.fmean(ar_tampered)
    m_split = statistics.fmean(ar_split)
    elapsed = time.perf_counter() - start
    ok = (
        m_tampered <= 0.85 * m_clean
        and m_tampered < m_split < m_clean
        and elapsed < 300.0
    )
    _verdict(9, "QAOA tamper and split ordering", ok,
             f"clean={m_clean:.3f}, split={m_split:.3f}, tampered={m_tampered:.3f}, "
             f"{elapsed:.0f}s")


def test_criterion_10_metric_properties():
    rng = derive_rng("metric-axioms")
    worst_axiom = 0.0
    dpi_ok = True
    for _ in range(1000):
        a = Counts(rng.dirichlet(np.ones(8)))
        b = Counts(rng.dirichlet(np.ones(8)))
        c = Counts(rng.dirichlet(np.ones(8)))
        worst_axiom = max(
            worst_axiom,
            abs(tvd(a, b) - tvd(b, a)),          # symmetry
            tvd(a, a),                            # identity
            tvd(a, c) - (tvd(a, b) + tvd(b, c)),  # triangle
        )
        lines = tuple(
            sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False).tolist())
        )
        spec = TamperSpec(
            TamperMode.TARGETED, float(rng.uniform(0, 0.5)), lines=lines
        )
        flips = spec.flips(3)
        a_out = Counts(flip_channel(a.vector, flips))
        b_out = Counts(flip_channel(b.vector, flips))
        if tvd(a_out, b_out) > tvd(a, b) + 1e-12:
            dpi_ok = False
    ok = worst_axiom < 1e-12 and dpi_ok
    _verdict(10, "TVD axioms + data-processing inequality", ok,
             f"worst axiom violation={worst_axiom:.2e}, DPI={'ok' if dpi_ok else 'violated'}")


def test_criterion_11_determinism():
    config_dict = {
        "workload": {"builtin": "toffoli_n3"},
        "backends": [
            {"name": "hw_a", "readout": 0.02, "drift": 0.01},
            {
                "name": "hw_b",
                "readout": 0.02,
                "drift": 0.01,
                "tamper": {"mode": "targeted", "t": 0.5},
            },
        ],
        "shots": 10_000,
        "t_sweep": [0.1, 0.5],
        "seeds": [0, 1, 2],
        "defense": {"mode": "adaptive", "k": 50, "r": 2},
        "master_seed": 7,
    }

    def lines(jobs):
        records, errors = run_experiment(load_config(config_dict), jobs=jobs)
        assert not errors
        return [
            json.dumps(
                {k: v for k, v in r.items() if k != "wall_time_s"}, sort_keys=True
            )
            for r in records
        ]

    serial, parallel, rerun = lines(1), lines(3), lines(1)
    ok = serial == parallel == rerun and len(serial) == 6
    _verdict(11, "byte-identical reruns incl. --jobs > 1", ok,
             f"{len(serial)} records compared")
