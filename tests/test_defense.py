import statistics

import pytest

from qtrust import simulator
from qtrust.adversary import TamperMode, TamperSpec
from qtrust.backend import BackendModel, NoiseModel
from qtrust.benchmarks import builtin
from qtrust.defense import (
    DefenseError,
    InsufficientShots,
    adaptive_split,
    equal_split,
    probe,
    qaoa_adaptive,
    qaoa_iteration_split,
    select_backend,
)
from qtrust.metrics import pm
from qtrust.qaoa import Graph, QaoaConfig
from qtrust.simulator import prepare

NOISE = NoiseModel.symmetric(0.02)
TOFFOLI = prepare(builtin("toffoli_n3").circuit)


def clean(name="hw_a"):
    return BackendModel(name, NOISE, drift=0.01)


def tampered(name="hw_b", t=0.5, mode=TamperMode.TARGETED, k=None):
    return BackendModel(name, NOISE, tamper=TamperSpec(mode, t, k), drift=0.01)


def test_adaptive_split_plans_a_targeted_backend_once(monkeypatch):
    # probe and the main run share one resolution of the tamper lines
    calls = []
    real = simulator.plan_targeted

    def counted(counts):
        calls.append(counts)
        return real(counts)

    monkeypatch.setattr(simulator, "plan_targeted", counted)
    adaptive_split([tampered()], TOFFOLI, 2 * 50 + 100, k=50, r=2, seed=0)
    assert len(calls) == 1


# --- equal split --------------------------------------------------------------


def test_equal_split_allocations():
    counts, plan = equal_split([clean(), tampered()], TOFFOLI, 10001, seed=0)
    assert plan.allocations == (("hw_a", 5001), ("hw_b", 5000))
    assert plan.selected is None
    assert sum(counts.values()) == 10001


def test_equal_split_needs_two_backends():
    with pytest.raises(DefenseError):
        equal_split([clean()], TOFFOLI, 100, seed=0)


def test_equal_split_insufficient_budget():
    with pytest.raises(InsufficientShots):
        equal_split([clean(), tampered(), clean("hw_c")], TOFFOLI, 2, seed=0)


def test_equal_split_duplicate_names_rejected():
    with pytest.raises(DefenseError):
        equal_split([clean("x"), tampered("x")], TOFFOLI, 100, seed=0)


def test_equal_split_deterministic():
    args = ([clean(), tampered()], TOFFOLI, 1000)
    assert equal_split(*args, seed=3) == equal_split(*args, seed=3)


# --- probe and selection --------------------------------------------------------


def test_probe_report_shape():
    report = probe([clean(), tampered()], TOFFOLI, k=50, r=3, seed=0)
    assert report.probe_shots == 50
    assert report.probe_runs == 3
    assert len(report.backends) == 2
    for bp in report.backends:
        assert len(bp.runs) == 3
        assert all(sum(run.counts.values()) == 50 for run in bp.runs)


def test_probe_parameter_guards():
    with pytest.raises(DefenseError):
        probe([clean(), tampered()], TOFFOLI, k=5, r=2, seed=0)
    with pytest.raises(DefenseError):
        probe([clean(), tampered()], TOFFOLI, k=50, r=1, seed=0)


def test_probe_votes_with_clean_majority():
    report = probe([clean(), tampered(t=0.5)], TOFFOLI, seed=0)
    assert report.voted_answer == "111"


def test_probe_clean_backend_fingerprint():
    report = probe([clean(), tampered(t=0.5)], TOFFOLI, seed=1)
    bp = report.for_backend("hw_a")
    assert bp.repeatable
    assert bp.runs[0].top == "111"
    assert bp.mean_inter_run_tvd < 0.25


def test_probe_unknown_backend_lookup():
    report = probe([clean(), tampered()], TOFFOLI, seed=0)
    with pytest.raises(KeyError):
        report.for_backend("nope")


def test_select_backend_identical_backends_tie_by_name():
    report = probe([clean("hw_b"), clean("hw_a")], TOFFOLI, seed=2)
    # identical models: any metric differences come from seeded streams,
    # so just assert determinism and a valid winner
    winner = select_backend(report)
    assert winner in ("hw_a", "hw_b")
    assert select_backend(report) == winner


def test_select_backend_prefers_clean_at_heavy_tampering():
    hits = sum(
        select_backend(probe([clean(), tampered(t=0.5)], TOFFOLI, seed=s)) == "hw_a"
        for s in range(20)
    )
    assert hits >= 17


def test_select_backend_empty_report():
    from qtrust.defense import ProbeReport

    with pytest.raises(DefenseError):
        select_backend(ProbeReport((), "", 50, 2))


def test_select_backend_order_validation():
    report = probe([clean(), tampered()], TOFFOLI, seed=0)
    with pytest.raises(DefenseError):
        select_backend(report, order=("pm", "pm", "tvd", "confidence"))


def test_select_backend_order_is_configurable():
    from qtrust.defense import BackendProbe, ProbeReport, ProbeRun

    run = ProbeRun({"111": 40, "110": 10}, "111", 0.8, 4.0)

    def backend(name, mean_pm, tvd):
        return BackendProbe(name, (run, run), True, tvd, mean_pm, 0.8)

    # both repeatable and voted; hw_a wins on PM, hw_b on TVD
    report = ProbeReport(
        (backend("hw_a", 5.0, 0.2), backend("hw_b", 2.0, 0.05)), "111", 50, 2
    )
    assert select_backend(report) == "hw_a"
    tvd_first = ("repeatability", "tvd", "pm", "confidence")
    assert select_backend(report, order=tvd_first) == "hw_b"


# --- adaptive split -------------------------------------------------------------


def test_adaptive_split_budget_accounting():
    shots = 10000
    counts, plan, report = adaptive_split(
        [clean(), tampered()], TOFFOLI, shots, k=50, r=2, seed=0
    )
    executed = dict(plan.allocations)
    # probes run on both backends; remainder goes to the winner
    assert sum(executed.values()) == shots
    assert min(executed.values()) == 100
    # the answer excludes the loser's probe shots
    assert sum(counts.values()) == shots - 100
    assert plan.selected == select_backend(report)
    assert executed[plan.selected] == shots - 100


def test_adaptive_split_insufficient_budget():
    with pytest.raises(InsufficientShots):
        adaptive_split([clean(), tampered()], TOFFOLI, 150, k=50, r=2, seed=0)


def test_adaptive_split_probe_only_budget():
    shots = 200  # exactly 2 backends x 2 runs x 50
    counts, plan, report = adaptive_split(
        [clean(), tampered()], TOFFOLI, shots, k=50, r=2, seed=0
    )
    assert sum(counts.values()) == 100


def test_adaptive_split_deterministic():
    args = ([clean(), tampered()], TOFFOLI, 1000)
    a = adaptive_split(*args, seed=7)
    b = adaptive_split(*args, seed=7)
    assert a[0] == b[0] and a[1] == b[1]


def test_defense_dominance_ordering():
    """Median PM: adaptive >= equal >= tampered-only (t=0.5, targeted)."""
    from qtrust.simulator import execute, resolve_tamper

    pm_tampered, pm_equal, pm_adaptive = [], [], []
    for seed in range(8):
        bks = [clean(), tampered(t=0.5)]
        resolved = resolve_tamper(bks[1], TOFFOLI, seed)
        pm_tampered.append(pm(execute(resolved, TOFFOLI, 10000, seed), "111"))
        counts, _ = equal_split(bks, TOFFOLI, 10000, seed)
        pm_equal.append(pm(counts, "111"))
        counts, _, _ = adaptive_split(bks, TOFFOLI, 10000, seed=seed)
        pm_adaptive.append(pm(counts, "111"))
    assert statistics.median(pm_adaptive) >= statistics.median(pm_equal)
    assert statistics.median(pm_equal) >= statistics.median(pm_tampered)


def test_adaptive_both_tampered_still_completes():
    bks = [
        tampered("hw_a", t=0.3, mode=TamperMode.RANDOM_SUBSET, k=1),
        tampered("hw_b", t=0.5, mode=TamperMode.RANDOM_SUBSET, k=2),
    ]
    counts, plan, report = adaptive_split(bks, TOFFOLI, 5000, seed=0)
    assert sum(s for _, s in plan.allocations) == 5000


# --- hybrid variants -------------------------------------------------------------


def graph_c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_iteration_split_budget_and_ar():
    config = QaoaConfig(iterations=20)
    record = qaoa_iteration_split(clean(), tampered(), graph_c4(), config, seed=0)
    assert len(record.phase_a.trace) == 10
    assert len(record.phase_b.trace) == 10
    best = max(record.phase_a.best_expectation, record.phase_b.best_expectation)
    assert record.ar == pytest.approx(best / record.cmax)


def test_iteration_split_needs_even_budget():
    with pytest.raises(DefenseError):
        qaoa_iteration_split(
            clean(), tampered(), graph_c4(), QaoaConfig(iterations=21), seed=0
        )


def test_iteration_split_phase_b_starts_from_phase_a_incumbent():
    config = QaoaConfig(iterations=20)
    record = qaoa_iteration_split(clean(), tampered(t=0.0), graph_c4(), config, seed=3)
    # phase B's first evaluation is at phase A's best parameters
    assert record.phase_b.trace[0] > 0.0


def test_qaoa_adaptive_accounting():
    config = QaoaConfig(iterations=50)
    result = qaoa_adaptive(
        [clean(), tampered(t=0.5)], graph_c4(), config,
        probe_iterations=5, probe_runs=2, seed=0,
    )
    assert set(result.probe_ars) == {"hw_a", "hw_b"}
    assert all(len(v) == 2 for v in result.probe_ars.values())
    # 50 total - 2 backends x 2 runs x 5 iterations = 30 on the winner
    assert len(result.final.trace) == 30
    assert result.selected in ("hw_a", "hw_b")


def test_qaoa_adaptive_budget_guard():
    with pytest.raises(InsufficientShots):
        qaoa_adaptive(
            [clean(), tampered()], graph_c4(), QaoaConfig(iterations=20),
            probe_iterations=5, probe_runs=2, seed=0,
        )


def test_qaoa_adaptive_deterministic():
    config = QaoaConfig(iterations=30)
    kwargs = dict(probe_iterations=5, probe_runs=2, seed=4)
    a = qaoa_adaptive([clean(), tampered()], graph_c4(), config, **kwargs)
    b = qaoa_adaptive([clean(), tampered()], graph_c4(), config, **kwargs)
    assert a.selected == b.selected
    assert a.ar == b.ar
