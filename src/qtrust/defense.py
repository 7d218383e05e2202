"""Shot-distribution defenses against result tampering.

Equal split spreads a fixed shot budget evenly over all backends and
stitches the histograms. Adaptive split first fingerprints every backend
with short probe runs and ranks them by repeatability, then PM against
a voted answer, then inter-run TVD, then confidence; the winner gets the
remaining budget. PM ranks before TVD because the TVD of two short probes
is mostly sampling noise, while a tampered backend's PM against the
voted answer collapses towards 1.
Each mode's spend is defined once, in ``allocation``, which the defenses
and the harness's load-time budget checks read.
The user never needs ground truth: the probe's reference answer comes
from majority voting over per-cell top outcomes. The sampling defenses
take a ``simulator.Prepared``, so every backend and run reads the one
vector ``simulator.prepare`` evolved.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from .backend import BackendModel
from .metrics import Counts, _ordered_sum, pm, stitch, top_outcome, tvd
from .rng import derive_seed
from .simulator import Prepared, execute, resolve_tamper

if TYPE_CHECKING:
    from .qaoa import Graph, QaoaConfig, QaoaRunRecord


#: default ranking criteria, most significant first
SELECTION_ORDER = ("repeatability", "pm", "tvd", "confidence")
#: probe defaults, one per `defense` config option of the same name
DEFAULT_K = 50
DEFAULT_R = 2
DEFAULT_PROBE_ITERATIONS = 5
DEFAULT_PROBE_RUNS = 2


class DefenseError(ValueError):
    pass


class InsufficientShots(DefenseError):
    pass


@dataclass(frozen=True)
class SplitPlan:
    allocations: tuple[tuple[str, int], ...]
    selected: str | None = None  # the adaptive pick; None for equal split


@dataclass(frozen=True)
class ProbeRun:
    counts: Counts
    top: str
    confidence: float
    pm: float


@dataclass(frozen=True)
class BackendProbe:
    name: str
    runs: tuple[ProbeRun, ...]
    repeatable: bool  # same top outcome in every run
    mean_inter_run_tvd: float
    mean_pm: float
    mean_confidence: float


@dataclass(frozen=True)
class ProbeReport:
    backends: tuple[BackendProbe, ...]
    voted_answer: str
    probe_shots: int
    probe_runs: int

    def for_backend(self, name: str) -> BackendProbe:
        for bp in self.backends:
            if bp.name == name:
                return bp
        raise KeyError(name)


def _check_backends(backends: list[BackendModel]) -> None:
    names = [b.name for b in backends]
    if len(set(names)) != len(names):
        raise DefenseError(f"backend names must be unique: {names}")


def allocation(
    mode: str,
    backends: int,
    total: int,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    probe_iterations: int = DEFAULT_PROBE_ITERATIONS,
    probe_runs: int = DEFAULT_PROBE_RUNS,
) -> tuple[tuple[int, ...], int]:
    """Each of ``backends`` backends' runs under ``mode`` from a budget of
    ``total``, in backend order, and the runs the selected backend adds after
    the probes. A run is a shot for the sampling modes and an evaluation for
    the QAOA modes. Raises the mode's budget errors."""
    if mode == "none":
        return (total,) * backends, 0
    if mode == "equal":
        if backends < 2:
            raise DefenseError("equal split needs at least two backends")
        if total < backends:
            raise InsufficientShots(f"{total} shots across {backends} backends")
        base, extra = divmod(total, backends)  # the remainder to the first
        return tuple(base + (i < extra) for i in range(backends)), 0
    if mode == "adaptive":
        probe_cost = backends * r * k
        if total < probe_cost:
            raise InsufficientShots(
                f"budget {total} cannot cover {probe_cost} probe shots"
            )
        return (r * k,) * backends, total - probe_cost
    if mode == "qaoa_split":
        if total % 2:
            raise DefenseError("iteration split needs an even iteration budget")
        return (total // 2,) * backends, 0
    if mode == "qaoa_adaptive":
        probe_cost = backends * probe_runs * probe_iterations
        if total <= probe_cost:
            raise InsufficientShots(
                f"iteration budget {total} cannot cover {probe_cost} probe iterations"
            )
        return (probe_runs * probe_iterations,) * backends, total - probe_cost
    raise DefenseError(f"unknown defense mode {mode!r}")


def equal_split(
    backends: list[BackendModel], prepared: Prepared, shots: int, seed: int
) -> tuple[Counts, SplitPlan]:
    """Divide the budget evenly; remainder goes to the first backends."""
    _check_backends(backends)
    shares, _ = allocation("equal", len(backends), shots)
    parts = []
    for backend, share in zip(backends, shares):
        resolved = resolve_tamper(backend, prepared, seed)
        parts.append(execute(resolved, prepared, share, derive_seed(seed, "equal")))
    return stitch(parts), SplitPlan(tuple(zip([b.name for b in backends], shares)))


def probe(
    backends: list[BackendModel],
    prepared: Prepared,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    seed: int = 0,
) -> ProbeReport:
    """Fingerprint every backend with r runs of k shots each."""
    _check_backends(backends)
    if k < 10:
        raise DefenseError("probe shots k must be >= 10")
    if r < 2:
        raise DefenseError("probe runs r must be >= 2")
    raw: dict[str, list[Counts]] = {}
    for backend in backends:
        resolved = resolve_tamper(backend, prepared, seed)
        raw[backend.name] = [
            execute(resolved, prepared, k, derive_seed(seed, "probe", j))
            for j in range(r)
        ]

    # majority vote over per-cell top outcomes; ties toward the outcome
    # with the largest summed count, then lexicographic
    tops = {name: [top_outcome(c) for c in runs] for name, runs in raw.items()}
    summed = stitch([c for runs in raw.values() for c in runs])
    votes = Counter(top for pairs in tops.values() for top, _ in pairs)
    voted = min(votes, key=lambda s: (-votes[s], -summed.get(s, 0), s))

    probes = []
    for backend in backends:
        runs = [
            ProbeRun(counts, top, conf, pm(counts, voted))
            for counts, (top, conf) in zip(raw[backend.name], tops[backend.name])
        ]
        pair_tvds = [tvd(a.counts, b.counts) for a, b in combinations(runs, 2)]
        probes.append(
            BackendProbe(
                name=backend.name,
                runs=tuple(runs),
                repeatable=len({run.top for run in runs}) == 1,
                mean_inter_run_tvd=_ordered_sum(pair_tvds) / len(pair_tvds),
                mean_pm=_ordered_sum([run.pm for run in runs]) / r,
                mean_confidence=_ordered_sum([run.confidence for run in runs]) / r,
            )
        )
    return ProbeReport(tuple(probes), voted, k, r)


def select_backend(report: ProbeReport, order=SELECTION_ORDER) -> str:
    """Lexicographic ranking: repeatable-and-voted top, then higher PM,
    then lower TVD, higher confidence, name.

    ``order`` reorders the first four criteria (harness-configurable);
    the backend name always breaks remaining ties.
    """
    if not report.backends:
        raise DefenseError("empty probe report")
    if sorted(order) != sorted(SELECTION_ORDER):
        raise DefenseError(
            f"selection order must be a permutation of {SELECTION_ORDER}"
        )

    def key(bp: BackendProbe):
        converged = bp.repeatable and bp.runs[0].top == report.voted_answer
        parts = {
            "repeatability": 0 if converged else 1,
            "tvd": bp.mean_inter_run_tvd,
            "pm": -bp.mean_pm,
            "confidence": -bp.mean_confidence,
        }
        return tuple(parts[c] for c in order) + (bp.name,)

    return min(report.backends, key=key).name


def adaptive_split(
    backends: list[BackendModel],
    prepared: Prepared,
    shots: int,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    seed: int = 0,
    order: tuple[str, ...] = SELECTION_ORDER,
) -> tuple[Counts, SplitPlan, ProbeReport]:
    """Probe, select, then spend the remaining budget on the winner.

    Probe counts from unselected backends are excluded from the final
    answer (they may be tampered) but stay in the report.
    """
    _check_backends(backends)
    shares, remainder = allocation("adaptive", len(backends), shots, k=k, r=r)
    # resolved once: probe and the main run reuse the same tamper lines
    resolved = [resolve_tamper(b, prepared, seed) for b in backends]
    report = probe(resolved, prepared, k=k, r=r, seed=seed)
    winner = select_backend(report, order)
    selected = next(b for b in resolved if b.name == winner)
    parts = [run.counts for run in report.for_backend(winner).runs]
    if remainder > 0:
        parts.append(
            execute(selected, prepared, remainder, derive_seed(seed, "main"))
        )
    allocations = tuple(
        (b.name, share + (remainder if b.name == winner else 0))
        for b, share in zip(backends, shares)
    )
    return stitch(parts), SplitPlan(allocations, winner), report


# --- hybrid (QAOA) variants -------------------------------------------------


@dataclass
class QaoaSplitRecord:
    phase_a: QaoaRunRecord
    phase_b: QaoaRunRecord
    best: QaoaRunRecord  # the phase with the higher best expectation; A on a tie


@dataclass
class QaoaAdaptiveRecord:
    probe_ars: dict[str, tuple[float, ...]]
    selected: str
    final: QaoaRunRecord
    best: QaoaRunRecord  # final, or the winner's best probe run if its AR is higher


def qaoa_iteration_split(
    backend_a: BackendModel,
    backend_b: BackendModel,
    graph: Graph,
    config: QaoaConfig,
    seed: int,
) -> QaoaSplitRecord:
    """Optimize half the iterations on A, hand the incumbent parameters to
    B for the other half. The answer is the phase whose best expectation is
    higher, phase A on a tie."""
    from .qaoa import optimize

    (half_a, half_b), _ = allocation("qaoa_split", 2, config.iterations)
    rec_a = optimize(backend_a, graph, config.p, half_a, config.shots_per_iter, seed)
    rec_b = optimize(
        backend_b,
        graph,
        config.p,
        half_b,
        config.shots_per_iter,
        derive_seed(seed, "phase-b"),
        init_params=rec_a.best_params,
    )
    best = rec_b if rec_b.best_expectation > rec_a.best_expectation else rec_a
    return QaoaSplitRecord(rec_a, rec_b, best)


def qaoa_adaptive(
    backends: list[BackendModel],
    graph: Graph,
    config: QaoaConfig,
    probe_iterations: int = DEFAULT_PROBE_ITERATIONS,
    probe_runs: int = DEFAULT_PROBE_RUNS,
    seed: int = 0,
) -> QaoaAdaptiveRecord:
    """Short probe optimizations on every backend; the one with the higher
    mean probe AR gets the remaining iteration budget. The answer is the
    final run, unless the winner's best probe run has a strictly higher AR."""
    from .qaoa import optimize

    _check_backends(backends)
    _, remaining = allocation(
        "qaoa_adaptive",
        len(backends),
        config.iterations,
        probe_iterations=probe_iterations,
        probe_runs=probe_runs,
    )
    probe_ars: dict[str, tuple[float, ...]] = {}
    best_probe: dict[str, QaoaRunRecord] = {}
    for backend in backends:
        records = [
            optimize(
                backend,
                graph,
                config.p,
                probe_iterations,
                config.shots_per_iter,
                derive_seed(seed, "qaoa-probe", j),
            )
            for j in range(probe_runs)
        ]
        probe_ars[backend.name] = tuple(rec.ar for rec in records)
        best_probe[backend.name] = max(records, key=lambda rec: rec.ar)
    selected = min(
        backends,
        key=lambda b: (-_ordered_sum(probe_ars[b.name]) / probe_runs, b.name),
    )
    probe_best = best_probe[selected.name]
    final = optimize(
        selected,
        graph,
        config.p,
        remaining,
        config.shots_per_iter,
        derive_seed(seed, "qaoa-main"),
        init_params=probe_best.best_params,
    )
    best = probe_best if probe_best.ar > final.ar else final
    return QaoaAdaptiveRecord(probe_ars, selected.name, final, best)
