"""Simulation framework for untrusted cloud quantum backends.

Models a provider that tampers with measurement results, the metrics a
user can compute without ground truth, and shot-distribution defenses.
"""

from .adversary import (
    MaskingReport,
    TamperMode,
    TamperSpec,
    masked_rae,
    plan_targeted,
)
from .backend import BackendModel, NoiseModel
from .benchmarks import BENCHMARK_NAMES, LARGE_BENCHMARK_NAMES, Benchmark, builtin
from .circuit import Circuit, CircuitBuilder, GateKind, Instruction
from .defense import (
    ProbeReport,
    SplitPlan,
    adaptive_split,
    equal_split,
    probe,
    qaoa_adaptive,
    qaoa_iteration_split,
    select_backend,
)
from .harness import ExperimentConfig, load_config, run_experiment
from .metrics import pm, stitch, top_outcome, tvd
from .qaoa import (
    Graph,
    QaoaConfig,
    QaoaParams,
    build_qaoa_circuit,
    cmax,
    cut_value,
    expectation,
    optimize,
    random_regular_graph,
)
from .qasm import circuit_to_qasm, parse_qasm
from .rng import derive_rng, derive_seed
from .simulator import (
    Counts,
    Prepared,
    clean_distribution,
    execute,
    prepare,
    resolve_tamper,
    run_statevector,
    sample_counts,
)

__version__ = "0.1.0"
