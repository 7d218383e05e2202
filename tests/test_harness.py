import copy
import dataclasses
from collections import Counter
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrust import defense, harness, qaoa, simulator
from qtrust.adversary import TamperMode
from qtrust.benchmarks import builtin
from qtrust.cli import main
from qtrust.harness import ConfigError, load_config, run_experiment
from qtrust.report import IoError, read_jsonl, summarize, write_jsonl

from oracles import jsonschema_error_paths

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def base_config(**overrides):
    config = {
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
        "shots": 1000,
        "seeds": [0, 1],
    }
    config.update(overrides)
    return config


def strip_wall_time(records):
    return [
        json.dumps({k: v for k, v in r.items() if k != "wall_time_s"}, sort_keys=True)
        for r in records
    ]


# --- config validation ----------------------------------------------------------


def test_load_config_happy_path():
    config = load_config(base_config())
    assert config.workload.name == "toffoli_n3"
    assert config.workload.correct == "111"
    assert len(config.backends) == 2
    assert config.t_sweep == (None,)
    assert config.shots_sweep == (1000,)
    assert config.defense == "none"


def test_config_error_carries_json_pointer():
    with pytest.raises(ConfigError) as err:
        load_config(base_config(shots="many"))
    assert "/shots" in str(err.value)


def test_config_error_is_the_first_in_document_order():
    # an object's own violation first, then its properties as listed
    cfg = base_config(shots="many", seeds=[-1], extra=1)
    with pytest.raises(ConfigError, match=r"^/: Additional properties .*'extra'"):
        load_config(cfg)
    del cfg["extra"]
    with pytest.raises(ConfigError, match="^/shots: 'many' is not of type 'integer'$"):
        load_config(cfg)
    cfg = {"seeds": cfg.pop("seeds"), **cfg}
    with pytest.raises(ConfigError, match="^/seeds/0: -1 is less than the minimum"):
        load_config(cfg)


def test_bad_readout_names_the_broken_rule():
    # a number can only match the number branch, so its error is reported
    cfg = base_config()
    for readout, message in (
        (0.9, "0.9 is greater than the maximum of 0.5"),
        ([0.1, 0.9], r"\[0.1, 0.9\] is not valid under any of the given schemas"),
    ):
        cfg["backends"][1]["readout"] = readout
        with pytest.raises(ConfigError, match=f"^/backends/1/readout: {message}$"):
            load_config(cfg)


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        load_config(base_config(extra_field=1))


def test_config_rejects_bad_tamper_mode():
    cfg = base_config()
    cfg["backends"][1]["tamper"]["mode"] = "sneaky"
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert "/backends/1/tamper/mode" in str(err.value)


def test_config_rejects_duplicate_seeds():
    # a repeated sweep value runs the same cell twice; 0 and 0.0 give the
    # same cell seed, so they are a repeat too
    for field, values in (
        ("seeds", [1, 1]),
        ("seeds", [0, 0.0]),
        ("t_sweep", [0.1, 0.1]),
        ("t_sweep", [0, 0.0]),
        ("shots_sweep", [100, 100]),
    ):
        with pytest.raises(ConfigError, match=f"^/{field}: .*non-unique"):
            load_config(base_config(**{field: values}))


def test_config_error_cuts_a_long_quoted_value():
    seeds = list(range(10_000)) + [0]
    with pytest.raises(ConfigError) as err:
        load_config(base_config(seeds=seeds))
    message = str(err.value)
    assert len(message) < 300
    assert message.startswith("/seeds: [0, 1, 2, ")
    assert message.endswith("... has non-unique elements")


def test_config_rejects_duplicate_backend_names():
    cfg = base_config()
    cfg["backends"][1]["name"] = "hw_a"
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_config_rejects_unknown_builtin():
    with pytest.raises(ConfigError):
        load_config(base_config(workload={"builtin": "nope"}))


def test_config_defense_workload_compatibility():
    with pytest.raises(ConfigError):
        load_config(base_config(defense={"mode": "qaoa_split"}))
    qaoa = {"qaoa": {"nodes": 4, "degree": 2}}
    with pytest.raises(ConfigError):
        load_config(base_config(workload=qaoa, defense={"mode": "equal"}))


def test_config_defense_backend_counts():
    cfg = base_config(defense={"mode": "equal"})
    cfg["backends"] = cfg["backends"][:1]
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_schema_lists_the_modes_of_the_table():
    defense = harness.CONFIG_SCHEMA["properties"]["defense"]["properties"]
    assert defense["mode"]["enum"] == list(harness._MODES)


# a valid workload of each kind; 50 QAOA iterations split under every mode
WORKLOADS = {
    "sample": {"builtin": "toffoli_n3"},
    "qaoa": {"qaoa": {"nodes": 4, "degree": 2, "iterations": 50}},
}
# the workload kind each defense mode runs on, None for either
MODE_KINDS = {
    "none": None,
    "equal": "sample",
    "adaptive": "sample",
    "qaoa_split": "qaoa",
    "qaoa_adaptive": "qaoa",
}


@pytest.mark.parametrize("kind", WORKLOADS)
@pytest.mark.parametrize("mode", MODE_KINDS)
def test_mode_loads_exactly_on_its_workload_kind(mode, kind):
    assert harness._MODES[mode][0] == MODE_KINDS[mode]
    cfg = base_config(workload=WORKLOADS[kind], defense={"mode": mode})
    needed = MODE_KINDS[mode]
    if needed in (None, kind):
        assert load_config(cfg).defense == mode
        return
    noun = {"sample": "sampling", "qaoa": "qaoa"}[needed]
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == f"/defense/mode: {mode} needs a {noun} workload"


# a valid value of every defense option, and the options each mode reads
OPTION_VALUES = {
    "k": 10,
    "r": 3,
    "order": ["tvd", "pm", "repeatability", "confidence"],
    "probe_iterations": 1,
    "probe_runs": 1,
}
MODE_READS = {
    "adaptive": {"k", "r", "order"},
    "qaoa_adaptive": {"probe_iterations", "probe_runs"},
}
UNREAD = [
    (mode, option)
    for mode in MODE_KINDS
    for option in OPTION_VALUES
    if option not in MODE_READS.get(mode, ())
]


def _mode_config(mode, **options):
    kind = MODE_KINDS[mode] or "sample"
    return base_config(workload=WORKLOADS[kind], defense={"mode": mode, **options})


def test_twenty_mode_option_pairs_are_unread():
    assert len(UNREAD) == 20
    for mode in MODE_KINDS:
        reads = harness._MODES[mode][1]
        assert set(reads) == MODE_READS.get(mode, set())


@pytest.mark.parametrize("mode, option", UNREAD)
def test_option_the_mode_does_not_read_is_config_error(mode, option):
    cfg = _mode_config(mode, **{option: OPTION_VALUES[option]})
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == f"/defense/{option}: {mode} does not read {option}"


@pytest.mark.parametrize("mode", MODE_READS)
def test_options_the_mode_reads_are_passed_on(mode):
    options = {option: OPTION_VALUES[option] for option in sorted(MODE_READS[mode])}
    config = load_config(_mode_config(mode, **options))
    assert config.defense == mode
    assert config.options == options
    records, errors = run_experiment(config)
    assert errors == [] and len(records) == 2  # one per seed


def test_cli_unread_option_exits_2(tmp_path, capsys):
    # this config once loaded, ran and dropped probe_runs without a word
    cfg = base_config(defense={"mode": "adaptive", "probe_runs": 7, "k": 10})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: /defense/probe_runs: adaptive does not read probe_runs\n"
    assert not (tmp_path / "results.jsonl").exists()


def test_qaoa_shots_sweep_is_config_error():
    cfg = _mode_config("qaoa_split")
    cfg["shots_sweep"] = [50, 100]
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == "/shots_sweep: a qaoa workload does not read shots"
    # a sampling sweep, and a QAOA config that sets only shots, still load
    assert load_config(base_config(shots_sweep=[50, 100])).shots_sweep == (50, 100)
    assert load_config(_mode_config("qaoa_split")).shots_sweep == (1000,)


def test_cli_qaoa_shots_sweep_exits_2(tmp_path, capsys):
    # this config once ran two cells per seed that differed only in seed
    cfg = _mode_config("qaoa_adaptive")
    cfg["shots_sweep"] = [50, 100]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "results.jsonl"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: /shots_sweep: a qaoa workload does not read shots\n"
    assert not out.exists()


def test_qaoa_graph_seed_beside_edges_is_config_error():
    # an edge list is the graph; degree and graph_seed are read without one
    edges = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    with pytest.raises(ConfigError) as err:
        load_config(base_config(workload={"qaoa": {**edges, "graph_seed": 5}}))
    assert str(err.value) == "/workload/qaoa/graph_seed: edges does not read graph_seed"
    for spec in (edges, {"nodes": 4, "degree": 3, "graph_seed": 5}):
        assert load_config(base_config(workload={"qaoa": spec})).workload.graph.n == 4


# configs that once ran and ignored a field: a t_sweep with no tampered
# backend, and a degree and graph_seed beside an edge list
UNREAD_FIELDS = {
    "untampered_t_sweep": "/t_sweep: no backend is tampered",
    "qaoa_edges_and_degree": "/workload/qaoa/degree: edges does not read degree",
}


@pytest.mark.parametrize("name", UNREAD_FIELDS)
def test_cli_unread_field_exits_2(tmp_path, capsys, name):
    config = DATA / f"{name}.json"
    with pytest.raises(ConfigError) as err:
        load_config(config)
    assert str(err.value) == UNREAD_FIELDS[name]
    out = tmp_path / "results.jsonl"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {UNREAD_FIELDS[name]}\n"
    assert not out.exists()


def _noise_config(mode, shots, **workload):
    backends = [
        {"name": "honest"},
        {"name": "noisy", "gate_depolarizing": 0.01},
        {"name": "noisier", "gate_depolarizing": 0.05},
    ]
    return base_config(
        workload=workload or {"builtin": "adder_n10"},
        backends=backends,
        shots=shots,
        defense={"mode": mode},
    )


def test_gate_noise_work_over_the_budget_exits_2(tmp_path, capsys):
    # 2e6 shots x (0.46 + 0.96) hit, of 62 slots, x 29 gates x 2^10 amplitudes
    config = _noise_config("none", 2_000_000)
    message = (
        "/backends/2/gate_depolarizing: a cell's gate-noise trajectories take "
        "about 8.4e+10 amplitude updates, above the budget of 3e+10 (about 60 s)"
    )
    with pytest.raises(ConfigError) as err:
        load_config(config)
    assert str(err.value) == message
    path, out = tmp_path / "config.json", tmp_path / "results.jsonl"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_gate_noise_budget_counts_the_executes_of_a_cell():
    circuit = builtin("adder_n10").circuit
    cost = [simulator.trajectory_cost(circuit, p) for p in (0.01, 0.05)]
    budget = harness.GATE_NOISE_BUDGET

    def rejected(config) -> bool:
        try:
            load_config(config)
        except ConfigError as exc:
            assert str(exc).startswith("/backends/2/gate_depolarizing: ")
            return True
        return False

    # every backend runs every shot under none, its share under equal
    shots = int(1.5 * budget / sum(cost))
    assert rejected(_noise_config("none", shots))
    assert not rejected(_noise_config("equal", shots))
    # the largest shots of a sweep sets the cell
    assert rejected({**_noise_config("none", 10), "shots_sweep": [10, shots]})
    # adaptive: 2 x 50 probe shots on every backend, and the rest on one,
    # counted at the costliest
    assert rejected(_noise_config("adaptive", int(1.01 * budget / cost[1]) + 300))
    assert not rejected(_noise_config("adaptive", int(0.9 * budget / cost[1])))
    assert rejected(_noise_config("none", int(0.9 * budget / cost[1])))
    # a QAOA cell counts the shots of every evaluation on the built circuit
    # (16 nodes: 2^16 amplitudes, 104 gates)
    qaoa = {"nodes": 16, "degree": 3, "iterations": 50, "shots_per_iter": 100}
    assert rejected(_noise_config("none", 100, qaoa=qaoa))
    assert not rejected(_noise_config("none", 100, qaoa={**qaoa, "iterations": 5}))


def test_every_ci_and_bench_config_loads(tmp_path):
    # the gate-noise budget rejects none of the shipped configs
    for path in sorted(DATA.glob("ci_*.json")):
        load_config(path)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        for path in workloads.generate(name, 1, workdir).configs:
            load_config(path)


# mode, backends, budget (shots or iterations), options -> each backend's
# runs and the selected backend's extra runs, or the budget error
ALLOCATIONS = {
    "none": ("none", 3, 101, {}, ((101, 101, 101), 0)),
    "equal_remainder": ("equal", 3, 101, {}, ((34, 34, 33), 0)),
    "equal_short": ("equal", 3, 2, {}, "2 shots across 3 backends"),
    "adaptive": ("adaptive", 3, 101, {"k": 10, "r": 2}, ((20, 20, 20), 41)),
    "adaptive_probes_only": ("adaptive", 3, 60, {"k": 10, "r": 2}, ((20, 20, 20), 0)),
    "adaptive_short": (
        "adaptive", 3, 59, {"k": 10, "r": 2}, "budget 59 cannot cover 60 probe shots"
    ),
    "qaoa_split": ("qaoa_split", 2, 6, {}, ((3, 3), 0)),
    "qaoa_split_odd": (
        "qaoa_split", 2, 7, {}, "iteration split needs an even iteration budget"
    ),
    "qaoa_adaptive_at_probe_cost": (
        "qaoa_adaptive", 2, 8, {"probe_runs": 2, "probe_iterations": 2},
        "iteration budget 8 cannot cover 8 probe iterations",
    ),
    "qaoa_adaptive": (
        "qaoa_adaptive", 2, 9, {"probe_runs": 2, "probe_iterations": 2}, ((4, 4), 1)
    ),
    "qaoa_adaptive_defaults": ("qaoa_adaptive", 3, 31, {}, ((10, 10, 10), 1)),
}


@pytest.mark.parametrize(
    "mode, m, budget, options, expected", ALLOCATIONS.values(), ids=list(ALLOCATIONS)
)
def test_allocation_is_what_the_defense_spends(
    monkeypatch, mode, m, budget, options, expected
):
    names = [f"hw_{i}" for i in range(m)]
    if MODE_KINDS[mode] == "qaoa":
        qaoa_spec = {"nodes": 4, "degree": 2, "iterations": budget}
        workload, shots = {"qaoa": qaoa_spec}, 1
    else:
        workload, shots = WORKLOADS["sample"], budget
    cfg = base_config(
        workload=workload,
        backends=[{"name": name} for name in names],
        shots=shots,
        seeds=[0],
        defense={"mode": mode, **options},
    )
    if isinstance(expected, str):
        with pytest.raises(defense.DefenseError) as err:
            defense.allocation(mode, m, budget, **options)
        assert str(err.value) == expected
        if MODE_KINDS[mode] == "qaoa":  # rejected at load time
            with pytest.raises(ConfigError) as err:
                load_config(cfg)
            assert str(err.value) == f"/workload/qaoa/iterations: {expected}"
        else:  # shot budgets are checked per cell
            records, errors = run_experiment(load_config(cfg))
            assert records == []
            assert errors == [f"cell t=None shots={budget} seed=0: {expected}"]
        return

    spent = Counter()

    def counting(run, at):
        def wrapper(backend, *args, **kwargs):
            spent[backend.name] += args[at]  # shots of execute, iterations of optimize
            return run(backend, *args, **kwargs)

        return wrapper

    for module in (defense, harness):
        monkeypatch.setattr(module, "execute", counting(simulator.execute, 1))
    # the QAOA branches import optimize from qaoa when they run
    monkeypatch.setattr(qaoa, "optimize", counting(qaoa.optimize, 2))
    records, errors = run_experiment(load_config(cfg))
    assert errors == []
    shares, extra = defense.allocation(mode, m, budget, **options)
    assert (shares, extra) == expected
    runs = list(shares)
    if "selected" in records[0]:
        runs[names.index(records[0]["selected"])] += extra
    else:
        assert extra == 0
    assert [spent[name] for name in names] == runs
    if "allocations" in records[0]:  # SplitPlan.allocations
        assert records[0]["allocations"] == list(zip(names, runs))


def test_qaoa_adaptive_default_probes_at_the_budget_edge():
    # default probes: 2 backends x 2 runs x 5 iterations = 20 iterations,
    # so the harness's budget check and the defense agree on the defaults
    cfg = _mode_config("qaoa_adaptive")
    cfg["workload"]["qaoa"]["iterations"] = 20
    with pytest.raises(ConfigError, match="^/workload/qaoa/iterations: .*cover 20"):
        load_config(cfg)
    cfg["workload"]["qaoa"]["iterations"] = 21
    records, errors = run_experiment(load_config(cfg))
    assert errors == [] and len(records) == 2


def test_cli_random_subset_without_k_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["backends"][1]["tamper"] = {"mode": "random_subset", "t": 0.3}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: /backends/1/tamper: "
        "random_subset needs a positive subset size k\n"
    )


def test_schema_lists_the_tamper_modes_of_the_table():
    backend = harness.CONFIG_SCHEMA["properties"]["backends"]["items"]["properties"]
    enum = backend["tamper"]["properties"]["mode"]["enum"]
    assert enum == [mode.value for mode in harness._TAMPER_MODES]
    assert set(harness._TAMPER_MODES) == set(TamperMode)


@pytest.mark.parametrize("mode", ["random_all", "targeted"])
def test_tamper_option_the_mode_does_not_read_is_config_error(mode):
    cfg = base_config()
    cfg["backends"][1]["tamper"] = {"mode": mode, "t": 0.5, "k": 3}
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == f"/backends/1/tamper/k: {mode} does not read k"


def test_cli_unread_tamper_option_exits_2(tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    config = DATA / "unread_tamper_option.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: /backends/1/tamper/k: targeted does not read k\n"
    assert not out.exists()


# the measured lines of each workload kind: toffoli_n3's three, and one per
# node of the QAOA graph
WIDTHS = {
    "builtin": ({"builtin": "toffoli_n3"}, 3),
    "qaoa": ({"qaoa": {"nodes": 4, "degree": 2, "iterations": 10}}, 4),
}


@pytest.mark.parametrize("workload, width", WIDTHS.values(), ids=list(WIDTHS))
def test_random_subset_wider_than_the_lines_is_config_error(workload, width):
    cfg = base_config(workload=workload)
    cfg["backends"][1]["tamper"] = {"mode": "random_subset", "t": 0.3, "k": width + 1}
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == (
        f"/backends/1/tamper/k: subset size k={width + 1} "
        f"exceeds the {width} measured lines"
    )
    cfg["backends"][1]["tamper"]["k"] = width
    records, errors = run_experiment(load_config(cfg))
    assert errors == [] and len(records) == 4  # two backends x two seeds


def _read_by(heading: str) -> tuple[set, dict]:
    """The fields of the table under ``heading`` in docs/config_schema.md,
    and mode -> the fields its "read by" column names."""
    text = (ROOT / "docs" / "config_schema.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.MULTILINE)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [line.split("|")[1:-1] for line in lines]
    column = [cell.strip() for cell in rows[0]].index("read by")
    fields, reads = set(), {}
    for row in rows[2:]:
        field = row[0].strip().strip("`")
        fields.add(field)
        for mode in re.findall(r"`(\w+)`", row[column]):
            reads.setdefault(mode, set()).add(field)
    return fields, reads


def test_docs_read_by_columns_match_the_tables():
    properties = harness.CONFIG_SCHEMA["properties"]
    fields, reads = _read_by("## `defense`")
    assert fields == set(properties["defense"]["properties"])
    assert reads == {
        mode: set(options) for mode, (_, options) in harness._MODES.items() if options
    }
    tamper = properties["backends"]["items"]["properties"]["tamper"]
    fields, reads = _read_by("### `backends[].tamper`")
    assert fields == set(tamper["properties"])
    assert reads == {
        mode.value: set(options)
        for mode, options in harness._TAMPER_MODES.items()
        if options
    }


# a per-qubit readout list must cover every measured qubit: the three of
# toffoli_n3, all four nodes of the QAOA graph
SHORT_READOUT = {
    "builtin": ({"builtin": "toffoli_n3"}, 2),
    "qaoa": ({"qaoa": {"nodes": 4, "degree": 2, "iterations": 10}}, 3),
}


@pytest.mark.parametrize(
    "workload, pairs", SHORT_READOUT.values(), ids=list(SHORT_READOUT)
)
def test_short_per_qubit_readout_is_config_error(tmp_path, capsys, workload, pairs):
    cfg = base_config(workload=workload)
    cfg["backends"][1]["readout"] = [[0.01, 0.02]] * pairs
    with pytest.raises(ConfigError, match=f"^/backends/1/readout: .*qubit {pairs}$"):
        load_config(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: /backends/1/readout:" in capsys.readouterr().err

    cfg["backends"][1]["readout"] = [[0.01, 0.02]] * (pairs + 1)
    config = load_config(cfg)
    wl = config.workload
    lines = wl.graph.lines if wl.kind == "qaoa" else wl.prepared.measured_pairs
    assert config.backends[1].line_pairs(lines) == ((0.01, 0.02),) * (pairs + 1)


# each names a graph the QAOA workload cannot build or cannot simulate
BAD_GRAPHS = {
    "infeasible_degree": {"nodes": 5, "degree": 3},
    "duplicate_edge": {"nodes": 4, "edges": [[0, 1], [1, 0]]},
    "out_of_range_edge": {"nodes": 4, "edges": [[0, 9]]},
    "self_loop": {"nodes": 4, "edges": [[2, 2]]},
    "no_edges": {"nodes": 3, "edges": []},
    "too_many_nodes": {"nodes": 30, "degree": 3},
    "far_too_many_nodes": {"nodes": 200_000, "degree": 3},
}


@pytest.mark.parametrize("graph", BAD_GRAPHS.values(), ids=list(BAD_GRAPHS))
def test_bad_qaoa_graph_is_config_error(tmp_path, capsys, graph):
    cfg = base_config(workload={"qaoa": graph})
    with pytest.raises(ConfigError, match="^/workload/qaoa: "):
        load_config(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: /workload/qaoa:" in capsys.readouterr().err


# each a QAOA budget its defense cannot split; past the load, every cell fails
BAD_ITERATIONS = {
    "odd_split": ({"iterations": 11}, {"mode": "qaoa_split"}, "even iteration budget"),
    "adaptive_probes_use_all": (
        {"iterations": 20},  # 2 backends x 2 runs x 5 probe iterations
        {"mode": "qaoa_adaptive", "probe_iterations": 5, "probe_runs": 2},
        "budget 20 cannot cover 20 probe iterations",
    ),
    "adaptive_default_probes": (
        {},  # 50 default iterations, 2 backends x 5 runs x 5 default iterations
        {"mode": "qaoa_adaptive", "probe_runs": 5},
        "budget 50 cannot cover 50 probe iterations",
    ),
}


@pytest.mark.parametrize(
    "qaoa, defense, message", BAD_ITERATIONS.values(), ids=list(BAD_ITERATIONS)
)
def test_unsplittable_qaoa_budget_is_config_error(
    tmp_path, capsys, qaoa, defense, message
):
    cfg = base_config(
        workload={"qaoa": {"nodes": 4, "degree": 2, **qaoa}}, defense=defense
    )
    with pytest.raises(ConfigError, match=f"^/workload/qaoa/iterations: .*{message}"):
        load_config(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: /workload/qaoa/iterations:" in capsys.readouterr().err
    # one iteration more splits
    iterations = cfg["workload"]["qaoa"].get("iterations", 50) + 1
    cfg["workload"]["qaoa"]["iterations"] = iterations
    assert load_config(cfg).workload.qaoa.iterations == iterations


# Python's json reads NaN and Infinity; past the load, each of these would
# fail every cell, or escape as a NoiseError (readout)
NON_FINITE = {
    "t_sweep": (("t_sweep",), [math.nan], "/t_sweep/0"),
    "drift": (("backends", 1, "drift"), math.inf, "/backends/1/drift"),
    "readout": (("backends", 1, "readout"), math.nan, "/backends/1/readout"),
}


@pytest.mark.parametrize(
    "path, value, pointer", NON_FINITE.values(), ids=list(NON_FINITE)
)
def test_non_finite_number_is_config_error(tmp_path, capsys, path, value, pointer):
    cfg = base_config()
    *parents, key = path
    target = cfg
    for parent in parents:
        target = target[parent]
    target[key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))  # writes NaN / Infinity literals
    with pytest.raises(ConfigError, match=f"^{pointer}: "):
        load_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert f"config error: {pointer}:" in capsys.readouterr().err


# Python's json reads 1.0 as a float; past the load, a float at an integer
# position raised a traceback (nodes), failed every cell (tamper k) or wrote
# records that qtrust report rejects (shots)
FLOAT_INTEGERS = {
    "qaoa_nodes": (
        json.loads((DATA / "float_qaoa_nodes.json").read_text()),
        "/workload/qaoa/nodes: 4.0 is not of type 'integer'",
    ),
    "tamper_k": (
        base_config(
            backends=[
                {"name": "hw_a"},
                {
                    "name": "hw_b",
                    "tamper": {"mode": "random_subset", "t": 0.5, "k": 2.0},
                },
            ]
        ),
        "/backends/1/tamper/k: 2.0 is not of type 'integer'",
    ),
    "shots": (base_config(shots=1000.0), "/shots: 1000.0 is not of type 'integer'"),
}


@pytest.mark.parametrize(
    "cfg, message", FLOAT_INTEGERS.values(), ids=list(FLOAT_INTEGERS)
)
def test_integral_float_is_config_error(tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value) == message
    out = tmp_path / "results.jsonl"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()))
    assert load_config(path).shots_sweep == (1000,)


def test_qasm_workload_resolves_relative_to_config(tmp_path):
    cfg = base_config(workload={"qasm": "bell.qasm"})
    path = tmp_path / "config.json"
    (tmp_path / "bell.qasm").write_text((DATA / "bell.qasm").read_text())
    path.write_text(json.dumps(cfg))
    config = load_config(path)
    assert config.workload.prepared.circuit.num_qubits == 2
    assert config.workload.correct in ("00", "11")


# --- config checker against jsonschema -----------------------------------------

# valid configs that between them reach every part of CONFIG_SCHEMA
CHECKER_BASES = [
    base_config(
        schema_version=1,
        backends=[
            {"name": "a", "readout": 0.02, "gate_depolarizing": 0.0, "drift": 0.0},
            {
                "name": "b",
                "readout": [0.01, 0.5],
                "tamper": {"mode": "targeted", "t": 1},
            },
            {
                "name": "c",
                "readout": [[0, 0.1], [0.2, 0.3]],
                "tamper": {"mode": "random_subset", "t": 0.25, "k": 2},
            },
        ],
        shots_sweep=[10, 20],
        t_sweep=[0, 0.5, 1.0],
        defense={
            "mode": "adaptive",
            "k": 10,
            "r": 2,
            "order": ["tvd", "pm", "repeatability", "confidence"],
            "probe_iterations": 1,
            "probe_runs": 1,
        },
        master_seed=3,
        out="out.jsonl",
    ),
    base_config(
        workload={
            "qaoa": {
                "nodes": 4,
                "degree": 3,
                "edges": [[0, 1], [1, 2]],
                "graph_seed": -1,
                "p": 1,
                "iterations": 5,
                "shots_per_iter": 10,
            }
        },
        defense={"mode": "qaoa_split"},
    ),
    base_config(workload={"qasm": "circuit.qasm"}),
]

# values a mutation writes: wrong types, a bool for a number, 1.0 for an
# integer, out-of-range and non-finite numbers, and the schema's own words
_SPECIAL = [0, 0.0, -0.0, 1, 1.0, 2.5, 0.5, 0.51, -1, 9, 10, 20, True, False]
_WORDS = ["", "none", "equal", "adaptive", "targeted", "random_all", "tvd", "pm"]
_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-3, 25)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_SPECIAL + _WORDS)
)
_json = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["mode", "t", "k", "x"]), inner, max_size=2),
    max_leaves=6,
)
_probability = st.sampled_from([0, 0.0, 0.5, 0.6, -0.1, 1, True]) | _leaf
_readout = st.one_of(
    _probability,
    st.lists(_probability, max_size=3),
    st.lists(st.lists(_probability, max_size=3), max_size=3),
    st.lists(st.lists(st.lists(_probability, max_size=2), max_size=2), max_size=2),
)
_KEYS = sorted(
    {"extra", "name", "readout", "tamper", "mode", "t", "k", "nodes", "degree"}
    | harness.CONFIG_SCHEMA["properties"].keys()
)


def _nodes(value, path=()):
    """Every (path, value) pair of a JSON document, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _nodes(item, (*path, key))


def _twins(value) -> list:
    """Copies of ``value`` and values of another type that equal it under
    JSON Schema (1 and 1.0) or only look equal (1 and True)."""
    twins = [copy.deepcopy(value)]
    if isinstance(value, bool):
        twins.append(int(value))
    elif isinstance(value, (int, float)) and math.isfinite(value) and value % 1 == 0:
        twins += [int(value), float(value)] + ([bool(value)] if value in (0, 1) else [])
    return twins


def _mutate(data, doc):
    """Drop a key or item, add one, replace a value, repeat an array item
    (or its twin), or set a backend's readout to some shape."""
    nodes = dict(_nodes(doc))
    path = data.draw(st.sampled_from(list(nodes)))
    target, parent = nodes[path], nodes[path[:-1]] if path else None
    kind = data.draw(st.sampled_from(["drop", "add", "replace", "repeat", "readout"]))
    if kind == "drop" and parent is not None:
        del parent[path[-1]]
    elif kind == "add" and isinstance(target, dict):
        target[data.draw(st.sampled_from(_KEYS))] = data.draw(_json)
    elif kind == "add" and isinstance(target, list):
        target.append(data.draw(_json))
    elif kind == "replace" and parent is not None:
        parent[path[-1]] = data.draw(_json)
    elif kind == "repeat" and isinstance(target, list) and target:
        item = data.draw(st.sampled_from(target))
        target.append(data.draw(st.sampled_from(_twins(item))))
    elif kind == "readout":
        backends = [
            value
            for where, value in nodes.items()
            if len(where) == 2 and where[0] == "backends" and isinstance(value, dict)
        ]
        if backends:
            data.draw(st.sampled_from(backends))["readout"] = data.draw(_readout)


def _finite(doc) -> bool:
    return all(
        not isinstance(v, float) or math.isfinite(v) for _, v in _nodes(doc)
    )


def test_checker_bases_are_valid():
    for doc in CHECKER_BASES:
        assert next(harness._errors(harness.CONFIG_SCHEMA, doc), None) is None
        assert not jsonschema_error_paths(harness.CONFIG_SCHEMA, doc)


def _integer_positions(schema, value, path=()):
    """(path, schema) of every value in ``value`` at an integer position."""
    if schema.get("type") == "integer":
        yield path, schema
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _integer_positions(schema["items"], item, (*path, i))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                yield from _integer_positions(properties[key], item, (*path, key))


def test_float_twin_of_every_integer_is_the_first_error():
    filled = set()
    for base in CHECKER_BASES:
        for path, schema in _integer_positions(harness.CONFIG_SCHEMA, base):
            filled.add(id(schema))
            doc = copy.deepcopy(base)
            *parents, key = path
            target = doc
            for parent in parents:
                target = target[parent]
            target[key] = float(target[key])
            message = f"{target[key]!r} is not of type 'integer'"
            assert next(harness._errors(harness.CONFIG_SCHEMA, doc)) == (path, message)
    integers = [
        s for s in _subschemas(harness.CONFIG_SCHEMA) if s.get("type") == "integer"
    ]
    assert filled == set(map(id, integers))


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_checker_agrees_with_jsonschema(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(CHECKER_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    ours = next(harness._errors(harness.CONFIG_SCHEMA, doc), None)
    reference = jsonschema_error_paths(harness.CONFIG_SCHEMA, doc)
    if not _finite(doc):
        # jsonschema counts NaN and Infinity as numbers; the checker does not
        assert ours is not None
        return
    assert (ours is None) == (not reference)
    if ours is not None:
        assert ours[0] in reference


KEYWORD_CASES = [
    ({"uniqueItems": True}, [0, 0.0]),
    ({"uniqueItems": True}, [1, True]),
    ({"uniqueItems": True}, [0, False]),
    ({"uniqueItems": True}, [[1], [1.0]]),
    ({"uniqueItems": True}, [[1], [True]]),
    ({"uniqueItems": True}, [{"a": [0]}, {"a": [0.0]}]),
    ({"uniqueItems": True}, [{"a": 1}, {"a": True}, [], {}]),
    ({"const": 1}, 1.0),
    ({"const": 1}, True),
    ({"enum": [0, [1]]}, False),
    ({"enum": [0, [1]]}, [1.0]),
    ({"enum": [0, [1]]}, [True]),
    ({"type": "integer"}, 1.0),
    ({"type": "integer"}, 1.5),
    ({"type": "integer"}, True),
    ({"type": "number"}, False),
    ({"type": "number", "maximum": 0.5}, "1"),
    ({"minItems": 2}, "a"),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, "1"),
]


@pytest.mark.parametrize("schema, value", KEYWORD_CASES)
def test_checker_keywords_match_jsonschema(schema, value):
    ours = [path for path, _ in harness._errors(schema, value)]
    assert ours == sorted(jsonschema_error_paths(schema, value))


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


def test_config_schema_uses_only_checked_keywords():
    # a keyword the checker does not implement would be skipped silently
    for schema in _subschemas(harness.CONFIG_SCHEMA):
        assert schema.keys() <= harness._KEYWORDS, schema
        assert schema.get("type", "object") in harness._TYPES, schema
        assert schema.get("additionalProperties", False) is False, schema


def _python(code: str, *args: str) -> str:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_qtrust_runs_without_jsonschema():
    plain = "import sys, qtrust.harness, qtrust.cli; print('jsonschema' in sys.modules)"
    assert _python(plain) == "False"
    blocked = """
import json, sys
sys.modules["jsonschema"] = None  # any import of it now fails
from qtrust.harness import ConfigError, load_config, run_experiment
records, errors = run_experiment(load_config(json.loads(sys.argv[1])))
try:
    load_config({})
except ConfigError as exc:
    print(len(records), len(errors), exc)
"""
    out = _python(blocked, json.dumps(base_config(shots=100)))
    assert out == "4 0 /: 'workload' is a required property"


# modules a plain sampling run never calls; each branch imports its own
ON_DEMAND = ("qtrust.qaoa", "qtrust.qasm", "concurrent.futures")
_LOADED_BY_RUN = """
import json, sys
from qtrust.harness import load_config, run_experiment
config, jobs = json.loads(sys.argv[1]), int(sys.argv[2])
records, errors = run_experiment(load_config(config), jobs=jobs)
assert records and not errors, errors
print(json.dumps(sorted(m for m in json.loads(sys.argv[3]) if m in sys.modules)))
"""


@pytest.mark.parametrize(
    "workload, jobs, loaded",
    [
        (WORKLOADS["sample"], 1, []),
        ({"qasm": str(DATA / "bell.qasm")}, 1, ["qtrust.qasm"]),
        ({"qaoa": {"nodes": 4, "degree": 2, "iterations": 4}}, 1, ["qtrust.qaoa"]),
        (WORKLOADS["sample"], 2, ["concurrent.futures"]),
    ],
    ids=["builtin", "qasm", "qaoa", "jobs2"],
)
def test_run_imports_only_what_its_workload_uses(workload, jobs, loaded):
    config = base_config(workload=workload, shots=100, seeds=[0])
    args = json.dumps(config), str(jobs), json.dumps(ON_DEMAND)
    assert json.loads(_python(_LOADED_BY_RUN, *args)) == loaded


def test_builtin_run_without_the_on_demand_modules():
    config = base_config(t_sweep=[0.1, 0.3])
    blocked = """
import json, sys
for name in json.loads(sys.argv[2]):
    sys.modules[name] = None  # any import of it now fails
from qtrust.harness import load_config, run_experiment
records, errors = run_experiment(load_config(json.loads(sys.argv[1])))
assert not errors, errors
print(json.dumps(records))
"""
    out = _python(blocked, json.dumps(config), json.dumps(ON_DEMAND))
    records, _ = run_experiment(load_config(config))
    assert strip_wall_time(json.loads(out)) == strip_wall_time(records)


# --- execution --------------------------------------------------------------------


def test_run_cell_counts_and_sorting():
    config = load_config(base_config(t_sweep=[0.1, 0.5], seeds=[0, 1, 2]))
    records, errors = run_experiment(config)
    assert not errors
    # 2 t-values x 3 seeds x 2 backends (defense none)
    assert len(records) == 12
    keys = [(r["t"], r["shots"], r["seed"], r["backend"]) for r in records]
    assert keys == sorted(keys)


def test_budget_conservation_no_defense():
    config = load_config(base_config())
    records, _ = run_experiment(config)
    assert all(r["shots_in_answer"] == 1000 for r in records)


def test_jobs_do_not_change_results():
    config = load_config(base_config(t_sweep=[0.1, 0.3]))
    serial, _ = run_experiment(config, jobs=1)
    parallel, _ = run_experiment(config, jobs=4)
    assert strip_wall_time(serial) == strip_wall_time(parallel)


# sha256 of the records of the config below without wall_time_s, one
# strip_wall_time line per record joined by newlines
GOLDEN_DIGEST = "086c8c5218fafd576f71b10dc8e6d4e126da16a53f92b7eb5a0869c5f3bed0c8"
GOLDEN_VERSIONS = "Python 3.11.7 and numpy 2.4.6"


def test_golden_records_digest():
    # adaptive with a gate-noise backend: its probe draws Pauli hits
    noisy = {"name": "hw_c", "readout": 0.02, "gate_depolarizing": 0.002}
    cfg = base_config(
        backends=base_config()["backends"] + [noisy], defense={"mode": "adaptive"}
    )
    records, errors = run_experiment(load_config(cfg))
    assert errors == []
    digest = hashlib.sha256("\n".join(strip_wall_time(records)).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST, (
        f"records moved: the digest was computed with {GOLDEN_VERSIONS}, this is "
        f"Python {platform.python_version()} and numpy {np.__version__}; NEP 19 "
        "does not freeze numpy's Generator streams across numpy versions"
    )


def test_cell_independence():
    both = load_config(base_config(seeds=[1, 2]))
    only1 = load_config(base_config(seeds=[1]))
    only2 = load_config(base_config(seeds=[2]))
    records_both, _ = run_experiment(both)
    records_split = run_experiment(only1)[0] + run_experiment(only2)[0]
    records_split.sort(key=lambda r: (r["seed"], r["backend"]))

    def strip_ids(records):
        # experiment_id hashes the whole config (seed list included)
        return [
            json.dumps(
                {k: v for k, v in r.items() if k not in ("wall_time_s", "experiment_id")},
                sort_keys=True,
            )
            for r in records
        ]

    assert strip_ids(records_both) == strip_ids(records_split)


def test_master_seed_changes_results():
    a, _ = run_experiment(load_config(base_config()))
    b, _ = run_experiment(load_config(base_config(master_seed=99)))
    assert strip_wall_time(a) != strip_wall_time(b)


def test_shots_sweep():
    config = load_config(base_config(shots_sweep=[100, 200]))
    records, _ = run_experiment(config)
    assert {r["shots"] for r in records} == {100, 200}
    for r in records:
        assert r["shots_in_answer"] == r["shots"]


def test_equal_defense_record():
    config = load_config(base_config(defense={"mode": "equal"}))
    records, _ = run_experiment(config)
    assert len(records) == 2  # one per seed
    for r in records:
        assert r["backend"] == "hw_a+hw_b"
        assert dict(r["allocations"]) == {"hw_a": 500, "hw_b": 500}


def test_adaptive_defense_record():
    config = load_config(
        base_config(shots=10000, defense={"mode": "adaptive", "k": 50, "r": 2})
    )
    records, _ = run_experiment(config)
    for r in records:
        assert "probe" in r and "selected" in r
        assert sum(dict(r["allocations"]).values()) == 10000
        assert r["shots_in_answer"] == 9900


def test_adaptive_defense_with_order():
    config = load_config(
        base_config(
            shots=10000,
            defense={
                "mode": "adaptive",
                "order": ["repeatability", "tvd", "pm", "confidence"],
            },
        )
    )
    records, _ = run_experiment(config)
    assert all("selected" in r for r in records)


def test_adaptive_selected_is_probe_winner_without_main_phase():
    # 200 shots = 2 backends x r=2 x k=50: equal shares, no main phase;
    # the answer is the winner's probe counts, and the record names it
    config = load_config(
        base_config(
            backends=[
                {"name": "a_rogue", "tamper": {"mode": "targeted", "t": 0.5}},
                {"name": "b_honest"},
            ],
            shots=200,
            seeds=[0, 1, 2],
            defense={"mode": "adaptive"},
        )
    )
    records, errors = run_experiment(config)
    assert not errors and len(records) == 3
    for r in records:
        assert r["allocations"] == [("a_rogue", 100), ("b_honest", 100)]
        assert r["selected"] == "b_honest"
        assert r["shots_in_answer"] == 100


def test_adaptive_record_selected_comes_from_the_plan(monkeypatch):
    # the record reports the split's own pick; nothing re-ranks the probe
    real = harness.adaptive_split
    picks = []

    def renamed(*args, **kwargs):
        counts, plan, report = real(*args, **kwargs)
        other = next(name for name, _ in plan.allocations if name != plan.selected)
        picks.append(other)
        return counts, dataclasses.replace(plan, selected=other), report

    monkeypatch.setattr(harness, "adaptive_split", renamed)
    config = load_config(base_config(shots=1000, defense={"mode": "adaptive"}))
    records, errors = run_experiment(config)
    assert not errors and records
    assert [r["selected"] for r in records] == picks


def test_adaptive_tvd_vs_clean_reads_the_selected_backend():
    """The answer holds the winner's shots alone, so the losers' probe shots
    must not pull its clean reference towards their readout error."""
    backends = [
        {"name": "hw_a", "readout": 0.0, "drift": 0.0},
        {"name": "hw_b", "readout": 0.3, "drift": 0.0},
        {"name": "hw_c", "readout": 0.3, "drift": 0.0},
    ]
    config = load_config(
        base_config(
            backends=backends,
            shots=400,
            seeds=[0, 1, 2],
            defense={"mode": "adaptive", "k": 50, "r": 2},
        )
    )
    records, errors = run_experiment(config)
    assert not errors and len(records) == 3
    for record in records:
        assert record["selected"] == "hw_a"
        # hw_a's 2 x 50 probe shots and the 100 left: all "111", as is
        # its clean distribution
        assert record["top_counts"] == {"111": 200}
        assert record["tvd_vs_clean"] == 0.0


def test_ideal_and_clean_computed_once_per_experiment(monkeypatch):
    config = load_config(
        base_config(t_sweep=[0.1, 0.3], seeds=[0, 1], defense={"mode": "equal"})
    )
    cleans, prepares = [], []

    def clean_distribution(backend, prepared):
        cleans.append(simulator.clean_distribution(backend, prepared))
        return cleans[-1]

    monkeypatch.setattr(harness, "clean_distribution", clean_distribution)
    monkeypatch.setattr(harness, "prepare", lambda *args: prepares.append(args))
    records, errors = run_experiment(config, jobs=2)
    assert not errors and len(records) == 4
    # both backends read out at 0.02: one clean vector, memoised on the
    # workload's Prepared and read by every cell; the ideal comes from
    # load_config
    (clean,) = config.workload.prepared._clean.values()
    assert len(cleans) == 8 and all(got is clean for got in cleans)
    assert prepares == []


@pytest.mark.parametrize("mode", ["none", "equal", "adaptive"])
def test_run_experiment_reuses_the_prepared_ideal(monkeypatch, mode):
    # targeted and random-subset tampering both resolve against the ideal
    backends = base_config()["backends"] + [
        {"name": "hw_c", "tamper": {"mode": "random_subset", "t": 0.3, "k": 2}}
    ]
    config = load_config(
        base_config(backends=backends, shots=2000, defense={"mode": mode})
    )
    calls = [0]
    original = simulator._evolve

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, "_evolve", counting)
    records, errors = run_experiment(config, jobs=2)
    assert not errors and records
    assert calls == [0]  # the statevector was evolved once, by load_config


def test_qaoa_none_defense():
    config = load_config(
        base_config(
            workload={"qaoa": {"nodes": 4, "degree": 2, "iterations": 10}},
            seeds=[0],
        )
    )
    records, _ = run_experiment(config)
    assert len(records) == 2
    for r in records:
        assert 0.0 <= r["ar"] <= 1.0
        assert r["cmax"] == 4


def test_qaoa_split_defense():
    config = load_config(
        base_config(
            workload={"qaoa": {"nodes": 4, "degree": 2, "iterations": 10}},
            defense={"mode": "qaoa_split"},
            seeds=[0],
        )
    )
    records, _ = run_experiment(config)
    (record,) = records
    assert {"ar", "phase_a_ar", "phase_b_ar"} <= set(record)


def test_qaoa_adaptive_defense():
    config = load_config(
        base_config(
            workload={"qaoa": {"nodes": 4, "degree": 2, "iterations": 30}},
            defense={"mode": "qaoa_adaptive", "probe_iterations": 5, "probe_runs": 2},
            seeds=[0],
        )
    )
    records, _ = run_experiment(config)
    (record,) = records
    assert set(record["probe_ars"]) == {"hw_a", "hw_b"}
    assert record["selected"] in ("hw_a", "hw_b")


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("mode", ["none", "qaoa_split", "qaoa_adaptive"])
def test_qaoa_record_fields_describe_one_run(mode, p):
    # at --seed 0 the CI config's qaoa_adaptive AR came from a probe run
    # while best_expectation, gamma and beta came from the final run
    raw = json.loads((DATA / "ci_qaoa.json").read_text())
    raw["workload"]["qaoa"]["p"] = p
    if mode != "qaoa_adaptive":  # else the file's own mode and probes
        raw["defense"] = {"mode": mode}
    for master_seed in (0, 1, 3):
        config = load_config(dict(raw, master_seed=master_seed))
        records, errors = run_experiment(config)
        assert errors == [] and records
        for r in records:
            assert r["ar"] == r["best_expectation"] / r["cmax"]
            assert len(r["gamma"]) == len(r["beta"]) == p


def test_failing_cell_reported_not_raised():
    # adaptive probes cost 200 shots; a 150-shot budget fails per cell
    config = load_config(base_config(shots=150, defense={"mode": "adaptive"}))
    records, errors = run_experiment(config)
    assert not records
    assert len(errors) == 2


# --- persistence and summary -------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    config = load_config(base_config(seeds=[0]))
    records, _ = run_experiment(config)
    path = tmp_path / "out.jsonl"
    write_jsonl(records, path)
    assert read_jsonl(path) == records


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_infinite_probe_pm_is_written_as_json(tmp_path):
    # probes that only ever see the correct outcome have an infinite PM
    honest = {"readout": 0, "drift": 0}
    cfg = base_config(
        backends=[{"name": "hw_a", **honest}, {"name": "hw_b", **honest}],
        defense={"mode": "adaptive"},
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "results.jsonl"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    records = [json.loads(line, parse_constant=_no_constant) for line in lines]
    assert len(records) == 2
    for record in records:
        assert record["pm"] == "inf"
        assert [bp["mean_pm"] for bp in record["probe"]["backends"]] == ["inf"] * 2


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_jsonl_refuses_a_non_finite_float(tmp_path, value):
    with pytest.raises(ValueError):
        write_jsonl([{"x": value}], tmp_path / "out.jsonl")


def test_summarize_groups_over_seeds():
    config = load_config(base_config(seeds=[0, 1, 2]))
    records, _ = run_experiment(config)
    rows = summarize(records)
    assert len(rows) == 2  # one per backend
    for row in rows:
        assert row["n_seeds"] == 3
        assert "pm_mean" in row and "pm_std" in row


# --- CLI -----------------------------------------------------------------------------


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(t_sweep=[0.1, 0.5])))
    out = tmp_path / "results.jsonl"
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"])
    assert code == 0
    assert out.exists()
    assert out.with_suffix(".summary.csv").exists()

    report_dir = tmp_path / "report"
    code = main(["report", str(out), "--out", str(report_dir)])
    assert code == 0
    assert (report_dir / "fig6.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "results.jsonl"
    argv = ["run", "--config", str(DATA / "ci_adaptive.json"), "--out", str(out)]
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--jobs", jobs])
    assert exit_.value.code == 2
    assert f"argument --jobs: needs at least 1 worker, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


# the fields of every record, then a full sampled and a full QAOA `none`
# record
_BASE = {
    "schema_version": 1,
    "experiment_id": "0123456789ab",
    "workload": "toffoli_n3",
    "defense": "none",
    "t": 0.5,
    "shots": 100,
    "seed": 0,
    "backend": "hw_a",
    "wall_time_s": 0.01,
}
_RECORD = {
    **_BASE,
    "pm": 2.0,
    "tvd_vs_ideal": 0.1,
    "tvd_vs_clean": 0.05,
    "top_outcome": "111",
    "confidence": 0.6,
    "correct": "111",
    "top_counts": {"111": 60, "011": 30, "101": 10},
    "shots_in_answer": 100,
}
_QAOA_RECORD = {
    **_BASE,
    "workload": "qaoa_n4",
    "ar": 0.9,
    "cmax": 4,
    "best_expectation": 3.6,
    "gamma": [0.4],
    "beta": [0.3],
}
_SPLIT_RECORD = {
    **_QAOA_RECORD,
    "defense": "qaoa_split",
    "backend": "hw_a+hw_b",
    "phase_a_ar": 0.9,
    "phase_b_ar": 0.8,
}


def _without(record: dict, field: str) -> dict:
    return {k: v for k, v in record.items() if k != field}


# a second line `qtrust report` must refuse, and the reason it gives
BAD_RESULTS = {
    "truncated": (json.dumps(_RECORD)[:-9], "invalid JSON"),
    "not_an_object": ("[1, 2]", "record is not a JSON object"),
    "missing_key": (json.dumps(_without(_RECORD, "defense")), "record lacks defense"),
    # fields one report builder reads: each used to end in a KeyError
    "adaptive_without_allocations": (
        json.dumps({**_RECORD, "defense": "adaptive", "selected": "hw_a"}),
        "adaptive record lacks allocations",
    ),
    "qaoa_adaptive_without_probe_ars": (
        json.dumps({**_QAOA_RECORD, "defense": "qaoa_adaptive", "selected": "hw_a"}),
        "qaoa_adaptive record lacks probe_ars",
    ),
    # sort keys of another type: each used to end in a TypeError while sorting
    "string_t": (
        json.dumps({**_RECORD, "t": "0.1"}),
        "t must be a number or null, not '0.1'",
    ),
    "float_shots": (json.dumps({**_RECORD, "shots": 100.0}), "shots must be an integer"),
    "bool_seed": (json.dumps({**_RECORD, "seed": True}), "seed must be an integer"),
    "numeric_backend": (json.dumps({**_RECORD, "backend": 1}), "backend must be a string"),
    "null_workload": (json.dumps({**_RECORD, "workload": None}), "workload must be a string"),
    "bool_t": (json.dumps({**_RECORD, "t": False}), "t must be a number or null"),
    # constants Python's json reads but JSON (RFC 8259) lacks: each used to
    # reach the summary as a float
    "nan_metric": (
        json.dumps({**_RECORD, "tvd_vs_ideal": math.nan}),
        "invalid JSON: NaN is not JSON",
    ),
    "infinite_metric": (
        json.dumps({**_RECORD, "confidence": math.inf}),
        "invalid JSON: Infinity is not JSON",
    ),
    "negative_infinite_sort_key": (
        json.dumps({**_RECORD, "t": -math.inf}),
        "invalid JSON: -Infinity is not JSON",
    ),
    # averaged metrics of another type: a string used to be skipped and a
    # bool counted as 0 or 1
    "string_pm": (json.dumps({**_RECORD, "pm": "2.5"}), "pm must be a number, not '2.5'"),
    "bool_pm": (json.dumps({**_RECORD, "pm": True}), "pm must be a number, not True"),
    "null_tvd": (
        json.dumps({**_RECORD, "tvd_vs_clean": None}),
        "tvd_vs_clean must be a number, not None",
    ),
    "inf_sentinel_ar": (
        json.dumps({**_SPLIT_RECORD, "ar": "inf"}),
        "ar must be a number, not 'inf'",
    ),
    "bool_phase_ar": (
        json.dumps({**_SPLIT_RECORD, "phase_b_ar": False}),
        "phase_b_ar must be a number, not False",
    ),
    # fields against the mode's layout (report._LAYOUTS): a missing metric
    # used to be skipped, so a mean covered fewer seeds than n_seeds said
    "none_without_pm": (json.dumps(_without(_RECORD, "pm")), "none record lacks pm"),
    "without_top_counts": (
        json.dumps(_without(_RECORD, "top_counts")),
        "none record lacks top_counts",
    ),
    "unknown_field": (
        json.dumps({**_RECORD, "pm_exact": 2.0}),
        "none record has extra fields: pm_exact",
    ),
    "unknown_defense": (
        json.dumps({**_RECORD, "defense": "majority"}),
        "unknown defense 'majority'",
    ),
    # the other fields' types (report._FIELDS)
    "string_wall_time": (
        json.dumps({**_RECORD, "wall_time_s": "1"}),
        "wall_time_s must be a number, not '1'",
    ),
    "list_top_counts": (
        json.dumps({**_RECORD, "top_counts": []}),
        "top_counts must be an object, not []",
    ),
}


@pytest.mark.parametrize("line, reason", BAD_RESULTS.values(), ids=list(BAD_RESULTS))
def test_cli_report_names_the_bad_line(tmp_path, capsys, line, reason):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(_RECORD) + "\n" + line + "\n")
    assert main(["report", str(path), "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: {reason}")
    assert not (tmp_path / "report").exists()


def test_read_jsonl_keeps_the_inf_sentinel_and_refuses_a_missing_metric(tmp_path):
    records = [{**_RECORD, "pm": "inf"}, {**_RECORD, "seed": 1, "pm": 3}]
    path = tmp_path / "results.jsonl"
    write_jsonl(records, path)
    assert read_jsonl(path) == records
    write_jsonl([*records, _without(_RECORD, "pm")], path)
    with pytest.raises(IoError, match=f"^{re.escape(str(path))}:3: none record lacks pm$"):
        read_jsonl(path)


def test_cli_report_unreadable_path(tmp_path, capsys):
    assert main(["report", str(tmp_path), "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read results file") and str(tmp_path) in err


@pytest.mark.parametrize("command", ["run", "report"])
def test_cli_out_under_a_file_is_an_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "run":
        source = tmp_path / "config.json"
        source.write_text(json.dumps(base_config(seeds=[0])))
        argv = ["run", "--config", str(source), "--out", str(blocker / "x.jsonl")]
    else:
        source = tmp_path / "results.jsonl"
        source.write_text(json.dumps(_RECORD) + "\n")
        argv = ["report", str(source), "--out", str(blocker / "report")]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {blocker}")


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"workload": {}}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


# each is not a valid circuit, not a supported gate, or malformed QASM
BAD_QASM = {
    "unknown_gate": "qreg q[2]; creg c[2]; foo q[0]; measure q -> c;",
    "duplicate_qubit": "qreg q[2]; creg c[2]; cx q[0],q[0]; measure q -> c;",
    "duplicate_barrier": "qreg q[2]; creg c[2]; barrier q,q[0]; measure q -> c;",
    "duplicate_in_macro": (
        "gate g a, b { cx a, b; } qreg q[2]; creg c[2]; g q[0], q[0]; measure q -> c;"
    ),
    "too_wide": "qreg q[30]; creg c[1]; measure q[0] -> c[0];",
    "gate_after_measure": "qreg q[1]; creg c[1]; measure q[0] -> c[0]; h q[0];",
    "measured_twice": "qreg q[1]; creg c[2]; measure q[0] -> c[0]; measure q[0] -> c[1];",
    "division_by_zero": "qreg q[1]; creg c[1]; rx(1/0) q[0]; measure q -> c;",
    "infinite_angle": "qreg q[1]; creg c[1]; rx(1e400) q[0]; measure q -> c;",
    "unclosed_params": "qreg q[1]; creg c[1]; x(",
    "float_index": "qreg q[1]; creg c[1]; x q[1e0]; measure q -> c;",
    "no_measurement": "qreg q[1]; creg c[1]; h q[0];",
}


@pytest.mark.parametrize("source", BAD_QASM.values(), ids=list(BAD_QASM))
def test_cli_run_bad_qasm_is_config_error(tmp_path, capsys, source):
    (tmp_path / "t.qasm").write_text(source)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(workload={"qasm": "t.qasm"})))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error: /workload/qasm:" in capsys.readouterr().err


@pytest.mark.parametrize("source", BAD_QASM.values(), ids=list(BAD_QASM))
def test_cli_parse_bad_qasm_exits_1(tmp_path, capsys, source):
    path = tmp_path / "t.qasm"
    path.write_text(source)
    assert main(["parse", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:")


@pytest.mark.parametrize("name", ["gate_after_measure", "measured_twice"])
def test_cli_measurement_errors_name_their_line(tmp_path, capsys, name):
    path = tmp_path / "t.qasm"
    path.write_text(BAD_QASM[name])
    assert main(["parse", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 1: ")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(workload={"qasm": "t.qasm"})))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: /workload/qasm: {path}: line 1: ")


@pytest.mark.parametrize(
    "name", ["duplicate_qubit", "duplicate_barrier", "duplicate_in_macro"]
)
def test_cli_duplicate_qubit_names_its_line(tmp_path, capsys, name):
    # exit codes: test_cli_parse_bad_qasm_exits_1, test_cli_run_bad_qasm_is_config_error
    path = tmp_path / "t.qasm"
    path.write_text(BAD_QASM[name])
    assert main(["parse", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 1: duplicate qubit")


LATIN_1 = "// caf\xe9\n"  # a byte that is not UTF-8


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes((LATIN_1 + json.dumps(base_config())).encode("latin-1"))
    with pytest.raises(ConfigError, match="^/: invalid JSON: 'utf-8' codec"):
        load_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: /: invalid JSON: ")


def test_qasm_that_is_not_utf8_is_an_error(tmp_path, capsys):
    path = tmp_path / "t.qasm"
    path.write_bytes((LATIN_1 + (DATA / "bell.qasm").read_text()).encode("latin-1"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(workload={"qasm": "t.qasm"})))
    pointer = f"/workload/qasm: cannot read {path}: 'utf-8' codec"
    with pytest.raises(ConfigError, match=f"^{re.escape(pointer)}"):
        load_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {pointer}")
    assert main(["parse", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec")


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(seeds=[0])))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", "--config", str(cfg_path), "--out", str(out_a), "--seed", "1"])
    main(["run", "--config", str(cfg_path), "--out", str(out_b), "--seed", "2"])
    assert strip_wall_time(read_jsonl(out_a)) != strip_wall_time(read_jsonl(out_b))


@pytest.mark.parametrize("file_seed", [None, 7])
def test_cli_seed_override_changes_the_experiment_id(tmp_path, file_seed):
    # the id hashes the config as it is run: a --seed other than the file's
    # own master_seed (default 0) changes it, an equal one does not
    extra = {} if file_seed is None else {"master_seed": file_seed}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(base_config(backends=[{"name": "hw_a"}], seeds=[0], **extra))
    )
    own = file_seed or 0
    ids = {}
    for seed in (None, own, own + 1, own + 2):
        out = tmp_path / f"{seed}.jsonl"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
        (ids[seed],) = {record["experiment_id"] for record in read_jsonl(out)}
        assert load_config(cfg_path, master_seed=seed).experiment_id == ids[seed]
    assert ids[None] == ids[own] == load_config(cfg_path).experiment_id
    assert len({ids[None], ids[own + 1], ids[own + 2]}) == 3


def test_cli_seed_override_is_checked_like_the_file_value(tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    argv = ["run", "--config", str(DATA / "ci_adaptive.json"), "--out", str(out)]
    assert main(argv + ["--seed", "-3"]) == 2
    message = "/master_seed: -3 is less than the minimum of 0"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
    # a bool or numpy integer fails even where it equals the file's seed
    for own in ({}, {"master_seed": 1}, {"master_seed": [1, 2]}):
        for seed in (True, 2.5, np.int64(1)):
            with pytest.raises(ConfigError, match="^/master_seed: "):
                load_config(base_config(**own), master_seed=seed)


def test_cli_parse(capsys):
    code = main(["parse", str(DATA / "bell.qasm")])
    assert code == 0
    captured = capsys.readouterr().out
    assert "qubits:      2" in captured
    assert "ideal top-5" in captured


def test_cli_parse_missing_file(capsys):
    assert main(["parse", "/no/such/file.qasm"]) == 1
