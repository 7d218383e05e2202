import dataclasses
import json
from pathlib import Path

import pytest

from qtrust import harness, simulator
from qtrust.cli import main
from qtrust.harness import (
    ConfigError,
    load_config,
    read_jsonl,
    run_experiment,
    summarize,
    write_jsonl,
)

DATA = Path(__file__).parent / "data"


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
    assert config.defense.mode == "none"


def test_config_error_carries_json_pointer():
    with pytest.raises(ConfigError) as err:
        load_config(base_config(shots="many"))
    assert "/shots" in str(err.value)


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
    assert load_config(cfg).backends[1].noise.pair_for(pairs) == (0.01, 0.02)


# each names a graph the QAOA workload cannot build or cannot simulate
BAD_GRAPHS = {
    "infeasible_degree": {"nodes": 5, "degree": 3},
    "duplicate_edge": {"nodes": 4, "edges": [[0, 1], [1, 0]]},
    "out_of_range_edge": {"nodes": 4, "edges": [[0, 9]]},
    "self_loop": {"nodes": 4, "edges": [[2, 2]]},
    "too_many_nodes": {"nodes": 30, "degree": 3},
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

    def renamed(*args, **kwargs):
        counts, plan, report = real(*args, **kwargs)
        return counts, dataclasses.replace(plan, selected="from_plan"), report

    monkeypatch.setattr(harness, "adaptive_split", renamed)
    config = load_config(base_config(shots=1000, defense={"mode": "adaptive"}))
    records, errors = run_experiment(config)
    assert not errors and records
    assert all(r["selected"] == "from_plan" for r in records)


def test_ideal_and_clean_computed_once_per_experiment(monkeypatch):
    config = load_config(
        base_config(t_sweep=[0.1, 0.3], seeds=[0, 1], defense={"mode": "equal"})
    )
    calls = {"clean_distribution": 0, "prepare": 0}

    def counting(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    records, errors = run_experiment(config, jobs=2)
    assert not errors and len(records) == 4
    # once per backend, not per cell; the ideal comes from load_config
    assert calls == {"clean_distribution": 2, "prepare": 0}


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
    "too_wide": "qreg q[30]; creg c[1]; measure q[0] -> c[0];",
    "gate_after_measure": "qreg q[1]; creg c[1]; measure q[0] -> c[0]; h q[0];",
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


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(seeds=[0])))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", "--config", str(cfg_path), "--out", str(out_a), "--seed", "1"])
    main(["run", "--config", str(cfg_path), "--out", str(out_b), "--seed", "2"])
    assert strip_wall_time(read_jsonl(out_a)) != strip_wall_time(read_jsonl(out_b))


def test_cli_parse(capsys):
    code = main(["parse", str(DATA / "bell.qasm")])
    assert code == 0
    captured = capsys.readouterr().out
    assert "qubits:      2" in captured
    assert "ideal top-5" in captured


def test_cli_parse_missing_file(capsys):
    assert main(["parse", "/no/such/file.qasm"]) == 1
