import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrust import harness, simulator
from qtrust.cli import main
from qtrust.harness import ConfigError, load_config, run_experiment
from qtrust.report import read_jsonl, summarize, write_jsonl

from oracles import jsonschema_error_paths

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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
        shots_sweep=[10, 20.0],
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


_RECORD = {
    "workload": "toffoli_n3",
    "defense": "none",
    "t": 0.5,
    "shots": 100,
    "seed": 0,
    "backend": "hw_a",
    "pm": 2.0,
}

# a second line `qtrust report` must refuse, and the reason it gives
BAD_RESULTS = {
    "truncated": (json.dumps(_RECORD)[:-9], "invalid JSON"),
    "not_an_object": ("[1, 2]", "record is not a JSON object"),
    "missing_key": (
        json.dumps({k: v for k, v in _RECORD.items() if k != "defense"}),
        "record lacks defense",
    ),
    # fields one report builder reads: each used to end in a KeyError
    "adaptive_without_allocations": (
        json.dumps({**_RECORD, "defense": "adaptive", "selected": "hw_a"}),
        "adaptive record lacks allocations",
    ),
    "qaoa_adaptive_without_probe_ars": (
        json.dumps({**_RECORD, "defense": "qaoa_adaptive", "selected": "hw_a", "ar": 0.9}),
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
}


@pytest.mark.parametrize("line, reason", BAD_RESULTS.values(), ids=list(BAD_RESULTS))
def test_cli_report_names_the_bad_line(tmp_path, capsys, line, reason):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(_RECORD) + "\n" + line + "\n")
    assert main(["report", str(path), "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: {reason}")
    assert not (tmp_path / "report").exists()


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
    assert ids[None] == ids[own] == load_config(cfg_path).experiment_id
    assert len({ids[None], ids[own + 1], ids[own + 2]}) == 3


def test_cli_parse(capsys):
    code = main(["parse", str(DATA / "bell.qasm")])
    assert code == 0
    captured = capsys.readouterr().out
    assert "qubits:      2" in captured
    assert "ideal top-5" in captured


def test_cli_parse_missing_file(capsys):
    assert main(["parse", "/no/such/file.qasm"]) == 1
