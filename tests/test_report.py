"""Pins the `.summary.csv` of `qtrust run` and the eight `qtrust report` CSVs.

Each config runs once through the CLI; every table is checked for its
header, its row count, its row order and at least one value recomputed
by hand from the JSONL records.
"""
import csv
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from qtrust.cli import main
from qtrust.report import field_mean, group_by, read_jsonl, write_jsonl

SRC = Path(__file__).resolve().parents[1] / "src"

T_SWEEP = [0.1, 0.5]
SHOTS_SWEEP = [200, 1000, 10000]  # str order would be 1000, 10000, 200

SAMPLE_BACKENDS = [
    {"name": "hw_a", "readout": 0.02, "drift": 0.01},
    {
        "name": "hw_b",
        "readout": 0.02,
        "drift": 0.01,
        "tamper": {"mode": "targeted", "t": 0.5},
    },
]

CONFIGS = {
    "none": {
        "workload": {"builtin": "toffoli_n3"},
        "backends": SAMPLE_BACKENDS,
        "shots": 1000,
        "t_sweep": T_SWEEP,
        "shots_sweep": SHOTS_SWEEP,
        "seeds": [0, 1],
    },
    "equal": {
        "workload": {"builtin": "toffoli_n3"},
        "backends": SAMPLE_BACKENDS,
        "shots": 1000,
        "t_sweep": T_SWEEP,
        "defense": {"mode": "equal"},
        "seeds": [0, 1, 2],
    },
    "equal_shots": {
        "workload": {"builtin": "toffoli_n3"},
        "backends": SAMPLE_BACKENDS,
        "shots": 1000,
        "t_sweep": T_SWEEP,
        "shots_sweep": [1000, 400],
        "defense": {"mode": "equal"},
        "seeds": [0, 1],
    },
    "adaptive": {
        "workload": {"builtin": "toffoli_n3"},
        "backends": SAMPLE_BACKENDS,
        "shots": 1000,
        "t_sweep": T_SWEEP,
        "shots_sweep": [1000, 400],
        "defense": {"mode": "adaptive"},
        "seeds": [0, 1],
    },
    "qaoa_split": {
        "workload": {"qaoa": {"nodes": 4, "degree": 2, "iterations": 10}},
        "backends": SAMPLE_BACKENDS,
        "shots": 1000,
        "t_sweep": T_SWEEP,
        "defense": {"mode": "qaoa_split"},
        "seeds": [0, 1],
    },
    "qaoa_adaptive": {
        "workload": {"qaoa": {"nodes": 4, "degree": 2, "iterations": 30}},
        "backends": SAMPLE_BACKENDS,
        "shots": 1000,
        "t_sweep": T_SWEEP,
        "defense": {"mode": "qaoa_adaptive", "probe_iterations": 5, "probe_runs": 2},
        "seeds": [0],
    },
}

# report tables each defense mode produces
TABLES = {
    "none": {"fig6", "fig8", "table2"},
    "equal": {"fig11"},
    "equal_shots": {"fig11"},
    "adaptive": {"fig12", "table3"},
    "qaoa_split": {"table5"},
    "qaoa_adaptive": {"table6"},
}

SAMPLE_SUMMARY = (
    "workload,defense,backend,t,shots,n_seeds,pm_mean,pm_std,tvd_vs_ideal_mean,"
    "tvd_vs_ideal_std,tvd_vs_clean_mean,tvd_vs_clean_std,confidence_mean,"
    "confidence_std"
)
QAOA_SUMMARY = "workload,defense,backend,t,shots,n_seeds,ar_mean,ar_std"

HEADERS = {
    "fig6": "workload,backend,t,pm_mean,tvd_vs_ideal_mean,tvd_vs_clean_mean",
    "fig8": "workload,backend,t,shots,pm_mean,tvd_vs_ideal_mean",
    "table2": "workload,backend,t,shots,pm_mean,tvd_vs_ideal_mean",
    "fig11": "workload,t,shots,pm_mean,tvd_vs_ideal_mean",
    "fig12": "workload,t,shots,backend,mean_shot_share,selection_rate,pm_mean",
    "table3": (
        "workload,t,shots,seed,backend,repeatable,run_tops,mean_pm,"
        "mean_inter_run_tvd,mean_confidence,voted_answer"
    ),
    "table5": "workload,t,ar_mean,phase_a_ar_mean,phase_b_ar_mean",
    "table6": "workload,t,shots,seed,backend,probe_ars,selected,ar",
}


class Run:
    def __init__(self, records, summary, tables):
        self.records = records
        self.summary = summary  # (header, rows)
        self.tables = tables  # name -> (header, rows)


def _read_csv(path):
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return ",".join(reader.fieldnames), rows


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for mode, config in CONFIGS.items():
        work = tmp_path_factory.mktemp(mode)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(config))
        results = work / "results.jsonl"
        assert main(["run", "--config", str(cfg_path), "--out", str(results)]) == 0
        assert main(["report", str(results), "--out", str(work / "report")]) == 0
        tables = {
            path.stem: _read_csv(path) for path in (work / "report").glob("*.csv")
        }
        out[mode] = Run(
            read_jsonl(results),
            _read_csv(results.with_suffix(".summary.csv")),
            tables,
        )
    return out


def _select(records, **fields):
    return [r for r in records if all(r[k] == v for k, v in fields.items())]


def _shots_order(rows):
    """Shot values in row order for each (backend, t)."""
    seen = {}
    for row in rows:
        seen.setdefault((row["backend"], row["t"]), []).append(int(row["shots"]))
    return seen


@pytest.mark.parametrize("mode", list(CONFIGS))
def test_report_writes_exactly_the_mode_tables(runs, mode):
    assert set(runs[mode].tables) == TABLES[mode]
    for name in TABLES[mode]:
        header, _ = runs[mode].tables[name]
        assert header == HEADERS[name]


@pytest.mark.parametrize("mode", list(CONFIGS))
def test_summary_header_and_row_count(runs, mode):
    run = runs[mode]
    header, rows = run.summary
    qaoa = mode.startswith("qaoa")
    assert header == (QAOA_SUMMARY if qaoa else SAMPLE_SUMMARY)
    groups = {
        (r["workload"], r["defense"], r["backend"], r["t"], r["shots"])
        for r in run.records
    }
    assert len(rows) == len(groups)
    assert sum(int(row["n_seeds"]) for row in rows) == len(run.records)


def test_summary_values_and_numeric_shot_order(runs):
    run = runs["none"]
    _, rows = run.summary
    assert len(rows) == 2 * len(T_SWEEP) * len(SHOTS_SWEEP)
    for order in _shots_order(rows).values():
        assert order == SHOTS_SWEEP
    row = next(
        r for r in rows if (r["backend"], r["t"], r["shots"]) == ("hw_b", "0.5", "200")
    )
    group = _select(run.records, backend="hw_b", t=0.5, shots=200)
    pms = [r["pm"] for r in group]
    assert int(row["n_seeds"]) == 2
    assert float(row["pm_mean"]) == statistics.fmean(pms)
    assert float(row["pm_std"]) == statistics.pstdev(pms)


def test_fig6_averages_over_shots_and_seeds(runs):
    run = runs["none"]
    _, rows = run.tables["fig6"]
    assert [(r["backend"], r["t"]) for r in rows] == [
        ("hw_a", "0.1"), ("hw_a", "0.5"), ("hw_b", "0.1"), ("hw_b", "0.5")
    ]
    group = _select(run.records, backend="hw_a", t=0.1)
    assert len(group) == len(SHOTS_SWEEP) * 2
    expected = statistics.fmean(r["tvd_vs_ideal"] for r in group)
    assert float(rows[0]["tvd_vs_ideal_mean"]) == expected


@pytest.mark.parametrize("name", ["fig8", "table2"])
def test_shot_tables_numeric_order_and_values(runs, name):
    run = runs["none"]
    _, rows = run.tables[name]
    assert len(rows) == 2 * len(T_SWEEP) * len(SHOTS_SWEEP)
    for order in _shots_order(rows).values():
        assert order == SHOTS_SWEEP
    row = next(
        r for r in rows
        if (r["backend"], r["t"], r["shots"]) == ("hw_b", "0.5", "10000")
    )
    group = _select(run.records, backend="hw_b", t=0.5, shots=10000)
    assert float(row["pm_mean"]) == statistics.fmean(r["pm"] for r in group)


def test_fig11_mean_over_seeds(runs):
    run = runs["equal"]
    _, rows = run.tables["fig11"]
    assert [r["t"] for r in rows] == ["0.1", "0.5"]
    group = _select(run.records, t=0.5)
    assert len(group) == 3
    assert float(rows[1]["pm_mean"]) == statistics.fmean(r["pm"] for r in group)


def test_fig11_one_row_per_shot_budget(runs):
    run = runs["equal_shots"]
    _, rows = run.tables["fig11"]
    assert [(r["t"], r["shots"]) for r in rows] == [
        ("0.1", "400"), ("0.1", "1000"), ("0.5", "400"), ("0.5", "1000")
    ]
    for shots in (400, 1000):
        row = next(r for r in rows if (r["t"], r["shots"]) == ("0.5", str(shots)))
        group = _select(run.records, t=0.5, shots=shots)
        assert len(group) == 2
        assert float(row["pm_mean"]) == statistics.fmean(r["pm"] for r in group)


def test_fig12_selection_rate_and_shot_share(runs):
    run = runs["adaptive"]
    _, rows = run.tables["fig12"]
    assert len(rows) == len(T_SWEEP) * 2 * 2  # t x shot budget x backend
    for t in ("0.1", "0.5"):
        for shots in ("400", "1000"):
            block = [r for r in rows if (r["t"], r["shots"]) == (t, shots)]
            assert [r["backend"] for r in block] == ["hw_a", "hw_b"]
            total = sum(float(r["selection_rate"]) for r in block)
            assert total == pytest.approx(1.0)
    for shots in (400, 1000):
        group = _select(run.records, t=0.5, shots=shots)
        hw_b = next(
            r for r in rows
            if (r["t"], r["shots"], r["backend"]) == ("0.5", str(shots), "hw_b")
        )
        shares = [dict(r["allocations"])["hw_b"] / shots for r in group]
        assert float(hw_b["mean_shot_share"]) == statistics.fmean(shares)
        selected = sum(r["selected"] == "hw_b" for r in group)
        assert float(hw_b["selection_rate"]) == selected / len(group)


def test_table3_one_row_per_cell_and_backend(runs):
    run = runs["adaptive"]
    _, rows = run.tables["table3"]
    assert len(rows) == len(run.records) * 2
    keys = [(r["t"], int(r["shots"]), int(r["seed"]), r["backend"]) for r in rows]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    record = _select(run.records, t=0.1, shots=400, seed=1)[0]
    probe = next(bp for bp in record["probe"]["backends"] if bp["name"] == "hw_b")
    row = rows[keys.index(("0.1", 400, 1, "hw_b"))]
    assert float(row["mean_pm"]) == probe["mean_pm"]
    assert row["voted_answer"] == record["probe"]["voted_answer"]


def test_table5_mean_ar(runs):
    run = runs["qaoa_split"]
    _, rows = run.tables["table5"]
    assert [r["t"] for r in rows] == ["0.1", "0.5"]
    group = _select(run.records, t=0.1)
    assert float(rows[0]["ar_mean"]) == statistics.fmean(r["ar"] for r in group)
    expected = statistics.fmean(r["phase_b_ar"] for r in group)
    assert float(rows[0]["phase_b_ar_mean"]) == expected


def test_table6_one_selected_backend_per_cell(runs):
    run = runs["qaoa_adaptive"]
    _, rows = run.tables["table6"]
    assert len(rows) == len(run.records) * 2
    assert [(r["t"], r["backend"]) for r in rows] == [
        ("0.1", "hw_a"), ("0.1", "hw_b"), ("0.5", "hw_a"), ("0.5", "hw_b")
    ]
    for record in run.records:
        block = [r for r in rows if r["t"] == str(record["t"])]
        assert {r["shots"] for r in block} == {str(record["shots"])}
        (chosen,) = [r for r in block if r["selected"] == "True"]
        assert chosen["backend"] == record["selected"]
        assert float(chosen["ar"]) == record["ar"]
        ars = record["probe_ars"][chosen["backend"]]
        assert chosen["probe_ars"] == " ".join(f"{a:.4f}" for a in ars)


def test_group_by_sorts_none_first_and_numbers_numerically():
    records = [
        {"t": 0.5, "shots": 200},
        {"t": None, "shots": 10000},
        {"t": 0.5, "shots": 1000},
        {"t": 0.1, "shots": 200},
        {"t": 0.5, "shots": 200},
    ]
    groups = group_by(records, ("t", "shots"))
    assert [key for key, _ in groups] == [
        (None, 10000), (0.1, 200), (0.5, 200), (0.5, 1000)
    ]
    assert [len(g) for _, g in groups] == [1, 1, 2, 1]
    filtered = group_by(records, ("t",), where=lambda r: r["shots"] == 200)
    assert [(key, len(g)) for key, g in filtered] == [((0.1,), 1), ((0.5,), 2)]


def test_field_mean_skips_the_inf_sentinel_and_missing_fields():
    records = [{"pm": "inf"}, {"pm": 2.0}, {}, {"pm": 4}]
    assert field_mean(records, "pm") == 3.0
    assert field_mean(records[:1], "pm") is None


# imports the CLI, then blocks numpy: any later import of it fails
REPORT_WITHOUT_NUMPY = """
import sys
import qtrust.cli
loaded = "numpy" in sys.modules
sys.modules["numpy"] = None
code = qtrust.cli.main(sys.argv[1:])
print(loaded, code)
"""


def test_report_runs_without_numpy(runs, tmp_path):
    results = tmp_path / "results.jsonl"
    write_jsonl([r for run in runs.values() for r in run.records], results)
    assert main(["report", str(results), "--out", str(tmp_path / "ours")]) == 0
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_WITHOUT_NUMPY, "report", str(results),
         "--out", str(tmp_path / "blocked")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"
    ours, blocked = tmp_path / "ours", tmp_path / "blocked"
    names = sorted(p.name for p in ours.iterdir())
    assert names == sorted(f"{name}.csv" for name in HEADERS)
    assert sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (ours / name).read_bytes()
