"""Results records: JSONL I/O, sort order, grouping and derived CSVs.

`write_jsonl` and `read_jsonl` own the on-disk record format; `summarize`
and the `qtrust report` tables (`write_reports`) are pure functions of the
records. Only the standard library is imported, so `qtrust report` runs
without numpy or the simulator.
"""
from __future__ import annotations

import csv
import json
import operator
import statistics
from pathlib import Path


class IoError(OSError):
    pass


def _order_key(values) -> list:
    """Sort key over field values: None first, then natural order."""
    return [(v is not None, v) for v in values]


# the fields records are sorted by, in order, and the type each must hold
# so that the records of a file compare; a bool is none of them
_RECORD_ORDER = {
    "workload": (str, "a string"),
    "defense": (str, "a string"),
    "t": ((int, float, type(None)), "a number or null"),
    "shots": (int, "an integer"),
    "seed": (int, "an integer"),
    "backend": (str, "a string"),
}


def record_key(record: dict) -> list:
    """The order of records in a results file: by cell, then backend."""
    return _order_key(record[f] for f in _RECORD_ORDER)


def group_by(records, fields, where=None) -> list[tuple[tuple, list[dict]]]:
    """(key, records) pairs over the records `where` accepts, grouped by
    the values of `fields` and sorted by key (None first, numbers as
    numbers)."""
    get = operator.itemgetter(*fields)
    key = get if len(fields) > 1 else lambda record: (get(record),)
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        if where is None or where(record):
            groups.setdefault(key(record), []).append(record)
    return sorted(groups.items(), key=lambda kv: _order_key(kv[0]))


def _numeric(records, field) -> list:
    # skips missing fields and PM's "inf" sentinel
    return [r[field] for r in records if isinstance(r.get(field), (int, float))]


def field_mean(records, field) -> float | None:
    """Mean of the numeric values of `field`; None if there are none."""
    values = _numeric(records, field)
    return statistics.fmean(values) if values else None


def write_jsonl(records: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in records:
            # JSON has no inf or nan (RFC 8259): either raises ValueError
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


# the fields a `qtrust report` builder reads from every record of a mode
_REPORT_FIELDS = {
    "adaptive": ("allocations",),
    "qaoa_adaptive": ("probe_ars", "selected", "ar"),
}


def read_jsonl(path: str | Path) -> list[dict]:
    """The records of a results file; an ``IoError`` names the path, and
    the line of a record that is not JSON, not an object, lacks a sort key,
    holds a sort key of the wrong type or lacks a field its defense mode's
    report reads."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such results file: {path}")
    try:
        with path.open() as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read results file {path}: {exc}")
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IoError(f"{where}: invalid JSON: {exc}")
        if not isinstance(record, dict):
            raise IoError(f"{where}: record is not a JSON object")
        missing = [f for f in _RECORD_ORDER if f not in record]
        if missing:
            raise IoError(f"{where}: record lacks {', '.join(missing)}")
        for field, (kind, name) in _RECORD_ORDER.items():
            value = record[field]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise IoError(f"{where}: {field} must be {name}, not {value!r}")
        mode = record["defense"]
        missing = [f for f in _REPORT_FIELDS.get(mode, ()) if f not in record]
        if missing:
            raise IoError(f"{where}: {mode} record lacks {', '.join(missing)}")
        records.append(record)
    return records


def write_csv(rows: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


_SUMMARY_METRICS = ("pm", "tvd_vs_ideal", "tvd_vs_clean", "confidence", "ar")
_SUMMARY_GROUP = ("workload", "defense", "backend", "t", "shots")


def summarize(records: list[dict]) -> list[dict]:
    """Mean/std over seeds per (workload, defense, backend, t, shots)."""
    rows = []
    for key, group in group_by(records, _SUMMARY_GROUP):
        row = dict(zip(_SUMMARY_GROUP, key), n_seeds=len(group))
        for metric in _SUMMARY_METRICS:
            values = _numeric(group, metric)
            if not values:
                continue
            row[f"{metric}_mean"] = statistics.fmean(values)
            # pstdev works in exact fractions; skip it for a single value
            row[f"{metric}_std"] = statistics.pstdev(values) if len(values) > 1 else 0.0
        rows.append(row)
    return rows


def _defense(mode, field="defense"):
    """Record filter: the given defense mode, carrying `field`."""
    return lambda r: r["defense"] == mode and field in r


def _means(fields, metrics, where):
    """Report builder: the mean of each metric per group of `fields`."""

    def build(records):
        rows = []
        for key, g in group_by(records, fields, where):
            row = dict(zip(fields, key))
            row.update((f"{m}_mean", field_mean(g, m)) for m in metrics)
            rows.append(row)
        return rows

    return build


_CELL = ("workload", "t", "shots", "seed")


def _rows_fig12(records):
    """Adaptive split: selection rate and mean shot share per backend."""
    rows = []
    fields = ("workload", "t", "shots")
    for key, g in group_by(records, fields, _defense("adaptive")):
        allocations = [dict(r["allocations"]) for r in g]
        pm_mean = field_mean(g, "pm")
        for name in sorted({name for a in allocations for name in a}):
            shares = [a.get(name, 0) / sum(a.values()) for a in allocations]
            selected = sum(r.get("selected") == name for r in g)
            rows.append(
                {
                    **dict(zip(fields, key)),
                    "backend": name,
                    "mean_shot_share": statistics.fmean(shares),
                    "selection_rate": selected / len(g),
                    "pm_mean": pm_mean,
                }
            )
    return rows


def _rows_table3(records):
    """Per-backend probe fingerprints from adaptive runs."""
    rows = []
    for key, g in group_by(records, _CELL, _defense("adaptive", "probe")):
        cell = dict(zip(_CELL, key))
        for r in g:
            probe = r["probe"]
            for bp in sorted(probe["backends"], key=lambda bp: bp["name"]):
                rows.append(
                    {
                        **cell,
                        "backend": bp["name"],
                        "repeatable": bp["repeatable"],
                        "run_tops": " ".join(bp["run_tops"]),
                        "mean_pm": bp["mean_pm"],
                        "mean_inter_run_tvd": bp["mean_inter_run_tvd"],
                        "mean_confidence": bp["mean_confidence"],
                        "voted_answer": probe["voted_answer"],
                    }
                )
    return rows


def _rows_table6(records):
    """Adaptive QAOA: probe ARs and selection per t."""
    rows = []
    for key, g in group_by(records, _CELL, _defense("qaoa_adaptive")):
        cell = dict(zip(_CELL, key))
        for r in g:
            for name, ars in sorted(r["probe_ars"].items()):
                rows.append(
                    {
                        **cell,
                        "backend": name,
                        "probe_ars": " ".join(f"{a:.4f}" for a in ars),
                        "selected": r["selected"] == name,
                        "ar": r["ar"] if r["selected"] == name else None,
                    }
                )
    return rows


# fig8 and table2 are the same grouping: PM against the shot budget
_SHOTS = _means(
    ("workload", "backend", "t", "shots"),
    ("pm", "tvd_vs_ideal"),
    _defense("none", "pm"),
)

_REPORTS = {
    # PM and TVD vs t per backend (no defense)
    "fig6": _means(
        ("workload", "backend", "t"),
        ("pm", "tvd_vs_ideal", "tvd_vs_clean"),
        _defense("none", "pm"),
    ),
    "fig8": _SHOTS,
    # equal-split PM/TVD vs t
    "fig11": _means(
        ("workload", "t", "shots"), ("pm", "tvd_vs_ideal"), _defense("equal")
    ),
    "fig12": _rows_fig12,
    "table2": _SHOTS,
    "table3": _rows_table3,
    # iteration-split AR vs t
    "table5": _means(
        ("workload", "t"), ("ar", "phase_a_ar", "phase_b_ar"), _defense("qaoa_split")
    ),
    "table6": _rows_table6,
}


def write_reports(records: list[dict], out_dir: str | Path) -> list[Path]:
    """Write `<name>.csv` under `out_dir` for each report table that some
    record matches; returns the paths written, in table order."""
    written = []
    for name, build in _REPORTS.items():
        rows = build(records)
        if rows:
            path = Path(out_dir) / f"{name}.csv"
            write_csv(rows, path)
            written.append(path)
    return written
