"""Results records: JSONL I/O, sort order, grouping and derived CSVs.

`write_jsonl` and `read_jsonl` own the on-disk record format, and
`_FIELDS` and `_LAYOUTS` the record layout: each field's type and the
fields each defense mode's records carry. `summarize` and the `qtrust
report` tables (`write_reports`) are pure functions of the records. Only
the standard library is imported, so `qtrust report` runs without numpy or
the simulator.

A summary's `_mean` is `math.fsum` over the seeds divided by their number,
and its `_std` the population standard deviation over them (divided by
`n_seeds`, not `n_seeds - 1`). `_pstdev` computes the variance exactly in
integers and rounds its square root once, so a `_std` cell has the same
bytes on every supported Python.
"""
from __future__ import annotations

import csv
import json
import math
import operator
from pathlib import Path


class IoError(OSError):
    pass


def _order_key(values) -> list:
    """Sort key over field values: None first, then natural order."""
    return [(v is not None, v) for v in values]


# the fields records are sorted by, in order
_SORT = ("workload", "defense", "t", "shots", "seed", "backend")


def record_key(record: dict) -> list:
    """The order of records in a results file: by cell, then backend."""
    return _order_key(record[f] for f in _SORT)


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


_SUMMARY_METRICS = ("pm", "tvd_vs_ideal", "tvd_vs_clean", "confidence", "ar")


def _numeric(records, field) -> list:
    # skips missing fields and PM's "inf" sentinel
    return [r[field] for r in records if r.get(field, "inf") != "inf"]


def field_mean(records, field) -> float | None:
    """Mean of the numeric values of `field`; None if there are none."""
    values = _numeric(records, field)
    return math.fsum(values) / len(values) if values else None


def _pstdev(values) -> float:
    """Population standard deviation of ints and finite floats, correctly
    rounded: the value `statistics.pstdev` gives on Python 3.11+."""
    # a float's ratio is exact and its denominator a power of two, so every
    # numerator scales to the largest one, 2**shift, without a remainder
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    nums = [n * (scale // d) for n, d in ratios]
    count, total = len(nums), sum(nums)
    # variance = (count * sum(x*x) - sum(x)**2) / (count**2 * 4**shift)
    n = count * sum(x * x for x in nums) - total * total
    m = (count * scale) ** 2
    # the root to 2 * 53 + 3 bits, rounded to odd, then once to a float
    # (bpo-45876: CPython's statistics._float_sqrt_of_frac)
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def write_jsonl(records: list[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in records:
            # JSON has no inf or nan (RFC 8259): either raises ValueError
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


# each field's types, compared with type() so that a bool is not a number,
# and their name in an error; only PM may also hold its "inf" sentinel
_FIELDS = {
    **dict.fromkeys(
        ("schema_version", "shots", "seed", "shots_in_answer", "cmax"),
        ((int,), "an integer"),
    ),
    "t": ((int, float, type(None)), "a number or null"),
    **dict.fromkeys(
        ("wall_time_s", "pm", "tvd_vs_ideal", "tvd_vs_clean", "confidence")
        + ("ar", "best_expectation", "phase_a_ar", "phase_b_ar"),
        ((int, float), "a number"),
    ),
    **dict.fromkeys(
        ("experiment_id", "workload", "defense", "backend", "top_outcome")
        + ("correct", "selected"),
        ((str,), "a string"),
    ),
    **dict.fromkeys(("top_counts", "probe", "probe_ars"), ((dict,), "an object")),
    **dict.fromkeys(("allocations", "gamma", "beta"), ((list,), "an array")),
}
# the fields of every record, and of one that holds a sampled or a QAOA answer
_BASE = frozenset({"schema_version", "experiment_id", *_SORT, "wall_time_s"})
_SAMPLED = _BASE.union(
    ("pm", "tvd_vs_ideal", "tvd_vs_clean", "top_outcome", "confidence"),
    ("correct", "top_counts", "shots_in_answer"),
)
_QAOA = _BASE | {"ar", "cmax", "best_expectation", "gamma", "beta"}
# defense mode -> the field sets its records may have
_LAYOUTS = {
    "none": (_SAMPLED, _QAOA),
    "equal": (_SAMPLED | {"allocations"},),
    "adaptive": (_SAMPLED | {"allocations", "probe", "selected"},),
    "qaoa_split": (_QAOA | {"phase_a_ar", "phase_b_ar"},),
    "qaoa_adaptive": (_QAOA | {"selected", "probe_ars"},),
}


def _misfit(mode: str, keys: set) -> str:
    """How a record's fields differ from the nearest layout of its mode."""
    nearest = min(_LAYOUTS[mode], key=lambda layout: len(layout ^ keys))
    lacks, extra = sorted(nearest - keys), sorted(keys - nearest)
    parts = [f"lacks {', '.join(lacks)}"] if lacks else []
    parts += [f"has extra fields: {', '.join(extra)}"] if extra else []
    return f"{mode} record {' and '.join(parts)}"


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


# Python's json reads NaN, Infinity and -Infinity; JSON (RFC 8259) has none
_DECODER = json.JSONDecoder(parse_constant=_not_json)


def read_jsonl(path: str | Path) -> list[dict]:
    """The records of a results file; an ``IoError`` names the path, and
    the line of a record that is not JSON or not an object, whose defense
    mode is missing or unknown, whose fields are none of its mode's layouts
    (`_LAYOUTS`) or whose field holds a value of the wrong type (`_FIELDS`)."""
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
            record = _DECODER.decode(line)
        except ValueError as exc:  # json.JSONDecodeError or _not_json
            raise IoError(f"{where}: invalid JSON: {exc}")
        if not isinstance(record, dict):
            raise IoError(f"{where}: record is not a JSON object")
        if "defense" not in record:
            raise IoError(f"{where}: record lacks defense")
        mode = record["defense"]
        if type(mode) is not str or mode not in _LAYOUTS:
            raise IoError(f"{where}: unknown defense {mode!r}")
        if record.keys() not in _LAYOUTS[mode]:
            raise IoError(f"{where}: {_misfit(mode, set(record))}")
        for field, value in record.items():
            kinds, name = _FIELDS[field]
            if type(value) not in kinds and (field, value) != ("pm", "inf"):
                raise IoError(f"{where}: {field} must be {name}, not {value!r}")
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
            row[f"{metric}_mean"] = math.fsum(values) / len(values)
            row[f"{metric}_std"] = _pstdev(values)
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
            selected = sum(r["selected"] == name for r in g)
            rows.append(
                {
                    **dict(zip(fields, key)),
                    "backend": name,
                    "mean_shot_share": math.fsum(shares) / len(shares),
                    "selection_rate": selected / len(g),
                    "pm_mean": pm_mean,
                }
            )
    return rows


def _rows_table3(records):
    """Per-backend probe fingerprints from adaptive runs."""
    rows = []
    for key, g in group_by(records, _CELL, _defense("adaptive")):
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
