"""Layer tracer that times and counts calls into qtrust from outside.

The tracer replaces public qtrust functions with wrappers that record one
span per call (name, start, end, parent) plus a few work counters. A
qtrust module that did ``from .simulator import execute`` holds its own
reference to the function, so every qtrust module attribute bound to an
original is rebound to its wrapper; calls between qtrust modules, and
inside a module through its globals, are therefore traced too. Calls made
to private helpers stay inside their caller's span.

Spans are kept in memory and aggregated once the run ends. A layer's self
time is its span duration minus the durations of its direct child spans,
so the self times of all layers add up to the root spans' durations.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "qtrust"
_CALLS_SELF = ("calls", "self_s")

#: statistics reported per span name; every name but OWN_SPANS is a public
#: qtrust function, ``<module>.<function>``, that the tracer wraps
LAYER_STATS: dict[str, tuple[str, ...]] = {
    "simulator.apply_readout_channel": ("calls", "keys_in", "self_s"),
    "adversary.tamper_channel": ("calls", "keys_in", "self_s"),
    "simulator.run_statevector": (
        "calls",
        "distinct",
        "distinct_ratio",
        "amp_updates",
        "self_s",
    ),
    "simulator.execute": _CALLS_SELF,
    "simulator.clean_distribution": _CALLS_SELF,
    "simulator.resolve_tamper": _CALLS_SELF,
    "adversary.plan_targeted": _CALLS_SELF,
    "simulator.sample_counts": ("calls", "shots", "self_s"),
    "qaoa.optimize": _CALLS_SELF,
    "qaoa.cmax": _CALLS_SELF,
    "qaoa.expectation": _CALLS_SELF,
    "qaoa.build_qaoa_circuit": _CALLS_SELF,
    "defense.probe": ("self_s",),
    "defense.select_backend": ("self_s",),
    "defense.equal_split": ("self_s",),
    "defense.adaptive_split": ("self_s",),
    "defense.qaoa_adaptive": ("self_s",),
    "defense.qaoa_iteration_split": ("self_s",),
    "metrics.tvd": _CALLS_SELF,
    "metrics.pm": _CALLS_SELF,
    "metrics.top_outcome": _CALLS_SELF,
    "metrics.stitch": _CALLS_SELF,
    "rng.derive_seed": _CALLS_SELF,
    "harness.run_experiment": ("self_s",),
    "harness.write_jsonl": ("self_s", "bytes"),
    "harness.summarize": ("self_s",),
    "harness.write_csv": ("self_s",),
    "cli.report": ("self_s",),
    "harness.load_config": ("self_s",),
    "qasm.parse_qasm": ("self_s",),
}
STAT_UNITS = {
    "calls": "count",
    "keys_in": "count",
    "shots": "count",
    "distinct": "count",
    "distinct_ratio": "ratio",
    "amp_updates": "count",
    "bytes": "B",
    "self_s": "s",
}
#: spans the benchmark opens itself around a call into qtrust
OWN_SPANS = ("cli.report",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Distinct:
    """Counts distinct circuits passed to run_statevector."""

    def __init__(self):
        self.seen: set = set()

    def __call__(self, args, kwargs) -> dict[str, int]:
        circuit = _arg(args, kwargs, 0, "circuit")
        new = circuit not in self.seen
        self.seen.add(circuit)
        return {
            "distinct": int(new),
            "amp_updates": circuit.gate_count() * 2**circuit.num_qubits,
        }


def _keys_in(args, kwargs) -> dict[str, int]:
    return {"keys_in": len(_arg(args, kwargs, 0, "dist"))}


def _shots(args, kwargs) -> dict[str, int]:
    return {"shots": int(_arg(args, kwargs, 1, "shots"))}


#: counters taken from a call's arguments before it runs
_COUNTERS = {
    "simulator.apply_readout_channel": _keys_in,
    "adversary.tamper_channel": _keys_in,
    "simulator.sample_counts": _shots,
}


class Tracer:
    """Single-threaded span and counter recorder for one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._rebound: list[tuple[object, str, object]] = []
        self._counters = dict(_COUNTERS, **{"simulator.run_statevector": _Distinct()})

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        count = self._counters.get(name)
        counters = self.counters
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[f"{name}.calls"] += 1
            if count is not None and name not in self.broken_counters:
                try:
                    for key, value in count(args, kwargs).items():
                        counters[f"{name}.{key}"] += value
                except (TypeError, AttributeError, IndexError, KeyError):
                    # the signature moved under a later change: keep timing
                    self.broken_counters.add(name)
            return span(name, fn, *args, **kwargs)

        return traced

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded qtrust module."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name in LAYER_STATS:
            if name in OWN_SPANS:
                continue
            module_name, function = name.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, function, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                bound = [a for a, v in vars(m).items() if v is original]
                for attr in bound:
                    self._rebound.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _ = span
                out[name] += (end - start) - child_time[index]
        return dict(out)

    def write_spans(self, path: Path) -> None:
        """One JSON array [name, start, end, parent] per line."""
        with path.open("w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
