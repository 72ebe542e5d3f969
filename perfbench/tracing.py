"""In-memory spans around calls into omlattice's public functions.

The benchmark traces from its own files: :func:`instrument` replaces each
traced function, wherever an ``omlattice`` module holds a reference to it,
with a wrapper that records a span.  Nothing inside the package changes, so
a traced run executes the same code as an untraced one.

A span is ``{"id", "parent", "op", "name", "start", "end", "counts"}``.
Times come from ``time.monotonic``, which on Linux is one system-wide clock,
so spans recorded in a child process nest inside spans recorded by the
process that started it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; ``op`` tags every span of one operation.

    While ``enabled`` is false the wrappers of :func:`instrument` call
    straight through and record nothing, so one process can alternate plain
    and traced operations.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self.enabled = True
        self._next_id = 0
        self._stack: list[int | None] = [None]

    @property
    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        record = {"id": self._next_id, "parent": self._stack[-1], "op": self.op,
                  "name": name, "start": time.monotonic(), "end": None, "counts": {}}
        self._next_id += 1
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()
            self.spans.append(record)

    def adopt(self, spans: list[dict], parent: int | None) -> list[dict]:
        """Renumber spans recorded by another tracer after this one's and hang
        their roots under ``parent``; with a parent they join the current op."""
        ids = {s["id"]: self._next_id + k for k, s in enumerate(spans)}
        for s in spans:
            s["id"] = ids[s["id"]]
            s["parent"] = parent if s["parent"] is None else ids[s["parent"]]
            if parent is not None:
                s["op"] = self.op
        self._next_id += len(spans)
        return spans


def _simulate_counts(args, result, counts):
    counts["experiment.simulate.traces"] = len(result.traces)
    counts["experiment.simulate.samples"] = sum(t.times.size for t in result.traces.values())


def _fit_all_counts(args, result, counts):
    import numpy as np

    dataset = args[0]
    counts["experiment.fit_all.traces"] = len(dataset.traces)
    good = np.isfinite(dataset.fitted_gammas) & np.isfinite(dataset.fitted_errors)
    counts["experiment.fit_all.failed"] = int(good.size - good.sum())
    counts["experiment.fit_all.slopes_gated"] = int(np.sum(dataset.slopes == 0.0))


def _recovery_counts(args, result, counts):
    floored = result.eta_hat.floored
    counts["measure.sinkhorn_iterations"] = int(result.residuals["sinkhorn_iterations"])
    counts["measure.sinkhorn_floored"] = 0 if floored is None else int(floored.sum())
    counts["measure.orthogonalized"] = int(bool(result.residuals["orthogonalized"]))


def _ensemble_counts(args, result, counts):
    counts["disorder.samples"] = int(result.samples_per_point * result.sigma_grid.size)
    counts["disorder.failed_samples"] = int(result.failed_samples)


def _fit_all_failure(args, counts):
    counts["experiment.fit_all.traces"] = len(args[0].traces)
    counts["experiment.fit_all.failed"] = 1


# (span name, module, attribute, counts taken from the result, counts on raise).
# An attribute "Class.method" wraps a method.  io.write_outputs covers every
# matrix, row-table and JSON file a subcommand writes, h_true.csv included.
TRACED = [
    ("io.load_config", "omlattice.io", "load_config", None, None),
    ("io.write_outputs", "omlattice.io", "matrix_to_csv", None, None),
    ("io.write_outputs", "omlattice.io", "rows_to_csv", None, None),
    ("io.write_outputs", "omlattice.cli", "_write_json", None, None),
    ("lattice.build", "omlattice.lattice", "build_lattice", None, None),
    ("lattice.build", "omlattice.lattice", "build_ssh_chain", None, None),
    ("lattice.build", "omlattice.lattice", "build_honeycomb_flake", None, None),
    ("lattice.diagonalize", "omlattice.lattice", "diagonalize", None, None),
    ("experiment.calibrate_drive_flux", "omlattice.experiment", "calibrate_drive_flux", None, None),
    ("experiment.simulate_measurement", "omlattice.experiment", "simulate_measurement",
     _simulate_counts, None),
    ("experiment.save", "omlattice.experiment", "MeasurementDataset.save", None, None),
    ("experiment.load", "omlattice.experiment", "MeasurementDataset.load", None, None),
    ("experiment.fit_all", "omlattice.experiment", "MeasurementDataset.fit_all",
     _fit_all_counts, _fit_all_failure),
    ("experiment.recover_from_slopes", "omlattice.experiment", "recover_from_slopes",
     _recovery_counts, None),
    ("disorder.run_ensemble", "omlattice.disorder", "run_ensemble", _ensemble_counts, None),
    ("disorder.invert_zeta", "omlattice.disorder", "invert_zeta", None, None),
]


def _wrap(tracer: Tracer, name: str, func, on_result, on_raise):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return func(*args, **kwargs)
        with tracer.span(name) as record:
            try:
                result = func(*args, **kwargs)
            except Exception:
                if on_raise is not None:
                    on_raise(args, record["counts"])
                raise
            if on_result is not None:
                on_result(args, result, record["counts"])
            return result
    return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every function in :data:`TRACED` so that its calls record spans.

    Each module of the package that imported a traced function by name gets
    the wrapper too, so calls made from inside the package are traced.
    """
    import importlib

    importlib.import_module("omlattice.cli")
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "omlattice" or key.startswith("omlattice."))]
    for name, module_name, attribute, on_result, on_raise in TRACED:
        owner = sys.modules[module_name]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(_wrap(tracer, name, raw.__func__, on_result, on_raise)))
            else:
                setattr(cls, method, _wrap(tracer, name, raw, on_result, on_raise))
            continue
        original = getattr(owner, attribute)
        wrapper = _wrap(tracer, name, original, on_result, on_raise)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def metric_name(span_name: str) -> str:
    """Per-layer metric that a span's self time counts toward."""
    if span_name.startswith("cli."):
        return "cli.overhead_s"
    return span_name + "_s"


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of self time per metric: a span's duration minus its children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        key = metric_name(s["name"])
        totals[key] = totals.get(key, 0.0) + own
    return totals


def count_totals(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s in spans:
        for key, value in s["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return totals
