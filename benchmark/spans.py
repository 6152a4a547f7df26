"""Span recorder for the traced pass of the benchmark.

The spans are recorded from the benchmark's side: the module-level names
through which `sim` and `cli` call into each layer, and the sparse
factorizations those layers make, are replaced by wrappers that record a
span (name, start, end, parent). Self time is a span's duration minus the
durations of its children. Work the recorder does for itself (reading the
fill of a factorization, the size of a written file) is subtracted from
every span that was open while it ran, so it shows only in the overhead.

An entry point that no longer exists is reported as missing by name, and
every metric that depends on it is left out rather than read as zero.
"""

import importlib
import os
import time
from collections import defaultdict

# (module, attribute) -> span name. The first group is what `sim` and `cli`
# import from the layers; the second is the factorizations and inner calls
# the layers make through their own module namespaces.
ENTRY_POINTS = (
    ("sim", "step", "sim.step"),
    ("sim", "solve_dirichlet", "poisson.solve_dirichlet"),
    ("sim", "step_charges", "transport.step_charges"),
    ("sim", "body_force", "fluid.body_force"),
    ("sim", "step_velocity", "fluid.step_velocity"),
    ("sim", "solve_pb", "stationary.solve_pb"),
    ("sim", "export_stationary", "stationary.export"),
    ("sim", "energy_report", "diagnostics.energy_report"),
    ("sim", "save_matrix", "grid.save_matrix"),
    ("cli", "solve_pb", "stationary.solve_pb"),
    ("cli", "export_stationary", "stationary.export"),
    ("stationary", "save_matrix", "grid.save_matrix"),
    ("poisson", "splu", "poisson.lu"),
    ("transport", "transport_generator", "transport.assemble"),
    ("transport", "splu", "transport.lu"),
    ("fluid", "splu", "fluid.viscous_lu"),
    ("fluid", "solve_neumann", "fluid.projection"),
    ("stationary", "splu", "stationary.newton_lu"),
)

ROOT = "run"


def _fill_nnz(lu, args, kwargs):
    return lu.L.nnz + lu.U.nnz


def _file_bytes(result, args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


NOTES = {
    "poisson.lu": _fill_nnz,
    "transport.lu": _fill_nnz,
    "fluid.viscous_lu": _fill_nnz,
    "stationary.newton_lu": _fill_nnz,
    "grid.save_matrix": _file_bytes,
}


class Tracer:
    """In-memory spans of one operation; written out when it ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, paused seconds]
        self.samples = defaultdict(list)
        self.missing = []
        self._open = []

    def _enter(self, name):
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, 0.0]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        return span

    def _leave(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    def root(self, fn, *args):
        span = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._leave(span)

    def wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span)
            if note is not None:
                t0 = time.perf_counter()
                self.samples[name].append(note(result, args, kwargs))
                paused = time.perf_counter() - t0
                for i in self._open:
                    self.spans[i][4] += paused
            return result

        return traced

    def install(self, package):
        """Wrap every entry point of the package; record the missing ones."""
        for module_name, attr, span_name in ENTRY_POINTS:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    def durations(self):
        """Per span: (name, duration, self time), recorder pauses removed."""
        dur = [end - start - paused for _, start, end, _, paused in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        return [(span[0], dur[i], dur[i] - child[i]) for i, span in enumerate(self.spans)]

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "paused"],
            "spans": self.spans,
            "missing": self.missing,
        }


# metric name -> (unit, span name, quantity)
LAYER_METRICS = {
    "sim.steps": ("count", "sim.step", "calls"),
    "poisson.solve_dirichlet.calls": ("count", "poisson.solve_dirichlet", "calls"),
    "poisson.solve_dirichlet.s": ("s", "poisson.solve_dirichlet", "s"),
    "poisson.lu.calls": ("count", "poisson.lu", "calls"),
    "poisson.lu.s": ("s", "poisson.lu", "s"),
    "transport.step_charges.self_s": ("s", "transport.step_charges", "self_s"),
    "transport.assemble.calls": ("count", "transport.assemble", "calls"),
    "transport.assemble.s": ("s", "transport.assemble", "s"),
    "transport.lu.calls": ("count", "transport.lu", "calls"),
    "transport.lu.s": ("s", "transport.lu", "s"),
    "transport.lu.fill_nnz": ("count", "transport.lu", "mean_note"),
    "fluid.step_velocity.self_s": ("s", "fluid.step_velocity", "self_s"),
    "fluid.viscous_lu.calls": ("count", "fluid.viscous_lu", "calls"),
    "fluid.viscous_lu.s": ("s", "fluid.viscous_lu", "s"),
    "fluid.viscous_lu.fill_nnz": ("count", "fluid.viscous_lu", "mean_note"),
    "fluid.projection.s": ("s", "fluid.projection", "s"),
    "fluid.body_force.s": ("s", "fluid.body_force", "s"),
    "stationary.solve_pb.s": ("s", "stationary.solve_pb", "s"),
    "stationary.newton_lu.calls": ("count", "stationary.newton_lu", "calls"),
    "stationary.newton_lu.s": ("s", "stationary.newton_lu", "s"),
    "stationary.newton_lu.fill_nnz": ("count", "stationary.newton_lu", "mean_note"),
    "stationary.export.s": ("s", "stationary.export", "s"),
    "diagnostics.energy_report.calls": ("count", "diagnostics.energy_report", "calls"),
    "diagnostics.energy_report.s": ("s", "diagnostics.energy_report", "s"),
    "grid.save_matrix.calls": ("count", "grid.save_matrix", "calls"),
    "grid.save_matrix.s": ("s", "grid.save_matrix", "s"),
    "grid.bytes_written": ("bytes", "grid.save_matrix", "sum_note"),
    "trace.untraced_s": ("s", ROOT, "self_s"),
}

# Every per-layer metric a traced run reports, with its unit.
UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
UNITS.update({
    "sim.step.ms_p50": "ms",
    "sim.step.ms_p90": "ms",
    "sim.dt_distinct": "count",
    "stationary.newton_iters": "count",
    "trace.overhead_s": "s",
})


def layer_metrics(tracer):
    """Per-operation layer figures from the spans; step times listed apart.

    Returns (metrics, step_ms, omitted): metrics maps name -> value,
    step_ms is every sim.step duration in ms, omitted names the metrics
    left out because an entry point they rest on is missing.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    step_ms = []
    for name, dur, own in tracer.durations():
        calls[name] += 1
        total[name] += dur
        self_s[name] += own
        if name == "sim.step":
            step_ms.append(1000.0 * dur)
    lost = {span for module, attr, span in ENTRY_POINTS
            if f"{module}.{attr}" in tracer.missing}
    metrics = {}
    omitted = []
    for metric, (_, span, quantity) in LAYER_METRICS.items():
        if span in lost:
            omitted.append(metric)
            continue
        notes = tracer.samples.get(span, [])
        if quantity == "calls":
            value = calls[span]
        elif quantity == "s":
            value = total[span]
        elif quantity == "self_s":
            value = self_s[span]
        elif quantity == "mean_note":
            value = sum(notes) / len(notes) if notes else 0
        else:
            value = sum(notes)
        metrics[metric] = value
    return metrics, step_ms, omitted
