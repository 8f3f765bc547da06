"""Spans recorded from outside the library by wrapping module attributes.

Each wrapped function is replaced, at the module attribute its callers
look up, by a wrapper that records a span around the call.  Spans are kept
in memory and written out when the run ends.  A layer's self time is its
spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for an op's root
    op: int
    error: bool = False   # an exception started in this span
    count: int = 0        # work count of the call (sweeps, dofs)


def _iterations(args, kwargs, result):
    return result.iterations


def _micro_dofs(args, kwargs, result):
    spec = args[0]
    return spec.s * (spec.N - 1)


# (module, attribute, span name, count).  Each function is wrapped where its
# callers look it up: the library modules import one another's functions
# by name, so e.g. build_cell_map is wrapped on the boundary module.
TARGETS = [
    ("homogenize", "build_B", "lattice.build_B", None),
    ("homogenize", "build_L0", "lattice.build_L0", None),
    ("homogenize", "build_Lk", "lattice.build_Lk", None),
    ("homogenize", "build_Lk_exact", "lattice.build_Lk_exact", None),
    ("cellmap", "build_steady_operator", "lattice.build_steady_operator", None),
    ("boundary", "reversed_spec", "lattice.reversed_spec", None),
    ("validate", "build_B", "lattice.build_B", None),
    ("validate", "build_L0", "lattice.build_L0", None),
    ("homogenize", "construct_slow_manifold", "homogenize.slow_manifold", _iterations),
    ("homogenize", "dispersion_fit", "homogenize.dispersion", None),
    ("homogenize", "dispersion_eigenvalues", "homogenize.dispersion", None),
    ("homogenize", "closed_form_two_strand", "homogenize.closed_form", None),
    ("boundary", "build_cell_map", "cellmap.build", None),
    ("boundary", "left_end_bc", "boundary.end_bc", None),
    ("boundary", "right_end_bc", "boundary.end_bc", None),
    ("boundary", "assemble_constraints", "boundary.constraints", None),
    ("boundary", "derive_macro_bc", "boundary.constraints", None),
    ("boundary", "closed_form_bc", "boundary.closed_form", None),
    ("validate", "compare_modes", "validate.compare", None),
    ("validate", "microscale_slowest_mode", "validate.micro_eig", _micro_dofs),
    ("validate", "macroscale_slowest_mode", "validate.macro_root", None),
    ("validate", "spectrum_checks", "validate.spectrum", None),
    ("cli", "main", "cli.command", None),
    ("cli", "preset_config", "cli.config", None),
    ("cli", "config_from_dict", "cli.config", None),
    ("cli", "parse_config", "cli.config", None),
    ("cli", "cmd_homogenize", "cli.command", None),
    ("cli", "cmd_derive_bc", "cli.command", None),
    ("cli", "cmd_validate", "cli.command", None),
    ("cli", "cmd_dispersion", "cli.command", None),
    ("cli", "cmd_spectrum", "cli.command", None),
    ("cli", "emit_json", "cli.emit", None),
    ("cli", "write_csv", "cli.emit", None),
]

ROOT = "bench.op"


class Tracer:
    """Collects spans of the ops run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._charged = None   # exception already counted by an inner span
        self._undo = []

    def _open(self, name: str, op: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _fail(self, idx: int, exc: BaseException) -> None:
        self._close(idx).error = exc is not self._charged
        self._charged = exc

    def call_op(self, op_id: int, fn, *args):
        """Run one op under a root span."""
        idx = self._open(ROOT, op_id)
        try:
            result = fn(*args)
        except BaseException as exc:
            self._fail(idx, exc)
            raise
        self._close(idx)
        return result

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A call made directly inside a span of the same name (recursive
            # emit_json, dispersion_fit -> dispersion_eigenvalues, main ->
            # cmd_*) stays part of that span.
            if not self._stack or self.spans[self._stack[-1]].name == name:
                return fn(*args, **kwargs)
            idx = self._open(name, self.spans[self._stack[0]].op)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._fail(idx, exc)
                raise
            span = self._close(idx)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target the library still defines."""
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(f"latticebc.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self.wrap(fn, name, count))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], passes: int, ops_per_pass: int, bytes_written: int) -> dict:
    """Per-layer metrics, each a total over one pass of the workload's inputs."""
    own = self_times(spans)
    t, n, work, err = {}, {}, {}, {}
    for s, dt in zip(spans, own):
        t[s.name] = t.get(s.name, 0.0) + dt
        n[s.name] = n.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.count
        err[s.name] = err.get(s.name, 0) + int(s.error)

    def per_pass(table, name):
        return table.get(name, 0) / passes

    def layer(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix)) / passes

    builds = per_pass(n, "cellmap.build")
    metrics = {
        "lattice.assemble_s": (layer(t, "lattice."), "s"),
        "lattice.assemble_calls": (layer(n, "lattice."), "count"),
        "homogenize.slow_manifold_s": (per_pass(t, "homogenize.slow_manifold"), "s"),
        "homogenize.sweeps": (per_pass(work, "homogenize.slow_manifold"), "count"),
        "homogenize.dispersion_s": (per_pass(t, "homogenize.dispersion"), "s"),
        "cellmap.build_s": (per_pass(t, "cellmap.build"), "s"),
        "cellmap.builds": (builds, "count"),
        "cellmap.builds_per_op": (builds / ops_per_pass, "count"),
        "cellmap.errors": (per_pass(err, "cellmap.build"), "count"),
        "boundary.constraints_s": (per_pass(t, "boundary.constraints"), "s"),
        "boundary.errors": (layer(err, "boundary."), "count"),
        "validate.micro_eig_s": (per_pass(t, "validate.micro_eig"), "s"),
        "validate.micro_dofs": (per_pass(work, "validate.micro_eig"), "count"),
        "validate.macro_root_s": (per_pass(t, "validate.macro_root"), "s"),
        "validate.compare_s": (per_pass(t, "validate.compare"), "s"),
        "validate.spectrum_s": (per_pass(t, "validate.spectrum"), "s"),
        "cli.config_s": (per_pass(t, "cli.config"), "s"),
        "cli.emit_s": (per_pass(t, "cli.emit"), "s"),
        "cli.command_self_s": (per_pass(t, "cli.command"), "s"),
        "cli.bytes_written": (bytes_written / passes, "bytes"),
        "bench.self_s": (per_pass(t, ROOT), "s"),
    }
    wall = sum(s.end - s.start for s in spans if s.parent < 0) / passes
    named = sum(v for k, (v, unit) in metrics.items() if unit == "s")
    metrics["trace.op_wall_s"] = (wall, "s")
    metrics["trace.coverage"] = (named / wall if wall > 0 else 0.0, "ratio")
    return metrics
