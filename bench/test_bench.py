"""Tests of the benchmark's own logic: python3 -m pytest bench/test_bench.py"""

import math
from dataclasses import replace

import numpy as np
import pytest

import run

run.import_library()

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from latticebc import boundary, homogenize  # noqa: E402


def test_percentile_ranks_failed_ops_last():
    inf = math.inf
    values = [5.0, 1.0, inf, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0]
    assert run.percentile(values, 50) == 5.0
    assert run.percentile(values, 90) == 9.0
    assert run.percentile(values + [inf], 90) == inf
    assert run.percentile([inf, 1.0], 50) == 1.0
    assert run.percentile([inf, inf, 1.0], 50) == inf


def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("root", 0.0, 10.0, -1, 0),
        spans.Span("a", 1.0, 5.0, 0, 0),
        spans.Span("a.child", 2.0, 3.5, 1, 0),
        spans.Span("b", 6.0, 9.0, 0, 0),
        spans.Span("root", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.5, 1.5, 3.0, 1.0])


def test_layer_metrics_are_totals_per_pass():
    s = [
        spans.Span(spans.ROOT, 0.0, 10.0, -1, 0),
        spans.Span("cellmap.build", 1.0, 5.0, 0, 0),
        spans.Span("lattice.build_steady_operator", 2.0, 3.0, 1, 0),
        spans.Span("cellmap.build", 6.0, 7.0, 0, 0, error=True),
    ]
    m = spans.layer_metrics(s * 2, passes=2, ops_per_pass=1, bytes_written=10)
    assert m["cellmap.build_s"][0] == pytest.approx(4.0)
    assert m["lattice.assemble_s"][0] == pytest.approx(1.0)
    assert m["cellmap.builds"][0] == 2
    assert m["cellmap.builds_per_op"][0] == 2
    assert m["cellmap.errors"][0] == 1
    assert m["bench.self_s"][0] == pytest.approx(5.0)
    assert m["cli.bytes_written"][0] == 5
    assert m["trace.coverage"][0] == pytest.approx(1.0)


def test_command_line_offers_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].make_inputs

    def fingerprint(inputs):
        out = []
        for inp in inputs:
            if hasattr(inp, "spec"):
                sp = inp.spec
                out.append((inp.name, sp.N, sp.kappa_long.tobytes(), sp.kappa_cross.tobytes(),
                            sp.rho.tobytes(), inp.left.kind, inp.left.values.tobytes()))
            else:
                out.append(tuple(inp.argv))
        return out

    assert fingerprint(make(7)) == fingerprint(make(7))
    if name != "long-cell":   # the ladder has a fixed order
        assert fingerprint(make(7)) != fingerprint(make(8))


def test_sweep_short_covers_the_grid_evenly():
    inputs = workloads.sweep_short_inputs(3)
    assert len(inputs) == 200
    counts = {}
    for inp in inputs:
        key = (inp.spec.s, inp.spec.p)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) == {workloads.DRAWS_PER_CELL}
    assert len(counts) == len(workloads.SWEEP_S) * len(workloads.SWEEP_P)


@pytest.fixture(scope="module")
def checked_input():
    """A sweep-short input with Robin data at the left end, and its result."""
    inp = next(i for i in workloads.sweep_short_inputs(1) if i.left.kind.value == "robin_like")
    return inp, workloads.lattice_op(inp)


def test_verification_accepts_the_library_result(checked_input):
    inp, res = checked_input
    assert verify.Verifier({}).check_lattice(inp, res) is None


@pytest.mark.parametrize("end", ["left", "right"])
def test_verification_rejects_a_perturbed_d(checked_input, end):
    inp, res = checked_input
    bc = getattr(res, end)
    step = 1e-3 * (abs(bc.d) + inp.spec.p * inp.spec.h)
    bad = replace(res, **{end: replace(bc, d=bc.d + step)})
    why = verify.Verifier({}).check_lattice(inp, bad)
    assert why is not None and ("d0" in why if end == "left" else "dL" in why)


def test_verification_rejects_a_perturbed_c(checked_input):
    inp, res = checked_input
    why = verify.Verifier({}).check_lattice(inp, replace(res, c=res.c * (1 + 1e-4)))
    assert why is not None and why.startswith("c =")


def test_verification_rejects_perturbed_weights(checked_input):
    inp, res = checked_input
    w = np.array(res.left.rhs_weights) * (1 + 1e-2)
    bad = replace(res, left=replace(res.left, rhs_weights=w))
    assert "weights" in verify.Verifier({}).check_lattice(inp, bad)


def test_verification_rejects_a_recorded_value_that_moved():
    inp = workloads.validate_long_inputs(1)[0]
    res = workloads.lattice_op(inp)
    ref = verify.load_reference()
    assert verify.Verifier(ref).check_lattice(inp, res) is None
    ref["lattices"][inp.reference]["d0"] += 1e-4
    assert "recorded" in verify.Verifier(ref).check_lattice(inp, res)


def test_tracer_records_nested_spans_and_restores_modules():
    inp = workloads.sweep_short_inputs(1)[0]
    original = boundary.build_cell_map
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert boundary.build_cell_map is not original
        tracer.call_op(0, workloads.lattice_op, inp)
        homogenize.dispersion_fit(inp.spec)   # outside any op: not recorded
    finally:
        tracer.uninstall()
    assert boundary.build_cell_map is original
    names = [s.name for s in tracer.spans]
    assert names[0] == spans.ROOT and names.count("cellmap.build") == 2
    assert "homogenize.dispersion" not in names
    by_name = {s.name: s for s in tracer.spans}
    build = by_name["cellmap.build"]
    assert tracer.spans[build.parent].name == "boundary.end_bc"
    steady = by_name["lattice.build_steady_operator"]
    assert tracer.spans[steady.parent].name == "cellmap.build"
    assert by_name["homogenize.slow_manifold"].count >= 1
    assert all(s.op == 0 and s.end >= s.start for s in tracer.spans)


def test_tracer_charges_an_error_to_the_span_that_raised_it():
    tracer = spans.Tracer()

    def inner():
        raise ValueError("boom")

    outer = tracer.wrap(lambda: tracer.wrap(inner, "cellmap.build")(), "boundary.end_bc")
    with pytest.raises(ValueError):
        tracer.call_op(0, outer)
    errors = {s.name: s.error for s in tracer.spans}
    assert errors == {spans.ROOT: False, "boundary.end_bc": False, "cellmap.build": True}
