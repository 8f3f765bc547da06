"""Benchmark of latticebc: one seeded workload per run, one JSON result line.

    python3 bench/run.py --workload sweep-short --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the ops run unwrapped and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported, with the spans written to
``bench/out/spans-<workload>-seed<seed>.jsonl``.  Every op is checked
outside its timed region.  The last line of stdout is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("sweep-short", "validate-long", "cli-presets", "long-cell")


def import_library():
    """Import latticebc from this checkout's src/, refusing any other copy."""
    pkg = SRC / "latticebc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no latticebc package at {pkg}")
    sys.path.insert(0, str(SRC))
    import latticebc

    if Path(latticebc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: latticebc was imported from {latticebc.__file__}, not {pkg}")
    return latticebc


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed ops enter as +inf and rank last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import latticebc and build the workload's inputs."""
    t0 = time.perf_counter()
    import_library()
    import workloads

    workloads.WORKLOADS[workload].make_inputs(seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Median of SETUP_PROBES fresh interpreters, after one warm-up probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Runner:
    """Runs ops of one workload, times them and checks every result."""

    def __init__(self, workload, check):
        self.workload = workload
        self.check = check
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.reasons = {}

    def run(self, inp, tracer=None, op_id=0):
        """One op; returns (seconds, ok, bytes written)."""
        out_dir = None
        args = (inp,)
        if self.workload.takes_dir:
            out_dir = tempfile.mkdtemp(dir=OUT_DIR)
            args = (inp, out_dir)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.op(*args)
            else:
                result = tracer.call_op(op_id, self.workload.op, *args)
        except Exception as exc:  # any failure of the library counts against the op
            elapsed = time.perf_counter() - t0
            why, wrong = f"{type(exc).__name__}: {exc}", False
        else:
            elapsed = time.perf_counter() - t0
            try:
                why = self.check(inp, result)
            except Exception as exc:  # a result the checks cannot read is wrong
                why = f"unreadable result, {type(exc).__name__}: {exc}"
            wrong = True
        written = 0
        if out_dir is not None:
            written = dir_bytes(out_dir)
            shutil.rmtree(out_dir)
        self.attempted += 1
        if why is not None:
            self.raised += not wrong
            self.wrong += wrong
            key = f"{inp.name}: {why.splitlines()[0][:200]}"
            self.reasons[key] = self.reasons.get(key, 0) + 1
        return elapsed, why is None, written

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def run_untraced(runner, inputs, seconds):
    """Whole passes over the inputs until `seconds` of op time have run.

    Medians over passes damp interference from other processes: the
    throughput is the median of the passes' rates, and each input's
    latency is its median over the passes (+inf where it failed) before the
    percentiles are taken across inputs.
    """
    passes, rates, busy = [], [], 0.0
    while busy < seconds:
        times, wall = [], 0.0
        for inp in inputs:
            dt, good, _ = runner.run(inp)
            wall += dt
            times.append(dt if good else math.inf)
        busy += wall
        passes.append(times)
        rates.append(sum(map(math.isfinite, times)) / wall)
    per_input = [statistics.median(col) for col in zip(*passes)]
    ok = sum(math.isfinite(t) for times in passes for t in times)
    return {
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1e3 * percentile(per_input, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(per_input, 90), "ms"),
        "ok_fraction": (ok / (len(passes) * len(inputs)), "fraction"),
    }


def run_traced(runner, inputs, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    import spans

    tracer = spans.Tracer()
    plain = traced = 0.0
    passes = written = op_id = 0
    while plain + traced < seconds:
        for inp in inputs:
            plain += runner.run(inp)[0]
        tracer.install()
        try:
            for inp in inputs:
                dt, _, nbytes = runner.run(inp, tracer, op_id)
                traced += dt
                written += nbytes
                op_id += 1
        finally:
            tracer.uninstall()
        passes += 1
    tracer.write(spans_path)
    metrics = spans.layer_metrics(tracer.spans, passes, len(inputs), written)
    metrics["trace.overhead"] = (traced / plain, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed)!r}")
        return 0

    import_library()
    import verify
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    verifier = verify.Verifier(verify.load_reference())
    check = getattr(verifier, workload.check)
    Runner(workload, check).run(inputs[0])   # warm-up, not counted
    runner = Runner(workload, check)

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = run_traced(runner, inputs, args.seconds, spans_path)
    else:
        metrics = run_untraced(runner, inputs, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  attempted {runner.attempted}, failed {runner.failed} "
          f"({runner.raised} raised, {runner.wrong} wrong)")
    for why, n in sorted(runner.reasons.items()):
        print(f"  failed x{n}: {why}", file=sys.stderr)
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
