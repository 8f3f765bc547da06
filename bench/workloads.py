"""Seeded inputs and the timed operation of each benchmark workload.

Every input is drawn from ``numpy.random.default_rng(seed)``; the library
receives only the generated lattices and command lines.  Operations call
the library through module attributes (``homogenize.construct_slow_manifold``
and so on) so that the traced run can wrap those attributes from outside.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

from latticebc import boundary, cli, homogenize, validate
from latticebc.lattice import LatticeSpec, MicroBCSpec

# sweep-short: a balanced (s, p) grid with DRAWS_PER_CELL lattices per
# grid point, 5 * 8 * 5 = 200 lattices.  p stops at 9 because from p = 10
# on the seed commit raises on some draws (see README.md); those cells
# are measured by the ungated long-cell workload instead.
SWEEP_S = range(2, 7)
SWEEP_P = range(2, 10)
DRAWS_PER_CELL = 5
PARAM_RANGE = (0.1, 10.0)

# long-cell: one draw per point of the ROADMAP ladder, contrast 0.5-2.
LONG_CELL_LADDER = [
    (2, 16), (2, 24), (2, 32), (3, 16), (3, 24), (5, 12),
    (5, 16), (5, 20), (5, 40), (10, 32), (10, 64), (20, 32),
]
LONG_CELL_RANGE = (0.5, 2.0)

DEMO5_H = 2.0 * math.pi / 46.0
MICRO_KINDS = ("dirichlet", "flux", "robin_like")


def random_spec(rng, s: int, p: int, lo: float, hi: float, N: int, h: float = 1.0) -> LatticeSpec:
    """Connected lattice with every parameter uniform in (lo, hi)."""
    kc = np.zeros((p, s, s))
    iu = np.triu_indices(s, 1)
    for m in range(p):
        kc[m][iu] = rng.uniform(lo, hi, size=len(iu[0]))
        kc[m] += kc[m].T
    return LatticeSpec(
        s=s, p=p, h=h, N=N,
        kappa_long=rng.uniform(lo, hi, (p, s)),
        kappa_cross=kc,
        rho=rng.uniform(lo, hi, (p, s)),
    )


def random_micro_bc(rng, s: int, h: float) -> MicroBCSpec:
    kind = MICRO_KINDS[int(rng.integers(len(MICRO_KINDS)))]
    if kind == "robin_like":
        values = np.column_stack([rng.uniform(0.1, 1.0, s) * h, rng.uniform(-1.0, 1.0, s)])
    else:
        values = rng.uniform(-1.0, 1.0, s)
    return MicroBCSpec(kind, values)


def preset_spec(name: str, N: int, h: float | None = None) -> LatticeSpec:
    return cli.config_from_dict(cli.preset_config(name, h=h), {"N": N}).spec


@dataclass
class LatticeInput:
    """One lattice with the microscale data at its left end."""

    name: str
    spec: LatticeSpec
    left: MicroBCSpec
    reference: str | None = None   # key into reference.json, fixed inputs only


@dataclass
class CommandInput:
    name: str       # also its key in reference.json
    argv: list


@dataclass
class BoundaryResult:
    """What a lattice op returns: the coefficient and both end conditions."""

    c: float
    left: object            # MacroBC
    right: object           # MacroBC
    comparison: object = None   # ModeComparison, validate-long only


@dataclass
class CommandResult:
    code: int
    stdout: str
    out_dir: str


def _solve(inp: LatticeInput):
    spec = inp.spec
    sm = homogenize.construct_slow_manifold(spec)
    left = boundary.left_end_bc(spec, inp.left)
    right = boundary.right_end_bc(spec, MicroBCSpec.dirichlet_zero(spec.s, "right"))
    return sm, left, right


def lattice_op(inp: LatticeInput) -> BoundaryResult:
    sm, left, right = _solve(inp)
    return BoundaryResult(sm.c, left, right)


def validate_op(inp: LatticeInput) -> BoundaryResult:
    sm, left, right = _solve(inp)
    return BoundaryResult(sm.c, left, right, validate.compare_modes(inp.spec, sm, left, right))


def command_op(inp: CommandInput, out_dir: str) -> CommandResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inp.argv + ["--out", out_dir])
    return CommandResult(code, buf.getvalue(), out_dir)


def sweep_short_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    grid = [(s, p) for s in SWEEP_S for p in SWEEP_P] * DRAWS_PER_CELL
    out = []
    for i in rng.permutation(len(grid)):
        s, p = grid[i]
        spec = random_spec(rng, s, p, *PARAM_RANGE, N=4 * p)
        out.append(LatticeInput(f"s{s}p{p}", spec, random_micro_bc(rng, s, spec.h)))
    return out


def long_cell_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for s, p in LONG_CELL_LADDER:
        spec = random_spec(rng, s, p, *LONG_CELL_RANGE, N=10 * p)
        out.append(LatticeInput(f"s{s}p{p}", spec, MicroBCSpec.dirichlet_zero(s)))
    return out


def validate_long_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    draw = random_spec(rng, 3, 8, *PARAM_RANGE, N=480)
    specs = [
        ("demo-2x2", preset_spec("demo-2x2", N=1000), "demo-2x2-N1000"),
        ("demo-5x10", preset_spec("demo-5x10", N=230, h=DEMO5_H), "demo-5x10-N230"),
        ("s3p8", draw, None),
    ]
    return [LatticeInput(name, spec, MicroBCSpec.dirichlet_zero(spec.s), ref)
            for name, spec, ref in specs]


def cli_presets_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    presets = [("demo-2x2", []), ("demo-5x10", ["--h", repr(DEMO5_H)])]
    commands = ("homogenize", "derive-bc", "validate", "dispersion", "spectrum")
    out = [CommandInput(f"{cmd}:{preset}", [cmd, "--preset", preset] + extra)
           for preset, extra in presets for cmd in commands]
    return [out[i] for i in rng.permutation(len(out))]


@dataclass
class Workload:
    make_inputs: object
    op: object
    check: str              # name of the Verifier method that checks one result
    takes_dir: bool = False


WORKLOADS = {
    "sweep-short": Workload(sweep_short_inputs, lattice_op, "check_lattice"),
    "validate-long": Workload(validate_long_inputs, validate_op, "check_validation"),
    "cli-presets": Workload(cli_presets_inputs, command_op, "check_command",
                            takes_dir=True),
    "long-cell": Workload(long_cell_inputs, lattice_op, "check_lattice"),
}
