"""Command-line front end: config ingestion, presets, result emission.

Subcommands: homogenize | derive-bc | validate | dispersion | spectrum,
one entry each in COMMANDS.  Configurations come from a JSON file
(--config) or a builtin preset (--preset), with --h/--N overrides
winning over either source.  The numerical tolerances are the fixed
constants of the library modules; a config that tries to set them is
refused.  The report is printed to stdout and written to report.json.
All outputs are deterministic: floats are printed with 17 significant
digits, field order is fixed, CSV uses '.' decimals, ',' separators and
LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import boundary, homogenize, validate
from .errors import ConfigParseError, LatticeError, SpecValidationError
from .lattice import BCKind, LatticeSpec, MicroBCSpec

# Constants of the bundled five-strand ten-periodic demo lattice.  Strand
# amplitudes/phases generate the longitudinal elasticities and densities;
# the symmetric tables generate the cross elasticities.  The spacing h is
# a required input for this preset; h = 2*pi/46 makes the generator
# argument advance by exactly one period per cell and is the documented
# candidate, with reference outputs recorded for regression reporting.
_DEMO5_A = [0.929, 0.776, 0.487, 0.436, 0.447]
_DEMO5_B = [0.963, 0.547, 0.521, 0.231, 0.489]
_DEMO5_PHI = [-1.217, 0.053, 0.068, 1.996, 1.852]
_DEMO5_VPHI = [0.779, 1.126, -0.656, -0.833, 3.066]
_DEMO5_A_CROSS = [
    [0.0, 0.939, 0.208, 0.195, 0.311],
    [0.939, 0.0, 0.301, 0.226, 0.923],
    [0.208, 0.301, 0.0, 0.171, 0.430],
    [0.195, 0.226, 0.171, 0.0, 0.185],
    [0.311, 0.923, 0.430, 0.185, 0.0],
]
_DEMO5_PHI_CROSS = [
    [0.0, 0.596, -2.404, -2.604, 1.447],
    [0.596, 0.0, -1.278, -1.492, -0.0720],
    [-2.404, -1.278, 0.0, 1.891, 0.493],
    [-2.604, -1.492, 1.891, 0.0, -1.651],
    [1.447, -0.0720, 0.493, -1.651, 0.0],
]

DEMO5_CANDIDATE_H = 2.0 * math.pi / 46.0


def _demo_2x2_config() -> dict:
    return {
        "s": 2,
        "p": 2,
        "h": 1.0,
        "N": 16,
        "kappa_long": [[2.0, 0.5], [0.1, 5.0]],
        "kappa_cross": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.1], [0.1, 0.0]]],
        "rho": [[1.0, 2.0], [4.0, 0.5]],
        "reference": {
            "rho_bar": 1.875,
        },
    }


def _demo_5x10_config(h: float) -> dict:
    s, p = 5, 10
    kl = [[1.0 / (1.0 + _DEMO5_A[j] * math.cos(4.6 * n * h + _DEMO5_PHI[j])) for j in range(s)] for n in range(p)]
    rho = [[1.0 + _DEMO5_B[j] * math.sin(4.6 * n * h + _DEMO5_VPHI[j]) for j in range(s)] for n in range(p)]
    kc = [
        [
            [
                0.0
                if i == j
                else 1.0 / (1.0 + _DEMO5_A_CROSS[i][j] * math.cos(4.6 * n * h + _DEMO5_PHI_CROSS[i][j]))
                for j in range(s)
            ]
            for i in range(s)
        ]
        for n in range(p)
    ]
    return {
        "s": s,
        "p": p,
        "h": h,
        "N": 23,
        "kappa_long": kl,
        "kappa_cross": kc,
        "rho": rho,
        "reference": {
            "c": 1.176,
            "std_alpha": 0.46,
            "std_beta": 0.64,
            "d0_over_h": 0.058,
            "dL_over_h": 0.53,
        },
    }


def preset_config(name: str, h: float | None = None) -> dict:
    if name == "demo-2x2":
        return _demo_2x2_config()
    if name == "demo-5x10":
        if h is None:
            raise ConfigParseError(
                "preset demo-5x10 requires --h (candidate value: 2*pi/46 = "
                f"{DEMO5_CANDIDATE_H:.6f})"
            )
        try:
            return _demo_5x10_config(h)
        except ValueError as exc:  # math.cos of an infinite argument
            raise SpecValidationError([f"preset demo-5x10 is undefined at h={h}"]) from exc
    raise ConfigParseError(f"unknown preset {name!r}; available: demo-2x2, demo-5x10")


@dataclass
class RunConfig:
    spec: LatticeSpec
    micro_bc_left: MicroBCSpec
    micro_bc_right: MicroBCSpec
    output_dir: Path = Path(".")
    reference: dict = field(default_factory=dict)


def _parse_micro_bc(raw, s: int, side: str) -> MicroBCSpec:
    if raw is None:
        return MicroBCSpec.dirichlet_zero(s, side)
    try:
        bc = MicroBCSpec(raw["kind"], raw.get("values", np.zeros(s)), side)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigParseError(f"micro_bc_{side} is malformed: {exc}") from exc
    try:
        boundary._check_value_shape(bc, s)
    except SpecValidationError as exc:
        raise ConfigParseError(f"micro_bc_{side} {exc}") from exc
    return bc


def config_from_dict(cfg: dict, overrides: dict | None = None) -> RunConfig:
    """Resolve a raw config mapping (plus overrides) into a RunConfig."""
    cfg = dict(cfg)
    overrides = overrides or {}
    for key in ("h", "N"):
        if overrides.get(key) is not None:
            cfg[key] = overrides[key]
    missing = [k for k in ("s", "p", "h", "N", "kappa_long", "kappa_cross", "rho") if k not in cfg]
    if missing:
        raise ConfigParseError(f"missing config fields: {', '.join(missing)}")
    if "tolerances" in cfg:
        raise ConfigParseError("tolerances cannot be set: the numerical tolerances are fixed")
    try:
        spec = LatticeSpec(
            s=cfg["s"],
            p=cfg["p"],
            h=cfg["h"],
            N=cfg["N"],
            kappa_long=cfg["kappa_long"],
            kappa_cross=cfg["kappa_cross"],
            rho=cfg["rho"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParseError(f"malformed lattice fields: {exc}") from exc
    out_dir = overrides.get("out") or cfg.get("output_dir", ".")
    if not isinstance(out_dir, (str, os.PathLike)):
        raise ConfigParseError(f"output_dir must be a path string, got {out_dir!r}")
    reference = cfg.get("reference", {})
    if not isinstance(reference, dict):
        raise ConfigParseError(f"reference must be an object of NAME: VALUE, got {reference!r}")
    return RunConfig(
        spec=spec,
        micro_bc_left=_parse_micro_bc(cfg.get("micro_bc_left"), spec.s, "left"),
        micro_bc_right=_parse_micro_bc(cfg.get("micro_bc_right"), spec.s, "right"),
        output_dir=Path(out_dir),
        reference=dict(reference),
    )


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load, validate, and resolve a JSON configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigParseError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"top level of {path} must be an object")
    return config_from_dict(raw, overrides)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"  # JSON has no Infinity/NaN tokens
    return f"{x:.17g}"


def emit_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered fields, 17-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {emit_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        return "[" + ", ".join(emit_json(v, indent) for v in seq) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _macro_bc_dict(mb, h: float) -> dict:
    if mb is None:
        return None
    out = {"kind": mb.kind.value, "side": mb.side}
    if mb.kind == boundary.MacroBCKind.CAUCHY_PAIR:
        out["d_over_h"] = None
        out["value_weights"] = list(mb.value_weights)
        out["slope_weights"] = list(mb.slope_weights)
    else:
        out["d_over_h"] = None if mb.d is None else mb.d / h
        out["rhs_weights"] = list(mb.rhs_weights)
    out["rhs_labels"] = list(mb.rhs_labels)
    return out


def cmd_homogenize(cfg: RunConfig) -> dict:
    spec = cfg.spec
    sm = homogenize.construct_slow_manifold(spec)
    report = {
        "command": "homogenize",
        "c": sm.c,
        "alpha": list(sm.alpha),
        "beta": list(sm.beta),
        "std_alpha": float(np.std(sm.alpha)),
        "std_beta": float(np.std(sm.beta)),
        "iterations": sm.iterations,
        "residual_norm": sm.residual_norm,
    }
    if spec.s == 2 and spec.p == 2:
        cf = homogenize.closed_form_two_strand(spec)
        report["closed_form"] = {"rho_bar": cf.rho_bar, "kappa_bar": cf.kappa_bar, "c": cf.c}
    if cfg.reference:
        report["reference"] = dict(cfg.reference)
    rows = [
        (f, f // spec.s, f % spec.s, sm.alpha[f], sm.beta[f])
        for f in range(spec.n_cell)
    ]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.output_dir / "alphabeta.csv", ["index", "m", "j", "alpha", "beta"], rows)
    return report


def cmd_derive_bc(cfg: RunConfig) -> dict:
    spec = cfg.spec
    cm = boundary.build_cell_map(spec)
    cs = boundary.assemble_constraints(cm, cfg.micro_bc_left, spec)
    left = boundary.derive_macro_bc(cs)
    if cfg.micro_bc_left.kind == BCKind.MIXED:
        right = None
    else:
        right = boundary.right_end_bc(spec, cfg.micro_bc_right)
    report = {
        "command": "derive-bc",
        "left": _macro_bc_dict(left, spec.h),
        "right": _macro_bc_dict(right, spec.h),
        "h": spec.h,
    }
    if spec.s == 2 and spec.p == 2 and cfg.micro_bc_left.kind == BCKind.DIRICHLET:
        cf = boundary.closed_form_bc(BCKind.DIRICHLET, cm, spec)
        report["closed_form_left"] = {
            "d_over_h": cf.d / spec.h,
            "rhs_weights": list(cf.rhs_weights),
        }
    if cfg.reference:
        report["reference"] = dict(cfg.reference)
    return report


def cmd_validate(cfg: RunConfig) -> dict:
    """Slowest-mode comparison in the clamped (zero-Dirichlet) setting."""
    spec = cfg.spec
    sm = homogenize.construct_slow_manifold(spec)
    zeros = MicroBCSpec.dirichlet_zero(spec.s)
    bc0 = boundary.left_end_bc(spec, zeros)
    bcL = boundary.right_end_bc(spec, zeros)
    comp = validate.compare_modes(spec, sm, bc0, bcL)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    rows = zip(comp.n_grid, comp.x_grid, comp.micro_avg, comp.macro_robin, comp.macro_dirichlet)
    write_csv(
        cfg.output_dir / "modes.csv",
        ["n", "x", "micro_avg", "macro_robin", "macro_dirichlet"],
        rows,
    )
    return {
        "command": "validate",
        "lambda_micro": comp.lambda_micro,
        "lambda_robin": comp.lambda_robin,
        "lambda_dirichlet": comp.lambda_dirichlet,
        "interior_error_robin": comp.interior_error_robin,
        "interior_error_dirichlet": comp.interior_error_dirichlet,
        "window": list(comp.window),
        "d0_over_h": bc0.d / spec.h,
        "dL_over_h": bcL.d / spec.h,
        "diagnostics": {"micro_residual": comp.micro_residual},
    }


def cmd_dispersion(cfg: RunConfig, k_list) -> dict:
    spec = cfg.spec
    ks = [float(k) for k in k_list]
    if not ks:
        ks = list(np.array([1e-3, 2e-3, 4e-3]) / (spec.p * spec.h))
    if not all(0.0 < k < math.inf for k in ks):
        raise ConfigParseError("wavenumbers must be positive and finite")
    table = [homogenize.dispersion_eigenvalues(spec, k) for k in ks]
    lam0 = [float(l[0]) for l in table]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    header = ["k"] + [f"lambda_{i}" for i in range(spec.n_cell)]
    write_csv(
        cfg.output_dir / "dispersion.csv",
        header,
        [[k] + list(lams) for k, lams in zip(ks, table)],
    )
    return {
        "command": "dispersion",
        "k": ks,
        "lambda_0": lam0,
        "c_fit": homogenize.acoustic_fit(ks, lam0),
    }


def cmd_spectrum(cfg: RunConfig) -> dict:
    rep = validate.spectrum_checks(cfg.spec)
    out = {
        "command": "spectrum",
        "symmetry_defect": rep.symmetry_defect,
        "max_row_sum": rep.max_row_sum,
        "min_eigenvalue": rep.min_eigenvalue,
        "zero_multiplicity": rep.zero_multiplicity,
        "spectral_gap": rep.spectral_gap,
        "min_rayleigh": rep.min_rayleigh,
        "passed": rep.passed(),
    }
    if rep.zero_multiplicity != 1:
        out["warning"] = (
            f"zero eigenvalue has multiplicity {rep.zero_multiplicity}; "
            "the lattice appears disconnected"
        )
    return out


COMMANDS = {
    "homogenize": cmd_homogenize,
    "derive-bc": cmd_derive_bc,
    "validate": cmd_validate,
    "dispersion": cmd_dispersion,
    "spectrum": cmd_spectrum,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    src = shared.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON configuration file")
    src.add_argument("--preset", help="builtin preset: demo-2x2 | demo-5x10")
    shared.add_argument("--h", type=float, help="lattice spacing override")
    shared.add_argument("--N", type=int, help="interval count override")
    shared.add_argument("--out", help="output directory (default: .)")
    ap = argparse.ArgumentParser(
        prog="latticebc",
        description="Homogenized wave coefficients and derived macroscale "
        "boundary conditions for periodic spring-mass lattices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[shared])
    sub.choices["dispersion"].add_argument(
        "--k", action="append", type=float, help="wavenumber sample (repeatable)")
    return ap


PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        overrides = {"h": args.h, "N": args.N, "out": args.out}
        if args.config:
            cfg = parse_config(args.config, overrides)
        else:
            cfg = config_from_dict(preset_config(args.preset, h=args.h), overrides)
        extra = (args.k or [],) if args.command == "dispersion" else ()
        report = COMMANDS[args.command](cfg, *extra)
    except LatticeError as exc:
        # One line per error, however its message (say an array repr) wraps.
        print(f"error: {exc.code}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
    text = emit_json(report) + "\n"
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "report.json").write_text(text, newline="\n")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
