import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticebc
from latticebc.cli import (
    COMMANDS,
    DEMO5_CANDIDATE_H,
    cmd_derive_bc,
    cmd_dispersion,
    cmd_homogenize,
    cmd_spectrum,
    cmd_validate,
    config_from_dict,
    emit_json,
    main,
    parse_config,
    preset_config,
)
from latticebc.errors import ConfigParseError, SpecValidationError

MINIMAL = {
    "s": 1, "p": 1, "h": 1.0, "N": 8,
    "kappa_long": [[1.0]], "kappa_cross": [[[0.0]]], "rho": [[1.0]],
}


@pytest.fixture
def minimal_cfg(tmp_path):
    cfg = config_from_dict(MINIMAL)
    cfg.output_dir = tmp_path
    return cfg


class TestParsing:
    def test_minimal_config(self):
        cfg = config_from_dict(MINIMAL)
        assert cfg.spec.s == 1 and cfg.spec.p == 1
        assert cfg.micro_bc_left.kind.value == "dirichlet"

    def test_parse_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = parse_config(path)
        assert cfg.spec.N == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_config(tmp_path / "nope.json")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"s": 1,\n  "p": }')
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config(path)

    def test_missing_fields(self):
        with pytest.raises(ConfigParseError, match="missing config fields"):
            config_from_dict({"s": 1})

    def test_invalid_lattice_reports_violations(self):
        bad = dict(MINIMAL, kappa_long=[[0.0]])
        with pytest.raises(SpecValidationError):
            config_from_dict(bad)

    def test_overrides_win(self):
        cfg = config_from_dict(MINIMAL, {"N": 12, "h": 0.5})
        assert cfg.spec.N == 12
        assert cfg.spec.h == 0.5


class TestPresets:
    def test_demo_2x2_values(self):
        cfg = config_from_dict(preset_config("demo-2x2"))
        spec = cfg.spec
        assert (spec.s, spec.p, spec.N) == (2, 2, 16)
        assert np.allclose(spec.kappa_long, [[2.0, 0.5], [0.1, 5.0]])
        assert spec.kappa_cross[0, 0, 1] == 1.0
        assert spec.kappa_cross[1, 0, 1] == 0.1
        assert np.allclose(spec.rho, [[1.0, 2.0], [4.0, 0.5]])

    def test_demo_5x10_requires_spacing(self):
        with pytest.raises(ConfigParseError, match="requires --h"):
            preset_config("demo-5x10")

    def test_demo_5x10_generators(self):
        h = DEMO5_CANDIDATE_H
        cfg = config_from_dict(preset_config("demo-5x10", h=h))
        spec = cfg.spec
        assert (spec.s, spec.p, spec.N) == (5, 10, 23)
        # spot-check the generator formulas at n = 3
        n, j = 3, 1
        assert spec.kappa_long[n, j] == pytest.approx(
            1.0 / (1.0 + 0.776 * math.cos(4.6 * n * h + 0.053))
        )
        assert spec.rho[n, j] == pytest.approx(1.0 + 0.547 * math.sin(4.6 * n * h + 1.126))
        assert spec.kappa_cross[n, 0, 1] == pytest.approx(
            1.0 / (1.0 + 0.939 * math.cos(4.6 * n * h + 0.596))
        )
        assert np.all(np.diagonal(spec.kappa_cross, axis1=1, axis2=2) == 0.0)
        # spacing candidate makes the generators exactly ten-periodic
        assert 4.6 * spec.p * h == pytest.approx(2 * math.pi)

    def test_unknown_preset(self):
        with pytest.raises(ConfigParseError, match="unknown preset"):
            preset_config("nope")


class TestEmit:
    def test_float_format_17_digits(self):
        assert emit_json(1.0 / 3.0) == "0.33333333333333331"

    def test_field_order_preserved(self):
        assert emit_json({"b": 1, "a": 2}) == '{\n  "b": 1,\n  "a": 2\n}'

    def test_nested_arrays(self):
        assert emit_json([1, [2.5, None], "x"]) == '[1, [2.5, null], "x"]'


class TestCommands:
    def test_homogenize_uniform(self, minimal_cfg):
        report = cmd_homogenize(minimal_cfg)
        assert report["c"] == pytest.approx(1.0, rel=1e-12)
        assert report["alpha"] == [0.0]
        csv = (minimal_cfg.output_dir / "alphabeta.csv").read_text()
        assert csv.splitlines()[0] == "index,m,j,alpha,beta"

    def test_homogenize_demo_includes_closed_form(self, tmp_path):
        cfg = config_from_dict(preset_config("demo-2x2"), {"out": tmp_path})
        report = cmd_homogenize(cfg)
        assert report["closed_form"]["rho_bar"] == pytest.approx(1.875)
        assert report["c"] == pytest.approx(report["closed_form"]["c"], rel=1e-9)

    def test_derive_bc_demo_cross_check(self, tmp_path):
        cfg = config_from_dict(preset_config("demo-2x2"), {"out": tmp_path})
        report = cmd_derive_bc(cfg)
        assert report["left"]["kind"] == "robin"
        assert report["right"]["kind"] == "robin"
        assert report["left"]["d_over_h"] == pytest.approx(
            report["closed_form_left"]["d_over_h"], rel=1e-9
        )

    def test_validate_demo_ordering(self, tmp_path):
        cfg = config_from_dict(preset_config("demo-2x2"), {"out": tmp_path})
        report = cmd_validate(cfg)
        assert report["interior_error_robin"] < report["interior_error_dirichlet"]
        assert list(report)[-1] == "diagnostics"
        assert report["diagnostics"]["micro_residual"] < 1e-12
        lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert lines[0] == "n,x,micro_avg,macro_robin,macro_dirichlet"
        assert len(lines) == cfg.spec.N + 2

    def test_validate_uniform_both_tiny(self, minimal_cfg):
        report = cmd_validate(minimal_cfg)
        assert report["interior_error_robin"] < 1e-6
        assert report["interior_error_dirichlet"] < 1e-6

    def test_dispersion_uniform(self, minimal_cfg):
        report = cmd_dispersion(minimal_cfg, [1e-3, 2e-3])
        assert report["c_fit"] == pytest.approx(1.0, rel=1e-5)
        header = (minimal_cfg.output_dir / "dispersion.csv").read_text().splitlines()[0]
        assert header == "k,lambda_0"

    def test_dispersion_rejects_nonpositive(self, minimal_cfg):
        with pytest.raises(ConfigParseError):
            cmd_dispersion(minimal_cfg, [-1.0])

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_dispersion_rejects_nonfinite(self, minimal_cfg, k):
        with pytest.raises(ConfigParseError, match="finite"):
            cmd_dispersion(minimal_cfg, [1e-3, k])

    def test_spectrum_uniform(self, minimal_cfg):
        report = cmd_spectrum(minimal_cfg)
        assert report["zero_multiplicity"] == 1
        assert report["passed"] is True

    def test_spectrum_disconnected_warns(self, tmp_path):
        raw = {
            "s": 2, "p": 1, "h": 1.0, "N": 8,
            "kappa_long": [[1.0, 1.0]],
            "kappa_cross": [[[0.0, 0.0], [0.0, 0.0]]],
            "rho": [[1.0, 1.0]],
        }
        cfg = config_from_dict(raw, {"out": tmp_path})
        report = cmd_spectrum(cfg)
        assert report["zero_multiplicity"] == 2
        assert "warning" in report


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["homogenize", "--preset", "demo-2x2", "--out", str(out)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "alphabeta.csv").read_bytes() == (out2 / "alphabeta.csv").read_bytes()

    def test_round_trip_config(self, tmp_path):
        cfg = config_from_dict(preset_config("demo-2x2"), {"out": tmp_path / "a"})
        report1 = cmd_homogenize(cfg)
        path = tmp_path / "again.json"
        path.write_text(json.dumps(preset_config("demo-2x2")))
        report2 = cmd_homogenize(parse_config(path, {"out": tmp_path / "b"}))
        assert emit_json(report1) == emit_json(report2)

    def test_csv_uses_lf_and_dot_decimal(self, minimal_cfg):
        cmd_homogenize(minimal_cfg)
        raw = (minimal_cfg.output_dir / "alphabeta.csv").read_bytes()
        assert b"\r" not in raw
        assert b"," in raw


class TestMainEntry:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_success_exit_code(self, tmp_path, capsys, command):
        rc = main([command, "--preset", "demo-2x2", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == command
        assert (tmp_path / "report.json").read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [
        ["homogenize", "--preset", "demo-2x2", "--format", "csv"],
        ["homogenize", "--preset", "demo-2x2", "--k", "1"],
        ["derive-bc", "--preset", "demo-2x2", "--tol", "residual=1e-9"],
    ], ids=["format-removed", "k-only-on-dispersion", "tol-removed"])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_error_exit_code_and_single_line(self, tmp_path, capsys):
        rc = main(["homogenize", "--preset", "demo-5x10", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ParseError:")

    def test_validation_error_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MINIMAL, rho=[[-1.0]])))
        rc = main(["spectrum", "--config", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ValidationError:")

    def test_validate_domain_too_short(self, tmp_path, capsys):
        # demo-2x2 has p = 2, so N = 3 leaves no interior window
        self._assert_window_rejected(tmp_path, capsys, 3)

    def test_validate_domain_one_column(self, tmp_path, capsys):
        # N = 2p = 4 leaves a single column, on which both interior errors
        # are trivially 0
        self._assert_window_rejected(tmp_path, capsys, 4)

    @staticmethod
    def _assert_window_rejected(tmp_path, capsys, N):
        rc = main(["validate", "--preset", "demo-2x2", "--N", str(N), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError:")
        assert f"N = {N}" in err and "2p = 4" in err

    @pytest.mark.parametrize("preset,h", [
        ("demo-2x2", "inf"), ("demo-2x2", "nan"), ("demo-5x10", "inf"), ("demo-5x10", "nan"),
    ])
    def test_nonfinite_spacing_rejected(self, tmp_path, capsys, preset, h):
        rc = main(["derive-bc", "--preset", preset, "--h", h, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError:")
        assert not (tmp_path / "report.json").exists()

    def test_infinite_config_value_rejected(self, tmp_path, capsys):
        raw = preset_config("demo-2x2")
        raw["kappa_long"][0][1] = math.inf
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(raw))
        assert "Infinity" in path.read_text()
        rc = main(["derive-bc", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: ValidationError: non-finite kappa_long\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("h,rho01", [
        (1e160, None), (1.3e154, None), (2.0, 1e308), (None, 1e-310),
    ], ids=["h-squared-overflows", "mass-overflows", "rho-overflows", "rho-subnormal"])
    def test_mass_outside_float_range_rejected(self, tmp_path, capsys, command, h, rho01):
        # Each mass h^2 rho must be a normal positive float.  Unchecked,
        # these inputs end in an OverflowError (h^2), a ValueError (an
        # infinite mass) or a LinAlgError (a subnormal mass) traceback.
        raw = preset_config("demo-2x2")
        if h is not None:
            raw["h"] = h
        if rho01 is not None:
            raw["rho"][0][1] = rho01
        path = tmp_path / "mass.json"
        path.write_text(json.dumps(raw))
        rc = main([command, "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ValidationError: masses h^2*rho span")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("side,kind,values", [
        ("left", "dirichlet", [0.0]),
        ("left", "flux", [0.0, 0.0, 0.0]),
        ("left", "robin_like", [0.1, 0.2]),
        ("left", "cauchy_like", [0.0, 0.0, 0.0]),
        ("left", "mixed", [0.0, 0.0]),
        ("right", "mixed", [0.0, 0.0, 0.0]),
        ("left", "dirichlet", [0.0, math.nan]),
        ("left", "robin_like", [[0.1, 0.0], [math.inf, 0.0]]),
    ])
    def test_bad_micro_bc_values_rejected(self, tmp_path, capsys, side, kind, values):
        # demo-2x2 has s = 2
        raw = dict(preset_config("demo-2x2"), **{f"micro_bc_{side}": {"kind": kind, "values": values}})
        path = tmp_path / "bc.json"
        path.write_text(json.dumps(raw))
        rc = main(["derive-bc", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: ParseError: micro_bc_{side} ")

    @pytest.mark.parametrize("key,value,match", [
        ("reference", 5, "reference must be an object"),
        ("reference", [1, 2], "reference must be an object"),
        ("output_dir", 5, "output_dir must be a path string"),
        ("N", 8.9, "malformed lattice fields: N must be an integer"),
        ("s", "2", "malformed lattice fields: s must be an integer"),
        ("h", "0.5", "malformed lattice fields: h must be a real number"),
        ("h", True, "malformed lattice fields: h must be a real number"),
        ("kappa_long", [[2.0, "0.5"], [0.1, 5.0]], "malformed lattice fields: kappa_long"),
        ("kappa_long", [[2.0, True], [0.1, 5.0]], "malformed lattice fields: kappa_long"),
        ("kappa_cross", [[[0.0, "1"], ["1", 0.0]], [[0.0, 0.1], [0.1, 0.0]]],
         "malformed lattice fields: kappa_cross"),
        ("kappa_cross", [[[0.0, True], [True, 0.0]], [[0.0, 0.1], [0.1, 0.0]]],
         "malformed lattice fields: kappa_cross"),
        ("rho", [[1.0, "2"], [4.0, 0.5]], "malformed lattice fields: rho"),
        ("rho", [[1.0, 2.0], [True, 0.5]], "malformed lattice fields: rho"),
        ("micro_bc_left", {"kind": "dirichlet", "values": ["0", "0"]},
         "micro_bc_left is malformed: values must be finite real numbers"),
        ("tolerances", {"residual": 1e-9},
         "tolerances cannot be set: the numerical tolerances are fixed"),
        pytest.param("h", 10 ** 400, "malformed lattice fields: h: int too large",
                     id="h-400-digit-int"),
        pytest.param("kappa_long", [[2.0, 10 ** 400], [0.1, 5.0]],
                     "malformed lattice fields: kappa_long: int too large",
                     id="kappa_long-400-digit-int"),
        pytest.param("kappa_cross", [[[0.0, 10 ** 400], [10 ** 400, 0.0]],
                                     [[0.0, 0.1], [0.1, 0.0]]],
                     "malformed lattice fields: kappa_cross: int too large",
                     id="kappa_cross-400-digit-int"),
        pytest.param("rho", [[1.0, 2.0], [4.0, 10 ** 400]],
                     "malformed lattice fields: rho: int too large",
                     id="rho-400-digit-int"),
        pytest.param("micro_bc_left", {"kind": "dirichlet", "values": [10 ** 400, 0]},
                     "micro_bc_left is malformed: int too large", id="micro_bc-400-digit-int"),
    ])
    def test_mistyped_config_field_rejected(self, tmp_path, capsys, key, value, match):
        # The first three used to end in a raw TypeError traceback, the
        # next ones ran with the value converted (N = 8.9 as N = 8, "0.5"
        # as 0.5, true as 1), and an integer too large for a float raised
        # a raw OverflowError; its message must name the field.  No --out,
        # so output_dir is read from the file.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(preset_config("demo-2x2"), **{key: value})))
        rc = main(["derive-bc", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: ParseError: {match}")

    def test_wrapped_error_message_stays_on_one_line(self, tmp_path, capsys):
        # Without cross springs the strands decouple and the cell map's
        # eigenvalues split about 1 at rounding level; the array repr of
        # them in the UnexpectedSpectrum message wraps over three lines.
        raw = {
            "s": 3, "p": 2, "h": 1.0, "N": 8,
            "kappa_long": [[2.0, 0.5, 3.0], [0.1, 5.0, 0.7]],
            "kappa_cross": np.zeros((2, 3, 3)).tolist(),
            "rho": [[1.0, 2.0, 0.3], [4.0, 0.5, 1.7]],
        }
        path = tmp_path / "decoupled.json"
        path.write_text(json.dumps(raw))
        rc = main(["derive-bc", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: UnexpectedSpectrum:")

    def test_dispersion_k_flag(self, tmp_path, capsys):
        rc = main([
            "dispersion", "--preset", "demo-2x2", "--out", str(tmp_path),
            "--k", "0.001", "--k", "0.002",
        ])
        assert rc == 0
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_demo_5x10_runs_with_spacing(self, tmp_path):
        rc = main([
            "derive-bc", "--preset", "demo-5x10", "--h", str(DEMO5_CANDIDATE_H),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["left"]["kind"] == "robin"
        assert report["reference"]["d0_over_h"] == pytest.approx(0.058)


def test_import_leaves_out_sparse_and_optimize():
    # Each costs tens of milliseconds of start-up on every CLI call;
    # scipy.optimize is imported on first use by macroscale_slowest_mode.
    src = str(Path(latticebc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, latticebc; "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
