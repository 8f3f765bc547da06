"""Preset regression gate: every number the five subcommands write on both
presets stays within 1e-12 of its recorded value, relative to the largest
magnitude in its field.

The reference files under ``preset_reference/<preset>/<command>/`` are the
``report.json`` and CSV files written by

    latticebc <command> --preset <preset> [--h 2*pi/46] --out DIR

A field is one leaf of the report (a number or a list of numbers) or one
CSV column.  Labels, flags and integers must match exactly.  Values at the
rounding level have no relative meaning, so each is held to the bound its
own producer certifies instead: the slow-manifold residual to
RESIDUAL_TOL times the stiffness scale, the microscale eigenpair residual
to 1e-10, and the spectrum's symmetry defect, row sum and zero eigenvalue
through its ``passed`` verdict, which is compared exactly.  A change that
moves a value past these bounds re-records the reference and lists every
value that moved.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from latticebc import build_L0, cli
from latticebc.homogenize import RESIDUAL_TOL

REFERENCE = Path(__file__).parent / "preset_reference"
REL = 1e-12
PRESETS = {"demo-2x2": None, "demo-5x10": cli.DEMO5_CANDIDATE_H}   # preset: --h
COMMANDS = ("homogenize", "derive-bc", "validate", "dispersion", "spectrum")
ROUNDING_LEVEL = {
    ("spectrum", "symmetry_defect"), ("spectrum", "max_row_sum"),
    ("spectrum", "min_eigenvalue"), ("validate", "diagnostics", "micro_residual"),
    ("homogenize", "residual_norm"),
}


def leaves(obj, path):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    else:
        yield path, obj


def numeric(value):
    items = value if isinstance(value, list) else [value]
    return bool(items) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in items)


def assert_field_close(where, got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape, where
    bound = REL * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= bound, f"{where}: {got} vs {ref}"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("preset", list(PRESETS))
def test_preset_outputs_match_reference(tmp_path, preset, command):
    h = PRESETS[preset]
    argv = [command, "--preset", preset, "--out", str(tmp_path)]
    assert cli.main(argv + ([] if h is None else ["--h", repr(h)])) == 0
    ref_dir = REFERENCE / preset / command
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in ref_dir.iterdir())

    got = dict(leaves(json.loads((tmp_path / "report.json").read_text()), (command,)))
    ref = dict(leaves(json.loads((ref_dir / "report.json").read_text()), (command,)))
    assert list(got) == list(ref)
    for path, value in ref.items():
        if path in ROUNDING_LEVEL:
            continue
        if numeric(value):
            assert_field_close(path, got[path], value)
        else:
            assert got[path] == value, path
    if command == "homogenize":
        spec = cli.config_from_dict(cli.preset_config(preset, h=h)).spec
        scale = np.linalg.norm(build_L0(spec), "fro")
        assert got[command, "residual_norm"] < RESIDUAL_TOL * scale
    if command == "validate":
        assert got[command, "diagnostics", "micro_residual"] <= 1e-10

    for csv_ref in ref_dir.glob("*.csv"):
        header, table = read_csv(tmp_path / csv_ref.name)
        ref_header, ref_table = read_csv(csv_ref)
        assert header == ref_header and table.shape == ref_table.shape
        for name, column, ref_column in zip(header, table.T, ref_table.T):
            assert_field_close((csv_ref.name, name), column, ref_column)
