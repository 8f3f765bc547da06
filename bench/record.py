"""Record reference values of the benchmark's fixed inputs.

    python3 bench/record.py

Runs the preset lattices of validate-long and every cli-presets command
once and rewrites reference.json with the values the checks compare
against.  The committed file was recorded at the commit that introduced
the benchmark; re-record only when a change is meant to move these values,
and say why in that change.
"""

from __future__ import annotations

import json
import subprocess
import tempfile

import run

# Values of each report compared against the recording, as dotted paths.
COMMAND_VALUES = {
    "homogenize": ["c", "std_alpha", "std_beta"],
    "derive-bc": ["left.d_over_h", "right.d_over_h"],
    "validate": ["lambda_micro", "lambda_robin", "lambda_dirichlet", "d0_over_h", "dL_over_h"],
    "dispersion": ["c_fit"],
    "spectrum": ["spectral_gap", "passed"],
}


def main() -> None:
    run.import_library()
    import workloads
    from verify import lookup

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.BENCH_DIR,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    lattices = {}
    for inp in workloads.validate_long_inputs(0):
        if inp.reference:
            res = workloads.validate_op(inp)
            lattices[inp.reference] = {"c": res.c, "d0": res.left.d, "dL": res.right.d,
                                       "lambda_micro": res.comparison.lambda_micro}
    commands = {}
    for inp in sorted(workloads.cli_presets_inputs(0), key=lambda c: c.name):
        with tempfile.TemporaryDirectory() as out:
            res = workloads.command_op(inp, out)
            if res.code != 0:
                raise SystemExit(f"error: {inp.argv} exited with {res.code}")
            report = json.loads(res.stdout)
        commands[inp.name] = {
            "keys": list(report),
            "values": {p: lookup(report, p) for p in COMMAND_VALUES[inp.argv[0]]},
        }
    data = {"recorded_from": commit, "lattices": lattices, "commands": commands}
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
