"""Correctness checks applied to every benchmark op, outside its timed region.

Lattice results are checked against oracles that share no code with the
library's boundary pipeline:

* ``c`` against ``dispersion_fit`` (exact exponentials, no truncation);
* ``d0``, ``dL`` and the data weights against a direct sparse solve of the
  steady microscale lattice on a long strip: once the boundary layers
  have decayed, the cell averages are exactly linear in x, and the line
  U = A x + B must satisfy the derived macroscale conditions;
* the clamped microscale eigenpair of ``compare_modes`` against its own
  residual and the smallest eigenvalue from a sparse shift-invert solve.

Fixed inputs (the presets) are also compared with values recorded from the
seed commit in ``reference.json``.  Oracles depend only on the input, so
they are computed once per input and reused by every op on it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from latticebc import homogenize
from latticebc.boundary import MacroBCKind

# Tolerances sit well above the accuracy the seed commit reaches (listed
# in README.md): on cells whose interior block has condition ~5e11 its
# data weights carry relative errors up to 1.5e-4, and d0, dL up to 4e-6.
C_TOL = 1e-5          # c against dispersion_fit, relative
D_TOL = 1e-4          # d0, dL against the strip, relative to |d| + p h
W_TOL = 2e-3          # data weights against the strip, relative
EIG_RES_TOL = 1e-9    # relative residual of the microscale eigenpair
EIG_TOL = 1e-8        # lambda_micro against sparse shift-invert, relative
REF_TOL = 1e-6        # recorded seed-commit values, relative
LIN_TOL = 1e-9        # linearity of the strip's interior cell averages
STRIP_CELLS = (32, 64, 128, 256, 512, 1024, 2048)

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def interior_triplets(spec, n_int: int):
    """COO triplets of the force balance of masses n = 1..n_int-1.

    Unknowns are all masses n = 0..n_int in flat order n*s + j, and the
    row of mass (n, j) carries that mass's own flat index.  Diagonal
    entries are negative (stiffness sign).
    """
    s, p = spec.s, spec.p
    kl, kc = spec.kappa_long, spec.kappa_cross
    n = np.arange(1, n_int)
    m, mp = n % p, (n - 1) % p
    rows, cols, vals = [], [], []
    for j in range(s):
        r = n * s + j
        left, right = kl[mp, j], kl[m, j]
        rows += [r, r, r]
        cols += [(n - 1) * s + j, (n + 1) * s + j, r]
        vals += [left, right, -(left + right + kc[m, :, j].sum(axis=1))]
        for i in range(s):
            if i != j:
                rows.append(r)
                cols.append(n * s + i)
                vals.append(kc[m, i, j])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _left_rows(kind: str, values, s: int, h: float):
    """Triplets and right-hand side of the microscale rows at n = 0."""
    j = np.arange(s)
    values = np.asarray(values, dtype=float)
    if kind == "dirichlet":
        return [j], [j], [np.ones(s)], values
    if kind == "flux":
        return [j, j], [s + j, j], [np.ones(s), -np.ones(s)], h * values
    if kind == "robin_like":
        w = values[:, 0] / h
        return [j, j], [j, s + j], [1.0 - w, w], values[:, 1]
    raise ValueError(f"no strip rows for kind {kind!r}")


def strip_line(spec, kind: str, values, right_value: float):
    """Interior line U = A x + B of the steady strip, and its length.

    The strip keeps the lattice's right-end phase (N + cells*p intervals)
    and is lengthened until the middle half of its cell averages is linear
    to LIN_TOL.  Returns (A, B, L) or None if no length is linear enough.
    """
    s, p, h = spec.s, spec.p, spec.h
    for cells in STRIP_CELLS:
        n_int = spec.N + cells * p
        size = s * (n_int + 1)
        r, c, v = interior_triplets(spec, n_int)
        lr, lc, lv, lb = _left_rows(kind, values, s, h)
        right = n_int * s + np.arange(s)
        rows = np.concatenate([r, *lr, right])
        cols = np.concatenate([c, *lc, right])
        vals = np.concatenate([v, *lv, np.ones(s)])
        K = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))
        rhs = np.zeros(size)
        rhs[:s] = lb
        rhs[right] = right_value
        u = scipy.sparse.linalg.spsolve(K, rhs)
        n_cells = (n_int + 1) // p
        avg = u[: n_cells * p * s].reshape(n_cells, p * s).mean(axis=1)
        k = np.arange(n_cells // 4, 3 * n_cells // 4)
        x = (k * p + 0.5 * (p - 1)) * h
        A, B = np.polyfit(x, avg[k], 1)
        scale = max(np.max(np.abs(avg)), abs(right_value), 1e-300)
        if np.max(np.abs(avg[k] - (A * x + B))) <= LIN_TOL * scale:
            return float(A), float(B), n_int * h
    return None


def _data(bc) -> np.ndarray:
    values = np.asarray(bc.values, dtype=float)
    return values[:, 1] if bc.kind.value == "robin_like" else values


def lookup(report: dict, path: str):
    """Value of a report at a dotted path such as "left.d_over_h"."""
    for part in path.split("."):
        report = report[part]
    return report


def _rel(x, ref, scale) -> float:
    return abs(x - ref) / scale


class Verifier:
    """Checks op results; returns None when an op is correct, else why not."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._oracles = {}

    def _cached(self, kind: str, inp, compute):
        # Holding inp in the value keeps its id from being reused.
        key = (kind, id(inp))
        if key not in self._oracles:
            self._oracles[key] = (inp, compute(inp))
        return self._oracles[key][1]

    def _lattice_oracle(self, inp) -> dict:
        spec, bc = inp.spec, inp.left
        out = {"c_fit": homogenize.dispersion_fit(spec)}
        # Left end clamped, right end pulled to 1: fixes dL, and d0 of the
        # dirichlet kind.
        out["clamped"] = strip_line(spec, "dirichlet", np.zeros(spec.s), 1.0)
        kind = bc.kind.value
        if kind == "dirichlet":
            out["homogeneous"] = out["clamped"]
        elif kind == "robin_like":
            zero = np.array(bc.values)   # keeps the d_j, drops the data
            zero[:, 1] = 0.0
            out["homogeneous"] = strip_line(spec, kind, zero, 1.0)
        out["driven"] = strip_line(spec, kind, bc.values, 0.0)
        return out

    def check_lattice(self, inp, res) -> str | None:
        spec = inp.spec
        ph = spec.p * spec.h
        o = self._cached("lattice", inp, self._lattice_oracle)
        if any(v is None for v in o.values()):
            return "strip oracle found no linear interior"
        if not math.isfinite(res.c) or _rel(res.c, o["c_fit"], abs(o["c_fit"])) > C_TOL:
            return f"c = {res.c!r} disagrees with dispersion_fit {o['c_fit']!r}"

        right = res.right
        if right.kind != MacroBCKind.ROBIN:
            return f"right end is {right.kind.value}, expected robin"
        A, B, L = o["clamped"]
        dL = (1.0 - (A * L + B)) / A
        if not _rel(right.d, dL, abs(dL) + ph) <= D_TOL:
            return f"dL = {right.d!r}, strip gives {dL!r}"

        left = res.left
        kind = inp.left.kind.value
        expected = MacroBCKind.NEUMANN if kind == "flux" else MacroBCKind.ROBIN
        if left.kind != expected:
            return f"left end is {left.kind.value}, expected {expected.value}"
        wdata = np.asarray(left.rhs_weights) * _data(inp.left)
        A, B, _ = o["driven"]
        if left.kind == MacroBCKind.ROBIN:
            A0, B0, _ = o["homogeneous"]
            d0 = -B0 / A0
            if not _rel(left.d, d0, abs(d0) + ph) <= D_TOL:
                return f"d0 = {left.d!r}, strip gives {d0!r}"
            lhs, scale = B + left.d * A, abs(B) + abs(left.d * A)
        else:
            lhs, scale = A, abs(A)
        rhs = float(wdata.sum())
        if not abs(lhs - rhs) <= W_TOL * (scale + np.abs(wdata).sum()):
            return f"left data weights give {rhs!r}, strip gives {lhs!r}"

        if inp.reference:
            ref = self.reference["lattices"][inp.reference]
            for name, value, scale in (("c", res.c, abs(ref["c"])),
                                       ("d0", left.d, abs(ref["d0"]) + ph),
                                       ("dL", right.d, abs(ref["dL"]) + ph)):
                if not _rel(value, ref[name], scale) <= REF_TOL:
                    return f"{name} = {value!r}, recorded {ref[name]!r}"
        return None

    @staticmethod
    def _micro_oracle(inp):
        K, M = clamped_operators(inp.spec)
        lam = scipy.sparse.linalg.eigsh(K, k=1, M=M, sigma=0, return_eigenvectors=False)
        return K, M, float(lam[0])

    def check_validation(self, inp, res) -> str | None:
        why = self.check_lattice(inp, res)
        if why:
            return why
        comp = res.comparison
        for name in ("lambda_micro", "lambda_robin", "lambda_dirichlet",
                     "interior_error_robin", "interior_error_dirichlet"):
            if not math.isfinite(getattr(comp, name)):
                return f"{name} is not finite"
        K, M, lam_min = self._cached("micro", inp, self._micro_oracle)
        lam = comp.lambda_micro
        w = comp.micro_mode[1:-1].reshape(-1)
        Kw, Mw = K @ w, M @ w
        res_norm = np.linalg.norm(Kw - lam * Mw) / (np.linalg.norm(Kw) + abs(lam) * np.linalg.norm(Mw))
        if not res_norm <= EIG_RES_TOL:
            return f"microscale eigenpair residual {res_norm:.3e}"
        if not _rel(lam, lam_min, lam_min) <= EIG_TOL:
            return f"lambda_micro = {lam!r} is not the smallest eigenvalue {lam_min!r}"
        if inp.reference:
            ref = self.reference["lattices"][inp.reference]["lambda_micro"]
            if not _rel(lam, ref, abs(ref)) <= REF_TOL:
                return f"lambda_micro = {lam!r}, recorded {ref!r}"
        return None

    def check_command(self, inp, res) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}"
        path = Path(res.out_dir) / "report.json"
        try:
            text = path.read_text()
            report = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            return f"report.json unreadable: {exc}"
        if res.stdout != text:
            return "stdout differs from report.json"
        ref = self.reference["commands"][inp.name]
        missing = [k for k in ref["keys"] if k not in report]
        if missing:
            return f"report.json lacks {missing}"
        for path_, value in ref["values"].items():
            got = lookup(report, path_)
            if isinstance(value, bool):
                if got is not value:
                    return f"{path_} = {got!r}, recorded {value!r}"
            elif not isinstance(got, (int, float)) or not _rel(got, value, abs(value)) <= REF_TOL:
                return f"{path_} = {got!r}, recorded {value!r}"
        return None


def clamped_operators(spec):
    """Stiffness -S and mass matrix of masses n = 1..N-1 (both ends clamped)."""
    s, N = spec.s, spec.N
    r, c, v = interior_triplets(spec, N)
    keep = (c >= s) & (c < N * s)
    size = s * (N - 1)
    K = scipy.sparse.csc_matrix((-v[keep], (r[keep] - s, c[keep] - s)), shape=(size, size))
    n = np.repeat(np.arange(1, N), s)
    mass = spec.h ** 2 * spec.rho[n % spec.p, np.tile(np.arange(s), N - 1)]
    return K, scipy.sparse.diags(mass, format="csc")
