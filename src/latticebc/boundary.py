"""Macroscale boundary conditions from microscale boundary data.

At a domain end the displacement pair u_0 of the first two columns is a
combination of the decaying and neutral modes of the cell map (growing
modes would blow up across the domain).  Writing
u_0 = sum_i c_i v_i over the s-1 stable eigenvectors, the constant
vector, and the generalized vector gives s+1 unknowns.  The s microscale
boundary conditions plus the two definitions of the macroscale value and
slope at the wall yield s+2 equations; the resulting overdetermined
system M c = rhs is solvable only when rhs is orthogonal to the left
null space of M, and that solvability condition, rearranged, is the
macroscale boundary condition.

Macroscale rows: stable modes have died out where the macroscale model
lives, so the U row is (0 .. 0, 1, gamma_U) and the slope row is
(0 .. 0, 0, 1/p).  The slope row is written in cell units, h dU/dx, so
that no entry of M depends on h and the SVD sees the same matrix at every
spacing; the derived d and weights take their factors of h afterwards.
The generalized entry gamma_U extrapolates the cell averages of the
generalized mode (which grow by exactly 1 per cell) back to the wall at
x = 0:

    gamma_U = mean(first_cell_gen) - (p - 1) / (2 p)

since the first cell's points have centroid (p-1)/2 in units of h and the
slope of that mode is 1/p per unit of h.

The mixed kind (two strands) has s+3 rows, a two-dimensional left null
space, and yields a full Cauchy pair (both U and dU/dx prescribed) at
the left end; the single right-end datum then carries no macroscale
content.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dgesdd

from .cellmap import CellMap, build_cell_map
from .errors import EigenSolveError, KindUnsupported, NullSpaceDimension, SpecValidationError
from .lattice import BCKind, LatticeSpec, MicroBCSpec, reversed_spec

NULL_TOL = 1e-10


class MacroBCKind(str, Enum):
    ROBIN = "robin"
    NEUMANN = "neumann"
    CAUCHY_PAIR = "cauchy_pair"


@dataclass
class MacroBC:
    """One derived macroscale boundary condition.

    robin:        U + d * dU/dx = sum(rhs_weights * data)
    neumann:      dU/dx = sum(rhs_weights * data)
    cauchy_pair:  U = sum(value_weights * data) and
                  dU/dx = sum(slope_weights * data)
    """

    kind: MacroBCKind
    side: str
    d: float | None
    rhs_weights: np.ndarray | None
    rhs_labels: tuple
    value_weights: np.ndarray | None = None
    slope_weights: np.ndarray | None = None


def _check_args(cm: CellMap, bc: MicroBCSpec, s: int) -> None:
    """Checks that both derivations make on (cm, bc) for an s-strand spec."""
    if cm.s != s:
        raise SpecValidationError([f"cell map is for {cm.s} strands, spec has {s}"])
    if bc.kind in (BCKind.CAUCHY_LIKE, BCKind.MIXED) and s != 2:
        raise KindUnsupported(f"{bc.kind.value} boundary conditions require s = 2, got s = {s}")
    if bc.kind == BCKind.MIXED and bc.side == "right":
        raise KindUnsupported(
            "the mixed problem yields both macroscale conditions at the left end; "
            "the right-end datum adds none"
        )
    bc.check_shape(s)


def assemble_constraints(cm: CellMap, bc: MicroBCSpec, spec: LatticeSpec):
    """Build the (s+2) x (s+1) constraint matrix (s+3 rows for mixed).

    Returns (M, data_scale, labels).  Columns of M: stable coefficients,
    constant mode, generalized mode.  Rows: the microscale data rows,
    then U, then the slope in cell units, h dU/dx.  `data_scale` maps each
    datum to the right-hand side entry of its row (a flux datum d enters
    as h*d), and `labels` names the data.
    """
    s, p, h = spec.s, spec.p, spec.h
    _check_args(cm, bc, s)

    # Basis columns: the decaying modes, the constant mode and its Jordan partner.
    V = np.column_stack([cm.stable_vectors, np.ones(2 * s), cm.generalized_vector])
    R, scale, labels = bc.data_rows(s, h)
    n_data = len(scale)
    M = np.zeros((n_data + 2, s + 1))
    M[:n_data] = R @ V
    gamma_u = cm.first_cell_gen.mean() - (p - 1) / (2.0 * p)
    M[n_data, s - 1] = 1.0        # U row, constant column
    M[n_data, s] = gamma_u        # U row, generalized column
    M[n_data + 1, s] = 1.0 / p    # slope row (h dU/dx), generalized column
    return M, scale, labels


def derive_macro_bc(cm: CellMap, bc: MicroBCSpec, spec: LatticeSpec) -> MacroBC:
    """Solvability condition of the constraint system, normalized.

    spec and its cell map cm are the lattice seen from bc.side (for a
    right end, `reversed_spec` of the domain's lattice), and the result is
    in the original x: a right end gets `_mirror`'s sign flip.

    The left null space of M comes from the SVD (singular values below
    NULL_TOL * sigma_max count as zero).  Generic kinds give one null
    vector w and the Robin form with U coefficient 1; the flux kind has
    zero U weight and is reported as a Neumann condition.  The mixed kind
    gives two null vectors, solved for the Cauchy pair.  The slope row
    holds h dU/dx, so a Robin d is h times its cell-unit value, and
    Neumann and slope weights are their cell-unit values over h.
    """
    M, data_scale, labels = assemble_constraints(cm, bc, spec)
    n_data = len(data_scale)
    U, sigma, _, info = dgesdd(M, compute_uv=1, full_matrices=1)
    if info != 0:
        raise EigenSolveError(f"SVD of the constraint matrix failed (dgesdd info {info})")
    rank = int(np.sum(sigma > NULL_TOL * sigma[0]))
    null = U[:, rank:]
    expected = 2 if bc.kind == BCKind.MIXED else 1
    if null.shape[1] != expected:
        raise NullSpaceDimension(
            f"left null space of the {bc.kind.value} system has dimension "
            f"{null.shape[1]}, expected {expected}; singular values {sigma}"
        )

    if bc.kind == BCKind.MIXED:
        # w^T rhs = 0 for both basis vectors: two equations in (U, h dU/dx).
        G = null[n_data:, :].T            # (2, 2)
        Dw = (null[:n_data, :] * data_scale[:, None]).T  # (2, n_data)
        if np.linalg.cond(G) > 1e12:
            raise NullSpaceDimension("cannot solve the mixed pair: degenerate (U, dU/dx) block")
        W = -np.linalg.solve(G, Dw)
        return MacroBC(
            kind=MacroBCKind.CAUCHY_PAIR,
            side=bc.side,
            d=None,
            rhs_weights=None,
            rhs_labels=labels,
            value_weights=W[0],
            slope_weights=W[1] / spec.h,
        )

    w = null[:, 0]
    w_data = w[:n_data] * data_scale
    w_u = w[n_data]
    w_f = w[n_data + 1]
    wnorm = np.linalg.norm(w)
    if abs(w_u) >= NULL_TOL * wnorm:
        mb = MacroBC(MacroBCKind.ROBIN, "left", float(spec.h * (w_f / w_u)), -w_data / w_u, labels)
    elif abs(w_f) >= NULL_TOL * wnorm:
        mb = MacroBC(MacroBCKind.NEUMANN, "left", None, -w_data / (w_f * spec.h), labels)
    else:
        raise NullSpaceDimension("null vector has neither U nor dU/dx weight")
    return _mirror(mb) if bc.side == "right" else mb


def closed_form_bc(cm: CellMap, bc: MicroBCSpec, spec: LatticeSpec) -> MacroBC:
    """Literal closed-form boundary conditions for s = 2, p = 2.

    Evaluates the explicit two-strand expressions with the same
    eigenvectors the numeric path uses; serves as its cross-oracle.
    Fails by zero division when the stable eigenvector has equal first
    components (strand-symmetric lattices); the SVD route is the
    authoritative one there.  The arguments are read and checked as in
    `derive_macro_bc`: (cm, spec) is the lattice seen from bc.side, and
    the result is in the original x.
    """
    if spec.s != 2 or spec.p != 2:
        raise KindUnsupported(
            f"closed forms require s = 2, p = 2, got s = {spec.s}, p = {spec.p}"
        )
    _check_args(cm, bc, 2)
    mb = _closed_form_left(cm, bc, spec.h)
    return _mirror(mb) if bc.side == "right" else mb


def _closed_form_left(cm: CellMap, bc: MicroBCSpec, h: float) -> MacroBC:
    kind, values, labels = bc.kind, bc.values, bc.data_rows(2, h)[2]
    v1 = cm.stable_vectors[:, 0]
    v3 = cm.generalized_vector
    q = 0.25 * (v3.sum() - 1.0)

    if kind == BCKind.DIRICHLET:
        delta = v1[0] - v1[1]
        d = -2.0 * h * ((v1[1] * v3[0] - v1[0] * v3[1]) / delta + q)
        weights = np.array([-v1[1], v1[0]]) / delta
        return MacroBC(MacroBCKind.ROBIN, "left", float(d), weights, labels)

    if kind == BCKind.FLUX:
        denom = (v1[2] - v1[0]) * (v3[3] - v3[1]) - (v1[3] - v1[1]) * (v3[2] - v3[0])
        weights = np.array([-(v1[3] - v1[1]), (v1[2] - v1[0])]) / (2.0 * denom)
        return MacroBC(MacroBCKind.NEUMANN, "left", None, weights, labels)

    if kind == BCKind.ROBIN_LIKE:
        d00, d01 = values[0, 0], values[1, 0]
        a1 = h * v1[0] + d00 * (v1[2] - v1[0])
        a2 = h * v1[1] + d01 * (v1[3] - v1[1])
        g1 = h * v3[0] + d00 * (v3[2] - v3[0])
        g2 = h * v3[1] + d01 * (v3[3] - v3[1])
        delta = a1 - a2
        w1 = a2 / delta
        w2 = -a1 / delta
        w4 = -2.0 * (a2 * g1 - a1 * g2) / delta - 0.5 * h * (v3.sum() - 1.0)
        return MacroBC(MacroBCKind.ROBIN, "left", float(w4), np.array([-w1, -w2]), labels)

    if kind == BCKind.CAUCHY_LIKE:
        delta = v1[0] - v1[2]
        d = -2.0 * h * ((v1[2] * v3[0] - v1[0] * v3[2]) / delta + q)
        weights = np.array([-v1[2], v1[0]]) / delta
        return MacroBC(MacroBCKind.ROBIN, "left", float(d), weights, labels)

    if kind == BCKind.MIXED:
        # Probe the affine pair formula on unit data to extract weights.
        p1 = (v1[2] * v3[0] - v1[0] * v3[2]) / (v1[0] - v1[2])
        denom = (v1[0] * v3[2] - v3[0] * v1[2]) * (v1[1] - v1[0]) + (
            v1[1] * v3[0] - v1[0] * v3[1]
        ) * (v1[2] - v1[0])

        def pair(b00, b10, b01):
            r1 = (v1[0] * b10 - v1[2] * b00) / (v1[0] - v1[2])
            dd = (
                v1[0]
                * ((v1[2] - v1[0]) * (b01 - b00) - (v1[1] - v1[0]) * (b10 - b00))
                / denom
            )
            return r1 - (p1 + q) * dd, -dd / (2.0 * h)

        basis = np.eye(3)
        probes = [pair(*basis[i]) for i in range(3)]
        value_w = np.array([pr[0] for pr in probes])
        slope_w = np.array([pr[1] for pr in probes])
        return MacroBC(
            MacroBCKind.CAUCHY_PAIR,
            "left",
            None,
            None,
            labels,
            value_weights=value_w,
            slope_weights=slope_w,
        )

    raise KindUnsupported(f"no closed form for kind {kind}")


def left_end_bc(spec: LatticeSpec, bc: MicroBCSpec) -> MacroBC:
    """Full left-end pipeline: cell map, constraints, solvability."""
    return derive_macro_bc(build_cell_map(spec), bc, spec)


def right_end_bc(spec: LatticeSpec, bc: MicroBCSpec) -> MacroBC:
    """Right-end condition: `derive_macro_bc` on the reversed lattice.

    The derivation runs on the lattice seen from the right end
    (n' = N - n) with bc's values as a right-end datum, whatever bc's
    side.  Boundary data conventions are mirror images of the left-end
    ones (differences point into the domain), so values pass through
    unchanged.  When N % p == 0 the reversed lattice is the whole cell
    read backwards, and its cell map comes from the memo that a left-end
    build of spec leaves behind.
    """
    rspec = reversed_spec(spec)
    return derive_macro_bc(build_cell_map(rspec), MicroBCSpec(bc.kind, bc.values, "right"), rspec)


def _mirror(mb: MacroBC) -> MacroBC:
    """A Robin or Neumann condition from the reversed lattice, in the original x.

    d/dx' = -d/dx: a Robin d and Neumann weights change sign.  No Cauchy
    pair gets here: `_check_args` refuses a mixed right end.
    """
    if mb.kind == MacroBCKind.ROBIN:
        return replace(mb, side="right", d=-mb.d)
    return replace(mb, side="right", rhs_weights=-mb.rhs_weights)
