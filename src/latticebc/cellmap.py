"""Cell-to-cell transfer map of the quasi-steady lattice.

Solving the first s*p equilibrium equations for the masses of the second
cell in terms of the first two columns yields a linear map
``u_1 = T u_0`` between consecutive cells (u_0 holds columns 0 and 1,
u_1 holds columns p and p+1).  Empirically the 2s eigenvalues of T split
into s-1 decaying modes in (0, 1), a doubled eigenvalue 1 with the
constant eigenvector and one Jordan partner, and s-1 growing modes; the
partner encodes a uniform macroscale gradient and is the key ingredient
of the boundary-condition construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoJordanChain, UnexpectedSpectrum
from .lattice import LatticeSpec, build_steady_operator, column_blocks

# |mu - 1| below this counts as the doubled neutral eigenvalue.  Kept
# separate from generic eigen tolerances: near-degenerate stiffness pulls
# decaying/growing modes toward 1 and must surface as UnexpectedSpectrum,
# not be silently absorbed.
CENTER_TOL = 1e-6
_IMAG_TOL = 1e-7
# The doubled eigenvalue is defective, so rounding splits it by about
# sqrt(eps * ||T||); ||T|| grows like the boundary-layer growth factor to
# the power p and easily reaches 1e9.  The effective centre tolerance
# therefore adapts to the spectral radius, but never beyond this cap:
# past it the eigenproblem itself is too ill-scaled to classify.
_CENTER_TOL_CAP = 0.05


@dataclass
class EigenPartition:
    """Spectrum of T split into decaying / neutral / growing parts.

    The decaying/growing eigenvalues are usually real positive, but
    strongly coupled multi-strand lattices can produce genuine complex
    reciprocal-conjugate quartets (decaying oscillatory boundary
    layers); `all_real` records which case occurred.  The basis columns
    span the real invariant subspaces either way.
    """

    eigenvalues: np.ndarray        # all 2s, ascending by modulus
    stable_values: np.ndarray      # |mu| < 1, complex dtype
    stable_vectors: np.ndarray     # (2s, s-1) real basis of the subspace
    center_indices: tuple          # positions of the doubled eigenvalue 1
    unstable_values: np.ndarray    # |mu| > 1, complex dtype
    unstable_vectors: np.ndarray   # (2s, s-1)
    all_real: bool                 # non-neutral spectrum real positive


@dataclass
class CellMap:
    """Transfer matrix with its classified eigen-structure."""

    T: np.ndarray
    eigenvalues: np.ndarray
    stable_values: np.ndarray
    stable_vectors: np.ndarray
    unstable_values: np.ndarray
    unstable_vectors: np.ndarray
    center_vector: np.ndarray        # the all-ones eigenvector
    generalized_vector: np.ndarray   # (T - I) v_g = 1, first component 0
    first_cell_gen: np.ndarray       # v_g continued onto columns 0..p-1
    spectrum_all_real: bool = True

    @property
    def s(self) -> int:
        return self.T.shape[0] // 2


def _interior_recurrence(spec: LatticeSpec) -> np.ndarray:
    """Interior solve as a forward recurrence in extended precision.

    The interior block is block lower-triangular with diagonal blocks
    diag(kappa_long): equation n, left*x[n-1] + onsite @ x[n] +
    right*x[n+1] = 0, yields column n+1 from the two before it, starting
    from x[0] = [I 0] and x[1] = [0 I].  The extra longdouble digits keep
    the result forward accurate where the block is too ill-conditioned
    for LU in double.  Returns the (s*p, 2s) block for columns 2..p+1.
    """
    s, p = spec.s, spec.p
    left, onsite, right = (
        b.astype(np.longdouble) for b in column_blocks(spec, np.arange(1, p + 1))
    )
    x = np.zeros((p + 2, s, 2 * s), dtype=np.longdouble)
    x[0, :, :s] = np.eye(s)
    x[1, :, s:] = np.eye(s)
    for n in range(p):   # the equation of column n + 1
        x[n + 2] = -(left[n, :, None] * x[n] + onsite[n] @ x[n + 1]) / right[n, :, None]
    return x[2:].reshape(p * s, 2 * s)


def _interior_extension(spec: LatticeSpec, A: np.ndarray):
    """Matrix E mapping u_0 to all masses of columns 0..p+1.

    `A` is the one-cell steady operator, build_steady_operator(spec, p).
    Rows 0..2s-1 are the identity on u_0; the rest solve the s*p interior
    equilibrium equations.  Also returns the relative accuracy of the
    extension (solver epsilon times the interior condition number) and
    the condition estimate itself.  The condition number grows like the
    boundary-layer growth factor to the power p, so extreme-but-valid
    lattices can exceed double range; positivity of the elasticities
    keeps the block invertible, and the solve switches to the
    extended-precision recurrence rather than reject such inputs.  Below
    that switch LU is kept: its backward error is a perturbation of the
    lattice, which preserves the reciprocal pairing of T's eigenvalues.
    """
    s = spec.s
    A0 = A[:, : 2 * s]
    Aint = A[:, 2 * s:]
    sv = np.linalg.svd(Aint, compute_uv=False)
    cond = float(sv[0] / max(sv[-1], np.finfo(float).tiny))
    if cond > 1e8:
        X = _interior_recurrence(spec).astype(float)
        data_error = float(np.finfo(np.longdouble).eps) * cond
    else:
        X = np.linalg.solve(Aint, -A0)
        data_error = float(np.finfo(float).eps) * cond
    data_error = max(data_error, float(np.finfo(float).eps))
    return np.vstack([np.eye(2 * s), X]), data_error, cond


def _cell_pencil(spec: LatticeSpec, A: np.ndarray):
    """Linear pencil whose eigenpairs are the cell-map eigenpairs.

    The map ansatz (displacements repeat with factor mu per cell) turns
    the one-cell equilibrium equations into (P + mu Q) y = 0 where the
    leading 2s components of y are the cell-map eigenvector.  P and Q
    keep the original stiffness scaling, so QZ resolves eigen-structure
    that is unreachable through the explicitly formed transfer matrix
    (whose entries grow like the boundary-layer factor to the power p).
    """
    s, p = spec.s, spec.p
    if p == 1:
        a0, a1, a2 = A[:, :s], A[:, s: 2 * s], A[:, 2 * s:]
        P = np.block([[np.zeros((s, s)), np.eye(s)], [a0, a1]])
        Q = np.block([[-np.eye(s), np.zeros((s, s))], [np.zeros((s, s)), a2]])
        return P, Q
    P = A[:, : p * s]
    Q = np.hstack([A[:, p * s:], np.zeros((s * p, s * (p - 2)))])
    return P, Q


def _pencil_eigendata(spec: LatticeSpec, A: np.ndarray):
    """Cell-map eigenvalues and u_0-restricted eigenvectors via QZ."""
    s = spec.s
    P, Q = _cell_pencil(spec, A)
    mu, vr = scipy.linalg.eig(P, -Q, right=True)
    # The pencil carries s*(p-2) spurious infinite eigenvalues (Q is rank
    # 2s); the genuine spectrum is the 2s smallest by modulus.
    mod = np.where(np.isfinite(mu), np.abs(mu), np.inf)
    keep = np.argsort(mod, kind="stable")[: 2 * s]
    mu = mu[keep]
    V = vr[: 2 * s, keep]
    norms = np.linalg.norm(V, axis=0)
    if np.any(norms == 0) or np.any(~np.isfinite(mu)):
        raise UnexpectedSpectrum("pencil eigenvectors degenerate on the leading cell")
    return mu, V / norms


def build_cell_map(spec: LatticeSpec, center_tol: float = CENTER_TOL) -> CellMap:
    """Assemble T = u_0 -> u_1 and classify its eigen-structure.

    Classification first uses the spectrum of T itself; when T carries
    too few accurate digits or its eigenproblem is too ill-scaled to
    resolve (boundary-layer growth makes ||T|| enormous for large p), it
    switches to the equivalent well-scaled cell pencil.
    """
    s, p = spec.s, spec.p
    A = build_steady_operator(spec, rows=p)
    E, data_error, cond = _interior_extension(spec, A)
    T = E[p * s: (p + 2) * s, :]
    part = None
    if cond <= 1e12:
        try:
            part = classify_trichotomy(T, tol=center_tol, data_error=data_error)
        except UnexpectedSpectrum:
            part = None
    if part is None:
        mu, V = _pencil_eigendata(spec, A)
        part = _partition(mu, V, tol=center_tol, data_error=np.finfo(float).eps)
    vg, fcg = _jordan_extension(spec, A)
    return CellMap(
        T=T,
        eigenvalues=part.eigenvalues,
        stable_values=part.stable_values,
        stable_vectors=part.stable_vectors,
        unstable_values=part.unstable_values,
        unstable_vectors=part.unstable_vectors,
        center_vector=np.ones(2 * s),
        generalized_vector=vg,
        first_cell_gen=fcg,
        spectrum_all_real=part.all_real,
    )


def _partition(mu: np.ndarray, V: np.ndarray, tol: float, data_error: float) -> EigenPartition:
    """Split an eigen-decomposition into decaying / neutral / growing parts.

    The doubled eigenvalue is defective, so it splits by about
    sqrt(data_error * ||T||); the centre tolerance widens accordingly,
    and the realness verdict is formed up to the floor
    data_error * max|mu|.
    """
    two_s = len(mu)
    s = two_s // 2
    order = np.argsort(np.abs(mu), kind="stable")
    mu = mu[order]
    V = V[:, order]

    mu_max = float(np.max(np.abs(mu)))
    tol_eff = min(max(tol, 10.0 * np.sqrt(data_error * max(1.0, mu_max))), _CENTER_TOL_CAP)
    noise = 100.0 * data_error * max(1.0, mu_max)

    center = np.abs(mu - 1.0) <= tol_eff
    n_center = int(center.sum())
    if n_center != 2:
        raise UnexpectedSpectrum(
            f"expected a doubled eigenvalue at 1, found {n_center} within {tol_eff:g}: {mu}"
        )
    if not (center[s - 1] and center[s]):
        raise UnexpectedSpectrum(f"doubled eigenvalue 1 not central in modulus order: {mu}")

    stable = ~center & (np.abs(mu) < 1.0)
    unstable = ~center & (np.abs(mu) > 1.0)
    n_st, n_un = int(stable.sum()), int(unstable.sum())
    if n_st != s - 1 or n_un != s - 1:
        raise UnexpectedSpectrum(
            f"expected ({s - 1}, 2, {s - 1}) eigenvalues, got ({n_st}, 2, {n_un}): {mu}"
        )
    rest = mu[~center]
    bad_imag = np.abs(rest.imag) > np.maximum(_IMAG_TOL * (1.0 + np.abs(rest)), noise)
    bad_real = rest.real <= -noise
    all_real = not (np.any(bad_imag) or np.any(bad_real))

    def _real_basis(mask, label):
        W = V[:, mask]
        if W.size == 0:
            return np.zeros((two_s, 0))
        if np.max(np.abs(W.imag)) <= 1e-8 * np.max(np.abs(W)):
            return np.ascontiguousarray(W.real)
        # Complex conjugate modes (noise clusters or genuine quartets)
        # still span a real invariant subspace, and any real basis of it
        # serves the boundary construction (its use is basis-invariant).
        span = np.hstack([W.real, W.imag])
        U, sv, _ = np.linalg.svd(span, full_matrices=False)
        k = int(mask.sum())
        if np.sum(sv > 1e-8 * sv[0]) < k:
            raise UnexpectedSpectrum(f"{label} subspace is rank deficient: {mu}")
        return np.ascontiguousarray(U[:, :k])

    return EigenPartition(
        eigenvalues=mu,
        stable_values=mu[stable],
        stable_vectors=_real_basis(stable, "stable"),
        center_indices=(s - 1, s),
        unstable_values=mu[unstable],
        unstable_vectors=_real_basis(unstable, "unstable"),
        all_real=all_real,
    )


def classify_trichotomy(
    T: np.ndarray, tol: float = CENTER_TOL, data_error: float | None = None
) -> EigenPartition:
    """Partition the spectrum of T into (s-1, 2, s-1) groups by modulus.

    Raises UnexpectedSpectrum when the counts disagree or the doubled
    eigenvalue does not sit at positions s-1, s of the modulus ordering.
    Realness/positivity of the non-neutral eigenvalues is recorded in
    `all_real` rather than enforced: it holds for most lattices but
    strongly coupled strands can legitimately produce complex
    reciprocal-conjugate quartets, and the boundary construction only
    needs the real subspaces.

    `data_error` is the relative entry accuracy of T (defaults to eps;
    build_cell_map passes eps times the interior condition number).
    """
    mu, V = np.linalg.eig(T)
    if data_error is None:
        data_error = float(np.finfo(float).eps)
    return _partition(mu, V, tol=tol, data_error=data_error)


def _jordan_extension(spec: LatticeSpec, A: np.ndarray):
    """Generalized eigenvector and its first-cell continuation.

    Solves for a one-cell displacement profile x (columns 0..p+1) that is
    in equilibrium and advances by exactly the constant vector across the
    cell, gauged to x[0] = 0.  Working with the stacked well-scaled
    system instead of (T - I) v = 1 keeps full accuracy when T's entries
    are huge.  Returns (v_g, first_cell_gen).
    """
    s, p = spec.s, spec.p
    n_all = s * (p + 2)
    jump = np.zeros((2 * s, n_all))
    jump[:, p * s:] = np.eye(2 * s)
    jump[:, : 2 * s] -= np.eye(2 * s)
    gauge = np.zeros((1, n_all))
    gauge[0, 0] = 1.0
    scale = max(1.0, np.abs(A).max())
    M = np.vstack([A / scale, jump, gauge])
    rhs = np.concatenate([np.zeros(s * p), np.ones(2 * s), [0.0]])
    # M has full column rank (the gauge row excludes the constant vector),
    # so pivoted QR solves it as well as an SVD, at a fraction of the cost.
    x, *_ = scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy")
    x = x - x[0]
    res = np.linalg.norm(M @ x - rhs)
    if res > 1e-9 * n_all:
        raise NoJordanChain(f"no generalized eigenvector at 1, residual {res:.2e}")
    return x[: 2 * s], x[: p * s]


def jordan_chain(T: np.ndarray) -> np.ndarray:
    """Generalized eigenvector v_g with (T - I) v_g = 1.

    The kernel of T - I is the constant vector, so the system is solved
    in least squares with an extra gauge row pinning the first component;
    the returned representative has v_g[0] = 0 exactly.  The scale is not
    free: the chain increment is fixed at exactly one per cell.
    """
    n = T.shape[0]
    gauge = np.zeros(n)
    gauge[0] = 1.0
    M = np.vstack([T - np.eye(n), gauge])
    rhs = np.concatenate([np.ones(n), [0.0]])
    vg, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    vg = vg - vg[0]
    res = np.linalg.norm((T - np.eye(n)) @ vg - np.ones(n))
    if res > 1e-9 * max(1.0, np.linalg.norm(T)):
        raise NoJordanChain(f"(T - I) v = 1 is inconsistent, residual {res:.2e}")
    return vg


def reconstruct_first_cell(spec: LatticeSpec, boundary_pair_values: np.ndarray) -> np.ndarray:
    """Continue displacements of columns 0, 1 through the interior solve.

    Returns the s*p displacements of the first cell (columns 0..p-1).
    For p = 2 this is the input unchanged.
    """
    u0 = np.asarray(boundary_pair_values, dtype=float)
    if u0.shape != (2 * spec.s,):
        raise ValueError(f"expected {2 * spec.s} boundary values, got shape {u0.shape}")
    E, _, _ = _interior_extension(spec, build_steady_operator(spec, rows=spec.p))
    return (E @ u0)[: spec.p * spec.s]
