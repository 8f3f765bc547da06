"""Slow-manifold construction of the macroscale wave model.

For small wavenumber k the cell dynamics collapse onto a two-dimensional
invariant manifold parametrized by the cell-averaged displacement U and
velocity V.  The manifold shape is u = a(k) U with
a(k) = 1 + i k alpha + k^2 beta, and the evolution is dV/dt = g(k) U
with g = -c k^2 + O(k^3); c is the effective wave-speed-squared
coefficient of the macroscale PDE U_tt = c U_xx.

The construction iterates corrections driven by the residual of
B d(a V)/dt = L_k a U:

1. the solvability projection onto the constant mode updates g,
2. the remaining residual is solved for a shape correction under the
   zero-mean amplitude constraint (1^T correction = 0), imposed by
   replacing the last row of L_0 with ones and then overwriting the last
   component with minus the sum of the others.

By linearity the velocity shape equals the displacement shape, so a
single shape vector is tracked; the residual certificate below involves
only a and g and validates that bookkeeping.

The iteration runs in real arithmetic on coefficients of kappa = ik:
L_k = sum_d kappa^d L_d with every L_d real, so a = 1 + kappa alpha -
kappa^2 beta and g = c kappa^2 have real kappa-coefficients, and so do
every residual and correction.  The k-coefficients are formed once at
the end.

Two independent oracles are provided: the closed-form two-strand
two-periodic coefficients, and c extrapolated from the exact dispersion
relation at small k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .errors import EigenSolveError, KindUnsupported, NotConverged, SingularSolve
from .lattice import LatticeSpec, build_B, build_Lk, build_Lk_exact

RESIDUAL_TOL = 1e-12
MAX_SWEEPS = 12   # cap of the correction sweeps in construct_slow_manifold


@dataclass
class SlowManifold:
    """Converged shape and evolution of the macroscale model."""

    a: np.ndarray             # (s*p, 3) k-coefficients of a = 1 + i k alpha + k^2 beta
    alpha: np.ndarray
    beta: np.ndarray
    g: np.ndarray             # (3,) k-coefficients of g in dV/dt = g(k) * U
    c: float                  # effective coefficient, c = -g_2 > 0
    iterations: int
    residual_norm: float


def construct_slow_manifold(spec: LatticeSpec) -> SlowManifold:
    """Iterate shape and evolution corrections until the residual is zero.

    The residual B(a g) - L(kappa) a, truncated at kappa^2, comes from one
    order-shifted copy of the shape, X[j, d, e] = a_{e-d}[j] (0 for d > e):
    B(a g) = B (g X) and L a = sum_d L_d X[:, d, :].  Its kappa^e column
    scales like h^e, so max|res[:, e]| / h^e (`residual_norm` is the
    maximum over e) must fall below RESIDUAL_TOL times the stiffness scale
    (||L_0||_F; for the single-mass cell, where L_0 = 0, the largest
    ||L_d||_F / h^d), because the exact-arithmetic analogue of this
    iteration terminates at an exact zero and floating point needs a
    scale-aware substitute.  Raises NotConverged when MAX_SWEEPS sweeps
    do not get it there.
    """
    n = spec.n_cell
    Bdiag = spec.h ** 2 * spec.rho.reshape(-1)   # the diagonal of build_B
    Lk = build_Lk(spec)
    orders = Lk.shape[2]   # the truncation: kappa^0 .. kappa^(orders-1)
    L_row = Lk.reshape(n, orders * n)   # a view, L_row[i, orders*j + d] = L_d[i, j]
    L0 = Lk[:, :, 0]
    h_pow = spec.h ** np.arange(orders)   # the scale of each kappa order
    # ||L_0|| is the stiffness scale of the residual certificate; the
    # single-mass cell has L_0 = 0, so fall back to the coefficients.
    scale = np.linalg.norm(L0, "fro")
    if scale == 0.0:
        scale = (np.linalg.norm(Lk, axis=(0, 1)) / h_pow).max()

    # Constrained solve: last equilibrium row replaced by the zero-mean
    # amplitude constraint.  L_0 alone is singular (constant kernel).
    temp = np.array(L0, order="F")
    temp[-1, :] = 1.0
    anorm = np.abs(temp).sum(axis=0).max()
    lu, piv, info = dgetrf(temp, overwrite_a=1)
    # info > 0 is an exact zero pivot; otherwise LAPACK's 1-norm estimate.
    rcond = dgecon(lu, anorm)[0] if info == 0 else 0.0
    if not rcond > 1e-12:
        raise SingularSolve(
            f"amplitude-constrained stiffness is singular (rcond {rcond:.1e}); "
            "lattice is likely disconnected"
        )

    # a and g as real kappa-coefficients: a = 1 + kappa alpha - kappa^2 beta.
    a = np.zeros((n, orders))
    a[:, 0] = 1.0
    g = np.zeros(orders)
    sum_b = Bdiag.sum()
    X = np.zeros((n, orders, orders))

    def residual(a_, g_):
        for d in range(orders):
            X[:, d, d:] = a_[:, :orders - d]
        res = Bdiag[:, None] * (g_ @ X) - L_row @ X.reshape(orders * n, orders)
        return res, float(np.max(np.abs(res) / h_pow))

    iterations = 0
    res, res_norm = residual(a, g)
    while res_norm >= RESIDUAL_TOL * scale:
        if iterations >= MAX_SWEEPS:
            raise NotConverged(
                f"slow manifold residual {res_norm:.3e} after {iterations} sweeps "
                f"(tolerance {RESIDUAL_TOL * scale:.3e})"
            )
        ghat = res.sum(axis=0) / (-sum_b)
        g = g + ghat
        t = res + Bdiag[:, None] * ghat[None, :]
        t[-1, :] = 0.0
        ahat = dgetrs(lu, piv, t)[0]
        ahat[-1, :] = -ahat[:-1, :].sum(axis=0)
        a = a + ahat
        iterations += 1
        res, res_norm = residual(a, g)

    c = float(g[2])
    if not c > 0:
        raise NotConverged(f"effective coefficient must be positive, got {c}")
    # Back to coefficients of k: kappa^d = i^d k^d.
    to_k = np.array([1.0, 1j, -1.0])
    return SlowManifold(
        a=a * to_k,
        alpha=a[:, 1].copy(),
        beta=-a[:, 2],
        g=g * to_k,
        c=c,
        iterations=iterations,
        residual_norm=res_norm,
    )


def closed_form_two_strand(spec: LatticeSpec) -> tuple[float, float]:
    """Closed-form (rho_bar, kappa_bar), s = p = 2 only; c = kappa_bar / rho_bar.

    rho_bar is the plain average of the four densities.  kappa_bar is the
    rational function of the four longitudinal elasticities kl[m, j] and
    the two cross elasticities kc_m = kappa_cross[m][0][1]:

        kappa_bar = [ kc0*kc1*(kl01 + kl00)*(kl11 + kl10)
                      + (kc0 + kc1) * kl00*kl01*kl10*kl11 * sum(1/kl) ]
                    / [ kc0*kc1*(kl00 + kl01 + kl10 + kl11)
                        + (kc0 + kc1)*(kl11 + kl01)*(kl10 + kl00) ]
    """
    if spec.s != 2 or spec.p != 2:
        raise KindUnsupported(
            f"closed form requires s = 2, p = 2, got s = {spec.s}, p = {spec.p}"
        )
    kl = spec.kappa_long
    kc0 = spec.kappa_cross[0, 0, 1]
    kc1 = spec.kappa_cross[1, 0, 1]
    prod_cross = kc0 * kc1
    sum_cross = kc0 + kc1
    num = prod_cross * (kl[0, 1] + kl[0, 0]) * (kl[1, 1] + kl[1, 0]) + sum_cross * np.prod(
        kl
    ) * np.sum(1.0 / kl)
    den = prod_cross * kl.sum() + sum_cross * (kl[1, 1] + kl[0, 1]) * (kl[1, 0] + kl[0, 0])
    return float(spec.rho.mean()), float(num / den)


def dispersion_eigenvalues(spec: LatticeSpec, k: float) -> np.ndarray:
    """All s*p generalized eigenvalues of (-L_k, B) at wavenumber k, ascending."""
    B = build_B(spec)
    Lk = build_Lk_exact(spec, k)
    try:
        return scipy.linalg.eigh(-Lk, B, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise EigenSolveError(f"generalized eigensolve failed at k = {k}: {exc}") from exc


def dispersion_fit(spec: LatticeSpec) -> float:
    """c from the acoustic branch lambda_0(k) = c k^2 + O(k^4) at small k.

    Richardson extrapolation (4 f(k) - f(2k)) / 3 of f = lambda_0 / k^2,
    at k = 1e-2 / (p h), cancels the k^2 term of f.  lambda_0 is the
    smallest eigenvalue of the mass-scaled standard problem
    B^-1/2 (-L_k) B^-1/2, which the Hermitian solver resolves to rounding
    of the largest one.  Uses the exact exponentials, not the truncation,
    so the result is an independent check on the slow-manifold coefficient.
    """
    k = 1e-2 / (spec.p * spec.h)
    root = spec.h * np.sqrt(spec.rho.reshape(-1))   # B^1/2

    def f(q):
        K = -build_Lk_exact(spec, q) / np.outer(root, root)
        return scipy.linalg.eigh(K, eigvals_only=True, subset_by_index=[0, 0])[0] / q ** 2

    return float((4.0 * f(k) - f(2.0 * k)) / 3.0)


def acoustic_fit(ks, lam0) -> float:
    """c from samples lambda_0(k) of the acoustic branch.

    Weights each sample by 1/k^4, i.e. least squares on lambda_0/k^2,
    which keeps the k^4 dispersion correction from biasing the smallest
    samples.
    """
    return float(np.mean(np.array(lam0) / np.asarray(ks, dtype=float) ** 2))
