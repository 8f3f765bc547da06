"""Validation of the macroscale model against the full microscale problem.

The reference computation is the slowest eigenmode of the clamped
(zero-Dirichlet) microscale lattice over the whole domain.  It is
compared with the slowest mode of the macroscale wave equation
U_tt = c U_xx under (a) the derived Robin conditions and (b) naive
zero-Dirichlet conditions, sampled on the lattice columns.  The interior
error deliberately excludes one cell at each end: the macroscale PDE
cannot resolve the boundary layers and is not supposed to.

Also provides the spectral property suite of the cell operator pair
(-L_0, B): symmetry, zero row sums, positive semidefiniteness, a simple
zero eigenvalue for connected lattices, and a positive spectral gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import LinearOperator

from .boundary import MacroBC, MacroBCKind
from .errors import EigenSolveError, KindUnsupported, NoRootInBracket, SpecValidationError
from .homogenize import SlowManifold
from .lattice import LatticeSpec, build_B, build_L0, build_steady_operator


@dataclass
class ModeComparison:
    """Slowest microscale and macroscale modes on the same grid.

    Stored modes are normalized to unit maximum absolute strand average
    and sign-aligned to the microscale mode; the interior errors are
    computed after a least-squares scalar fit of each macroscale mode to
    the microscale strand average over the interior window (eigenvectors
    carry no intrinsic scale).
    """

    n_grid: np.ndarray
    x_grid: np.ndarray
    micro_mode: np.ndarray        # (N+1, s)
    micro_avg: np.ndarray         # (N+1,)
    macro_robin: np.ndarray       # (N+1,)
    macro_dirichlet: np.ndarray   # (N+1,)
    lambda_micro: float
    lambda_robin: float
    lambda_dirichlet: float
    interior_error_robin: float
    interior_error_dirichlet: float
    window: tuple                 # inclusive column range used for errors
    micro_residual: float         # relative eigenpair residual of the micro mode


@dataclass
class SpectrumReport:
    """Numerical checks of the cell operator pair (-L_0, B)."""

    symmetry_defect: float
    max_row_sum: float
    min_eigenvalue: float
    zero_multiplicity: int
    spectral_gap: float
    min_rayleigh: float
    scale: float                  # max(1, ||L_0||_F), the stiffness scale of the bounds
    eigenvalues: np.ndarray = field(repr=False)

    def passed(self) -> bool:
        return (
            self.symmetry_defect <= 1e-12 * self.scale
            and self.max_row_sum <= 1e-12
            and self.min_eigenvalue >= -1e-10 * self.scale
            and self.zero_multiplicity == 1
            and self.spectral_gap > 0.0
            and self.min_rayleigh >= -1e-12
        )


def _interior_system(spec: LatticeSpec):
    """Mass-scaled clamped stiffness over masses n = 1..N-1, as a band.

    Returns (band, mass): band (s+1, s(N-1)) is the lower band of
    K~ = M^-1/2 K M^-1/2 in LAPACK storage, band[d, i] = K~[i+d, i], from
    the band of build_steady_operator; mass is the diagonal of M.
    """
    s, N = spec.s, spec.N
    mass = spec.h ** 2 * spec.rho[np.arange(1, N) % spec.p].ravel()
    band = build_steady_operator(spec, N - 1)
    scale = 1.0 / np.sqrt(mass)
    padded = np.concatenate([scale, np.zeros(s)])
    band *= scale * sliding_window_view(padded, mass.size)
    return band, mass


def microscale_slowest_mode(spec: LatticeSpec):
    """Smallest eigenpair of the clamped microscale lattice.

    K = -S is symmetric positive definite for a valid spec (positive
    longitudinal springs, both ends clamped), so the slowest mode is the
    eigenvalue nearest zero: shift-invert at sigma = 0 finds it alone.
    It runs in standard mode on K~ = M^-1/2 K M^-1/2, which has the same
    eigenvalues, with one banded Cholesky factor of K~ as the inverse;
    the vector maps back by w = M^-1/2 v~.  K~ keeps the non-positive
    off-diagonals of K, so its lowest eigenvector can be taken
    non-negative and the positive start vector sqrt(mass) always
    overlaps it.

    Returns (lambda, w, residual): w of shape (N+1, s), zero at n = 0
    and N, and the relative eigenpair residual
    ||Kw - lambda Mw|| / (||Kw|| + |lambda| ||Mw||).
    """
    if spec.N < 2:
        raise ValueError(f"need N >= 2 intervals, got {spec.N}")
    band, mass = _interior_system(spec)
    size = mass.size
    root = np.sqrt(mass)

    def apply(v):
        return dsbmv(spec.s, 1.0, band, v, lower=1)

    try:
        if size <= 2:  # ARPACK needs k < n
            lam, vecs = scipy.linalg.eig_banded(band, lower=True, select="i", select_range=(0, 0))
        else:
            factor, info = dpbtrf(band, lower=1)
            if info != 0:
                raise EigenSolveError(
                    "microscale eigensolve failed: the clamped stiffness is not positive "
                    f"definite (dpbtrf info {info})"
                )

            def solve(v):
                x, info = dpbtrs(factor, v, lower=1)
                if info != 0:
                    raise EigenSolveError(f"microscale eigensolve failed (dpbtrs info {info})")
                return x

            lam, vecs = scipy.sparse.linalg.eigsh(
                LinearOperator((size, size), matvec=apply, dtype=float),
                k=1, sigma=0, v0=root,
                OPinv=LinearOperator((size, size), matvec=solve, dtype=float),
            )
    except (RuntimeError, np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigenSolveError(f"microscale eigensolve failed: {exc}") from exc
    lam, v = float(lam[0]), vecs[:, 0]
    # Kw = M^1/2 K~ v~ and Mw = M^1/2 v~
    Kw, Mw = root * apply(v), root * v
    residual = np.linalg.norm(Kw - lam * Mw) / (np.linalg.norm(Kw) + abs(lam) * np.linalg.norm(Mw))
    w = np.zeros((spec.N + 1, spec.s))
    w[1: spec.N, :] = (v / root).reshape(spec.N - 1, spec.s)
    return lam, w, float(residual)


def _bc_coefficients(bc: MacroBC):
    if bc.kind == MacroBCKind.ROBIN:
        return 1.0, bc.d
    if bc.kind == MacroBCKind.NEUMANN:
        return 0.0, 1.0
    raise KindUnsupported(f"{bc.kind.value} condition not usable in the scalar eigenproblem")


def macroscale_slowest_mode(c: float, L: float, bc0: MacroBC, bcL: MacroBC, x_grid):
    """Slowest mode of U_tt = c U_xx under homogeneous end conditions.

    Modes have the form U = sin(q x + phi) with lambda = c q^2.  The left
    condition fixes phi(q); the right condition becomes a scalar root
    problem in q, solved by bracket scanning and bisection for the
    smallest positive root below 3 pi / L.
    """
    if not c > 0:
        raise ValueError(f"need a positive coefficient, got c = {c}")
    a0u, a0x = _bc_coefficients(bc0)
    aLu, aLx = _bc_coefficients(bcL)

    def phi(q):
        return np.arctan2(-a0x * q, a0u)

    def g(q):
        th = q * L + phi(q)
        return aLu * np.sin(th) + aLx * q * np.cos(th)

    q_hi = 3.0 * np.pi / L
    qs = np.linspace(q_hi * 1e-6, q_hi, 6001)
    vals = g(qs)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_change.size == 0:
        raise NoRootInBracket(f"no macroscale eigen-root in (0, {q_hi:g})")
    i = sign_change[0]
    lo, hi = qs[i], qs[i + 1]
    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if g_lo * g_mid <= 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    root = 0.5 * (lo + hi)
    x = np.asarray(x_grid, dtype=float)
    mode = np.sin(root * x + phi(root))
    return float(c * root ** 2), mode


def _unit_max(v: np.ndarray) -> np.ndarray:
    m = np.max(np.abs(v))
    return v / m if m > 0 else v


def compare_modes(spec: LatticeSpec, sm: SlowManifold, bc0: MacroBC, bcL: MacroBC) -> ModeComparison:
    """Slowest-mode comparison; interior window excludes one cell per end.

    Raises SpecValidationError unless N > 2p: a window of one column
    would compare a single point and report an error of exactly 0.
    """
    N, h, p = spec.N, spec.h, spec.p
    lo, hi = p, N - p
    if hi - lo < 1:
        raise SpecValidationError(
            [f"interval count N = {N} must exceed 2p = {2 * p}: "
             "the interior window needs at least two columns"]
        )
    lam_mic, w, residual = microscale_slowest_mode(spec)
    avg = w.mean(axis=1)
    # Deterministic orientation: largest-magnitude average positive.
    if avg[np.argmax(np.abs(avg))] < 0:
        avg, w = -avg, -w
    scale = np.max(np.abs(avg))
    avg, w = avg / scale, w / scale

    n_grid = np.arange(N + 1)
    x = n_grid * h
    L = N * h
    c = sm.c
    dirich = MacroBC(MacroBCKind.ROBIN, "left", 0.0, None, ())
    lam_rob, m_rob = macroscale_slowest_mode(c, L, bc0, bcL, x)
    lam_dir, m_dir = macroscale_slowest_mode(
        c, L, dirich, MacroBC(MacroBCKind.ROBIN, "right", 0.0, None, ()), x
    )

    win = slice(lo, hi + 1)

    def align_and_error(mode):
        mode = _unit_max(mode)
        denom = float(mode[win] @ mode[win])
        a = float(mode[win] @ avg[win]) / denom if denom > 0 else 0.0
        err = np.linalg.norm(avg[win] - a * mode[win]) / np.linalg.norm(avg[win])
        return np.sign(a) * mode if a != 0 else mode, float(err)

    m_rob, err_rob = align_and_error(m_rob)
    m_dir, err_dir = align_and_error(m_dir)

    return ModeComparison(
        n_grid=n_grid,
        x_grid=x,
        micro_mode=w,
        micro_avg=avg,
        macro_robin=m_rob,
        macro_dirichlet=m_dir,
        lambda_micro=lam_mic,
        lambda_robin=lam_rob,
        lambda_dirichlet=lam_dir,
        interior_error_robin=err_rob,
        interior_error_dirichlet=err_dir,
        window=(lo, hi),
        micro_residual=residual,
    )


def spectrum_checks(spec: LatticeSpec, n_rayleigh: int = 10) -> SpectrumReport:
    """Property suite for the cell operator pair (-L_0, B)."""
    L0 = build_L0(spec)
    B = build_B(spec)
    scale = max(1.0, np.linalg.norm(L0, "fro"))
    sym = float(np.max(np.abs(L0 - L0.T)))
    row = float(np.max(np.abs(L0.sum(axis=1))) / scale)
    lam = scipy.linalg.eigh(-L0, B, eigvals_only=True)
    zero_tol = 1e-10 * max(1.0, lam[-1])
    mult = int(np.sum(np.abs(lam) <= zero_tol))
    # a single-mass cell has no oscillatory modes at all: the zero mode
    # is trivially separated
    gap = float(lam[1] - lam[0]) if lam.size > 1 else np.inf
    rng = np.random.default_rng(0)
    quotients = []
    for _ in range(n_rayleigh):
        v = rng.standard_normal(L0.shape[0])
        quotients.append(float(v @ (-L0) @ v / (v @ B @ v)))
    return SpectrumReport(
        symmetry_defect=sym,
        max_row_sum=row,
        min_eigenvalue=float(lam[0]),
        zero_multiplicity=mult,
        spectral_gap=gap,
        min_rayleigh=min(quotients),
        scale=scale,
        eigenvalues=lam,
    )
