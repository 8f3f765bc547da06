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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dnrm2, dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .boundary import MacroBC, MacroBCKind
from .errors import EigenSolveError, KindUnsupported, NoRootInBracket, SpecValidationError
from .homogenize import SlowManifold
from .lattice import LatticeSpec, build_L0, build_steady_operator, mass_scaled

N_RAYLEIGH = 10   # random Rayleigh quotients of spectrum_checks (seeded)
MAX_SOLVES = 60   # cap of the inverse iteration in microscale_slowest_mode
CERTIFIED_REL = 1e-8   # relative width of the certified lambda_min bracket


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


def _interior_system(spec: LatticeSpec):
    """Mass-scaled clamped stiffness over masses n = 1..N-1, as a band.

    Returns (band, mass, gershgorin): band (s+1, s(N-1)) is the lower band
    of K~ = M^-1/2 K M^-1/2 in LAPACK storage, band[d, i] = K~[i+d, i];
    mass is the diagonal of M; gershgorin bounds the row sums of |K~|.
    Band and masses repeat with the cell, so one period is built, columns
    1..p with their links to the next column (the band of
    build_steady_operator on p+1 columns), and tiled; the link out of
    column N-1 is dropped.  The period's row sums with both links bound
    every row of the clamped domain.
    """
    s, p, N = spec.s, spec.p, spec.N
    size = s * p
    mass = spec.h ** 2 * spec.rho[np.arange(1, p + 2) % p].ravel()
    scale = 1.0 / np.sqrt(mass)
    period = build_steady_operator(spec, p + 1)[:, :size]
    period *= scale[np.add.outer(np.arange(s + 1), np.arange(size))] * scale[:size]
    # the middle period of three holds every row with both its links
    row_sums = dsbmv(s, 1.0, np.tile(np.abs(period), 3), np.ones(3 * size), lower=1)
    reps = -(-(N - 1) // p)
    band = np.tile(period.T, (reps, 1)).T[:, : s * (N - 1)]   # Fortran order
    band[s, -s:] = 0.0
    return band, np.tile(mass[:size], reps)[: s * (N - 1)], float(row_sums[size: 2 * size].max())


def _shifted_factor(band: np.ndarray, sigma: float):
    """dpbtrf of the band with sigma taken off its diagonal: (factor, info)."""
    shifted = np.array(band, order="F")
    shifted[0] -= sigma
    return dpbtrf(shifted, lower=1, overwrite_ab=1)


def microscale_slowest_mode(spec: LatticeSpec):
    """Smallest eigenpair of the clamped microscale lattice, certified.

    K = -S is symmetric positive definite for a valid spec, so the
    slowest mode is the lowest eigenpair of K~ = M^-1/2 K M^-1/2 (the
    eigenvalues of the pencil (K, M); w = M^-1/2 v~).  It comes from
    inverse iteration on banded Cholesky factors of K~ - sigma I
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4) from sigma = 0
    and the clamped half-wave sqrt(mass) sin(pi n / N) on every strand.
    K~ keeps the non-positive off-diagonals of K, so its lowest
    eigenvector is non-negative, and that positive start overlaps it;
    on a near-uniform lattice it is close to the mode already.

    Each iterate x gives theta = x^T K~ x and r = ||K~x - theta x||.
    Temple's bound lambda_min >= theta - r^2 / (lambda_2 - theta) (Temple
    1928, Kato 1949), with the gap guessed as theta / 2, aims the next
    shift at theta - 2 r^2 / theta, but never above theta (1 - 1e-8 / 2),
    so a shift that lands in the certified window is the certificate.
    After the first refused factor (a close cluster, or a start that
    favours a higher mode) the shift is theta - 2r, stepping four times
    further down after each refusal in a row, or bisects between success
    and failure when that step is not below the failure.  A shift is
    taken only when it at least halves theta - sigma and dpbtrf succeeds
    there, which proves it lies below lambda_min.

    The loop stops when r = 0, or when r <= 64 eps times the Gershgorin
    bound of K~ and either the iterate was solved at sigma >=
    theta (1 - 1e-8) or r no longer halves, and keeps the iterate of
    least r.  Before returning, a factor at some sigma >= lambda (1 - 1e-8)
    must have succeeded (one more dpbtrf if needed), so lambda_min lies
    in (sigma, lambda] up to rounding.  A failed first factor, MAX_SOLVES
    solves, a dpbtrs info != 0, a solve whose norm leaves the float range
    or a failed certificate (rounding in K~, ~eps ||K~||, above 1e-8
    lambda) raise EigenSolveError.  The norms are BLAS's scaled dnrm2, so
    no square overflows.  The benchmark lattices take three factors and
    three solves.

    Returns (lambda, w, residual): w of shape (N+1, s), zero at n = 0
    and N, and the relative eigenpair residual
    ||Kw - lambda Mw|| / (||Kw|| + |lambda| ||Mw||).
    """
    s, N = spec.s, spec.N
    band, mass, gershgorin = _interior_system(spec)
    root = np.sqrt(mass)
    factor, info = _shifted_factor(band, 0.0)
    if info != 0:
        raise EigenSolveError(
            "microscale eigensolve failed: the clamped stiffness is not positive "
            f"definite (dpbtrf info {info})"
        )
    tol = 64 * np.finfo(float).eps * gershgorin
    x = root * np.repeat(np.sin(np.pi / N * np.arange(1, N)), s)
    sigma, x = 0.0, x / dnrm2(x)
    # sigma < lambda_min <= fail: dpbtrf succeeded at sigma and failed at fail
    best, r_prev, fail = None, np.inf, np.inf
    misses = 0   # factors refused since the last one that succeeded
    for _ in range(MAX_SOLVES):
        y, info = dpbtrs(factor, x, lower=1)
        if info != 0:
            raise EigenSolveError(f"microscale eigensolve failed (dpbtrs info {info})")
        norm = dnrm2(y)   # about 1 / (lambda - sigma): inf past the largest float
        if not 0.0 < norm < math.inf:
            raise EigenSolveError("microscale eigensolve failed: the solve at sigma = "
                                  f"{sigma:.17g} leaves the float range")
        x = y / norm
        Kx = dsbmv(s, 1.0, band, x, lower=1)
        theta = float(x @ Kx)
        r = dnrm2(Kx - theta * x)
        if best is None or r < best[0]:
            best = (r, theta, x, Kx)
        certified = sigma >= theta * (1 - CERTIFIED_REL)
        if r == 0.0 or (r <= tol and (certified or r > r_prev / 2)):
            break
        r_prev = r
        if fail == np.inf:
            shift = min(theta - 2 * r * r / theta, theta * (1 - CERTIFIED_REL / 2))
        else:
            # An iterate still near a higher mode of a close cluster puts
            # theta - 2r above lambda_min: each refusal in a row steps four
            # times further down, and bisecting (sigma, fail) takes over
            # when the step does not get below the refused shift.
            shift = theta - 2 * r * 4 ** misses
            if shift >= fail:
                shift = (sigma + fail) / 2
        if 2 * shift >= sigma + min(theta, fail):  # halves the bracket
            trial, info = _shifted_factor(band, shift)
            if info == 0:
                factor, sigma, misses = trial, shift, 0
            else:
                fail, misses = shift, misses + 1
    else:
        raise EigenSolveError(
            f"microscale eigensolve failed: no convergence in {MAX_SOLVES} solves "
            f"(residual {best[0]:.3e}, tolerance {tol:.3e})"
        )
    _, lam, v, Kv = best
    floor = lam * (1 - CERTIFIED_REL)
    if sigma < floor:
        info = _shifted_factor(band, floor)[1]
        if info != 0:
            raise EigenSolveError(
                f"microscale eigensolve failed: lambda = {lam:.17g} is not certified smallest "
                f"(dpbtrf info {info} at sigma = {floor:.17g})"
            )
    # Kw = M^1/2 K~ v~ and Mw = M^1/2 v~
    Kw, Mw = root * Kv, root * v
    residual = dnrm2(Kw - lam * Mw) / (dnrm2(Kw) + abs(lam) * dnrm2(Mw))
    w = np.zeros((N + 1, s))
    w[1:N, :] = (v / root).reshape(N - 1, s)
    return lam, w, float(residual)


def _end_phase(bc: MacroBC):
    """(phi, |d|): U = sin(theta) meets the end condition where theta - phi(q)
    is a multiple of pi, and |phi'| <= |d| (0 at a Neumann end)."""
    if bc.kind == MacroBCKind.ROBIN:
        return (lambda q, d=bc.d: -math.atan(d * q)), abs(bc.d)
    if bc.kind == MacroBCKind.NEUMANN:  # not atan2(-q, 0): that is 0 at q = 0
        return (lambda q: -math.pi / 2), 0.0
    raise KindUnsupported(f"{bc.kind.value} condition not usable in the scalar eigenproblem")


def macroscale_slowest_mode(c: float, L: float, bc0: MacroBC, bcL: MacroBC, x_grid):
    """Slowest mode of U_tt = c U_xx under homogeneous end conditions.

    Modes are U = sin(q x + phi_0(q)), lambda = c q^2, and the right end
    holds where the phase F(q) = q L + phi_0(q) - phi_L(q) is a multiple
    of pi (Pruefer, Math. Ann. 95, 1926).  Each phase lies in
    [-pi/2, pi/2] and F' >= L - |d_0| - |d_L|.  When that is positive,
    F rises through the first multiple of pi above F(0) (pi, or 0 for
    Neumann-Robin, the quarter wave) exactly once on the bracket
    [0, (target - F(0) + pi) / L], where one brentq finds it; otherwise
    NoRootInBracket is raised rather than a branch guessed.
    """
    if not c > 0:
        raise ValueError(f"need a positive coefficient, got c = {c}")
    (phi0, d0), (phiL, dL) = _end_phase(bc0), _end_phase(bcL)
    if not d0 + dL < L:
        raise NoRootInBracket(f"|d_0| + |d_L| = {d0 + dL:g} is not below L = {L:g}: "
                              "the macroscale root is not unique on its bracket")
    start = phi0(0.0) - phiL(0.0)
    target = math.pi * (math.floor(start / math.pi) + 1)
    # Imported on first use: scipy.optimize adds about half again to the
    # package's import time, and only this function needs it.
    from scipy.optimize import brentq

    root = brentq(lambda q: q * L + phi0(q) - phiL(q) - target, 0.0,
                  (target - start + math.pi) / L, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    mode = np.sin(root * np.asarray(x_grid, dtype=float) + phi0(root))
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
    lam_rob, m_rob = macroscale_slowest_mode(c, L, bc0, bcL, x)
    # d_0 = d_L = 0: the phase equation's root is q = pi / L exactly
    lam_dir, m_dir = c * (math.pi / L) ** 2, np.sin(math.pi / L * x)

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


def spectrum_checks(spec: LatticeSpec) -> dict:
    """Property suite for the cell operator pair (-L_0, B), as a report.

    The eigenvalues come from the mass-scaled standard form.  `passed`
    holds every check to its bound, with ||L_0||_F (at least 1) as the
    stiffness scale of the symmetry and eigenvalue bounds.
    """
    L0 = build_L0(spec)
    scale = max(1.0, np.linalg.norm(L0, "fro"))
    sym = float(np.max(np.abs(L0 - L0.T)))
    row = float(np.max(np.abs(L0.sum(axis=1))) / scale)
    lam = scipy.linalg.eigh(mass_scaled(spec, -L0), eigvals_only=True)
    zero_tol = 1e-10 * max(1.0, lam[-1])
    mult = int(np.sum(np.abs(lam) <= zero_tol))
    # a single-mass cell has no oscillatory modes at all: the zero mode
    # is trivially separated
    gap = float(lam[1] - lam[0]) if lam.size > 1 else np.inf
    mass = spec.h ** 2 * spec.rho.reshape(-1)
    draws = np.random.default_rng(0).standard_normal((N_RAYLEIGH, spec.n_cell))
    rayleigh = float(min(v @ (-L0) @ v / ((mass * v) @ v) for v in draws))
    lam0 = float(lam[0])
    return {
        "symmetry_defect": sym,
        "max_row_sum": row,
        "min_eigenvalue": lam0,
        "zero_multiplicity": mult,
        "spectral_gap": gap,
        "min_rayleigh": rayleigh,
        "passed": bool(sym <= 1e-12 * scale and row <= 1e-12 and lam0 >= -1e-10 * scale
                       and mult == 1 and gap > 0.0 and rayleigh >= -1e-12),
    }
