"""Cell map of the quasi-steady lattice, reduced onto the cell boundaries.

Holding the boundary columns 0 and p of a cell fixed, the clamped
interior columns 1..p-1 follow linearly, x_int = S0 x_0 + Sp x_p.  The
force balance at column p then becomes a three-term recurrence on the
cell-boundary columns,

    E x_{(k-1)p} + F x_{kp} + G x_{(k+1)p} = 0,
    E = diag(left_p) S0[last],  G = diag(right_p) Sp[first],
    F = diag(left_p) Sp[last] + onsite_p + diag(right_p) S0[first],

with E = G^T and F = F^T, so (E + mu F + mu^2 G) v = 0 is a
T-palindromic quadratic whose 2s eigenvalues pair as mu <-> 1/mu.
Empirically they split into s-1 decaying modes, a doubled eigenvalue 1
with the constant eigenvector and one Jordan partner, and s-1 growing
modes; the partner encodes a uniform macroscale gradient and is the key
ingredient of the boundary-condition construction.  Modes are reported
on u_0 = (x_0, x_1), the first two columns, as the boundary
construction needs them.  The reduction solves a clamped two-sided
problem, conditioned like the stiffness, so it stays accurate where the
growing modes pass the range of double precision.

Reversing the whole-cell lattice swaps E and G, so its decaying modes
are this lattice's growing ones, read from column p backwards.  Each
build therefore also forms the reversed lattice's cell map from the same
reduction and QZ, and keeps it for the next call: a right end after a
left end (``right_end_bc`` on an N with N % p == 0) costs no second
solve.  The memo holds one lattice only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dggev, dpbsv

from .errors import EigenSolveError, NoJordanChain, SingularSolve, UnexpectedSpectrum
from .lattice import LatticeSpec, _reversal_maps, build_steady_operator, column_blocks

# The doubled eigenvalue 1 is defective: rounding splits it by
# O(sqrt(delta)) but moves its mean only by O(delta), so the pair passes
# when its mean lies within this tolerance of 1.  Every other eigenvalue
# must lie farther from 1: near-degenerate stiffness pulls decaying and
# growing modes toward 1 and must surface as UnexpectedSpectrum, not be
# silently absorbed.
CENTER_TOL = 1e-6
_IMAG_TOL = 1e-7
# QZ leaves an absolute error of ~eps on each eigenvalue, so a decaying
# value below this floor has no resolvable sign or phase and is not
# judged for realness.
_REAL_FLOOR = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class CellMap:
    """Classified eigen-structure of the cell map, on u_0 = (x_0, x_1).

    The decaying values are usually real positive, but strongly coupled
    multi-strand lattices can produce genuine complex conjugate pairs
    (decaying oscillatory boundary layers); `spectrum_all_real` records
    which case occurred.  `stable_vectors` spans the real invariant
    subspace either way.  A map may be handed out again from the memo,
    so it holds read-only views of its arrays.
    """

    eigenvalues: np.ndarray          # all 2s, ascending by modulus
    stable_values: np.ndarray        # the s-1 decaying ones, complex dtype
    stable_vectors: np.ndarray       # (2s, s-1) real basis of their subspace
    generalized_vector: np.ndarray   # advances by 1 per cell, first component 0
    first_cell_gen: np.ndarray       # the same mode on columns 0..p-1
    spectrum_all_real: bool = True

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                view = value.view()
                view.setflags(write=False)
                object.__setattr__(self, name, view)

    @property
    def s(self) -> int:
        return self.generalized_vector.size // 2


def _boundary_reduction(spec: LatticeSpec):
    """Column maps C and the quadratic's coefficients E, F, G.

    C ((p+1)s, 2s) maps the boundary pair (x_0, x_p) to columns 0..p of
    a cell in equilibrium, so S0 and Sp are its halves; its interior rows
    come from one banded Cholesky solve of the clamped interior, driven
    by the springs from column 0 into column 1 and from column p into
    column p-1.
    """
    s, p = spec.s, spec.p
    n = (p - 1) * s
    # Column p's springs: by periodicity, its right one (kappa_long[0])
    # also joins column 0 to column 1 and its left one column p-1 to p.
    left, onsite, right = column_blocks(spec, p)
    band = build_steady_operator(spec, p - 1) if n else np.zeros(0)
    C = np.zeros(((p + 1) * s, 2 * s))
    C[:s, :s] = np.eye(s)
    C[p * s:, s:] = np.eye(s)
    if n:  # p = 1 has no interior
        strands = np.arange(s)
        rhs = np.zeros((n, 2 * s))
        rhs[strands, strands] = right
        rhs[n - s + strands, s + strands] = left
        _, C[s: p * s], info = dpbsv(band, rhs, lower=1)
        if info != 0:
            raise SingularSolve("clamped cell interior is not positive definite "
                                f"(dpbsv info {info}); lattice is likely disconnected")
    # Force balance at column p, whose neighbours are column p-1 of this
    # cell and column 1 of the next one.
    EF = left[:, None] * C[n: p * s]
    FG = right[:, None] * C[s: 2 * s]
    return C, EF[:, :s], EF[:, s:] + onsite + FG[:, :s], FG[:, s:]


def _linearisation(E, F, G):
    """Pencil (L, M) of E + mu F + mu^2 G in z = (v, mu v).

    Growing modes that overflow become infinite eigenvalues (beta = 0);
    the kept columns stay finite.
    """
    s = E.shape[0]
    L = np.zeros((2 * s, 2 * s))
    L[:s, s:] = np.eye(s)
    L[s:, :s] = -E
    L[s:, s:] = -F
    M = np.eye(2 * s)
    M[s:, s:] = G
    return L, M


# (key, CellMap) of the reversed whole-cell lattice of the last
# successful build, or None.
_reversed = None


def _key(s: int, p: int, kappa_long, kappa_cross) -> tuple:
    """What a cell map depends on: the elasticities, not rho, h or N."""
    return (s, p, kappa_long.tobytes(), kappa_cross.tobytes())


def _reset_memo() -> None:
    global _reversed
    _reversed = None


def build_cell_map(spec: LatticeSpec) -> CellMap:
    """Solve the cell-boundary quadratic and classify its eigen-structure.

    Raises UnexpectedSpectrum unless the mean of the pair at modulus
    positions s-1, s lies within CENTER_TOL of 1 and every other
    eigenvalue lies farther from 1, and NoJordanChain when the doubled
    eigenvalue carries no generalized eigenvector.  A lattice whose
    elasticities are the reversal of the previous build's is served from
    the memo.
    """
    global _reversed
    s, p = spec.s, spec.p
    key = _key(s, p, spec.kappa_long, spec.kappa_cross)
    memo = _reversed   # read once: another thread may replace it
    if memo is not None and memo[0] == key:
        return memo[1]
    C, E, F, G = _boundary_reduction(spec)
    alphar, alphai, beta, _, Z, _, info = dggev(
        *_linearisation(E, F, G), compute_vl=0, overwrite_a=1, overwrite_b=1
    )
    if info != 0:
        raise EigenSolveError(f"QZ of the cell-boundary pencil failed (dggev info {info})")
    # mu = alpha / beta by complex division; beta = 0 is an infinite eigenvalue.
    mu = np.full(2 * s, np.inf, dtype=complex)
    np.divide(alphar + 1j * alphai, beta, out=mu, where=beta != 0.0)
    order = np.argsort(np.abs(mu), kind="stable")
    mu, Z = mu[order], Z[:, order]
    centre, others = mu[s - 1: s + 1], np.delete(mu, [s - 1, s])
    # an infinite value there is an infinite eigenvalue, not a unit one
    if not np.isfinite(centre).all() or abs(centre.mean() - 1.0) > CENTER_TOL or np.any(
        np.abs(others - 1.0) <= CENTER_TOL
    ):
        raise UnexpectedSpectrum(
            f"expected a doubled eigenvalue at 1 at modulus positions {s - 1}, {s}: {mu}"
        )
    stable = mu[: s - 1]

    # Jordan partner x_{kp} = w + k*1, gauged by w[0] = 0.
    K = E + F + G
    rhs = (E - G).sum(axis=1)
    w = np.zeros(s)
    if s > 1:  # one strand: w = (0) and the block is empty
        _, _, w[1:], info = dgesv(K[1:, 1:], rhs[1:])
        if info != 0:
            raise SingularSolve(f"Jordan-partner block is singular (dgesv info {info}); "
                                "lattice is likely disconnected")
    res = np.linalg.norm(K @ w - rhs)
    if not res <= 1e-9 * np.abs(F).max() * (1.0 + np.abs(w).max()):
        raise NoJordanChain(f"no generalized eigenvector at 1, residual {res:.2e}")
    gen = C @ np.concatenate([w, w + 1.0])

    # Realness is judged relative to |mu| (decaying values can lie far
    # below any absolute imaginary-part floor and still be genuinely
    # complex), on the values above _REAL_FLOOR only.
    judged = stable[np.abs(stable) > _REAL_FLOOR]
    growing = np.full(s - 1, np.inf, dtype=complex)   # the partner of an underflowed 0
    np.divide(1.0, stable[::-1], out=growing, where=stable[::-1] != 0.0)
    eigenvalues = np.concatenate([stable, centre, growing])
    all_real = bool(np.all(np.abs(judged.imag) <= _IMAG_TOL * np.abs(judged))
                    and np.all(judged.real > 0.0))

    def classified(C, modes, gen):
        # LAPACK stores a conjugate pair's eigenvector z as the columns
        # (Re z, Im z), which span the pair's real invariant plane.  Unit
        # columns fix the gauge instead of LAPACK's largest-component
        # scaling.
        return CellMap(
            eigenvalues=eigenvalues,
            stable_values=stable,
            stable_vectors=C[: 2 * s] @ (modes / np.linalg.norm(modes, axis=0)),
            generalized_vector=gen[: 2 * s],
            first_cell_gen=gen[: p * s],
            spectrum_all_real=all_real,
        )

    # The reversed lattice sees columns p..0 of this cell as its 0..p.
    # The pairing mu <-> 1/mu makes its decaying modes the growing ones
    # here, in reverse order (its eigenvalues and verdict are the same),
    # and its Jordan partner is -gen, re-gauged to first entry 0.  It is
    # the reversal of this lattice on any N with N % p == 0.
    spring, point = _reversal_maps(p, 0)
    back = gen.reshape(p + 1, s)[::-1].ravel()
    _reversed = (
        _key(s, p, spec.kappa_long[spring], spec.kappa_cross[point]),
        classified(C.reshape(p + 1, s, 2 * s)[::-1].reshape(-1, 2 * s), Z[:, :s:-1],
                   back[0] - back),
    )
    return classified(C, Z[:, : s - 1], gen)
