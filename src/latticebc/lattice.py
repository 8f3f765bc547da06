"""Lattice description and assembly of the operators every stage uses.

Index conventions
-----------------
A cell has s strands (index j = 0..s-1) and p longitudinal sub-cell
columns (index m = 0..p-1).  The flat ordering of the s*p masses in a
cell is ``flat = m*s + j``: all strands of column 0, then all strands of
column 1, and so on.  A global longitudinal index n maps into the cell
arrays through ``m = n mod p``.

Parameters
----------
``kappa_long[m][j]``   longitudinal elasticity between masses (m, j) and
                       (m+1, j) along strand j,
``kappa_cross[m][i][j]`` cross elasticity linking strands i and j at
                       column m (symmetric, zero diagonal),
``rho[m][j]``          density of mass (m, j).

The operators built here: the diagonal mass matrix B = h^2 diag(rho),
the Fourier-space stiffness L_k (truncated, as real coefficients of
powers of ik, and exact for the dispersion oracle), its k=0 limit L_0,
and the banded stiffness of the clamped quasi-steady interior.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SpecValidationError


def _real_array(value):
    """value as a read-only float array, or None if an entry is not a real
    number (a bool or a string, say, which np.array would convert)."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        value = np.array(value, dtype=object)
        if not all(issubclass(t, numbers.Real) and not issubclass(t, bool)
                   for t in set(map(type, value.flat))):
            return None
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LatticeSpec:
    """Complete description of a periodic spring-mass lattice.

    `N` is the number of longitudinal intervals of the finite domain
    (masses sit at n = 0..N); it only enters domain-level computations,
    not the cell-level operators.

    A spec that exists is valid: construction raises TypeError unless s,
    p and N are integers, h a real number and the arrays hold real
    numbers only, OverflowError naming the field when h or an array entry
    is an integer too large for a float, and SpecValidationError carrying
    `validate_spec`'s messages when that list is not empty.
    """

    s: int
    p: int
    h: float
    N: int
    kappa_long: np.ndarray
    kappa_cross: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for name in ("s", "p", "N"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.h, numbers.Real) or isinstance(self.h, bool):
            raise TypeError(f"h must be a real number, got {self.h!r}")
        for name in ("h", "kappa_long", "kappa_cross", "rho"):
            value = getattr(self, name)
            try:
                value = float(value) if name == "h" else _real_array(value)
            except OverflowError as exc:  # an integer too large for a float
                raise OverflowError(f"{name}: {exc}") from exc
            if value is None:
                raise TypeError(f"{name} must hold real numbers only")
            object.__setattr__(self, name, value)
        violations = validate_spec(self)
        if violations:
            raise SpecValidationError(violations)

    @property
    def n_cell(self) -> int:
        """Number of masses in one cell."""
        return self.s * self.p


class BCKind(str, Enum):
    DIRICHLET = "dirichlet"
    FLUX = "flux"
    ROBIN_LIKE = "robin_like"
    CAUCHY_LIKE = "cauchy_like"
    MIXED = "mixed"


@dataclass(frozen=True)
class MicroBCSpec:
    """Microscale boundary data at one end of the domain.

    values by kind (per strand j unless noted; `value_shape` gives the
    shapes and `data_rows` the constraints on the first two columns):
      dirichlet    prescribed displacements b_j
      flux         prescribed gradients d_j: u_inner - u_boundary = h*d_j,
                   the difference pointing into the domain
      robin_like   pairs (d_j, b_j): u_b + (d_j/h)(u_in - u_b) = b_j
      cauchy_like  both values on strand 0: the boundary mass and its
                   inward neighbour (two strands only)
      mixed        left: (b[0,0], b[1,0], b[0,1]); right: one datum that
                   adds no condition (two strands only)

    Construction raises ValueError on an unknown kind or side, or on
    values that are not all finite real numbers.
    """

    kind: BCKind
    values: np.ndarray
    side: str = "left"

    def __post_init__(self):
        object.__setattr__(self, "kind", BCKind(self.kind))
        arr = _real_array(self.values)
        if arr is None or not np.isfinite(arr).all():
            raise ValueError(f"values must be finite real numbers, got {self.values!r}")
        object.__setattr__(self, "values", arr)
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")

    def value_shape(self, s: int) -> tuple:
        """Shape that `values` must have on a lattice of s strands."""
        if self.kind == BCKind.MIXED:
            return (3,) if self.side == "left" else (1,)
        return {BCKind.ROBIN_LIKE: (s, 2), BCKind.CAUCHY_LIKE: (2,)}.get(self.kind, (s,))

    def data_rows(self, s: int, h: float):
        """The data as rows on u_0 = (x_0, x_1), the first two columns.

        Returns (R, scale, labels): datum r states R[r] @ u_0 =
        scale[r] * datum_r, and labels[r] names it.  Each row is anchored
        at one entry of u_0, which its label names by column and strand.
        """
        eye = np.eye(2 * s)
        anchors = {BCKind.CAUCHY_LIKE: [0, s], BCKind.MIXED: [0, s, 1]}.get(
            self.kind, list(range(s)))
        R, scale = eye[anchors], np.ones(len(anchors))
        if self.kind == BCKind.FLUX:
            R, scale = eye[s:] - R, np.full(s, h)
        elif self.kind == BCKind.ROBIN_LIKE:
            w = self.values[:, :1] / h
            R = (1.0 - w) * R + w * eye[s:]
        column = ("0", "1") if self.side == "left" else ("N", "N-1")
        name = "d" if self.kind == BCKind.FLUX else "b"
        labels = tuple(f"{name}[{column[i // s]},{i % s}]" for i in anchors)
        return R, scale, labels

    @staticmethod
    def dirichlet_zero(s: int, side: str = "left") -> "MicroBCSpec":
        return MicroBCSpec(BCKind.DIRICHLET, np.zeros(s), side)


def validate_spec(spec: LatticeSpec) -> list:
    """Collect invariant violations; empty list means a valid spec.

    Besides finite values, positive counts, spacing, elasticities and
    densities, and the array shapes, every mass h^2 * rho must be a
    normal positive float: an overflow or a subnormal there would reach
    the solves as an inf or a rounding-level pivot.  Construction runs
    this on every spec, so the messages are built only for what is broken.
    """
    v = [] if math.isfinite(spec.h) else ["non-finite h"]
    v += [f"non-finite {name}" for name in ("kappa_long", "kappa_cross", "rho")
          if not np.isfinite(getattr(spec, name)).all()]
    if spec.s < 1:
        v.append(f"strand count s={spec.s} must be >= 1")
    if spec.p < 1:
        v.append(f"periodicity p={spec.p} must be >= 1")
    if not spec.h > 0:
        v.append(f"spacing h={spec.h} must be positive")
    if spec.N < 2:
        v.append(f"interval count N={spec.N} must be >= 2")
    if spec.s < 1 or spec.p < 1:
        return v
    s, p = spec.s, spec.p
    if spec.kappa_long.shape != (p, s):
        v.append(f"kappa_long shape {spec.kappa_long.shape} != ({p}, {s})")
    if spec.rho.shape != (p, s):
        v.append(f"rho shape {spec.rho.shape} != ({p}, {s})")
    if spec.kappa_cross.shape != (p, s, s):
        v.append(f"kappa_cross shape {spec.kappa_cross.shape} != ({p}, {s}, {s})")
    if v:
        return v
    # One message per broken entry (m, j), then per broken column m of
    # kappa_cross; argwhere keeps (column, strand) order.
    entry = ("nonpositive longitudinal elasticity kappa_long", "nonpositive density rho")
    bad = np.array([spec.kappa_long <= 0, spec.rho <= 0])
    if bad.any():
        v += [f"{entry[k]}[{m}][{j}]" for m, j, k in np.argwhere(np.moveaxis(bad, 0, -1))]
    kc = spec.kappa_cross
    column = ("asymmetric cross elasticity", "nonzero self elasticity",
              "negative cross elasticity")
    bad = np.array([
        (kc != kc.transpose(0, 2, 1)).any(axis=(1, 2)),
        kc.diagonal(0, 1, 2).any(axis=1),
        (kc < 0.0).any(axis=(1, 2)),
    ])
    if bad.any():
        v += [f"{column[k]} at column {m}" for m, k in np.argwhere(bad.T)]
    # In Python floats, which overflow to inf and underflow without a warning.
    rho_min = float(spec.rho.min())
    if rho_min > 0.0:
        hh = spec.h * spec.h
        lo, hi = hh * rho_min, hh * float(spec.rho.max())
        if not (sys.float_info.min <= lo and hi <= sys.float_info.max):
            v.append(f"masses h^2*rho span [{lo:.3g}, {hi:.3g}], "
                     "outside the normal positive floats")
    return v


def column_blocks(spec: LatticeSpec, n: np.ndarray):
    """Nearest-neighbour stencil of the force balance on global columns n.

    Returns (left, onsite, right): the couplings diag(left) to column n-1
    and diag(right) to column n+1, each (..., s), and the on-site block
    kappa_cross.T - diag(total elasticity), (..., s, s).  Every lattice
    operator is assembled from these blocks.
    """
    p = spec.p
    left = spec.kappa_long[(n - 1) % p]
    right = spec.kappa_long[n % p]
    cross = spec.kappa_cross[n % p]
    onsite = np.swapaxes(cross, -1, -2).copy()
    strands = np.arange(spec.s)
    onsite[..., strands, strands] -= left + right + cross.sum(axis=-2)
    return left, onsite, right


def build_B(spec: LatticeSpec) -> np.ndarray:
    """Diagonal mass matrix h^2 * diag(rho) in flat cell ordering."""
    return np.diag(spec.h ** 2 * spec.rho.reshape(-1))


def _periodic_operator(spec: LatticeSpec, epos, eneg, dtype) -> np.ndarray:
    """Periodic cell stiffness with weighted links between columns.

    The links to the next and previous columns carry the weights epos and
    eneg: scalars, or coefficient arrays whose trailing axis the result
    gains; on-site blocks fill the leading coefficient only.  For p <= 2
    both links of a mass land on one column (for p = 1 on the mass
    itself), so they are added in turn, right link first.
    """
    s, p = spec.s, spec.p
    left, onsite, right = column_blocks(spec, np.arange(p))
    tail = np.shape(epos)
    L = np.zeros((p, s, p, s) + tail, dtype=dtype)
    m = np.arange(p)
    L.reshape(p, s, p, s, -1)[m, :, m, :, 0] = onsite
    m, j = m[:, None], np.arange(s)[None, :]
    L[m, j, (m + 1) % p, j] += np.multiply.outer(right, epos)
    L[m, j, (m - 1) % p, j] += np.multiply.outer(left, eneg)
    return L.reshape((s * p, s * p) + tail)


def build_L0(spec: LatticeSpec) -> np.ndarray:
    """Zero-wavenumber stiffness; symmetric with zero row sums."""
    return _periodic_operator(spec, 1.0, 1.0, float)


def build_Lk(spec: LatticeSpec) -> np.ndarray:
    """Fourier-space stiffness truncated at second order, in powers of ik.

    Returns the real (s*p, s*p, 3) array of coefficient matrices L_d with
    L(k) = sum_d (ik)^d L_d: the links carry exp(+-ikh) truncated to
    1 +- h (ik) + h^2 (ik)^2 / 2, whose coefficients are all real.  L(k)
    is Hermitian at real k, and L_0 equals build_L0.
    """
    h = spec.h
    return _periodic_operator(spec, np.array([1.0, h, 0.5 * h * h]),
                              np.array([1.0, -h, 0.5 * h * h]), float)


def build_Lk_exact(spec: LatticeSpec, k: float) -> np.ndarray:
    """Fourier-space stiffness with exact exponentials at wavenumber k.

    Kept independent of the truncated path so the dispersion computation
    can serve as an oracle for the low-k expansion.
    """
    epos = np.exp(1j * k * spec.h)
    eneg = np.exp(-1j * k * spec.h)
    return _periodic_operator(spec, epos, eneg, complex)


def build_steady_operator(spec: LatticeSpec, rows: int) -> np.ndarray:
    """Clamped quasi-steady stiffness K = -S on columns 1..rows, as a band.

    Columns 0 and rows+1 are held fixed, so K is the symmetric
    block-tridiagonal stiffness of the masses n = 1..rows in flat
    ordering, positive definite for a valid spec, with bandwidth s.
    Returns its lower band (s+1, s*rows) in LAPACK storage,
    band[d, i] = K[i+d, i]; entries past the last row are zero.
    """
    if rows < 1:
        raise ValueError(f"rows={rows} must be >= 1")
    s = spec.s
    _, onsite, right = column_blocks(spec, np.arange(1, rows + 1))
    band = np.zeros((s + 1, rows, s))
    for d in range(s):  # band[d, n, j] = -onsite[n, j+d, j]
        band[d, :, : s - d] = -np.diagonal(onsite, -d, 1, 2)
    band[s, :-1] = -right[:-1]   # column n to n+1
    return band.reshape(s + 1, s * rows)


def _reversal_maps(p: int, N: int):
    """Index maps (spring, point) of the lattice seen from n' = N - n.

    A longitudinal spring between columns n and n+1 becomes the spring
    between reversed columns N-n-1 and N-n; point quantities at column n
    move to column N-n.  Reversed column m takes its spring from cell
    column spring[m] and its point quantities from point[m].
    """
    m = np.arange(p)
    return (N - m - 1) % p, (N - m) % p


def reversed_spec(spec: LatticeSpec) -> LatticeSpec:
    """The lattice seen from the right end, n' = N - n."""
    spring, point = _reversal_maps(spec.p, spec.N)
    return LatticeSpec(
        s=spec.s,
        p=spec.p,
        h=spec.h,
        N=spec.N,
        kappa_long=spec.kappa_long[spring],
        kappa_cross=spec.kappa_cross[point],
        rho=spec.rho[point],
    )
