import dataclasses

import numpy as np
import pytest

from latticebc import LatticeSpec


def make_spec(s, p, kappa_long, kappa_cross_pairs, rho, h=1.0, N=None):
    """Build a LatticeSpec from per-column cross-elasticity values.

    `kappa_cross_pairs` is (p, s, s) or, for s = 2, a length-p sequence of
    the single cross value per column.
    """
    kl = np.asarray(kappa_long, dtype=float).reshape(p, s)
    rho = np.asarray(rho, dtype=float).reshape(p, s)
    kc = np.asarray(kappa_cross_pairs, dtype=float)
    if kc.shape != (p, s, s):
        if s != 2:
            raise ValueError("scalar cross values only supported for two strands")
        vals = kc.reshape(p)
        kc = np.zeros((p, 2, 2))
        for m in range(p):
            kc[m, 0, 1] = kc[m, 1, 0] = vals[m]
    return LatticeSpec(s=s, p=p, h=h, N=N if N is not None else max(2 * p, 8),
                       kappa_long=kl, kappa_cross=kc, rho=rho)


def random_spec(rng, s, p, lo=0.1, hi=10.0, h=1.0, N=None):
    """Random connected spec with all parameters uniform in (lo, hi)."""
    kc = np.zeros((p, s, s))
    iu = np.triu_indices(s, 1)
    for m in range(p):
        vals = rng.uniform(lo, hi, size=len(iu[0]))
        kc[m][iu] = vals
        kc[m] += kc[m].T
    return LatticeSpec(s=s, p=p, h=h, N=N if N is not None else max(2 * p, 8),
                       kappa_long=rng.uniform(lo, hi, (p, s)),
                       kappa_cross=kc,
                       rho=rng.uniform(lo, hi, (p, s)))


def with_entry(spec, field, value):
    """Copy of spec with h, or one entry of a parameter array, set to value.

    A cross elasticity is set symmetrically, between strands 0 and 1 of
    column 1 (so the spec needs s >= 2 and p >= 2).
    """
    if field == "h":
        return dataclasses.replace(spec, h=value)
    arr = getattr(spec, field).copy()
    if field == "kappa_cross":
        arr[1, 0, 1] = arr[1, 1, 0] = value
    else:
        arr[1, 0] = value
    return dataclasses.replace(spec, **{field: arr})


def _loop_kappa_plus(spec, m, j):
    """Total elasticity at mass (m, j), by entry."""
    p = spec.p
    return (
        spec.kappa_long[(m - 1) % p, j]
        + spec.kappa_long[m % p, j]
        + spec.kappa_cross[m % p, :, j].sum()
    )


def _loop_steady(spec, rows):
    """Entry-by-entry quasi-steady equations, the reference for the stencil.

    Row (n, j), n = 1..rows, holds the zero-RHS force balance on mass
    (n, j) over the masses of columns 0..rows+1 in flat ordering, an
    (s*rows, s*(rows+2)) matrix whose rows sum to zero.
    """
    s = spec.s
    A = np.zeros((s * rows, s * (rows + 2)))
    for n in range(1, rows + 1):
        mn = n % spec.p
        mp = (n - 1) % spec.p
        for j in range(s):
            r = (n - 1) * s + j
            A[r, (n - 1) * s + j] += spec.kappa_long[mp, j]
            A[r, (n + 1) * s + j] += spec.kappa_long[mn, j]
            for i in range(s):
                if i != j:
                    A[r, n * s + i] += spec.kappa_cross[mn, i, j]
            A[r, n * s + j] -= _loop_kappa_plus(spec, n, j)
    return A


def transfer_matrix(spec):
    """Transfer matrix (x_0, x_1) -> (x_p, x_{p+1}) by one dense solve.

    Its entries grow like the growing modes to the power p, so it is a
    reference for short cells only.
    """
    s = spec.s
    A = _loop_steady(spec, spec.p)
    X = np.linalg.solve(A[:, 2 * s:], -A[:, : 2 * s])
    return np.vstack([np.eye(2 * s), X])[-2 * s:]


def lower_band(K, kd):
    """LAPACK lower band of the symmetric K, band[d, i] = K[i+d, i]."""
    n = K.shape[0]
    band = np.zeros((kd + 1, n))
    for d in range(min(kd + 1, n)):
        band[d, : n - d] = np.diagonal(K, -d)
    return band


def band_dense(band):
    """The symmetric matrix whose lower band is `band`."""
    n = band.shape[1]
    K = np.diag(band[0])
    for d in range(1, min(band.shape[0], n)):
        K += np.diag(band[d, : n - d], -d) + np.diag(band[d, : n - d], d)
    return K


def clamped_dense(spec):
    """Dense clamped stiffness K and mass diagonal from validate's band.

    The band holds the lower triangle of M^-1/2 K M^-1/2; this undoes the
    scaling.
    """
    from latticebc.validate import _interior_system

    band, mass, _ = _interior_system(spec)
    root = np.sqrt(mass)
    return root[:, None] * band_dense(band) * root[None, :], mass


@pytest.fixture
def uniform_spec():
    """Single-strand single-column homogeneous chain."""
    return make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[1.0]], h=1.0, N=8)


@pytest.fixture
def two_step_spec():
    """Single strand, two-periodic springs 1 and 3: series harmonic mean 1.5."""
    return make_spec(1, 2, [[1.0], [3.0]], np.zeros((2, 1, 1)), [[1.0], [1.0]], h=1.0, N=8)


@pytest.fixture
def demo2x2_spec():
    """The bundled heterogeneous two-strand two-periodic benchmark."""
    return make_spec(
        2, 2,
        kappa_long=[[2.0, 0.5], [0.1, 5.0]],
        kappa_cross_pairs=[1.0, 0.1],
        rho=[[1.0, 2.0], [4.0, 0.5]],
        h=1.0, N=16,
    )
