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


def clamped_dense(spec):
    """Dense clamped stiffness K and mass diagonal from validate's band.

    The band holds the lower triangle of M^-1/2 K M^-1/2; this undoes the
    scaling and fills both triangles.
    """
    from latticebc.validate import _interior_system

    band, mass = _interior_system(spec)
    n = mass.size
    scaled = np.diag(band[0])
    for d in range(1, band.shape[0]):
        scaled += np.diag(band[d, : n - d], -d) + np.diag(band[d, : n - d], d)
    root = np.sqrt(mass)
    return root[:, None] * scaled * root[None, :], mass


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
