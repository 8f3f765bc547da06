import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

from latticebc import (
    KindUnsupported,
    SingularSolve,
    SpecValidationError,
    build_B,
    build_L0,
    build_Lk,
    build_Lk_exact,
    closed_form_two_strand,
    construct_slow_manifold,
    dispersion_eigenvalues,
    dispersion_fit,
)

from latticebc import homogenize

from conftest import make_spec, random_spec, with_entry


class TestUniform:
    @pytest.mark.parametrize("kappa,rho,h", [(1.0, 1.0, 1.0), (3.0, 2.0, 1.0), (0.7, 5.0, 0.25)])
    def test_single_mass_cell(self, kappa, rho, h):
        spec = make_spec(1, 1, [[kappa]], np.zeros((1, 1, 1)), [[rho]], h=h)
        sm = construct_slow_manifold(spec)
        assert sm.c == pytest.approx(kappa / rho, rel=1e-12)
        assert np.max(np.abs(sm.alpha)) < 1e-12
        assert np.max(np.abs(sm.beta)) < 1e-12

    def test_uniform_multicolumn_multistrand(self):
        # equal springs and masses: no sub-cell structure at any (s, p)
        kc = np.full((3, 2, 2), 2.0)
        for m in range(3):
            np.fill_diagonal(kc[m], 0.0)
        spec = make_spec(2, 3, np.full((3, 2), 4.0), kc, np.full((3, 2), 2.0), h=0.5)
        sm = construct_slow_manifold(spec)
        assert np.max(np.abs(sm.alpha)) < 1e-12
        assert np.max(np.abs(sm.beta)) < 1e-12
        assert sm.c == pytest.approx(4.0 / 2.0, rel=1e-12)


class TestTwoStepChain:
    def test_hand_derived_shape_and_coefficient(self, two_step_spec):
        # By hand: springs 1 and 3 in series give c = 2*1*3/(1+3) = 1.5,
        # shape phases alpha = (-1/4, +1/4), no quadratic correction.
        sm = construct_slow_manifold(two_step_spec)
        assert sm.c == pytest.approx(1.5, rel=1e-12)
        assert np.allclose(sm.alpha, [-0.25, 0.25], atol=1e-12)
        assert np.allclose(sm.beta, [0.0, 0.0], atol=1e-12)

    def test_dispersion_agrees(self, two_step_spec):
        assert dispersion_fit(two_step_spec) == pytest.approx(1.5, rel=1e-4)


class TestClosedForm:
    def test_homogeneous_limit(self):
        spec = make_spec(2, 2, np.ones((2, 2)), [1.0, 1.0], np.ones((2, 2)))
        assert closed_form_two_strand(spec) == pytest.approx((1.0, 1.0))

    def test_demo_density_average(self, demo2x2_spec):
        assert closed_form_two_strand(demo2x2_spec)[0] == pytest.approx(1.875)

    def test_identical_strands_reduce_to_series_springs(self):
        # strand-symmetric lattice must reproduce the harmonic mean of
        # the two longitudinal springs, independent of cross coupling
        spec = make_spec(2, 2, [[2.0, 2.0], [3.0, 3.0]], [0.8, 4.0], np.ones((2, 2)))
        _, kappa_bar = closed_form_two_strand(spec)
        assert kappa_bar == pytest.approx(2 * 2.0 * 3.0 / (2.0 + 3.0), rel=1e-12)

    def test_rejects_other_shapes(self, uniform_spec):
        with pytest.raises(KindUnsupported):
            closed_form_two_strand(uniform_spec)

    def test_matches_iteration(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            spec = random_spec(rng, 2, 2, h=float(rng.uniform(0.2, 2.0)))
            sm = construct_slow_manifold(spec)
            rho_bar, kappa_bar = closed_form_two_strand(spec)
            assert sm.c == pytest.approx(kappa_bar / rho_bar, rel=1e-9)


class TestDispersion:
    def test_uniform_chain(self, uniform_spec):
        assert dispersion_fit(uniform_spec) == pytest.approx(1.0, rel=1e-6)

    def test_eigenvalues_at_zero(self, uniform_spec):
        lam = dispersion_eigenvalues(uniform_spec, 1e-9)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)

    def test_cross_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            s = int(rng.integers(1, 4))
            p = int(rng.integers(1, 5))
            spec = random_spec(rng, s, p)
            sm = construct_slow_manifold(spec)
            assert dispersion_fit(spec) == pytest.approx(sm.c, rel=1e-4)

    def test_long_cell_resolved(self):
        # A (10, 64) cell of the long-cell ladder, contrast 0.5-2: lambda_0
        # at k ~ 1e-3/(p h) lies near the generalized solver's resolution,
        # and a plain mean of lambda_0/k^2 misses c by 4.3e-5.
        spec = random_spec(np.random.default_rng(0), 10, 64, lo=0.5, hi=2.0, N=640)
        sm = construct_slow_manifold(spec)
        assert dispersion_fit(spec) == pytest.approx(sm.c, rel=1e-6)


class TestCertificates:
    def test_residual_and_constraints(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            s = int(rng.integers(1, 4))
            p = int(rng.integers(1, 5))
            spec = random_spec(rng, s, p, h=float(rng.uniform(0.3, 2.0)))
            sm = construct_slow_manifold(spec)
            scale = np.linalg.norm(build_L0(spec), "fro")
            if scale == 0.0:
                scale = 1.0
            assert sm.residual_norm < 1e-12 * scale
            assert abs(sm.alpha.mean()) < 1e-12
            assert abs(sm.beta.mean()) < 1e-12
            assert abs(sm.g[0]) < 1e-12
            assert abs(sm.g[1]) < 1e-12
            assert sm.c > 0

    def test_shape_scaling_with_spacing(self):
        # alpha scales like h and beta like h^2 for fixed stiffness
        # arrays; c is independent of h, down to spacings where the
        # kappa^2 column of the residual is far below the kappa^0 one
        rng = np.random.default_rng(24)
        base = random_spec(rng, 2, 3, h=1.0)
        sm1 = construct_slow_manifold(base)
        for h in (1e-9, 1e-6, 0.5, 2.0, 1e3):
            spec = dataclasses.replace(base, h=h)
            sm = construct_slow_manifold(spec)
            assert sm.iterations == sm1.iterations
            assert np.allclose(sm.alpha / h, sm1.alpha, rtol=0,
                               atol=1e-10 * max(1, np.abs(sm1.alpha).max()))
            assert np.allclose(sm.beta / (h * h), sm1.beta, rtol=0,
                               atol=1e-10 * max(1, np.abs(sm1.beta).max()))
            assert sm.c == pytest.approx(sm1.c, rel=1e-11)

    def test_residual_norm_is_the_returned_residual(self):
        # The certificate is the residual of the returned (a, g): in
        # k-coefficients, L(k) = sum_d k^d i^d L_d, one product per pair of
        # orders, and the k^e column on its scale h^e.  Spacings over six
        # decades make an unscaled maximum differ from it.
        rng = np.random.default_rng(26)
        for s in range(1, 7):
            for p in range(1, 10):
                spec = random_spec(rng, s, p, h=float(10 ** rng.uniform(-3, 3)))
                sm = construct_slow_manifold(spec)
                Lk, Bd = build_Lk(spec), np.diag(build_B(spec))
                res = np.zeros((spec.n_cell, 3), dtype=complex)
                for e in range(3):
                    for d in range(e + 1):
                        res[:, e] += (Bd * sm.g[d] * sm.a[:, e - d]
                                      - 1j ** d * Lk[:, :, d] @ sm.a[:, e - d])
                norm = max(np.abs(res[:, e]).max() / spec.h ** e for e in range(3))
                scale = np.linalg.norm(Lk[:, :, 0], "fro")
                if scale == 0.0:   # the single-mass cell
                    scale = max(np.linalg.norm(Lk[:, :, d], "fro") / spec.h ** d
                                for d in range(3))
                assert abs(norm - sm.residual_norm) <= 8 * np.finfo(float).eps * scale

    def test_velocity_shape_bookkeeping_closes(self):
        # The residual certificate uses only (a, g); if the velocity
        # shape differed from a, r(k) = B a(k) g(k) - L(k) a(k) could not
        # be O(k^3) against the exact exponentials of L(k).  Fit the
        # cubic-bound constant at the larger wavenumber and check the
        # smaller one, without the truncated algebra of the construction.
        rng = np.random.default_rng(25)
        spec = random_spec(rng, 2, 3)
        sm = construct_slow_manifold(spec)
        Bd = np.diag(build_B(spec))

        def r(k):
            a = (sm.a[:, 2] * k + sm.a[:, 1]) * k + sm.a[:, 0]
            g = (sm.g[2] * k + sm.g[1]) * k + sm.g[0]
            return np.max(np.abs(Bd * a * g - build_Lk_exact(spec, k) @ a))

        k1, k2 = 1e-3 / (spec.p * spec.h), 2e-3 / (spec.p * spec.h)
        c_fit = r(k2) / k2 ** 3
        assert r(k1) <= 1.05 * max(c_fit, 1e-9) * k1 ** 3 + 1e-15


def complex_iteration(spec, tol=1e-12, max_iter=12):
    """The slow-manifold iteration on complex k-coefficients.

    The reference for the library's real iteration in powers of ik: the
    same sweeps on a(k) = sum_d k^d a_d and L(k) = sum_d k^d i^d L_d, with
    real and imaginary parts solved together.  Returns (a, g, iterations).
    """
    n = spec.n_cell
    Bdiag = np.diag(build_B(spec))
    Lk = build_Lk(spec)
    Lc = [(1j ** d * Lk[:, :, d]).copy() for d in range(3)]
    L0 = Lc[0].real
    scale = np.linalg.norm(L0, "fro")
    if scale == 0.0:
        scale = max(np.linalg.norm(M, "fro") for M in Lc)
    temp = np.array(L0, order="F")
    temp[-1, :] = 1.0
    lu, piv, _ = dgetrf(temp)
    a = np.zeros((n, 3), dtype=complex)
    a[:, 0] = 1.0
    g = np.zeros(3, dtype=complex)

    def residual(a_, g_):
        ag = np.empty_like(a_)
        ag[:, 0] = a_[:, 0] * g_[0]
        ag[:, 1] = a_[:, 0] * g_[1] + a_[:, 1] * g_[0]
        ag[:, 2] = (a_[:, 0] * g_[2] + a_[:, 2] * g_[0]) + a_[:, 1] * g_[1]
        lka = np.empty_like(a_)
        for d in range(3):
            lka[:, d] = sum(Lc[o] @ a_[:, d - o] for o in range(d + 1))
        return Bdiag[:, None] * ag - lka

    iterations = 0
    res = residual(a, g)
    while np.max(np.abs(res)) >= tol * scale:
        assert iterations < max_iter
        ghat = res.sum(axis=0) / (-Bdiag.sum())
        g = g + ghat
        t = res + Bdiag[:, None] * ghat[None, :]
        t[-1, :] = 0.0
        x = dgetrs(lu, piv, np.hstack([t.real, t.imag]))[0]
        ahat = x[:, :3] + 1j * x[:, 3:]
        ahat[-1, :] = -ahat[:-1, :].sum(axis=0)
        a = a + ahat
        iterations += 1
        res = residual(a, g)
    return a, g, iterations


def _short_lattices():
    rng = np.random.default_rng(2024)
    for s in range(1, 7):
        for p in range(1, 10):
            yield random_spec(rng, s, p, h=float(rng.uniform(0.2, 2.0)))


class TestRealIteration:
    # The (5,150) cell's constrained stiffness has condition number ~1.7e4,
    # so two evaluation orders of the same sweeps differ there by up to
    # ~4e-13 of max|beta|; the short cells agree to 1e-13.
    @pytest.mark.parametrize("specs,rel", [
        (_short_lattices, 1e-13),
        (lambda: [random_spec(np.random.default_rng(0), 5, 150)], 1e-12),
    ], ids=["s1-6xp1-9", "s5p150"])
    def test_matches_complex_iteration(self, specs, rel):
        def close(x, ref):
            return np.max(np.abs(x - ref)) <= rel * np.max(np.abs(ref))

        for spec in specs():
            sm = construct_slow_manifold(spec)
            a, g, iterations = complex_iteration(spec)
            assert sm.iterations == iterations
            assert sm.a.dtype == complex and sm.g.dtype == complex
            assert sm.c == pytest.approx(-g[2].real, rel=rel)
            assert close(sm.a, a) and close(sm.g, g)
            assert close(sm.alpha, a[:, 1].imag) and close(sm.beta, a[:, 2].real)


class TestFailureModes:
    def test_disconnected_lattice(self):
        spec = make_spec(2, 2, np.ones((2, 2)), [0.0, 0.0], np.ones((2, 2)))
        with pytest.raises(SingularSolve):
            construct_slow_manifold(spec)

    def test_nearly_disconnected_lattice(self):
        # Cross springs of 1e-14 against unit longitudinal ones leave the
        # factor nonsingular, but its rcond estimate falls below 1e-12.
        spec = make_spec(2, 2, np.ones((2, 2)), [1e-14, 1e-14], np.ones((2, 2)))
        with pytest.raises(SingularSolve, match="rcond"):
            construct_slow_manifold(spec)

    @pytest.mark.parametrize("field", ["h", "kappa_long", "kappa_cross", "rho"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_spec(self, demo2x2_spec, field, value):
        # LAPACK's LU does not check its input; construction rejects the
        # spec before it gets there.
        with pytest.raises(SpecValidationError, match=f"non-finite {field}"):
            construct_slow_manifold(with_entry(demo2x2_spec, field, value))

    @pytest.mark.parametrize("h", [np.inf, np.nan, 0.0, -1.0])
    def test_invalid_spacing(self, demo2x2_spec, h):
        # Construction rejects the spacing, so the slow manifold never sees it.
        with pytest.raises(SpecValidationError, match="h"):
            construct_slow_manifold(dataclasses.replace(demo2x2_spec, h=h))

    def test_not_converged_with_tiny_budget(self, demo2x2_spec, monkeypatch):
        from latticebc.errors import NotConverged

        monkeypatch.setattr(homogenize, "MAX_SWEEPS", 0)
        with pytest.raises(NotConverged, match="after 0 sweeps"):
            construct_slow_manifold(demo2x2_spec)
