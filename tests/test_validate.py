import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from latticebc import (
    MacroBC,
    MacroBCKind,
    MicroBCSpec,
    compare_modes,
    construct_slow_manifold,
    left_end_bc,
    macroscale_slowest_mode,
    microscale_slowest_mode,
    right_end_bc,
    spectrum_checks,
)
from conftest import make_spec, random_spec


def robin(d, side="left"):
    return MacroBC(MacroBCKind.ROBIN, side, d, None, ())


def fd_robin_eigenvalue(c, L, d0, dL, npts=2048):
    """Second-order finite-difference oracle for -c U'' = lam U with
    U + d U' = 0 at both ends, via ghost-point elimination and a
    symmetrized generalized tridiagonal eigenproblem."""
    dx = L / npts
    n = npts + 1
    main = np.full(n, 2.0 * c / dx ** 2)
    off = np.full(n - 1, -c / dx ** 2)
    main[0] = c / dx ** 2 - c / (dx * d0)
    main[-1] = c / dx ** 2 + c / (dx * dL)
    weight = np.ones(n)
    weight[0] = weight[-1] = 0.5
    winv = 1.0 / np.sqrt(weight)
    d_sym = main * winv ** 2
    e_sym = off * winv[:-1] * winv[1:]
    lam = scipy.linalg.eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(0, 2))[0]
    lam = lam[lam > 1e-12 * abs(lam).max()]
    return lam[0]


class TestMicroscale:
    def test_uniform_chain_all_eigenvalues(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[1.0]], N=8)
        from latticebc.validate import _interior_system

        S, mass = _interior_system(spec)
        lam = scipy.linalg.eigh(-S.toarray(), np.diag(mass), eigvals_only=True)
        expected = np.sort([2.0 * (1 - np.cos(np.pi * m / 8)) for m in range(1, 8)])
        assert np.allclose(lam, expected, rtol=1e-10)

    def test_uniform_slowest_value(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[1.0]], N=8)
        lam, w = microscale_slowest_mode(spec)
        assert lam == pytest.approx(2.0 * (1 - np.cos(np.pi / 8)), rel=1e-12)
        assert w[0, 0] == 0.0 and w[8, 0] == 0.0

    def test_uniform_mode_shape(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[1.0]], N=8)
        _, w = microscale_slowest_mode(spec)
        shape = w[:, 0]
        ref = np.sin(np.pi * np.arange(9) / 8)
        scale = shape[4] / ref[4]
        assert np.max(np.abs(shape - scale * ref)) < 1e-10 * abs(scale)


def dense_slowest(spec):
    """Reference: every eigenpair of the clamped system, densely."""
    from latticebc.validate import _interior_system

    S, mass = _interior_system(spec)
    lam, vecs = scipy.linalg.eigh(-S.toarray(), np.diag(mass))
    return lam[0], vecs[:, 0].reshape(spec.N - 1, spec.s)


def unit_avg(w):
    avg = w.mean(axis=1)
    return avg / np.linalg.norm(avg)


class TestSparseEigensolve:
    def test_assembly_is_sparse(self, demo2x2_spec):
        from latticebc.validate import _interior_system

        S, mass = _interior_system(demo2x2_spec)
        assert scipy.sparse.issparse(S) and S.format == "csc"
        assert S.shape == (30, 30) and mass.shape == (30,)
        # two strands: 2 diagonal + 2 cross entries per column, 2 links per step
        assert S.nnz == 15 * 4 + 14 * 4

    def test_agrees_with_dense_on_random_lattices(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            s, p = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            spec = random_spec(rng, s, p, N=int(rng.integers(2, 61)))
            lam, w = microscale_slowest_mode(spec)
            lam_ref, w_ref = dense_slowest(spec)
            assert lam == pytest.approx(lam_ref, rel=1e-9)
            a, b = unit_avg(w[1:-1]), unit_avg(w_ref)
            assert np.max(np.abs(a - np.sign(a @ b) * b)) < 1e-8
            assert np.all(w[0] == 0.0) and np.all(w[-1] == 0.0)

    @pytest.mark.parametrize("s,N", [(1, 2), (2, 2), (1, 3)])
    def test_tiny_systems(self, s, N):
        spec = random_spec(np.random.default_rng(s * 10 + N), s, 2, N=N)
        lam, w = microscale_slowest_mode(spec)
        lam_ref, w_ref = dense_slowest(spec)
        assert lam == pytest.approx(lam_ref, rel=1e-12)
        assert w.shape == (N + 1, s)
        assert np.allclose(np.abs(w[1:-1]), np.abs(w_ref), atol=1e-12)

    def test_identical_strands_long_domain(self):
        # cross springs stay unstretched in the slowest mode of identical
        # strands, so it is the uniform chain's: 8997 dofs
        s, kappa, rho, h, N = 3, 1.3, 0.7, 0.5, 3000
        cross = np.full((1, s, s), 0.9)
        cross[0][np.diag_indices(s)] = 0.0
        spec = make_spec(s, 1, np.full((1, s), kappa), cross, np.full((1, s), rho), h=h, N=N)
        lam, w = microscale_slowest_mode(spec)
        expected = 2 * kappa / (rho * h * h) * (1 - np.cos(np.pi / N))
        assert lam == pytest.approx(expected, rel=1e-9)
        ref = np.sin(np.pi * np.arange(N + 1) / N)
        shape = w[:, 0] / w[N // 2, 0]
        assert np.max(np.abs(shape - ref)) < 1e-8
        assert np.allclose(w, w[:, :1], atol=1e-8 * np.abs(w).max())

    def test_arpack_failure_is_typed(self, demo2x2_spec, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        from latticebc.errors import EigenSolveError

        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((30, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        with pytest.raises(EigenSolveError):
            microscale_slowest_mode(demo2x2_spec)


class TestMacroscale:
    def test_dirichlet_mode(self):
        lam, mode = macroscale_slowest_mode(2.0, 3.0, robin(0.0), robin(0.0, "right"),
                                            np.linspace(0, 3, 7))
        assert lam == pytest.approx(2.0 * np.pi ** 2 / 9.0, rel=1e-12)
        assert abs(mode[0]) < 1e-9 and abs(mode[-1]) < 1e-9

    def test_neumann_left_dirichlet_right(self):
        neu = MacroBC(MacroBCKind.NEUMANN, "left", None, None, ())
        x = np.linspace(0, 1, 5)
        lam, mode = macroscale_slowest_mode(1.0, 1.0, neu, robin(0.0, "right"), x)
        assert lam == pytest.approx((np.pi / 2) ** 2, rel=1e-10)
        ref = np.cos(np.pi * x / 2)
        sign = np.sign(mode[0] * ref[0])
        assert np.allclose(mode, sign * ref, atol=1e-9)

    def test_robin_matches_finite_difference_oracle(self):
        d = 0.1
        lam, _ = macroscale_slowest_mode(1.0, 1.0, robin(d), robin(d, "right"),
                                         np.linspace(0, 1, 5))
        assert lam == pytest.approx(fd_robin_eigenvalue(1.0, 1.0, d, d), rel=1e-4)

    def test_neumann_both_ends_skips_constant_mode(self):
        neu = MacroBC(MacroBCKind.NEUMANN, "left", None, None, ())
        lam, _ = macroscale_slowest_mode(1.0, 1.0, neu, neu, np.linspace(0, 1, 3))
        assert lam == pytest.approx(np.pi ** 2, rel=1e-9)

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            macroscale_slowest_mode(0.0, 1.0, robin(0.0), robin(0.0, "right"), [0.0])


class TestCompare:
    def test_demo_robin_beats_dirichlet(self, demo2x2_spec):
        sm = construct_slow_manifold(demo2x2_spec)
        zeros = MicroBCSpec.dirichlet_zero(2)
        comp = compare_modes(demo2x2_spec, sm,
                             left_end_bc(demo2x2_spec, zeros),
                             right_end_bc(demo2x2_spec, zeros))
        assert comp.interior_error_robin < comp.interior_error_dirichlet
        assert comp.window == (2, 14)
        assert np.max(np.abs(comp.micro_avg)) == pytest.approx(1.0)

    def test_uniform_chain_both_tiny(self, uniform_spec):
        sm = construct_slow_manifold(uniform_spec)
        zeros = MicroBCSpec.dirichlet_zero(1)
        comp = compare_modes(uniform_spec, sm,
                             left_end_bc(uniform_spec, zeros),
                             right_end_bc(uniform_spec, zeros))
        assert comp.interior_error_robin < 1e-6
        assert comp.interior_error_dirichlet < 1e-6
        assert abs(comp.interior_error_robin - comp.interior_error_dirichlet) < 1e-6

    def test_density_rescaling(self, demo2x2_spec):
        sm = construct_slow_manifold(demo2x2_spec)
        zeros = MicroBCSpec.dirichlet_zero(2)
        bc0 = left_end_bc(demo2x2_spec, zeros)
        bcL = right_end_bc(demo2x2_spec, zeros)
        base = compare_modes(demo2x2_spec, sm, bc0, bcL)
        factor = 3.7
        scaled_spec = dataclasses.replace(demo2x2_spec, rho=factor * demo2x2_spec.rho)
        sm2 = construct_slow_manifold(scaled_spec)
        scaled = compare_modes(scaled_spec, sm2, left_end_bc(scaled_spec, zeros),
                               right_end_bc(scaled_spec, zeros))
        assert scaled.lambda_micro == pytest.approx(base.lambda_micro / factor, rel=1e-9)
        assert scaled.lambda_robin == pytest.approx(base.lambda_robin / factor, rel=1e-9)
        assert np.allclose(scaled.micro_avg, base.micro_avg, atol=1e-9)
        assert scaled.interior_error_robin == pytest.approx(base.interior_error_robin, abs=1e-9)
        assert scaled.interior_error_dirichlet == pytest.approx(
            base.interior_error_dirichlet, abs=1e-9
        )


class TestSpectrumChecks:
    def test_uniform(self, uniform_spec):
        rep = spectrum_checks(uniform_spec)
        assert rep.zero_multiplicity == 1
        assert rep.spectral_gap >= 0.0

    def test_demo_passes(self, demo2x2_spec):
        rep = spectrum_checks(demo2x2_spec)
        from latticebc import build_L0

        assert rep.passed(np.linalg.norm(build_L0(demo2x2_spec), "fro"))
        assert rep.min_rayleigh >= 0.0

    def test_disconnected_reports_double_zero(self):
        spec = make_spec(2, 2, np.ones((2, 2)), [0.0, 0.0], np.ones((2, 2)))
        rep = spectrum_checks(spec)
        assert rep.zero_multiplicity == 2

    def test_random_connected(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            spec = random_spec(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            rep = spectrum_checks(spec)
            assert rep.zero_multiplicity == 1
            assert rep.spectral_gap > 0.0
