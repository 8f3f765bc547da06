import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from latticebc import (
    LatticeSpec,
    MicroBCSpec,
    build_B,
    build_L0,
    build_Lk,
    build_Lk_exact,
    build_steady_operator,
    reversed_spec,
    validate_spec,
)

from conftest import _loop_kappa_plus, _loop_steady, band_dense, lower_band, make_spec, random_spec


def spec_strategy(max_s=3, max_p=4):
    @st.composite
    def build(draw):
        s = draw(st.integers(1, max_s))
        p = draw(st.integers(1, max_p))
        seed = draw(st.integers(0, 2 ** 31 - 1))
        return random_spec(np.random.default_rng(seed), s, p)

    return build()


class TestValidateSpec:
    def test_valid_uniform(self, uniform_spec):
        assert validate_spec(uniform_spec) == []

    def test_zero_longitudinal_elasticity(self):
        spec = make_spec(1, 1, [[0.0]], np.zeros((1, 1, 1)), [[1.0]])
        assert any("longitudinal" in v for v in validate_spec(spec))

    def test_asymmetric_cross(self):
        kc = np.zeros((1, 2, 2))
        kc[0, 0, 1] = 1.0
        spec = make_spec(2, 1, [[1.0, 1.0]], kc, [[1.0, 1.0]])
        assert any("asymmetric" in v for v in validate_spec(spec))

    def test_nonzero_self_elasticity(self):
        kc = np.zeros((1, 2, 2))
        kc[0] = [[1.0, 0.5], [0.5, 0.0]]
        spec = make_spec(2, 1, [[1.0, 1.0]], kc, [[1.0, 1.0]])
        assert any("self" in v for v in validate_spec(spec))

    def test_bad_shapes(self):
        spec = LatticeSpec(s=2, p=2, h=1.0, N=8,
                           kappa_long=np.ones((2, 1)),
                           kappa_cross=np.zeros((2, 2, 2)),
                           rho=np.ones((2, 2)))
        assert any("shape" in v for v in validate_spec(spec))

    def test_nonpositive_density(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[-1.0]])
        assert any("density" in v for v in validate_spec(spec))


class TestMassMatrix:
    def test_uniform(self, uniform_spec):
        assert np.array_equal(build_B(uniform_spec), [[1.0]])

    def test_scaling(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[2.0]], h=0.5)
        assert np.allclose(build_B(spec), [[0.5]])

    def test_demo_densities(self, demo2x2_spec):
        assert np.allclose(np.diag(build_B(demo2x2_spec)), [1.0, 2.0, 4.0, 0.5])


class TestL0:
    def test_single_mass_is_zero(self, uniform_spec):
        assert np.array_equal(build_L0(uniform_spec), [[0.0]])

    def test_two_step_chain(self, two_step_spec):
        assert np.allclose(build_L0(two_step_spec), [[-4.0, 4.0], [4.0, -4.0]])

    def test_demo_diagonal_totals(self, demo2x2_spec):
        # diagonal of each block is minus (left spring + right spring + cross)
        L0 = build_L0(demo2x2_spec)
        assert L0[0, 0] == pytest.approx(-(0.1 + 2.0 + 1.0))
        assert L0[1, 1] == pytest.approx(-(5.0 + 0.5 + 1.0))
        assert L0[2, 2] == pytest.approx(-(2.0 + 0.1 + 0.1))
        assert L0[3, 3] == pytest.approx(-(0.5 + 5.0 + 0.1))

    @given(spec_strategy())
    @settings(max_examples=30, deadline=None)
    def test_symmetric_zero_rowsum_psd(self, spec):
        L0 = build_L0(spec)
        assert np.max(np.abs(L0 - L0.T)) == 0.0
        row_norms = np.maximum(np.linalg.norm(L0, axis=1), 1.0)
        assert np.max(np.abs(L0.sum(axis=1)) / row_norms) < 1e-12
        lam = np.linalg.eigvalsh(-L0)
        assert lam.min() > -1e-10 * max(1.0, np.linalg.norm(L0))


def horner(M, x):
    """Evaluate a (..., 3) array of coefficients at x."""
    return (M[..., 2] * x + M[..., 1]) * x + M[..., 0]


class TestLk:
    """build_Lk holds real L_d with L(k) = sum_d (ik)^d L_d."""

    def test_uniform_entry(self, uniform_spec):
        # exp(ik) + exp(-ik) - 2 = (ik)^2 + O(k^4)
        M = build_Lk(uniform_spec)
        assert M.dtype == float
        assert tuple(M[0, 0]) == (0.0, 0.0, 1.0)

    def test_uniform_apply_ones(self, uniform_spec):
        out = build_Lk(uniform_spec).sum(axis=1)
        assert tuple(out[0]) == (0.0, 0.0, 1.0)

    def test_two_step_constant_part(self, two_step_spec):
        M = build_Lk(two_step_spec)
        assert np.allclose(M[:, :, 0], [[-4.0, 4.0], [4.0, -4.0]])

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_constant_part_is_L0(self, spec):
        M = build_Lk(spec)
        assert np.allclose(M[:, :, 0], build_L0(spec), atol=1e-14)

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_hermitian_at_real_k(self, spec):
        at = horner(build_Lk(spec), 0.37j / (spec.p * spec.h))
        assert np.max(np.abs(at - at.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(at)))

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_truncation_matches_exact_to_cubic_order(self, spec):
        # evaluate at kappa = ik; fit the cubic-bound constant at the
        # larger wavenumber and check the smaller one; valid for any
        # actual error order >= 3
        k1, k2 = 1e-3 / (spec.p * spec.h), 2e-3 / (spec.p * spec.h)

        def diff(k):
            return np.max(np.abs(horner(build_Lk(spec), 1j * k) - build_Lk_exact(spec, k)))

        c_fit = diff(k2) / k2 ** 3
        assert diff(k1) <= 1.05 * max(c_fit, 1e-9) * k1 ** 3 + 1e-15

    def test_rejects_nonpositive_spacing(self, uniform_spec):
        for h in (0.0, -1.0):
            with pytest.raises(ValueError, match="spacing h must be positive"):
                build_Lk(dataclasses.replace(uniform_spec, h=h))

    def test_exact_hermitian(self, demo2x2_spec):
        L = build_Lk_exact(demo2x2_spec, 0.7)
        assert np.max(np.abs(L - L.conj().T)) < 1e-12


class TestZeroMode:
    @given(spec_strategy())
    @settings(max_examples=20, deadline=None)
    def test_zero_eigenvalue_simple_for_connected(self, spec):
        lam = scipy.linalg.eigh(-build_L0(spec), build_B(spec), eigvals_only=True)
        tol = 1e-10 * max(1.0, lam[-1])
        assert np.sum(np.abs(lam) <= tol) == 1

    def test_constant_vector_in_kernel(self, demo2x2_spec):
        L0 = build_L0(demo2x2_spec)
        assert np.linalg.norm(L0 @ np.ones(4)) < 1e-12 * np.linalg.norm(L0)


class TestSteadyOperator:
    def test_uniform_row(self, uniform_spec):
        # one mass between two clamped ones: K = [[2]]
        band = build_steady_operator(uniform_spec, rows=1)
        assert np.allclose(band, [[2.0], [0.0]])

    def test_two_strand_rows(self, demo2x2_spec):
        # K over masses n = 1, 2 with n = 0 and 3 clamped;
        # kl = [[2, .5], [.1, 5]], cross = (1, .1) per column
        k00, k01, k10, k11 = 2.0, 0.5, 0.1, 5.0
        c0, c1 = 1.0, 0.1
        expected = np.array([
            [k00 + k10 + c1, k01 + k11 + c1, k10 + k00 + c0, k11 + k01 + c0],
            [-c1, 0, -c0, 0],
            [-k10, -k11, 0, 0],
        ])
        assert np.allclose(build_steady_operator(demo2x2_spec, rows=2), expected)

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_row_sums_zero(self, spec):
        # With the clamped columns 0 and p+1 included every row sums to
        # zero, so K 1 is the springs into them.
        s, p = spec.s, spec.p
        K = band_dense(build_steady_operator(spec, rows=p))
        to_clamped = np.zeros((p, s))
        to_clamped[0] += spec.kappa_long[0]
        to_clamped[-1] += spec.kappa_long[0]
        defect = np.abs(K.sum(axis=1) - to_clamped.ravel()).max()
        assert defect < 1e-12 * max(1.0, np.abs(K).max())

    def test_domain_size(self, demo2x2_spec):
        N, s = demo2x2_spec.N, demo2x2_spec.s
        band = build_steady_operator(demo2x2_spec, rows=N - 1)
        assert band.shape == (s + 1, s * (N - 1))

    def test_rejects_no_rows(self, uniform_spec):
        with pytest.raises(ValueError):
            build_steady_operator(uniform_spec, rows=0)


def _loop_periodic(spec, epos, eneg, dtype):
    """Entry-by-entry cell stiffness: the reference for the stencil."""
    s, p = spec.s, spec.p
    n = s * p
    L = np.zeros((n, n) + np.shape(epos), dtype=dtype)
    lead = (0,) if np.ndim(epos) else ()
    for m in range(p):
        for j in range(s):
            r = m * s + j
            L[(r, r) + lead] -= _loop_kappa_plus(spec, m, j)
            for i in range(s):
                if i != j:
                    L[(r, m * s + i) + lead] += spec.kappa_cross[m, i, j]
            L[r, ((m + 1) % p) * s + j] += spec.kappa_long[m, j] * epos
            L[r, ((m - 1) % p) * s + j] += spec.kappa_long[(m - 1) % p, j] * eneg
    return L


class TestStencilMatchesLoops:
    """The vectorised operators equal the entry-by-entry loops bit for bit,
    including p = 1 and p = 2, where both links of a mass land on one
    column."""

    def test_operators_bit_identical(self):
        rng = np.random.default_rng(2016)
        for s in range(1, 7):
            for p in range(1, 10):
                spec = random_spec(rng, s, p, h=float(rng.uniform(0.2, 2.0)))
                k = float(rng.uniform(0.1, 3.0))
                h = spec.h
                # exp(+-ikh) to second order in ik
                epos = np.array([1.0, h, 0.5 * h * h])
                eneg = np.array([1.0, -h, 0.5 * h * h])
                assert np.array_equal(build_L0(spec), _loop_periodic(spec, 1.0, 1.0, float))
                assert np.array_equal(build_Lk(spec), _loop_periodic(spec, epos, eneg, float))
                assert np.array_equal(
                    build_Lk_exact(spec, k),
                    _loop_periodic(spec, np.exp(1j * k * spec.h), np.exp(-1j * k * spec.h),
                                   complex),
                )
                for rows in (1, 3, 2 * p + 1):
                    K = -_loop_steady(spec, rows)[:, s: (rows + 1) * s]
                    assert np.array_equal(build_steady_operator(spec, rows=rows), lower_band(K, s))


class TestReversal:
    def test_matches_permuted_operator(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 2, 3, N=7)
        N, s = spec.N, spec.s
        K = band_dense(build_steady_operator(spec, rows=N - 1))
        K_rev = band_dense(build_steady_operator(reversed_spec(spec), rows=N - 1))
        # reversed mass (n', j) is original mass (N - n', j)
        perm = np.concatenate([np.arange((N - 1 - n) * s, (N - n) * s) for n in range(1, N)])
        assert np.allclose(K_rev, K[np.ix_(perm, perm)])

    def test_involution(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 2, 3, N=8)
        back = reversed_spec(reversed_spec(spec))
        assert np.array_equal(back.kappa_long, spec.kappa_long)
        assert np.array_equal(back.kappa_cross, spec.kappa_cross)
        assert np.array_equal(back.rho, spec.rho)


class TestMicroBC:
    def test_zero_dirichlet(self):
        bc = MicroBCSpec.dirichlet_zero(3)
        assert bc.values.shape == (3,)
        assert bc.side == "left"

    def test_bad_side(self):
        with pytest.raises(ValueError):
            MicroBCSpec("dirichlet", np.zeros(2), side="top")
