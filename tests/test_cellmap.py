import dataclasses

import numpy as np
import pytest

from latticebc import (
    UnexpectedSpectrum,
    build_cell_map,
    build_steady_operator,
    classify_trichotomy,
    jordan_chain,
    left_end_bc,
    reconstruct_first_cell,
)
from latticebc.lattice import MicroBCSpec

from conftest import make_spec, random_spec


@pytest.fixture
def uniform_map(uniform_spec):
    return build_cell_map(uniform_spec)


class TestBuildMap:
    def test_uniform_chain_map(self, uniform_map):
        assert np.allclose(uniform_map.T, [[0.0, 1.0], [-1.0, 2.0]])

    def test_ones_is_fixed(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        assert np.allclose(cm.T @ np.ones(4), np.ones(4), atol=1e-10)

    def test_two_strand_matches_block_elimination(self, demo2x2_spec):
        # Solve the first s*p equilibrium rows for the second cell by
        # hand: u1 = -(right block)^{-1} (left block) u0.
        k00, k01, k10, k11 = 2.0, 0.5, 0.1, 5.0
        c0, c1 = 1.0, 0.1
        left = np.array([
            [k00, 0, -(k00 + k10 + c1), c1],
            [0, k01, c1, -(k01 + k11 + c1)],
            [0, 0, k10, 0],
            [0, 0, 0, k11],
        ])
        right = np.array([
            [k10, 0, 0, 0],
            [0, k11, 0, 0],
            [-(k10 + k00 + c0), c0, k00, 0],
            [c0, -(k11 + k01 + c0), 0, k01],
        ])
        T_ref = -np.linalg.solve(right, left)
        cm = build_cell_map(demo2x2_spec)
        assert np.max(np.abs(cm.T - T_ref)) < 1e-12 * np.max(np.abs(T_ref))

    def test_eigenvalues_sorted_with_doubled_one(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        mods = np.abs(cm.eigenvalues)
        assert np.all(np.diff(mods) >= -1e-12)
        assert abs(cm.eigenvalues[1] - 1) < 1e-6
        assert abs(cm.eigenvalues[2] - 1) < 1e-6

    def test_spectrum_scale_invariant_under_stiffness_scaling(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 3, 2)
        s = spec.s
        for c in (0.37, 12.0):
            scaled = dataclasses.replace(
                spec, kappa_long=c * spec.kappa_long, kappa_cross=c * spec.kappa_cross
            )
            mu1 = build_cell_map(spec).eigenvalues
            mu2 = build_cell_map(scaled).eigenvalues
            # the doubled defective eigenvalue reproduces only to its
            # rounding split; the rest must match tightly
            keep = [i for i in range(2 * s) if i not in (s - 1, s)]
            assert np.max(np.abs(mu1[keep] - mu2[keep])) < 1e-10 * max(1.0, np.max(np.abs(mu1)))
            assert np.max(np.abs(mu2[[s - 1, s]] - 1.0)) < 1e-6


    def test_ill_conditioned_interior_matches_high_precision(self):
        # Interior blocks with condition in (1e8, 1e12] take the
        # extended-precision recurrence; T must then be forward accurate,
        # checked against a 60-digit elimination of the same equations.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            s, p = int(rng.integers(3, 7)), int(rng.integers(7, 10))
            spec = random_spec(rng, s, p)
            A = build_steady_operator(spec)
            if not 1e8 < np.linalg.cond(A[:, 2 * s:]) <= 1e12:
                continue
            LU, piv = mp.LU_decomp(mp.matrix(A[:, 2 * s:].tolist()))
            rhs = mp.matrix((-A[:, : 2 * s]).tolist())
            T_ref = np.array(
                [[float(x) for x in mp.U_solve(LU, mp.L_solve(LU, rhs.column(j), piv))]
                 for j in range(2 * s)]
            ).T[-2 * s:]
            T = build_cell_map(spec).T
            scale = np.abs(T_ref).max()
            assert np.abs(T - T_ref).max() <= 1e-14 * scale
            assert np.abs(T @ np.ones(2 * s) - 1.0).max() <= 1e-14 * scale
            checked += 1
            if checked == 10:
                break
        assert checked == 10


class TestClassify:
    def test_single_strand_counts(self, uniform_map):
        part = classify_trichotomy(uniform_map.T)
        assert part.stable_values.size == 0
        assert part.unstable_values.size == 0
        assert part.center_indices == (0, 1)

    def test_demo_counts(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        assert cm.stable_values.size == 1
        assert cm.unstable_values.size == 1
        assert 0 < cm.stable_values[0].real < 1
        assert cm.unstable_values[0].real > 1
        assert cm.spectrum_all_real

    def test_random_connected_counts(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            s = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            spec = random_spec(rng, s, p)
            cm = build_cell_map(spec)
            assert cm.stable_values.size == s - 1
            assert cm.unstable_values.size == s - 1

    def test_disconnected_raises(self):
        spec = make_spec(2, 2, [[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0],
                         [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(UnexpectedSpectrum):
            build_cell_map(spec)

    def test_complex_quartets_are_reciprocal_conjugate(self):
        # Strongly coupled strands can carry decaying oscillatory layers:
        # the spectrum then contains quartets (mu, conj(mu), 1/mu,
        # 1/conj(mu)) instead of real pairs, and the pipeline must still
        # run off the real invariant subspaces.
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(200):
            s = int(rng.integers(3, 6))
            p = int(rng.integers(2, 6))
            spec = random_spec(rng, s, p, lo=1e-3, hi=100.0)
            cm = build_cell_map(spec)
            if cm.spectrum_all_real:
                continue
            found += 1
            mu = cm.eigenvalues
            # position i pairs with position 2s-1-i up to conjugation
            # order within each complex pair
            for i, (a, b) in enumerate(zip(mu, mu[::-1])):
                err = min(abs(a * b - 1.0), abs(a * np.conj(b) - 1.0))
                assert err < 1e-4 + 1e-2 * (i in (s - 1, s))
            bc = left_end_bc(spec, MicroBCSpec.dirichlet_zero(s))
            assert np.isfinite(bc.d)
            if found >= 3:
                break
        assert found >= 1


class TestJordanChain:
    def test_uniform_chain(self, uniform_map):
        vg = jordan_chain(uniform_map.T)
        assert np.allclose(vg, [0.0, 1.0], atol=1e-12)

    def test_defining_property(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        res = (cm.T - np.eye(4)) @ cm.generalized_vector - np.ones(4)
        assert np.linalg.norm(res) < 1e-9

    def test_gauge_fixed_representative(self, uniform_map):
        vg = jordan_chain(uniform_map.T)
        assert vg[0] == 0.0
        shifted = vg + 5.0
        assert np.allclose((uniform_map.T - np.eye(2)) @ shifted, np.ones(2))

    def test_build_map_consistent_with_direct_solve(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        assert np.allclose(cm.generalized_vector, jordan_chain(cm.T), atol=1e-9)


class TestReconstruct:
    def test_two_periodic_identity(self, demo2x2_spec):
        u0 = np.array([0.3, -0.1, 0.7, 0.2])
        assert np.allclose(reconstruct_first_cell(demo2x2_spec, u0), u0)

    def test_constant_extension(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 2, 4)
        out = reconstruct_first_cell(spec, np.ones(4))
        assert np.allclose(out, np.ones(spec.n_cell), atol=1e-10)

    def test_consistent_with_map_step(self):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, 2, 3)
        cm = build_cell_map(spec)
        u0 = rng.standard_normal(4)
        from latticebc.cellmap import _interior_extension

        E, _, _ = _interior_extension(spec, build_steady_operator(spec))
        full = E @ u0
        assert np.allclose(full[spec.p * 2:], cm.T @ u0, atol=1e-10 * max(1, np.abs(full).max()))

    def test_first_cell_gen_matches_reconstruction(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        rec = reconstruct_first_cell(demo2x2_spec, cm.generalized_vector)
        assert np.allclose(cm.first_cell_gen, rec, atol=1e-9)

    def test_wrong_length_rejected(self, demo2x2_spec):
        with pytest.raises(ValueError):
            reconstruct_first_cell(demo2x2_spec, np.ones(3))
