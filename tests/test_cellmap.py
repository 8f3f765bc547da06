import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dggev

from latticebc import (
    SingularSolve,
    SpecValidationError,
    UnexpectedSpectrum,
    build_cell_map,
    build_steady_operator,
    left_end_bc,
    reversed_spec,
)
from latticebc.cellmap import _REAL_FLOOR, CENTER_TOL, _boundary_reduction, _linearisation
from latticebc import cellmap
from latticebc.lattice import MicroBCSpec

from conftest import make_spec, random_spec, with_entry


@pytest.fixture
def uniform_map(uniform_spec):
    return build_cell_map(uniform_spec)


def _band_solve(K, B, w):
    """Solve K X = B, K of bandwidth w, by elimination without pivoting.

    Pivoting is not needed: K is the negated clamped interior stiffness,
    which is symmetric positive definite.
    """
    n = K.rows
    for k in range(n):
        for i in range(k + 1, min(k + w + 1, n)):
            f = K[i, k] / K[k, k]
            for j in range(k, min(k + w + 1, n)):
                K[i, j] -= f * K[k, j]
            for j in range(B.cols):
                B[i, j] -= f * B[k, j]
    for i in reversed(range(n)):
        for j in range(B.cols):
            tail = sum(K[i, k] * B[k, j] for k in range(i + 1, min(i + w + 1, n)))
            B[i, j] = (B[i, j] - tail) / K[i, i]
    return B


def _reference_cell_map(spec, mp):
    """The cell map by elimination in mpmath arithmetic.

    Returns the decaying eigenvalues, a real basis of their subspace on
    u_0 and the generalized vector, each as float arrays.
    """
    s, p = spec.s, spec.p
    A = mp.matrix(build_steady_operator(spec).tolist())
    n = (p - 1) * s
    C = mp.zeros((p + 1) * s, 2 * s)
    for j in range(s):
        C[j, j] = 1
        C[p * s + j, s + j] = 1
    coupling = mp.zeros(n, 2 * s)
    for i in range(n):
        for j in range(s):
            coupling[i, j] = A[i, j]
            coupling[i, s + j] = A[i, p * s + j]
    X = _band_solve(-A[:n, s: p * s], coupling, s)
    for i in range(n):
        for j in range(2 * s):
            C[s + i, j] = X[i, j]
    row = A[n:, :]
    EF = row[:, : (p + 1) * s] * C
    FG = row[:, (p + 1) * s:] * C[s: 2 * s, :]
    E, G = EF[:, :s], FG[:, s:]
    F = EF[:, s:] + FG[:, :s]
    # mu z = M^-1 L z with z = (v, mu v)
    L = mp.zeros(2 * s, 2 * s)
    M = mp.eye(2 * s)
    for i in range(s):
        L[i, s + i] = 1
        for j in range(s):
            L[s + i, j] = -E[i, j]
            L[s + i, s + j] = -F[i, j]
            M[s + i, s + j] = G[i, j]
    mu = mp.eig(mp.inverse(M) * L, left=False, right=False)
    mu = sorted(mu, key=abs)[: s - 1]
    # each eigenvector is the null vector of Q(mu), gauged by v[0] = 1
    C2 = C[: 2 * s, :]
    U = []
    for m in mu:
        Q = E + m * F + m * m * G
        v = [1] + list(mp.lu_solve(Q[: s - 1, 1:], -Q[: s - 1, 0]))
        U.append([complex(x) for x in C2 * mp.matrix(v + [m * x for x in v])])
    U = np.array(U).T
    K = E + F + G
    rhs = (E - G) * mp.ones(s, 1)
    w = [mp.mpf(0)] + list(mp.lu_solve(K[1:, 1:], rhs[1:, 0]))
    vg = C2 * mp.matrix(w + [x + 1 for x in w])
    return (
        np.array([complex(m) for m in mu]),
        np.hstack([U.real, U.imag]),
        np.array([float(x) for x in vg]),
    )


def _subspace_gap(X, Y):
    """Sine of the largest principal angle between span(X) and span(Y)."""
    Qx = np.linalg.svd(X, full_matrices=False)[0][:, : X.shape[1]]
    U, sv, _ = np.linalg.svd(Y, full_matrices=False)
    Qy = U[:, : int(np.sum(sv > 1e-8 * sv[0]))]
    return np.linalg.norm(Qx - Qy @ (Qy.T @ Qx), 2)


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
        # Cells whose interior-to-boundary map is ill-conditioned: the
        # decaying values, their subspace on u_0 and the generalized
        # vector must match a 60-digit elimination of the same equations.
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
            mu_ref, stable_ref, vg_ref = _reference_cell_map(spec, mp)
            cm = build_cell_map(spec)
            # conjugate pairs may come in either order
            assert np.abs(cm.stable_values[:, None] - mu_ref).min(axis=0).max() <= 1e-13
            assert _subspace_gap(cm.stable_vectors, stable_ref) <= 1e-13
            assert np.abs(cm.generalized_vector - vg_ref).max() <= 1e-13 * np.abs(vg_ref).max()
            checked += 1
            if checked == 10:
                break
        assert checked == 10

    def test_realness_judged_relative_to_modulus(self):
        # Criterion-3 draws whose decaying values are tiny and complex
        # (|Im mu| / |mu| = 0.48, 0.07, 0.06 in 60 digits): an absolute
        # imaginary-part floor would call them real.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        from test_acceptance import specs_criterion3

        specs = specs_criterion3()
        for i in (2, 91, 117):
            mu_ref = _reference_cell_map(specs[i], mp)[0]
            assert np.max(np.abs(mu_ref.imag) / np.abs(mu_ref)) > 0.05
            assert build_cell_map(specs[i]).spectrum_all_real is False

    def test_realness_ignores_values_below_rounding(self):
        # The (5,150) cell of test_defective_pair_judged_by_its_mean has a
        # decaying value of about -8e-18, below QZ's absolute resolution:
        # its sign is noise and must not decide the verdict.
        cm = build_cell_map(random_spec(np.random.default_rng(0), 5, 150))
        tiny = cm.stable_values[np.abs(cm.stable_values) <= _REAL_FLOOR]
        assert tiny.size and np.any(tiny.real < 0.0)
        assert cm.spectrum_all_real is True


def _eig_stable_basis(spec):
    """Stable basis on u_0 from scipy.linalg.eig's unit complex vectors.

    Keeps Re z for one member of each conjugate pair and Im z for the
    other, which spans the same real plane as LAPACK's packed columns.
    """
    s = spec.s
    C, E, F, G = _boundary_reduction(spec)
    mu, Z = scipy.linalg.eig(*_linearisation(E, F, G))
    order = np.argsort(np.abs(mu), kind="stable")
    mu, Z = mu[order][: s - 1], Z[:, order][:, : s - 1]
    return C[: 2 * s] @ np.where(mu.imag < 0, Z.imag, Z.real)


class TestLapackPath:
    def test_packed_stable_basis_matches_eig(self):
        # Criterion-3 draws with complex decaying pairs, then cells with a
        # real decaying spectrum.
        from test_acceptance import specs_criterion3

        specs = specs_criterion3()
        rng = np.random.default_rng(31)
        cells = [specs[i] for i in (2, 91, 117)] + [
            random_spec(rng, int(rng.integers(2, 7)), int(rng.integers(2, 10))) for _ in range(10)
        ]
        real = []
        for spec in cells:
            cm = build_cell_map(spec)
            real.append(cm.spectrum_all_real)
            assert _subspace_gap(cm.stable_vectors, _eig_stable_basis(spec)) <= 1e-12
        assert not any(real[:3]) and sum(real[3:]) >= 5

    def test_infinite_eigenvalues_classify(self):
        # The growing modes of the (5,150) cell overflow the pencil: QZ
        # returns beta = 0 for them, which must classify without a
        # division warning (the suite turns RuntimeWarning into an error).
        spec = random_spec(np.random.default_rng(0), 5, 150)
        _, E, F, G = _boundary_reduction(spec)
        beta = dggev(*_linearisation(E, F, G), compute_vl=0)[2]
        assert np.any(beta == 0.0)
        cm = build_cell_map(spec)
        assert cm.stable_values.size == 4
        assert np.all(np.abs(cm.stable_values) < 1.0)
        assert np.all(np.isfinite(cm.stable_vectors))

    @pytest.mark.parametrize("field", ["kappa_long", "kappa_cross"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_elasticity_raises(self, demo2x2_spec, field, value):
        # The cell map reads only the elasticities; neither the interior
        # solve nor the QZ checks its input.
        with pytest.raises(SpecValidationError, match="non-finite"):
            build_cell_map(with_entry(demo2x2_spec, field, value))

    @pytest.mark.parametrize("size,what", [(2, "clamped cell interior"), (1, "Jordan-partner block")])
    def test_failed_lu_is_typed(self, demo2x2_spec, monkeypatch, size, what):
        # On demo-2x2 the interior solve is 2 x 2 and the Jordan-partner
        # block 1 x 1; a nonzero info from either dgesv is a SingularSolve.
        real = cellmap.dgesv

        def failing(a, b):
            lu, piv, x, info = real(a, b)
            return lu, piv, x, (2 if a.shape[0] == size else info)

        monkeypatch.setattr(cellmap, "dgesv", failing)
        with pytest.raises(SingularSolve, match=f"{what} is singular .dgesv info 2"):
            build_cell_map(demo2x2_spec)

    def test_isolated_interior_mass_is_typed(self):
        # Zero springs on both sides of column 2 leave its mass unattached:
        # the clamped interior is exactly singular.
        spec = make_spec(1, 4, [[1.0], [0.0], [0.0], [1.0]], np.zeros((4, 1, 1)), np.ones(4))
        with pytest.raises(SingularSolve, match="clamped cell interior"):
            build_cell_map(spec)

    @pytest.mark.parametrize("s,p", [(1, 1), (1, 3), (3, 1)])
    def test_no_interior_or_no_jordan_block(self, s, p):
        # p = 1 has no clamped interior and s = 1 an empty Jordan block.
        cm = build_cell_map(random_spec(np.random.default_rng(40), s, p))
        assert cm.generalized_vector[0] == 0.0
        assert np.all(np.isfinite(cm.generalized_vector))


class TestStructure:
    def test_quadratic_is_t_palindromic(self):
        rng = np.random.default_rng(16)
        for s in range(1, 7):
            for p in range(1, 13):
                _, E, F, G = _boundary_reduction(random_spec(rng, s, p))
                scale = max(np.abs(E).max(), np.abs(F).max(), np.abs(G).max())
                assert np.abs(E - G.T).max() <= 1e-13 * scale
                assert np.abs(F - F.T).max() <= 1e-13 * scale

    def test_census_classifies_both_ends(self):
        # Long high-contrast cells, where methods that solve an initial
        # value problem across the cell lose the spectrum.
        rng = np.random.default_rng(1)
        for _ in range(100):
            s, p = int(rng.integers(5, 7)), int(rng.integers(10, 13))
            spec = random_spec(rng, s, p, lo=1e-3, hi=100.0)
            for end in (spec, reversed_spec(spec)):
                cm = build_cell_map(end)
                assert cm.stable_values.size == s - 1
                assert np.all(np.abs(cm.stable_values) < 1.0)


class TestClassify:
    def test_single_strand_counts(self, uniform_map):
        assert uniform_map.stable_values.size == 0
        assert uniform_map.unstable_values.size == 0
        assert np.allclose(uniform_map.eigenvalues, [1.0, 1.0])

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

    def test_defective_pair_judged_by_its_mean(self):
        # On long cells rounding splits the doubled eigenvalue by more
        # than twice the centre tolerance, while its mean stays at 1.
        rng = np.random.default_rng(0)
        cm = build_cell_map(random_spec(rng, 5, 150))
        pair = cm.eigenvalues[4:6]
        assert abs(pair[0] - pair[1]) > 2 * CENTER_TOL
        assert abs(pair.mean() - 1.0) < 1e-10

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


def _jordan_reference(T):
    """(T - I) v = 1 with v[0] = 0, by least squares on the gauged system."""
    n = T.shape[0]
    M = np.vstack([T - np.eye(n), np.eye(n)[:1]])
    return np.linalg.lstsq(M, np.concatenate([np.ones(n), [0.0]]), rcond=None)[0]


class TestJordanChain:
    def test_uniform_chain(self, uniform_map):
        assert np.allclose(uniform_map.generalized_vector, [0.0, 1.0], atol=1e-12)

    def test_defining_property(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        res = (cm.T - np.eye(4)) @ cm.generalized_vector - np.ones(4)
        assert np.linalg.norm(res) < 1e-9

    def test_gauge_fixed_representative(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        vg = cm.generalized_vector
        assert vg[0] == 0.0
        shifted = vg + 5.0
        assert np.allclose((cm.T - np.eye(4)) @ shifted, np.ones(4))

    def test_build_map_consistent_with_direct_solve(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        assert np.allclose(cm.generalized_vector, _jordan_reference(cm.T), atol=1e-9)


def _forward_columns(spec, u0, columns):
    """Continue columns 0 and 1 through the steady equations, column by column."""
    s = spec.s
    A = build_steady_operator(spec, rows=max(columns - 2, 1))
    x = list(np.asarray(u0, dtype=float).reshape(2, s))
    for n in range(columns - 2):
        a = A[n * s: (n + 1) * s]
        x.append(-(a[:, n * s: (n + 2) * s] @ np.concatenate(x[n: n + 2]))
                 / np.diag(a[:, (n + 2) * s: (n + 3) * s]))
    return np.concatenate(x)


class TestReconstruct:
    def test_two_periodic_identity(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        assert np.array_equal(cm.first_cell_gen, cm.generalized_vector)

    def test_constant_extension(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 2, 4)
        C = _boundary_reduction(spec)[0]
        assert np.allclose(C @ np.ones(4), np.ones(spec.n_cell + spec.s), atol=1e-10)

    def test_consistent_with_map_step(self):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, 2, 3)
        cm = build_cell_map(spec)
        u0 = rng.standard_normal(4)
        full = _forward_columns(spec, u0, spec.p + 2)
        C = _boundary_reduction(spec)[0]
        ends = np.concatenate([full[:2], full[spec.p * 2: spec.p * 2 + 2]])
        assert np.allclose(C @ ends, full[: spec.p * 2 + 2], atol=1e-10 * np.abs(full).max())
        assert np.allclose(full[spec.p * 2:], cm.T @ u0, atol=1e-10 * max(1, np.abs(full).max()))

    def test_first_cell_gen_matches_reconstruction(self, demo2x2_spec):
        rng = np.random.default_rng(15)
        for spec in (demo2x2_spec, random_spec(rng, 3, 4), random_spec(rng, 2, 1)):
            cm = build_cell_map(spec)
            rec = _forward_columns(spec, cm.generalized_vector, max(spec.p, 2))
            assert np.allclose(cm.first_cell_gen, rec[: spec.n_cell], atol=1e-9)
