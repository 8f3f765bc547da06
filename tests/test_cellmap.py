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
    left_end_bc,
    reversed_spec,
)
from latticebc.cellmap import _REAL_FLOOR, CENTER_TOL, _boundary_reduction, _linearisation
from latticebc import boundary, cellmap
from latticebc.lattice import MicroBCSpec

from conftest import _loop_steady, make_spec, random_spec, transfer_matrix, with_entry


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
    A = mp.matrix(_loop_steady(spec, p).tolist())
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
    def test_uniform_chain_map(self, uniform_spec, uniform_map):
        # x_{n+1} = 2 x_n - x_{n-1}: one Jordan block at 1
        T = transfer_matrix(uniform_spec)
        assert np.allclose(T, [[0.0, 1.0], [-1.0, 2.0]])
        assert np.allclose(uniform_map.eigenvalues, np.linalg.eigvals(T), atol=1e-6)

    def test_ones_is_fixed(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        T = transfer_matrix(demo2x2_spec)
        assert np.allclose(T @ cm.center_vector, cm.center_vector, atol=1e-10)

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
        T = transfer_matrix(demo2x2_spec)
        assert np.max(np.abs(T - T_ref)) < 1e-12 * np.max(np.abs(T_ref))
        # the decaying mode of the pipeline is an eigenvector of T_ref
        cm = build_cell_map(demo2x2_spec)
        v, mu = cm.stable_vectors[:, 0], cm.stable_values[0].real
        scale = np.max(np.abs(T_ref)) * np.linalg.norm(v)
        assert np.linalg.norm(T_ref @ v - mu * v) < 1e-12 * scale

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
            A = _loop_steady(spec, p)
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
        # This (5,150) cell has a decaying value of about -8e-18, below
        # QZ's absolute resolution: its sign is noise and must not decide
        # the verdict.
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
        # Neither the interior solve nor the QZ checks its input;
        # construction rejects the spec before either.
        with pytest.raises(SpecValidationError, match="non-finite"):
            build_cell_map(with_entry(demo2x2_spec, field, value))

    @pytest.mark.parametrize("size,what", [(2, "clamped cell interior"), (1, "Jordan-partner block")])
    def test_failed_lu_is_typed(self, demo2x2_spec, monkeypatch, size, what):
        # On demo-2x2 the clamped interior is 2 x 2, solved by banded
        # Cholesky (dpbsv), and the Jordan-partner block 1 x 1, by LU
        # (dgesv); a nonzero info from either is a SingularSolve.
        routine = {2: "dpbsv", 1: "dgesv"}[size]
        real = getattr(cellmap, routine)

        def failing(*args, **kwargs):
            *out, info = real(*args, **kwargs)
            return (*out, 2)

        monkeypatch.setattr(cellmap, routine, failing)
        with pytest.raises(SingularSolve, match=f"{what} is .*{routine} info 2"):
            build_cell_map(demo2x2_spec)

    def test_isolated_interior_mass_is_typed(self, monkeypatch):
        # Zero springs on both sides of column 2 leave its mass unattached.
        # Construction rejects such a spec, so the interior it would give,
        # K = diag(1, 0, 1), is handed to the real dpbsv directly; its
        # exactly singular factor must still raise.
        with pytest.raises(SpecValidationError) as info:
            make_spec(1, 4, [[1.0], [0.0], [0.0], [1.0]], np.zeros((4, 1, 1)), np.ones(4))
        assert info.value.violations == [
            "nonpositive longitudinal elasticity kappa_long[1][0]",
            "nonpositive longitudinal elasticity kappa_long[2][0]",
        ]
        spec = make_spec(1, 4, np.ones((4, 1)), np.zeros((4, 1, 1)), np.ones(4))
        monkeypatch.setattr(cellmap, "build_steady_operator",
                            lambda spec, rows: np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        cellmap._reset_memo()   # a uniform chain is its own reversal
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
                cellmap._reset_memo()   # the reversed end is meant as a cold build
                cm = build_cell_map(end)
                assert cm.stable_values.size == s - 1
                assert np.all(np.abs(cm.stable_values) < 1.0)


class TestClassify:
    def test_single_strand_counts(self, uniform_map):
        assert uniform_map.stable_values.size == 0
        assert uniform_map.eigenvalues[2:].size == 0
        assert np.allclose(uniform_map.eigenvalues, [1.0, 1.0])

    def test_demo_counts(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        assert cm.stable_values.size == 1
        assert cm.eigenvalues[3:].size == 1
        assert 0 < cm.stable_values[0].real < 1
        assert cm.eigenvalues[3].real > 1
        assert cm.spectrum_all_real

    def test_random_connected_counts(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            s = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            spec = random_spec(rng, s, p)
            cm = build_cell_map(spec)
            assert cm.stable_values.size == s - 1
            assert cm.eigenvalues[s + 1:].size == s - 1
            assert np.all(np.abs(cm.eigenvalues[s + 1:]) > 1)

    def test_defective_pair_judged_by_its_mean(self):
        # On long cells rounding splits the doubled eigenvalue by more
        # than twice the centre tolerance, while its mean stays at 1.
        rng = np.random.default_rng(0)
        cm = build_cell_map(random_spec(rng, 5, 250))
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
        T = transfer_matrix(demo2x2_spec)
        res = (T - np.eye(4)) @ cm.generalized_vector - np.ones(4)
        assert np.linalg.norm(res) < 1e-9

    def test_gauge_fixed_representative(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        vg = cm.generalized_vector
        assert vg[0] == 0.0
        shifted = vg + 5.0
        T = transfer_matrix(demo2x2_spec)
        assert np.allclose((T - np.eye(4)) @ shifted, np.ones(4))

    def test_build_map_consistent_with_direct_solve(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        T = transfer_matrix(demo2x2_spec)
        assert np.allclose(cm.generalized_vector, _jordan_reference(T), atol=1e-9)


def _forward_columns(spec, u0, columns):
    """Continue columns 0 and 1 through the steady equations, column by column."""
    s = spec.s
    A = _loop_steady(spec, max(columns - 2, 1))
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
        u0 = rng.standard_normal(4)
        full = _forward_columns(spec, u0, spec.p + 2)
        C = _boundary_reduction(spec)[0]
        ends = np.concatenate([full[:2], full[spec.p * 2: spec.p * 2 + 2]])
        assert np.allclose(C @ ends, full[: spec.p * 2 + 2], atol=1e-10 * np.abs(full).max())
        assert np.allclose(full[spec.p * 2:], transfer_matrix(spec) @ u0, atol=1e-10 * max(1, np.abs(full).max()))

    def test_first_cell_gen_matches_reconstruction(self, demo2x2_spec):
        rng = np.random.default_rng(15)
        for spec in (demo2x2_spec, random_spec(rng, 3, 4), random_spec(rng, 2, 1)):
            cm = build_cell_map(spec)
            rec = _forward_columns(spec, cm.generalized_vector, max(spec.p, 2))
            assert np.allclose(cm.first_cell_gen, rec[: spec.n_cell], atol=1e-9)


def _quartet_spec():
    """The first draw of test_complex_quartets_are_reciprocal_conjugate
    whose decaying values include a complex pair (criterion 3's case)."""
    rng = np.random.default_rng(3)
    while True:
        spec = random_spec(rng, int(rng.integers(3, 6)), int(rng.integers(2, 6)),
                           lo=1e-3, hi=100.0)
        if not build_cell_map(spec).spectrum_all_real:
            return spec


@pytest.fixture
def qz_calls(monkeypatch):
    """Counts the cell-pencil QZs, one per cold build."""
    calls = []
    real = cellmap.dggev

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cellmap, "dggev", counting)
    cellmap._reset_memo()
    yield calls
    cellmap._reset_memo()


def _micro_bcs(s):
    return [MicroBCSpec.dirichlet_zero(s, "right"),
            MicroBCSpec("flux", np.linspace(-1.0, 1.0, s), "right"),
            MicroBCSpec("robin_like", np.column_stack([np.full(s, 0.3), np.ones(s)]), "right")]


class TestReversedMemo:
    """build_cell_map also forms the reversed lattice's map off its
    growing modes; right_end_bc after left_end_bc then needs no QZ."""

    @pytest.mark.parametrize("case", [
        "phase0", "phase1", "phase2", "phase3", "p1", "s1", "quartets"])
    def test_hit_matches_cold_build(self, case, qz_calls):
        rng = np.random.default_rng(8)
        if case.startswith("phase"):
            spec = random_spec(rng, 3, 4, N=12 + int(case[-1]))
        elif case == "p1":
            spec = random_spec(rng, 3, 1, N=9)
        elif case == "s1":
            spec = random_spec(rng, 1, 3, N=9)
        else:
            spec = _quartet_spec()
            spec = dataclasses.replace(spec, N=3 * spec.p)
        for bc in _micro_bcs(spec.s):
            cellmap._reset_memo()
            cold = boundary.right_end_bc(spec, bc)
            cellmap._reset_memo()
            build_cell_map(spec)
            before = len(qz_calls)
            warm = boundary.right_end_bc(spec, bc)
            # Only the phase-0 reversal is the one the build memoises.
            assert len(qz_calls) - before == int(spec.N % spec.p != 0)
            # d near 0 carries an absolute rounding error of order eps*h.
            if cold.d is None:
                assert warm.d is None
            else:
                assert warm.d == pytest.approx(cold.d, rel=1e-11, abs=1e-11 * spec.h)
            scale = np.abs(cold.rhs_weights).max()
            assert np.abs(warm.rhs_weights - cold.rhs_weights).max() <= 1e-11 * scale

    def test_hit_serves_the_same_subspaces(self, qz_calls):
        spec = _quartet_spec()
        spec = dataclasses.replace(spec, N=2 * spec.p)
        rspec = reversed_spec(spec)
        cellmap._reset_memo()
        cold = build_cell_map(rspec)
        cellmap._reset_memo()
        before = len(qz_calls)
        build_cell_map(spec)
        warm = build_cell_map(rspec)
        assert len(qz_calls) - before == 1
        assert _subspace_gap(warm.stable_vectors, cold.stable_vectors) < 1e-10
        assert np.allclose(warm.first_cell_gen, cold.first_cell_gen, rtol=0, atol=1e-12)
        assert warm.generalized_vector[0] == 0.0
        assert warm.spectrum_all_real == cold.spectrum_all_real is False

    def test_changed_elasticity_misses(self, qz_calls):
        spec = random_spec(np.random.default_rng(9), 3, 4, N=8)
        rspec = reversed_spec(spec)
        kc = rspec.kappa_cross.copy()
        kc[1, 0, 2] = kc[1, 2, 0] = np.nextafter(kc[1, 0, 2], np.inf)
        build_cell_map(spec)
        build_cell_map(dataclasses.replace(rspec, kappa_cross=kc))
        assert len(qz_calls) == 2

    @pytest.mark.parametrize("field", ["rho", "h", "N"])
    def test_density_spacing_and_length_hit(self, field, qz_calls):
        spec = random_spec(np.random.default_rng(10), 3, 4, N=8)
        rspec = reversed_spec(spec)
        value = {"rho": 0.5 * rspec.rho, "h": 0.25, "N": 9}[field]
        build_cell_map(spec)
        cm = build_cell_map(dataclasses.replace(rspec, **{field: value}))
        assert len(qz_calls) == 1
        assert cm.stable_values.size == 2

    def test_raising_build_caches_nothing(self, demo2x2_spec, monkeypatch, qz_calls):
        # The Jordan-partner solve is the last step that can raise.
        real = cellmap.dgesv

        def failing(*args, **kwargs):
            *out, info = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(cellmap, "dgesv", failing)
        with pytest.raises(SingularSolve):
            build_cell_map(demo2x2_spec)
        monkeypatch.setattr(cellmap, "dgesv", real)
        build_cell_map(reversed_spec(dataclasses.replace(demo2x2_spec, N=8)))
        assert len(qz_calls) == 2

    def test_map_is_read_only(self, demo2x2_spec, qz_calls):
        spec = dataclasses.replace(demo2x2_spec, N=8)
        for cm in (build_cell_map(spec), build_cell_map(reversed_spec(spec))):
            for name in ("eigenvalues", "stable_values", "stable_vectors", "center_vector",
                         "generalized_vector", "first_cell_gen"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(cm, name)[0] = 7.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                cm.spectrum_all_real = False
        assert len(qz_calls) == 1
