import dataclasses

import numpy as np
import pytest
import scipy.linalg

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
    validate,
)
from latticebc.cli import config_from_dict, preset_config
from latticebc.errors import EigenSolveError, KindUnsupported, NoRootInBracket
from conftest import clamped_dense, make_spec, random_spec


def robin(d, side="left"):
    return MacroBC(MacroBCKind.ROBIN, side, d, None, ())


def neumann(side="left"):
    return MacroBC(MacroBCKind.NEUMANN, side, None, None, ())


def end_sinusoid(q, bc0, x):
    """(U, U') at x of U = a sin(qx) + b cos(qx), the sinusoid that meets
    the left condition."""
    a, b = (0.0, 1.0) if bc0.kind == MacroBCKind.NEUMANN else (1.0, -bc0.d * q)
    return a * np.sin(q * x) + b * np.cos(q * x), q * (a * np.cos(q * x) - b * np.sin(q * x))


def right_residual(q, bc0, bcL, L):
    """Right-end condition of the left-end sinusoid, relative to its
    amplitude sqrt(U^2 + (U'/q)^2)."""
    u, du = end_sinusoid(q, bc0, L)
    if bcL.kind == MacroBCKind.NEUMANN:
        return du / q / np.hypot(u, du / q)
    return (u + bcL.d * du) / (np.hypot(u, du / q) * (1 + abs(bcL.d) * q))


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
        K, mass = clamped_dense(spec)
        lam = scipy.linalg.eigh(K, np.diag(mass), eigvals_only=True)
        expected = np.sort([2.0 * (1 - np.cos(np.pi * m / 8)) for m in range(1, 8)])
        assert np.allclose(lam, expected, rtol=1e-10)

    def test_uniform_slowest_value(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[1.0]], N=8)
        lam, w, _ = microscale_slowest_mode(spec)
        assert lam == pytest.approx(2.0 * (1 - np.cos(np.pi / 8)), rel=1e-12)
        assert w[0, 0] == 0.0 and w[8, 0] == 0.0

    def test_uniform_mode_shape(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[1.0]], N=8)
        _, w, _ = microscale_slowest_mode(spec)
        shape = w[:, 0]
        ref = np.sin(np.pi * np.arange(9) / 8)
        scale = shape[4] / ref[4]
        assert np.max(np.abs(shape - scale * ref)) < 1e-10 * abs(scale)


def loop_stiffness(spec):
    """Clamped stiffness K = -S over masses n = 1..N-1, spring by spring."""
    s, p, N = spec.s, spec.p, spec.N
    K = np.zeros((s * (N - 1), s * (N - 1)))

    def add_spring(n1, j1, n2, j2, kappa):
        # clamped masses n = 0 and N carry no unknown
        ends = [(n - 1) * s + j for n, j in ((n1, j1), (n2, j2)) if 0 < n < N]
        for a in ends:
            K[a, a] += kappa
        if len(ends) == 2:
            a, b = ends
            K[a, b] -= kappa
            K[b, a] -= kappa

    for n in range(N):
        for j in range(s):
            add_spring(n, j, n + 1, j, spec.kappa_long[n % p, j])
            for i in range(j + 1, s):
                add_spring(n, i, n, j, spec.kappa_cross[n % p, i, j])
    return K


def loop_mass(spec):
    """Mass diagonal h^2 rho over masses n = 1..N-1, mass by mass."""
    return np.array([spec.h ** 2 * spec.rho[n % spec.p, j]
                     for n in range(1, spec.N) for j in range(spec.s)])


def dense_slowest(spec):
    """Reference: every eigenpair of the spring-by-spring clamped system,
    densely; it shares no code with the solver's assembly."""
    lam, vecs = scipy.linalg.eigh(loop_stiffness(spec), np.diag(loop_mass(spec)))
    return lam[0], vecs[:, 0].reshape(spec.N - 1, spec.s)


def count_lapack(monkeypatch):
    """Record the name of every dpbtrf and dpbtrs call of
    microscale_slowest_mode."""
    calls = []
    for name in ("dpbtrf", "dpbtrs"):
        def counted(*args, _name=name, _real=getattr(validate, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(validate, name, counted)
    return calls


def contrast_spec(rng, D):
    """Connected lattice with every parameter 10^U(-D, D), s 1-4, p 1-5 and
    N 50-1500."""
    s, p, N = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(50, 1501))
    kc = np.zeros((p, s, s))
    iu = np.triu_indices(s, 1)
    kc[:, iu[0], iu[1]] = 10.0 ** rng.uniform(-D, D, (p, iu[0].size))
    kc += kc.transpose(0, 2, 1)
    return make_spec(s, p, 10.0 ** rng.uniform(-D, D, (p, s)), kc,
                     10.0 ** rng.uniform(-D, D, (p, s)), N=N)


def sparse_lowest(band):
    """Reference: the lowest eigenvalue of the symmetric band by ARPACK
    shift-invert at 0 on a sparse matrix."""
    import scipy.sparse
    import scipy.sparse.linalg

    n = band.shape[1]
    offsets = range(band.shape[0])
    lower = scipy.sparse.diags([band[d, : n - d] for d in offsets], [-d for d in offsets])
    K = (lower + scipy.sparse.triu(lower.T, 1)).tocsc()
    return scipy.sparse.linalg.eigsh(K, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]


def unit_avg(w):
    avg = w.mean(axis=1)
    return avg / np.linalg.norm(avg)


class TestSparseEigensolve:
    def test_assembly_is_sparse(self, demo2x2_spec):
        from latticebc.validate import _interior_system

        band, mass, _ = _interior_system(demo2x2_spec)
        assert band.shape == (3, 30) and mass.shape == (30,)
        K, _ = clamped_dense(demo2x2_spec)
        # two strands: 2 diagonal + 2 cross entries per column, 2 links per step
        assert np.count_nonzero(K) == 15 * 4 + 14 * 4

    def test_band_matches_spring_loop(self):
        rng = np.random.default_rng(77)
        for s in range(1, 7):
            for p in range(1, 10):
                spec = random_spec(rng, s, p, N=int(rng.integers(2, 3 * p + 4)))
                K, mass = clamped_dense(spec)
                ref = loop_stiffness(spec)
                assert np.max(np.abs(K - ref)) <= 1e-15 * np.max(np.abs(ref))
                n = np.arange(1, spec.N)
                assert np.array_equal(mass, spec.h ** 2 * spec.rho[n % p].ravel())

    @pytest.mark.parametrize("s,N", [(3, 200), (8, 100), (20, 60)])
    def test_weakly_coupled_strands(self, s, N, monkeypatch):
        # s strands differing by 1e-3 and joined by 1e-9 springs: their
        # slowest modes form a cluster ~1e-4 wide that the shifted
        # iteration must resolve, in few solves however many strands
        rng = np.random.default_rng(s)
        p = 2
        cross = np.full((p, s, s), 1e-9)
        cross[:, np.arange(s), np.arange(s)] = 0.0
        kl = np.array([[1.0], [0.9]]) + 1e-3 * rng.uniform(-1, 1, (p, s))
        rho = 1.0 + 1e-3 * rng.uniform(-1, 1, (p, s))
        spec = make_spec(s, p, kl, cross, rho, N=N)
        calls = count_lapack(monkeypatch)
        lam, w, residual = microscale_slowest_mode(spec)
        assert calls.count("dpbtrs") <= 20
        K, mass = loop_stiffness(spec), loop_mass(spec)
        lam_ref = scipy.linalg.eigh(K, np.diag(mass), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert lam == pytest.approx(lam_ref, rel=1e-9)
        v = w[1:-1].ravel()
        Kw, Mw = K @ v, mass * v
        assert np.linalg.norm(Kw - lam * Mw) / (np.linalg.norm(Kw) + lam * np.linalg.norm(Mw)) <= 1e-10
        assert residual <= 1e-10

    @pytest.mark.parametrize("contrast", [100.0, 1e4])
    def test_start_favouring_a_higher_mode(self, contrast, monkeypatch):
        # Two nearly decoupled strands: the heavy one's slowest mode is
        # 1e-3 above the light one's, and the start vector sqrt(mass)
        # weighs it sqrt(contrast) times more.  theta - 2r then lies above
        # lambda_min, dpbtrf refuses those shifts, and the shift must be
        # found by bisection instead.
        cross = np.full((1, 2, 2), 1e-9)
        cross[0, 0, 0] = cross[0, 1, 1] = 0.0
        spec = make_spec(2, 1, [[1.001 * contrast, 1.0]], cross, [[contrast, 1.0]], N=100)
        calls = count_lapack(monkeypatch)
        lam, w, residual = microscale_slowest_mode(spec)
        assert calls.count("dpbtrs") <= 20
        lam_ref, _ = dense_slowest(spec)
        assert lam == pytest.approx(lam_ref, rel=1e-9)
        assert residual <= 1e-10
        assert np.abs(w[:, 0]).max() < 1e-4 * np.abs(w[:, 1]).max()

    def test_long_demo_domain_takes_few_solves(self, demo2x2_spec, monkeypatch):
        spec = dataclasses.replace(demo2x2_spec, N=1000)
        calls = count_lapack(monkeypatch)
        lam, _, residual = microscale_slowest_mode(spec)
        assert calls.count("dpbtrf") <= 3 and calls.count("dpbtrs") <= 3
        assert 0.0 < lam and residual <= 1e-9

    @pytest.mark.parametrize("name", ["demo-5x10", "s3p8"])
    def test_long_domains_take_three_factors(self, name, monkeypatch):
        # the half-wave start and Temple-aimed shifts: the unshifted
        # factor, one aimed shift and one certified shift, a solve each
        if name == "demo-5x10":
            spec = config_from_dict(preset_config(name, h=2 * np.pi / 46), {"N": 230}).spec
        else:
            spec = random_spec(np.random.default_rng(1), 3, 8, N=480)
        calls = count_lapack(monkeypatch)
        lam, _, residual = microscale_slowest_mode(spec)
        assert calls.count("dpbtrf") <= 3 and calls.count("dpbtrs") <= 3
        assert 0.0 < lam and residual <= 1e-9

    def test_contrast_census(self):
        # Parameters spread over up to six decades.  Each lambda lies in its
        # certified bracket [lambda (1 - 1e-8), lambda], widened by the
        # rounding of K~ (64 eps times its Gershgorin bound) that neither
        # solver can resolve, or the solve refuses to certify it, which it
        # may only where that rounding rivals the bracket.  The reference
        # works on the solver's own K~: an assembly rounded otherwise moves
        # lambda by up to ~5e-7 on such draws.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        for D in (0.5, 1.0, 2.0, 3.0):
            for _ in range(25):
                spec = contrast_spec(rng, D)
                band, _, gershgorin = validate._interior_system(spec)
                lam_ref = sparse_lowest(band)
                rounding = 64 * eps * gershgorin
                try:
                    lam, _, residual = microscale_slowest_mode(spec)
                except EigenSolveError as exc:
                    assert "not certified smallest" in str(exc) and rounding > 1e-8 * lam_ref
                    continue
                assert lam * (1 - 1e-8) - rounding <= lam_ref <= lam + rounding
                # the relative residual's rounding floor is eps ||K~|| / lambda
                assert residual <= max(1e-9, eps * gershgorin / lam)

    def test_agrees_with_dense_on_random_lattices(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            s, p = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            spec = random_spec(rng, s, p, N=int(rng.integers(2, 61)))
            lam, w, _ = microscale_slowest_mode(spec)
            lam_ref, w_ref = dense_slowest(spec)
            assert lam == pytest.approx(lam_ref, rel=1e-9)
            # the certified bracket [lam (1 - 1e-8), lam], whose upper end
            # holds up to the rounding of the two solvers
            assert lam * (1 - 1e-8) <= lam_ref <= lam * (1 + 1e-10)
            a, b = unit_avg(w[1:-1]), unit_avg(w_ref)
            assert np.max(np.abs(a - np.sign(a @ b) * b)) < 1e-8
            assert np.all(w[0] == 0.0) and np.all(w[-1] == 0.0)

    @pytest.mark.parametrize("s,N", [(1, 2), (2, 2), (1, 3)])
    def test_tiny_systems(self, s, N):
        spec = random_spec(np.random.default_rng(s * 10 + N), s, 2, N=N)
        lam, w, _ = microscale_slowest_mode(spec)
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
        lam, w, _ = microscale_slowest_mode(spec)
        expected = 2 * kappa / (rho * h * h) * (1 - np.cos(np.pi / N))
        assert lam == pytest.approx(expected, rel=1e-9)
        ref = np.sin(np.pi * np.arange(N + 1) / N)
        shape = w[:, 0] / w[N // 2, 0]
        assert np.max(np.abs(shape - ref)) < 1e-8
        assert np.allclose(w, w[:, :1], atol=1e-8 * np.abs(w).max())

    def test_solve_cap_is_typed(self, demo2x2_spec, monkeypatch):
        monkeypatch.setattr(validate, "MAX_SOLVES", 2)
        with pytest.raises(EigenSolveError, match="no convergence in 2 solves"):
            microscale_slowest_mode(demo2x2_spec)

    def test_solve_failure_is_typed(self, demo2x2_spec, monkeypatch):
        def failing(factor, x, **kwargs):
            return x, -2

        monkeypatch.setattr(validate, "dpbtrs", failing)
        with pytest.raises(EigenSolveError, match="dpbtrs info -2"):
            microscale_slowest_mode(demo2x2_spec)

    def test_certificate_failure_is_typed(self, demo2x2_spec, monkeypatch):
        # Every factor after the unshifted one fails, so the iteration
        # converges at sigma = 0 and the certificate factor fails too.
        real, calls = validate.dpbtrf, []

        def only_first(band, **kwargs):
            calls.append(1)
            factor, info = real(band, **kwargs)
            return factor, info if len(calls) == 1 else 1

        monkeypatch.setattr(validate, "dpbtrf", only_first)
        with pytest.raises(EigenSolveError, match="not certified smallest"):
            microscale_slowest_mode(demo2x2_spec)
        assert len(calls) > 2

    def test_cholesky_failure_is_typed(self, demo2x2_spec, monkeypatch):
        # Construction keeps a spec's clamped stiffness positive definite;
        # an unshifted factor that stops with dpbtrf info > 0 anyway must
        # raise.
        real = validate.dpbtrf

        def failing(band, **kwargs):
            return real(band, **kwargs)[0], 1

        monkeypatch.setattr(validate, "dpbtrf", failing)
        with pytest.raises(EigenSolveError, match="dpbtrf info 1"):
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

    @pytest.mark.parametrize("d", [0.2, -0.2, 0.45])
    @pytest.mark.parametrize("mirror", [False, True], ids=["neumann-robin", "robin-neumann"])
    def test_neumann_robin_closed_form(self, d, mirror):
        # Neumann at 0, U + d U' = 0 at L: U = cos(qx) and d q tan(qL) = 1,
        # whose smallest positive root lies in (0, pi/2L) for d > 0 and in
        # (pi/2L, pi/L) for d < 0 (the quarter wave, not the half wave).
        # The mirror x -> L - x flips the sign of U', so Robin d at 0 and
        # Neumann at L give the same q with d -> -d.
        from scipy.optimize import brentq

        c, L = 1.7, 1.3
        x = np.linspace(0, L, 27)
        ends = (robin(-d), neumann("right")) if mirror else (neumann(), robin(d, "right"))
        lam, mode = macroscale_slowest_mode(c, L, *ends, x)
        q = np.sqrt(lam / c)
        lo, hi = (0.0, np.pi / (2 * L)) if d > 0 else (np.pi / (2 * L), np.pi / L)
        ref = brentq(lambda k: d * k * np.sin(k * L) - np.cos(k * L), lo, hi, xtol=1e-300)
        assert q == pytest.approx(ref, rel=1e-13)
        shape = np.cos(q * (L - x)) if mirror else np.cos(q * x)
        assert np.allclose(mode, np.sign(mode @ shape) * shape, atol=1e-13)

    def test_random_ends_meet_both_conditions(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            L, c = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
            d0, dL = rng.uniform(-0.49, 0.49, 2) * L
            kinds = rng.integers(0, 2, 2)
            bc0 = robin(d0) if kinds[0] else neumann()
            bcL = robin(dL, "right") if kinds[1] else neumann("right")
            # clustered at the ends, where a localised mode below puts a zero
            # within about |d| of the end
            x = L * (1 - np.cos(np.linspace(0, np.pi, 401))) / 2
            lam, mode = macroscale_slowest_mode(c, L, bc0, bcL, x)
            q = np.sqrt(lam / c)
            # the mode is the left-end sinusoid, and it meets the right end
            u = end_sinusoid(q, bc0, x)[0]
            assert np.max(np.abs(mode - (mode @ u) / (u @ u) * u)) <= 1e-12
            assert abs(right_residual(q, bc0, bcL, L)) <= 1e-12
            # no smaller positive q meets both ends
            below = right_residual(q * np.arange(1, 1000) / 1000, bc0, bcL, L)
            assert np.all(below > 0) or np.all(below < 0)
            # Sturm: a mode has one sign change inside (0, L) per mode below
            # it, so a fundamental has none.  Below the slowest positive q
            # lie the boundary-localised modes (q = i/d0 for d0 > 0 and
            # q = -i/dL for dL < 0) and, between Neumann ends, the constant.
            below_modes = (int(kinds[0] and d0 > 0) + int(kinds[1] and dL < 0)
                           + int(not kinds.any()))
            inner = np.sign(mode[1:-1][np.abs(mode[1:-1]) > 1e-12])
            assert np.count_nonzero(inner[1:] != inner[:-1]) == below_modes

    @pytest.mark.parametrize("bc0,bcL", [
        (robin(0.6), robin(-0.5, "right")),
        (robin(0.5), robin(0.5, "right")),
        (neumann(), robin(1.2, "right")),
        (robin(np.nan), neumann("right")),
    ], ids=["sum-above-L", "sum-equals-L", "neumann-robin", "nan"])
    def test_no_root_when_ends_reach_across(self, bc0, bcL):
        with pytest.raises(NoRootInBracket, match="not below L"):
            macroscale_slowest_mode(1.0, 1.0, bc0, bcL, np.linspace(0, 1, 5))

    def test_cauchy_pair_unsupported(self):
        pair = MacroBC(MacroBCKind.CAUCHY_PAIR, "left", None, None, ("a",),
                       value_weights=np.ones(1), slope_weights=np.ones(1))
        with pytest.raises(KindUnsupported):
            macroscale_slowest_mode(1.0, 1.0, pair, robin(0.0, "right"), np.linspace(0, 1, 5))


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

    def test_naive_dirichlet_in_closed_form(self, demo2x2_spec):
        # d_0 = d_L = 0: the phase root is pi / L, as the root finder gets it
        sm = construct_slow_manifold(demo2x2_spec)
        zeros = MicroBCSpec.dirichlet_zero(2)
        comp = compare_modes(demo2x2_spec, sm, left_end_bc(demo2x2_spec, zeros),
                             right_end_bc(demo2x2_spec, zeros))
        lam, mode = macroscale_slowest_mode(sm.c, 16.0, robin(0.0), robin(0.0, "right"),
                                            comp.x_grid)
        assert comp.lambda_dirichlet == pytest.approx(lam, rel=1e-14)
        assert np.max(np.abs(comp.macro_dirichlet - mode / np.max(np.abs(mode)))) < 1e-14

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
        assert rep["zero_multiplicity"] == 1
        assert rep["spectral_gap"] >= 0.0

    def test_demo_passes(self, demo2x2_spec):
        rep = spectrum_checks(demo2x2_spec)
        assert rep["passed"]
        assert rep["min_rayleigh"] >= 0.0

    def test_disconnected_reports_double_zero(self):
        spec = make_spec(2, 2, np.ones((2, 2)), [0.0, 0.0], np.ones((2, 2)))
        rep = spectrum_checks(spec)
        assert rep["zero_multiplicity"] == 2

    def test_random_connected(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            spec = random_spec(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            rep = spectrum_checks(spec)
            assert rep["zero_multiplicity"] == 1
            assert rep["spectral_gap"] > 0.0
