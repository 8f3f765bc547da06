import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from latticebc import (
    LatticeSpec,
    MicroBCSpec,
    SpecValidationError,
    build_L0,
    build_Lk,
    build_Lk_exact,
    build_steady_operator,
    mass_scaled,
    reversed_spec,
)
from latticebc import cli
from latticebc.lattice import _validate_spec

from conftest import (_loop_kappa_plus, _loop_steady, band_dense, lower_band, make_spec,
                      random_spec, with_entry)


def spec_strategy(max_s=3, max_p=4):
    @st.composite
    def build(draw):
        s = draw(st.integers(1, max_s))
        p = draw(st.integers(1, max_p))
        seed = draw(st.integers(0, 2 ** 31 - 1))
        return random_spec(np.random.default_rng(seed), s, p)

    return build()


def violations(make, *args, **kwargs):
    """The messages construction raises, or [] when it succeeds; a spec
    that constructs has no violations."""
    try:
        spec = make(*args, **kwargs)
    except SpecValidationError as exc:
        return exc.violations
    assert _validate_spec(spec) == []
    return []


class TestValidateSpec:
    def test_valid_uniform(self, uniform_spec):
        assert _validate_spec(uniform_spec) == []

    def test_zero_longitudinal_elasticity(self):
        v = violations(make_spec, 1, 1, [[0.0]], np.zeros((1, 1, 1)), [[1.0]])
        assert any("longitudinal" in m for m in v)

    def test_asymmetric_cross(self):
        kc = np.zeros((1, 2, 2))
        kc[0, 0, 1] = 1.0
        v = violations(make_spec, 2, 1, [[1.0, 1.0]], kc, [[1.0, 1.0]])
        assert any("asymmetric" in m for m in v)

    def test_nonzero_self_elasticity(self):
        kc = np.zeros((1, 2, 2))
        kc[0] = [[1.0, 0.5], [0.5, 0.0]]
        v = violations(make_spec, 2, 1, [[1.0, 1.0]], kc, [[1.0, 1.0]])
        assert any("self" in m for m in v)

    def test_bad_shapes(self):
        v = violations(LatticeSpec, s=2, p=2, h=1.0, N=8,
                       kappa_long=np.ones((2, 1)),
                       kappa_cross=np.zeros((2, 2, 2)),
                       rho=np.ones((2, 2)))
        assert any("shape" in m for m in v)

    def test_nonpositive_density(self):
        v = violations(make_spec, 1, 1, [[1.0]], np.zeros((1, 1, 1)), [[-1.0]])
        assert any("density" in m for m in v)

    def test_every_broken_entry_named(self):
        kc = np.zeros((3, 2, 2))
        kc[0, 0, 1] = 1.0                      # asymmetric at column 0
        kc[1] = [[0.5, -1.0], [-1.0, 0.0]]     # self and negative at column 1
        kl = [[1.0, 0.0], [1.0, 1.0], [-2.0, -0.5]]
        rho = [[1.0, 1.0], [0.0, 1.0], [1.0, -1.0]]
        # one message per broken entry, in (column, strand) order
        assert violations(make_spec, 2, 3, kl, kc, rho) == [
            "nonpositive longitudinal elasticity kappa_long[0][1]",
            "nonpositive density rho[1][0]",
            "nonpositive longitudinal elasticity kappa_long[2][0]",
            "nonpositive longitudinal elasticity kappa_long[2][1]",
            "nonpositive density rho[2][1]",
            "asymmetric cross elasticity at column 0",
            "nonzero self elasticity at column 1",
            "negative cross elasticity at column 1",
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_entry_loops(self, seed):
        # the per-entry loops _validate_spec replaced, as the reference;
        # construction succeeds exactly when they find nothing
        rng = np.random.default_rng(seed)
        for _ in range(40):
            s, p = rng.integers(1, 5, size=2)
            kl, rho = rng.choice([1.0, 0.0, -1.0], size=(2, p, s), p=[0.8, 0.1, 0.1])
            kc = rng.choice([0.0, 1.0, -1.0], size=(p, s, s), p=[0.45, 0.45, 0.1])
            if rng.random() < 0.5:
                kc = kc + np.swapaxes(kc, 1, 2)
            want = []
            for m in range(p):
                for j in range(s):
                    if not kl[m, j] > 0:
                        want.append(f"nonpositive longitudinal elasticity kappa_long[{m}][{j}]")
                    if not rho[m, j] > 0:
                        want.append(f"nonpositive density rho[{m}][{j}]")
            for m in range(p):
                if not np.array_equal(kc[m], kc[m].T):
                    want.append(f"asymmetric cross elasticity at column {m}")
                if np.any(np.diag(kc[m]) != 0.0):
                    want.append(f"nonzero self elasticity at column {m}")
                if np.any(kc[m] < 0.0):
                    want.append(f"negative cross elasticity at column {m}")
            assert violations(LatticeSpec, s=int(s), p=int(p), h=1.0, N=8,
                              kappa_long=kl, kappa_cross=kc, rho=rho) == want

    @pytest.mark.parametrize("field,value", [
        ("kappa_long", 1e-310), ("kappa_cross", 5e-324), ("kappa_long", 1e160),
        ("kappa_cross", 1e160), ("kappa_long", 1e308),
    ])
    def test_elasticity_outside_range(self, demo2x2_spec, field, value):
        # a subnormal elasticity, or a stiffness that overflows squared
        v = violations(with_entry, demo2x2_spec, field, value)
        assert len(v) == 1 and v[0].startswith("nonzero elasticities span")

    def test_range_census_constructs(self, monkeypatch):
        # The range rules reject no lattice of contrast 10^(2D), D <= 4, at
        # spacings from 1e-12 to 1e6, and no benchmark input.
        rng = np.random.default_rng(60)
        draws = [(D, int(rng.integers(1, 7)), int(rng.integers(1, 17)))
                 for D in range(1, 5) for _ in range(50)]
        for D, s, p in draws + [(4, 20, 64)] * 4:
            kc = np.zeros((p, s, s))
            iu = np.triu_indices(s, 1)
            kc[:, iu[0], iu[1]] = 10 ** rng.uniform(-D, D, (p, iu[0].size))
            for h in (1e-12, float(10 ** rng.uniform(-12, 6)), 1e6):
                LatticeSpec(s=s, p=p, h=h, N=2 * p,
                            kappa_long=10 ** rng.uniform(-D, D, (p, s)),
                            kappa_cross=kc + kc.transpose(0, 2, 1),
                            rho=10 ** rng.uniform(-D, D, (p, s)))
        # and the extreme corners at the largest cell of the long-cell ladder
        for kappa, rho, h in itertools.product((1e-4, 1e4), (1e-4, 1e4), (1e-12, 1e6)):
            make_spec(20, 64, np.full((64, 20), kappa),
                      np.full((64, 20, 20), kappa) * (1 - np.eye(20)), np.full((64, 20), rho), h=h)
        path = Path(__file__).parents[1] / "bench" / "workloads.py"
        module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(module_spec)
        monkeypatch.setitem(sys.modules, module_spec.name, workloads)   # for its dataclasses
        module_spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            for seed in (1, 2, 3):
                workload.make_inputs(seed)   # builds every input spec
        for preset, h in (("demo-2x2", None), ("demo-5x10", cli.DEMO5_CANDIDATE_H)):
            cli.config_from_dict(cli.preset_config(preset, h=h))


class TestFieldTypes:
    @pytest.mark.parametrize("field,value", [
        ("N", 8.9), ("N", True), ("s", "1"), ("p", 1.0), ("h", "0.5"), ("h", True),
        ("h", None), ("kappa_long", [["1.0"]]), ("kappa_cross", [[[False]]]),
        ("rho", [[True]]), ("rho", [[1j]]), ("rho", np.ones((1, 1), dtype=bool)),
    ])
    def test_wrong_type_raises(self, uniform_spec, field, value):
        with pytest.raises(TypeError, match=f"^{field} must"):
            dataclasses.replace(uniform_spec, **{field: value})

    def test_numpy_scalars_construct(self):
        spec = LatticeSpec(s=np.int64(1), p=np.int32(1), h=np.float32(0.5), N=np.uint16(8),
                           kappa_long=np.ones((1, 1), dtype=np.int64),
                           kappa_cross=[[[np.float64(0.0)]]], rho=[[np.int8(2)]])
        assert (type(spec.s), type(spec.p), type(spec.N), type(spec.h)) == (int, int, int, float)
        assert spec.h == 0.5 and spec.rho.dtype == float and spec.rho[0, 0] == 2.0


class TestMassMatrix:
    # mass_scaled(spec, A) = B^-1/2 A B^-1/2 with B = h^2 diag(rho) in flat order
    def test_uniform(self, uniform_spec):
        assert np.array_equal(mass_scaled(uniform_spec, np.ones((1, 1))), [[1.0]])

    def test_scaling(self):
        spec = make_spec(1, 1, [[1.0]], np.zeros((1, 1, 1)), [[2.0]], h=0.5)
        assert np.allclose(mass_scaled(spec, np.ones((1, 1))), [[2.0]])

    def test_demo_densities(self, demo2x2_spec):
        # flat = m*s + j: rho[0][0], rho[0][1], rho[1][0], rho[1][1]
        mass = np.array([1.0, 2.0, 4.0, 0.5])
        got = mass_scaled(demo2x2_spec, np.ones((4, 4)))
        np.testing.assert_allclose(got, 1.0 / np.sqrt(np.outer(mass, mass)), rtol=1e-15)

    @given(spec_strategy())
    @settings(max_examples=20, deadline=None)
    def test_pencil_eigenpairs(self, spec):
        # the standard form has the pencil's eigenvalues, and B^-1/2 y is
        # the pencil's eigenvector for its eigenvector y
        B = np.diag(spec.h ** 2 * spec.rho.reshape(-1))
        A = -build_Lk_exact(spec, 0.3 / (spec.p * spec.h))
        lam, y = scipy.linalg.eigh(mass_scaled(spec, A))
        np.testing.assert_allclose(lam, scipy.linalg.eigh(A, B, eigvals_only=True),
                                   rtol=0, atol=1e-12 * np.abs(lam).max())
        x = y / np.sqrt(np.diag(B))[:, None]
        assert np.abs(A @ x - B @ x * lam).max() <= 1e-12 * np.abs(A).max() * np.abs(x).max()


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
        # construction rejects the spacing, so build_Lk never sees it
        for h in (0.0, -1.0):
            with pytest.raises(SpecValidationError) as info:
                build_Lk(dataclasses.replace(uniform_spec, h=h))
            assert info.value.violations == [f"spacing h={h} must be positive"]

    def test_exact_hermitian(self, demo2x2_spec):
        L = build_Lk_exact(demo2x2_spec, 0.7)
        assert np.max(np.abs(L - L.conj().T)) < 1e-12


class TestZeroMode:
    @given(spec_strategy())
    @settings(max_examples=20, deadline=None)
    def test_zero_eigenvalue_simple_for_connected(self, spec):
        lam = scipy.linalg.eigh(mass_scaled(spec, -build_L0(spec)), eigvals_only=True)
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

    @pytest.mark.parametrize("values", [
        ["0", "1"], [True, 0.0], [0.0, np.nan], [[0.1, np.inf], [0.1, 0.0]], None,
    ])
    def test_bad_values(self, values):
        with pytest.raises(ValueError, match="values must be finite real numbers"):
            MicroBCSpec("dirichlet", values)
