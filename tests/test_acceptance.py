"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL/FLAG` line (run with
`pytest -s` to see them).  Criterion 3 asserts the full empirical
trichotomy claim, including realness of the non-neutral spectrum; that
clause is genuinely false for strongly coupled multi-strand draws (the
spatial modes form complex reciprocal-conjugate quartets, confirmed in
60-digit arithmetic), so the test documents the honest failure rather
than weakening the check.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg

from latticebc import (
    BCKind,
    MacroBCKind,
    MicroBCSpec,
    build_cell_map,
    build_L0,
    closed_form_bc,
    closed_form_two_strand,
    compare_modes,
    construct_slow_manifold,
    derive_macro_bc,
    dispersion_fit,
    left_end_bc,
    macroscale_slowest_mode,
    microscale_slowest_mode,
    right_end_bc,
    reversed_spec,
    spectrum_checks,
)
from latticebc import cellmap
from latticebc.boundary import MacroBC
from latticebc.cli import DEMO5_CANDIDATE_H, config_from_dict, preset_config

from conftest import clamped_dense, make_spec, random_spec


def specs_criterion1():
    rng = np.random.default_rng(101)
    return [random_spec(rng, 2, 2, 0.1, 10.0) for _ in range(200)]


def specs_criterion2():
    rng = np.random.default_rng(102)
    out = []
    for _ in range(50):
        s = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        out.append(random_spec(rng, s, p, 0.1, 10.0))
    return out


def specs_criterion3():
    rng = np.random.default_rng(103)
    out = []
    for _ in range(500):
        s = int(rng.integers(2, 7))
        p = int(rng.integers(2, 9))
        out.append(random_spec(rng, s, p, lo=0.0, hi=100.0, N=2 * p))
    return out


@pytest.fixture(scope="module")
def demo2x2():
    return config_from_dict(preset_config("demo-2x2")).spec


@pytest.fixture(scope="module")
def demo5x10():
    return config_from_dict(preset_config("demo-5x10", h=DEMO5_CANDIDATE_H)).spec


def test_criterion_1_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in specs_criterion1():
        sm = construct_slow_manifold(spec)
        rho_bar, kappa_bar = closed_form_two_strand(spec)
        c = kappa_bar / rho_bar
        worst = max(worst, abs(sm.c - c) / c)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: PASS closed-form equivalence, 200 specs, "
          f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_dispersion_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in specs_criterion2():
        sm = construct_slow_manifold(spec)
        worst = max(worst, abs(dispersion_fit(spec) - sm.c) / sm.c)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: PASS dispersion oracle, 50 specs, "
          f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_3_trichotomy():
    t0 = time.perf_counter()
    classified = 0
    real_ok = 0
    nonreal_examples = []
    for spec in specs_criterion3():
        cm = build_cell_map(spec)  # raises on any count/structure failure
        classified += 1
        if cm.spectrum_all_real:
            real_ok += 1
        elif len(nonreal_examples) < 3:
            nonreal_examples.append((spec.s, spec.p))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    status = "PASS" if real_ok == 500 else "FAIL"
    print(f"criterion 3: {status} trichotomy, counts (s-1,2,s-1) in {classified}/500, "
          f"non-neutral spectrum real positive in {real_ok}/500, {elapsed:.1f}s")
    assert classified == 500
    assert real_ok == 500, (
        f"realness clause fails in {500 - real_ok}/500 draws (e.g. at (s,p) in "
        f"{nonreal_examples}): strongly coupled strands carry decaying "
        "oscillatory boundary layers whose map eigenvalues form complex "
        "reciprocal-conjugate quartets.  Verified genuine in 60-digit "
        "arithmetic; the count structure and the doubled unit eigenvalue "
        "with its Jordan partner hold in all 500 draws."
    )


@pytest.mark.parametrize("s,p", [(2, 2), (3, 3), (5, 4), (6, 9)])
def test_metamorphic_invariance(s, p):
    # The same lattice described by a cell tiled r = 1..16 times, with
    # all stiffnesses or all densities scaled, or with its spacing scaled
    # (d in units of h, compared as d h0 / h), must derive the same d and
    # data weights at both ends.
    base = random_spec(np.random.default_rng(100 * s + p), s, p, 0.1, 10.0, N=2 * p)
    zeros = MicroBCSpec.dirichlet_zero(s)

    def ends(spec):
        return [(mb.d * base.h / spec.h, mb.rhs_weights)
                for mb in (left_end_bc(spec, zeros), right_end_bc(spec, zeros))]

    variants = [
        dataclasses.replace(
            base, p=r * p, N=2 * r * p,
            kappa_long=np.tile(base.kappa_long, (r, 1)),
            kappa_cross=np.tile(base.kappa_cross, (r, 1, 1)),
            rho=np.tile(base.rho, (r, 1)),
        )
        for r in range(2, 17)
    ]
    variants.append(dataclasses.replace(
        base, kappa_long=3.7 * base.kappa_long, kappa_cross=3.7 * base.kappa_cross))
    variants.append(dataclasses.replace(base, rho=0.29 * base.rho))
    variants += [dataclasses.replace(base, h=f * base.h) for f in (1e-9, 1e-6, 1e3)]
    ref = ends(base)
    worst = 0.0
    for spec in variants:
        for (d, w), (d_ref, w_ref) in zip(ends(spec), ref):
            worst = max(worst, abs(d - d_ref) / (abs(d_ref) + p * base.h),
                        np.abs(w - w_ref).max() / np.abs(w_ref).sum())
    print(f"metamorphic ({s},{p}): {len(variants)} variants, worst rel {worst:.1e}")
    assert worst <= 1e-10


def test_criterion_4_two_strand_benchmark(demo2x2):
    # cell map against the transfer matrix of the explicit block elimination
    k00, k01, k10, k11 = 2.0, 0.5, 0.1, 5.0
    c0, c1 = 1.0, 0.1
    left_block = np.array([
        [k00, 0, -(k00 + k10 + c1), c1],
        [0, k01, c1, -(k01 + k11 + c1)],
        [0, 0, k10, 0],
        [0, 0, 0, k11],
    ])
    right_block = np.array([
        [k10, 0, 0, 0],
        [0, k11, 0, 0],
        [-(k10 + k00 + c0), c0, k00, 0],
        [c0, -(k11 + k01 + c0), 0, k01],
    ])
    cm = build_cell_map(demo2x2)
    T_ref = -np.linalg.solve(right_block, left_block)
    # what the pipeline consumes: the decaying eigenpair and the Jordan partner
    v, mu = cm.stable_vectors[:, 0], cm.stable_values[0]
    t_err = max(np.linalg.norm(T_ref @ v - mu * v) / np.linalg.norm(v),
                np.linalg.norm((T_ref - np.eye(4)) @ cm.generalized_vector - 1.0))
    assert t_err < 1e-12 * np.max(np.abs(T_ref))

    # derived condition against the literal null-vector evaluation
    mb = left_end_bc(demo2x2, MicroBCSpec.dirichlet_zero(2))
    v1, v3, h = cm.stable_vectors[:, 0], cm.generalized_vector, demo2x2.h
    delta = v1[0] - v1[1]
    d_ref = -2 * h * ((v1[1] * v3[0] - v1[0] * v3[1]) / delta + 0.25 * (v3.sum() - 1))
    w_ref = np.array([-v1[1], v1[0]]) / delta
    assert mb.d == pytest.approx(d_ref, rel=1e-9)
    assert np.allclose(mb.rhs_weights, w_ref, rtol=1e-9)

    # mode comparison at N = 16: derived conditions beat naive zeros
    sm = construct_slow_manifold(demo2x2)
    comp = compare_modes(demo2x2, sm, mb, right_end_bc(demo2x2, MicroBCSpec.dirichlet_zero(2)))
    assert comp.interior_error_robin < comp.interior_error_dirichlet
    print(f"criterion 4: PASS two-strand benchmark, T_ref residual {t_err:.1e}, "
          f"d = {mb.d:.6f}, interior errors {comp.interior_error_robin:.4f} (derived) "
          f"< {comp.interior_error_dirichlet:.4f} (naive)")


def test_criterion_5_closed_form_cross_checks():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng, 2, 2, 0.1, 10.0, h=float(rng.uniform(0.3, 2.0)))
        cm = build_cell_map(spec)
        for kind in (BCKind.DIRICHLET, BCKind.FLUX, BCKind.ROBIN_LIKE,
                     BCKind.CAUCHY_LIKE, BCKind.MIXED):
            if kind == BCKind.ROBIN_LIKE:
                values = rng.uniform(-1, 1, (2, 2))
            elif kind == BCKind.CAUCHY_LIKE:
                values = rng.uniform(-1, 1, 2)
            elif kind == BCKind.MIXED:
                values = rng.uniform(-1, 1, 3)
            else:
                values = rng.uniform(-1, 1, 2)
            bc = MicroBCSpec(kind, values)
            mb = derive_macro_bc(cm, bc, spec)
            cf = closed_form_bc(cm, bc, spec)
            assert mb.kind == cf.kind
            if mb.kind == MacroBCKind.CAUCHY_PAIR:
                scale = max(1.0, np.abs(cf.value_weights).max())
                worst = max(worst, np.max(np.abs(mb.value_weights - cf.value_weights)) / scale)
                worst = max(worst, np.max(np.abs(mb.slope_weights - cf.slope_weights)) / scale)
                # the far-end datum contributes no slot at all
                assert all("N" not in label for label in mb.rhs_labels)
            else:
                if mb.d is not None:
                    worst = max(worst, abs(mb.d - cf.d) / max(1.0, abs(cf.d)))
                scale = max(1.0, np.abs(cf.rhs_weights).max())
                worst = max(worst, np.max(np.abs(mb.rhs_weights - cf.rhs_weights)) / scale)
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: PASS boundary closed forms, 100 specs x 5 kinds, "
          f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9


def _independent_bc_rederivation(spec, cm):
    """Re-derive the left condition with separately written assembly and
    scipy's dense-SVD null space."""
    s, p, h = spec.s, spec.p, spec.h
    n_stable = cm.stable_vectors.shape[1]
    M = np.zeros((s + 2, s + 1))
    for j in range(s):
        for i in range(n_stable):
            M[j, i] = cm.stable_vectors[j, i]
        M[j, n_stable] = 1.0
        M[j, n_stable + 1] = cm.generalized_vector[j]
    M[s, n_stable] = 1.0
    M[s, n_stable + 1] = cm.first_cell_gen.mean() - (p - 1) / (2.0 * p)
    M[s + 1, n_stable + 1] = 1.0 / (p * h)
    null = scipy.linalg.null_space(M.T)
    assert null.shape[1] == 1
    w = null[:, 0]
    d = w[s + 1] / w[s]
    weights = -w[:s] / w[s]
    return d, weights


def test_criterion_6_five_strand_reference_case(demo5x10):
    spec = demo5x10
    sm = construct_slow_manifold(spec)
    zeros = MicroBCSpec.dirichlet_zero(5)
    bc0 = left_end_bc(spec, zeros)
    bcL = right_end_bc(spec, zeros)

    # hard check: the production derivation against an independently
    # written dense-SVD route, both ends, 1e-9
    cm_left = build_cell_map(spec)
    d_ref, w_ref = _independent_bc_rederivation(spec, cm_left)
    assert bc0.d == pytest.approx(d_ref, rel=1e-9)
    assert np.allclose(bc0.rhs_weights, w_ref, rtol=1e-9, atol=1e-12)
    rspec = reversed_spec(spec)
    cellmap._reset_memo()   # a cold reversed build, not the memo of cm_left's
    d_ref_r, w_ref_r = _independent_bc_rederivation(rspec, build_cell_map(rspec))
    assert bcL.d == pytest.approx(-d_ref_r, rel=1e-9)
    assert np.allclose(bcL.rhs_weights, w_ref_r, rtol=1e-9, atol=1e-12)

    # hard check: derived conditions beat naive zeros in the interior
    comp = compare_modes(spec, sm, bc0, bcL)
    assert comp.interior_error_robin < comp.interior_error_dirichlet

    # reference values under the candidate spacing h = 2*pi/46 are
    # reported and flagged (not failed) when they disagree beyond 0.01:
    # the source material does not pin the spacing, so exact
    # reproduction is not guaranteed.
    reference = {
        "c": (sm.c, 1.176),
        "std_alpha": (float(np.std(sm.alpha)), 0.46),
        "std_beta": (float(np.std(sm.beta)), 0.64),
        "d0_over_h": (bc0.d / spec.h, 0.058),
        "dL_over_h": (bcL.d / spec.h, 0.53),
    }
    flags = []
    for name, (got, ref) in reference.items():
        mark = "ok" if abs(got - ref) <= 0.01 else "FLAG"
        if mark == "FLAG":
            flags.append(name)
        print(f"criterion 6: {mark} {name}: computed {got:.4f} vs reference {ref}")
    status = "PASS (internal consistency)" + (f", FLAGGED {flags}" if flags else "")
    print(f"criterion 6: {status}; interior errors "
          f"{comp.interior_error_robin:.4f} (derived) < "
          f"{comp.interior_error_dirichlet:.4f} (naive)")


def test_criterion_7_residual_certificates():
    t0 = time.perf_counter()
    all_specs = specs_criterion1() + specs_criterion2() + specs_criterion3()
    worst_res = worst_mean = worst_g = 0.0
    for spec in all_specs:
        sm = construct_slow_manifold(spec)
        scale = np.linalg.norm(build_L0(spec), "fro")
        if scale == 0.0:
            scale = 1.0
        worst_res = max(worst_res, sm.residual_norm / scale)
        worst_mean = max(worst_mean, abs(sm.alpha.mean()), abs(sm.beta.mean()))
        worst_g = max(worst_g, abs(sm.g[0]), abs(sm.g[1]))
        assert sm.residual_norm < 1e-12 * scale
        assert abs(sm.alpha.mean()) < 1e-12 and abs(sm.beta.mean()) < 1e-12
        assert abs(sm.g[0]) < 1e-12 and abs(sm.g[1]) < 1e-12
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: PASS residual certificates, {len(all_specs)} specs, "
          f"worst residual {worst_res:.1e}, worst mean {worst_mean:.1e}, "
          f"worst g0/g1 {worst_g:.1e}, {elapsed:.1f}s")


def test_criterion_8_spectrum_suite():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    for _ in range(100):
        s = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        spec = random_spec(rng, s, p, 0.1, 10.0)
        L0 = build_L0(spec)
        scale = max(1.0, np.linalg.norm(L0, "fro"))
        rep = spectrum_checks(spec)
        assert rep.symmetry_defect < 1e-12
        assert rep.max_row_sum < 1e-12
        assert rep.min_eigenvalue >= -1e-10 * scale
        assert rep.zero_multiplicity == 1
        assert rep.spectral_gap > 0.0
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: PASS spectrum suite, 100 specs, {elapsed:.1f}s")


def test_criterion_9_gauge_invariance():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        s = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        spec = random_spec(rng, s, p, 0.1, 10.0)
        cm = build_cell_map(spec)
        kind = BCKind.DIRICHLET if rng.random() < 0.5 else BCKind.FLUX
        bc = MicroBCSpec(kind, rng.uniform(-1, 1, s))
        ref = derive_macro_bc(cm, bc, spec)
        shift = float(rng.uniform(-5, 5))
        scales = rng.uniform(0.1, 10, cm.stable_vectors.shape[1]) * rng.choice(
            [-1, 1], cm.stable_vectors.shape[1]
        )
        altered = dataclasses.replace(
            cm,
            generalized_vector=cm.generalized_vector + shift,
            first_cell_gen=cm.first_cell_gen + shift,
            stable_vectors=cm.stable_vectors * scales,
        )
        got = derive_macro_bc(altered, bc, spec)
        assert got.kind == ref.kind
        if ref.d is not None:
            worst = max(worst, abs(got.d - ref.d) / max(1.0, abs(ref.d)))
        scale = max(1.0, np.abs(ref.rhs_weights).max())
        worst = max(worst, np.max(np.abs(got.rhs_weights - ref.rhs_weights)) / scale)
    print(f"criterion 9: PASS gauge invariance, 50 trials, worst rel {worst:.2e}")
    assert worst < 1e-9


def test_criterion_10_uniform_chain_analytics():
    spec = make_spec(1, 1, [[1.3]], np.zeros((1, 1, 1)), [[0.7]], h=1.0, N=12)
    K, mass = clamped_dense(spec)
    lam = scipy.linalg.eigh(K, np.diag(mass), eigvals_only=True)
    N, kappa, rho, h = spec.N, 1.3, 0.7, 1.0
    expected = np.sort([2 * kappa / (rho * h * h) * (1 - np.cos(np.pi * m / N))
                        for m in range(1, N)])
    assert np.allclose(lam, expected, rtol=1e-10)
    lam0, _, _ = microscale_slowest_mode(spec)
    assert lam0 == pytest.approx(expected[0], rel=1e-10)

    c, L = 1.9, 2.5
    dirich = MacroBC(MacroBCKind.ROBIN, "left", 0.0, None, ())
    lam_macro, _ = macroscale_slowest_mode(c, L, dirich, dirich, np.linspace(0, L, 9))
    assert lam_macro == pytest.approx(c * np.pi ** 2 / L ** 2, rel=1e-12)
    print("criterion 10: PASS uniform-chain analytics")
