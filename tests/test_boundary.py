import dataclasses

import numpy as np
import pytest

from latticebc import (
    BCKind,
    EigenSolveError,
    KindUnsupported,
    MacroBCKind,
    MicroBCSpec,
    SpecValidationError,
    assemble_constraints,
    build_cell_map,
    closed_form_bc,
    derive_macro_bc,
    left_end_bc,
    reversed_spec,
    right_end_bc,
)

from latticebc import boundary

from conftest import make_spec, random_spec

ALL_KINDS = [BCKind.DIRICHLET, BCKind.FLUX, BCKind.ROBIN_LIKE, BCKind.CAUCHY_LIKE, BCKind.MIXED]


def micro_values(rng, kind, s):
    if kind == BCKind.ROBIN_LIKE:
        return rng.uniform(-1, 1, (s, 2))
    if kind == BCKind.CAUCHY_LIKE:
        return rng.uniform(-1, 1, 2)
    if kind == BCKind.MIXED:
        return rng.uniform(-1, 1, 3)
    return rng.uniform(-1, 1, s)


class TestAssembly:
    def test_dirichlet_layout_two_strand(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        bc = MicroBCSpec.dirichlet_zero(2)
        cs = assemble_constraints(cm, bc, demo2x2_spec)
        v1 = cm.stable_vectors[:, 0]
        v3 = cm.generalized_vector
        h = demo2x2_spec.h
        expected = np.array([
            [v1[0], 1.0, v3[0]],
            [v1[1], 1.0, v3[1]],
            [0.0, 1.0, 0.25 * (v3.sum() - 1.0)],
            [0.0, 0.0, 1.0 / (2.0 * h)],
        ])
        assert cs.matrix.shape == (4, 3)
        assert np.max(np.abs(cs.matrix - expected)) < 1e-12

    def test_flux_rows_have_zero_constant_column(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        cs = assemble_constraints(cm, MicroBCSpec(BCKind.FLUX, np.zeros(2)), demo2x2_spec)
        assert np.allclose(cs.matrix[:2, 1], 0.0)
        assert cs.data_scale == pytest.approx([demo2x2_spec.h] * 2)

    def test_general_extrapolation_matches_two_periodic_row(self):
        # mean(first-cell generalized mode) - (p-1)/(2p) must reduce to
        # the quarter-sum expression when p = 2
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_spec(rng, 2, 2)
            cm = build_cell_map(spec)
            cs = assemble_constraints(cm, MicroBCSpec.dirichlet_zero(2), spec)
            v3 = cm.generalized_vector
            assert cs.matrix[2, 2] == pytest.approx(0.25 * (v3.sum() - 1.0), abs=1e-12)

    def test_mixed_has_extra_row(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        cs = assemble_constraints(
            cm, MicroBCSpec(BCKind.MIXED, np.array([0.1, 0.2, 0.3])), demo2x2_spec
        )
        assert cs.matrix.shape == (5, 3)
        assert cs.rhs_labels[:3] == ("b[0,0]", "b[1,0]", "b[0,1]")

    def test_cauchy_like_requires_two_strands(self):
        rng = np.random.default_rng(32)
        spec = random_spec(rng, 3, 2)
        cm = build_cell_map(spec)
        with pytest.raises(KindUnsupported):
            assemble_constraints(cm, MicroBCSpec(BCKind.CAUCHY_LIKE, np.zeros(2)), spec)


# Each kind's data rows on u_0 = (x_0, x_1), written out per row: the
# datum of row r is rows(v, s, values, h)[r] for each basis column v.
ROWS = {
    BCKind.DIRICHLET: lambda v, s, values, h: [v[j] for j in range(s)],
    BCKind.FLUX: lambda v, s, values, h: [v[s + j] - v[j] for j in range(s)],
    BCKind.ROBIN_LIKE: lambda v, s, values, h: [
        v[j] + values[j, 0] / h * (v[s + j] - v[j]) for j in range(s)
    ],
    BCKind.CAUCHY_LIKE: lambda v, s, values, h: [v[0], v[s]],
    BCKind.MIXED: lambda v, s, values, h: [v[0], v[s], v[1]],
}

LABELS = {
    ("left", BCKind.DIRICHLET): ("b[0,0]", "b[0,1]"),
    ("left", BCKind.FLUX): ("d[0,0]", "d[0,1]"),
    ("left", BCKind.ROBIN_LIKE): ("b[0,0]", "b[0,1]"),
    ("left", BCKind.CAUCHY_LIKE): ("b[0,0]", "b[1,0]"),
    ("left", BCKind.MIXED): ("b[0,0]", "b[1,0]", "b[0,1]"),
    ("right", BCKind.DIRICHLET): ("b[N,0]", "b[N,1]"),
    ("right", BCKind.FLUX): ("d[N,0]", "d[N,1]"),
    ("right", BCKind.ROBIN_LIKE): ("b[N,0]", "b[N,1]"),
    ("right", BCKind.CAUCHY_LIKE): ("b[N,0]", "b[N-1,0]"),
}


def _s4_spec():
    return random_spec(np.random.default_rng(37), 4, 3, h=0.7)


class TestDataRows:
    @pytest.mark.parametrize("s,kind", [(2, kind) for kind in ALL_KINDS] + [
        (4, BCKind.DIRICHLET), (4, BCKind.FLUX), (4, BCKind.ROBIN_LIKE),
    ])
    def test_rows_match_written_formulas(self, demo2x2_spec, s, kind):
        spec = demo2x2_spec if s == 2 else _s4_spec()
        cm = build_cell_map(spec)
        values = micro_values(np.random.default_rng(38), kind, s)
        cs = assemble_constraints(cm, MicroBCSpec(kind, values), spec)
        basis = [*cm.stable_vectors.T, cm.center_vector, cm.generalized_vector]
        expected = np.array([ROWS[kind](v, s, values, spec.h) for v in basis]).T
        n_data = expected.shape[0]
        assert cs.matrix.shape == (n_data + 2, s + 1)
        np.testing.assert_allclose(cs.matrix[:n_data], expected, rtol=1e-13, atol=1e-15)
        scale = np.full(n_data, spec.h if kind == BCKind.FLUX else 1.0)
        assert np.array_equal(cs.data_scale, scale)

    @pytest.mark.parametrize("side,kind", list(LABELS))
    def test_labels_both_sides(self, demo2x2_spec, side, kind):
        values = micro_values(np.random.default_rng(39), kind, 2)
        spec = demo2x2_spec if side == "left" else reversed_spec(demo2x2_spec)
        cm = build_cell_map(spec)
        cs = assemble_constraints(cm, MicroBCSpec(kind, values, side), spec)
        assert cs.rhs_labels == LABELS[side, kind] + ("U", "dU/dx")
        cf = closed_form_bc(kind, cm, spec, values=values, side=side)
        assert cf.rhs_labels == LABELS[side, kind]

    @pytest.mark.parametrize("kind,values", [
        (BCKind.DIRICHLET, np.zeros(3)),
        (BCKind.FLUX, np.zeros((2, 2))),
        (BCKind.ROBIN_LIKE, np.zeros(2)),
        (BCKind.CAUCHY_LIKE, np.zeros(3)),
        (BCKind.MIXED, np.zeros(2)),
    ])
    def test_wrong_value_shape_is_typed(self, demo2x2_spec, kind, values):
        cm = build_cell_map(demo2x2_spec)
        with pytest.raises(SpecValidationError, match="values must have shape"):
            assemble_constraints(cm, MicroBCSpec(kind, values), demo2x2_spec)
        with pytest.raises(SpecValidationError, match="values must have shape"):
            left_end_bc(demo2x2_spec, MicroBCSpec(kind, values))
        with pytest.raises(SpecValidationError, match="values must have shape"):
            closed_form_bc(kind, cm, demo2x2_spec, values=values)

    def test_closed_form_robin_like_needs_values(self, demo2x2_spec):
        # Its d_j enter the weights; the other kinds' weights read no values.
        cm = build_cell_map(demo2x2_spec)
        with pytest.raises(SpecValidationError, match=r"robin_like values must have shape \(2, 2\)"):
            closed_form_bc(BCKind.ROBIN_LIKE, cm, demo2x2_spec)

    def test_mismatched_cell_map_is_typed(self, demo2x2_spec):
        cm = build_cell_map(_s4_spec())
        with pytest.raises(SpecValidationError, match="cell map is for 4 strands"):
            assemble_constraints(cm, MicroBCSpec.dirichlet_zero(2), demo2x2_spec)

    @pytest.mark.parametrize("h,want", [
        pytest.param(np.inf, ["non-finite h"], id="inf"),
        pytest.param(np.nan, ["non-finite h", "spacing h=nan must be positive"], id="nan"),
        pytest.param(0.0, ["spacing h=0.0 must be positive"], id="0.0"),
        pytest.param(-1.0, ["spacing h=-1.0 must be positive"], id="-1.0"),
    ])
    @pytest.mark.parametrize("end", [left_end_bc, right_end_bc])
    def test_invalid_spacing_is_typed(self, demo2x2_spec, end, h, want):
        # construction rejects the spacing, so neither end sees it
        with pytest.raises(SpecValidationError) as info:
            end(dataclasses.replace(demo2x2_spec, h=h), MicroBCSpec.dirichlet_zero(2))
        assert info.value.violations == want


class TestDeriveTwoStrand:
    def test_failed_svd_is_typed(self, demo2x2_spec, monkeypatch):
        real = boundary.dgesdd

        def failing(*args, **kwargs):
            return real(*args, **kwargs)[:3] + (1,)

        monkeypatch.setattr(boundary, "dgesdd", failing)
        with pytest.raises(EigenSolveError, match="dgesdd info 1"):
            left_end_bc(demo2x2_spec, MicroBCSpec.dirichlet_zero(2))

    def test_dirichlet_matches_literal_null_vector(self, demo2x2_spec):
        # the closed form: d = -2h [ (v12 v31 - v11 v32)/(v11 - v12)
        # + (v3.1 - 1)/4 ], weights (-v12, v11)/(v11 - v12)
        cm = build_cell_map(demo2x2_spec)
        mb = left_end_bc(demo2x2_spec, MicroBCSpec.dirichlet_zero(2))
        v1, v3, h = cm.stable_vectors[:, 0], cm.generalized_vector, demo2x2_spec.h
        delta = v1[0] - v1[1]
        d_ref = -2 * h * ((v1[1] * v3[0] - v1[0] * v3[1]) / delta + 0.25 * (v3.sum() - 1))
        w_ref = np.array([-v1[1], v1[0]]) / delta
        assert mb.kind == MacroBCKind.ROBIN
        assert mb.d == pytest.approx(d_ref, rel=1e-9)
        assert np.allclose(mb.rhs_weights, w_ref, rtol=1e-9)

    def test_zero_flux_gives_homogeneous_neumann(self, demo2x2_spec):
        mb = left_end_bc(demo2x2_spec, MicroBCSpec(BCKind.FLUX, np.zeros(2)))
        assert mb.kind == MacroBCKind.NEUMANN
        assert float(mb.rhs_weights @ np.zeros(2)) == 0.0

    def test_solvability_certificate(self, demo2x2_spec):
        # Each derived condition, written as a row r on the right-hand
        # side (scaled data, U, dU/dx) of M c = rhs, must annihilate M.
        cm = build_cell_map(demo2x2_spec)
        rng = np.random.default_rng(33)
        seen = set()
        for kind in ALL_KINDS:
            bc = MicroBCSpec(kind, micro_values(rng, kind, 2))
            cs = assemble_constraints(cm, bc, demo2x2_spec)
            mb = derive_macro_bc(cs)
            sc = cs.data_scale
            if mb.kind == MacroBCKind.ROBIN:
                rows = [(-mb.rhs_weights / sc, 1.0, mb.d)]
            elif mb.kind == MacroBCKind.NEUMANN:
                rows = [(-mb.rhs_weights / sc, 0.0, 1.0)]
            else:
                rows = [(-mb.value_weights / sc, 1.0, 0.0), (-mb.slope_weights / sc, 0.0, 1.0)]
            seen.add(mb.kind)
            for data, u, slope in rows:
                r = np.concatenate([data, [u, slope]])
                assert np.linalg.norm(r @ cs.matrix) <= 1e-9 * np.linalg.norm(cs.matrix)
        assert seen == set(MacroBCKind)

    def test_numeric_matches_closed_forms(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            spec = random_spec(rng, 2, 2, h=float(rng.uniform(0.3, 2.0)))
            cm = build_cell_map(spec)
            for kind in ALL_KINDS:
                values = micro_values(rng, kind, 2)
                mb = derive_macro_bc(assemble_constraints(cm, MicroBCSpec(kind, values), spec))
                cf = closed_form_bc(kind, cm, spec, values=values)
                assert mb.kind == cf.kind
                if mb.kind == MacroBCKind.CAUCHY_PAIR:
                    assert np.allclose(mb.value_weights, cf.value_weights, rtol=1e-9, atol=1e-12)
                    assert np.allclose(mb.slope_weights, cf.slope_weights, rtol=1e-9, atol=1e-12)
                else:
                    if mb.d is not None:
                        assert mb.d == pytest.approx(cf.d, rel=1e-9, abs=1e-12)
                    assert np.allclose(mb.rhs_weights, cf.rhs_weights, rtol=1e-9, atol=1e-12)

    def test_robin_like_reduces_to_dirichlet(self, demo2x2_spec):
        cm = build_cell_map(demo2x2_spec)
        values = np.array([[0.0, 0.4], [0.0, -0.2]])  # d = 0 pairs
        robin = closed_form_bc(BCKind.ROBIN_LIKE, cm, demo2x2_spec, values=values)
        dirich = closed_form_bc(BCKind.DIRICHLET, cm, demo2x2_spec)
        assert robin.d == pytest.approx(dirich.d, rel=1e-12)
        assert np.allclose(robin.rhs_weights, dirich.rhs_weights, rtol=1e-12)

    def test_cauchy_like_is_dirichlet_with_renamed_components(self, demo2x2_spec):
        # swapping the second data row from the other-strand value to the
        # inward neighbour swaps v1/v3 components 1 -> 2 in the formulas
        cm = build_cell_map(demo2x2_spec)
        v1, v3, h = cm.stable_vectors[:, 0], cm.generalized_vector, demo2x2_spec.h
        swapped = dataclasses.replace(
            cm,
            stable_vectors=cm.stable_vectors[[0, 2, 1, 3], :],
            generalized_vector=cm.generalized_vector[[0, 2, 1, 3]],
        )
        cauchy = closed_form_bc(BCKind.CAUCHY_LIKE, cm, demo2x2_spec)
        renamed = closed_form_bc(BCKind.DIRICHLET, swapped, demo2x2_spec)
        # the slope term also contains the unswapped quarter-sum, which
        # is permutation invariant, so d values agree exactly
        assert cauchy.d == pytest.approx(renamed.d, rel=1e-12)
        assert np.allclose(cauchy.rhs_weights, renamed.rhs_weights, rtol=1e-12)

    def test_mixed_pair_ignores_far_end_datum(self, demo2x2_spec):
        mb = left_end_bc(demo2x2_spec, MicroBCSpec(BCKind.MIXED, np.array([0.3, -0.2, 0.5])))
        assert mb.kind == MacroBCKind.CAUCHY_PAIR
        assert mb.rhs_labels == ("b[0,0]", "b[1,0]", "b[0,1]")
        assert all("N" not in label for label in mb.rhs_labels)
        assert mb.value_weights.shape == (3,)
        assert mb.slope_weights.shape == (3,)

    def test_degenerate_stable_vector_numeric_survives(self, demo2x2_spec):
        # synthetic eigendata with equal leading components: the literal
        # formulas divide by zero, while the null-space route correctly
        # finds that the U weight vanishes (the condition turns Neumann)
        cm = build_cell_map(demo2x2_spec)
        v_deg = np.array([0.5, 0.5, -0.3, 0.8])
        deg = dataclasses.replace(cm, stable_vectors=v_deg[:, None])
        mb = derive_macro_bc(assemble_constraints(cm=deg, bc=MicroBCSpec.dirichlet_zero(2),
                                                  spec=demo2x2_spec))
        assert mb.kind in (MacroBCKind.ROBIN, MacroBCKind.NEUMANN)
        assert np.all(np.isfinite(mb.rhs_weights))
        if mb.d is not None:
            assert np.isfinite(mb.d)
        with np.errstate(divide="ignore", invalid="ignore"):
            cf = closed_form_bc(BCKind.DIRICHLET, deg, demo2x2_spec)
        assert not np.isfinite(cf.d)


class TestGaugeInvariance:
    def test_generalized_shift_and_stable_rescale(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            spec = random_spec(rng, 2, 2)
            cm = build_cell_map(spec)
            bc = MicroBCSpec.dirichlet_zero(2)
            ref = derive_macro_bc(assemble_constraints(cm, bc, spec))
            shift = float(rng.uniform(-5, 5))
            scale = float(rng.uniform(0.1, 10) * rng.choice([-1, 1]))
            altered = dataclasses.replace(
                cm,
                generalized_vector=cm.generalized_vector + shift,
                first_cell_gen=cm.first_cell_gen + shift,
                stable_vectors=cm.stable_vectors * scale,
            )
            got = derive_macro_bc(assemble_constraints(altered, bc, spec))
            assert got.d == pytest.approx(ref.d, rel=1e-9, abs=1e-12)
            assert np.allclose(got.rhs_weights, ref.rhs_weights, rtol=1e-9, atol=1e-12)


class TestRightEnd:
    def test_mirror_symmetric_lattice(self):
        # p = 3 lattice palindromic about the domain midpoint (N divisible
        # by 3, matching spring/point arrays): both ends must derive the
        # same magnitude of slope coefficient
        rng = np.random.default_rng(36)
        for _ in range(5):
            kl = rng.uniform(0.2, 5.0, (3, 2))
            kl[2] = kl[0]
            kc_vals = rng.uniform(0.2, 5.0, 3)
            kc_vals[2] = kc_vals[1]
            rho = rng.uniform(0.2, 5.0, (3, 2))
            rho[2] = rho[1]
            spec = make_spec(2, 3, kl, kc_vals, rho, N=12)
            zeros = MicroBCSpec.dirichlet_zero(2)
            left = left_end_bc(spec, zeros)
            right = right_end_bc(spec, zeros)
            assert abs(right.d) == pytest.approx(abs(left.d), rel=1e-9)

    def test_uniform_chain_dirichlet_is_exact(self, uniform_spec):
        zeros = MicroBCSpec.dirichlet_zero(1)
        left = left_end_bc(uniform_spec, zeros)
        right = right_end_bc(uniform_spec, zeros)
        assert left.d == pytest.approx(0.0, abs=1e-12)
        assert right.d == pytest.approx(0.0, abs=1e-12)

    def test_right_labels_and_side(self, demo2x2_spec):
        mb = right_end_bc(demo2x2_spec, MicroBCSpec.dirichlet_zero(2, side="right"))
        assert mb.side == "right"
        assert mb.rhs_labels == ("b[N,0]", "b[N,1]")

    def test_mixed_right_end_rejected(self, demo2x2_spec):
        with pytest.raises(KindUnsupported):
            right_end_bc(demo2x2_spec, MicroBCSpec(BCKind.MIXED, np.zeros(1), side="right"))
        rs = reversed_spec(demo2x2_spec)
        with pytest.raises(KindUnsupported):
            closed_form_bc(BCKind.MIXED, build_cell_map(rs), rs, np.zeros(1), side="right")

    @pytest.mark.parametrize("kind", ALL_KINDS[:4])
    def test_closed_form_right_matches_pipeline(self, demo2x2_spec, kind):
        # closed_form_bc on the reversed lattice applies the same
        # chain-rule flip as right_end_bc: the Robin d and the Neumann
        # weights change sign.
        values = micro_values(np.random.default_rng(41), kind, 2)
        got = right_end_bc(demo2x2_spec, MicroBCSpec(kind, values, side="right"))
        rs = reversed_spec(demo2x2_spec)
        cf = closed_form_bc(kind, build_cell_map(rs), rs, values, side="right")
        assert (cf.kind, cf.side, cf.rhs_labels) == (got.kind, "right", got.rhs_labels)
        if got.d is not None:
            assert abs(cf.d - got.d) <= 1e-12 * max(1.0, abs(got.d))
        np.testing.assert_allclose(cf.rhs_weights, got.rhs_weights, rtol=1e-12, atol=1e-12)

    def test_flux_sign_flip(self):
        # a symmetric lattice with mirrored flux data must give mirrored
        # slopes: dU/dx(0) = w d and dU/dx(L) = -w d
        spec = make_spec(2, 1, [[1.0, 2.0]], [0.7], [[1.0, 3.0]], N=10)
        data = np.array([0.4, -0.3])
        left = left_end_bc(spec, MicroBCSpec(BCKind.FLUX, data))
        right = right_end_bc(spec, MicroBCSpec(BCKind.FLUX, data, side="right"))
        assert left.kind == MacroBCKind.NEUMANN
        assert np.allclose(right.rhs_weights, -left.rhs_weights, rtol=1e-9)
