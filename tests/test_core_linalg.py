"""Index sets, weighted norms, algebra norms, decay fits, pseudo-inverse."""

import contextlib
import warnings

import numpy as np
import pytest

from conftest import analysis_q, riesz_sequence, scaled_ring
from locframes import (
    InsufficientDataError,
    InvalidInputError,
    MatrixAlgebraSpec,
    SeqSpaceSpec,
    Weight,
    canonical_dual,
    decay_fit,
    dual_pairing,
    generalized_condition_number,
    jaffard_norm,
    make_onb,
    make_test_operator,
    pseudo_inverse,
    schur_weighted_norm,
    seq_norm,
    seq_space_included,
    weight_admissible,
)
from locframes import linalg
from locframes.frames import analysis_r_product
from locframes.galerkin import LinearOperator, galerkin_core
from locframes.indexing import IndexSet
from locframes.linalg import DEFAULT_RANK_TOL, hermitian_defect, spectrum
from locframes.opnorms import exact_operator_norm
from locframes.solver import ProjectionSchedule, finite_section_solve


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- seq_norm -----------------------------------------------------------------


class TestSeqNorm:
    def test_unweighted_l1_of_ones(self):
        spec = SeqSpaceSpec(1, Weight.ones(3))
        assert seq_norm(np.ones(3), spec) == pytest.approx(3.0)

    @pytest.mark.parametrize("p", [1, 2, 4, np.inf, 0])
    def test_unit_sequence_returns_weight(self, p):
        w = Weight(np.array([1.5, 2.0, 0.5, 3.0]))
        c = np.zeros(4)
        c[2] = 1.0
        assert seq_norm(c, SeqSpaceSpec(p, w)) == pytest.approx(0.5)

    def test_geometric_sequence_weighted_l2(self):
        # w_k = 2^k cancels c_k = 2^-k exactly: sqrt(1+1+1+1) = 2
        c = np.array([1.0, 0.5, 0.25, 0.125])
        w = Weight(2.0 ** np.arange(4))
        assert seq_norm(c, SeqSpaceSpec(2, w)) == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_weight_values_positive_and_finite(self, bad):
        with pytest.raises(InvalidInputError):
            Weight(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_general_p_holds_at_extreme_scales(self, scale):
        # |x|^3 underflows at 1e-200 and overflows at 1e200 unless each
        # column is scaled by its largest entry first
        c = np.array([1.0, -2.0, 0.5j, 0.0])
        spec = SeqSpaceSpec(3, Weight(np.array([1.0, 0.5, 2.0, 1.0])))
        unit = seq_norm(c, spec)
        assert seq_norm(scale * c, spec) == pytest.approx(scale * unit, rel=1e-14)
        columns = np.stack([scale * c, np.zeros(4)], axis=1)
        assert np.array_equal(seq_norm(columns, spec) == 0, [False, True])
        assert seq_norm(columns, spec)[0] == pytest.approx(scale * unit, rel=1e-14)
        a = np.abs(np.stack([c, 2 * c, np.zeros(4)], axis=1))
        assert exact_operator_norm(scale * a, 1, 3) == pytest.approx(
            scale * exact_operator_norm(a, 1, 3), rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(Exception, match="length"):
            seq_norm(np.ones(3), SeqSpaceSpec(2, Weight.ones(4)))

    @pytest.mark.parametrize("p", [1, 2, 4, np.inf, 0])
    def test_homogeneity_and_triangle(self, p):
        rng = np.random.default_rng(11)
        w = Weight(rng.uniform(0.5, 2.0, 32))
        spec = SeqSpaceSpec(p, w)
        for _ in range(200):
            c = random_complex(rng, 32)
            d = random_complex(rng, 32)
            alpha = rng.standard_normal()
            assert seq_norm(alpha * c, spec) == pytest.approx(
                abs(alpha) * seq_norm(c, spec), abs=1e-12, rel=1e-12
            )
            assert seq_norm(c + d, spec) <= seq_norm(c, spec) + seq_norm(d, spec) + 1e-12


INDEX_SETS = [
    IndexSet.line(9),
    IndexSet.ring(9),
    IndexSet.torus_grid(4, 6, scales=(2.0, 1.0)),
]


class TestIndexSetMetric:
    @pytest.mark.parametrize("iset", INDEX_SETS)
    def test_metric_axioms(self, iset):
        d = iset.distance_matrix()
        assert np.all(d >= 0)
        assert np.allclose(np.diag(d), 0.0)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("iset", INDEX_SETS)
    def test_distance_to_origin_is_the_origin_column(self, iset):
        # index 0 sits at the origin of every one of these sets
        assert not iset.positions[0].any()
        assert np.array_equal(iset.distance_to_origin(), iset.distance_matrix()[:, 0])

    @staticmethod
    def ambient_reference(rows, cols):
        """Max over the shared axes of |x - y| in ambient units, wrapped
        around the ambient period on the circular metric; one entry at a time."""
        shared = min(rows.dim, cols.dim)
        d = np.zeros((len(rows), len(cols)))
        for k in range(len(rows)):
            for l in range(len(cols)):
                for a in range(shared):
                    x = rows.positions[k, a] * rows.scales[a]
                    y = cols.positions[l, a] * cols.scales[a]
                    gap = abs(x - y)
                    if rows.metric == "circular":
                        gap = min(gap, rows.moduli[a] * rows.scales[a] - gap)
                    d[k, l] = max(d[k, l], gap)
        return d

    @pytest.mark.parametrize("rows, cols", [
        (scaled_ring(4, 4.0), IndexSet.ring(16)),
        (IndexSet.torus_grid(8, 4, scales=(2.0, 0.5)), IndexSet.ring(16)),
        (scaled_ring(6, 1.5), IndexSet.torus_grid(3, 2, scales=(3.0, 1.0))),
        (IndexSet.torus_grid(4, 6, scales=(2.0, 1.0)),
         IndexSet.torus_grid(8, 3, scales=(1.0, 2.0))),
        (IndexSet(np.arange(5)[:, None], scales=(3.0,)), IndexSet.line(13)),
    ])
    def test_cross_lattice_matches_ambient_reference(self, rows, cols):
        assert not rows.compatible_with(cols)
        assert np.array_equal(rows.distance_matrix(cols), self.ambient_reference(rows, cols))

    def test_circular_wraps(self):
        ring = IndexSet.ring(8)
        d = ring.distance_matrix()
        assert d[0, 7] == 1.0
        assert d[0, 4] == 4.0

    def test_cross_lattice_uses_ambient_units(self):
        coarse = scaled_ring(4, 4.0)   # positions 0,4,8,12 on Z_16
        fine = IndexSet.ring(16)
        d = coarse.distance_matrix(fine)
        assert d.shape == (4, 16)
        assert d[1, 4] == 0.0   # coarse index 1 sits at ambient position 4
        assert d[0, 15] == 1.0  # wraps around the common torus

    def test_torus_grid_layout(self):
        grid = IndexSet.torus_grid(3, 4, scales=(2.0, 5.0))
        assert grid.is_torus_grid(3, 4)
        assert not grid.is_torus_grid(4, 3)
        assert not IndexSet.torus_grid(4, 3).is_torus_grid(3, 4)
        column_major = np.lexsort(grid.positions.T)
        assert not IndexSet(grid.positions[column_major], "circular",
                            moduli=(3, 4)).is_torus_grid(3, 4)
        assert not IndexSet(grid.positions, "absolute").is_torus_grid(3, 4)
        assert not IndexSet.ring(12).is_torus_grid(3, 4)

    def test_torus_grid_is_written_as_its_shape(self):
        grid = IndexSet.torus_grid(3, 4, scales=(2.0, 5.0))
        d = grid.to_dict()
        assert d == {"grid": [3, 4], "metric": "circular", "moduli": [3.0, 4.0],
                     "scales": [2.0, 5.0]}
        assert np.array_equal(IndexSet.from_dict(d, 12).positions, grid.positions)
        # any other set is written, and still read, as its positions
        for other in (IndexSet.ring(12), IndexSet(grid.positions[::-1], "circular", moduli=(3, 4)),
                      IndexSet(grid.positions, "absolute"),
                      IndexSet(grid.positions, "circular", moduli=(3, 4.5))):
            assert "grid" not in other.to_dict()
            assert IndexSet.from_dict(other.to_dict(), 12).to_dict() == other.to_dict()
        for bad in ([4, 4], [3, 4.0], [-3, -4], [12], [1 << 30, 1 << 30]):
            with pytest.raises(ValueError):
                IndexSet.from_dict({**d, "grid": bad}, 12)

    @pytest.mark.parametrize("positions", [[0.0, 1.0], [], [[0.0, 1.0, 2.0]]])
    def test_positions_are_one_row_per_index(self, positions):
        # a flat pair would otherwise read as one point of Z^2
        with pytest.raises(InvalidInputError, match="one row per index"):
            IndexSet(positions)

    def test_mismatched_ambient_period_rejected(self):
        from locframes import MetricMismatchError

        with pytest.raises(MetricMismatchError):
            IndexSet.ring(8).distance_matrix(IndexSet.ring(12))


# -- dual pairing -------------------------------------------------------------


class TestDualPairing:
    def test_unit_sequences(self):
        e = np.zeros(4)
        e[1] = 1.0
        assert dual_pairing(e, e) == pytest.approx(1.0)

    def test_conjugation(self):
        c = np.array([1.0, 1j])
        d = np.array([1j, 1.0])
        assert dual_pairing(c, d) == pytest.approx(0.0)

    @pytest.mark.parametrize("p,q", [(1, np.inf), (2, 2), (4, 4 / 3)])
    def test_hoelder(self, p, q):
        rng = np.random.default_rng(5)
        w = Weight(rng.uniform(0.25, 4.0, 64))
        spec = SeqSpaceSpec(p, w)
        dual = spec.dual()
        assert dual.p == pytest.approx(q)
        for _ in range(100):
            c = random_complex(rng, 64)
            d = random_complex(rng, 64)
            lhs = abs(dual_pairing(c, d))
            assert lhs <= seq_norm(c, spec) * seq_norm(d, dual) * (1 + 1e-12)

    def test_dual_of_limit_zero_space(self):
        spec = SeqSpaceSpec(0, Weight.ones(4))
        assert spec.dual().p == 1.0


class TestWeightPower:
    def test_polynomial_carries_its_power(self):
        iset = IndexSet.torus_grid(4, 4)
        w = Weight.polynomial(1.5, iset)
        assert w.power == 1.5
        assert np.array_equal(w.values, (1.0 + iset.distance_to_origin()) ** 1.5)
        assert Weight.ones(5).power == 0.0

    def test_explicit_weight_has_no_power(self):
        w = Weight(np.array([1.0, 2.0, 4.0]))
        assert w.power is None and w.reciprocal().power is None
        assert w.on(IndexSet.line(3)) is w
        with pytest.raises(InvalidInputError, match="size"):
            w.on(IndexSet.line(4))

    def test_on_and_reciprocal_keep_the_power(self):
        w = Weight.polynomial(2.0, IndexSet.line(8))
        wider = w.on(IndexSet.line(32))
        assert wider.power == 2.0
        assert np.array_equal(wider.values, Weight.polynomial(2.0, IndexSet.line(32)).values)
        assert w.reciprocal().power == -2.0
        assert SeqSpaceSpec(1, w).dual().weight.power == -2.0


# -- inclusion ----------------------------------------------------------------


class TestInclusion:
    def test_l1_into_lp_same_weight(self):
        w = Weight.polynomial(1.0, IndexSet.line(8))
        rep = seq_space_included(SeqSpaceSpec(1, w), SeqSpaceSpec(2, w))
        assert rep.included and rep.certificate == pytest.approx(1.0)

    def test_larger_weight_gives_smaller_space(self):
        a = SeqSpaceSpec(2, Weight.polynomial(1.0, IndexSet.line(8)))
        b = SeqSpaceSpec(2, Weight.ones(8))
        rep = seq_space_included(a, b)
        assert rep.included and rep.certificate == pytest.approx(1.0)

    def test_sup_into_l1_diverges_linearly(self):
        a = SeqSpaceSpec(np.inf, Weight.ones(8))
        b = SeqSpaceSpec(1, Weight.ones(8))
        rep = seq_space_included(a, b)
        assert not rep.included and rep.divergent
        sizes = dict(rep.certificates_by_size)
        # the constant-sequence witness makes the certificate grow like N
        assert sizes[16] == pytest.approx(16.0)
        assert sizes[1024] == pytest.approx(1024.0)

    def test_summable_weight_ratio_included(self):
        a = SeqSpaceSpec(2, Weight.ones(8))
        b = SeqSpaceSpec(1, Weight.polynomial(-2.0, IndexSet.line(8)))
        rep = seq_space_included(a, b)
        assert rep.included and not rep.divergent

    @pytest.mark.parametrize("scale", [1e-3, 10.0])
    def test_large_exponent_ratio_norm(self, scale):
        # l^2 into l^1.99 takes the l^398 norm of the weight ratio: ratio^398
        # underflowed to a certificate of 0 at 1e-3 and overflowed at 10
        a = SeqSpaceSpec(2, Weight(np.ones(64)))
        b = SeqSpaceSpec(1.99, Weight(np.full(64, scale)))
        r = 1 / (1 / 1.99 - 1 / 2)
        rep = seq_space_included(a, b)
        assert rep.certificate == pytest.approx(scale * 64 ** (1 / r), rel=1e-12)


# -- algebra norms ------------------------------------------------------------


class TestAlgebraNorms:
    def test_jaffard_identity(self):
        iset = IndexSet.line(6)
        assert jaffard_norm(np.eye(6), 3.0, iset) == pytest.approx(1.0)

    def test_jaffard_saturating_kernel(self):
        iset = IndexSet.line(16)
        d = iset.distance_matrix()
        assert jaffard_norm((1 + d) ** -2.5, 2.5, iset) == pytest.approx(1.0)

    def test_jaffard_circular_shift(self):
        ring = IndexSet.ring(8)
        shift = np.roll(np.eye(8), 1, axis=0)
        assert jaffard_norm(shift, 2.0, ring) == pytest.approx(4.0)

    def test_schur_identity_and_ones(self):
        iset = IndexSet.line(3)
        assert schur_weighted_norm(np.eye(3), 1.0, iset) == pytest.approx(1.0)
        assert schur_weighted_norm(np.ones((3, 3)), 0.0, iset) == pytest.approx(3.0)

    def test_schur_tridiagonal(self):
        iset = IndexSet.line(8)
        t = np.eye(8) + 0.5 * np.eye(8, k=1) + 0.5 * np.eye(8, k=-1)
        assert schur_weighted_norm(t, 1.0, iset) == pytest.approx(3.0)

    def test_solidity(self):
        rng = np.random.default_rng(17)
        iset = IndexSet.ring(24)
        d = iset.distance_matrix()
        for _ in range(25):
            a = random_complex(rng, 24, 24) * (1 + d) ** -2.0
            b = a * rng.uniform(0, 1, (24, 24))
            for s in (0.0, 1.5):
                assert jaffard_norm(b, s, iset) <= jaffard_norm(a, s, iset) + 1e-12
                assert schur_weighted_norm(b, s, iset) <= schur_weighted_norm(a, s, iset) + 1e-12

    def test_algebra_submultiplicative_constant_stable_in_size(self):
        # C_s = 2^s works for every size: the fitted constant must not grow
        rng = np.random.default_rng(23)
        s = 1.5
        worst = {}
        for n in (16, 64, 256):
            iset = IndexSet.ring(n)
            d = iset.distance_matrix()
            ratios = []
            for _ in range(5):
                a = random_complex(rng, n, n) * (1 + d) ** -3.0
                b = random_complex(rng, n, n) * (1 + d) ** -3.0
                prod = schur_weighted_norm(a @ b, s, iset)
                ratios.append(prod / (schur_weighted_norm(a, s, iset)
                                      * schur_weighted_norm(b, s, iset)))
            worst[n] = max(ratios)
            assert worst[n] <= 2.0**s
        assert worst[256] <= max(worst[16], worst[64]) * 1.5

    def test_l2_domination(self):
        rng = np.random.default_rng(29)
        iset = IndexSet.line(32)
        for _ in range(20):
            a = random_complex(rng, 32, 32)
            assert np.linalg.norm(a, 2) <= schur_weighted_norm(a, 0.0, iset) + 1e-10

    def test_overflowing_envelope_rejected(self):
        # (1 + 192)^300 overflows float64; at the parent both norms read NaN
        ring = IndexSet.ring(384)
        with pytest.raises(InvalidInputError, match="overflows"):
            jaffard_norm(np.eye(384), 300.0, ring)
        assert jaffard_norm(np.eye(384), 100.0, ring) == 1.0

    def test_operator_norm_against_weighted_sums(self):
        rng = np.random.default_rng(31)
        a = np.abs(rng.standard_normal((12, 12)))
        assert exact_operator_norm(a, np.inf, np.inf) == pytest.approx(a.sum(axis=1).max())
        assert exact_operator_norm(a, 1, 1) == pytest.approx(a.sum(axis=0).max())


# -- decay fit ----------------------------------------------------------------


class TestDecayFit:
    def test_polynomial_ground_truth(self):
        iset = IndexSet.line(64)
        d = iset.distance_matrix()
        fit = decay_fit((1.0 + d) ** -3.0, iset)
        assert abs(fit.fitted_exponent - 3.0) < 0.05
        assert fit.residual < 1e-10

    def test_identity_has_insufficient_shells(self):
        with pytest.raises(InsufficientDataError):
            decay_fit(np.eye(64), IndexSet.line(64))

    def test_exponential_is_flagged(self):
        # exponential decay is not a power law: the fitted exponent keeps
        # growing with the truncation until the noise floor, and the
        # regression residual stays large
        exps, resids = [], []
        for n in (32, 64):
            iset = IndexSet.line(n)
            d = iset.distance_matrix()
            fit = decay_fit(2.0**-d, iset)
            exps.append(fit.fitted_exponent)
            resids.append(fit.residual)
        assert exps[1] > exps[0] + 1.0
        assert min(resids) > 0.5

    def test_shell_distances_strictly_increasing(self):
        iset = IndexSet.ring(32)
        d = iset.distance_matrix()
        fit = decay_fit((1.0 + d) ** -2.0, iset)
        dists = [s for s, _ in fit.shell_maxima]
        assert all(x < y for x, y in zip(dists, dists[1:]))


# -- pseudo-inverse and kappa -------------------------------------------------


class TestPseudoInverse:
    def test_diagonal(self):
        out = pseudo_inverse(np.diag([2.0, 1.0, 0.0]))
        assert np.allclose(np.diag(out), [0.5, 1.0, 0.0])

    def test_unitary(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(random_complex(rng, 6, 6))
        assert np.allclose(pseudo_inverse(q), np.conj(q.T), atol=1e-12)

    @pytest.mark.parametrize("deficiency", [0, 1, 2, 3])
    def test_moore_penrose_identities(self, deficiency):
        rng = np.random.default_rng(40 + deficiency)
        rank = 5 - deficiency
        a = random_complex(rng, 8, rank) @ random_complex(rng, rank, 5)
        p = pseudo_inverse(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * scale
        assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * np.linalg.norm(p)
        assert np.linalg.norm(np.conj((a @ p).T) - a @ p) <= 1e-10
        assert np.linalg.norm(np.conj((p @ a).T) - p @ a) <= 1e-10

    def test_kappa_identity_and_diag(self):
        assert generalized_condition_number(np.eye(5)) == pytest.approx(1.0)
        assert generalized_condition_number(np.diag([4.0, 2.0, 0.0])) == pytest.approx(2.0)

    def test_kappa_projection_is_one(self):
        rng = np.random.default_rng(55)
        q, _ = np.linalg.qr(random_complex(rng, 9, 4))
        proj = q @ np.conj(q.T)
        assert generalized_condition_number(proj) == pytest.approx(1.0)

    def test_kappa_scaling_invariance(self):
        rng = np.random.default_rng(56)
        m = random_complex(rng, 6, 6)
        assert generalized_condition_number(3.7 * m) == pytest.approx(
            generalized_condition_number(m)
        )

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            generalized_condition_number(np.zeros((3, 3)))


# -- spectra in the frames' ranges --------------------------------------------


def assert_core_spectrum_matches_dense(left, right, x):
    """Spectrum, kappa and pseudo-inverse of V_l^* X V_r = Q_l C Q_r^* from its
    core C = R_l X R_r^*, against a dense SVD."""
    dense = np.conj(left.vectors.T) @ (right.vectors if x is None else x @ right.vectors)
    core = galerkin_core(np.eye(left.ambient_dim) if x is None else x, left, right)[0]
    spec = spectrum(core, vectors=True)
    s = np.linalg.svd(dense, compute_uv=False)
    rank = spec.rank
    assert rank == np.count_nonzero(s > 1e-10 * s[0])
    assert np.abs(spec.values[:rank] - s[:rank]).max() <= 1e-12 * s[0]
    assert spec.kappa == pytest.approx(generalized_condition_number(dense), rel=1e-12)
    dagger = pseudo_inverse(dense)
    core_dagger = analysis_q(right) @ spec.pinv_apply(np.conj(analysis_q(left).T))
    assert np.abs(core_dagger - dagger).max() <= 1e-12 * np.abs(dagger).max()


class TestRangeSpectrum:
    @pytest.mark.parametrize("name", ["onb", "gabor16", "gabor64", "gabor144",
                                      "translates", "ponb"])
    @pytest.mark.parametrize("middle", ["gram", "operator", "dual"])
    def test_suite_frames_match_dense_svd(self, suite_frames, name, middle):
        frame = suite_frames[name]
        n = frame.ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5).dense()
        if middle == "gram":
            assert_core_spectrum_matches_dense(frame, frame, None)
        elif middle == "operator":
            assert_core_spectrum_matches_dense(frame, frame, op)
        else:
            assert_core_spectrum_matches_dense(frame, canonical_dual(frame), op)

    def test_riesz_sequence_with_fewer_vectors_than_dimensions(self):
        riesz = riesz_sequence()
        assert riesz.size < riesz.ambient_dim
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5).dense()
        assert_core_spectrum_matches_dense(riesz, riesz, None)
        assert_core_spectrum_matches_dense(riesz, riesz, op)

    def test_unequal_left_and_right_frames(self, suite_frames):
        gab, tra = suite_frames["gabor64"], suite_frames["translates"]
        rng = np.random.default_rng(57)
        op = random_complex(rng, 64, 64) / 8 + 4 * np.eye(64)
        assert_core_spectrum_matches_dense(gab, tra, None)
        assert_core_spectrum_matches_dense(gab, tra, op)
        assert_core_spectrum_matches_dense(tra, gab, op)
        assert_core_spectrum_matches_dense(gab, riesz_sequence(), op)

    def test_qr_is_cached_and_frozen(self, suite_frames):
        # a dense frame caches its one block R_0, a Gabor frame its Walnut R_t
        dense, gabor = suite_frames["ponb"], suite_frames["gabor16"]
        r = analysis_r_product(dense, np.eye(64))
        r_0 = dense._r
        analysis_r_product(dense, np.eye(64))
        assert dense._r is r_0
        assert r_0.shape == (1, 64, 64) and not r_0.flags.writeable
        assert r.shape == (64, 64)
        assert analysis_r_product(gabor, np.eye(16)).shape == (16, 16)
        r_t = gabor._r
        analysis_r_product(gabor, np.eye(16))
        assert gabor._r is r_t
        assert r_t.shape == (8, 2, 2) and not r_t.flags.writeable

    def test_missing_factors_rejected(self):
        with pytest.raises(InvalidInputError):
            spectrum(np.eye(4)).pinv_apply(np.ones(4))


# -- singular values of square matrices -----------------------------------------

EPS = np.finfo(float).eps


def hermitian_with_spectrum(rng, eigenvalues, field=float):
    """V diag(eigenvalues) V^* for a random unitary V, Hermitian in storage."""
    n = len(eigenvalues)
    a = rng.standard_normal((n, n)) if field is float else random_complex(rng, n, n)
    v = np.linalg.qr(a)[0]
    h = (v * np.asarray(eigenvalues)) @ np.conj(v.T)
    return 0.5 * (h + np.conj(h.T))


def with_hermitian_defect(h, ratio):
    """h with its (0, 1) entry moved off the Hermitian part so that
    ||C - C^*||_F = ratio * n u ||C||_F: the pair (0, 1), (1, 0) is zeroed
    and C[0, 1] = e gives ||C - C^*||_F = sqrt(2) e exactly."""
    c = h.copy()
    c[0, 1] = c[1, 0] = 0.0
    e = ratio * len(c) * EPS * np.linalg.norm(c) / np.sqrt(2.0)
    c[0, 1] = e
    return c


def square_cases():
    rng = np.random.default_rng(61)
    h = hermitian_with_spectrum(rng, [4.0, -3.0, 2.5, -2.0, 1.5, -1.0, 0.75, -0.5, 3.5, -1.25])
    return {
        "real_indefinite": (h, "eigh"),
        "complex_hermitian": (hermitian_with_spectrum(
            rng, [2.0, -1.0, 0.5, -3.0, 1.5, 1.0, -0.25, 2.5], complex), "eigh"),
        "rank_deficient": (make_test_operator(
            "diagonal", 8, spectrum=[3, -2, 0, 1, 0, -5, 0.5, 0]).dense(), "eigh"),
        "zero": (np.zeros((6, 6)), "eigh"),
        "defect_below": (with_hermitian_defect(h, 1 - 1e-6), "eigh"),
        "defect_above": (with_hermitian_defect(h, 1 + 1e-6), "svd"),
        "non_hermitian": (rng.standard_normal((9, 9)), "svd"),
        "complex_non_hermitian": (random_complex(rng, 7, 7), "svd"),
    }


SQUARE_CASES = square_cases()


def hermitian_rule(c):
    """The Hermitian test at a moderate scale, where neither norm under- or
    overflows."""
    return np.linalg.norm(c - np.conj(c.T)) <= len(c) * EPS * np.linalg.norm(c)


# the entry points that decompose a matrix: each takes linalg.spectrum, which
# the first one reads at call time, so that taken_paths can record it
ENTRIES = {
    "spectrum": lambda c: linalg.spectrum(c).values,
    "pseudo_inverse": linalg.pseudo_inverse,
    "numerical_rank": linalg.numerical_rank,
    "generalized_condition_number": linalg.generalized_condition_number,
}


def numpy_reference(c):
    """Singular values, rank at the cutoff ``DEFAULT_RANK_TOL``, kappa (None
    at rank 0) and pseudo-inverse of c, from ``np.linalg``."""
    s = np.linalg.svd(c, compute_uv=False)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) if s[0] else 0
    return {
        "spectrum": s,
        "numerical_rank": rank,
        "generalized_condition_number": float(s[0] / s[rank - 1]) if rank else None,
        "pseudo_inverse": np.linalg.pinv(c, rcond=DEFAULT_RANK_TOL),
    }


def taken_paths(monkeypatch, entry, c):
    """The decompositions ``linalg.spectrum`` took while ``entry`` ran on c."""
    paths = []
    take = linalg.spectrum

    def recorded(m, vectors=False):
        spec = take(m, vectors)
        paths.append(spec.decomposition)
        return spec

    monkeypatch.setattr(linalg, "spectrum", recorded)
    # kappa of the zero matrix raises after its one decomposition
    with contextlib.suppress(InvalidInputError):
        ENTRIES[entry](c)
    return paths


class TestSpectrum:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("name", SQUARE_CASES)
    def test_path_follows_the_rule(self, monkeypatch, name, entry):
        c, path = SQUARE_CASES[name]
        assert hermitian_rule(c) == (path == "eigh")
        assert taken_paths(monkeypatch, entry, c) == [path]
        for vectors in (False, True):
            assert spectrum(c, vectors).decomposition == path

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("name", SQUARE_CASES)
    def test_values_rank_and_singular_match_svd(self, name, entry):
        c, _ = SQUARE_CASES[name]
        n = len(c)
        ref = numpy_reference(c)
        s, rank = ref["spectrum"], ref["numerical_rank"]
        # a backward error of n u ||C||_2 moves each singular value by at
        # most that much, kappa by a relative n u (1 + kappa) and C^+ by
        # 3 n u ||C||_2 ||C^+||_2^2 at a fixed rank
        tol = n * EPS * s[0]
        if entry == "spectrum":
            for vectors in (False, True):
                spec = spectrum(c, vectors)
                assert np.all(spec.values[:-1] >= spec.values[1:])
                assert np.abs(spec.values - s).max() <= tol
                assert spec.rank == rank
                assert (spec.rank < n) == (rank < n)
        elif entry == "numerical_rank":
            assert linalg.numerical_rank(c) == rank
        elif entry == "generalized_condition_number":
            kappa = ref[entry]
            if kappa is None:
                with pytest.raises(InvalidInputError):
                    linalg.generalized_condition_number(c)
            else:
                got = linalg.generalized_condition_number(c)
                assert abs(got - kappa) <= n * EPS * (1 + kappa) * kappa
        else:
            dagger, reference = linalg.pseudo_inverse(c), ref[entry]
            assert dagger.dtype == reference.dtype
            bound = 3 * tol / s[rank - 1] ** 2 if rank else 0.0
            assert np.abs(dagger - reference).max() <= bound

    @pytest.mark.parametrize("name", SQUARE_CASES)
    def test_pseudo_inverse_matches_numpy(self, name):
        c, _ = SQUARE_CASES[name]
        n = len(c)
        spec = spectrum(c, vectors=True)
        s = spec.values
        assert np.abs((spec.u * s) @ spec.vh - c).max() <= 10 * n * EPS * max(s[0], 1e-300)
        dagger = spec.pinv_apply(np.eye(n))
        reference = np.linalg.pinv(c, rcond=DEFAULT_RANK_TOL)
        assert dagger.dtype == reference.dtype
        assert np.abs(dagger - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("name", ["non_hermitian", "complex_non_hermitian", "defect_above"])
    def test_non_hermitian_takes_the_svd_bit_for_bit(self, name, entry):
        c, _ = SQUARE_CASES[name]
        reference = numpy_reference(c)[entry]
        assert np.array_equal(ENTRIES[entry](c), reference)
        if entry == "spectrum":
            assert np.array_equal(LinearOperator(c).spectrum.values, reference)
            spec = spectrum(c, vectors=True)
            for got, ref in zip((spec.u, spec.values, spec.vh),
                                np.linalg.svd(c, full_matrices=False)):
                assert np.array_equal(got, ref)

    def test_contraction_norm_of_a_non_hermitian_operator_is_the_svd_norm(self, rng):
        a = np.eye(16) + 0.1 * rng.standard_normal((16, 16))
        report, _ = finite_section_solve(a, np.ones(16), ProjectionSchedule(make_onb(16)))
        assert report.contraction_norm == np.linalg.norm(np.eye(16) - a, 2)
        assert {lv.decomposition for lv in report.levels} == {"svd"}

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("name", ["real_indefinite", "defect_below", "defect_above",
                                      "non_hermitian"])
    def test_rule_holds_at_extreme_scales(self, name, scale):
        # ||C||_F^2 underflows at 1e-200 and overflows at 1e200 unless the
        # norms are taken of C scaled by its largest entry
        c, path = SQUARE_CASES[name]
        assert hermitian_defect(scale * c) == pytest.approx(hermitian_defect(c), rel=1e-12)
        spec = spectrum(scale * c)
        assert spec.decomposition == path
        assert np.allclose(spec.values, scale * spectrum(c).values, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_takes_the_svd(self, bad):
        c = np.eye(4)
        c[1, 1] = bad
        assert linalg._hermitian_part(c) is None
        try:
            reference = np.linalg.svd(c, compute_uv=False)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                spectrum(c)
        else:
            assert np.array_equal(spectrum(c).values, reference, equal_nan=True)

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("name", ["zero", "inf", "nan", "real_indefinite",
                                      "complex_hermitian", "defect_below", "defect_above"])
    def test_one_difference_keeps_the_decision(self, name, scale):
        if name in ("inf", "nan"):
            c = np.eye(5)
            c[1, 2] = np.inf if name == "inf" else np.nan
        else:
            c = SQUARE_CASES[name][0]
        c = scale * c
        # the rule as it stood before M^* - M was shared: both norms of
        # C / max|C_ij|, a non-finite C rejected
        top = np.abs(c).max()
        if not np.isfinite(top):
            accepted = False
        else:
            s = c / top if top else c
            accepted = bool(np.linalg.norm(np.conj(s.T) - s)
                            <= len(c) * EPS * np.linalg.norm(s))
        assert accepted == (name in ("zero", "real_indefinite", "complex_hermitian",
                                     "defect_below"))
        with np.errstate(all="raise"):
            h = linalg._hermitian_part(c)
        assert (h is not None) == accepted
        if accepted:
            assert np.array_equal(h, c + 0.5 * (np.conj(c.T) - c))

    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_finite_sections_match_the_svd_path(self, monkeypatch, method):
        # an indefinite diagonal with zeros: levels are singular where they
        # hold a zero of the spectrum
        spectrum = [3, -2, 0, 1, 0.5, -5, 2, 0, 1.5, -1, 4, -0.5, 0, 2.5, -3, 1]
        op = make_test_operator("diagonal", 16, spectrum=spectrum)
        y = np.arange(1.0, 17.0) + 0.5j
        schedule = ProjectionSchedule(make_onb(16), start=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report, x = finite_section_solve(op, y, schedule, method=method)
            monkeypatch.setattr(linalg, "_hermitian_part", lambda m: None)
            ref, ref_x = finite_section_solve(op, y, schedule, method=method)
        assert report.contraction_norm == pytest.approx(ref.contraction_norm, rel=1e-15)
        assert report.converged == ref.converged
        assert report.stabilized_at == ref.stabilized_at
        for got, want in zip(report.levels, ref.levels):
            assert (got.decomposition, want.decomposition) == ("eigh", "svd")
            assert got.singular == want.singular
            assert got.iterations == want.iterations
            for key in ("inverse_norm", "kappa_dagger"):
                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-13)
        assert any(lv.singular for lv in report.levels)
        if ref_x is not None:
            assert np.linalg.norm(x - ref_x) <= 1e-13 * np.linalg.norm(ref_x)


# -- admissible weights -------------------------------------------------------


class TestAdmissibleWeights:
    def test_polynomial_inside_margin(self):
        iset = IndexSet.line(32)
        assert weight_admissible(MatrixAlgebraSpec("jaffard", 4.0),
                                 Weight.polynomial(1.0, iset), iset.dim)

    def test_polynomial_outside_margin(self):
        iset = IndexSet.line(32)
        assert not weight_admissible(MatrixAlgebraSpec("jaffard", 2.0),
                                     Weight.polynomial(3.0, iset), iset.dim)

    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 0.5, 0.6, 1.0, 3.0])
    def test_rule_is_the_check_verdict(self, t):
        iset = IndexSet.torus_grid(6, 6)
        spec = MatrixAlgebraSpec("jaffard", 3.0)
        weight = Weight.polynomial(t, iset)
        assert weight_admissible(spec, weight, iset.dim) == (abs(t) <= 0.5)

    def test_constant_weight_always_admissible(self):
        iset = IndexSet.line(32)
        assert weight_admissible(MatrixAlgebraSpec("jaffard", 1.2), Weight.ones(32),
                                 iset.dim)

    def test_explicit_weight_admissible(self):
        assert weight_admissible(MatrixAlgebraSpec("jaffard", 1.2),
                                 Weight(np.linspace(1.0, 50.0, 16)), 1)
