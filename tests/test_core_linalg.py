"""Index sets, weighted norms, algebra norms, decay fits, pseudo-inverse."""

import numpy as np
import pytest

from conftest import decaying_generator
from locframes import (
    DimensionMismatchError,
    InsufficientDataError,
    InvalidInputError,
    MatrixAlgebraSpec,
    SeqSpaceSpec,
    Weight,
    admissible_weight_check,
    analysis_qr,
    canonical_dual,
    decay_fit,
    dual_pairing,
    gaussian_window,
    generalized_condition_number,
    jaffard_norm,
    make_gabor_frame,
    make_test_operator,
    make_translates_frame,
    pseudo_inverse,
    range_spectrum,
    schur_weighted_norm,
    seq_norm,
    seq_space_included,
)
from locframes.algebras import weight_admissible
from locframes.indexing import IndexSet
from locframes.opnorms import exact_operator_norm


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


class TestIndexSetMetric:
    @pytest.mark.parametrize("iset", [
        IndexSet.line(9),
        IndexSet.ring(9),
        IndexSet.torus_grid(4, 6, scales=(2.0, 1.0)),
    ])
    def test_metric_axioms(self, iset):
        d = iset.distance_matrix()
        assert np.all(d >= 0)
        assert np.allclose(np.diag(d), 0.0)
        assert np.array_equal(d, d.T)

    def test_circular_wraps(self):
        ring = IndexSet.ring(8)
        d = ring.distance_matrix()
        assert d[0, 7] == 1.0
        assert d[0, 4] == 4.0

    def test_cross_lattice_uses_ambient_units(self):
        coarse = IndexSet.ring(4, scale=4.0)   # positions 0,4,8,12 on Z_16
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
        assert not IndexSet(range(12), grid.positions[column_major], "circular",
                            moduli=(3, 4)).is_torus_grid(3, 4)
        assert not IndexSet(range(12), grid.positions, "absolute").is_torus_grid(3, 4)
        assert not IndexSet.ring(12).is_torus_grid(3, 4)

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
        rep = seq_space_included(a, b, schedule=(16, 32, 64, 128, 256, 512, 1024))
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

    def test_rank_tol_validation(self):
        with pytest.raises(InvalidInputError):
            pseudo_inverse(np.eye(2), rank_tol=2.0)

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


def assert_range_spectrum_matches_dense(left, right, x):
    """Core spectrum, kappa and pseudo-inverse of V_l^* X V_r against a dense SVD."""
    dense = np.conj(left.vectors.T) @ (right.vectors if x is None else x @ right.vectors)
    spec = range_spectrum(analysis_qr(left), analysis_qr(right), x, factors=True)
    s = np.linalg.svd(dense, compute_uv=False)
    rank = spec.values.size
    assert rank == np.count_nonzero(s > 1e-10 * s[0])
    assert np.abs(spec.values - s[:rank]).max() <= 1e-12 * s[0]
    assert spec.kappa == pytest.approx(generalized_condition_number(dense), rel=1e-12)
    dagger = pseudo_inverse(dense)
    core_dagger = spec.pinv_apply(np.eye(left.size))
    assert np.abs(core_dagger - dagger).max() <= 1e-12 * np.abs(dagger).max()


def riesz_sequence():
    """16 translates in C^64: K < n, a basis of a subspace only."""
    return make_translates_frame(64, 4, decaying_generator(64), require_frame=False)


class TestRangeSpectrum:
    @pytest.mark.parametrize("name", ["onb", "gabor16", "gabor64", "gabor144",
                                      "translates", "ponb"])
    @pytest.mark.parametrize("middle", ["gram", "operator", "dual"])
    def test_suite_frames_match_dense_svd(self, suite_frames, name, middle):
        frame = suite_frames[name]
        n = frame.ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5).dense()
        if middle == "gram":
            assert_range_spectrum_matches_dense(frame, frame, None)
        elif middle == "operator":
            assert_range_spectrum_matches_dense(frame, frame, op)
        else:
            assert_range_spectrum_matches_dense(frame, canonical_dual(frame), op)

    def test_riesz_sequence_with_fewer_vectors_than_dimensions(self):
        riesz = riesz_sequence()
        assert riesz.size < riesz.ambient_dim
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5).dense()
        assert_range_spectrum_matches_dense(riesz, riesz, None)
        assert_range_spectrum_matches_dense(riesz, riesz, op)

    def test_unequal_left_and_right_frames(self, suite_frames):
        gab, tra = suite_frames["gabor64"], suite_frames["translates"]
        rng = np.random.default_rng(57)
        op = random_complex(rng, 64, 64) / 8 + 4 * np.eye(64)
        assert_range_spectrum_matches_dense(gab, tra, None)
        assert_range_spectrum_matches_dense(gab, tra, op)
        assert_range_spectrum_matches_dense(tra, gab, op)
        assert_range_spectrum_matches_dense(gab, riesz_sequence(), op)

    def test_qr_is_cached_and_frozen(self, suite_frames):
        frame = suite_frames["gabor16"]
        q, r = analysis_qr(frame)
        assert analysis_qr(frame)[0] is q
        assert q.shape == (32, 16) and r.shape == (16, 16)
        assert not q.flags.writeable and not r.flags.writeable

    def test_shape_mismatch_and_missing_factors_rejected(self, suite_frames):
        gab16 = make_gabor_frame(16, 4, 2, gaussian_window(16))
        qr16, qr64 = analysis_qr(gab16), analysis_qr(suite_frames["gabor64"])
        with pytest.raises(DimensionMismatchError):
            range_spectrum(qr16, qr64)
        with pytest.raises(DimensionMismatchError):
            range_spectrum(qr16, qr16, np.eye(64))
        with pytest.raises(InvalidInputError):
            range_spectrum(qr16, qr16).pinv_apply(np.ones(32))


# -- admissible weights -------------------------------------------------------


class TestAdmissibleWeights:
    def test_polynomial_inside_margin(self):
        iset = IndexSet.line(32)
        out = admissible_weight_check(
            MatrixAlgebraSpec("jaffard", 4.0), Weight.polynomial(1.0, iset), iset
        )
        assert out["admissible"]
        assert np.isfinite(out["worst_p_norm_bound"])

    def test_polynomial_outside_margin(self):
        iset = IndexSet.line(32)
        out = admissible_weight_check(
            MatrixAlgebraSpec("jaffard", 2.0), Weight.polynomial(3.0, iset), iset
        )
        assert not out["admissible"]

    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 0.5, 0.6, 1.0, 3.0])
    def test_rule_is_the_check_verdict(self, t):
        iset = IndexSet.torus_grid(6, 6)
        spec = MatrixAlgebraSpec("jaffard", 3.0)
        weight = Weight.polynomial(t, iset)
        verdict = admissible_weight_check(spec, weight, iset)["admissible"]
        assert weight_admissible(spec, weight, iset.dim) == verdict
        assert verdict == (abs(t) <= 0.5)

    def test_constant_weight_always_admissible(self):
        iset = IndexSet.line(32)
        spec = MatrixAlgebraSpec("jaffard", 1.2)
        out = admissible_weight_check(spec, Weight.ones(32), iset)
        assert out["admissible"]
        d = iset.distance_matrix()
        env = (1.0 + d) ** -1.2
        assert out["worst_p_norm_bound"] == pytest.approx(env.sum(axis=1).max())

    def test_exponential_family_rejected(self):
        iset = IndexSet.line(16)
        with pytest.raises(InvalidInputError):
            admissible_weight_check(
                MatrixAlgebraSpec("jaffard", 3.0),
                Weight.exponential(0.5, iset),
                iset,
            )
