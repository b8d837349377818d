"""Galerkin matrix representation, Schur certificates, invertibility."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from locframes import (
    BijectivityError,
    DimensionMismatchError,
    IndexSet,
    InvalidInputError,
    LinearOperator,
    SeqSpaceSpec,
    Weight,
    analysis,
    bounded_equiv_check,
    canonical_dual,
    compose_rule_check,
    galerkin_matrix,
    galerkin_pseudoinverse,
    gaussian_window,
    gram,
    idempotency_residual,
    io,
    kappa_factorization_probe,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_test_operator,
    make_translates_frame,
    matrixrep_norm_bound,
    operator_from_matrix,
    operator_norm_bound,
    roundtrip_check,
    schur_certificate,
    seq_norm,
)
from locframes.frames import (
    analysis_r_product,
    mixed_frame_operator,
    shared_lattice,
    walnut_r,
)
from locframes.cli import main as cli_main
from locframes.galerkin import (CERTIFICATE_CASES, _phase, _range_projection_defect,
                                 certificate_probe_norm, galerkin_core)
from locframes.linalg import (generalized_condition_number, hermitian_defect, pseudo_inverse,
                              spectrum)
from locframes.opnorms import exact_operator_norm, weighted_column_blocks, weighted_matrix
from locframes.solver import HERMITIAN_TOL, frame_galerkin_solve
from locframes.weights import column_p_norms, decay_envelope

from conftest import analysis_q, complex_copy, decaying_generator, dense_twin, riesz_sequence


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestLinearOperator:
    def test_dimension_check(self):
        op = LinearOperator.identity(4)
        with pytest.raises(Exception, match="domain"):
            op.apply(np.ones(5))


class TestGalerkinAssembly:
    def test_identity_on_onb(self):
        onb = make_onb(8)
        gm = galerkin_matrix(LinearOperator.identity(8), onb, onb)
        assert np.allclose(gm.entries, np.eye(8))

    def test_identity_against_dual_is_cross_gram(self, suite_frames):
        frame = suite_frames["gabor16"]
        dual = canonical_dual(frame)
        gm = galerkin_matrix(LinearOperator.identity(16), frame, dual)
        assert np.allclose(gm.entries, gram(frame, dual), atol=1e-12)

    def test_diagonal_operator_on_onb(self, rng):
        onb = make_onb(6)
        d = rng.standard_normal(6)
        gm = galerkin_matrix(np.diag(d), onb, onb)
        assert np.allclose(gm.entries, np.diag(d))

    def test_factorization_against_unit_sequences(self, suite_frames, rng):
        # entries act on unit sequences exactly like analysis o O o synthesis
        frame = suite_frames["gabor16"]
        op = random_matrix(rng, 16)
        gm = galerkin_matrix(op, frame, frame)
        from locframes import synthesis

        for l in (0, 7, 23):
            e = np.zeros(frame.size)
            e[l] = 1.0
            column = analysis(frame, op @ synthesis(frame, e))
            assert np.allclose(gm.entries[:, l], column, atol=1e-12)


class TestOperatorFromMatrix:
    def test_identity_matrix_with_dual_pair_reconstructs(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        dual = canonical_dual(frame)
        op = operator_from_matrix(np.eye(frame.size), frame, dual)
        f = random_matrix(rng, 64, 1)[:, 0]
        assert np.linalg.norm(op.apply(f) - f) <= 1e-10 * np.linalg.norm(f)

    def test_zero_matrix(self, suite_frames):
        frame = suite_frames["gabor16"]
        op = operator_from_matrix(np.zeros((frame.size, frame.size)), frame, frame)
        assert np.allclose(op.dense(), 0.0)

    def test_onb_frames_reproduce_matrix(self, rng):
        onb = make_onb(8)
        m = random_matrix(rng, 8)
        op = operator_from_matrix(m, onb, onb)
        assert np.allclose(op.dense(), m, atol=1e-12)


class TestRoundtripAndComposition:
    def test_onb_roundtrip_exact(self, rng):
        onb = make_onb(8)
        assert roundtrip_check(random_matrix(rng, 8), onb, onb) <= 1e-12

    def test_gabor_pair_roundtrip(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        tra = suite_frames["translates"]
        assert roundtrip_check(random_matrix(rng, 64), frame, tra) <= 1e-10

    def test_rank_one_roundtrip(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        f = random_matrix(rng, 64, 1)[:, 0]
        g = random_matrix(rng, 64, 1)[:, 0]
        assert roundtrip_check(np.outer(f, np.conj(g)), frame, frame) <= 1e-10

    def test_composition_identity_case(self):
        onb = make_onb(8)
        eye = LinearOperator.identity(8)
        assert compose_rule_check(eye, eye, onb, onb, onb) == pytest.approx(0.0, abs=1e-14)

    def test_composition_mixed_frames(self, suite_frames, rng):
        res = compose_rule_check(
            random_matrix(rng, 64),
            random_matrix(rng, 64),
            suite_frames["gabor64"],
            suite_frames["translates"],
            suite_frames["ponb"],
        )
        assert res <= 1e-10

    def test_composition_rank_deficient_middle_frame(self, rng):
        from locframes import Frame, NotAFrameError

        deficient = Frame(np.eye(8)[:, :5] @ np.eye(5), IndexSet.ring(5), "thin")
        onb = make_onb(8)
        with pytest.raises(NotAFrameError):
            compose_rule_check(random_matrix(rng, 8), random_matrix(rng, 8),
                               onb, onb, deficient)


class TestNormBounds:
    def test_identity_onb_bound_is_one(self):
        onb = make_onb(16)
        w = Weight.ones(16)
        spaces = (SeqSpaceSpec(1, w), SeqSpaceSpec(1, w))
        out = matrixrep_norm_bound(LinearOperator.identity(16), onb, onb, onb, spaces)
        assert out["bound"] == pytest.approx(1.0)
        assert out["measured"] <= 1.0 + 1e-10

    def test_homogeneity_under_scaling(self, suite_frames):
        frame = suite_frames["gabor16"]
        w = Weight.ones(frame.size)
        spaces = (SeqSpaceSpec(np.inf, w), SeqSpaceSpec(np.inf, w))
        op = make_test_operator("identity_minus_kernel", 16, theta=0.4)
        one = matrixrep_norm_bound(op, frame, frame, frame, spaces)
        scaled = matrixrep_norm_bound(
            LinearOperator(3.0 * op.dense()), frame, frame, frame, spaces
        )
        assert scaled["bound"] == pytest.approx(3 * one["bound"])
        assert scaled["measured"] == pytest.approx(3 * one["measured"])

    @pytest.mark.parametrize("p", [1, np.inf])
    def test_measured_below_bound_on_decaying_operators(self, suite_frames, rng, p):
        gab = suite_frames["gabor64"]
        tra = suite_frames["translates"]
        ponb = suite_frames["ponb"]
        w = Weight.ones(64)
        spaces = (SeqSpaceSpec(p, w), SeqSpaceSpec(p, w))
        iset = IndexSet.ring(64)
        d = iset.distance_matrix()
        for _ in range(25):
            op = random_matrix(rng, 64) * (1 + d) ** -2.0
            out = matrixrep_norm_bound(op, gab, tra, ponb, spaces, probes=20)
            assert out["measured"] <= out["bound"] * (1 + 1e-8)

    def test_localization_warning_tag(self, suite_frames):
        from locframes import MatrixAlgebraSpec

        n = 64
        window = (1.0 + IndexSet.ring(n).distance_to_origin()) ** -0.5
        window /= np.linalg.norm(window)
        rough = make_gabor_frame(n, 8, 4, window)
        w = Weight.ones(n)
        spaces = (SeqSpaceSpec(1, w), SeqSpaceSpec(1, w))
        out = matrixrep_norm_bound(
            LinearOperator.identity(n), rough, rough, rough, spaces,
            localization=MatrixAlgebraSpec("jaffard", 5.0),
        )
        assert "warning" in out

    def test_mirrored_operator_bound(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        tra = suite_frames["translates"]
        w = Weight.ones(64)
        spaces = (SeqSpaceSpec(1, w), SeqSpaceSpec(1, w))
        gm = galerkin_matrix(random_matrix(rng, 64), frame, tra)
        out = operator_norm_bound(gm, frame, tra, suite_frames["ponb"], spaces)
        assert out["measured"] <= out["bound"] * (1 + 1e-8)

    def test_bounded_equiv_identity(self, suite_frames):
        frame = suite_frames["gabor16"]
        w = Weight.ones(frame.size)
        spaces = (SeqSpaceSpec(1, w), SeqSpaceSpec(1, w))
        out = bounded_equiv_check(LinearOperator.identity(16), frame, frame, spaces)
        assert out["consistent"]

    def test_bounded_equiv_zero_operator(self, suite_frames):
        frame = suite_frames["gabor16"]
        w = Weight.ones(frame.size)
        spaces = (SeqSpaceSpec(np.inf, w), SeqSpaceSpec(np.inf, w))
        out = bounded_equiv_check(
            LinearOperator(np.zeros((16, 16))), frame, frame, spaces
        )
        assert out["matrix_norm"] == 0.0
        assert out["operator_norm_measured"] == 0.0

    def test_bounded_equiv_large_column_scales_both(self, suite_frames, rng):
        frame = suite_frames["gabor16"]
        w = Weight.ones(frame.size)
        spaces = (SeqSpaceSpec(1, w), SeqSpaceSpec(1, w))
        op = random_matrix(rng, 16)
        op[:, 3] *= 100
        out = bounded_equiv_check(op, frame, frame, spaces)
        assert out["consistent"]
        assert out["matrix_norm"] > 50
        assert out["operator_norm_measured"] > 5

    @pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
    def test_bounded_equiv_batched_probes_match_probe_loop(self, suite_frames, rng, p):
        frame = suite_frames["gabor16"]
        w = Weight.polynomial(1.0, frame.index_set)
        spaces = (SeqSpaceSpec(p, w), SeqSpaceSpec(p, w))
        op = random_matrix(rng, 16)
        out = bounded_equiv_check(op, frame, frame, spaces, probes=30, seed=5)
        # reference: one probe at a time from the same stream
        dual, space = canonical_dual(frame), spaces[0].on(frame.index_set)
        probe_rng = np.random.default_rng(5)
        ratios = []
        for _ in range(30):
            f = probe_rng.standard_normal(16) + 1j * probe_rng.standard_normal(16)
            ratios.append(seq_norm(analysis(dual, op @ f), space)
                          / seq_norm(analysis(dual, f), space))
        assert out["operator_norm_measured"] == pytest.approx(max(ratios), rel=1e-12)


class TestSchurCertificates:
    def test_identity_inf_inf(self):
        w = Weight.ones(8)
        cert = schur_certificate(np.eye(8), "inf_inf", weights=(w, w))
        assert cert.certified_bound == pytest.approx(1.0)

    def test_row_sums_certify_sup_norm(self, rng):
        w = Weight.ones(12)
        m = random_matrix(rng, 12)
        m *= 2.0 / np.abs(m).sum(axis=1).max()
        cert = schur_certificate(m, "inf_inf", weights=(w, w))
        assert cert.certified_bound <= 2.0 + 1e-12
        measured = certificate_probe_norm(m, cert, probes=200)
        assert measured <= cert.certified_bound * (1 + 1e-8)

    def test_identity_two_two(self):
        w = Weight.ones(8)
        cert = schur_certificate(np.eye(8), "two_two", weights=(w, w))
        assert cert.details["svd_ground_truth"] == pytest.approx(1.0)
        assert 1.0 <= cert.certified_bound <= 8 ** (1 / 40) + 1e-12

    @pytest.mark.parametrize("p", [600.0, 2000.0, 1e300])
    def test_one_p_at_large_p(self, p):
        # redundancy 4: every entry lies at or below 1/4, so each |m|^p
        # underflowed to 0 and so did the bound
        frame = make_gabor_frame(32, 2, 4, gaussian_window(32))
        entries = galerkin_matrix(LinearOperator.identity(32), frame,
                                  canonical_dual(frame)).entries
        w = Weight.ones(frame.size)
        cert = schur_certificate(entries, "one_p", p=p, weights=(w, w))
        top = np.abs(entries).max()
        # max_l ||m_l||_inf <= max_l ||m_l||_p <= K^(1/p) max_l ||m_l||_inf
        assert top <= cert.certified_bound * (1 + 1e-12)
        assert cert.certified_bound <= top * frame.size ** (1 / p) * (1 + 1e-12)
        assert certificate_probe_norm(entries, cert) <= cert.certified_bound * (1 + 1e-8)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_two_two_sound_at_extreme_scales(self, scale):
        # G^20 of the raw Gram matrix overflows at 1e12 and underflows
        # at 1e-12; the certificate must stay finite and above ||M||_2
        m = scale * np.random.default_rng(59).standard_normal((40, 40))
        w = Weight.ones(40)
        cert = schur_certificate(m, "two_two", weights=(w, w))
        truth = cert.details["svd_ground_truth"]
        assert np.isfinite(cert.certified_bound)
        assert truth <= cert.certified_bound * (1 + 1e-8)
        assert cert.certified_bound <= truth * 40 ** (1 / 40) * (1 + 1e-8)

    @pytest.mark.parametrize("case", ["inf_inf", "one_inf", "one_p", "two_two"])
    def test_probe_norms_never_exceed_bounds(self, rng, case):
        iset = IndexSet.ring(24)
        d = iset.distance_matrix()
        w1 = Weight.ones(24)
        w2 = Weight.polynomial(0.5, iset)
        for _ in range(50):
            m = random_matrix(rng, 24) * (1 + d) ** -2.5
            cert = schur_certificate(m, case, p=2.0, weights=(w1, w2))
            measured = certificate_probe_norm(m, cert, probes=40)
            assert measured <= cert.certified_bound * (1 + 1e-8)
            if case == "two_two":
                assert cert.details["svd_ground_truth"] <= \
                    cert.certified_bound * (1 + 1e-8)

    def test_inf_one_absolute_sum(self, rng):
        w = Weight.ones(10)
        m = random_matrix(rng, 10)
        cert = schur_certificate(m, "inf_one", weights=(w, w))
        assert cert.certified_bound == pytest.approx(np.abs(m).sum())
        measured = certificate_probe_norm(m, cert, probes=100)
        assert measured <= cert.certified_bound * (1 + 1e-8)

    def test_unknown_case_rejected(self):
        w = Weight.ones(4)
        with pytest.raises(InvalidInputError):
            schur_certificate(np.eye(4), "two_one", weights=(w, w))

    @pytest.mark.parametrize("galerkin", [False, True], ids=["plain", "galerkin"])
    def test_certificate_without_weights_rejected(self, suite_frames, galerkin):
        frame = suite_frames["gabor16"]
        gm = galerkin_matrix(LinearOperator.identity(16), frame, frame)
        with pytest.raises(InvalidInputError, match="weights"):
            schur_certificate(gm if galerkin else gm.entries, "inf_inf")

    @pytest.mark.parametrize("case", CERTIFICATE_CASES)
    def test_weights_of_the_wrong_length_rejected(self, suite_frames, case):
        # w_in has M's column count and w_out its row count, before any case runs;
        # a 3 x 5 matrix tells the two apart
        frame = suite_frames["gabor16"]
        gm = galerkin_matrix(LinearOperator.identity(16), frame, canonical_dual(frame))
        plain = np.arange(15.0).reshape(3, 5) + 1
        for m in (gm, gm.entries, np.ones((4, 4)), plain):
            rows, cols = m.shape
            swapped = [(rows, cols)] if rows != cols else []
            for w_in, w_out in [(cols - 1, rows), (cols, rows + 1)] + swapped:
                with pytest.raises(DimensionMismatchError, match="weights"):
                    schur_certificate(m, case, weights=(Weight.ones(w_in), Weight.ones(w_out)))
        cert = schur_certificate(plain, case, weights=(Weight.ones(5), Weight.ones(3)))
        assert cert.to_dict()["sound"]


class TestPseudoInverseAndKappa:
    def test_identity_onb(self):
        onb = make_onb(8)
        gm = galerkin_matrix(LinearOperator.identity(8), onb, onb)
        assert np.allclose(galerkin_pseudoinverse(gm, onb, onb), np.eye(8))

    def test_redundant_frame_gives_projection(self, suite_frames):
        frame = suite_frames["gabor64"]
        gm = galerkin_matrix(LinearOperator.identity(64), frame, frame)
        dag = galerkin_pseudoinverse(gm, frame, frame)
        proj = dag @ gm.entries
        assert np.linalg.norm(proj @ proj - proj, 2) <= 1e-9
        assert np.allclose(proj, gram(canonical_dual(frame), frame), atol=1e-9)

    def test_scaling(self, suite_frames):
        frame = suite_frames["gabor16"]
        gm2 = galerkin_matrix(
            LinearOperator(2 * np.eye(16)), frame, frame
        )
        gm1 = galerkin_matrix(LinearOperator.identity(16), frame, frame)
        assert np.allclose(
            galerkin_pseudoinverse(gm2, frame, frame),
            0.5 * galerkin_pseudoinverse(gm1, frame, frame),
            atol=1e-10,
        )

    def test_singular_operator_rejected(self, suite_frames):
        frame = suite_frames["gabor16"]
        gm = galerkin_matrix(np.diag([1.0] * 15 + [0.0]), frame, frame)
        with pytest.raises(BijectivityError):
            galerkin_pseudoinverse(gm, frame, frame)

    def test_bijectivity_on_analysis_range(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5)
        gm = galerkin_matrix(op, frame, frame)
        dag = galerkin_pseudoinverse(gm, frame, frame)
        for _ in range(10):
            f = random_matrix(rng, 64, 1)[:, 0]
            c = analysis(canonical_dual(frame), f)
            assert np.linalg.norm(dag @ (gm.entries @ c) - c) <= 1e-9 * np.linalg.norm(c)

    def test_kappa_rejects_the_zero_operator(self):
        # 0 * cap >= 0 must not pass for an invertible operator
        onb = make_onb(8)
        with pytest.raises(BijectivityError):
            kappa_factorization_probe(np.zeros((8, 8)), onb, onb)

    @pytest.mark.parametrize("op_n, left_n, right_n", [(16, 8, 8), (8, 8, 16)])
    def test_kappa_rejects_mismatched_shapes(self, op_n, left_n, right_n):
        op = np.eye(op_n, right_n if left_n != right_n else op_n)
        with pytest.raises(DimensionMismatchError):
            kappa_factorization_probe(op, make_onb(left_n), make_onb(right_n))

    def test_kappa_identity_with_onb(self):
        onb = make_onb(8)
        out = kappa_factorization_probe(LinearOperator.identity(8), onb, onb)
        assert out["lhs"] == pytest.approx(1.0)
        assert out["rhs"] == pytest.approx(1.0)

    def test_kappa_onb_equals_operator_condition(self, rng):
        onb = make_onb(8)
        op = random_matrix(rng, 8) + 4 * np.eye(8)
        out = kappa_factorization_probe(op, onb, onb)
        assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-10)
        assert out["lhs"] == pytest.approx(generalized_condition_number(op), rel=1e-10)

    def test_kappa_redundant_frames_submultiplicative(self, suite_frames, rng):
        gab = suite_frames["gabor64"]
        tra = suite_frames["translates"]
        spectrum = np.diag(np.arange(1.0, 65.0))
        out = kappa_factorization_probe(spectrum, gab, tra)
        assert out["submultiplicative"]
        assert out["ratio"] <= 1 + 1e-8

    def test_kappa_projection_grams_can_violate_product(self, suite_frames):
        # against the canonical dual both Gram factors are orthogonal
        # projections with kappa 1, and the compressed operator's kappa
        # may exceed kappa(O): the probe must report, not fail
        frame = suite_frames["gabor16"]
        op = make_test_operator("identity_minus_kernel", 16, theta=0.5)
        out = kappa_factorization_probe(op, frame, canonical_dual(frame))
        assert out["rhs"] == pytest.approx(
            generalized_condition_number(op.dense()), rel=1e-8
        )
        assert "submultiplicative" in out

    def test_kappa_probe_matches_dense_spectra(self, suite_frames, rng):
        gab, tra = suite_frames["gabor64"], suite_frames["translates"]
        op = random_matrix(rng, 64) / 8 + 4 * np.eye(64)
        out = kappa_factorization_probe(op, gab, tra)
        lhs = generalized_condition_number(galerkin_matrix(op, gab, tra).entries)
        rhs = (generalized_condition_number(gram(gab, tra))
               * generalized_condition_number(gram(canonical_dual(tra), tra))
               * generalized_condition_number(op))
        assert out["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert out["rhs"] == pytest.approx(rhs, rel=1e-12)

    def test_kappa_singular_operator_rejected(self, suite_frames):
        frame = suite_frames["gabor16"]
        with pytest.raises(BijectivityError):
            kappa_factorization_probe(np.diag([1.0] * 15 + [0.0]), frame, frame)


class TestFrameGalerkinSpectrum:
    @pytest.mark.parametrize("name", ["gabor16", "gabor64", "translates", "ponb"])
    def test_kappa_and_direct_solve_match_dense_svd(self, suite_frames, rng, name):
        frame = suite_frames[name]
        n = frame.ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5)
        g = random_matrix(rng, n, 1)[:, 0]
        m = galerkin_matrix(op, frame, frame).entries
        f, rep = frame_galerkin_solve(op, g, frame, method="direct")
        assert rep.levels[0].kappa_dagger == pytest.approx(
            generalized_condition_number(m), rel=1e-12
        )
        dense_f = frame.vectors @ (pseudo_inverse(m) @ analysis(frame, g))
        assert np.linalg.norm(f - dense_f) <= 1e-12 * np.linalg.norm(dense_f)

    @pytest.mark.parametrize("factor, normal_equations", [(0.5, False), (2.0, True)])
    def test_hermitian_check_boundary(self, factor, normal_equations):
        # H + E with E anti-Hermitian: ||M - M^*||_F = 2 ||E||_F and
        # ||M||_F^2 = ||H||_F^2 + ||E||_F^2, so ||E||_F fixes the defect
        n = 32
        rng = np.random.default_rng(60)
        h = make_test_operator("identity_minus_kernel", n, theta=0.5).dense()
        a = random_matrix(rng, n)
        skew = (a - np.conj(a.T)) / np.linalg.norm(a - np.conj(a.T))
        target = factor * HERMITIAN_TOL
        m = h + skew * target * np.linalg.norm(h) / np.sqrt(4 - target**2)
        assert hermitian_defect(m) == pytest.approx(target, rel=1e-6)
        g = random_matrix(rng, n, 1)[:, 0]
        f, rep = frame_galerkin_solve(m, g, make_onb(n), method="cg", tol=1e-8)
        assert ("normal equations" in rep.message) == normal_equations
        assert rep.converged
        assert np.linalg.norm(m @ f - g) <= 1e-8 * np.linalg.norm(g)


class TestGaborStructureAgreesWithDense:
    """Galerkin spectra and solves on a Gabor frame's Walnut factors match the
    dense path, to 1e-12 relative."""

    def test_frame_against_dual_spectrum(self, gabor_twins):
        op = make_test_operator("identity_minus_kernel", gabor_twins[0].ambient_dim,
                                theta=0.5).dense()
        structured, dense = (
            spectrum(galerkin_core(op, f, canonical_dual(f))[0]) for f in gabor_twins
        )
        rank = dense.rank
        assert structured.rank == rank
        difference = np.abs(structured.values[:rank] - dense.values[:rank])
        assert np.max(difference) <= 1e-12 * dense.values[0]

    @pytest.mark.parametrize("method", ["cg", "richardson", "direct"])
    def test_solve_reports(self, gabor_twins, method):
        n = gabor_twins[0].ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5)
        g = random_matrix(np.random.default_rng(61), n, 1)[:, 0]
        (f, rep), (f_dense, rep_dense) = (
            frame_galerkin_solve(op, g, frame, method=method) for frame in gabor_twins
        )
        assert rep.converged and rep_dense.converged
        assert rep.message == rep_dense.message
        level, level_dense = rep.levels[0], rep_dense.levels[0]
        assert level.iterations == level_dense.iterations
        assert level.kappa_dagger == pytest.approx(level_dense.kappa_dagger, rel=1e-12)
        assert np.linalg.norm(f - f_dense) <= 1e-12 * np.linalg.norm(f_dense)


# -- dense reference formulas -------------------------------------------------
# Each diagnostic below is computed in the frames' n-dimensional range; these
# are the K x K formulas it replaced, kept as references.


def dense_roundtrip(op, phi, psi):
    dense = np.asarray(op)
    phid, psid = canonical_dual(phi), canonical_dual(psi)
    first = phi.vectors @ galerkin_matrix(op, phid, psid).entries @ np.conj(psi.vectors.T)
    second = phid.vectors @ galerkin_matrix(op, phi, psi).entries @ np.conj(psid.vectors.T)
    scale = np.linalg.norm(dense, 2)
    return max(np.linalg.norm(first - dense, 2), np.linalg.norm(second - dense, 2)) / scale


def dense_compose(op1, op2, phi, psi, xi):
    lhs = galerkin_matrix(np.asarray(op1) @ np.asarray(op2), phi, psi).entries
    rhs = (galerkin_matrix(op1, phi, xi).entries
           @ galerkin_matrix(op2, canonical_dual(xi), psi).entries)
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)


def dense_idempotency(gm):
    return np.linalg.norm(gm.entries @ gm.entries - gm.entries, 2)


def dense_projection_defect(dagger, gm, psi):
    projection = gram(canonical_dual(psi), psi)
    residual = np.linalg.norm(dagger.entries @ gm.entries - projection, 2)
    return residual / max(np.linalg.norm(projection, 2), 1.0)


def dense_two_two(mb):
    """Trace-power bound and details from G = mb^* mb, as K x K powers."""
    g = np.conj(mb.T) @ mb
    c = float(np.max(np.real(np.diag(g))))
    g /= c
    top = float(np.linalg.eigvalsh(g)[-1])
    for n in (2, 4, 8, 16):
        g = g @ g
        if n == 4:
            g4 = g
    trace_k = c * float(np.real(np.einsum("ij,ji->", g, g4))) ** (1.0 / 20)
    return math.sqrt(trace_k), {"trace_k": trace_k, "svd_ground_truth": math.sqrt(c * top)}


def _frame_pairs():
    names = ("onb", "gabor16", "gabor64", "gabor144", "translates", "ponb")
    return [(a, b) for a in names for b in names
            if a == b or {a, b} <= {"onb", "gabor64", "translates", "ponb"}]


def lattice_partner(frame, partner):
    """The right frame of a lattice pair: the dual, the frame itself, or a
    frame of a second, narrower Gaussian window on the same lattice."""
    if partner == "dual":
        return canonical_dual(frame)
    if partner == "self":
        return frame
    n, (a, b) = frame.ambient_dim, frame.lattice
    return make_gabor_frame(n, a, b, gaussian_window(n, width=0.75 * np.sqrt(n)))


class TestFactoredDiagnosticsAgreeWithDense:
    @pytest.mark.parametrize("partner", ["dual", "self", "window"])
    def test_lattice_pairs_match_dense_twins(self, gabor_twins, partner):
        # the Walnut-block path of a lattice pair against the same vectors
        # without their lattice, which take the dense path
        phi = gabor_twins[0]
        psi = lattice_partner(phi, partner)
        assert shared_lattice(phi, psi)
        pairs = ((phi, psi), (gabor_twins[1], dense_twin(psi)))
        op = make_test_operator("identity_minus_kernel", phi.ambient_dim, theta=0.5)
        for left, right in pairs:
            assert roundtrip_check(op, left, right) <= 1e-12
            assert compose_rule_check(op, op, left, right, left) <= 1e-12
        kappa, dense_kappa = (kappa_factorization_probe(op, *pair) for pair in pairs)
        for key in ("lhs", "rhs", "ratio"):
            assert kappa[key] == pytest.approx(dense_kappa[key], rel=1e-12)
        assert kappa["submultiplicative"] == dense_kappa["submultiplicative"]
        gm = galerkin_matrix(op, phi, psi)
        core = galerkin_core(op.dense(), phi, psi)[0]
        r_phi, r_psi = (analysis_r_product(f, np.eye(f.ambient_dim)) for f in (phi, psi))
        dense_core = r_phi @ op.dense() @ np.conj(r_psi.T)
        assert np.linalg.norm(core - dense_core) <= 1e-12 * np.linalg.norm(dense_core)
        factored = analysis_q(phi) @ core @ np.conj(analysis_q(psi).T)
        assert np.linalg.norm(factored - gm.entries) <= 1e-12 * np.linalg.norm(gm.entries)

    def test_lattice_solve_spectrum_matches_dense_twin(self, gabor_twins):
        frame, dense = gabor_twins
        op = make_test_operator("identity_minus_kernel", frame.ambient_dim,
                                theta=0.5).dense()
        structured = np.linalg.svd(galerkin_core(op, frame, frame)[0], compute_uv=False)
        spec = spectrum(galerkin_core(op, dense, dense)[0])
        reference = spec.values[:spec.rank]
        assert structured.shape == reference.shape
        assert np.max(np.abs(structured - reference)) <= 1e-12 * reference[0]

    @pytest.mark.parametrize("other", ["lattice", "translates", "shared", "dense"])
    def test_unshared_lattices_take_the_dense_gram_path(self, other):
        # the kappa probe's Gram cores R_l R_r^* are the cores of the identity
        # held on the time side: mf Walnut blocks of order b for a shared
        # lattice, the dense n x n core for any other pair
        n = 32
        phi = make_gabor_frame(n, 4, 4, gaussian_window(n))
        if other == "lattice":
            psi = make_gabor_frame(n, 2, 4, gaussian_window(n))
        elif other == "translates":
            psi = make_translates_frame(n, decaying_generator(n))
        else:
            psi = lattice_partner(phi, "window")
            if other == "dense":
                phi, psi = dense_twin(phi), dense_twin(psi)
        assert shared_lattice(phi, psi) == (other in ("shared", "dense"))
        eye = LinearOperator(np.ones(n), side="time")
        kappas = []
        for left in (phi, canonical_dual(psi)):
            core = galerkin_core(eye, left, psi)[0]
            blocks = left.lattice is not None and shared_lattice(left, psi)
            # b = 4 on every lattice here, and n / b = 8 blocks
            assert core.shape == ((n // 4, 4, 4) if blocks else (n, n))
            r_l, r_r = (analysis_r_product(f, np.eye(n)) for f in (left, psi))
            dense = np.linalg.svd(r_l @ np.conj(r_r.T), compute_uv=False)
            assert np.abs(spectrum(core).values - dense).max() <= 1e-12 * dense[0]
            kappas.append(dense[0] / dense[-1])
        rhs = kappa_factorization_probe(eye, phi, psi)["rhs"]
        assert rhs == pytest.approx(kappas[0] * kappas[1], rel=1e-12)

    def test_unshared_lattices_take_the_dense_mixed_operator(self, rng):
        # K = 128 on both lattices, so that V_phi V_psi^* is defined
        phi, psi = (make_gabor_frame(64, a, b, gaussian_window(64))
                    for a, b in ((4, 8), (8, 4)))
        assert not shared_lattice(phi, psi)
        x = random_matrix(rng, 64)
        v = np.conj(psi.vectors.T)
        assert np.array_equal(mixed_frame_operator(phi, psi), phi.vectors @ v)
        assert np.array_equal(mixed_frame_operator(phi, psi, x), phi.vectors @ (v @ x))

    def test_lattices_of_different_moduli_are_not_shared(self):
        phi, psi = (make_gabor_frame(n, 4, 4, gaussian_window(n)) for n in (32, 64))
        assert phi.lattice == psi.lattice and not shared_lattice(phi, psi)

    def test_dense_frames_of_one_size_take_the_one_block_rules(self, rng):
        # a frame without a lattice is one Walnut block B_0 = V^*: a dense
        # pair of one size shares that layout, a Riesz sequence does not
        f = make_perturbed_onb(64, 3, 7)
        d = canonical_dual(f)
        assert shared_lattice(f, d) and shared_lattice(d, f)
        riesz = riesz_sequence()
        assert not shared_lattice(f, riesz) and not shared_lattice(riesz, f)
        reference = np.linalg.qr(np.conj(f.vectors.T), mode="r")
        assert np.array_equal(walnut_r(f)[0], reference)
        x = random_matrix(rng, 64)
        dense = f.vectors @ (np.conj(d.vectors.T) @ x)
        gap = np.linalg.norm(mixed_frame_operator(f, d, x) - dense)
        assert gap <= 1e-13 * np.linalg.norm(dense)

    @pytest.mark.parametrize("left, right", _frame_pairs())
    def test_assemble_report_residuals(self, suite_frames, left, right):
        phi, psi = suite_frames[left], suite_frames[right]
        n = phi.ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5).dense()
        for factored, dense in (
            (roundtrip_check(op, phi, psi), dense_roundtrip(op, phi, psi)),
            (compose_rule_check(op, op, phi, psi, phi), dense_compose(op, op, phi, psi, phi)),
        ):
            assert factored <= 1e-12
            assert dense <= 1e-12

    @pytest.mark.parametrize("left, right", _frame_pairs())
    def test_pseudoinverse_check(self, suite_frames, left, right):
        phi, psi = suite_frames[left], suite_frames[right]
        op = make_test_operator("identity_minus_kernel", phi.ambient_dim, theta=0.5).dense()
        gm = galerkin_matrix(op, phi, psi)
        dagger = galerkin_matrix(np.linalg.inv(op), canonical_dual(psi), canonical_dual(phi))
        assert np.array_equal(galerkin_pseudoinverse(gm, phi, psi), dagger.entries)
        assert _range_projection_defect(dagger, gm) <= 1e-12
        assert dense_projection_defect(dagger, gm, psi) <= 1e-12

    @pytest.mark.parametrize("name", ["onb", "gabor16", "gabor64", "gabor144",
                                      "translates", "ponb"])
    def test_idempotency(self, suite_frames, name):
        frame = suite_frames[name]
        gm = galerkin_matrix(LinearOperator.identity(frame.ambient_dim), frame,
                             canonical_dual(frame))
        assert idempotency_residual(gm.generator, frame, canonical_dual(frame)) <= 1e-12
        assert dense_idempotency(gm) <= 1e-12

    def test_idempotency_forms_no_analysis_sized_array(self):
        # K = 1024, n = 64: the residual reads the cores and the Walnut
        # blocks, never a K x n factor
        frame = make_gabor_frame(64, 2, 2, gaussian_window(64))
        dual = canonical_dual(frame)
        tracemalloc.start()
        try:
            residual = idempotency_residual(LinearOperator.identity(64), frame, dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-12
        assert peak < frame.vectors.nbytes

    def test_entries_equal_factored_form(self, suite_frames, rng):
        phi, psi = suite_frames["gabor64"], suite_frames["translates"]
        gm = galerkin_matrix(random_matrix(rng, 64), phi, psi)
        core = galerkin_core(gm.generator, phi, psi)[0]
        factored = analysis_q(phi) @ core @ np.conj(analysis_q(psi).T)
        assert np.linalg.norm(factored - gm.entries) <= 1e-12 * np.linalg.norm(gm.entries)
        assert gm.shape == gm.entries.shape == (phi.size, psi.size)

    @pytest.mark.parametrize("k, rank, powers", [(80, 10, (0.0, 0.0)), (96, 24, (1.0, 1.0)),
                                                 (64, 64, (0.5, 1.0))])
    def test_two_two_matches_dense(self, k, rank, powers):
        rng = np.random.default_rng(k + rank)
        m = random_matrix(rng, k, rank) @ random_matrix(rng, rank, k)
        iset = IndexSet.ring(k)
        w1, w2 = (Weight.polynomial(t, iset) for t in powers)
        cert = schur_certificate(m, "two_two", weights=(w1, w2), rank_bound=rank)
        bound, details = dense_two_two(weighted_matrix(m, w2.values, w1.values))
        assert cert.certified_bound == pytest.approx(bound, rel=1e-12)
        assert cert.details["trace_k"] == pytest.approx(details["trace_k"], rel=1e-12)
        assert cert.details["svd_ground_truth"] == pytest.approx(
            details["svd_ground_truth"], rel=1e-12)


class TestTwoTwoRangeFinder:
    @staticmethod
    def widths(monkeypatch, m, rank_bound=None):
        """Column counts l of the range finder's QRs, and the certificate."""
        widths = []
        qr = np.linalg.qr

        def recorded(a, *args, **kwargs):
            widths.append(a.shape[1])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        w1, w2 = Weight.ones(m.shape[1]), Weight.ones(m.shape[0])
        cert = schur_certificate(m, "two_two", weights=(w1, w2), rank_bound=rank_bound)
        return widths, cert

    def test_width_doubles_only_while_the_residual_is_large(self, monkeypatch):
        rng = np.random.default_rng(63)
        low = random_matrix(rng, 200, 10) @ random_matrix(rng, 10, 150)
        widths, cert = self.widths(monkeypatch, low)
        assert widths == [32]
        assert cert.details["svd_ground_truth"] == pytest.approx(
            np.linalg.norm(low, 2), rel=1e-12)
        full = random_matrix(rng, 100, 150)
        widths, cert = self.widths(monkeypatch, full)
        assert widths == [32, 64, 100]
        assert cert.certified_bound >= np.linalg.norm(full, 2)

    def test_rank_bound_runs_one_pass(self, monkeypatch):
        rng = np.random.default_rng(64)
        m = random_matrix(rng, 120, 20) @ random_matrix(rng, 20, 120)
        widths, bounded = self.widths(monkeypatch, m, rank_bound=20)
        assert widths == [36]
        widths, free = self.widths(monkeypatch, m)
        assert widths == [32]
        assert free.certified_bound == pytest.approx(bounded.certified_bound, rel=1e-12)
    def test_too_small_rank_bound_stays_sound(self):
        rng = np.random.default_rng(61)
        m = random_matrix(rng, 60, 30) @ random_matrix(rng, 30, 60)
        w = Weight.ones(60)
        cert = schur_certificate(m, "two_two", weights=(w, w), rank_bound=2)
        assert cert.details["range_residual"] > 1.0
        assert cert.certified_bound >= np.linalg.norm(m, 2)

    def test_full_rank_without_rank_bound_stays_sound(self):
        rng = np.random.default_rng(62)
        m = random_matrix(rng, 50, 70)
        w1, w2 = Weight.ones(70), Weight.ones(50)
        cert = schur_certificate(m, "two_two", weights=(w1, w2))
        assert cert.details["range_residual"] <= 1e-12 * np.linalg.norm(m)
        assert cert.certified_bound >= np.linalg.norm(m, 2)
        assert cert.details["svd_ground_truth"] == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-12)

    def test_galerkin_matrix_takes_the_factor_rule(self, suite_frames):
        # the entries take the range finder; the GalerkinMatrix its frames' factors,
        # which reads no entry and is tight to its rounding term
        frame = suite_frames["gabor64"]
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5)
        gm = galerkin_matrix(op, frame, canonical_dual(frame))
        w = Weight.ones(frame.size)
        cert = schur_certificate(gm, "two_two", weights=(w, w))
        assert "entries" not in vars(gm)
        bare = schur_certificate(gm.entries, "two_two", weights=(w, w))
        assert (cert.details["rule"], bare.details["rule"]) == ("factors", "range_finder")
        truth = np.linalg.norm(gm.entries, 2)
        assert truth <= cert.certified_bound <= truth * (1 + 1e-8) <= bare.certified_bound
        assert cert.witness_lower_bound == pytest.approx(truth, rel=1e-12)


class TestCertificateBlocks:
    """The certificates read mb = diag(w2) m diag(1/w1) one column block at a time."""

    @pytest.fixture(scope="class")
    def container(self, tmp_path_factory):
        # K = 1024, n = 64: the loaded entries are 16.8 MB
        frame = make_gabor_frame(64, 2, 2, gaussian_window(64))
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5)
        base = tmp_path_factory.mktemp("blocks") / "galerkin"
        io.save_galerkin_matrix(base, galerkin_matrix(op, frame, canonical_dual(frame)))
        gm = io.load_galerkin(base)
        return gm.entries, {"ambient_dim": gm.left_frame.ambient_dim}

    @pytest.mark.parametrize("case", CERTIFICATE_CASES)
    def test_no_square_temporary(self, container, case):
        # forming the whole mb and |mb| peaked at 1.5 to 2.25 times the entries
        entries, sidecar = container
        w = Weight(decay_envelope(np.arange(entries.shape[0]), 1.0))
        tracemalloc.start()
        try:
            cert = schur_certificate(entries, case, p=3.0, weights=(w, w),
                                     rank_bound=sidecar["ambient_dim"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.to_dict()["sound"]
        assert peak < 0.75 * entries.nbytes

    @staticmethod
    def matrices():
        """(matrix, its block widths): a ragged last block in real C order
        and in complex F order, and columns each above the 1 MiB budget."""
        rng = np.random.default_rng(73)
        yield rng.standard_normal((300, 1000)), [436, 436, 128]
        yield np.asfortranarray(random_matrix(rng, 700, 150)), [93, 57]
        yield np.asfortranarray(random_matrix(rng, 70000, 3)), [1, 1, 1]

    @pytest.mark.parametrize("case", CERTIFICATE_CASES)
    def test_blocks_agree_with_dense(self, case):
        for m, widths in self.matrices():
            k_out, k_in = m.shape
            w1 = Weight(decay_envelope(np.arange(k_in), 0.5))
            w2 = Weight(decay_envelope(np.arange(k_out), 1.0))
            blocks = weighted_column_blocks(m, w2.values, w1.values)
            assert [block.shape[1] for _, block in blocks] == widths
            cert = schur_certificate(m, case, p=3.0, weights=(w1, w2))
            mb = weighted_matrix(m, w2.values, w1.values)
            if case == "two_two":
                bound, details = dense_two_two(mb)
                assert cert.certified_bound == pytest.approx(bound, rel=1e-12)
                assert cert.details["svd_ground_truth"] == pytest.approx(
                    details["svd_ground_truth"], rel=1e-12)
                continue
            a = np.abs(mb)
            if case in ("one_inf", "one_p"):
                reduction = column_p_norms(a, 3.0 if case == "one_p" else math.inf)
                assert cert.certified_bound == reduction.max()
                assert np.array_equal(cert.witness, np.eye(1, k_in, reduction.argmax())[0])
                continue
            rows = a.sum(axis=1)
            top = rows.argmax()
            bound = a.sum() if case == "inf_one" else rows.max()
            assert cert.certified_bound == pytest.approx(bound, rel=1e-13)
            if case != "inf_one":   # Boyd's steps move the inf_one witness on
                assert np.array_equal(cert.witness, _phase(np.conj(mb[top])))


CLOSED_FORM_CASES = ("inf_inf", "inf_zero", "one_inf", "one_p")


def inf_one_by_signs(mb):
    """Exact ||mb||_{inf -> 1} of a small real matrix: the largest
    ||mb s||_1 over the 2^K sign vectors s, the extreme points of the ball."""
    k = mb.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1)
    return float(np.abs(mb @ signs.T).sum(axis=0).max())


class TestCertificateWitness:
    """Each certificate's witness lower bound, checked against exact norms."""

    @staticmethod
    def exact_norm(m, cert):
        """Exact norm of m in the certificate's spaces, or None for a
        complex inf_one, which has no finite search."""
        w1, w2 = cert.weights
        mb = weighted_matrix(m, w2.values, w1.values)
        if cert.case == "inf_one":
            return None if np.iscomplexobj(mb) else inf_one_by_signs(mb)
        in_space, out_space = cert.probe_spaces()
        return exact_operator_norm(mb, in_space.p, out_space.p)

    def check(self, m, cert):
        lower, bound = cert.witness_lower_bound, cert.certified_bound
        exact = self.exact_norm(m, cert)
        assert 0 < lower <= bound * (1 + 1e-12)
        if exact is not None:
            assert lower <= exact * (1 + 1e-12)
            assert exact <= bound * (1 + 1e-12)
        if cert.case in CLOSED_FORM_CASES:
            assert lower == pytest.approx(bound, rel=1e-12)
        summary = cert.to_dict()
        assert summary["sound"] is True
        assert summary["tight"] is (True if cert.case in CLOSED_FORM_CASES else None)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("scale", [1e-200, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e200])
    @pytest.mark.parametrize("case", CERTIFICATE_CASES)
    def test_random_matrices(self, case, scale, field):
        rng = np.random.default_rng(7)
        for k_out, k_in in ((9, 9), (7, 10), (10, 6)):
            m = scale * (random_matrix(rng, k_out, k_in) if field == "complex"
                         else rng.standard_normal((k_out, k_in)))
            w1 = Weight(decay_envelope(np.arange(k_in), 0.5))
            w2 = Weight(decay_envelope(np.arange(k_out), 1.0))
            self.check(m, schur_certificate(m, case, p=3.0, weights=(w1, w2)))

    @pytest.mark.parametrize("case", CERTIFICATE_CASES)
    def test_suite_galerkin_matrices(self, suite_frames, case):
        for name, frame in suite_frames.items():
            op = make_test_operator("identity_minus_kernel", frame.ambient_dim, theta=0.5)
            gm = galerkin_matrix(op, frame, canonical_dual(frame))
            w = Weight.polynomial(1.0, frame.index_set)
            cert = schur_certificate(gm, case, p=3.0, weights=(w, w))
            if case == "inf_one":
                # no exact norm at these sizes; the bound still dominates
                assert 0 < cert.witness_lower_bound <= cert.certified_bound, name
            else:
                self.check(gm.entries, cert)

    @pytest.mark.parametrize("case", CLOSED_FORM_CASES)
    def test_moved_bound_fails_a_check(self, rng, case):
        m = random_matrix(rng, 12)
        w = Weight(decay_envelope(np.arange(12), 1.0))
        cert = schur_certificate(m, case, p=3.0, weights=(w, w))
        bound = cert.certified_bound
        low = dataclasses.replace(cert, certified_bound=bound * (1 - 1e-6)).to_dict()
        high = dataclasses.replace(cert, certified_bound=bound * (1 + 1e-6)).to_dict()
        assert low["sound"] is False and low["tight"] is True
        assert high["sound"] is True and high["tight"] is False

    @pytest.mark.parametrize("case", CERTIFICATE_CASES)
    def test_zero_matrix(self, case):
        w = Weight(decay_envelope(np.arange(6), 1.0))
        cert = schur_certificate(np.zeros((6, 6)), case, weights=(w, w))
        summary = cert.to_dict()
        assert summary["certified_bound"] == 0.0
        assert summary["witness_lower_bound"] == 0.0
        assert summary["sound"] is True
        assert summary["tight"] is (True if case in CLOSED_FORM_CASES else None)

    def test_inf_one_ascent_beats_its_start(self):
        # the signs (1, 1, -1) of the largest row give ||m y||_1 = 11; one
        # ascent step reaches y = (1, 1, 1) and the exact norm 13
        m = np.array([[2.0, 3.0, -1.0], [1.0, 3.0, 1.0], [2.0, 1.0, 1.0]])
        w = Weight.ones(3)
        cert = schur_certificate(m, "inf_one", weights=(w, w))
        assert cert.witness_lower_bound == inf_one_by_signs(m) == 13.0
        assert np.array_equal(cert.witness, np.ones(3))
        assert cert.certified_bound == 15.0

    def test_certificates_do_not_depend_on_the_seed(self, tmp_path):
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        gm = galerkin_matrix(LinearOperator.identity(16), frame, canonical_dual(frame))
        io.save_galerkin_matrix(tmp_path / "galerkin", gm, extra={"operator": "identity"})
        for case in CERTIFICATE_CASES:
            texts = []
            for seed in ("1", "2"):
                out = tmp_path / f"seed{seed}"
                assert cli_main(["galerkin", "certify", "--matrix", str(tmp_path / "galerkin"),
                                 "--case", case, "--w1-power", "1", "--w2-power", "1",
                                 "--seed", seed, "--out-dir", str(out)]) == 0
                texts.append((out / f"certificate_{case}.json").read_bytes())
            assert texts[0] == texts[1], case


REAL_PAIRS = [("onb", "onb"), ("translates", "translates"), ("onb", "translates")]


def twin_frames(*frames):
    return [complex_copy(f) for f in frames]


class TestNumberField:
    """Real frames and operators give float64 matrices and cores whose
    diagnostics agree with the same inputs cast to complex128."""

    def test_operator_keeps_the_field_of_its_matrix(self, rng):
        assert LinearOperator.identity(4).dense().dtype == np.float64
        real = rng.standard_normal((4, 4))
        assert LinearOperator(real).dense().dtype == np.float64
        cplx = random_matrix(rng, 4)
        op = LinearOperator(cplx)
        assert np.shares_memory(op.dense(), cplx)

    @pytest.mark.parametrize("left, right", REAL_PAIRS)
    def test_real_galerkin_matrix_matches_complex_copy(self, suite_frames, left, right):
        phi, psi = suite_frames[left], suite_frames[right]
        op = make_test_operator("identity_minus_kernel", phi.ambient_dim, theta=0.5)
        twin_op = op.dense().astype(complex)
        twin_phi, twin_psi = twin_frames(phi, psi)
        gm = galerkin_matrix(op, phi, canonical_dual(psi))
        twin = galerkin_matrix(twin_op, twin_phi, canonical_dual(twin_psi))
        core = galerkin_core(op, phi, canonical_dual(psi))[0]
        assert gm.entries.dtype == np.float64 and core.dtype == np.float64
        assert twin.entries.dtype == np.complex128
        scale = np.linalg.norm(twin.entries)
        assert np.linalg.norm(gm.entries - twin.entries) <= 1e-12 * scale
        for real, cplx in (
            (roundtrip_check(op, phi, psi), roundtrip_check(twin_op, twin_phi, twin_psi)),
            (compose_rule_check(op, op, phi, psi, phi),
             compose_rule_check(twin_op, twin_op, twin_phi, twin_psi, twin_phi)),
        ):
            assert real <= 1e-12 and cplx <= 1e-12
        probe = kappa_factorization_probe(op, phi, psi)
        twin_probe = kappa_factorization_probe(twin_op, twin_phi, twin_psi)
        for key in ("lhs", "rhs", "ratio"):
            assert probe[key] == pytest.approx(twin_probe[key], rel=1e-12)
        assert probe["submultiplicative"] == twin_probe["submultiplicative"]

    @pytest.mark.parametrize("case", ["inf_inf", "inf_zero", "one_inf", "one_p",
                                      "inf_one", "two_two"])
    @pytest.mark.parametrize("rank_bound", [None, 64])
    def test_certificates_match_complex_copy(self, suite_frames, case, rank_bound):
        frame = suite_frames["translates"]
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5)
        entries = galerkin_matrix(op, frame, canonical_dual(frame)).entries
        w = Weight.polynomial(1.0, frame.index_set)
        real, cplx = (schur_certificate(m, case, weights=(w, w), rank_bound=rank_bound)
                      for m in (entries, entries.astype(complex)))
        assert real.certified_bound == pytest.approx(cplx.certified_bound, rel=1e-12)
        for key, value in cplx.details.items():
            if key == "range_residual":   # rounding level, about 1e-15
                assert real.details[key] <= 1e-12 * real.certified_bound
            elif isinstance(value, float):
                assert real.details[key] == pytest.approx(value, rel=1e-12)
        assert certificate_probe_norm(entries, real) == pytest.approx(
            certificate_probe_norm(entries.astype(complex), cplx), rel=1e-12)
