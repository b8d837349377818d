"""Localization certificates, coorbit norms, duality, inclusion equivalence."""

import numpy as np
import pytest

import locframes
from locframes import (
    ContractError,
    CoorbitSpec,
    IndexSet,
    MatrixAlgebraSpec,
    NotLocalizedError,
    SeqSpaceSpec,
    Weight,
    analysis,
    canonical_dual,
    coorbit_inclusion,
    coorbit_norm,
    coorbit_pairing,
    dual_localization_check,
    equivalence_constants,
    gaussian_window,
    localization_report,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_translates_frame,
    min_synthesis_norm,
    seq_norm,
    seq_space_included,
    synthesis,
    transitivity_check,
)
from locframes.frames import Frame

from conftest import decaying_generator

ALG = MatrixAlgebraSpec("jaffard", 3.0)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestLocalizationReport:
    def test_onb_is_member_with_norm_one(self):
        onb = make_onb(64)
        rep = localization_report(onb, onb, ALG)
        assert rep.member
        assert rep.cross_gram_norm == pytest.approx(1.0)
        assert rep.fit.superpolynomial

    def test_perturbed_onb_member_with_small_norm(self):
        frame = make_perturbed_onb(64, 3, 7)
        rep = localization_report(frame, frame, ALG)
        assert rep.member
        assert rep.cross_gram_norm <= 1.5
        assert rep.norms["jaffard"] > 0 and rep.norms["schur_weighted"] > 0

    def test_slowly_decaying_gabor_window_rejected(self):
        n = 64
        window = (1.0 + IndexSet.ring(n).distance_to_origin()) ** -1.0
        window /= np.linalg.norm(window)
        frame = make_gabor_frame(n, 8, 4, window)
        rep = localization_report(frame, frame, MatrixAlgebraSpec("jaffard", 5.0))
        assert not rep.member
        assert rep.fit.fitted_exponent < 5.0

    def test_metric_required(self):
        # mixing absolute and circular metrics has no distance
        left = Frame(np.eye(4), IndexSet.line(4), "line")
        right = Frame(np.eye(4), IndexSet.ring(4), "ring")
        with pytest.raises(Exception, match="metric|mix"):
            localization_report(left, right, ALG)


class TestDualLocalization:
    def test_tight_frame_dual_reports_match(self):
        from conftest import mercedes_frame

        res = dual_localization_check(mercedes_frame(), ALG)
        # dual of a tight frame is a rescaling: same decay profile,
        # norms scaled by the square of the bound
        assert res.dual.fit.fitted_exponent == res.primal.fit.fitted_exponent
        assert res.dual.cross_gram_norm == pytest.approx(
            res.primal.cross_gram_norm / 1.5**2
        )
        assert not res.exponent_drop_flagged

    def test_onb_all_norms_one(self):
        res = dual_localization_check(make_onb(32), ALG)
        for rep in res.reports():
            assert rep.cross_gram_norm == pytest.approx(1.0)

    def test_perturbed_onb_dual_exponent(self):
        res = dual_localization_check(make_perturbed_onb(64, 3, 7), ALG)
        assert res.dual.fit.fitted_exponent >= 2.5
        assert not res.exponent_drop_flagged

    def test_rejection_carries_primal_report(self):
        n = 64
        window = (1.0 + IndexSet.ring(n).distance_to_origin()) ** -1.0
        window /= np.linalg.norm(window)
        frame = make_gabor_frame(n, 8, 4, window)
        with pytest.raises(NotLocalizedError) as err:
            dual_localization_check(frame, MatrixAlgebraSpec("jaffard", 5.0))
        assert err.value.report is not None
        assert not err.value.report.member


class TestTransitivity:
    def test_all_onb_trivial(self):
        onb = make_onb(16)
        rep = transitivity_check(onb, onb, onb, onb, ALG)
        assert rep.holds
        assert rep.hypothesis_norms == pytest.approx((1.0, 1.0))
        assert rep.conclusion_norm == pytest.approx(1.0)

    def test_mixed_frame_chain(self):
        ponb = make_perturbed_onb(64, 3, 7)
        gab = make_gabor_frame(64, 8, 4, gaussian_window(64))
        tra = make_translates_frame(64, decaying_generator(64))
        rep = transitivity_check(ponb, gab, canonical_dual(gab), tra, ALG)
        assert rep.holds
        assert rep.duality_residual <= 1e-10

    def test_wrong_dual_rejected(self):
        gab = make_gabor_frame(64, 8, 4, gaussian_window(64))
        ponb = make_perturbed_onb(64, 3, 7)
        with pytest.raises(ContractError):
            transitivity_check(ponb, gab, canonical_dual(ponb), ponb, ALG)


class TestCoorbitNorm:
    def test_onb_matches_weighted_norm(self, rng):
        onb = make_onb(16)
        w = Weight.polynomial(1.0, onb.index_set)
        for p in (1, 2, np.inf):
            spec = CoorbitSpec(onb, SeqSpaceSpec(p, w))
            f = random_vec(rng, 16)
            assert coorbit_norm(f, spec) == pytest.approx(
                seq_norm(f, SeqSpaceSpec(p, w))
            )

    def test_zero_vector(self):
        onb = make_onb(8)
        spec = CoorbitSpec(onb, SeqSpaceSpec(2, Weight.ones(8)))
        assert coorbit_norm(np.zeros(8), spec) == 0.0

    def test_norm_properties(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        spec = CoorbitSpec(frame, SeqSpaceSpec(1, Weight.ones(frame.size)))
        for _ in range(50):
            f = random_vec(rng, 64)
            g = random_vec(rng, 64)
            alpha = rng.standard_normal()
            assert coorbit_norm(alpha * f, spec) == pytest.approx(
                abs(alpha) * coorbit_norm(f, spec), rel=1e-12
            )
            assert coorbit_norm(f + g, spec) <= (
                coorbit_norm(f, spec) + coorbit_norm(g, spec) + 1e-12
            )

    def test_inadmissible_weight_rejected(self):
        frame = make_onb(16)
        weight = Weight.polynomial(3.0, frame.index_set)
        with pytest.raises(ContractError):
            CoorbitSpec(frame, SeqSpaceSpec(2, weight),
                        algebra=MatrixAlgebraSpec("jaffard", 2.0))

    def test_equivalent_norms_for_localized_pair(self, rng):
        # two mutually localized frames grade the same space: the norm
        # ratio stays inside the interval set by the cross-Gram norms
        from locframes.opnorms import space_operator_norm
        from locframes.frames import gram

        psi = make_perturbed_onb(64, 3, 7)
        phi = make_translates_frame(64, decaying_generator(64))
        w = Weight.ones(64)
        space = SeqSpaceSpec(1, w)
        spec_psi = CoorbitSpec(psi, space)
        spec_phi = CoorbitSpec(phi, space)
        c_hi = space_operator_norm(gram(canonical_dual(psi), phi), space, space)
        c_lo = space_operator_norm(gram(canonical_dual(phi), psi), space, space)
        for _ in range(200):
            f = random_vec(rng, 64)
            ratio = coorbit_norm(f, spec_psi) / coorbit_norm(f, spec_phi)
            assert 1.0 / (c_lo * (1 + 1e-10)) <= ratio <= c_hi * (1 + 1e-10)


class TestCoorbitPairing:
    def test_onb_unit_vectors(self):
        onb = make_onb(8)
        spec = CoorbitSpec(onb, SeqSpaceSpec(2, Weight.ones(8)))
        e1 = np.eye(8)[:, 1]
        assert coorbit_pairing(e1, e1, spec) == pytest.approx(1.0)

    def test_consistent_with_ambient_inner_product(self, suite_frames, rng):
        for frame in suite_frames.values():
            spec = CoorbitSpec(frame, SeqSpaceSpec(2, Weight.ones(frame.size)))
            f = random_vec(rng, frame.ambient_dim)
            h = random_vec(rng, frame.ambient_dim)
            ambient = complex(np.sum(f * np.conj(h)))
            assert abs(coorbit_pairing(f, h, spec) - ambient) <= 1e-10 * abs(ambient)

    def test_orthogonal_vectors(self, rng):
        frame = make_perturbed_onb(16, 3, 1)
        spec = CoorbitSpec(frame, SeqSpaceSpec(2, Weight.ones(16)))
        f = np.eye(16)[:, 0]
        h = np.eye(16)[:, 5]
        assert abs(coorbit_pairing(f, h, spec)) <= 1e-10


class TestEquivalenceConstants:
    def test_onb_is_one_one(self):
        onb = make_onb(16)
        lo, up = equivalence_constants(onb, SeqSpaceSpec(1, Weight.ones(16)))
        assert lo == pytest.approx(1.0)
        assert up == pytest.approx(1.0)

    def test_two_copies_of_onb(self):
        two = Frame(np.hstack([np.eye(4), np.eye(4)]), IndexSet.ring(8), "two-onb")
        lo, up = equivalence_constants(two, SeqSpaceSpec(1, Weight.ones(8)))
        # the dual Gram is the doubled-ONB Gram scaled by 1/4: norm 1/2
        assert up == pytest.approx(2.0)
        assert lo == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [1, np.inf])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_sandwich_holds(self, suite_frames, rng, p, t):
        for frame in suite_frames.values():
            w = Weight.polynomial(t, frame.index_set)
            spec = SeqSpaceSpec(p, w)
            lo, up = equivalence_constants(frame, spec)
            dual = canonical_dual(frame)
            for _ in range(100):
                f = random_vec(rng, frame.ambient_dim)
                h_norm = seq_norm(analysis(dual, f), spec)
                c_norm = seq_norm(analysis(frame, f), spec)
                assert lo * h_norm * (1 - 1e-10) <= c_norm <= up * h_norm * (1 + 1e-10)


class TestCoorbitInclusion:
    def test_l1_into_l2(self, suite_frames):
        frame = suite_frames["ponb"]
        w = Weight.ones(frame.size)
        rep = coorbit_inclusion(frame, SeqSpaceSpec(1, w), SeqSpaceSpec(2, w))
        assert rep.included

    def test_equal_specs(self, suite_frames):
        frame = suite_frames["onb"]
        spec = SeqSpaceSpec(2, Weight.ones(64))
        rep = coorbit_inclusion(frame, spec, spec)
        assert rep.included
        assert rep.seq_certificate.certificate == pytest.approx(1.0)

    def test_sup_into_l1_witness_grows(self):
        frame = make_gabor_frame(256, 16, 8, gaussian_window(256))
        w = Weight.ones(frame.size)
        rep = coorbit_inclusion(frame, SeqSpaceSpec(np.inf, w), SeqSpaceSpec(1, w))
        assert not rep.included
        assert rep.witness_kind == "indicator"
        assert rep.monotone
        seq_sizes = dict(rep.schedule_ratios)
        assert seq_sizes[512] / seq_sizes[16] == pytest.approx(32.0)
        frame_vals = [r for _, r in rep.frame_ratios]
        assert all(x < y * (1 + 1e-9) for x, y in zip(frame_vals, frame_vals[1:]))
        assert frame_vals[-1] > 10 * frame_vals[0]

    def test_agreement_with_sequence_test(self, suite_frames):
        frame = suite_frames["translates"]
        iset = frame.index_set
        grid = []
        for p_a in (1, 2, np.inf):
            for p_b in (1, 2, np.inf):
                for t_a in (0.0, 1.0):
                    if len(grid) >= 20:
                        break
                    grid.append(
                        (SeqSpaceSpec(p_a, Weight.polynomial(t_a, iset)),
                         SeqSpaceSpec(p_b, Weight.ones(len(iset))))
                    )
        assert len(grid) >= 18
        for a, b in grid:
            seq = seq_space_included(a, b)
            coo = coorbit_inclusion(frame, a, b)
            assert coo.included == seq.included

    def test_norm_bounded_precondition(self):
        vectors = np.eye(8)
        vectors[:, 3] *= 1e-9
        tiny = Frame(vectors, IndexSet.ring(8), "tiny")
        with pytest.raises(ContractError):
            coorbit_inclusion(tiny, SeqSpaceSpec(1, Weight.ones(8)),
                              SeqSpaceSpec(2, Weight.ones(8)))


def test_coorbit_maps_build_no_frame_vectors(monkeypatch):
    # a Gabor frame and its dual are analysed and synthesized through their
    # Walnut blocks: coorbit norms, pairings, non-inclusion witnesses and the
    # p != 2 least-norm bound build no K x n array, all of which gabor_system forms
    frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
    systems = []
    original = locframes.frames.gabor_system

    def counted(*args, **kwargs):
        systems.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(locframes.frames, "gabor_system", counted)
    w = Weight.polynomial(1.0, frame.index_set)
    spec = CoorbitSpec(frame, SeqSpaceSpec(1.0, w))
    f = np.cos(np.arange(64.0)) + 1j * np.sin(np.arange(64.0) ** 2)
    assert coorbit_norm(f, spec) > 0
    assert np.isfinite(coorbit_pairing(f, f[::-1], spec))
    report = coorbit_inclusion(frame, SeqSpaceSpec(np.inf, w), SeqSpaceSpec(1.0, w))
    assert not report.included and report.frame_ratios
    assert min_synthesis_norm(f, frame, SeqSpaceSpec(1.0, w))["kind"] == "bound"
    assert systems == [] and frame._vectors is None


class TestMinSynthesisNorm:
    def test_onb_p2_equals_norm(self, rng):
        onb = make_onb(8)
        f = random_vec(rng, 8)
        out = min_synthesis_norm(f, onb, SeqSpaceSpec(2, Weight.ones(8)))
        assert out["kind"] == "exact"
        assert out["value"] == pytest.approx(np.linalg.norm(f))

    def test_two_copies_split_evenly(self):
        two = Frame(np.hstack([np.eye(4), np.eye(4)]), IndexSet.ring(8), "two-onb")
        f = np.eye(4)[:, 0].astype(complex)
        out = min_synthesis_norm(f, two, SeqSpaceSpec(2, Weight.ones(8)))
        assert out["value"] == pytest.approx(np.sqrt(2) / 2)
        assert np.allclose(sorted(np.abs(out["coefficients"]))[-2:], [0.5, 0.5])

    def test_p1_returns_tagged_bound(self, suite_frames, rng):
        frame = suite_frames["gabor16"]
        f = random_vec(rng, 16)
        out = min_synthesis_norm(f, frame, SeqSpaceSpec(1, Weight.ones(frame.size)))
        assert out["kind"] == "bound"
        # the tagged bound is attained by a representing sequence
        assert np.allclose(synthesis(frame, out["coefficients"]), f)

    def test_weighted_p2_minimizer_beats_dual_coefficients(self, rng):
        frame = make_perturbed_onb(16, 3, 9)
        w = Weight.polynomial(1.0, frame.index_set)
        spec = SeqSpaceSpec(2, w)
        f = random_vec(rng, 16)
        out = min_synthesis_norm(f, frame, spec)
        dual_norm = seq_norm(analysis(canonical_dual(frame), f), spec)
        assert out["value"] <= dual_norm * (1 + 1e-10)
        assert np.allclose(synthesis(frame, out["coefficients"]), f)
