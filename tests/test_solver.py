"""Subframe projections, finite sections, frame-Galerkin solves, iterations."""

import inspect
import warnings

import numpy as np
import pytest

from locframes import (
    ContractError,
    InvalidInputError,
    LinearOperator,
    ProjectionSchedule,
    cg_solve,
    finite_section_solve,
    frame_bounds,
    frame_galerkin_solve,
    frame_operator,
    gaussian_window,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_test_operator,
    richardson_solve,
    subframe_projection,
)
from locframes.solver import PROJECTION_TOL

from conftest import complex_copy


class TestSubframeProjection:
    def test_full_subset_is_identity_on_span(self, suite_frames):
        frame = suite_frames["gabor16"]
        p = subframe_projection(frame, np.arange(frame.size)).dense()
        assert np.allclose(p, np.eye(16), atol=1e-10)

    def test_onb_prefix_is_coordinate_projection(self):
        onb = make_onb(8)
        p = subframe_projection(onb, [0, 1, 2]).dense()
        expected = np.zeros((8, 8))
        expected[:3, :3] = np.eye(3)
        assert np.allclose(p, expected, atol=1e-12)

    def test_redundant_subset_matches_orthonormal_projection(self, rng):
        # two copies of the same span: projection identical to the ONB one
        onb = make_onb(8)
        frame = suite = make_perturbed_onb(8, 3, 11)
        idx = [0, 1, 2]
        from locframes import Frame, IndexSet

        doubled = Frame(
            np.hstack([frame.vectors[:, idx], frame.vectors[:, idx] @ np.diag([2, 3, 4])]),
            IndexSet.ring(6),
            "doubled",
        )
        p1 = subframe_projection(doubled, np.arange(6)).dense()
        q, _ = np.linalg.qr(frame.vectors[:, idx])
        p2 = q @ np.conj(q.T)
        assert np.allclose(p1, p2, atol=1e-10)

    def test_idempotent_selfadjoint_nested(self, suite_frames):
        frame = suite_frames["translates"]
        sched = ProjectionSchedule(frame, selection="centered")
        mats = [sched.projection(i).dense() for i in range(len(sched.levels))]
        for p in mats:
            assert np.linalg.norm(p @ p - p, 2) <= 1e-10
            assert np.linalg.norm(p - np.conj(p.T), 2) <= 1e-10
        for small, big in zip(mats, mats[1:]):
            assert np.linalg.norm(big @ small - small, 2) <= 1e-10

    def test_empty_subset_rejected(self, suite_frames):
        with pytest.raises(InvalidInputError):
            subframe_projection(suite_frames["onb"], [])


class TestGaborSchedule:
    """A redundant Gabor schedule whose level operators S_N have cond ~ 5e9."""

    @pytest.fixture(scope="class")
    def sched(self):
        return ProjectionSchedule(make_gabor_frame(64, 4, 2, gaussian_window(64)))

    def test_projections_idempotent_and_selfadjoint(self, sched):
        for i in range(len(sched.levels)):
            p = sched.projection(i).dense()
            assert np.linalg.norm(p @ p - p, 2) <= 1e-12
            assert np.linalg.norm(p - np.conj(p.T), 2) <= 1e-12

    def test_direct_levels_match_svd_of_subframe(self, sched, rng):
        n = 64
        a = make_test_operator("identity_minus_kernel", n, theta=0.5)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rep, _ = finite_section_solve(a, y, sched, method="direct")
        dense = a.dense()
        for lv, rec in zip(sched.levels, rep.levels):
            u, s, _ = np.linalg.svd(sched.frame.vectors[:, lv], full_matrices=False)
            q = u[:, s**2 > PROJECTION_TOL * s[0] ** 2]
            core = np.conj(q.T) @ dense @ q
            x = q @ np.linalg.solve(core, np.conj(q.T) @ y)
            assert rec.residual == pytest.approx(
                np.linalg.norm(dense @ x - y), rel=1e-12,
                abs=1e-12 * np.linalg.norm(y))
            sigma = np.linalg.svd(core, compute_uv=False)
            assert rec.inverse_norm == pytest.approx(1 / sigma[-1], rel=1e-12)
            assert not rec.singular


class TestProjectionSchedule:
    def test_centered_doubling_sizes(self):
        sched = ProjectionSchedule(make_onb(128))
        assert [len(lv) for lv in sched.levels] == [8, 16, 32, 64, 128]

    def test_energy_greedy_orders_by_coefficients(self, rng):
        onb = make_onb(32)
        pilot = np.zeros(32)
        pilot[17] = 5.0
        pilot[3] = 1.0
        sched = ProjectionSchedule(onb, selection="energy_greedy", pilot=pilot)
        assert 17 in sched.levels[0]

    def test_subframe_bounds_recorded(self, suite_frames):
        sched = ProjectionSchedule(suite_frames["gabor64"])
        assert len(sched.subframe_bounds) == len(sched.levels)
        for c, d in sched.subframe_bounds:
            assert 0 < c <= d

    def test_explicit_levels_must_nest(self):
        onb = make_onb(8)
        with pytest.raises(InvalidInputError):
            ProjectionSchedule(onb, levels=[[0, 1], [2, 3], list(range(8))])
        with pytest.raises(InvalidInputError):
            ProjectionSchedule(onb, levels=[[0, 1], [0, 1, 2]])  # missing full


class TestFiniteSections:
    def test_identity_returns_projected_rhs(self, rng):
        onb = make_onb(32)
        sched = ProjectionSchedule(onb)
        y = rng.standard_normal(32)
        rep, x = finite_section_solve(LinearOperator.identity(32), y, sched)
        assert rep.converged
        assert np.allclose(x, y, atol=1e-10)
        assert rep.contraction_norm == pytest.approx(0.0, abs=1e-12)
        # every level solves to exactly the projected right side
        for i, lv in enumerate(rep.levels):
            p = sched.projection(i).dense()
            expected = np.linalg.norm(y - p @ y)
            assert lv.residual == pytest.approx(expected, abs=1e-10)

    def test_contraction_kernel_convergence(self, rng):
        n = 128
        onb = make_onb(n)
        a = make_test_operator("identity_minus_kernel", n, theta=0.5, exponent=3)
        y = rng.standard_normal(n)
        sched = ProjectionSchedule(onb)
        rep, x = finite_section_solve(a, y, sched, method="direct")
        assert rep.converged
        assert rep.contraction_norm == pytest.approx(0.5, abs=1e-12)
        assert rep.contraction_sufficient
        errors = [lv.error for lv in rep.levels]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-8
        assert rep.sup_inverse_norm <= 2.0 / (1 - 0.5) + 0.1

    @pytest.mark.parametrize("method", ["cg", "richardson"])
    def test_iterative_methods_agree_with_dense(self, rng, method):
        n = 64
        onb = make_onb(n)
        a = make_test_operator("identity_minus_kernel", n, theta=0.5, exponent=3)
        y = rng.standard_normal(n)
        rep, x = finite_section_solve(a, y, ProjectionSchedule(onb), method=method)
        assert rep.converged
        assert np.linalg.norm(x - np.linalg.solve(a.dense(), y)) <= 1e-6

    def test_zero_eigenvalue_flags_and_fails(self, rng):
        n = 16
        spectrum = np.ones(n)
        spectrum[n // 2] = 0.0  # lands in the first centered block
        a = make_test_operator("diagonal", n, spectrum=spectrum)
        rep, x = finite_section_solve(
            a, rng.standard_normal(n), ProjectionSchedule(make_onb(n))
        )
        assert not rep.converged
        assert any(lv.singular for lv in rep.levels)

    def test_indefinite_compression_diverges_under_cg(self, rng):
        # sign-flipping spectrum: compressed systems are indefinite, the
        # conjugate-gradient path cannot stabilize them
        n = 32
        spectrum = (-1.0) ** np.arange(n) * np.linspace(1, 2, n)
        a = make_test_operator("diagonal", n, spectrum=spectrum)
        y = rng.standard_normal(n)
        rep, x = finite_section_solve(a, y, ProjectionSchedule(make_onb(n)),
                                      method="cg")
        assert not rep.converged

    def test_shift_sections_blow_up_the_monitor(self, rng):
        # circular shift + 0.5 I is invertible, but its truncations are
        # triangular with 0.5 on the diagonal: compressed inverses grow
        # exponentially and the method is declared divergent even though
        # the final (full) section solves exactly
        n = 64
        a = LinearOperator.from_matrix(
            np.roll(np.eye(n), 1, axis=0) + 0.5 * np.eye(n)
        )
        y = rng.standard_normal(n)
        rep, x = finite_section_solve(a, y, ProjectionSchedule(make_onb(n)))
        assert rep.sup_inverse_norm > 1e6
        assert not rep.converged

    def test_zero_section_is_singular_and_schedule_continues(self, rng):
        n = 16
        spectrum = np.ones(n)
        spectrum[4:12] = 0.0  # the first centered block, K_1 = {4..11}
        a = make_test_operator("diagonal", n, spectrum=spectrum)
        for method in ("direct", "cg", "richardson"):
            with np.errstate(all="ignore"):  # CG on the singular full level
                rep, _ = finite_section_solve(a, rng.standard_normal(n),
                                              ProjectionSchedule(make_onb(n)),
                                              method=method)
            first = rep.levels[0]
            assert first.singular
            assert first.inverse_norm is None and first.kappa_dagger is None
            assert len(rep.levels) == 2 and rep.levels[1].singular

    def test_cg_on_singular_level_stops_before_overflow(self):
        # the right side leaves the range of the full level: CG must stop
        # at the curvature breakdown, not step along the null space
        n = 16
        spectrum = np.ones(n)
        spectrum[::3] = 0.0
        a = make_test_operator("diagonal", n, spectrum=spectrum)
        y = np.random.default_rng(0).standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(all="raise"):
                rep, _ = finite_section_solve(a, y, ProjectionSchedule(make_onb(n)),
                                              method="cg")
        assert rep.levels[-1].singular
        assert not rep.converged

    def test_explicit_level_count(self):
        sched = ProjectionSchedule(make_onb(64), n_levels=3)
        assert [len(lv) for lv in sched.levels] == [16, 32, 64]


class TestCG:
    def test_identity_single_iteration(self):
        res = cg_solve(np.eye(5), np.ones(5))
        assert res.converged and res.iterations == 1

    def test_distinct_eigenvalues_terminate(self):
        res = cg_solve(np.diag(np.arange(1.0, 11.0)), np.ones(10))
        assert res.converged and res.iterations <= 10

    def test_rhs_outside_range_is_contract_error(self):
        with pytest.raises(ContractError, match="range"):
            cg_solve(np.diag([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0]),
                     max_iter=25)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractError, match="Hermitian"):
            cg_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_normal_equations_fallback(self, rng):
        m = rng.standard_normal((12, 12)) + 3 * np.eye(12)
        b = rng.standard_normal(12)
        res = cg_solve(m, b, normal_equations=True)
        assert res.normal_equations
        assert np.linalg.norm(m @ res.c - b) <= 1e-6

    def test_energy_monotone(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        m = q @ np.diag(rng.uniform(0.5, 5.0, 30)) @ q.T
        res = cg_solve(m, rng.standard_normal(30), track_energy=True)
        en = res.energies
        assert all(x >= y - 1e-10 for x, y in zip(en, en[1:]))


class TestRichardson:
    def test_identity_one_step(self):
        res = richardson_solve(np.eye(4), np.ones(4), 1.0)
        assert res.converged and res.iterations == 1
        assert not res.diverged

    def test_frame_algorithm_rate(self, suite_frames):
        frame = suite_frames["gabor64"]
        s = frame_operator(frame)
        a, b = frame_bounds(frame)
        rng = np.random.default_rng(77)
        res = richardson_solve(
            s, rng.standard_normal(64) + 0j, 2.0 / (a + b), tol=1e-10
        )
        assert res.converged
        theory = (b - a) / (b + a)
        tail = res.residuals[-10:]
        observed = np.mean([t2 / t1 for t1, t2 in zip(tail, tail[1:])])
        assert abs(observed - theory) <= 0.2 * theory

    def test_oversized_relaxation_diverges(self):
        with pytest.warns(UserWarning, match="diverge"):
            res = richardson_solve(np.diag([1.0, 5.0]), np.ones(2), 1.9)
        assert res.diverged and not res.converged


class TestFrameGalerkinSolve:
    def test_identity_operator_on_onb_single_iteration(self, rng):
        onb = make_onb(32)
        g = rng.standard_normal(32) + 0j
        f, rep = frame_galerkin_solve(LinearOperator.identity(32), g, onb)
        assert rep.converged and rep.levels[0].iterations == 1
        assert np.allclose(f, g, atol=1e-10)

    def test_frame_operator_solve_matches_dense(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        s = frame_operator(frame)
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f, rep = frame_galerkin_solve(s, g, frame, method="cg")
        assert rep.converged
        assert np.linalg.norm(f - np.linalg.solve(s, g)) <= 1e-8

    def test_redundant_frame_singular_matrix_still_solves(self, suite_frames, rng):
        frame = suite_frames["gabor64"]  # redundancy 2: K = 128 > n = 64
        op = make_test_operator("identity_minus_kernel", 64, theta=0.4, exponent=3)
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f, rep = frame_galerkin_solve(op, g, frame, method="cg", tol=1e-8)
        assert rep.converged
        assert "singular" in rep.message
        residual = np.linalg.norm(op.apply(f) - g)
        assert residual <= 1e-8 * np.linalg.norm(g)
        assert np.linalg.norm(f - np.linalg.solve(op.dense(), g)) <= 1e-8

    def test_matrix_residual_tracks_ambient_residual(self, suite_frames, rng):
        # b - M c = analysis(g - O f): the two residuals agree within
        # the square roots of the frame bounds
        from locframes import analysis, canonical_dual, galerkin_matrix

        frame = suite_frames["gabor64"]
        op = make_test_operator("identity_minus_kernel", 64, theta=0.4)
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        f, rep = frame_galerkin_solve(op, g, frame, method="richardson",
                                      tol=1e-6)
        m = galerkin_matrix(op, frame, frame).entries
        c = analysis(canonical_dual(frame), f)
        matrix_res = np.linalg.norm(m @ c - analysis(frame, g))
        amb = np.linalg.norm(op.apply(f) - g)
        a, b = frame_bounds(frame)
        assert np.sqrt(a) * amb * (1 - 1e-8) <= matrix_res <= np.sqrt(b) * amb * (1 + 1e-8)

    @pytest.mark.parametrize("method", ["direct", "richardson"])
    def test_other_methods(self, suite_frames, rng, method):
        frame = suite_frames["gabor16"]
        op = make_test_operator("identity_minus_kernel", 16, theta=0.3)
        g = rng.standard_normal(16) + 0j
        f, rep = frame_galerkin_solve(op, g, frame, method=method)
        assert rep.converged
        assert np.linalg.norm(f - np.linalg.solve(op.dense(), g)) <= 1e-6

    def test_richardson_on_redundant_frame_does_not_warn(self, rng):
        # M is singular on C^K; the contraction is estimated on its core,
        # where it is about (B - A) / (B + A) = 0.18
        frame = make_gabor_frame(64, 4, 4, gaussian_window(64))
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5)
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            f, rep = frame_galerkin_solve(op, g, frame, method="richardson")
        assert rep.converged

    def test_non_hermitian_operator_flags_normal_equations(self, suite_frames, rng):
        frame = suite_frames["gabor16"]
        m = rng.standard_normal((16, 16))
        op = LinearOperator.from_matrix(m + m.T / 2 + 8 * np.eye(16))
        g = rng.standard_normal(16) + 0j
        f, rep = frame_galerkin_solve(op, g, frame, method="cg", tol=1e-6)
        assert "normal equations" in rep.message
        assert rep.converged
        assert np.linalg.norm(f - np.linalg.solve(op.dense(), g)) <= 1e-5


class TestMakeTestOperator:
    def test_diagonal_kappa(self):
        from locframes import generalized_condition_number

        op = make_test_operator("diagonal", 4, spectrum=[1.0, 2.0, 3.0, 1.0])
        assert generalized_condition_number(op.dense()) == pytest.approx(3.0)

    def test_identity_minus_kernel_norm_exact(self):
        a = make_test_operator("identity_minus_kernel", 64, theta=0.5, exponent=3)
        assert np.linalg.norm(np.eye(64) - a.dense(), 2) == pytest.approx(0.5, abs=1e-12)

    def test_invertibility_warning(self):
        with pytest.warns(UserWarning, match="singular"):
            make_test_operator("identity_minus_kernel", 16, theta=1.2)

    def test_kernel_exponent_validated(self):
        with pytest.raises(InvalidInputError):
            make_test_operator("identity_minus_kernel", 16, exponent=1.0)

    def test_helmholtz_toy_galerkin_decay(self):
        from locframes import decay_fit, galerkin_matrix

        n = 128
        op = make_test_operator("helmholtz_toy", n)
        assert np.allclose(op.dense(), op.dense().T.conj())
        frame = make_perturbed_onb(n, 3, 13)
        gm = galerkin_matrix(op, frame, frame)
        fit = decay_fit(gm.entries, frame.index_set, frame.index_set)
        assert fit.fitted_exponent >= 1.5

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInputError):
            make_test_operator("diagonal", 3, spectrum=[1, 2, 3])


def assert_reports_agree(real, cplx, scale):
    """Every value of two solve reports agrees; residuals and errors, which
    sit at the rounding level, agree to 1e-12 of ``scale``."""
    assert real.converged == cplx.converged
    for key in ("contraction_norm", "sup_inverse_norm"):
        assert getattr(real, key) == pytest.approx(getattr(cplx, key), rel=1e-12)
    assert len(real.levels) == len(cplx.levels)
    for lr, lc in zip(real.levels, cplx.levels):
        assert (lr.size, lr.singular) == (lc.size, lc.singular)
        assert abs(lr.iterations - lc.iterations) <= 1
        for key in ("inverse_norm", "kappa_dagger"):
            assert getattr(lr, key) == pytest.approx(getattr(lc, key), rel=1e-12)
        for key in ("residual", "error"):
            if getattr(lc, key) is not None:
                assert abs(getattr(lr, key) - getattr(lc, key)) <= 1e-12 * scale


class TestNumberField:
    """Real frames and operators are solved in real arithmetic, with the
    results of the same inputs cast to complex128."""

    OPERATORS = [("identity_minus_kernel", {"theta": 0.5}), ("helmholtz_toy", {})]

    @pytest.mark.parametrize("kind, params", OPERATORS)
    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_finite_sections_match_complex_copy(self, rng, kind, params, method):
        n = 64
        op = make_test_operator(kind, n, **params)
        assert op.dense().dtype == np.float64
        twin_op = LinearOperator.from_matrix(op.dense().astype(complex))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        onb = make_onb(n)
        sched = ProjectionSchedule(onb)
        assert all(q.dtype == np.float64 for q in sched.bases)
        rep, x = finite_section_solve(op, y, sched, method=method)
        twin_rep, twin_x = finite_section_solve(
            twin_op, y, ProjectionSchedule(complex_copy(onb)), method=method)
        assert rep.converged
        assert_reports_agree(rep, twin_rep, np.linalg.norm(y))
        assert np.linalg.norm(x - twin_x) <= 1e-12 * np.linalg.norm(twin_x)

    @pytest.mark.parametrize("name", ["onb", "translates"])
    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_frame_galerkin_matches_complex_copy(self, suite_frames, rng, name, method):
        frame = suite_frames[name]
        n = frame.ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5)
        twin_op = LinearOperator.from_matrix(op.dense().astype(complex))
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f, rep = frame_galerkin_solve(op, g, frame, method=method)
        twin_f, twin_rep = frame_galerkin_solve(twin_op, g, complex_copy(frame),
                                                method=method)
        assert rep.converged
        assert_reports_agree(rep, twin_rep, np.linalg.norm(g))
        assert np.linalg.norm(f - twin_f) <= 1e-12 * np.linalg.norm(twin_f)

    def test_diagonal_operator_keeps_its_field(self):
        real = make_test_operator("diagonal", 4, spectrum=[1, 2, 3, 4])
        cplx = make_test_operator("diagonal", 4, spectrum=[1, 2j, 3, 4])
        assert real.dense().dtype == np.float64
        assert cplx.dense().dtype == np.complex128

    def test_kernels_take_the_field_of_their_operands(self):
        m = np.diag(np.arange(1.0, 6.0))
        assert cg_solve(m, np.ones(5)).c.dtype == np.float64
        assert cg_solve(m, np.ones(5) + 1j).c.dtype == np.complex128
        assert richardson_solve(m, np.ones(5), 0.3).c.dtype == np.float64
        res = richardson_solve(m, np.ones(5) + 1j, 0.3)
        assert res.c.dtype == np.complex128
        assert np.allclose(m @ res.c, np.ones(5) + 1j)

    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_solve_fs_decomposes_in_real_arithmetic(self, tmp_path, monkeypatch, method):
        from locframes.cli import main

        seen = []
        for name in ("svd", "qr", "eigh", "eigvalsh", "cholesky", "solve", "lstsq"):
            original = getattr(np.linalg, name)

            def guarded(*args, _original=original, _name=name, **kwargs):
                seen.append((_name, [a.dtype for a in args if isinstance(a, np.ndarray)]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, guarded)
            # np.linalg.norm(x, 2) looks its svd up in its own module
            monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, name, guarded)
        assert main(["solve", "fs", "--n", "32", "--method", method,
                     "--op-kind", "identity_minus_kernel", "--theta", "0.5",
                     "--out-dir", str(tmp_path)]) == 0
        assert sum(name == "svd" for name, _ in seen) >= 2
        assert all(dt == np.float64 for _, dtypes in seen for dt in dtypes), seen
