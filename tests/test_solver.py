"""Subframe projections, finite sections, frame-Galerkin solves, iterations."""

import inspect
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from locframes import (
    ContractError,
    Frame,
    IndexSet,
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
from locframes import solver
from locframes.cli import main
from locframes.frames import analysis_r_product
from locframes.galerkin import galerkin_core
from locframes.linalg import field_array, hermitian_defect, spectrum
from locframes.solver import PROJECTION_TOL, _section, _span_basis

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


def svd_basis(vectors):
    """The SVD path's span basis: left singular vectors above the cutoff."""
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, s**2 > PROJECTION_TOL * s[0] ** 2]


def count_svds(monkeypatch):
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestCoordinateSpanBasis:
    """Unit coordinate vectors are their own span basis and take no SVD."""

    def test_onb_schedule_takes_no_svd(self, monkeypatch):
        calls = count_svds(monkeypatch)
        ProjectionSchedule(make_onb(64))
        assert calls == []
        gabor = ProjectionSchedule(make_gabor_frame(32, 4, 4, gaussian_window(32)))
        assert len(calls) == len(gabor.levels)

    def test_level_bases_are_the_svd_bases_up_to_signs(self):
        onb = make_onb(64)
        sched = ProjectionSchedule(onb)
        for lv, q, bounds in zip(sched.levels, sched.bases, sched.subframe_bounds):
            u = svd_basis(onb.vectors[:, lv])
            signs = np.sum(u * q, axis=0)
            assert np.all(np.abs(signs) == 1)
            assert np.allclose(q, u * signs, rtol=0, atol=1e-15)
            assert bounds == (1.0, 1.0)

    def test_onb_levels_keep_their_rows(self):
        # no n x N copy is held: bases forms each Q_N = V_N when read
        onb = make_onb(64)
        sched = ProjectionSchedule(onb)
        for i, (lv, k, q) in enumerate(zip(sched.levels, sched._sections, sched.bases)):
            assert k.ndim == 1 and np.array_equal(k, lv)
            assert np.array_equal(q, onb.vectors[:, lv])
            assert np.array_equal(sched.projection(i).dense(), q @ q.T)

    def test_permuted_unimodular_family(self, monkeypatch):
        n = 8
        phases = np.array([1, -1, 1j, -1j, 1j, 1, -1j, -1])
        vectors = np.eye(n)[:, np.random.default_rng(4).permutation(n)] * phases
        frame = Frame(vectors, IndexSet.ring(n), "coordinates")
        subset = [0, 2, 5, 6]
        calls = count_svds(monkeypatch)
        p = subframe_projection(frame, subset).dense()
        assert calls == []
        q = svd_basis(frame.vectors[:, subset])
        assert np.abs(p - q @ np.conj(q.T)).max() <= 1e-15
        w, basis = _span_basis(frame.vectors[:, subset])
        assert np.array_equal(w, np.ones(4))
        assert np.array_equal(basis, frame.vectors[:, subset])

    @pytest.mark.parametrize("columns, spectrum", [
        ([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], [2, 1]),
        ([[2, 0, 0, 0], [0, 1, 0, 0]], [4, 1]),
        ([[1, 0, 0, 1], [0, 1, 0, 0]], [2, 1]),
    ], ids=["repeated-e1", "2e1", "two-nonzeros"])
    def test_other_families_take_the_svd(self, monkeypatch, columns, spectrum):
        vectors = np.array(columns, dtype=float).T
        calls = count_svds(monkeypatch)
        w, q = _span_basis(vectors)
        assert len(calls) == 1
        assert w == pytest.approx(spectrum, rel=1e-15)
        assert q.shape == (4, len(spectrum))

    def test_selection_core_is_the_gathered_submatrix(self, rng):
        n = 16
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        k = np.array([3, 0, 9, 4])
        q = np.eye(n)[:, k]
        core, b, lift = _section(k, a, y)
        assert np.array_equal(core, a[np.ix_(k, k)])
        assert np.array_equal(core, np.conj(q.T) @ a @ q)
        # restriction gathers y[k], the lift scatters c into zeros: the
        # bits of the 0/1 products, which the same selection given as Q_N takes
        assert np.array_equal(b, np.conj(q.T) @ y)
        assert np.array_equal(lift(c), q @ c)
        q_core, q_b, q_lift = _section(q, a, y)
        assert np.array_equal(q_core, core) and np.array_equal(q_b, b)
        assert np.array_equal(q_lift(c), lift(c))
        # every index in order selects A itself, with no copy
        assert _section(np.arange(n), a, y)[0] is a
        assert _section(np.arange(n)[::-1], a, y)[0] is not a
        flipped = q * np.array([1, -1, 1, 1])
        core, b, lift = _section(flipped, a, y)
        assert np.array_equal(core, np.conj(flipped.T) @ a @ flipped)
        assert np.array_equal(b, np.conj(flipped.T) @ y)
        assert np.array_equal(lift(c), flipped @ c)

    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_reports_match_svd_bases(self, rng, method):
        n = 64
        onb = make_onb(n)
        a = make_test_operator("identity_minus_kernel", n, theta=0.5)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sched = ProjectionSchedule(onb)
        reference = ProjectionSchedule(onb)
        reference.bases = [svd_basis(onb.vectors[:, lv]) for lv in reference.levels]
        rep, x = finite_section_solve(a, y, sched, method=method)
        ref_rep, ref_x = finite_section_solve(a, y, reference, method=method)
        assert rep.converged
        assert_reports_agree(rep, ref_rep, np.linalg.norm(y))
        assert np.linalg.norm(x - ref_x) <= 1e-12 * np.linalg.norm(ref_x)


class TestProjectionSchedule:
    def test_centered_doubling_sizes(self):
        sched = ProjectionSchedule(make_onb(128))
        assert [len(lv) for lv in sched.levels] == [8, 16, 32, 64, 128]

    def test_energy_greedy_orders_by_coefficients(self, rng):
        onb = make_onb(32)
        pilot = np.zeros(32)
        pilot[17] = 5.0
        pilot[3] = 1.0
        sched = ProjectionSchedule(onb, selection="greedy", pilot=pilot)
        assert 17 in sched.levels[0]

    def test_subframe_bounds_recorded(self, suite_frames):
        sched = ProjectionSchedule(suite_frames["gabor64"])
        assert len(sched.subframe_bounds) == len(sched.levels)
        for c, d in sched.subframe_bounds:
            assert 0 < c <= d

    def test_coordinate_levels_copy_no_vectors(self):
        # the whole standard basis is checked once; no level copies its
        # columns (the last alone would be n x n floats, 2.1 MB)
        onb = make_onb(512)
        tracemalloc.start()
        try:
            sched = ProjectionSchedule(onb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 8 / 2
        for lv, q, bounds in zip(sched.levels, sched._sections, sched.subframe_bounds):
            assert np.array_equal(q, lv) and bounds == (1.0, 1.0)

    @pytest.mark.parametrize("name", ["gabor64", "translates", "ponb"])
    def test_levels_match_their_own_span_bases(self, suite_frames, name):
        # any other frame: each level's basis and bounds are its own
        # _span_basis, the last level's read from the whole frame
        frame = suite_frames[name]
        sched = ProjectionSchedule(frame)
        for lv, q, bounds in zip(sched.levels, sched._sections, sched.subframe_bounds):
            w, ref = _span_basis(frame.vectors[:, lv])
            assert np.array_equal(q, ref) and bounds == (w[-1], w[0])


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

    def test_indefinite_compression_converges_under_cg(self, rng):
        # sign-flipping spectrum: compressed systems are indefinite, and CG
        # solves them through the normal equations
        n = 32
        spectrum = (-1.0) ** np.arange(n) * np.linspace(1, 2, n)
        a = make_test_operator("diagonal", n, spectrum=spectrum)
        y = rng.standard_normal(n)
        rep, x = finite_section_solve(a, y, ProjectionSchedule(make_onb(n)),
                                      method="cg")
        assert rep.converged
        assert np.allclose(x, y / spectrum, atol=1e-8)

    def test_shift_sections_blow_up_the_monitor(self, rng):
        # circular shift + 0.5 I is invertible, but its truncations are
        # triangular with 0.5 on the diagonal: compressed inverses grow
        # exponentially and the method is declared divergent even though
        # the final (full) section solves exactly
        n = 64
        a = LinearOperator(
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

    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_singular_operator_reports_no_error(self, rng, method):
        # A 1 = 0: a dense solve of A returns rounding noise of norm ~ 1e16,
        # which is no reference for the N = 8 level, nonsingular as it is
        n = 16
        with pytest.warns(UserWarning, match="singular"):
            a = make_test_operator("identity_minus_kernel", n, theta=1.0)
        y = rng.standard_normal(n)
        sched = ProjectionSchedule(make_onb(n))
        with np.errstate(all="ignore"):
            rep, _ = finite_section_solve(a, y, sched, method=method)
        assert rep.levels[-1].singular and not rep.levels[0].singular
        assert not rep.converged
        assert [lv.error for lv in rep.levels] == [None] * len(rep.levels)

    def test_explicit_level_count(self):
        sched = ProjectionSchedule(make_onb(64), n_levels=3)
        assert [len(lv) for lv in sched.levels] == [16, 32, 64]


# the CI run's 16-entry indefinite spectrum, and the same with three entries
# set to zero: ||I - A||_2 = |1 - (-4)| = 5
INDEFINITE = [1, -2, 0.5, 3, -0.25, 4, -1.5, 2, 1, -3, 0.75, 2.5, -0.5, 1.25, -4, 0.125]
INDEFINITE_WITH_ZEROS = [1, -2, 0, 3, -0.25, 4, -1.5, 0, 1, -3, 0.75, 2.5, 0, 1.25, -4, 0.125]


def contraction_case(name, rng):
    """(A, frame, whether spectrum(I - A) is taken) for one finite-section run."""
    n = 32
    if name == "kernel":
        return make_test_operator("identity_minus_kernel", n, theta=0.5).dense(), make_onb(n), 0
    if name == "singular_kernel":
        with pytest.warns(UserWarning, match="singular"):
            a = make_test_operator("identity_minus_kernel", n, theta=1.0)
        return a.dense(), make_onb(n), 0
    if name == "singular_not_spanning":
        # 24 coordinate vectors: ||I - A||_2 = 1 comes from spectrum(I - A),
        # which reads it a few units of roundoff below 1
        with pytest.warns(UserWarning, match="singular"):
            a = make_test_operator("identity_minus_kernel", n, theta=1.0)
        return a.dense(), Frame(np.eye(n)[:, :24], IndexSet.ring(24)), 1
    if name == "helmholtz":
        return make_test_operator("helmholtz_toy", n).dense(), make_onb(n), 0
    if name == "indefinite_with_zeros":
        return np.diag(INDEFINITE_WITH_ZEROS), make_onb(16), 0
    if name == "zeros_set_the_norm":
        # the truncated zero eigenvalues, not the kept 1.5, give ||I - A||_2 = 1
        return np.diag([1.5] * 8 + [0.0] * 8), make_onb(16), 0
    if name == "perturbed_onb":
        # the last Q is a square unitary from an SVD, not the identity
        return make_test_operator("helmholtz_toy", n).dense(), make_perturbed_onb(n, 3.0, 5), 0
    if name == "not_spanning":
        # n - 1 coordinate vectors: the last level spans a hyperplane only
        frame = Frame(np.eye(n)[:, 1:], IndexSet.ring(n - 1))
        return make_test_operator("identity_minus_kernel", n, theta=0.5).dense(), frame, 1
    if name == "indefinite":
        # every section is invertible
        return np.diag(INDEFINITE), make_onb(16), 0
    # non-Hermitian: every core takes the SVD path
    return np.eye(n) + 0.1 * rng.standard_normal((n, n)), make_onb(n), 1


class TestContractionNorm:
    """||I - A||_2 comes from the last level's eigenvalues when that level
    spans C^n and took eigh, and from spectrum(I - A) otherwise."""

    @pytest.mark.parametrize("method", ["direct", "cg"])
    @pytest.mark.parametrize("name", ["kernel", "singular_kernel", "singular_not_spanning",
                                      "helmholtz", "indefinite_with_zeros",
                                      "zeros_set_the_norm", "perturbed_onb", "not_spanning",
                                      "non_hermitian"])
    def test_matches_the_spectral_norm(self, rng, monkeypatch, name, method):
        a, frame, fallbacks = contraction_case(name, rng)
        n = len(a)
        # whether each spectrum the solve takes is that of I - A: the
        # fallback, not a level's core
        calls = []

        def counted(m, vectors=False):
            calls.append(m.shape == (n, n) and np.array_equal(m, np.eye(n) - a))
            return spectrum(m, vectors)

        monkeypatch.setattr(solver, "spectrum", counted)
        sched = ProjectionSchedule(frame)
        with np.errstate(all="ignore"):
            rep, _ = finite_section_solve(a, rng.standard_normal(n), sched, method=method)
        eps = np.finfo(float).eps
        expected = np.linalg.norm(np.eye(n) - a, 2)
        assert abs(rep.contraction_norm - expected) <= n * eps * np.linalg.norm(a, 2)
        # the verdict agrees with the one spectrum(I - A) gives; for the
        # singular kernel ||I - A||_2 = 1 exactly, which is no contraction
        # whichever path reads it
        if name.startswith("singular"):
            assert rep.contraction_sufficient is False
        else:
            assert rep.contraction_sufficient == bool(spectrum(np.eye(n) - a).values[0] < 1)
        # direct takes a second spectrum, with factors, on each rank-deficient
        # level only
        singular = {"singular_kernel": 1, "indefinite_with_zeros": 2,
                    "zeros_set_the_norm": 2}.get(name, 0)
        assert sum(lv.singular for lv in rep.levels) == singular
        extra = singular if method == "direct" else 0
        assert calls == [False] * (len(rep.levels) + extra) + [True] * fallbacks
        assert (rep.levels[-1].decomposition == "eigh") == (name != "non_hermitian")
        if name == "perturbed_onb":
            q = sched.bases[-1]
            assert q.shape == (n, n) and not np.allclose(q, np.eye(n))


class TestLevelSolves:
    """What each solve level computes beyond its one values-only spectrum."""

    @pytest.mark.parametrize("name", ["kernel", "helmholtz", "perturbed_onb", "indefinite",
                                      "non_hermitian"])
    def test_direct_by_lu_matches_the_pseudo_inverse(self, rng, name):
        a, frame, _ = contraction_case(name, rng)
        n = len(a)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sched = ProjectionSchedule(frame)
        rep, x = finite_section_solve(a, y, sched, method="direct")
        for lv, q, rec in zip(sched.levels, sched.bases, rep.levels):
            core, b, lift = _section(q, a, y)
            pinv = spectrum(core, vectors=True).pinv_apply(b)
            _, res, _ = solver._solve_level(core, b, "direct", 1e-10, len(lv))
            assert not rec.singular
            assert np.linalg.norm(res.c - pinv) <= 1e-12 * np.linalg.norm(pinv)
        assert np.linalg.norm(x - lift(pinv)) <= 1e-12 * np.linalg.norm(pinv)
        # the last section of the coordinate levels is A, whose LU is the reference
        assert (rep.levels[-1].error == 0.0) == (name != "perturbed_onb")

    @pytest.mark.parametrize("name", ["kernel", "helmholtz", "indefinite"])
    def test_cg_on_an_eigh_core_skips_only_the_second_test(self, rng, monkeypatch, name):
        a, frame, _ = contraction_case(name, rng)
        y = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        # whether each Hermitian test cg_solve takes is of the level's core;
        # the normal equations M* M of an indefinite core take none
        tested = []
        monkeypatch.setattr(solver, "hermitian_defect",
                            lambda m: tested.append(np.array_equal(m, core))
                            or hermitian_defect(m))
        sched = ProjectionSchedule(frame)
        for lv, q in zip(sched.levels, sched.bases):
            core, b, _ = _section(q, a, y)
            rec, res, _ = solver._solve_level(core, b, "cg", 1e-10, len(lv))
            assert rec.decomposition == "eigh" and tested == []
            ref = cg_solve(core, b, tol=1e-10)
            assert tested == [True]
            tested.clear()
            assert np.array_equal(res.c, ref.c) and res.residuals == ref.residuals
            assert (res.iterations, res.normal_equations) == (ref.iterations,
                                                              ref.normal_equations)


class TestCG:
    def test_identity_single_iteration(self):
        res = cg_solve(np.eye(5), np.ones(5))
        assert res.converged and res.iterations == 1

    def test_distinct_eigenvalues_terminate(self):
        res = cg_solve(np.diag(np.arange(1.0, 11.0)), np.ones(10))
        assert res.converged and res.iterations <= 10

    # kappa = 1e6: the 2-norm residual of CG is not monotone, and from b = 1
    # it first falls below its start at iteration 58
    ILL_CONDITIONED = np.logspace(0, -6, 50)

    def test_non_monotone_residual_runs_to_tolerance(self):
        m, b = np.diag(self.ILL_CONDITIONED), np.ones(50)
        res = cg_solve(m, b)
        assert res.converged and res.iterations > 58
        assert max(res.residuals[1:58]) > 1.0
        assert np.linalg.norm(m @ res.c - b) <= 1e-9 * np.linalg.norm(b)

    def test_ill_conditioned_section_matches_direct(self, tmp_path):
        spectrum_flag = "--spectrum=" + ",".join(repr(float(v)) for v in self.ILL_CONDITIONED)
        for method in ("cg", "direct"):
            assert main(["solve", "fs", "--n", "50", "--op-kind", "diagonal", spectrum_flag,
                         "--method", method, "--out-dir", str(tmp_path / method)]) == 0
        cg, direct = (json.loads((tmp_path / m / "solve_fs.json").read_text())
                      for m in ("cg", "direct"))
        assert cg["converged"] and direct["converged"]
        last = cg["levels"][-1]
        assert last["kappa_dagger"] == pytest.approx(1e6) and not last["singular"]
        x_cg, x_direct = (np.load(tmp_path / m / "solution_fs.npy") for m in ("cg", "direct"))
        assert np.linalg.norm(x_cg - x_direct) <= 1e-8 * np.linalg.norm(x_direct)

    @pytest.mark.parametrize("m", [
        np.diag([1.0, 1.0, 0.0]),
        # indefinite: CG restarts on M* M, whose range holds M* b for any b
        np.diag([1.0, -2.0, 0.0]),
        # non-Hermitian, with range span(e_1, e_3)
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ])
    def test_rhs_outside_range_is_contract_error(self, m):
        with pytest.raises(ContractError, match="range"):
            cg_solve(m, np.array([1.0, 1.0, 1.0]))

    def test_non_hermitian_takes_normal_equations(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        res = cg_solve(m, np.ones(2))
        assert res.normal_equations and res.converged
        assert np.allclose(m @ res.c, np.ones(2), atol=1e-10)
        assert not cg_solve(m @ m.T, np.ones(2)).normal_equations

    def test_indefinite_hermitian_takes_normal_equations(self):
        # b* M b = 0.5 > 0, but the second search direction has p* M p < 0
        m, b = np.diag([1.0, -3.0, 0.5, 2.0]), np.ones(4)
        res = cg_solve(m, b)
        assert res.normal_equations and res.converged
        assert np.allclose(m @ res.c, b, atol=1e-10)
        # the two iterations run on M before the restart are counted
        assert res.iterations == 2 + cg_solve(m @ m, m @ b).iterations

    def test_normal_equations_fallback(self, rng):
        m = rng.standard_normal((12, 12)) + 3 * np.eye(12)
        b = rng.standard_normal(12)
        res = cg_solve(m, b)
        assert res.normal_equations
        assert np.linalg.norm(m @ res.c - b) <= 1e-6


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

    def test_divergence_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = richardson_solve(np.diag([1.0, 5.0]), np.ones(2), 1.9)
        assert res.diverged
        assert [str(w.message) for w in caught] == [
            f"Richardson iteration diverged after {res.iterations} updates "
            f"(relative residual {res.residuals[-1]:.3e})"]

    def test_converged_and_capped_runs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            converged = richardson_solve(np.diag([1.0, 1.5]), np.ones(2), 0.8)
            # the second component contracts by 1 - 1e-6 per update: the run
            # neither meets the tolerance nor runs away before the cap
            capped = richardson_solve(np.diag([1.0, 1e-6]), np.ones(2), 1.0)
        assert converged.converged and not converged.diverged
        assert not capped.converged and not capped.diverged
        assert capped.iterations == 20 and len(capped.residuals) == 21

    @staticmethod
    def reference_loop(m, b, relaxation, tol=1e-10):
        """A copy of the Richardson loop: the reference whose iterates, counts
        and residuals the kernel must match bit for bit."""
        m, b = field_array(m), field_array(b)
        m = np.asarray(m, dtype=np.result_type(m, b))
        k = m.shape[0]
        bnorm = max(np.linalg.norm(b), 1e-300)
        x = np.zeros(k, dtype=m.dtype)
        residuals = []
        updates = 0
        while updates <= 10 * k:
            r = b - m @ x
            rel = np.linalg.norm(r) / bnorm
            residuals.append(rel)
            if rel <= tol or rel > 10 * residuals[0]:
                return x, updates, residuals
            x = x + relaxation * r
            updates += 1
        return x, 10 * k, residuals

    @pytest.mark.parametrize("name", ["onb", "gabor16", "gabor64", "gabor144",
                                      "translates", "ponb"])
    def test_bit_identical_to_reference_loop(self, suite_frames, rng, name):
        frame = suite_frames[name]
        n = frame.ambient_dim
        op = make_test_operator("identity_minus_kernel", n, theta=0.5).dense()
        for core in (galerkin_core(op, frame, frame)[0],
                     galerkin_core(np.diag((-1.0) ** np.arange(n) + 0.5), frame, frame)[0]):
            spec = spectrum(core)
            s = spec.values[:spec.rank]
            relaxation = 2.0 / (s[0] + s[-1])
            b = analysis_r_product(frame, np.eye(n)) @ (rng.standard_normal(n)
                                                         + 1j * rng.standard_normal(n))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                res = richardson_solve(core, b, relaxation)
            c, iterations, residuals = self.reference_loop(core, b, relaxation)
            assert np.array_equal(res.c, c) and res.c.dtype == c.dtype
            assert res.iterations == iterations and res.residuals == residuals
            assert res.diverged == bool(residuals[-1] > 10 * residuals[0])


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
        # M is singular on C^K; Richardson runs on its core, where it
        # contracts by about (B - A) / (B + A) = 0.18
        frame = make_gabor_frame(64, 4, 4, gaussian_window(64))
        op = make_test_operator("identity_minus_kernel", 64, theta=0.5)
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            f, rep = frame_galerkin_solve(op, g, frame, method="richardson")
        assert rep.converged

    def test_richardson_divergence_is_recorded(self, rng):
        # invertible and indefinite: 2 / (sigma_max + sigma_min) cannot contract
        a = make_test_operator("diagonal", 16, spectrum=(-1.0) ** np.arange(16) + 0.5)
        with pytest.warns(UserWarning, match="diverge"):
            _, rep = frame_galerkin_solve(a, rng.standard_normal(16) + 0j, make_onb(16),
                                          method="richardson")
        level = rep.levels[0]
        assert level.diverged and not level.singular and not rep.converged

    @pytest.mark.parametrize("method", ["cg", "direct", "richardson"])
    def test_gabor_solve_forms_no_k_by_n_array(self, rng, method):
        # K = 4096, n = 256: one K x n complex array is 16 MB; the solve
        # works on the n x n core and lifts with R, never with Q
        frame = make_gabor_frame(256, 4, 4, gaussian_window(256))
        op = make_test_operator("identity_minus_kernel", 256, theta=0.5)
        g = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        tracemalloc.start()
        try:
            _, rep = frame_galerkin_solve(op, g, frame, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak < frame.size * frame.ambient_dim * 16

    def test_non_hermitian_operator_flags_normal_equations(self, suite_frames, rng):
        frame = suite_frames["gabor16"]
        m = rng.standard_normal((16, 16))
        op = LinearOperator(m + m.T / 2 + 8 * np.eye(16))
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


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_frame_galerkin_records_the_decomposition(rng, method):
    frame = make_onb(16)
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    symmetric = make_test_operator("identity_minus_kernel", 16, theta=0.5)
    skewed = np.eye(16) + 0.1 * rng.standard_normal((16, 16))
    for op, path in ((symmetric, "eigh"), (skewed, "svd")):
        _, rep = frame_galerkin_solve(op, g, frame, method=method)
        assert rep.converged
        assert rep.to_dict()["levels"][0]["decomposition"] == path


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
        twin_op = LinearOperator(op.dense().astype(complex))
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
        twin_op = LinearOperator(op.dense().astype(complex))
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
        assert sum(name in ("svd", "eigh", "eigvalsh") for name, _ in seen) >= 2
        assert all(dt == np.float64 for _, dtypes in seen for dt in dtypes), seen
