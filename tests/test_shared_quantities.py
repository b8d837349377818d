"""Quantities computed once and reused, against direct reference formulas.

The distance matrix and shell partition of an index set, the Gram
magnitudes behind the algebra norms and the decay fit, the equivalence
grid of ``frame diag`` and the batched probe norm are each checked on
every suite frame against the formula they stand for, written out here.
Gabor frames read their Gram magnitudes from one lattice profile; they
are checked against a profile reference and against the dense Gram.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locframes import (
    MatrixAlgebraSpec,
    SeqSpaceSpec,
    Weight,
    canonical_dual,
    dual_localization_check,
    equivalence_constants,
    gram,
    io,
    localization_report,
    weight_admissible,
)
from locframes.algebras import SHELL_FLOOR, fit_shells
from locframes.cli import main
from locframes.errors import NotLocalizedError
from locframes.frames import Frame, gaussian_window, make_gabor_frame
from locframes.galerkin import _probe_norm
from locframes.localization import (
    DenseMagnitudes,
    LatticeProfile,
    equivalence_grid,
    gram_magnitudes,
)

RTOL = 1e-12


def reference_distances(iset):
    """Chebyshev distance of per-axis (circular) lattice distances."""
    pos = np.asarray(iset.positions)
    d = np.zeros((len(iset), len(iset)))
    for a in range(iset.dim):
        da = np.abs(pos[:, None, a] - pos[None, :, a])
        if iset.moduli is not None:
            da = np.minimum(da, iset.moduli[a] - da)
        d = np.maximum(d, da)
    return d


def shells_and_exponent(mags, d):
    """Max of ``mags`` per distance in ``d`` (rounded to 9 places) and the
    ``fitted_exponent`` of these shells."""
    dist = np.round(d, 9)
    shells = [(float(r), float(mags[dist == r].max())) for r in np.unique(dist)]
    return shells, fitted_exponent(shells)


def fitted_exponent(shells):
    """The log-log fitted exponent of the shells above the noise floor."""
    usable = [(r, m) for r, m in shells if m >= SHELL_FLOOR]
    if len(usable) < 4:
        return math.inf
    return -np.polyfit(np.log1p([r for r, _ in usable]), np.log([m for _, m in usable]), 1)[0]


def reference_report(g, iset, s):
    """Jaffard norm, Schur norm, shell maxima and fitted exponent of g."""
    d = reference_distances(iset)
    weighted = np.abs(g) * (1.0 + d) ** s
    jaffard = weighted.max()
    schur = max(weighted.sum(axis=1).max(), weighted.sum(axis=0).max())
    return (jaffard, schur) + shells_and_exponent(np.abs(g), d)


def reference_profile_report(left, right, s):
    """The same four quantities of a lattice pair from its profile.

    |G|_{k,l} = g[lambda_k - lambda_l] with g = |G[:, 0]|, so every row
    holds each lattice difference once: the Jaffard norm is the max and
    the Schur norm the sum of g (1 + d_0)^s, and shell r holds the g at
    distance r from the origin, position 0 of the torus grid.
    """
    g = np.abs(np.conj(right.vectors[:, 0]) @ left.vectors)
    d0 = reference_distances(left.index_set)[:, 0]
    weighted = g * (1.0 + d0) ** s
    return (weighted.max(), weighted.sum()) + shells_and_exponent(g, d0)


def reports_of(frame, alg):
    try:
        return dual_localization_check(frame, alg).reports()
    except NotLocalizedError as err:
        return (err.report,)


class TestIndexSetCache:
    def test_distance_matrix_is_one_read_only_array(self, suite_frames):
        for frame in suite_frames.values():
            iset = frame.index_set
            d = iset.distance_matrix()
            assert iset.distance_matrix() is d
            assert iset.distance_matrix(iset) is d
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0, 0] = 1.0
            assert np.array_equal(d, reference_distances(iset))

    def test_shell_partition_is_cached_and_sorted(self, suite_frames):
        for frame in suite_frames.values():
            iset = frame.index_set
            shells = iset.shells()
            assert iset.shells() is shells
            dist = np.round(reference_distances(iset), 9).ravel()
            assert np.array_equal(shells.distances, np.unique(dist))
            ends = np.r_[shells.starts[1:], dist.size]
            for r, lo, hi in zip(shells.distances, shells.starts, ends):
                assert np.all(dist[shells.order[lo:hi]] == r)


class TestLocalizationFromOneGram:
    @pytest.mark.parametrize("kind", ["jaffard", "schur_weighted"])
    def test_norms_shells_and_exponent(self, suite_frames, kind):
        alg = MatrixAlgebraSpec(kind, 3.0)
        for name, frame in suite_frames.items():
            dual = canonical_dual(frame)
            pairs = [(frame, frame), (dual, dual), (frame, dual)]
            for rep, (left, right) in zip(reports_of(frame, alg), pairs):
                if frame.lattice is None:
                    jaffard, schur, shells, exponent = reference_report(
                        gram(left, right), frame.index_set, alg.s)
                else:
                    jaffard, schur, shells, exponent = reference_profile_report(
                        left, right, alg.s)
                assert rep.norms["jaffard"] == pytest.approx(jaffard, rel=RTOL), name
                assert rep.norms["schur_weighted"] == pytest.approx(schur, rel=RTOL), name
                # the profile's FFT and the dense product round differently, and
                # shells near the noise floor carry that rounding into the fit
                top = max(m for _, m in shells)
                assert [d for d, _ in rep.fit.shell_maxima] == [d for d, _ in shells], name
                for (_, m), (_, m_ref) in zip(rep.fit.shell_maxima, shells):
                    assert abs(m - m_ref) <= 2e-15 * top, name
                if frame.lattice is not None:
                    exponent = fitted_exponent(rep.fit.shell_maxima)
                assert rep.fit.fitted_exponent == pytest.approx(exponent, rel=RTOL), name

    def test_report_matches_standalone_call(self, suite_frames):
        alg = MatrixAlgebraSpec("jaffard", 3.0)
        for frame in suite_frames.values():
            first = reports_of(frame, alg)[0]
            again = localization_report(frame, frame, alg)
            assert first.to_dict() == again.to_dict()


class TestEquivalenceGrid:
    P_GRID = (1.0, 1.5, 2.0, math.inf, 0.0)
    POWERS = (0.0, 0.5, 1.0)

    @staticmethod
    def reference(frame, p, t):
        """1 / ||G_dual|| and ||G|| on l^p_w, weighted sums written out."""
        w = Weight.polynomial(t, frame.index_set).values

        def norm(g):
            m = np.abs(w[:, None] * g / w[None, :])
            col, row = m.sum(axis=0).max(), m.sum(axis=1).max()
            return col if p == 1.0 else row if p in (0.0, math.inf) else max(col, row)

        dual = canonical_dual(frame)
        return 1.0 / norm(gram(dual, dual)), norm(gram(frame, frame))

    def test_constants_match_reference(self, suite_frames):
        for name, frame in suite_frames.items():
            for p in self.P_GRID:
                for t in self.POWERS:
                    spec = SeqSpaceSpec(p, Weight.polynomial(t, frame.index_set))
                    got = equivalence_constants(frame, spec)
                    want = self.reference(frame, p, t)
                    np.testing.assert_allclose(got, want, rtol=RTOL, err_msg=name)

    def test_frame_diag_grid_matches_per_entry_calls(self, suite_frames, tmp_path):
        for name, frame in suite_frames.items():
            io.save_frame(tmp_path / name, frame)
            out = tmp_path / f"{name}-diag"
            assert main(["frame", "diag", "--frame", str(tmp_path / name),
                         "--p-grid", "1,1.5,2,inf,0", "--weight-powers", "0,0.5,1",
                         "--out-dir", str(out)]) == 0
            grid = json.loads((out / "equivalence.json").read_text())["grid"]
            assert len(grid) == len(self.P_GRID) * len(self.POWERS)
            entries = iter(grid)
            for p in self.P_GRID:
                for t in self.POWERS:
                    entry = next(entries)
                    assert entry["p"] == ("inf" if p == math.inf else p)
                    assert entry["weight_power"] == t
                    spec = SeqSpaceSpec(p, Weight.polynomial(t, frame.index_set))
                    got = (entry["lower"], entry["upper"])
                    np.testing.assert_allclose(got, equivalence_constants(frame, spec),
                                               rtol=RTOL, err_msg=name)
                    np.testing.assert_allclose(got, self.reference(frame, p, t),
                                               rtol=RTOL, err_msg=name)


class TestLatticeProfileAgainstDense:
    """A Gabor frame's profile reports against those of its dense twin."""

    ALG = MatrixAlgebraSpec("jaffard", 3.0)
    P_GRID = (1.0, 1.5, 2.0, math.inf, 0.0)
    POWERS = (-1.0, 0.0, 0.5, 1.0, 2.0)

    @staticmethod
    def rounding_bound(left, right):
        """gamma_{n+2} max ||phi_k|| max ||psi_l||: the a-priori error of a
        computed n-term complex inner product (Higham, 2nd ed., 3.6)."""
        u = np.finfo(float).eps / 2
        gamma = (left.ambient_dim + 2) * u / (1 - (left.ambient_dim + 2) * u)
        return (gamma * np.linalg.norm(left.vectors, axis=0).max()
                * np.linalg.norm(right.vectors, axis=0).max())

    def test_localization_reports(self, gabor_twins):
        frame, twin = gabor_twins
        got, want = (dual_localization_check(f, self.ALG) for f in (frame, twin))
        assert got.exponent_drop_flagged == want.exponent_drop_flagged
        dual = canonical_dual(frame)
        pairs = [(frame, frame), (dual, dual), (frame, dual)]
        for rep, ref, (left, right) in zip(got.reports(), want.reports(), pairs):
            assert rep.member == ref.member
            for kind in ("jaffard", "schur_weighted"):
                assert rep.norms[kind] == pytest.approx(ref.norms[kind], rel=RTOL)
            bound = self.rounding_bound(left, right)
            assert [d for d, _ in rep.fit.shell_maxima] == [
                d for d, _ in ref.fit.shell_maxima]
            for (_, m), (_, m_ref) in zip(rep.fit.shell_maxima, ref.fit.shell_maxima):
                assert abs(m - m_ref) <= bound
            assert rep.fit.fitted_exponent == fit_shells(
                rep.fit.shell_maxima).fitted_exponent

    def test_equivalence_grid(self, gabor_twins):
        frame, twin = gabor_twins
        spaces = [SeqSpaceSpec(p, Weight.polynomial(t, frame.index_set))
                  for p in self.P_GRID for t in self.POWERS]
        np.testing.assert_allclose(equivalence_grid(frame, spaces),
                                   equivalence_grid(twin, spaces), rtol=RTOL)

    def test_frame_diag_against_dense_container(self, gabor_twins, tmp_path):
        frame, _ = gabor_twins
        io.save_frame(tmp_path / "lattice", frame)
        # a container whose meta does not say gabor loads as a general frame
        io.save_frame(tmp_path / "dense", Frame(frame.vectors, frame.index_set,
                                                name=frame.name))
        outs = {}
        for name in ("lattice", "dense"):
            assert main(["frame", "diag", "--frame", str(tmp_path / name),
                         "--weight-powers", "0,0.5,1,2", "--s", "3",
                         "--out-dir", str(tmp_path / f"{name}-diag")]) == 0
            outs[name] = [json.loads((tmp_path / f"{name}-diag" / f).read_text())
                          for f in ("localization.json", "equivalence.json")]
        (loc, equiv), (loc_ref, equiv_ref) = outs["lattice"], outs["dense"]
        assert loc["member"] == loc_ref["member"]
        assert loc.get("exponent_drop_flagged") == loc_ref.get("exponent_drop_flagged")
        for entry, ref in zip(equiv["grid"], equiv_ref["grid"], strict=True):
            assert entry["weight_admissible"] == ref["weight_admissible"]
            weight = Weight.polynomial(entry["weight_power"], frame.index_set)
            assert entry["weight_admissible"] == weight_admissible(
                self.ALG, weight, frame.index_set.dim)
            np.testing.assert_allclose((entry["lower"], entry["upper"]),
                                       (ref["lower"], ref["upper"]), rtol=RTOL)

    def test_two_windows_on_one_lattice(self):
        # a Gabor frame, its dual and their pair all have symmetric profiles,
        # g(nu) = g(-nu); two windows give one that is not, so this checks
        # which way the lattice differences are taken
        frame, other = two_window_pair()
        profile = gram_magnitudes(frame, other)
        assert isinstance(profile, LatticeProfile)
        g = profile.values.reshape(profile.shape)
        assert np.abs(g - np.roll(g[::-1, ::-1], 1, axis=(0, 1))).max() > 0.1 * g.max()
        dense = DenseMagnitudes(frame, other)
        for kind, value in profile.algebra_norms(3.0).items():
            assert value == pytest.approx(dense.algebra_norms(3.0)[kind], rel=RTOL)
        bound = self.rounding_bound(frame, other)
        for (d, m), (d_ref, m_ref) in zip(profile.shell_maxima(), dense.shell_maxima(),
                                          strict=True):
            assert d == d_ref and abs(m - m_ref) <= bound
        # radial weights cannot tell a correlation from a convolution with
        # the mirrored profile; an explicit weight can
        weights = [Weight.polynomial(t, frame.index_set) for t in self.POWERS]
        weights.append(Weight(np.random.default_rng(1).uniform(0.5, 2.0, frame.size)))
        for w in weights:
            np.testing.assert_allclose(profile.weighted_sums(w.values),
                                       dense.weighted_sums(w.values), rtol=RTOL)


def two_window_pair(n=48, a=4, b=6):
    """A Gabor frame and a second window's frame on its lattice and index set."""
    x = np.arange(n)
    window = np.exp(-np.pi * (x - 5.0) ** 2 / n) * (1 + 0.3 * np.cos(x))
    frame = make_gabor_frame(n, a, b, window)
    other = Frame(np.roll(window, 7) * np.exp(6j * np.pi * x / n), frame.index_set,
                  name="other", lattice=(a, b))
    return frame, other


class TestProfileFromWindows:
    """The profile read from the two windows, spread over the torus as
    |G|_{k,l} = g[lambda_k - lambda_l], is the dense |G| to rounding."""

    @staticmethod
    def assert_profile_is_dense(left, right):
        # read from fresh frames of the two windows, which build no vectors
        fresh = [Frame(f.window, left.index_set, lattice=f.lattice) for f in (left, right)]
        profile = LatticeProfile(*fresh)
        assert [f._vectors for f in fresh] == [None, None]
        mt, mf = profile.shape
        g = profile.values.reshape(mt, mf)
        m, j = np.divmod(np.arange(left.size), mf)
        spread = g[(m[:, None] - m) % mt, (j[:, None] - j) % mf]
        dense = DenseMagnitudes(left, right).values
        assert np.abs(spread - dense).max() <= 2e-15 * dense.max()

    def test_suite_and_twin_frames(self, suite_frames, gabor_twins):
        frames = [f for f in suite_frames.values() if f.lattice] + [gabor_twins[0]]
        for frame in frames:
            dual = canonical_dual(frame)
            for left, right in [(frame, frame), (dual, dual), (frame, dual)]:
                self.assert_profile_is_dense(left, right)
        self.assert_profile_is_dense(*two_window_pair())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([(12, 2, 3), (24, 4, 2), (32, 8, 2), (36, 6, 3), (48, 4, 6)]),
           st.integers(0, 2**16), st.booleans())
    def test_random_windows(self, lattice, seed, swap):
        n, a, b = lattice
        rng = np.random.default_rng(seed)
        windows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        frame = make_gabor_frame(n, a, b, windows[0])
        other = Frame(windows[1], frame.index_set, lattice=(a, b))
        self.assert_profile_is_dense(*((other, frame) if swap else (frame, other)))


class TestProfileMemory:
    def test_profile_peaks_near_one_shift_stack(self):
        # Gabor 2048/16/32: the shifted windows are a view, so the peak is
        # their product with the right window, mt x n entries
        frame = make_gabor_frame(2048, 16, 32, gaussian_window(2048))
        dual = canonical_dual(frame)
        tracemalloc.start()
        try:
            LatticeProfile(frame, dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (2048 // 16) * 2048 * 16


def looped_probe_norm(m, out_space, in_space, probes, seed):
    """One real and one imaginary draw per probe, one product per probe."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        c = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
        nin = np.linalg.norm(in_space.weight.values * c, ord=in_space.effective_p)
        if nin:
            out = np.linalg.norm(out_space.weight.values * (m @ c),
                                 ord=out_space.effective_p)
            worst = max(worst, out / nin)
    return worst


class TestBatchedProbes:
    @pytest.mark.parametrize("p_in, p_out", [(1.0, math.inf), (2.0, 2.0),
                                             (math.inf, 1.0), (1.5, 3.0)])
    def test_matches_per_probe_loop(self, suite_frames, p_in, p_out):
        for name, frame in suite_frames.items():
            iset = frame.index_set
            m = gram(frame, canonical_dual(frame))
            in_space = SeqSpaceSpec(p_in, Weight.polynomial(1.0, iset))
            out_space = SeqSpaceSpec(p_out, Weight.polynomial(-0.5, iset))
            got = _probe_norm(m, out_space, in_space, probes=30, seed=3)
            want = looped_probe_norm(m, out_space, in_space, probes=30, seed=3)
            assert got == pytest.approx(want, rel=RTOL), name

    def test_no_probes_measure_zero(self):
        w = Weight.ones(4)
        assert _probe_norm(np.eye(4), SeqSpaceSpec(2, w), SeqSpaceSpec(2, w),
                           probes=0) == 0.0
