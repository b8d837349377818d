"""Quantities computed once and reused, against direct reference formulas.

The distance matrix and shell partition of an index set, the Gram
magnitudes behind the algebra norms and the decay fit, the equivalence
grid of ``frame diag`` and the batched probe norm are each checked on
every suite frame against the formula they stand for, written out here.
"""

import json
import math

import numpy as np
import pytest

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
)
from locframes.algebras import SHELL_FLOOR
from locframes.cli import main
from locframes.errors import NotLocalizedError
from locframes.galerkin import _probe_norm

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


def reference_report(g, iset, s):
    """Jaffard norm, Schur norm, shell maxima and fitted exponent of g."""
    d = reference_distances(iset)
    weighted = np.abs(g) * (1.0 + d) ** s
    jaffard = weighted.max()
    schur = max(weighted.sum(axis=1).max(), weighted.sum(axis=0).max())
    dist = np.round(d, 9)
    shells = [(float(r), float(np.abs(g)[dist == r].max())) for r in np.unique(dist)]
    usable = [(r, m) for r, m in shells if m >= SHELL_FLOOR]
    exponent = math.inf
    if len(usable) >= 4:
        exponent = -np.polyfit(np.log1p([r for r, _ in usable]),
                               np.log([m for _, m in usable]), 1)[0]
    return jaffard, schur, shells, exponent


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
                jaffard, schur, shells, exponent = reference_report(
                    gram(left, right), frame.index_set, alg.s)
                assert rep.norms["jaffard"] == pytest.approx(jaffard, rel=RTOL), name
                assert rep.norms["schur_weighted"] == pytest.approx(schur, rel=RTOL), name
                assert rep.fit.shell_maxima == shells, name
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
