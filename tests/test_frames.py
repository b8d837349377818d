"""Frame constructors and the four canonical operators."""

import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from locframes import (
    Frame,
    IndexSet,
    InvalidInputError,
    NotAFrameError,
    SeqSpaceSpec,
    Weight,
    analysis,
    canonical_dual,
    dual_pairing,
    frame_bounds,
    frame_operator,
    gaussian_window,
    gram,
    jaffard_norm,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_translates_frame,
    riesz_bounds,
    synthesis,
)
from locframes.frames import analysis_r_adjoint, analysis_r_product, gabor_system, walnut_r
from locframes.galerkin import galerkin_core
from locframes.linalg import spectrum
from locframes.opnorms import (
    exact_operator_norm,
    rayleigh_lower_l2,
    weighted_matrix,
)

from conftest import (analysis_q, complex_copy, decaying_generator, dense_twin,
                      mercedes_frame, riesz_sequence)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestAnalysisSynthesis:
    def test_onb_analysis_is_coordinates(self):
        onb = make_onb(5)
        f = np.zeros(5, dtype=complex)
        f[1] = 1.0
        assert np.allclose(analysis(onb, f), f)

    def test_duplicated_onb_repeats_coefficients(self, rng):
        two = Frame(np.hstack([np.eye(4), np.eye(4)]), IndexSet.ring(8), "two-onb")
        f = random_vec(rng, 4)
        c = analysis(two, f)
        assert np.allclose(c[:4], c[4:])

    def test_frame_inequality_sandwich(self, suite_frames, rng):
        for frame in suite_frames.values():
            a, b = frame_bounds(frame)
            for _ in range(20):
                f = random_vec(rng, frame.ambient_dim)
                energy = np.sum(np.abs(analysis(frame, f)) ** 2)
                nf2 = np.linalg.norm(f) ** 2
                assert a * nf2 * (1 - 1e-10) <= energy <= b * nf2 * (1 + 1e-10)

    def test_onb_synthesis_returns_vector(self):
        onb = make_onb(6)
        c = np.zeros(6)
        c[3] = 1.0
        assert np.allclose(synthesis(onb, c), onb.vectors[:, 3])

    def test_dual_coefficients_reconstruct(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        f = random_vec(rng, 64)
        rec = synthesis(frame, analysis(canonical_dual(frame), f))
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)

    def test_riesz_basis_synthesis_sandwich(self, rng):
        frame = make_perturbed_onb(32, 3, 3)
        rb = riesz_bounds(frame)
        assert rb.riesz
        lo, hi = rb.bounds
        for _ in range(20):
            c = random_vec(rng, 32)
            ns = np.linalg.norm(synthesis(frame, c)) ** 2
            nc = np.linalg.norm(c) ** 2
            assert lo * nc * (1 - 1e-10) <= ns <= hi * nc * (1 + 1e-10)

    def test_adjointness(self, suite_frames, rng):
        for frame in suite_frames.values():
            c = random_vec(rng, frame.size)
            f = random_vec(rng, frame.ambient_dim)
            lhs = np.vdot(f, synthesis(frame, c))  # <D c, f>
            rhs = dual_pairing(c, analysis(frame, f))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


class TestFrameOperatorAndBounds:
    def test_onb_identity(self):
        onb = make_onb(7)
        assert np.allclose(frame_operator(onb), np.eye(7))
        assert tuple(frame_bounds(onb)) == pytest.approx((1.0, 1.0))

    def test_two_copies_doubles(self):
        two = Frame(np.hstack([np.eye(4), np.eye(4)]), IndexSet.ring(8), "two-onb")
        assert np.allclose(frame_operator(two), 2 * np.eye(4))

    def test_mercedes(self):
        mer = mercedes_frame()
        assert np.allclose(frame_operator(mer), 1.5 * np.eye(2), atol=1e-12)
        a, b = frame_bounds(mer)
        assert a == pytest.approx(1.5, abs=1e-12)
        assert b == pytest.approx(1.5, abs=1e-12)
        assert frame_bounds(mer).tight

    def test_deleted_vector_is_not_a_frame(self):
        deficient = Frame(np.eye(5)[:, :4], IndexSet.ring(4), "gap")
        with pytest.raises(NotAFrameError) as err:
            frame_bounds(deficient)
        assert err.value.numerical_rank == 4

    def test_scaled_tight_frame_bounds(self):
        mer = mercedes_frame()
        scaled = Frame(2.0 * mer.vectors, mer.index_set, "scaled")
        a, b = frame_bounds(scaled)
        assert (a, b) == pytest.approx((6.0, 6.0))


class TestCanonicalDual:
    def test_tight_frame_dual_is_rescaling(self):
        mer = mercedes_frame()
        dual = canonical_dual(mer)
        assert np.allclose(dual.vectors, mer.vectors / 1.5)

    def test_onb_self_dual(self):
        onb = make_onb(6)
        assert np.allclose(canonical_dual(onb).vectors, onb.vectors)

    def test_gabor_reconstruction_identities(self, rng):
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        dual = canonical_dual(frame)
        recon1 = frame.vectors @ np.conj(dual.vectors.T)
        recon2 = dual.vectors @ np.conj(frame.vectors.T)
        assert np.linalg.norm(recon1 - np.eye(16), 2) <= 1e-10
        assert np.linalg.norm(recon2 - np.eye(16), 2) <= 1e-10

    def test_cached_dual_solves_frame_operator(self, suite_frames):
        for frame in suite_frames.values():
            dual = canonical_dual(frame)
            s = frame_operator(frame)
            defect = np.linalg.norm(s @ dual.vectors - frame.vectors)
            assert defect <= 1e-10 * np.linalg.norm(frame.vectors)

    def test_reconstruction_invariant_full_suite(self, suite_frames, rng):
        for frame in suite_frames.values():
            dual = canonical_dual(frame)
            for _ in range(100):
                f = random_vec(rng, frame.ambient_dim)
                r1 = synthesis(dual, analysis(frame, f))
                r2 = synthesis(frame, analysis(dual, f))
                nf = np.linalg.norm(f)
                assert np.linalg.norm(r1 - f) <= 1e-10 * nf
                assert np.linalg.norm(r2 - f) <= 1e-10 * nf

    @pytest.mark.parametrize("make", [
        lambda: make_gabor_frame(16, 4, 2, gaussian_window(16)),
        lambda: make_perturbed_onb(16, 3, 7),
    ])
    def test_dual_pair_freed_without_cyclic_collection(self, make):
        frame = make()
        dual = canonical_dual(frame)
        assert canonical_dual(frame) is dual and canonical_dual(dual) is frame
        refs = [weakref.ref(frame), weakref.ref(dual)]
        gc.disable()
        try:
            del frame, dual
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestGram:
    def test_onb_gram_identity(self):
        onb = make_onb(5)
        assert np.allclose(gram(onb, onb), np.eye(5))

    def test_gram_equals_analysis_of_synthesis(self, suite_frames, rng):
        frame = suite_frames["translates"]
        g = gram(frame, frame)
        for _ in range(5):
            c = random_vec(rng, frame.size)
            assert np.allclose(g @ c, analysis(frame, synthesis(frame, c)))

    def test_gram_with_dual_is_projection(self, suite_frames):
        for frame in suite_frames.values():
            p = gram(frame, canonical_dual(frame))
            assert np.linalg.norm(p @ p - p, 2) <= 1e-10
            assert np.linalg.norm(p - np.conj(p.T), 2) <= 1e-10

    def test_gram_spectrum_between_bounds(self, suite_frames):
        frame = suite_frames["gabor16"]
        a, b = frame_bounds(frame)
        w = np.linalg.eigvalsh(gram(frame, frame))
        nonzero = w[w > 1e-10 * w[-1]]
        assert nonzero[0] >= a * (1 - 1e-10)
        assert nonzero[-1] <= b * (1 + 1e-10)

    def test_range_identity(self, suite_frames, rng):
        # dual-frame coefficients are a fixed point of the cross-Gram
        for frame in suite_frames.values():
            dual = canonical_dual(frame)
            g = gram(dual, frame)
            f = random_vec(rng, frame.ambient_dim)
            c = analysis(dual, f)
            assert np.linalg.norm(g @ c - c) <= 1e-10 * np.linalg.norm(c)

    def test_projection_coefficient_fixed_point(self, suite_frames, rng):
        frame = suite_frames["gabor64"]
        dual = canonical_dual(frame)
        p = gram(frame, dual)
        f = random_vec(rng, 64)
        c = analysis(dual, f)
        assert np.linalg.norm(p @ c - c) <= 1e-10 * np.linalg.norm(c)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_projection_norm_at_least_one(self, suite_frames, p, t):
        for frame in suite_frames.values():
            proj = gram(canonical_dual(frame), frame)
            w = Weight.polynomial(t, frame.index_set)
            pb = weighted_matrix(proj, w.values, w.values)
            if p == 2:
                norm = rayleigh_lower_l2(pb)
            else:
                norm = exact_operator_norm(pb, p, p)
            assert norm >= 1 - 1e-10


class TestRiesz:
    def test_onb(self):
        rb = riesz_bounds(make_onb(6))
        assert rb.riesz and tuple(rb.bounds) == pytest.approx((1.0, 1.0))

    def test_two_copies_not_riesz(self):
        two = Frame(np.hstack([np.eye(4), np.eye(4)]), IndexSet.ring(8), "two-onb")
        rb = riesz_bounds(two)
        assert not rb.riesz and rb.gram_rank == 4

    def test_small_perturbation_bounds(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((8, 8))
        e *= 0.1 / np.linalg.norm(e, 2)
        rb = riesz_bounds(Frame(np.eye(8) + e, IndexSet.line(8), "pert"))
        lo, hi = rb.bounds
        assert 0.81 <= lo and hi <= 1.21


class TestConstructors:
    def test_gabor_redundant_lattice(self):
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        assert frame.size == 32
        a, b = frame_bounds(frame)
        assert 0 < a <= b < np.inf

    def test_gabor_critical_gaussian_is_singular(self):
        # even Gaussian window at critical density: exact Zak-transform zero
        frame = make_gabor_frame(16, 4, 4, gaussian_window(16))
        with pytest.raises(NotAFrameError) as err:
            frame_bounds(frame)
        assert err.value.numerical_rank == 15

    def test_gabor_point_frequency_lattice_is_tight(self):
        w = np.zeros(16)
        w[0] = 1.0
        frame = make_gabor_frame(16, 1, 1, w)
        a, b = frame_bounds(frame)
        assert frame_bounds(frame).tight
        assert a == pytest.approx(16.0)

    def test_gaussian_gabor_frame_holds_no_subnormals(self):
        # at n = 1024 the Gaussian's tail lies below the smallest normal
        # double; those entries, and their modulations, are exact zeros
        def subnormals(z):
            parts = np.stack([z.real, z.imag])
            return np.count_nonzero((parts != 0) & (np.abs(parts) < np.finfo(float).tiny))

        frame = make_gabor_frame(1024, 32, 16, gaussian_window(1024))
        arrays = (gaussian_window(1024), gaussian_window(2048), frame.vectors,
                  canonical_dual(frame).vectors)
        assert [subnormals(z) for z in arrays] == [0, 0, 0, 0]
        assert np.count_nonzero(frame.vectors[:, 0] == 0) > 0

    def test_gabor_too_few_vectors(self):
        with pytest.raises(NotAFrameError):
            make_gabor_frame(16, 8, 4, gaussian_window(16))

    def test_gabor_divisibility(self):
        with pytest.raises(Exception, match="divide"):
            make_gabor_frame(16, 3, 2, gaussian_window(16))

    def test_a_lattice_frame_spans_only_with_n_vectors(self):
        # 4 time-frequency shifts cannot span C^16, though the singular
        # values of the Walnut R_t alone would give bounds near 1
        window = gaussian_window(16)
        with pytest.raises(NotAFrameError, match="4 vectors < ambient dimension 16"):
            Frame(window, IndexSet.torus_grid(2, 2), lattice=(8, 8))
        for lattice in ((3, 2), (2, 5), (0, 4)):
            with pytest.raises(InvalidInputError, match="divide"):
                Frame(window, IndexSet.torus_grid(4, 4), lattice=lattice)

    def test_translates_of_spike_is_onb(self):
        gen = np.zeros(8)
        gen[0] = 1.0
        frame = make_translates_frame(8, gen)
        assert np.allclose(frame.vectors, np.eye(8))

    def test_translates_bounds(self):
        frame = make_translates_frame(64, decaying_generator(64))
        a, b = frame_bounds(frame)
        assert 0 < a <= b < np.inf

    def test_translates_are_the_circulant_of_the_generator(self):
        g = decaying_generator(16)
        frame = make_translates_frame(16, g)
        assert np.array_equal(frame.vectors,
                              np.stack([np.roll(g, m) for m in range(16)], axis=1))
        assert frame.name == "translates16s1"
        assert frame.meta == {"kind": "translates", "n": 16, "step": 1}
        iset = frame.index_set
        assert (iset.metric, iset.moduli, iset.scales) == ("circular", (16.0,), (1.0,))

    def test_zero_mean_generator_rank_deficient(self):
        gen = np.zeros(8)
        gen[0], gen[1] = 1.0, -1.0
        frame = make_translates_frame(8, gen)
        with pytest.raises(NotAFrameError):
            frame_bounds(frame)

    def test_perturbed_onb_certified_decay(self):
        frame = make_perturbed_onb(64, 3, 7)
        a, b = frame_bounds(frame)
        assert 0.5 <= a <= b <= 1.6
        norm = jaffard_norm(gram(frame, frame), 3.0, frame.index_set)
        assert np.isfinite(norm) and norm <= 1.5

    def test_column_norms_hold_no_frame_sized_temporary(self):
        # K = 4096: the frame is 33.5 MB
        gabor = make_gabor_frame(512, 8, 8, gaussian_window(512))
        v = np.array(gabor.vectors)
        tracemalloc.start()
        try:
            frame = Frame(v, gabor.index_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes / 4
        assert frame.min_vector_norm() == np.linalg.norm(v, axis=0).min()
        v[:, 300] = 0   # past the first column block
        with pytest.raises(InvalidInputError, match="zero vectors"):
            Frame(v, gabor.index_set)

    def test_perturbed_onb_deterministic(self):
        f1 = make_perturbed_onb(16, 2, 5)
        f2 = make_perturbed_onb(16, 2, 5)
        assert np.array_equal(f1.vectors, f2.vectors)


def relative_gap(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


class TestGaborStructure:
    """The Walnut factorization of a Gabor frame against the dense path."""

    def test_lattice_set_by_constructor_and_dual(self, gabor_twins):
        frame, dense = gabor_twins
        assert frame.lattice == (frame.meta["a"], frame.meta["b"])
        assert canonical_dual(frame).lattice == frame.lattice
        assert dense.lattice is None

    def test_bounds_match_dense(self, gabor_twins):
        frame, dense = gabor_twins
        for got, ref in zip(frame_bounds(frame), frame_bounds(dense)):
            assert got == pytest.approx(ref, rel=1e-12)

    def test_dual_matches_dense(self, gabor_twins):
        frame, dense = gabor_twins
        dual = canonical_dual(frame)
        assert relative_gap(dual.vectors, canonical_dual(dense).vectors) <= 1e-12
        for got, ref in zip(frame_bounds(dual), frame_bounds(canonical_dual(dense))):
            assert got == pytest.approx(ref, rel=1e-12)

    def test_structured_qr_factors_the_analysis_matrix(self, gabor_twins):
        # V^* = Q R with orthonormal Q: R^* R = S and V^* R^{-1} is Q
        frame, _ = gabor_twins
        r = analysis_r_product(frame, np.eye(frame.ambient_dim))
        assert r.shape == (frame.ambient_dim, frame.ambient_dim)
        assert relative_gap(np.conj(r.T) @ r, frame_operator(frame)) <= 1e-14
        q = analysis_q(frame)
        assert np.linalg.norm(np.conj(q.T) @ q - np.eye(q.shape[1]), 2) <= 1e-13

    def test_r_without_q(self, gabor_twins):
        # a Gabor frame holds the Walnut R_t and forms R X from them; a dense
        # frame holds its one block R_0
        frame, dense = gabor_twins
        n, b = frame.ambient_dim, frame.lattice[1]
        fresh = Frame(frame.window, frame.index_set, lattice=frame.lattice)
        r = analysis_r_product(fresh, np.eye(n))
        assert fresh._r.shape == (n // b, b, b)
        assert not fresh._r.flags.writeable
        assert np.array_equal(r, analysis_r_product(frame, np.eye(n)))
        r_dense = analysis_r_product(dense, np.eye(n))
        assert dense._r.shape == (1, n, n) and not dense._r.flags.writeable
        assert r_dense.shape == (n, n)

    def test_r_adjoint_by_blocks(self, gabor_twins, rng):
        # R^* c one Walnut block at a time, and for one block (K >= n or
        # K < n) the product with R_0^*
        frame, dense = gabor_twins
        for f in (frame, dense, riesz_sequence()):
            r = analysis_r_product(f, np.eye(f.ambient_dim))
            c = random_vec(rng, r.shape[0])
            ref = np.conj(r.T) @ c
            assert relative_gap(analysis_r_adjoint(f, c), ref) <= 1e-14

    def test_window_frame_builds_vectors_once(self):
        window = gaussian_window(48).astype(complex)
        frame = Frame(window, IndexSet.torus_grid(12, 8), lattice=(4, 6))
        assert (frame.ambient_dim, frame.size, frame._vectors) == (48, 96, None)
        assert frame.vectors is frame.vectors and not frame.vectors.flags.writeable
        assert np.array_equal(frame.vectors, make_gabor_frame(48, 4, 6, window).vectors)
        assert not frame.window.flags.writeable and window.flags.writeable
        with pytest.raises(InvalidInputError):
            Frame(np.zeros(48), IndexSet.torus_grid(12, 8), lattice=(4, 6))

    def test_a_lattice_frame_is_given_as_its_window(self):
        # one form: vectors with a lattice, or a window without one, are refused,
        # and no argument chooses the layout of the vectors built
        frame = make_gabor_frame(48, 4, 6, gaussian_window(48))
        for vectors, lattice in ((frame.vectors, frame.lattice), (frame.window, None)):
            with pytest.raises(InvalidInputError):
                Frame(vectors, frame.index_set, lattice=lattice)
        for build in (Frame, gabor_system):
            assert "order" not in inspect.signature(build).parameters
        assert frame.vectors.flags.c_contiguous

    def test_dense_r_peaks_near_one_analysis_matrix(self):
        # the lattice-free twin of Gabor 256/4/4, K = 4096: V^* and the QR's
        # workspace, but no K x n Q
        frame = dense_twin(make_gabor_frame(256, 4, 4, gaussian_window(256)))
        tracemalloc.start()
        try:
            analysis_r_product(frame, np.eye(frame.ambient_dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * frame.vectors.nbytes

    def test_walnut_r_peaks_near_its_blocks(self):
        # Gabor 2048/16/32, K = 8192: the Walnut blocks are a view of the
        # window's shifts, so the peak is R and the QR's copy of the blocks
        frame = make_gabor_frame(2048, 16, 32, gaussian_window(2048))
        tracemalloc.start()
        try:
            walnut_r(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * frame.size * frame.lattice[1] * 16

    def test_walnut_r_is_c_contiguous(self, gabor_twins):
        # the batched products that read R round by its strides
        assert all(walnut_r(frame).flags.c_contiguous for frame in gabor_twins)

    def test_critical_gaussian_rank_matches_dense(self):
        frame = make_gabor_frame(16, 4, 4, gaussian_window(16))
        ranks = []
        for f in (frame, dense_twin(frame)):
            with pytest.raises(NotAFrameError) as err:
                frame_bounds(f)
            ranks.append(err.value.numerical_rank)
        assert ranks == [15, 15]

    def test_phases_are_reduced(self):
        # the far Gram entries of a Gaussian Gabor frame sit at the rounding
        # level instead of carrying the error of an unreduced phase argument
        frame = make_gabor_frame(256, 8, 8, gaussian_window(256))
        x = np.arange(256)
        j = 256 // 8 - 1
        exact = np.exp(2j * np.pi * ((j * 8 * x) % 256) / 256)
        assert np.array_equal(frame.vectors[:, j], frame.vectors[:, 0] * exact)
        d = frame.index_set.distance_matrix()
        far = np.abs(gram(frame, frame))[d >= 0.7 * d.max()]
        assert far.max() <= 1e-15   # about 4e-14 with unreduced phases


REAL_FRAMES = ("onb", "translates")


class TestNumberField:
    """Real frames stay float64 and agree with their complex128 copies."""

    @pytest.mark.parametrize("name", REAL_FRAMES)
    def test_real_frame_stays_real(self, suite_frames, name):
        frame = suite_frames[name]
        for arr in (frame.vectors, frame_operator(frame),
                    analysis_r_product(frame, np.eye(frame.ambient_dim)),
                    canonical_dual(frame).vectors, gram(frame, frame)):
            assert arr.dtype == np.float64

    @pytest.mark.parametrize("name", REAL_FRAMES)
    def test_real_frame_matches_complex_copy(self, suite_frames, name):
        frame = suite_frames[name]
        twin = complex_copy(frame)
        for real, cplx in zip(frame_bounds(frame), frame_bounds(twin)):
            assert real == pytest.approx(cplx, rel=1e-12)
        dual, dual_twin = canonical_dual(frame).vectors, canonical_dual(twin).vectors
        assert np.linalg.norm(dual - dual_twin) <= 1e-12 * np.linalg.norm(dual)
        cores = [galerkin_core(np.eye(f.ambient_dim), f, f)[0] for f in (frame, twin)]
        assert cores[0].dtype == np.float64
        real, cplx = (spectrum(core) for core in cores)
        rank = real.rank
        assert cplx.rank == rank
        assert np.allclose(real.values[:rank], cplx.values[:rank], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_input_shared_not_copied(self, dtype):
        vectors = np.eye(4, dtype=dtype)
        frame = Frame(vectors, IndexSet.ring(4))
        assert frame.vectors.dtype == dtype
        assert np.shares_memory(frame.vectors, vectors)
        assert not frame.vectors.flags.writeable
        assert vectors.flags.writeable

    def test_integer_input_becomes_float64(self):
        frame = Frame(np.eye(3, dtype=int), IndexSet.ring(3))
        assert frame.vectors.dtype == np.float64

    def test_complex_generator_gives_complex_translates(self):
        gen = decaying_generator(8) * np.exp(0.3j)
        frame = make_translates_frame(8, gen)
        assert frame.vectors.dtype == np.complex128
        assert np.allclose(frame.vectors[:, 0], gen)


class TestCoorbitNormScaling:
    def test_tight_frame_coorbit_matches_parseval(self, rng):
        from locframes import CoorbitSpec, coorbit_norm

        mer = mercedes_frame()
        spec = CoorbitSpec(mer, SeqSpaceSpec(2, Weight.ones(3)))
        f = rng.standard_normal(2)
        # dual coefficients of a tight frame are scaled by 1/A
        assert coorbit_norm(f, spec) == pytest.approx(np.linalg.norm(f) / np.sqrt(1.5))


class TestWeightedMatrix:
    """weighted_matrix equals diag(w_out) m diag(1/w_in) as numpy forms it
    with complex arithmetic, entry for entry."""

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_direct_formula(self, field, order):
        rng = np.random.default_rng(71)
        m = rng.standard_normal((40, 30))
        if field == "complex":
            m = m + 1j * rng.standard_normal((40, 30))
        m = np.asarray(m, order=order)
        w_out = (1.0 + np.arange(40)) ** 1.5
        w_in = np.exp(rng.standard_normal(30))
        got = weighted_matrix(m, w_out, w_in)
        assert got.dtype == m.dtype
        assert np.array_equal(got, (w_out[:, None] * m) / w_in[None, :])
