"""Operators held as their symbol against the same operators held dense.

The core R_l O R_r^* of a Gabor frame pair is block-diagonal on the Fourier
side for a circulant O and on the time side for a diagonal O, and the
Galerkin matrix is gathered from the Walnut blocks there.  Every result read
from the blocks is compared with the dense path on the same matrix held
without its symbol, which stays the reference.
"""

import warnings

import numpy as np
import pytest

import locframes
from locframes import (
    LinearOperator,
    canonical_dual,
    gaussian_window,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_translates_frame,
)
from locframes.errors import LocframesError
from locframes.galerkin import (
    _range_projection_defect,
    compose_rule_check,
    galerkin_core,
    galerkin_matrix,
    galerkin_pseudoinverse,
    idempotency_residual,
    kappa_factorization_probe,
    roundtrip_check,
)
from locframes.linalg import spectrum
from locframes.solver import METHODS, frame_galerkin_solve, make_test_operator

from conftest import decaying_generator

OPERATORS = ["identity", "kernel_half", "kernel_one", "helmholtz", "indefinite", "singular"]
SUITE_GABOR = ["gabor16", "gabor64", "gabor144"]


def make_operator(name, n):
    """One operator of the test matrix, held as its symbol."""
    if name == "identity":
        return LinearOperator.identity(n)
    if name.startswith("kernel"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return make_test_operator("identity_minus_kernel", n,
                                      theta=0.5 if name == "kernel_half" else 1.0)
    if name == "helmholtz":
        return make_test_operator("helmholtz_toy", n)
    d = np.random.default_rng(1).uniform(0.5, 2.0, n)
    if name == "indefinite":
        d[::3] *= -1
    else:
        d[::5] = 0.0
    return make_test_operator("diagonal", n, spectrum=d)


def held_dense(op):
    return LinearOperator(op.dense(), op.name)


def relative(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))


def outcome(solve, *args):
    """The solution and report, or the error code."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return solve(*args)
    except LocframesError as err:
        return err.payload()["code"]


def rhs(n):
    rng = np.random.default_rng(3)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def assert_solves_match(op, frame, method):
    g = rhs(frame.ambient_dim)
    got = outcome(frame_galerkin_solve, op, g, frame, method)
    ref = outcome(frame_galerkin_solve, held_dense(op), g, frame, method)
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    (f, report), (f_ref, report_ref) = got, ref
    level, level_ref = report.levels[0], report_ref.levels[0]
    for key in ("singular", "decomposition", "iterations", "normal_equations", "diverged"):
        assert getattr(level, key) == getattr(level_ref, key), key
    assert report.converged == report_ref.converged
    for key in ("kappa_dagger", "inverse_norm"):
        assert getattr(level, key) == pytest.approx(getattr(level_ref, key), rel=1e-12)
    # CG on the normal equations runs tens of steps to its tolerance of
    # 1e-10, carrying the rounding of the block and the dense products: the
    # two solutions agree to 6.1e-12 on Gabor 144/12/6, not to 1e-12
    assert relative(f, f_ref) <= (1e-11 if level.normal_equations else 1e-12)


def assert_checks_match(op, frame):
    dense, dual = held_dense(op), canonical_dual(frame)
    for check in (roundtrip_check, lambda o, phi, psi: compose_rule_check(o, o, phi, psi, phi)):
        got, ref = check(op, frame, dual), check(dense, frame, dual)
        assert got <= 1e-12 and ref <= 1e-12
    got, ref = idempotency_residual(op, frame, dual), idempotency_residual(dense, frame, dual)
    assert abs(got - ref) <= 1e-12 * max(ref, 1.0)
    got = outcome(kappa_factorization_probe, op, frame, dual)
    ref = outcome(kappa_factorization_probe, dense, frame, dual)
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    assert got["submultiplicative"] == ref["submultiplicative"]
    for key in ("lhs", "rhs", "ratio"):
        assert got[key] == pytest.approx(ref[key], rel=1e-12)


class TestSymbolOperator:
    @pytest.mark.parametrize("name", OPERATORS)
    def test_apply_and_spectrum_match_the_matrix(self, name):
        op = make_operator(name, 48)
        dense = held_dense(op)
        assert op.side == ("time" if name in ("indefinite", "singular") else "fourier")
        f = rhs(48)
        assert relative(op.apply(f), dense.apply(f)) <= 1e-14
        assert op.spectrum.decomposition == "symbol"
        values = dense.spectrum.values
        assert np.abs(op.spectrum.values - values).max() <= 1e-13 * values[0]

    def test_dense_matrix_is_built_on_first_use(self):
        op = make_test_operator("identity_minus_kernel", 16, theta=0.5)
        # neither the matrix nor the symbol (an FFT) is formed with the operator
        assert op._matrix is None and "symbol" not in vars(op)
        m = op.dense()
        # exactly circulant: every row is the first column shifted
        for i in range(16):
            assert np.array_equal(m[:, i], np.roll(m[:, 0], i))
        assert op.dense() is m
        assert np.array_equal(LinearOperator.identity(16).dense(), np.eye(16))

    def test_kernel_column_is_normalized_once(self):
        n = 40
        column = make_test_operator("identity_minus_kernel", n, theta=0.5).dense()[:, 0]
        d = np.minimum(np.arange(n), n - np.arange(n))
        t = (1.0 + d) ** -3.0
        assert relative(column, np.eye(n)[0] - 0.5 * t / t.sum()) <= 1e-16


class TestSides:
    @pytest.mark.parametrize("name", OPERATORS)
    def test_block_shapes_name_the_side(self, gabor_twins, name):
        frame, _ = gabor_twins
        n, (a, b) = frame.ambient_dim, frame.lattice
        op = make_operator(name, n)
        core, _ = galerkin_core(op, frame, frame)
        # n / a blocks of order a on the Fourier side, n / b of order b on the time side
        assert core.shape == ((n // b, b, b) if op.side == "time" else (n // a, a, a))
        dense_core = galerkin_core(op.dense(), frame, frame)[0]
        s, s_ref = spectrum(core).values, spectrum(dense_core).values
        assert np.abs(s - s_ref).max() <= 1e-13 * s_ref[0]

    def test_identity_on_either_side(self, gabor_twins):
        # the identity is circulant and diagonal: both sides give the dense results
        frame, _ = gabor_twins
        n = frame.ambient_dim
        time = LinearOperator(np.ones(n), "identity", side="time")
        assert LinearOperator.identity(n).side == "fourier"
        for op in (time, LinearOperator.identity(n)):
            assert_checks_match(op, frame)
            for method in METHODS:
                assert_solves_match(op, frame, method)

    def test_pairs_without_one_lattice_stay_dense(self, gabor_twins):
        frame, twin = gabor_twins
        n = frame.ambient_dim
        a, b = frame.lattice
        others = [twin, make_onb(n), make_perturbed_onb(n, 3.0, 5),
                  make_translates_frame(n, decaying_generator(n))]
        if a != b:
            others.append(make_gabor_frame(n, b, a, gaussian_window(n)))
        op = make_test_operator("identity_minus_kernel", n, theta=0.5)
        dense = held_dense(op)
        for other in others:
            # a dense core is one n x n matrix, a block core a stack
            assert galerkin_core(op, frame, other)[0].ndim == 2
            assert (galerkin_core(op, other, other)[0].ndim == 2) == (other.lattice is None)
            if other.size == frame.size:
                # the dense rule, scaled by ||O|| from the symbol
                assert roundtrip_check(op, frame, other) == pytest.approx(
                    roundtrip_check(dense, frame, other), rel=1e-12)
        g = rhs(n)
        f, report = frame_galerkin_solve(op, g, twin)
        f_ref, report_ref = frame_galerkin_solve(dense, g, twin)
        # the dense core, solved as before; only O f - g goes through the FFT
        assert np.array_equal(f, f_ref) and report.converged == report_ref.converged
        level, level_ref = report.levels[0].to_dict(), report_ref.levels[0].to_dict()
        assert level.pop("residual") == pytest.approx(level_ref.pop("residual"), rel=1e-3)
        assert level == level_ref
        assert galerkin_core(dense, frame, frame)[0].ndim == 2


class TestMatchesDense:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", OPERATORS)
    def test_solve(self, gabor_twins, name, method):
        frame, _ = gabor_twins
        assert_solves_match(make_operator(name, frame.ambient_dim), frame, method)

    @pytest.mark.parametrize("name", OPERATORS)
    def test_checks(self, gabor_twins, name):
        frame, _ = gabor_twins
        assert_checks_match(make_operator(name, frame.ambient_dim), frame)

    @pytest.mark.parametrize("key", SUITE_GABOR)
    @pytest.mark.parametrize("name", OPERATORS)
    def test_suite_frames(self, suite_frames, key, name):
        frame = suite_frames[key]
        op = make_operator(name, frame.ambient_dim)
        assert_checks_match(op, frame)
        for method in METHODS:
            assert_solves_match(op, frame, method)

    def test_identity_against_the_dual_is_idempotent(self, gabor_twins):
        frame, _ = gabor_twins
        op = LinearOperator.identity(frame.ambient_dim)
        assert idempotency_residual(op, frame, canonical_dual(frame)) <= 1e-12


def assert_entries_match(op, left, right):
    """The Galerkin matrix of a symbol against the GEMM rule on the matrix held
    without it, entrywise within 1e-13 max|M|."""
    got = galerkin_matrix(op, left, right).entries
    ref = galerkin_matrix(held_dense(op), left, right).entries
    assert got.shape == ref.shape and got.flags.f_contiguous
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestLatticeAssembly:
    """A lattice pair's Galerkin matrix gathered from its Walnut stack equals
    the GEMM rule, for every block width."""

    # K = 32 ... 1024 with mf = 8 ... 32 columns per time shift: blocks of 5
    # split every time shift, of 24 those with mf = 16 and 32, and a width
    # that does not divide K leaves a ragged last block
    @pytest.mark.parametrize("columns", [256, 24, 5])
    @pytest.mark.parametrize("name", OPERATORS)
    def test_frame_and_dual(self, gabor_twins, name, columns, monkeypatch):
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", columns)
        frame, _ = gabor_twins
        assert_entries_match(make_operator(name, frame.ambient_dim), frame, canonical_dual(frame))

    @pytest.mark.parametrize("name", OPERATORS)
    def test_frame_against_itself(self, gabor_twins, name):
        frame, _ = gabor_twins
        assert_entries_match(make_operator(name, frame.ambient_dim), frame, frame)

    @pytest.mark.parametrize("key", SUITE_GABOR)
    @pytest.mark.parametrize("name", OPERATORS)
    def test_suite_frames(self, suite_frames, key, name):
        frame = suite_frames[key]
        op = make_operator(name, frame.ambient_dim)
        for left, right in ((frame, canonical_dual(frame)), (canonical_dual(frame), frame)):
            assert_entries_match(op, left, right)


class TestPseudoInverse:
    """O^{-1} is held as O is: the pseudo-inverse and its range-projection
    defect match those of the same matrix held without its symbol."""

    @pytest.mark.parametrize("name", OPERATORS)
    def test_matches_the_dense_inverse(self, gabor_twins, name, monkeypatch):
        frame, _ = gabor_twins
        op, dual = make_operator(name, frame.ambient_dim), canonical_dual(frame)
        gm, gm_ref = galerkin_matrix(op, frame, dual), galerkin_matrix(held_dense(op), frame, dual)
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda x: inverses.append(x) or inv(x))
        got = outcome(galerkin_pseudoinverse, gm, frame, dual)
        assert inverses == []
        ref = outcome(galerkin_pseudoinverse, gm_ref, frame, dual)
        if isinstance(ref, str) or isinstance(got, str):
            assert got == ref == "bijectivity"
            return
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # the dagger matrices the check reads, as galerkin_pseudoinverse forms them
        held = 1 / op.symbol
        inv_op = LinearOperator(np.fft.ifft(held) if op.side == "fourier" else held, side=op.side)
        dagger = galerkin_matrix(inv_op, frame, dual)
        dagger_ref = galerkin_matrix(LinearOperator(inv(op.dense())), frame, dual)
        assert galerkin_core(inv_op, frame, dual)[0].ndim == 3
        defect, defect_ref = (_range_projection_defect(dagger, gm),
                              _range_projection_defect(dagger_ref, gm_ref))
        assert defect <= 1e-12 and abs(defect - defect_ref) <= 1e-12
