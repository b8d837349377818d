"""Property tests on random and near-degenerate matrices and frames.

Every ``CERTIFICATE_CASES`` entry must bound the exact operator norm
where one is known and the probe measurement everywhere, at scales from
1e-12 to 1e12; the cases with a closed form must report exactly that
norm, and ``two_two`` the true spectral norm.  Canonical duals must
reconstruct and their Gram projection be idempotent, with errors that
grow no faster than the condition number of the frame operator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locframes import (
    Frame,
    IndexSet,
    InvalidInputError,
    Weight,
    analysis,
    canonical_dual,
    frame_bounds,
    gram,
    schur_certificate,
    synthesis,
)
from locframes.galerkin import CERTIFICATE_CASES, certificate_probe_norm
from locframes.linalg import circular_shifts
from locframes.opnorms import exact_operator_norm, weighted_matrix

SLACK = 1e-12

SHAPES = ("random", "rank_one", "nearly_rank_one", "rank_deficient",
          "one_entry", "zero_column")


@st.composite
def matrices(draw):
    """A complex matrix of a drawn shape, size and scale."""
    k_out, k_in = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    shape = draw(st.sampled_from(SHAPES))
    scale = draw(st.sampled_from((1e-12, 1.0, 1e12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    m = gauss(k_out, k_in)
    if shape == "rank_one":
        m = gauss(k_out, 1) @ gauss(1, k_in)
    elif shape == "nearly_rank_one":
        m = gauss(k_out, 1) @ gauss(1, k_in) + 1e-9 * m
    elif shape == "rank_deficient":
        r = max(1, min(k_out, k_in) // 2)
        m = gauss(k_out, r) @ gauss(r, k_in)
    elif shape == "one_entry":
        m = np.zeros((k_out, k_in), dtype=complex)
        m[rng.integers(k_out), rng.integers(k_in)] = 1.0 - 2.0j
    elif shape == "zero_column":
        m[:, rng.integers(k_in)] = 0.0
    return scale * m


@st.composite
def certificates(draw, cases=CERTIFICATE_CASES):
    m = draw(matrices())
    case = draw(st.sampled_from(cases))
    t_in, t_out = draw(st.sampled_from((0.0, 0.5, 1.0))), draw(st.sampled_from((0.0, 1.0)))
    w1 = Weight((1.0 + np.arange(m.shape[1])) ** t_in)
    w2 = Weight((1.0 + np.arange(m.shape[0])) ** t_out)
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 4.0)))
    return m, schur_certificate(m, case, p=p, weights=(w1, w2))


def conjugated(m, cert):
    w1, w2 = cert.weights
    return weighted_matrix(m, w2.values, w1.values)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(certificates())
def test_bound_dominates_exact_norm(mc):
    m, cert = mc
    in_space, out_space = cert.probe_spaces()
    try:
        exact = exact_operator_norm(conjugated(m, cert), in_space.p, out_space.p)
    except InvalidInputError:
        return  # no closed form for this space pair
    assert exact <= cert.certified_bound * (1 + SLACK)


@PROPERTY
@given(certificates(), st.integers(0, 2**16))
def test_bound_dominates_probe_norm(mc, seed):
    m, cert = mc
    measured = certificate_probe_norm(m, cert, probes=25, seed=seed)
    assert measured <= cert.certified_bound * (1 + SLACK)


@PROPERTY
@given(matrices())
def test_two_two_ground_truth_is_spectral_norm(m):
    w1, w2 = Weight.ones(m.shape[1]), Weight.ones(m.shape[0])
    cert = schur_certificate(m, "two_two", weights=(w1, w2))
    assert np.isfinite(cert.certified_bound)
    assert cert.details["svd_ground_truth"] == pytest.approx(
        np.linalg.norm(m, 2), rel=1e-12, abs=0.0)


@PROPERTY
@given(certificates(cases=("inf_inf", "inf_zero", "one_inf", "one_p")))
def test_closed_form_bound_is_exact_norm(mc):
    m, cert = mc
    in_space, out_space = cert.probe_spaces()
    exact = exact_operator_norm(conjugated(m, cert), in_space.p, out_space.p)
    assert cert.certified_bound == exact


# reconstruction and idempotency defects, relative to the condition number
# B / A of the frame operator
FRAME_SLACK = 1e-13


@st.composite
def frames(draw):
    """n x K frame with prescribed singular values: well spread, or with the
    smallest pushed down so that B / A reaches 1e6 (Cholesky) or 4e8
    (past the Cholesky cap, eigendecomposition)."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(n, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.uniform(0.5, 2.0, n)
    s[-1] = draw(st.sampled_from((s[-1], 1e-3, 1e-4)))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    vh, _ = np.linalg.qr(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    vectors = u @ (s[:, None] * np.conj(vh.T))
    if draw(st.booleans()):
        # a nearly repeated member; adding it cannot lower A
        vectors = np.hstack([vectors, vectors[:, :1] * (1 + 1e-9)])
    return Frame(vectors, IndexSet.ring(vectors.shape[1]))


def condition(frame):
    bounds = frame_bounds(frame)
    return bounds.upper / bounds.lower


@PROPERTY
@given(frames(), st.integers(0, 2**16))
def test_dual_reconstructs(frame, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(frame.ambient_dim) + 1j * rng.standard_normal(frame.ambient_dim)
    dual = canonical_dual(frame)
    tol = FRAME_SLACK * condition(frame) * np.linalg.norm(f)
    assert np.linalg.norm(synthesis(dual, analysis(frame, f)) - f) <= tol
    assert np.linalg.norm(synthesis(frame, analysis(dual, f)) - f) <= tol


@PROPERTY
@given(frames())
def test_gram_projection_idempotent(frame):
    p = gram(frame, canonical_dual(frame))
    assert np.linalg.norm(p @ p - p, 2) <= FRAME_SLACK * condition(frame)
    assert np.linalg.norm(p - np.conj(p.T), 2) <= FRAME_SLACK * condition(frame)


@PROPERTY
@given(st.integers(1, 48), st.booleans(), st.integers(0, 2**16))
def test_circular_shifts_are_the_index_gather(n, complex_data, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_data else 0)
    for step in (s for s in range(1, n + 1) if n % s == 0):
        rows = circular_shifts(v, step)
        assert rows.dtype == v.dtype and not rows.flags.writeable
        assert np.array_equal(rows, v[(np.arange(n) - step * np.arange(n // step)[:, None]) % n])
        # of a matrix, the shifts of each row
        assert np.array_equal(circular_shifts(np.stack([v, v[::-1]]), step),
                              np.stack([rows, circular_shifts(v[::-1], step)]))
