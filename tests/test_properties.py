"""Property tests of the Schur certificates on random and near-degenerate matrices.

Every ``CERTIFICATE_CASES`` entry must bound the exact operator norm
where one is known and the probe measurement everywhere, at scales from
1e-12 to 1e12; ``two_two`` must also report the true spectral norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locframes import InvalidInputError, Weight, schur_certificate
from locframes.galerkin import CERTIFICATE_CASES, certificate_probe_norm
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
def certificates(draw):
    m = draw(matrices())
    case = draw(st.sampled_from(CERTIFICATE_CASES))
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
