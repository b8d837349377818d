"""Shared frame suite used across the tests."""

import numpy as np
import pytest

from locframes import (
    Frame,
    IndexSet,
    gaussian_window,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_translates_frame,
)
from locframes.frames import analysis_r_product


def decaying_generator(n, tail=0.25, exponent=3.0):
    """Unit spike plus a polynomially decaying tail; DFT stays away from 0."""
    iset = IndexSet.ring(n)
    gen = np.zeros(n)
    gen[0] = 1.0
    return gen + tail * (1.0 + iset.distance_to_origin()) ** -exponent


def scaled_ring(n, scale):
    """0..n-1 on the n-torus whose lattice step is ``scale`` ambient units."""
    return IndexSet(np.arange(n)[:, None], "circular", moduli=(n,), scales=(scale,))


def mercedes_frame():
    """Three unit vectors at 120 degrees in R^2; tight with bound 3/2."""
    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    vectors = np.stack([np.cos(angles), np.sin(angles)])
    return Frame(vectors, IndexSet.ring(3), name="mercedes")


def complex_copy(frame):
    """The frame with its vectors cast to complex128."""
    return Frame(frame.vectors.astype(complex), frame.index_set, name=frame.name)


def analysis_q(frame):
    """Q = V^* R^+ of the analysis matrix V^* = Q R, which the package never
    forms: for lifting an n x n core back to K x K."""
    r = analysis_r_product(frame, np.eye(frame.ambient_dim))
    return np.conj(frame.vectors.T) @ np.linalg.pinv(r)


def riesz_sequence():
    """16 translates in C^64: K < n, a basis of a subspace only."""
    g = decaying_generator(64)
    return Frame(np.stack([np.roll(g, 4 * m) for m in range(16)], axis=1),
                 scaled_ring(16, 4.0))


def dense_twin(frame):
    """The frame without its Gabor lattice: every operator takes the dense path."""
    return Frame(frame.vectors, frame.index_set, name=frame.name, meta=frame.meta)


# (n, a, b) of the Gabor frames whose structured and dense paths are compared
GABOR_LATTICES = [(16, 4, 2), (64, 8, 4), (144, 12, 6), (256, 16, 8), (256, 8, 8)]


@pytest.fixture(scope="session", params=GABOR_LATTICES,
                ids=[f"gabor{n}a{a}b{b}" for n, a, b in GABOR_LATTICES])
def gabor_twins(request):
    """A Gaussian Gabor frame, structured, and its dense twin."""
    n, a, b = request.param
    frame = make_gabor_frame(n, a, b, gaussian_window(n))
    return frame, dense_twin(frame)


@pytest.fixture(scope="session")
def suite_frames():
    return {
        "onb": make_onb(64),
        "gabor16": make_gabor_frame(16, 4, 2, gaussian_window(16)),
        "gabor64": make_gabor_frame(64, 8, 4, gaussian_window(64)),
        "gabor144": make_gabor_frame(144, 12, 6, gaussian_window(144)),
        "translates": make_translates_frame(64, decaying_generator(64)),
        "ponb": make_perturbed_onb(64, 3, 7),
    }


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)
