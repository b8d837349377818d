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


def decaying_generator(n, tail=0.25, exponent=3.0):
    """Unit spike plus a polynomially decaying tail; DFT stays away from 0."""
    iset = IndexSet.ring(n)
    gen = np.zeros(n)
    gen[0] = 1.0
    return gen + tail * (1.0 + iset.distance_to_origin()) ** -exponent


def mercedes_frame():
    """Three unit vectors at 120 degrees in R^2; tight with bound 3/2."""
    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    vectors = np.stack([np.cos(angles), np.sin(angles)])
    return Frame(vectors, IndexSet.ring(3), name="mercedes")


def complex_copy(frame):
    """The frame with its vectors cast to complex128."""
    return Frame(frame.vectors.astype(complex), frame.index_set, name=frame.name)


@pytest.fixture(scope="session")
def suite_frames():
    return {
        "onb": make_onb(64),
        "gabor16": make_gabor_frame(16, 4, 2, gaussian_window(16)),
        "gabor64": make_gabor_frame(64, 8, 4, gaussian_window(64)),
        "gabor144": make_gabor_frame(144, 12, 6, gaussian_window(144)),
        "translates": make_translates_frame(64, 1, decaying_generator(64)),
        "ponb": make_perturbed_onb(64, 3, 7),
    }


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)
