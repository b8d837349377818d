"""SVD-based pseudo-inversion and generalized condition numbers.

Galerkin and Gram matrices V_l^* X V_r of two frames, and finite
sections P_N A P_N, are decomposed in their ranges, see ``range_spectrum``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError

DEFAULT_RANK_TOL = 1e-10


def field_array(x):
    """``x`` as a float64 array when its data are real, complex128 when complex.

    Real frames and operators stay real, so that their decompositions run
    in real arithmetic.  float64 and complex128 input is returned without a
    copy.
    """
    x = np.asarray(x)
    return np.asarray(x, dtype=np.result_type(x, float))


def _rank(s, rank_tol):
    """Count of descending singular values above ``rank_tol * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def pseudo_inverse(m, rank_tol=DEFAULT_RANK_TOL):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``rank_tol * sigma_max`` are treated as zero.
    """
    m = np.asarray(m)
    if not 0.0 < rank_tol < 1.0:
        raise InvalidInputError("rank_tol must lie in (0, 1)")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    inv = np.where(s > rank_tol * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return np.conj(vh.T) @ (inv[:, None] * np.conj(u.T))


def numerical_rank(m, rank_tol=DEFAULT_RANK_TOL):
    return _rank(np.linalg.svd(np.asarray(m), compute_uv=False), rank_tol)


def singular_kappa(s, rank_tol=DEFAULT_RANK_TOL):
    """Largest over smallest nonzero value of descending singular values."""
    rank = _rank(s, rank_tol)
    if rank == 0:
        raise InvalidInputError("condition number of the zero matrix is undefined")
    return float(s[0] / s[rank - 1])


def generalized_condition_number(m, rank_tol=DEFAULT_RANK_TOL):
    """Ratio of the largest to the smallest nonzero singular value."""
    return singular_kappa(np.linalg.svd(np.asarray(m), compute_uv=False), rank_tol)


@dataclass(frozen=True)
class RangeSpectrum:
    """Nonzero singular values of A = Q_l C Q_r^* and, on request, A^+.

    ``core`` is C; ``values`` are its singular values above the relative
    rank cutoff, descending.
    """

    values: np.ndarray
    q_left: np.ndarray
    q_right: np.ndarray
    core: np.ndarray
    u: np.ndarray = None
    vh: np.ndarray = None

    @property
    def kappa(self):
        """Generalized condition number; undefined when the rank is 0."""
        return singular_kappa(self.values)

    def pinv_apply(self, b):
        """A^+ b = Q_r C^+ Q_l^* b; needs the factors."""
        if self.u is None:
            raise InvalidInputError("spectrum was computed without factors")
        k = self.values.size
        y = np.conj(self.u[:, :k].T) @ (np.conj(self.q_left.T) @ b)
        y = y / self.values.reshape((k,) + (1,) * (y.ndim - 1))
        return self.q_right @ (np.conj(self.vh[:k].T) @ y)


def range_spectrum(left, right, x=None, factors=False):
    """Spectrum of Q_l R_l X R_r^* Q_r^* from its small core R_l X R_r^*.

    ``left`` and ``right`` are pairs (Q, R), Q with orthonormal columns:
    the thin QR factors V^* = Q R of a frame's analysis matrix, which give
    the Galerkin matrix V_l^* X V_r, or (Q_N, Q_N^*) for an orthonormal
    basis Q_N of a subspace, which give the section P_N X P_N.  ``x``
    defaults to the identity (a cross-Gram matrix).  Only the core is
    decomposed.  With ``factors`` its singular vectors are kept so that
    the pseudo-inverse can be applied.  The rank cutoff is
    ``DEFAULT_RANK_TOL`` relative to the largest singular value.
    """
    (q_l, r_l), (q_r, r_r) = left, right
    n_l, n_r = r_l.shape[1], r_r.shape[1]
    if x is None:
        if n_l != n_r:
            raise DimensionMismatchError(f"ambient dims differ: {n_l} vs {n_r}")
        core = r_l @ np.conj(r_r.T)
    else:
        x = np.asarray(x)
        if x.shape != (n_l, n_r):
            raise DimensionMismatchError(
                f"operator {x.shape} does not map {n_r} -> {n_l}"
            )
        core = r_l @ x @ np.conj(r_r.T)
    if factors:
        u, s, vh = np.linalg.svd(core, full_matrices=False)
    else:
        u = vh = None
        s = np.linalg.svd(core, compute_uv=False)
    return RangeSpectrum(s[:_rank(s, DEFAULT_RANK_TOL)], q_l, q_r, core, u, vh)
