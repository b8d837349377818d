"""SVD-based pseudo-inversion and generalized condition numbers.

Galerkin and Gram matrices V_l^* X V_r of two frames, and finite
sections P_N A P_N, are decomposed through their small cores, see
``core_spectrum``.
A square matrix that is Hermitian to rounding takes its singular values
from one Hermitian eigendecomposition, see ``square_svd``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_RANK_TOL = 1e-10
EPS = np.finfo(float).eps


def field_array(x):
    """``x`` as a float64 array when its data are real, complex128 when complex.

    Real frames and operators stay real, so that their decompositions run
    in real arithmetic.  float64 and complex128 input is returned without a
    copy.
    """
    x = np.asarray(x)
    return np.asarray(x, dtype=np.result_type(x, float))


def _rank(s):
    """Count of descending singular values above ``DEFAULT_RANK_TOL * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def hermitian_defect(m):
    """Frobenius-relative defect ||M - M^*||_F / ||M||_F of a square M.

    Both norms are taken of M / max|M_ij|, so that neither overflows nor
    underflows.  The zero matrix has defect 0, a non-finite M has inf.
    """
    top = np.abs(m).max(initial=0.0)
    if not np.isfinite(top):
        return math.inf
    if top == 0.0:
        return 0.0
    m = m / top
    return float(np.linalg.norm(np.conj(m.T) - m) / np.linalg.norm(m))


def _hermitian_part(m):
    """H = (M + M^*) / 2 when M is square and ||M - M^*||_F <= n u ||M||_F
    for its order n and the unit roundoff u, else None."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or hermitian_defect(m) > len(m) * EPS:
        return None
    return m + 0.5 * (np.conj(m.T) - m)


def square_svd(m, vectors=False):
    """Singular values of M, descending, as ``(u, s, vh, decomposition)``.

    A matrix that passes the Hermitian test of ``_hermitian_part`` takes one
    ``eigh`` (``eigvalsh`` without ``vectors``) of H = (M + M^*) / 2:
    H = V diag(lambda) V^* gives s = |lambda|, u = V and vh = sign(lambda) V^*,
    with the sign of a zero lambda taken as +1.  By Weyl's inequality each
    value is within ||M - M^*||_F / 2 of a singular value of M.  Any other
    matrix takes ``np.linalg.svd``.  ``decomposition`` names the path,
    ``"eigh"`` or ``"svd"``; u and vh are None without ``vectors``.
    """
    return _square_svd(m, vectors)[:4]


def _square_svd(m, vectors):
    """``square_svd`` and the signed lambda of its eigh path, None on svd."""
    m = np.asarray(m)
    h = _hermitian_part(m)
    if h is None:
        if vectors:
            return (*np.linalg.svd(m, full_matrices=False), "svd", None)
        return None, np.linalg.svd(m, compute_uv=False), None, "svd", None
    if not vectors:
        w = np.linalg.eigvalsh(h)
        return None, np.sort(np.abs(w))[::-1], None, "eigh", w
    w, v = np.linalg.eigh(h)
    order = np.argsort(-np.abs(w), kind="stable")
    w, u = w[order], v[:, order]
    vh = np.where(w < 0, -1.0, 1.0)[:, None] * np.conj(u.T)
    return u, np.abs(w), vh, "eigh", w


def pseudo_inverse(m):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``DEFAULT_RANK_TOL * sigma_max`` are treated as
    zero.
    """
    m = np.asarray(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    inv = np.where(s > DEFAULT_RANK_TOL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return np.conj(vh.T) @ (inv[:, None] * np.conj(u.T))


def numerical_rank(m):
    return _rank(np.linalg.svd(np.asarray(m), compute_uv=False))


def singular_kappa(s):
    """Largest over smallest nonzero value of descending singular values."""
    rank = _rank(s)
    if rank == 0:
        raise InvalidInputError("condition number of the zero matrix is undefined")
    return float(s[0] / s[rank - 1])


def generalized_condition_number(m):
    """Ratio of the largest to the smallest nonzero singular value."""
    return singular_kappa(np.linalg.svd(np.asarray(m), compute_uv=False))


@dataclass(frozen=True)
class CoreSpectrum:
    """Nonzero singular values of a square core C and, on request, C^+.

    ``values`` are the singular values of C above the relative rank
    cutoff, descending.  ``decomposition`` is the path ``square_svd`` took
    on C, ``"eigh"`` or ``"svd"``; on ``"eigh"``, ``eigenvalues`` are all
    the signed eigenvalues of (C + C^*) / 2, none truncated.
    """

    values: np.ndarray
    core: np.ndarray
    decomposition: str
    u: np.ndarray = None
    vh: np.ndarray = None
    eigenvalues: np.ndarray = None

    @property
    def kappa(self):
        """Generalized condition number; undefined when the rank is 0."""
        return singular_kappa(self.values)

    def pinv_apply(self, b):
        """C^+ b; needs the factors."""
        if self.u is None:
            raise InvalidInputError("spectrum was computed without factors")
        k = self.values.size
        y = np.conj(self.u[:, :k].T) @ b
        y = y / self.values.reshape((k,) + (1,) * (y.ndim - 1))
        return np.conj(self.vh[:k].T) @ y


def core_spectrum(core, factors=False):
    """Spectrum of a square core C, decomposed once by ``square_svd``.

    The Galerkin matrix V_l^* X V_r = Q_l (R_l X R_r^*) Q_r^* of two frames
    with analysis QRs V^* = Q R, and the finite section P_N A P_N =
    Q_N (Q_N^* A Q_N) Q_N^*, carry exactly the nonzero singular values of
    their cores; callers lift core solutions with their own factors.  With
    ``factors`` the singular vectors are kept so that the pseudo-inverse
    can be applied.  The rank cutoff is ``DEFAULT_RANK_TOL`` relative to
    the largest singular value.
    """
    u, s, vh, decomposition, w = _square_svd(core, factors)
    return CoreSpectrum(s[:_rank(s)], core, decomposition, u, vh, w)
