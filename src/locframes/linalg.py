"""Singular values, pseudo-inversion and generalized condition numbers.

Every singular-value decomposition of a matrix is taken by ``spectrum``:
a square matrix that is Hermitian to rounding takes its singular values
from one Hermitian eigendecomposition, any other matrix takes the SVD.
Galerkin and Gram matrices V_l^* X V_r of two frames, and finite
sections P_N A P_N, are decomposed through their small cores, which carry
the same nonzero singular values.  A block-diagonal matrix may be given as
the stack of its diagonal blocks (s x k x k), which ``blockwise`` applies.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def adjoint(m):
    """M^* of a matrix, or of every block of a stack; of real data a view,
    as ``ndarray.conj`` copies complex data only."""
    return np.swapaxes(m, -1, -2).conj()


def blockwise(f, m):
    """x -> f(M, x) for a matrix M; for a stack of diagonal blocks M_t,
    x -> f(M_t, x_t) on the consecutive parts x_t of x, k rows each for
    blocks of order k."""
    if m.ndim == 2:
        return functools.partial(f, m)
    return lambda x: f(m, x.reshape(len(m), m.shape[-1], -1)).reshape(x.shape)


def circular_shifts(v, step=1):
    """The rows v[(x - m step) mod n], m = 0..n/step - 1, of a vector v of
    length n that ``step`` divides: a read-only view of (v, v), no index array."""
    n = len(v)
    return sliding_window_view(np.concatenate((v, v)), n)[n:0:-step]


def hermitian_defect(m):
    """Frobenius-relative defect ||M - M^*||_F / ||M||_F of a square M or a stack.

    Both norms are taken of M / max|M_ij|, so that neither overflows nor
    underflows.  The zero matrix has defect 0, a non-finite M has inf.
    """
    top = np.abs(m).max(initial=0.0)
    if not np.isfinite(top):
        return math.inf
    if top == 0.0:
        return 0.0
    m = m / top
    return float(np.linalg.norm(adjoint(m) - m) / np.linalg.norm(m))


def _hermitian_part(m):
    """H = (M + M^*) / 2 when M is square and ||M - M^*||_F <= n u ||M||_F
    for its order n and the unit roundoff u, else None; a stack is tested as
    its block-diagonal matrix.  M^* - M is formed
    once, for the test and for H.  Where 1e-100 <= ||M||_F <= 1e100 no square
    that the test can feel over- or underflows, and the norms are taken of M
    as it stands; any other M is tested by ``hermitian_defect``."""
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        return None
    order = m.size // max(m.shape[-1], 1)
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(m)
    scaled = not 1e-100 <= norm <= 1e100
    if scaled and hermitian_defect(m) > order * EPS:
        return None
    d = adjoint(m) - m
    if not scaled and np.linalg.norm(d) > order * EPS * norm:
        return None
    return m + 0.5 * d


@dataclass(frozen=True)
class Spectrum:
    """Singular values of a matrix M, descending, none truncated.

    ``decomposition`` is the path ``spectrum`` took on M, ``"eigh"`` or
    ``"svd"``; on ``"eigh"``, ``eigenvalues`` are the signed eigenvalues of
    (M + M^*) / 2.  ``u`` and ``vh`` are the factors of M = u diag(values) vh,
    None unless requested.  The rank cutoff is ``DEFAULT_RANK_TOL`` relative
    to the largest singular value.  Of a stack, ``values`` are those of all
    blocks and ``blocks`` holds each block's, in the order of its factors.
    An operator held as its symbol has the ``decomposition`` "symbol".
    """

    values: np.ndarray
    decomposition: str
    eigenvalues: np.ndarray = None
    u: np.ndarray = None
    vh: np.ndarray = None
    blocks: np.ndarray = None

    @property
    def rank(self):
        """Count of the values above ``DEFAULT_RANK_TOL * values[0]``."""
        s = self.values
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))

    @property
    def kappa(self):
        """Largest over smallest nonzero singular value; undefined at rank 0."""
        rank = self.rank
        if rank == 0:
            raise InvalidInputError("condition number of the zero matrix is undefined")
        return float(self.values[0] / self.values[rank - 1])

    def pinv_apply(self, b):
        """M^+ b; needs the factors.  A stack applies its blocks' on the parts of b."""
        if self.u is None:
            raise InvalidInputError("spectrum was computed without factors")
        if self.blocks is not None:
            s = self.blocks
            kept = s > DEFAULT_RANK_TOL * self.values[0]
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)[..., None]
            return blockwise(lambda u, y: adjoint(self.vh) @ (inv * (adjoint(u) @ y)), self.u)(b)
        k = self.rank
        y = np.conj(self.u[:, :k].T) @ b
        y = y / self.values[:k].reshape((k,) + (1,) * (y.ndim - 1))
        return np.conj(self.vh[:k].T) @ y


def spectrum(m, vectors=False):
    """The ``Spectrum`` of M, with its factors when ``vectors`` is set.

    A matrix that passes the Hermitian test of ``_hermitian_part`` takes one
    ``eigh`` (``eigvalsh`` without ``vectors``) of H = (M + M^*) / 2:
    H = V diag(lambda) V^* gives s = |lambda|, u = V and vh = sign(lambda) V^*,
    with the sign of a zero lambda taken as +1.  By Weyl's inequality each
    value is within ||M - M^*||_F / 2 of a singular value of M.  Any other
    matrix takes ``np.linalg.svd``.  A stack takes one batched decomposition;
    with factors, always the SVD, its factors in block order.
    """
    m = np.asarray(m)
    h = _hermitian_part(m)
    if h is None or vectors and m.ndim == 3:
        if vectors:
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            return Spectrum(decomposition="svd", u=u, vh=vh, **_union(s))
        return Spectrum(decomposition="svd", **_union(np.linalg.svd(m, compute_uv=False)))
    if not vectors:
        w = np.linalg.eigvalsh(h)
        return Spectrum(decomposition="eigh", eigenvalues=w.ravel(), **_union(np.abs(w)))
    w, v = np.linalg.eigh(h)
    order = np.argsort(-np.abs(w), kind="stable")
    w, u = w[order], v[:, order]
    vh = np.where(w < 0, -1.0, 1.0)[:, None] * np.conj(u.T)
    return Spectrum(np.abs(w), "eigh", w, u, vh)


def _union(s):
    """The ``values`` of singular values ``s``, sorted descending, and of a
    stack each block's as ``blocks``."""
    return {"values": np.sort(s.ravel())[::-1], "blocks": s if s.ndim == 2 else None}


def pseudo_inverse(m):
    """Moore-Penrose pseudoinverse vh^* diag(1 / s) u^* over the leading
    ``rank`` singular triples of M."""
    spec = spectrum(m, vectors=True)
    k = spec.rank
    inv = 1.0 / spec.values[:k]
    return np.conj(spec.vh[:k].T) @ (inv[:, None] * np.conj(spec.u[:, :k].T))


def numerical_rank(m):
    return spectrum(m).rank


def generalized_condition_number(m):
    """Ratio of the largest to the smallest nonzero singular value."""
    return spectrum(m).kappa
