"""Operator norms between weighted sequence spaces.

Weights are absorbed by conjugation: M acting l^p_{w1} -> l^q_{w2} has
the same norm as diag(w2) M diag(1/w1) acting between the unweighted
spaces, so everything below works on the conjugated matrix.  The Schur
certificates, the algebra norms and the Galerkin bounds all compute their
norms here.
"""

import math

import numpy as np

from .errors import InvalidInputError
from .weights import SeqSpaceSpec, column_p_norms

_INF = math.inf
_BLOCK_BYTES = 1 << 20


def weighted_matrix(m, w_out, w_in):
    """diag(w_out) @ m @ diag(1/w_in) for real weights, in one new array.

    A complex m is scaled through its real and imaginary parts, by w_out
    and then by 1 / w_in: that is what numpy's complex division by
    w_in + 0j computes, so the result is the same without a complex
    division per entry or a second temporary (on the float view, if m is F-contiguous).
    """
    m = np.asarray(m)
    w_out = np.asarray(w_out)[:, None]
    out = np.empty_like(m, dtype=np.result_type(m, float))
    if np.iscomplexobj(out):
        inv = 1.0 / np.asarray(w_in)
        if m.dtype == out.dtype and m.flags.f_contiguous:
            flat = out.T.view(float)
            np.multiply(np.repeat(w_out[:, 0], 2), m.T.view(float), out=flat)
            flat *= inv[:, None]
            return out
        for src, dst in ((m.real, out.real), (m.imag, out.imag)):
            np.multiply(w_out, src, out=dst)
            dst *= inv
    else:
        np.multiply(w_out, m, out=out)
        out /= np.asarray(w_in)
    return out


def weighted_column_blocks(m, w_out, w_in):
    """(columns, block) pairs that split ``weighted_matrix(m, w_out, w_in)`` into
    column blocks of at most about 1 MiB, or single columns: no second m-sized array."""
    width = max(1, _BLOCK_BYTES // (m.shape[0] * np.result_type(m, float).itemsize))
    for start in range(0, m.shape[1], width):
        cols = slice(start, start + width)
        yield cols, weighted_matrix(m[:, cols], w_out, w_in[cols])


def exact_operator_norm(m, p_in, p_out):
    """Exact l^{p_in} -> l^{p_out} norm for the classically computable cases.

    Supported: 1 -> p (max column p-norm), inf -> inf (max row sum),
    2 -> 2 (largest singular value of m itself, not of |m|).  p = 0 is
    treated as sup-norm.
    """
    p_in = _INF if p_in == 0 else float(p_in)
    p_out = _INF if p_out == 0 else float(p_out)
    if p_in == 2.0 and p_out == 2.0:
        return float(np.linalg.norm(m, 2))
    a = np.abs(np.asarray(m))
    if p_in == 1.0:
        return float(column_p_norms(a, p_out).max())
    if p_in == _INF and p_out == _INF:
        return float(a.sum(axis=1).max())
    raise InvalidInputError(f"no exact formula for l^{p_in} -> l^{p_out}")


def schur_test_bound(a):
    """Larger of the largest row sum and column sum of a nonnegative ``a``.

    By the Schur test it bounds every l^p -> l^p norm, 1 <= p <= inf, of
    each m with |m| <= a entrywise.
    """
    return float(max(np.max(a.sum(axis=1)), np.max(a.sum(axis=0))))


def space_operator_norm(m, out_space: SeqSpaceSpec, in_space: SeqSpaceSpec):
    """Norm of ``m`` from ``in_space`` to ``out_space``, or a certified bound.

    Exact where ``exact_operator_norm`` has a formula; for equal exponents
    without one, the Schur (interpolation) bound of |m|.  Other pairs
    raise ``InvalidInputError``.
    """
    mb = weighted_matrix(m, out_space.weight.values, in_space.weight.values)
    p_in, p_out = in_space.effective_p, out_space.effective_p
    if p_in == p_out and p_in not in (1.0, 2.0, _INF):
        return schur_test_bound(np.abs(mb))
    return exact_operator_norm(mb, p_in, p_out)


def rayleigh_lower_l2(m):
    """Power-iteration lower estimate of the l^2 -> l^2 norm: 60 steps from
    a seeded Gaussian start."""
    m = np.asarray(m)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    g = np.conj(m.T) @ m
    for _ in range(60):
        v = g @ v
        n = np.linalg.norm(v)
        if n == 0:
            return 0.0
        v /= n
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))

