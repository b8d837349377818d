"""Matrix representation of operators against frame pairs.

Implements the two maps M(O) = C o O o D and O(M) = D o M o C, the
identities relating them, Schur-test boundedness certificates, and
pseudo-inversion with generalized condition numbers.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BijectivityError,
    ContractError,
    DimensionMismatchError,
    InvalidInputError,
)
from .frames import (Frame, _walnut_blocks, analysis_r_product, canonical_dual, gram,
                     mixed_frame_operator, shared_lattice, walnut_mixed, walnut_r, walnut_side)
from .linalg import Spectrum, adjoint, circular_shifts, field_array, spectrum
from .opnorms import space_operator_norm, weighted_column_blocks, weighted_matrix
from .weights import SeqSpaceSpec, column_p_norms, seq_norm

CHECK_SLACK = 1e-8
PSEUDOINVERSE_CHECK_TOL = 1e-9
OPERATOR_COND_CAP = 1e12
# columns per block of an assembled Galerkin matrix: the GEMM rule's BLAS
# re-packs the K x n analysis factor for every block, which narrower blocks
# pay for in time
ASSEMBLY_COLUMNS = 256
# the two_two range finder: extra columns over the rank bound, the first
# width tried without one, the residual ||E||_F / ||mb||_F at which it
# stops widening, and the seed of its test matrix, which does not depend
# on --seed
RANGE_OVERSAMPLING = 16
RANGE_START = 32
RANGE_TOL = 1e-12
RANGE_SEED = 0


class LinearOperator:
    """Linear map held as its dense matrix, or with a ``side`` as the vector
    ``held`` of an operator diagonal there, with a name for reports.

    On "fourier" ``held`` is the first column c of a circulant,
    O[i, j] = c[(i - j) mod n] = F^* diag(FFT c) F for the unitary DFT F; on
    "time" it is the diagonal.  Either way ``symbol`` is that diagonal: O
    applies by FFT or by multiplication, its ``spectrum`` is the sorted
    |symbol|, and ``dense()`` builds the matrix on first use.  Real matrices
    stay real (``field_array``).  The ``spectrum`` is computed once.
    """

    def __init__(self, held, name="op", side=None):
        self.name, self.side, self._held = name, side, field_array(held)
        self._matrix = None if side else self._held
        self.shape = (len(self._held),) * 2 if side else self._held.shape

    @cached_property
    def symbol(self):
        # on first use: a command that reads only dense() loads no numpy.fft
        if self.side == "fourier":
            return np.fft.fft(self._held)
        return self._held if self.side else None

    @classmethod
    def identity(cls, n, side="fourier"):
        """I held on ``side``: as the circulant of e_0, or as the diagonal of ones."""
        return cls(np.ones(n) if side == "time" else np.eye(1, n)[0], "identity", side)

    def apply(self, f):
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.shape[1],):
            raise DimensionMismatchError(
                f"operator domain {self.shape[1]}, got vector {f.shape}"
            )
        if self.side == "fourier":
            return np.fft.ifft(self.symbol * np.fft.fft(f))
        return self.symbol * f if self.side else self._matrix @ f

    def dense(self):
        if self._matrix is None:
            self._matrix = (np.ascontiguousarray(circular_shifts(self._held).T)
                            if self.side == "fourier" else np.diag(self._held))
        return self._matrix

    @cached_property
    def spectrum(self):
        """The matrix's ``Spectrum``, without factors; of a symbol its sorted moduli."""
        if self.side:
            return Spectrum(np.sort(np.abs(self.symbol))[::-1], "symbol")
        return spectrum(self._matrix)


def as_operator(op):
    if isinstance(op, LinearOperator):
        return op
    return LinearOperator(op)


def _walnut_sides(ops, frames):
    """The frames on the side where all of ``ops`` are diagonal (``walnut_side``)
    if they share one block layout there, else None."""
    side = ops[0].side
    sides = [walnut_side(frame, side) for frame in frames]
    if (any(op.side != side for op in ops) or None in sides
            or not all(shared_lattice(sides[0], frame) for frame in sides)):
        return None
    return sides


def _operands(ops, *frames):
    """The operators as matrices and the frames with their rules R X and
    V_l V_r^* X, on the side where all of ``ops`` are diagonal if the frames
    share one block layout there (``_walnut_sides``): each operator is then the
    stack of its diagonal blocks diag(symbol_t), symbol_t[p] = symbol[t + p mf],
    and both rules act block by block.  Otherwise the dense matrices, the
    frames, ``analysis_r_product`` and ``mixed_frame_operator``."""
    sides = _walnut_sides(ops, frames)
    if sides is None:
        return [op.dense() for op in ops], frames, analysis_r_product, mixed_frame_operator
    mf, order = sides[0].ambient_dim // sides[0].lattice[1], sides[0].lattice[1]
    return ([op.symbol.reshape(-1, mf).T[:, :, None] * np.eye(order) for op in ops], sides,
            lambda frame, x: walnut_r(frame) @ x, walnut_mixed)


def _core(r_product, left: Frame, right: Frame, x):
    """R_l X R_r^*, the n x n core of V_l^* X V_r, by the rule R X of ``_operands``."""
    return adjoint(r_product(right, adjoint(r_product(left, x))))


def _norm2(x):
    """The 2-norm of a matrix, or of a stack of blocks its largest singular value."""
    return np.linalg.svd(x, compute_uv=False).max()


def galerkin_core(op, left: Frame, right: Frame):
    """The core R_l O R_r^* of M(left, right)(O) and the left frame it is formed
    on (``_operands``): on the side where O is diagonal the stack of its blocks
    R_t^l diag(symbol_t) R_t^r*, else the n x n core of the dense matrix."""
    (o,), (left, right), r_product, _ = _operands([as_operator(op)], left, right)
    return _core(r_product, left, right, o), left


@dataclass
class GalerkinMatrix:
    """Matrix <O xi_l, phi_k> with its generating frames and operator.

    With the frames' analysis factors V^* = Q R (Q is never formed) the
    matrix equals Q_left C Q_right^* for the at most n x n core
    C = R_left O R_right^* (``galerkin_core``).  The sequence spaces it acts
    between are not part of it: ``schur_certificate`` takes their weights.
    """

    entries: np.ndarray
    left_frame: Frame
    right_frame: Frame
    generator: LinearOperator

    @property
    def rank_bound(self):
        """The ambient dimension, which the rank cannot exceed."""
        return min(self.left_frame.ambient_dim, self.right_frame.ambient_dim)


def idempotency_residual(op, left: Frame, right: Frame):
    """||M M - M||_2 = ||R_l O (V_r V_l^*) O R_r^* - C||_2 for M = M(left, right)(O)
    and its core C = R_l O R_r^* (``_core``, by blocks where ``_operands`` gives
    them): no inverse of R, so K < n is fine, and no entries."""
    (o,), (left, right), r_product, mixed = _operands([as_operator(op)], left, right)
    square = _core(r_product, left, right, o @ mixed(right, left, o))
    return float(_norm2(square - _core(r_product, left, right, o)))


def _check_maps(op, left: Frame, right: Frame):
    if op.shape[1] != right.ambient_dim or op.shape[0] != left.ambient_dim:
        raise DimensionMismatchError(
            f"operator {op.shape} does not map {right.ambient_dim} -> {left.ambient_dim}"
        )


def galerkin_columns(op, left: Frame, right: Frame):
    """Shape, dtype and the column blocks of M_{k,l} = <O xi_l, phi_k>, the
    next ``ASSEMBLY_COLUMNS`` columns each, column-major; the one assembly
    rule of the container and ``galerkin_matrix``.  On the side where O is
    diagonal, frames of one block layout there (``_walnut_sides``) take
    ``_lattice_block``; any other pair the GEMM Phi^* (O Xi[:, columns])."""
    op = as_operator(op)
    _check_maps(op, left, right)
    sides = _walnut_sides([op], (left, right))
    if sides is not None:
        dtype, block = np.dtype(complex), _lattice_block(op, *sides)
    else:
        analysis, o, xi = np.conj(left.vectors.T), op.dense(), right.vectors
        dtype = np.result_type(analysis, o, xi)

        def block(start):
            image = o @ xi[:, start:start + ASSEMBLY_COLUMNS]
            out = np.empty((left.size, image.shape[1]), dtype, order="F")
            return np.matmul(analysis, image, out=out)

    return (left.size, right.size), dtype, (block(start) for start in
                                            range(0, right.size, ASSEMBLY_COLUMNS))


def _lattice_block(op, left: Frame, right: Frame):
    """The rule block(start) of M(O) for Gabor frames on the lattice (a, b),
    mt = n/a, mf = n/b, from ``left`` and ``right`` on the side where O is
    diagonal (there on (b, a) for "fourier").  With their Walnut stack C_t = B_t^l diag(symbol_t) B_t^r^* and
    h = ifft(C) over t, M[(m, j), (m', j')] = h[(j' - j) mod mf][m, m'] on the
    time side.  The Fourier side's index of psi_{m, j} is (j, -m mod mt), whose
    vector is e^{2 pi i a b j m / n} F psi_{m, j}, so there M[(m, j), (m', j')]
    = h[(m - m') mod mt][j, j'] e^{2 pi i a b (j' m' - j m) / n}.  A column is
    a window of h stored twice over: O(K mt b) flops, then one copy pass."""
    n, (a, b) = left.ambient_dim, left.lattice[::1 if op.side == "time" else -1]
    mt, mf = n // a, n // b
    blocks = _walnut_blocks(left)
    stack = ((blocks * op.symbol.reshape(-1, len(blocks)).T[:, None, :])
             @ np.conj(_walnut_blocks(right).transpose(0, 2, 1)))
    h = np.fft.ifft(stack, axis=0)
    if op.side == "time":
        # twice[m', m, e] = h[-e mod mf][m, m']: column (m', j') is twice[m', :, mf - j' + j]
        twice = np.ascontiguousarray(h[-np.arange(2 * mf) % mf].transpose(2, 1, 0))

        def columns(mp, j0, j1, out):
            windows = np.lib.stride_tricks.sliding_window_view(twice[mp], mf, axis=1)
            np.copyto(out, windows[:, mf - j0:mf - j1:-1].transpose(1, 0, 2))
    else:
        # twice[j', e, j] = h[e mod mt][j, j']: column (m', j') is twice[j', mt - m' + m, j]
        twice = np.ascontiguousarray(h[np.arange(2 * mt) % mt].transpose(2, 0, 1))
        # e^{2 pi i a b j m / n}, the argument reduced mod n as in ``gabor_system``
        phase = np.exp(2j * np.pi * ((a * b * np.arange(mt)[:, None] * np.arange(mf)) % n) / n)
        conj = np.conj(phase)

        def columns(mp, j0, j1, out):
            np.multiply(twice[j0:j1, mt - mp:2 * mt - mp], conj, out=out)
            out *= phase[mp, j0:j1, None, None]

    def block(start):
        stop = min(start + ASSEMBLY_COLUMNS, left.size)
        out = np.empty((left.size, stop - start), complex, order="F")
        rows = out.T.reshape(-1, mt, mf)   # rows[l - start, m, j] = M[(m, j), l]
        for mp in range(start // mf, (stop - 1) // mf + 1):   # the time shifts in the block
            j0, j1 = max(start - mp * mf, 0), min(stop - mp * mf, mf)
            columns(mp, j0, j1, rows[mp * mf + j0 - start:mp * mf + j1 - start])
        return out

    return block


def galerkin_matrix(op, left: Frame, right: Frame):
    """Assemble M_{k,l} = <O xi_l, phi_k> from ``galerkin_columns`` in one
    column-major array, the layout of its container."""
    op = as_operator(op)
    shape, dtype, blocks = galerkin_columns(op, left, right)
    entries = np.empty(shape, dtype, order="F")
    for start in range(0, shape[1], ASSEMBLY_COLUMNS):   # no block outlives its copy
        entries[:, start:start + ASSEMBLY_COLUMNS] = next(blocks)
    return GalerkinMatrix(entries, left, right, generator=op)


def operator_from_matrix(m, left: Frame, right: Frame):
    """D_left o M o C_right as the n x n matrix Phi_left M Phi_right^*."""
    entries = m.entries if isinstance(m, GalerkinMatrix) else np.asarray(m)
    if entries.shape != (left.size, right.size):
        raise DimensionMismatchError(
            f"matrix {entries.shape} against frame sizes "
            f"({left.size}, {right.size})"
        )
    return LinearOperator(left.vectors @ entries @ np.conj(right.vectors.T),
                          name=f"O[{left.name},{right.name}]")


def roundtrip_check(op, phi: Frame, psi: Frame):
    """Relative defect of both orderings of the representation identity.

    Checks O(phi,psi) o M(dual phi,dual psi) = Id = O(dual...) o M(phi,psi)
    applied to the given operator, in the dense 2-norm.  Each side
    D_left M C_right is the n x n product (Phi Phi~^*) O (Psi~ Psi^*), or
    its mirror with the adjoint outer factors.  On the side where O is
    diagonal, the frame operators and O are block-diagonal, and each
    defect is the largest of its blocks' 2-norms.
    """
    op = as_operator(op)
    _check_maps(op, phi, psi)
    scale = max(op.spectrum.values[0], 1e-300)
    (o,), (phi, phid, psid, psi), _, mixed = _operands(
        [op], phi, canonical_dual(phi), canonical_dual(psi), psi)
    left, right = mixed(phi, phid), mixed(psid, psi)
    first = left @ o @ right
    second = adjoint(left) @ o @ adjoint(right)
    r1 = _norm2(first - o) / scale
    r2 = _norm2(second - o) / scale
    return float(max(r1, r2))


def compose_rule_check(op1, op2, phi: Frame, psi: Frame, xi: Frame):
    """Relative Frobenius defect of M(O1 O2) = M(O1) M(dual-xi side O2).

    The defect is Phi^* O1 (I - Xi Xi~^*) O2 Psi.  With the analysis QRs
    Phi^* = Q R it has the Frobenius norm of the n x n
    R_phi O1 (I - Xi Xi~^*) O2 R_psi^*, and M(O1 O2) that of R_phi O1 O2 R_psi^*;
    block-diagonal on the side where both operators are diagonal.
    """
    op1, op2 = as_operator(op1), as_operator(op2)
    _check_maps(op1, phi, xi)
    _check_maps(op2, xi, psi)
    (o1, o2), (phi, psi, xi, xid), r_product, mixed = _operands(
        [op1, op2], phi, psi, xi, canonical_dual(xi))
    left = r_product(phi, o1)
    right = adjoint(r_product(psi, adjoint(o2)))
    middle = mixed(xi, xid, right)
    defect = left @ (right - middle)
    lhs = left @ right
    return float(np.linalg.norm(defect) / max(np.linalg.norm(lhs), 1e-300))


# -- norm bounds --------------------------------------------------------------


def _probe_norm(m, out_space, in_space, probes=200, seed=0):
    """Empirical operator norm on random probe sequences.

    The probes are drawn in one call whose stream matches a real then an
    imaginary draw per probe, and M is applied to all of them at once;
    zero probes are skipped.
    """
    m = np.asarray(m)
    z = np.random.default_rng(seed).standard_normal((probes, 2, m.shape[1]))
    c = (z[:, 0] + 1j * z[:, 1]).T
    nin = seq_norm(c, in_space)
    live = nin != 0
    ratios = seq_norm(m @ c, out_space)[live] / nin[live]
    return float(ratios.max(initial=0.0))


def matrixrep_norm_bound(op, phi: Frame, xi: Frame, psi_ref: Frame, spaces,
                         probes=50, seed=0, localization=None):
    """Certified bound for the Galerkin matrix norm, with a probe measurement.

    Exact factorization M(phi,xi)(O) = G_{phi,psi} B G_{dual psi,xi} with
    B = M(dual psi, psi)(O) turns the product of weighted Gram norms and
    a certified coorbit norm of O into a sound upper bound.
    """
    in_space, out_space = spaces[0].on(xi.index_set), spaces[1].on(phi.index_set)
    psid = canonical_dual(psi_ref)
    ref_in, ref_out = in_space.on(psi_ref.index_set), out_space.on(psi_ref.index_set)
    g_left = gram(phi, psi_ref)
    g_right = gram(psid, xi)
    b = galerkin_matrix(op, psid, psi_ref).entries
    o_norm_bound = space_operator_norm(b, ref_out, ref_in)
    gl = space_operator_norm(g_left, out_space, ref_out)
    gr = space_operator_norm(g_right, ref_in, in_space)
    bound = gl * o_norm_bound * gr
    m = galerkin_matrix(op, phi, xi).entries
    measured = _probe_norm(m, out_space, in_space, probes=probes, seed=seed)
    result = {
        "bound": bound,
        "measured": measured,
        "factors": {"gram_left": gl, "operator": o_norm_bound, "gram_right": gr},
    }
    if localization is not None:
        from .localization import localization_report

        members = [
            localization_report(phi, psi_ref, localization).member,
            localization_report(psid, xi, localization).member,
        ]
        if not all(members):
            result["warning"] = "frames not mutually localized at the requested algebra"
    return result


def operator_norm_bound(m, phi: Frame, xi: Frame, psi_ref: Frame, spaces,
                        probes=50, seed=0):
    """Mirrored bound: coorbit norm of O(M) against the matrix norm of M."""
    entries = m.entries if isinstance(m, GalerkinMatrix) else np.asarray(m)
    in_space, out_space = spaces[0].on(xi.index_set), spaces[1].on(phi.index_set)
    psid = canonical_dual(psi_ref)
    ref_in, ref_out = in_space.on(psi_ref.index_set), out_space.on(psi_ref.index_set)
    gl = space_operator_norm(gram(psid, phi), ref_out, out_space)
    gr = space_operator_norm(gram(xi, psi_ref), in_space, ref_in)
    m_norm = space_operator_norm(entries, out_space, in_space)
    bound = gl * m_norm * gr
    # measured coorbit norm of D phi M C xi through the reference dual analysis
    composite = gram(psid, phi) @ entries @ gram(xi, psi_ref)
    measured = _probe_norm(composite, ref_out, ref_in, probes=probes, seed=seed)
    return {"bound": bound, "measured": measured,
            "factors": {"gram_left": gl, "matrix": m_norm, "gram_right": gr}}


def bounded_equiv_check(op, phi: Frame, psi: Frame, spaces, probes=100, seed=0):
    """Two-sided consistency of operator and matrix boundedness.

    Verifies that the measured coorbit norm of O and the weighted norm of
    its Galerkin matrix control each other within the Gram-product
    factors predicted by the representation bounds.
    """
    op = as_operator(op)
    in_space, out_space = spaces[0].on(phi.index_set), spaces[1].on(psi.index_set)
    psid = canonical_dual(psi)
    m = galerkin_matrix(op, psi, phi).entries
    m_norm = space_operator_norm(m, out_space, in_space)
    in_ref = in_space.on(psi.index_set)
    b = galerkin_matrix(op, psid, psi).entries
    o_certified = space_operator_norm(b, out_space, in_ref)
    # measured coorbit norm of O through the dual analysis of psi, on
    # probes drawn as in _probe_norm
    z = np.random.default_rng(seed).standard_normal((probes, 2, op.shape[1]))
    f = (z[:, 0] + 1j * z[:, 1]).T
    analysis_dual = np.conj(psid.vectors.T)
    nin = seq_norm(analysis_dual @ f, in_ref)
    live = nin != 0
    nout = seq_norm(analysis_dual @ (op.dense() @ f), out_space)
    measured_o = float((nout[live] / nin[live]).max(initial=0.0))
    forward = (space_operator_norm(gram(psi, psi), out_space, out_space)
               * space_operator_norm(gram(psid, phi), in_ref, in_space))
    backward = (space_operator_norm(gram(psid, psid), out_space, out_space)
                * space_operator_norm(gram(canonical_dual(phi), psi), in_space, in_ref))
    ok_forward = m_norm <= forward * o_certified * (1 + CHECK_SLACK)
    ok_backward = measured_o <= backward * m_norm * (1 + CHECK_SLACK)
    return {
        "matrix_norm": m_norm,
        "operator_norm_measured": measured_o,
        "operator_norm_certified": o_certified,
        "forward_factor": forward,
        "backward_factor": backward,
        "consistent": bool(ok_forward and ok_backward),
    }


# -- Schur certificates -------------------------------------------------------

# exponents (p_in, p_out) of the space pair each certificate case bounds;
# None stands for the certificate's own p
CASE_EXPONENTS = {
    "inf_inf": (math.inf, math.inf),
    "inf_zero": (math.inf, math.inf),
    "one_inf": (1.0, math.inf),
    "one_p": (1.0, None),
    "inf_one": (math.inf, 1.0),
    "two_two": (2.0, 2.0),
}
CERTIFICATE_CASES = tuple(CASE_EXPONENTS)


def _case_exponents(case, p):
    p_in, p_out = CASE_EXPONENTS[case]
    return p_in, p if p_out is None else p_out


@dataclass
class BoundCertificate:
    """Certified operator-norm bound from a Schur-type criterion, with its witness."""

    case: str
    certified_bound: float
    weights: tuple
    witness: np.ndarray
    witness_lower_bound: float
    details: dict = field(default_factory=dict)

    def to_dict(self):
        bound, lower = self.certified_bound, self.witness_lower_bound
        return {
            "case": self.case,
            "certified_bound": bound,
            "details": dict(self.details),
            "witness_lower_bound": lower,
            "sound": bool(lower <= bound * (1 + CHECK_SLACK)),
            "tight": None if self.case in ("inf_one", "two_two") else
                     bool(bound <= lower * (1 + CHECK_SLACK)),
        }

    def probe_spaces(self):
        """(in_space, out_space) pair the certificate applies to."""
        w1, w2 = self.weights
        p_in, p_out = _case_exponents(self.case, self.details.get("p"))
        return SeqSpaceSpec(p_in, w1), SeqSpaceSpec(p_out, w2)


def _phase(v):
    """v / |v| entrywise, 0 where v is 0.  Divided by parts: numpy's complex
    division by a subnormal |v| overflows."""
    mag = np.where(v == 0, 1.0, np.abs(v))
    return v.real / mag + 1j * (v.imag / mag) if np.iscomplexobj(v) else v / mag


def _two_two(entries, w_out, w_in, rank_bound=None):
    """Trace-power bound on ||mb||_2 from a randomized range finder, and B^* v,
    for mb = diag(w_out) entries diag(1/w_in).

    Q = qr(mb Omega) for a Gaussian Omega with l columns.  With
    B = Q^* mb and the residual E = mb - Q B, ||mb||_2 <= ||B||_2 + ||E||_F,
    so the bound stays sound when the rank guess is wrong.  With a rank
    bound n, l = min(K_out, K_in, n + 16) in one pass.  Without one, l
    starts at 32 and doubles while ||E||_F > 1e-12 ||mb||_F and
    l < min(K_out, K_in).  The trace of G^20, G = B^* B, dominates
    ||B||_2^40; it equals tr(H^20) = ||H^10||_F^2 for the l x l Hermitian
    H = B B^*, with H^10 = (H^4 H^4) H^2.
    Everything is divided by c, the largest squared column norm of mb:
    the top eigenvalue of G / c then lies in [1, K] up to the residual, so
    no power overflows or underflows at any scale, and the root is
    scaled back by c; a c out of range is brought in by scaling w_out by
    2^-k before anything is summed.  mb Omega and Q^* mb fold the weights
    into the thin factors, and E is formed one column block at a time.
    """
    sq = np.concatenate([np.einsum("ij,ij->j", block.conj(), block).real
                         for _, block in weighted_column_blocks(entries, w_out, w_in)])
    c = float(sq.max())
    shift = 0 if np.finfo(float).tiny <= c < math.inf else max(-1021, int(np.frexp(max(
        np.abs(block).max() for _, block in weighted_column_blocks(entries, w_out, w_in)))[1]))
    if shift:   # trace_k ~ ||mb||_2^2 may then exceed float64
        bound, details, witness = _two_two(entries, w_out * 2.0 ** -shift, w_in, rank_bound)
        with np.errstate(over="ignore"):
            return float(np.ldexp(bound, shift)), {
                key: float(np.ldexp(value, 2 * shift if key == "trace_k" else shift))
                for key, value in details.items()}, witness
    k_out, k_in = entries.shape
    if rank_bound is None:
        widest = min(k_out, k_in)
        cols = min(widest, RANGE_START)
    else:
        widest = cols = min(k_out, k_in, rank_bound + RANGE_OVERSAMPLING)
    c = c if c > 0 else 1.0
    target = RANGE_TOL * math.sqrt(c) * math.sqrt(np.sum(sq / c))
    while True:
        y = entries @ (np.random.default_rng(RANGE_SEED).standard_normal((k_in, cols))
                       / w_in[:, None])
        y *= w_out[:, None]
        q = np.linalg.qr(y)[0]
        del y   # like Omega / w_in: no K x l temporary outlives its use
        b = (np.conj(q.T) * w_out) @ entries / w_in
        residual = math.hypot(*(np.linalg.norm(block - q @ b[:, part])
                                for part, block in weighted_column_blocks(entries, w_out, w_in)))
        if residual <= target or cols == widest:
            break
        del q, b
        cols = min(2 * cols, widest)
    b /= math.sqrt(c)
    h = b @ np.conj(b.T)
    eigenvalues, vectors = np.linalg.eigh(h)
    h2 = h @ h
    h4 = h2 @ h2
    h10 = (h4 @ h4) @ h2
    trace_k = c * float(np.vdot(h10, h10).real ** (1.0 / 20))
    return math.sqrt(trace_k) + residual, {
        "trace_k": trace_k,
        "range_residual": residual,
        "svd_ground_truth": math.sqrt(c * max(float(eigenvalues[-1]), 0.0)),
    }, np.conj(np.conj(vectors[:, -1]) @ b)   # B^* v for the top eigenvector v


def schur_certificate(m, case, p=2.0, weights=None, rank_bound=None):
    """Evaluate one of the Schur-test boundedness criteria, with a witness.

    ``weights=(w_in, w_out)`` is required.  ``m`` is a plain matrix with an
    optional ``rank_bound`` for ``two_two``, or a GalerkinMatrix, which
    supplies its own rank bound.
    The cases with a closed form report ``exact_operator_norm`` of the
    conjugated matrix mb, ``inf_one`` its total absolute sum.  Only
    ``one_p`` (its p) and ``two_two`` (its trace root, range residual and
    top singular value) carry details.  ``witness_lower_bound`` is
    ||M x|| / ||x|| in the weighted spaces for x = y / w_in, where the witness
    y attains the closed forms: the unit vector of the largest column of |mb|
    (``one_inf``, ``one_p``) or the conjugate phases of its largest row
    (``inf_inf``, ``inf_zero``).  For ``two_two`` and ``inf_one`` (NP-hard in
    general) it is only a lower bound: B^* v, and Boyd's power method.
    mb is formed one column block at a time, and mb y as w_out (m (y / w_in)).
    """
    if case not in CERTIFICATE_CASES:
        raise InvalidInputError(f"unsupported certificate case {case!r}")
    if weights is None:
        raise InvalidInputError("a certificate needs weights=(w_in, w_out)")
    if isinstance(m, GalerkinMatrix):
        entries, rank_bound = m.entries, m.rank_bound
    else:
        entries = np.asarray(m)
    w1, w2 = weights
    details = {}
    if case == "one_p":
        p = float(p)
        if not 1.0 <= p < math.inf:
            raise InvalidInputError("one_p requires a finite exponent p >= 1")
        details["p"] = p
    p_in, p_out = _case_exponents(case, p)
    if case == "two_two":
        bound, details, witness = _two_two(entries, w2.values, w1.values, rank_bound)
    else:
        parts = (np.abs(block) for _, block in weighted_column_blocks(entries, w2.values,
                                                                      w1.values))
        if p_in == 1.0:
            reduction = np.concatenate([column_p_norms(a, p_out) for a in parts])
        else:   # first block's sums, then column by column: as a one-block or F-order sum
            reduction = next(parts).sum(axis=1)
            for a in parts:
                for column in a.T:
                    reduction += column
        top = int(reduction.argmax())
        bound = float(reduction.sum() if case == "inf_one" else reduction.max())
        witness = np.eye(1, entries.shape[1], top)[0] if p_in == 1.0 else _phase(np.conj(
            weighted_matrix(entries[top:top + 1], w2.values[top:top + 1], w1.values)[0]))
    if case == "inf_one":
        # Boyd's power method from the inf_inf witness: a step
        # y <- phase(mb^* phase(mb y)) cannot lower ||mb y||_1; at most 3
        z = w2.values * (entries @ (witness / w1.values))
        for _ in range(3):
            step = _phase(np.conj((np.conj(_phase(z)) * w2.values) @ entries / w1.values))
            z_step = w2.values * (entries @ (step / w1.values))
            if np.abs(z_step).sum() <= np.abs(z).sum():
                break
            witness, z = step, z_step
    x = witness / w1.values
    norm_in = seq_norm(x, SeqSpaceSpec(p_in, w1))
    lower = seq_norm(entries @ x, SeqSpaceSpec(p_out, w2)) / norm_in if norm_in else 0.0
    return BoundCertificate(case, bound, (w1, w2), witness, lower, details)


def certificate_probe_norm(entries, cert: BoundCertificate, probes=200, seed=0):
    """Empirical norm of the matrix on the certificate's space pair over Gaussian
    probes, which only this and the library's Galerkin norm bounds still draw."""
    in_space, out_space = cert.probe_spaces()
    return _probe_norm(np.asarray(entries), out_space, in_space,
                       probes=probes, seed=seed)


# -- invertibility ------------------------------------------------------------


def galerkin_pseudoinverse(m: GalerkinMatrix, phi: Frame, psi: Frame):
    """Matrix of the inverse operator against the dual frame pair.

    Computes M(dual psi, dual phi)(O^{-1}) and verifies that its product
    with the original matrix reproduces the range projection
    gram(dual psi, psi).  O^{-1} is held as O is: a symbol's inverse is
    1 / symbol on its side, a dense matrix's ``np.linalg.inv``.
    """
    op = m.generator
    if op.shape[0] != op.shape[1]:
        raise BijectivityError("generating operator must be square")
    s = op.spectrum.values
    if not (s[0] > 0 and s[-1] * OPERATOR_COND_CAP >= s[0]):
        raise BijectivityError("generating operator numerically singular")
    inv = (LinearOperator(np.linalg.inv(op.dense())) if op.side is None else LinearOperator(
        np.fft.ifft(1 / op.symbol) if op.side == "fourier" else 1 / op.symbol, side=op.side))
    phid, psid = canonical_dual(phi), canonical_dual(psi)
    dagger = galerkin_matrix(inv, psid, phid)
    defect = _range_projection_defect(dagger, m)
    if defect > PSEUDOINVERSE_CHECK_TOL:
        raise ContractError(
            f"pseudo-inverse failed the range-projection check ({defect:.3e})"
        )
    return dagger.entries


def _range_projection_defect(dagger: GalerkinMatrix, m: GalerkinMatrix):
    """||dagger M - G||_2 / max(||G||_2, 1) for the projection G = Psi~^* Psi.

    dagger M and G share the outer factors Q_{dual psi} and Q_psi^*, so
    both norms are those of n x n cores (``_core``): R O^{-1} (V_{dual phi}
    V_phi^*) O R^* for dagger M and R I R^* for G, with I held on the side of
    O, so that a lattice pair's cores are stacks of Walnut blocks.
    """
    identity = LinearOperator.identity(m.generator.shape[0], m.generator.side or "time")
    (inv, o, eye), (psid, phid, phi, psi), r_product, mixed = _operands(
        [dagger.generator, m.generator, identity], dagger.left_frame, dagger.right_frame,
        m.left_frame, m.right_frame)
    projection = _core(r_product, psid, psi, eye)
    residual = _norm2(_core(r_product, psid, psi, inv @ mixed(phid, phi, o)) - projection)
    return float(residual / max(_norm2(projection), 1.0))


def kappa_factorization_probe(op, phi: Frame, psi: Frame):
    """Compare kappa of the Galerkin matrix with the factored product.

    Generalized condition numbers of pseudo-inverse products are not
    submultiplicative in general, so neither direction is enforced: the
    probe reports both sides, their ratio, and whether lhs <= rhs held.
    The K x K matrices M(phi,psi), G(phi,psi) and G(dual psi,psi) have
    their spectra computed in the frames' ranges, from the cores
    (``galerkin_core``) of O and of the identity, held on the time side so
    that a lattice pair's Gram cores are the mf blocks R_t^l R_t^r* of order b.
    """
    op = as_operator(op)
    _check_maps(op, phi, psi)
    _check_maps(op, psi, psi)
    s = op.spectrum.values
    if not (s[0] > 0 and s[-1] * OPERATOR_COND_CAP >= s[0]):
        raise BijectivityError("operator must be invertible for the kappa probe")
    identity = LinearOperator.identity(op.shape[0], "time")
    lhs = spectrum(galerkin_core(op, phi, psi)[0]).kappa
    rhs = (
        spectrum(galerkin_core(identity, phi, psi)[0]).kappa
        * spectrum(galerkin_core(identity, canonical_dual(psi), psi)[0]).kappa
        * op.spectrum.kappa
    )
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs,
        "submultiplicative": bool(lhs <= rhs * (1 + CHECK_SLACK)),
    }
