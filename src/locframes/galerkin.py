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
from .frames import Frame, analysis, analysis_qr, canonical_dual, gram, synthesis
from .linalg import field_array, range_spectrum, singular_kappa
from .opnorms import exact_operator_norm, space_operator_norm, weighted_matrix
from .weights import SeqSpaceSpec, seq_norm

KAPPA_SLACK = 1e-8
PSEUDOINVERSE_CHECK_TOL = 1e-9
OPERATOR_COND_CAP = 1e12
POWER_ITERATIONS = 20
# the two_two range finder: extra columns over the rank bound, the first
# width tried without one, the residual ||E||_F / ||mb||_F at which it
# stops widening, and the seed of its test matrix, which does not depend
# on --seed
RANGE_OVERSAMPLING = 16
RANGE_START = 32
RANGE_TOL = 1e-12
RANGE_SEED = 0


class LinearOperator:
    """Linear map given as a dense matrix or an apply-closure.

    Closures are materialized by column probes only when a dense view
    is requested, so kernel operators never have to be formed eagerly.
    """

    def __init__(self, apply, shape, adjoint_apply=None, matrix=None, name="op"):
        self._apply = apply
        self.shape = tuple(shape)
        self._adjoint_apply = adjoint_apply
        self._matrix = None if matrix is None else field_array(matrix)
        self.name = name

    @classmethod
    def from_matrix(cls, m, name="op"):
        m = field_array(m)
        return cls(lambda f: m @ f, m.shape, adjoint_apply=lambda f: np.conj(m.T) @ f,
                   matrix=m, name=name)

    @classmethod
    def identity(cls, n):
        return cls.from_matrix(np.eye(n), name="identity")

    def apply(self, f):
        f = np.asarray(f, dtype=complex)
        if f.shape != (self.shape[1],):
            raise DimensionMismatchError(
                f"operator domain {self.shape[1]}, got vector {f.shape}"
            )
        return np.asarray(self._apply(f), dtype=complex)

    def dense(self):
        if self._matrix is None:
            cols = [self.apply(e) for e in np.eye(self.shape[1], dtype=complex).T]
            self._matrix = np.stack(cols, axis=1)
        return self._matrix

    def adjoint_apply(self, f):
        if self._adjoint_apply is not None:
            return np.asarray(self._adjoint_apply(f), dtype=complex)
        return np.conj(self.dense().T) @ np.asarray(f, dtype=complex)

    def linearity_residual(self, seed=0, probes=5):
        """Max relative defect of apply(a f + b g) - a apply(f) - b apply(g)."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        n = self.shape[1]
        for _ in range(probes):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a, b = rng.standard_normal(2)
            lhs = self.apply(a * f + b * g)
            rhs = a * self.apply(f) + b * self.apply(g)
            denom = max(np.linalg.norm(rhs), 1e-300)
            worst = max(worst, np.linalg.norm(lhs - rhs) / denom)
        return worst


def as_operator(op):
    if isinstance(op, LinearOperator):
        return op
    return LinearOperator.from_matrix(op)


@dataclass
class GalerkinMatrix:
    """Matrix <O xi_l, phi_k> tagged with its generating frames.

    With the frames' analysis QRs V^* = Q R the matrix equals
    ``q_left @ core @ q_right^*``, where Q has orthonormal columns and the
    core R_left O R_right^* is at most n x n.
    """

    entries: np.ndarray
    left_frame: Frame
    right_frame: Frame
    domain_space: SeqSpaceSpec = None
    codomain_space: SeqSpaceSpec = None
    generator: LinearOperator = None

    @property
    def shape(self):
        return self.entries.shape

    @property
    def rank_bound(self):
        """The ambient dimension, which the rank cannot exceed."""
        return min(self.left_frame.ambient_dim, self.right_frame.ambient_dim)

    @property
    def q_left(self):
        return analysis_qr(self.left_frame)[0]

    @property
    def q_right(self):
        return analysis_qr(self.right_frame)[0]

    @cached_property
    def core(self):
        if self.generator is None:
            raise InvalidInputError("no generating operator recorded")
        r_left, r_right = analysis_qr(self.left_frame)[1], analysis_qr(self.right_frame)[1]
        return r_left @ self.generator.dense() @ np.conj(r_right.T)

    def reproduction_residual(self):
        """Entrywise defect against a fresh assembly from the generator."""
        if self.generator is None:
            raise InvalidInputError("no generating operator recorded")
        fresh = galerkin_matrix(self.generator, self.left_frame, self.right_frame)
        denom = max(np.abs(self.entries).max(), 1e-300)
        # the fresh assembly is ours: take the difference in its buffer
        np.subtract(fresh.entries, self.entries, out=fresh.entries)
        return float(np.abs(fresh.entries).max() / denom)

    def idempotency_residual(self):
        """||M M - M||_2 = ||C (Q_right^* Q_left) C - C||_2 for the core C."""
        return float(np.linalg.norm(_core_product(self, self) - self.core, 2))


def _core_product(first: GalerkinMatrix, second: GalerkinMatrix):
    """Core of ``first.entries @ second.entries`` between first.q_left and
    second.q_right: C_1 (Q_1r^* Q_2l) C_2."""
    return first.core @ (np.conj(first.q_right.T) @ second.q_left) @ second.core


def _check_maps(op, left: Frame, right: Frame):
    if op.shape[1] != right.ambient_dim or op.shape[0] != left.ambient_dim:
        raise DimensionMismatchError(
            f"operator {op.shape} does not map {right.ambient_dim} -> {left.ambient_dim}"
        )


def galerkin_matrix(op, left: Frame, right: Frame,
                    domain_space=None, codomain_space=None):
    """Assemble M_{k,l} = <O xi_l, phi_k> column by column."""
    op = as_operator(op)
    _check_maps(op, left, right)
    if op._matrix is not None:
        entries = np.conj(left.vectors.T) @ (op.dense() @ right.vectors)
    else:
        cols = [analysis(left, op.apply(right.vectors[:, l]))
                for l in range(right.size)]
        entries = np.stack(cols, axis=1)
    return GalerkinMatrix(entries, left, right, domain_space, codomain_space,
                          generator=op)


def operator_from_matrix(m, left: Frame, right: Frame):
    """D_left o M o C_right as a lazily materialized operator."""
    entries = m.entries if isinstance(m, GalerkinMatrix) else np.asarray(m)
    if entries.shape != (left.size, right.size):
        raise DimensionMismatchError(
            f"matrix {entries.shape} against frame sizes "
            f"({left.size}, {right.size})"
        )

    def apply(h):
        return synthesis(left, entries @ analysis(right, h))

    out = LinearOperator(apply, (left.ambient_dim, right.ambient_dim),
                         name=f"O[{left.name},{right.name}]")
    return out


def roundtrip_check(op, phi: Frame, psi: Frame):
    """Relative defect of both orderings of the representation identity.

    Checks O(phi,psi) o M(dual phi,dual psi) = Id = O(dual...) o M(phi,psi)
    applied to the given operator, in the dense 2-norm.  Each side
    D_left M C_right is the n x n product (Phi Phi~^*) O (Psi~ Psi^*), or
    its mirror with the adjoint outer factors.
    """
    op = as_operator(op)
    _check_maps(op, phi, psi)
    dense = op.dense()
    scale = max(np.linalg.norm(dense, 2), 1e-300)
    phid, psid = canonical_dual(phi), canonical_dual(psi)
    left = phi.vectors @ np.conj(phid.vectors.T)
    right = psid.vectors @ np.conj(psi.vectors.T)
    first = left @ dense @ right
    second = np.conj(left.T) @ dense @ np.conj(right.T)
    r1 = np.linalg.norm(first - dense, 2) / scale
    r2 = np.linalg.norm(second - dense, 2) / scale
    return float(max(r1, r2))


def compose_rule_check(op1, op2, phi: Frame, psi: Frame, xi: Frame):
    """Relative Frobenius defect of M(O1 O2) = M(O1) M(dual-xi side O2).

    The defect is Phi^* O1 (I - Xi Xi~^*) O2 Psi.  With the analysis QRs
    Phi^* = Q R it has the Frobenius norm of the n x n
    R_phi O1 (I - Xi Xi~^*) O2 R_psi^*, and M(O1 O2) that of R_phi O1 O2 R_psi^*.
    """
    op1, op2 = as_operator(op1), as_operator(op2)
    _check_maps(op1, phi, xi)
    _check_maps(op2, xi, psi)
    xid = canonical_dual(xi)
    left = analysis_qr(phi)[1] @ op1.dense()
    right = op2.dense() @ np.conj(analysis_qr(psi)[1].T)
    defect = left @ (right - xi.vectors @ (np.conj(xid.vectors.T) @ right))
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
    ok_forward = m_norm <= forward * o_certified * (1 + KAPPA_SLACK)
    ok_backward = measured_o <= backward * m_norm * (1 + KAPPA_SLACK)
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

# detail key of the cases whose bound is an exact operator norm
_EXACT_DETAIL = {"inf_inf": "row_sums_max", "inf_zero": "row_sums_max",
                 "one_inf": "sup_entry", "one_p": "column_p_norm_max"}


def _case_exponents(case, p):
    p_in, p_out = CASE_EXPONENTS[case]
    return p_in, p if p_out is None else p_out


@dataclass
class BoundCertificate:
    """Certified operator-norm bound from a Schur-type criterion."""

    case: str
    certified_bound: float
    weights: tuple
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "case": self.case,
            "certified_bound": self.certified_bound,
            "details": dict(self.details),
        }

    def probe_spaces(self):
        """(in_space, out_space) pair the certificate applies to."""
        w1, w2 = self.weights
        p_in, p_out = _case_exponents(self.case, self.details.get("p"))
        return SeqSpaceSpec(p_in, w1), SeqSpaceSpec(p_out, w2)


def _greedy_subset_quantity(mb):
    """Greedy estimate of sup over row subsets E of sum_l |sum_{k in E} m_{kl}|."""
    totals = np.zeros(mb.shape[1], dtype=mb.dtype)
    best = 0.0
    order = np.argsort(-np.abs(mb).sum(axis=1))
    for k in order:
        cand = totals + mb[k]
        val = np.abs(cand).sum()
        if val > best:
            best = val
            totals = cand
    return float(best)


def _two_two(mb, rank_bound=None):
    """Trace-power bound on ||mb||_2 from a randomized range finder.

    Q = qr(mb Omega) for a Gaussian Omega with l columns.  With
    B = Q^* mb and the residual E = mb - Q B, ||mb||_2 <= ||B||_2 + ||E||_F,
    so the bound stays sound when the rank guess is wrong.  With a rank
    bound n, l = min(K_out, K_in, n + 16) in one pass.  Without one, l
    starts at 32 and doubles while ||E||_F > 1e-12 ||mb||_F and
    l < min(K_out, K_in).  The trace of
    G^20, G = B^* B, dominates ||B||_2^40; it and diag(G^k) =
    diag(B^* H^(k-1) B) are read off powers of the l x l H = B B^*.
    Everything is divided by c, the largest squared column norm of mb:
    the top eigenvalue of G / c then lies in [1, K] up to the residual, so
    no power overflows or underflows at any scale, and every root is
    scaled back by c.
    """
    k_out, k_in = mb.shape
    if rank_bound is None:
        widest = min(k_out, k_in)
        cols = min(widest, RANGE_START)
    else:
        widest = cols = min(k_out, k_in, rank_bound + RANGE_OVERSAMPLING)
    target = RANGE_TOL * np.linalg.norm(mb)
    while True:
        omega = np.random.default_rng(RANGE_SEED).standard_normal((k_in, cols))
        q = np.linalg.qr(mb @ omega)[0]
        b = np.conj(q.T) @ mb
        e = q @ b
        e -= mb
        residual = float(np.linalg.norm(e))
        del e   # K x K; the powers below need only l x K
        if residual <= target or cols == widest:
            break
        cols = min(2 * cols, widest)
    c = float(np.max(np.einsum("ij,ij->j", np.conj(mb), mb).real, initial=0.0))
    c = c if c > 0 else 1.0
    b /= math.sqrt(c)
    h = b @ np.conj(b.T)
    top = max(float(np.linalg.eigvalsh(h)[-1]), 0.0)

    h2 = h @ h
    h3 = h2 @ h
    h4 = h2 @ h2
    h7 = h4 @ h3
    h15 = (h4 @ h4) @ h7
    # diag(G^n) = diag(B^* H^(n-1) B), one l x K product at a time
    h_powers = {1: None, 2: h, 4: h3, 8: h7, 16: h15, POWER_ITERATIONS: h15 @ h4}
    b_conj = np.conj(b)
    diagonals = {n: np.einsum("ij,ij->j", b_conj, b if hp is None else hp @ b).real
                 for n, hp in h_powers.items()}
    roots = {n: c * float(np.max(d) ** (1.0 / n)) for n, d in diagonals.items()}
    # the diagonal roots approach ||.||_2^2 from BELOW; log-domain
    # Richardson across one doubling removes their 1/n bias but stays
    # an estimate.  The trace of the same power dominates the top
    # eigenvalue, so it certifies the bound.
    r8, r16 = roots[8], roots[16]
    extrapolated = math.exp(2.0 * math.log(r16) - math.log(r8)) if r8 > 0 else 0.0
    trace_k = c * float(np.sum(diagonals[POWER_ITERATIONS]) ** (1.0 / POWER_ITERATIONS))
    return math.sqrt(trace_k) + residual, {
        "diagonal_roots": {str(n): v for n, v in sorted(roots.items())},
        "extrapolated_diagonal_root": extrapolated,
        "trace_k": trace_k,
        "range_residual": residual,
        "svd_ground_truth": math.sqrt(c * top),
    }


def schur_certificate(m, case, p=2.0, weights=None, rank_bound=None):
    """Evaluate one of the Schur-test boundedness criteria.

    ``m`` may be a GalerkinMatrix carrying space specs (whose weights are
    used) and its rank bound, or a plain matrix with explicit
    ``weights=(w_in, w_out)`` and an optional ``rank_bound`` for
    ``two_two``.
    The cases with a closed form report ``exact_operator_norm`` of the
    conjugated matrix; the raw Schur quantities land in the details.
    """
    if case not in CERTIFICATE_CASES:
        raise InvalidInputError(f"unsupported certificate case {case!r}")
    if isinstance(m, GalerkinMatrix):
        entries = m.entries
        rank_bound = m.rank_bound
        if weights is None:
            if m.domain_space is None or m.codomain_space is None:
                raise InvalidInputError("matrix carries no space specs; pass weights")
            weights = (m.domain_space.weight, m.codomain_space.weight)
    else:
        entries = np.asarray(m)
        if weights is None:
            raise InvalidInputError("plain matrices need explicit weights")
    w1, w2 = weights
    mb = weighted_matrix(entries, w2.values, w1.values)
    if case == "two_two":
        bound, details = _two_two(mb, rank_bound)
    elif case == "inf_one":
        bound = float(np.abs(mb).sum())
        details = {
            "absolute_sum": bound,
            "greedy_subset_quantity": _greedy_subset_quantity(mb),
            "surrogate": ("finite-scale exact form: total absolute sum certifies "
                          "the bound; the subset supremum is estimated greedily"),
        }
    else:
        details = {}
        if case == "one_p":
            p = float(p)
            if not 1.0 <= p < math.inf:
                raise InvalidInputError("one_p requires a finite exponent p >= 1")
            details["p"] = p
        bound = exact_operator_norm(mb, *_case_exponents(case, p))
        details[_EXACT_DETAIL[case]] = bound
        if case == "inf_zero":
            tail = np.abs(mb[-max(1, mb.shape[0] // 4):]).sum(axis=1)
            details["tail_row_sum_mean"] = float(tail.mean())
            details["surrogate"] = "vanishing-row-sum limit probed on the tail block"
    return BoundCertificate(case, bound, (w1, w2), details)


def certificate_probe_norm(entries, cert: BoundCertificate, probes=200, seed=0):
    """Empirical norm of the matrix on the certificate's space pair."""
    in_space, out_space = cert.probe_spaces()
    return _probe_norm(np.asarray(entries), out_space, in_space,
                       probes=probes, seed=seed)


# -- invertibility ------------------------------------------------------------


def galerkin_pseudoinverse(m: GalerkinMatrix, phi: Frame, psi: Frame):
    """Matrix of the inverse operator against the dual frame pair.

    Computes M(dual psi, dual phi)(O^{-1}) and verifies that its product
    with the original matrix reproduces the range projection
    gram(dual psi, psi).
    """
    if m.generator is None:
        raise InvalidInputError("pseudo-inversion needs the generating operator")
    dense = m.generator.dense()
    if dense.shape[0] != dense.shape[1]:
        raise BijectivityError("generating operator must be square")
    cond = np.linalg.cond(dense)
    if not np.isfinite(cond) or cond > OPERATOR_COND_CAP:
        raise BijectivityError(
            f"generating operator numerically singular (cond {cond:.3e})"
        )
    inv = LinearOperator.from_matrix(np.linalg.inv(dense))
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
    both norms are those of n x n cores.
    """
    projection = (analysis_qr(dagger.left_frame)[1]
                  @ np.conj(analysis_qr(m.right_frame)[1].T))
    residual = np.linalg.norm(_core_product(dagger, m) - projection, 2)
    return float(residual / max(np.linalg.norm(projection, 2), 1.0))


def kappa_factorization_probe(op, phi: Frame, psi: Frame):
    """Compare kappa of the Galerkin matrix with the factored product.

    Generalized condition numbers of pseudo-inverse products are not
    submultiplicative in general, so neither direction is enforced: the
    probe reports both sides, their ratio, and whether lhs <= rhs held.
    The K x K matrices M(phi,psi), G(phi,psi) and G(dual psi,psi) have
    their spectra computed in the frames' ranges.
    """
    op = as_operator(op)
    dense = op.dense()
    s = np.linalg.svd(dense, compute_uv=False)
    if not s[-1] * OPERATOR_COND_CAP >= s[0]:
        raise BijectivityError("operator must be invertible for the kappa probe")
    qr_phi, qr_psi = analysis_qr(phi), analysis_qr(psi)
    qr_psid = analysis_qr(canonical_dual(psi))
    lhs = range_spectrum(qr_phi, qr_psi, dense).kappa
    rhs = (
        range_spectrum(qr_phi, qr_psi).kappa
        * range_spectrum(qr_psid, qr_psi).kappa
        * singular_kappa(s)
    )
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs,
        "submultiplicative": bool(lhs <= rhs * (1 + KAPPA_SLACK)),
    }
