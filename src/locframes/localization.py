"""Localization certificates, coorbit norms, duality, and inclusion at finite scale."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebras import (
    FIT_MARGIN,
    JAFFARD,
    SCHUR_WEIGHTED,
    DecayFit,
    MatrixAlgebraSpec,
    algebra_norms,
    algebra_product_constant,
    fit_shells,
    shell_maxima,
    weight_admissible,
)
from .errors import ContractError, InsufficientDataError, NotLocalizedError
from .frames import (Frame, analysis, canonical_dual, frame_bounds, gram, mixed_frame_operator,
                     shared_lattice, synthesis)
from .indexing import IndexSet, ShellPartition
from .linalg import pseudo_inverse
from .weights import (
    DEFAULT_SCHEDULE,
    InclusionReport,
    SeqSpaceSpec,
    decay_envelope,
    dual_pairing,
    seq_norm,
    seq_space_included,
)

NORM_BOUNDED_FLOOR = 1e-6
DUALITY_RESIDUAL_TOL = 1e-8
DUAL_EXPONENT_DROP = 0.5


@dataclass
class LocalizationReport:
    """Algebra-membership certificate for a frame pair."""

    algebra: MatrixAlgebraSpec
    cross_gram_norm: float
    member: bool
    fit: DecayFit
    pair: tuple
    norms: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "algebra": self.algebra.to_dict(),
            "cross_gram_norm": self.cross_gram_norm,
            "member": self.member,
            "decay_fit": self.fit.to_dict(),
            "pair": list(self.pair),
            "norms": self.norms,
        }


class DenseMagnitudes:
    """|G(left, right)| as a K x K array: the reference, used for every
    pair that is not a lattice pair."""

    def __init__(self, left: Frame, right: Frame):
        self.values = np.abs(gram(left, right))
        self.rows, self.cols = left.index_set, right.index_set

    def algebra_norms(self, s):
        return algebra_norms(self.values, s, self.rows, self.cols)

    def shell_maxima(self):
        return shell_maxima(self.values, self.rows, self.cols)

    def weighted_sums(self, w):
        """Largest column and row sums of diag(w) |G| diag(1/w)."""
        col_sums = (w @ self.values) / w
        row_sums = w * (self.values @ (1.0 / w))
        return float(col_sums.max()), float(row_sums.max())


class LatticeProfile:
    """|G(left, right)| of a lattice pair, read from the one K-vector
    g = |Phi_left^* gamma| of the right window gamma.

    Both frames are Gabor systems on one lattice and share one index set,
    the row-major (mt, mf) torus of lattice points.  pi(l)^* pi(m) is a
    phase times pi(m - l), so |G|_{k,l} = g[lambda_k - lambda_l], the
    difference taken on the torus: |G| is a 2-D circulant (the Gram of a
    Gabor system is a twisted convolution; Groechenig, JFAA 2004).  Every
    lattice difference occurs in each row and each column, so the
    distance to the origin d_0 stands for the distance matrix.
    """

    def __init__(self, left: Frame, right: Frame):
        self.index_set = left.index_set
        self.shape = mt, mf = tuple(int(m) for m in self.index_set.moduli)
        # g[(m, j)] = |sum_x h_m[x] e^{2 pi i j x / mf}| for h_m = conj(gamma) T_{ma} w; the
        # phase has period mf: h_m folded to length mf, one FFT per m, no K x n array
        n, a = left.ambient_dim, left.lattice[0]
        shifted = left.window[(np.arange(n) - a * np.arange(mt)[:, None]) % n]
        h = (np.conj(right.window) * shifted).reshape(mt, -1, mf).sum(axis=1)
        self.values = np.abs(np.fft.ifft(h, norm="forward")).ravel()

    def algebra_norms(self, s):
        """Jaffard: max of g (1 + d_0)^s; Schur: its sum, which every row
        and every column of |G| (1 + d)^s shares."""
        m = decay_envelope(self.index_set.distance_to_origin(), s)
        m *= self.values
        return {JAFFARD: float(m.max()), SCHUR_WEIGHTED: float(m.sum())}

    def shell_maxima(self):
        return ShellPartition.of(self.index_set.distance_to_origin()).maxima(self.values)

    @cached_property
    def _spectrum(self):
        return np.fft.rfft2(self.values.reshape(self.shape))

    def weighted_sums(self, w):
        """Largest column and row sums of diag(w) |G| diag(1/w).

        The column sums are the circular correlation of w with g over the
        torus, divided by w; the row sums are w times the convolution of
        g with 1/w.  Both are FFTs of size K.  Their rounding is of order
        u log K relative to the largest terms, so a steep weight, whose
        values span many orders of magnitude, loses that range in
        relative accuracy where w is small.
        """
        w = w.reshape(self.shape)
        col_sums = np.fft.irfft2(np.fft.rfft2(w) * np.conj(self._spectrum),
                                 s=self.shape) / w
        row_sums = w * np.fft.irfft2(self._spectrum * np.fft.rfft2(1.0 / w),
                                     s=self.shape)
        return float(col_sums.max()), float(row_sums.max())


def gram_magnitudes(left: Frame, right: Frame):
    """|G(left, right)|: a ``LatticeProfile`` for a lattice pair, else a
    ``DenseMagnitudes``.

    A lattice pair is two Gabor frames with a ``shared_lattice`` (a, b)
    that share one index set laid out as ``IndexSet.torus_grid(n/a, n/b)``.
    """
    if left.lattice and shared_lattice(left, right) and left.index_set is right.index_set:
        n, (a, b) = left.ambient_dim, left.lattice
        if left.index_set.is_torus_grid(n // a, n // b):
            return LatticeProfile(left, right)
    return DenseMagnitudes(left, right)


class GramMagnitudes:
    """|G| and |G_dual| of one frame (see ``gram_magnitudes``), each formed
    on first use and kept.

    ``dual_localization_check`` and ``equivalence_grid`` share one
    instance, so that neither Gram is formed twice.
    """

    def __init__(self, frame: Frame):
        self.frame = frame

    @cached_property
    def primal(self):
        return gram_magnitudes(self.frame, self.frame)

    @cached_property
    def dual(self):
        dual = canonical_dual(self.frame)
        return gram_magnitudes(dual, dual)


def localization_report(left: Frame, right: Frame, alg: MatrixAlgebraSpec, mags=None):
    """Evaluate the algebra norm and decay of the cross-Gram of two frames.

    Membership needs the algebra norm under the algebra's cap and a fitted
    decay exponent not more than a small margin below s.  A Gram whose
    off-diagonal mass dies before four shells (e.g. the identity) counts
    as superpolynomially localized.  Norms and shells are all read from
    one ``gram_magnitudes``, which the caller may pass as ``mags``.
    """
    if mags is None:
        mags = gram_magnitudes(left, right)
    norms = mags.algebra_norms(alg.s)
    shells = mags.shell_maxima()
    try:
        fit = fit_shells(shells)
    except InsufficientDataError:
        fit = DecayFit(math.inf, 0.0, shells)
    norm = norms[alg.kind]
    decay_ok = fit.superpolynomial or fit.fitted_exponent >= alg.s - FIT_MARGIN
    return LocalizationReport(
        algebra=alg,
        cross_gram_norm=norm,
        member=bool(norm <= alg.membership_threshold and decay_ok),
        fit=fit,
        pair=(left.name, right.name),
        norms=norms,
    )


@dataclass
class DualLocalizationResult:
    primal: LocalizationReport
    dual: LocalizationReport
    cross: LocalizationReport
    exponent_drop_flagged: bool

    def reports(self):
        return (self.primal, self.dual, self.cross)

    def to_dict(self):
        return {
            "primal": self.primal.to_dict(),
            "dual": self.dual.to_dict(),
            "cross": self.cross.to_dict(),
            "exponent_drop_flagged": self.exponent_drop_flagged,
        }


def dual_localization_check(frame: Frame, alg: MatrixAlgebraSpec, grams=None):
    """Probe whether localization survives canonical dualization.

    Requires the frame to be intrinsically a member; flags the result
    when the dual Gram's fitted exponent drops more than 0.5 below the
    primal one (empirical spectral-invariance probe).  ``grams`` is the
    frame's ``GramMagnitudes`` when the caller shares them.
    """
    grams = GramMagnitudes(frame) if grams is None else grams
    primal = localization_report(frame, frame, alg, grams.primal)
    if not primal.member:
        raise NotLocalizedError(
            f"{frame.name} is not intrinsically localized for {alg.kind}(s={alg.s})",
            report=primal,
        )
    dual = canonical_dual(frame)
    rep_dual = localization_report(dual, dual, alg, grams.dual)
    rep_cross = localization_report(frame, dual, alg)
    flagged = rep_dual.fit.fitted_exponent < primal.fit.fitted_exponent - DUAL_EXPONENT_DROP
    return DualLocalizationResult(primal, rep_dual, rep_cross, bool(flagged))


def _duality_residual(phi: Frame, phi_dual: Frame):
    if phi.vectors.shape != phi_dual.vectors.shape:
        return math.inf
    return float(np.linalg.norm(mixed_frame_operator(phi, phi_dual) - np.eye(phi.ambient_dim), 2))


@dataclass
class TransitivityReport:
    hypothesis_norms: tuple
    conclusion_norm: float
    constant: float
    holds: bool
    duality_residual: float


def transitivity_check(psi, phi, phi_dual, xi, alg: MatrixAlgebraSpec):
    """Numerical check that localization propagates through a dual pair.

    The conclusion cross-Gram factors exactly through the two hypothesis
    Grams, so its algebra norm is bounded by their product times the
    finite-scale algebra constant.
    """
    res = _duality_residual(phi, phi_dual)
    if res > DUALITY_RESIDUAL_TOL:
        raise ContractError(
            f"{phi_dual.name} is not a dual of {phi.name} (residual {res:.3e})"
        )
    n1 = alg.norm(gram(psi, phi), psi.index_set, phi.index_set)
    n2 = alg.norm(gram(phi_dual, xi), phi_dual.index_set, xi.index_set)
    nc = alg.norm(gram(psi, xi), psi.index_set, xi.index_set)
    if alg.kind == "jaffard":
        const = algebra_product_constant(alg, psi.index_set, phi.index_set)
    else:
        const = float(2.0**alg.s)
    holds = nc <= const * n1 * n2 * (1 + 1e-12)
    return TransitivityReport((n1, n2), nc, const, bool(holds), res)


# -- coorbit machinery -------------------------------------------------------


class CoorbitSpec:
    """A frame together with the sequence space that grades it.

    When an algebra is supplied the weight must be admissible for it.
    """

    def __init__(self, frame: Frame, space: SeqSpaceSpec, algebra=None):
        if len(space.weight) != frame.size:
            space = space.on(frame.index_set)
        self.frame = frame
        self.space = space
        self.algebra = algebra
        if algebra is not None:
            if not weight_admissible(algebra, space.weight, frame.index_set.dim):
                raise ContractError(
                    f"weight not admissible for {algebra.kind}(s={algebra.s})"
                )


def coorbit_norm(f, spec: CoorbitSpec):
    """||f|| = weighted sequence norm of the dual-frame coefficients."""
    dual = canonical_dual(spec.frame)
    return seq_norm(analysis(dual, f), spec.space)


def coorbit_pairing(f, h, spec: CoorbitSpec):
    """<C~ f, C h>; consistent with the ambient inner product."""
    dual = canonical_dual(spec.frame)
    return dual_pairing(analysis(dual, f), analysis(spec.frame, h))


def _lp_norm(l1_linf, p):
    """Exact for p in {1, inf}; the interpolation upper bound in between."""
    l1, linf = l1_linf
    return l1 if p == 1.0 else linf if p == math.inf else max(l1, linf)


def equivalence_grid(frame: Frame, spaces, grams=None):
    """``equivalence_constants`` for each space in ``spaces``, in order.

    |G| and |G_dual| come from ``grams`` (formed here when not given), and
    each distinct weight object costs one pass of weighted row and column
    sums over each of them: matrix-vector products, or FFTs of a lattice
    profile.
    """
    grams = GramMagnitudes(frame) if grams is None else grams
    mags = (grams.primal, grams.dual)
    sums = {}
    out = []
    for space in spaces:
        if id(space.weight) not in sums:
            w = space.weight.on(frame.index_set).values
            sums[id(space.weight)] = [m.weighted_sums(w) for m in mags]
        primal_sums, dual_sums = sums[id(space.weight)]
        p = space.effective_p
        out.append((1.0 / _lp_norm(dual_sums, p), _lp_norm(primal_sums, p)))
    return out


def equivalence_constants(frame: Frame, space: SeqSpaceSpec):
    """Sandwich constants between ||C f||_{p,w} and the coorbit norm.

    lower = 1 / ||G_dual||, upper = ||G||, with exact weighted operator
    norms for p in {1, inf} and interpolation upper bounds in between.
    """
    return equivalence_grid(frame, [space])[0]


@dataclass
class CoorbitInclusionReport:
    included: bool
    seq_certificate: InclusionReport
    witness_kind: str = "none"
    schedule_ratios: list = field(default_factory=list)
    frame_ratios: list = field(default_factory=list)
    witness_vector: object = None
    monotone: bool = True

    def to_dict(self):
        return {
            "included": self.included,
            "seq_certificate": self.seq_certificate.to_dict(),
            "witness_kind": self.witness_kind,
            "schedule_ratios": [{"size": n, "ratio": r} for n, r in self.schedule_ratios],
            "frame_ratios": [{"size": n, "ratio": r} for n, r in self.frame_ratios],
            "monotone": self.monotone,
        }


def _seq_witness_ratios(a, b, spike):
    out = []
    for n in DEFAULT_SCHEDULE:
        iset = IndexSet.line(n)
        sa, sb = a.on(iset), b.on(iset)
        if spike:
            k = int(np.argmax(sb.weight.values / sa.weight.values))
            c = np.zeros(n)
            c[k] = 1.0
        else:
            c = np.ones(n)
        out.append((n, seq_norm(c, sb) / seq_norm(c, sa)))
    return out


def coorbit_inclusion(frame: Frame, a: SeqSpaceSpec, b: SeqSpaceSpec):
    """Finite-scale realization of the inclusion equivalence.

    The verdict mirrors the sequence-space test.  For a non-inclusion an
    indicator-type witness is pushed through synthesis and its coorbit
    norm ratios are tracked along nested index truncations.
    """
    if frame.min_vector_norm() < NORM_BOUNDED_FLOOR:
        raise ContractError("frame is not norm-bounded below")
    seq_rep = seq_space_included(a, b)
    if seq_rep.included:
        return CoorbitInclusionReport(True, seq_rep)

    spike = a.effective_p <= b.effective_p
    ratios = _seq_witness_ratios(a, b, spike)

    af, bf = a.on(frame.index_set), b.on(frame.index_set)
    spec_a = CoorbitSpec(frame, af)
    spec_b = CoorbitSpec(frame, bf)
    frame_ratios = []
    witness = None
    sub = [n for n in DEFAULT_SCHEDULE if n <= frame.size]
    if not sub or sub[-1] != frame.size:
        sub.append(frame.size)
    for n in sub:
        c = np.zeros(frame.size)
        if spike:
            ratio_w = bf.weight.values[:n] / af.weight.values[:n]
            c[int(np.argmax(ratio_w))] = 1.0
        else:
            c[:n] = 1.0
        witness = synthesis(frame, c)
        na, nb = coorbit_norm(witness, spec_a), coorbit_norm(witness, spec_b)
        frame_ratios.append((n, nb / na if na > 0 else math.inf))
    seq_vals = [r for _, r in ratios]
    monotone = all(x < y * (1 + 1e-12) for x, y in zip(seq_vals, seq_vals[1:]))
    return CoorbitInclusionReport(
        False,
        seq_rep,
        witness_kind="spike" if spike else "indicator",
        schedule_ratios=ratios,
        frame_ratios=frame_ratios,
        witness_vector=witness,
        monotone=monotone,
    )


def min_synthesis_norm(f, frame: Frame, space: SeqSpaceSpec):
    """Smallest coefficient norm representing f, exact for p = 2.

    For p = 2 the weighted least-norm solution is computed through the
    pseudo-inverse; other exponents return the canonical-dual
    coefficient norm as a certified upper bound.
    """
    frame_bounds(frame)
    space = space.on(frame.index_set)
    f = np.asarray(f, dtype=complex)
    if space.effective_p == 2.0:
        w = space.weight.values
        u = pseudo_inverse(frame.vectors / w[None, :]) @ f
        c = u / w
        return {"value": seq_norm(c, space), "kind": "exact", "coefficients": c}
    c = analysis(canonical_dual(frame), f)
    return {"value": seq_norm(c, space), "kind": "bound", "coefficients": c}
