"""Projection / finite-section solver and frame-Galerkin solve for O f = g."""

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError, DimensionMismatchError, InvalidInputError
from .frames import Frame, analysis, analysis_r_adjoint, analysis_r_product
# galerkin_matrix is re-exported: callers import it from this module
from .galerkin import LinearOperator, as_operator, galerkin_core, galerkin_matrix  # noqa: F401
from .indexing import IndexSet
from .linalg import EPS, adjoint, blockwise, field_array, hermitian_defect, spectrum

PROJECTION_TOL = 1e-10
DEFAULT_TOL = 1e-8
# a subframe bound ratio d_N / c_N above this at any level raises the
# schedule's uniformity flag
UNIFORMITY_RATIO_CAP = 1e8
# largest Frobenius-relative defect ||M - M^*||_F / ||M||_F for which a
# matrix counts as Hermitian and CG runs on it directly
HERMITIAN_TOL = 1e-8


# -- subframe projections -----------------------------------------------------


def _span_basis(vectors):
    """Spectrum and span of S_N = V_N V_N^* from one SVD of V_N.

    Returns the eigenvalues sigma^2 of S_N above ``PROJECTION_TOL``
    relative to the largest, descending (the subframe bounds are the last
    and the first), and the orthonormal basis Q_N of their left singular
    vectors.  Working on V_N instead of S_N keeps the span accurate when
    S_N is ill-conditioned.  A coordinate family, whose columns each hold
    one entry of modulus exactly 1 in rows no two columns share, is
    orthonormal as it stands: it is its own span basis, every sigma^2 is
    1, and no SVD is taken (an O(n N) check); columns of the identity give their rows.
    """
    nonzero = vectors != 0
    if ((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) <= 1).all()
            and (np.abs(vectors[nonzero]) == 1).all()):
        ones = (vectors[nonzero] == 1).all()
        return np.ones(vectors.shape[1]), np.argmax(nonzero, axis=0) if ones else vectors
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    w = s**2
    keep = w > PROJECTION_TOL * w[0]
    return w[keep], u[:, keep]


def _section(q, a, y):
    """The core Q_N^* A Q_N, the right side Q_N^* y and the lift c -> Q_N c;
    when Q_N selects columns k of the identity, given as the indices k
    (``_span_basis``), the core A[k][:, k] (A itself for every index in order),
    y[k] and a scatter."""
    if q.ndim == 1:
        core = a if np.array_equal(q, np.arange(len(a))) else a[np.ix_(q, q)]

        def lift(c):
            x = np.zeros(len(a), dtype=c.dtype)
            x[q] = c
            return x
        return core, y[q], lift
    qh = np.conj(q.T)
    return qh @ a @ q, qh @ y, lambda c: q @ c


def _projector(q, name):
    """The orthogonal projection Q_N Q_N^* onto the span of Q_N."""
    return LinearOperator(q @ np.conj(q.T), name=name)


def subframe_projection(frame: Frame, subset):
    """Orthogonal projection onto the span of a subfamily.

    Built as Q_N Q_N^* from the singular vectors of the subfamily whose
    squared singular values lie above ``PROJECTION_TOL`` relative to the
    largest; idempotent and self-adjoint.
    """
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise InvalidInputError("projection needs a nonempty index subset")
    vectors = frame.vectors[:, subset]
    q = _span_basis(vectors)[1]
    return _projector(vectors if q.ndim == 1 else q, f"P[{frame.name}:{subset.size}]")


class ProjectionSchedule:
    """Nested index subsets K_1 c K_2 c ... c K with per-level span bases.

    The levels are the first m indices of one ordering, for sizes m that
    double from ``start`` (or ``n_levels`` sizes halving down from K) and
    end at K, so they are strictly nested and the last is the full index
    set.  ``centered`` orders indices by distance to the middle index;
    ``greedy`` by decreasing analysis energy of a pilot vector.
    ``_span_basis`` of each level's vectors V_N gives the
    subframe bounds (extreme nonzero eigenvalues of S_N = V_N V_N^*) and an
    orthonormal basis Q_N of the level's span (``bases``): one SVD of V_N.  The last
    level, the whole frame, goes first: when it is columns of the identity (an ONB),
    that one O(n K) check gives each level the rows it selects (``bases`` forms Q_N =
    V_N when read).  A flag is raised when a level's bound ratio exceeds ``UNIFORMITY_RATIO_CAP``.
    """

    def __init__(self, frame: Frame, selection="centered", pilot=None,
                 start=8, n_levels=None):
        self.frame = frame
        k = frame.size
        if n_levels is not None:
            if n_levels < 1:
                raise InvalidInputError("need at least one level")
            sizes = sorted({max(1, round(k * 2.0 ** -(n_levels - 1 - i)))
                            for i in range(n_levels)})
        else:
            if start < 1:
                raise InvalidInputError(f"start level must be >= 1, got {start}")
            sizes = []
            m = min(start, k)
            while m < k:
                sizes.append(m)
                m *= 2
            sizes.append(k)
        order = self._ordering(selection, pilot)
        self.levels = [np.sort(order[:m]) for m in sizes]
        self._sections = []
        self.subframe_bounds = []
        self.uniformity_flag = False
        whole = _span_basis(frame.vectors)
        for lv in self.levels:
            pos, q = ((np.ones(len(lv)), whole[1][lv]) if whole[1].ndim == 1 else
                      whole if len(lv) == k else _span_basis(frame.vectors[:, lv]))
            c_n, d_n = float(pos[-1]), float(pos[0])
            self._sections.append(q)
            self.subframe_bounds.append((c_n, d_n))
            if d_n / c_n > UNIFORMITY_RATIO_CAP:
                self.uniformity_flag = True

    def _ordering(self, selection, pilot):
        k = self.frame.size
        if selection == "centered":
            center = k // 2
            return np.argsort(np.abs(np.arange(k) - center), kind="stable")
        if selection == "greedy":
            if pilot is None:
                raise InvalidInputError("greedy needs a pilot vector")
            coeff = analysis(self.frame, pilot)
            return np.argsort(-np.abs(coeff), kind="stable")
        raise InvalidInputError(f"unknown selection {selection!r}")

    @property
    def bases(self):
        return [self.frame.vectors[:, lv] if q.ndim == 1 else q
                for lv, q in zip(self.levels, self._sections)]

    @bases.setter
    def bases(self, bases):
        self._sections = list(bases)

    def projection(self, i):
        name = f"P[{self.frame.name}:{len(self.levels[i])}]"
        return _projector(self.bases[i], name)


# -- reports ------------------------------------------------------------------


@dataclass
class LevelRecord:
    size: int
    residual: float
    error: float = None
    inverse_norm: float = None
    iterations: int = 0
    kappa_dagger: float = None
    # the level's core is rank-deficient
    singular: bool = False
    # the Richardson iteration ran away on the level
    diverged: bool = False
    # the path spectrum took on the level's core: "eigh" or "svd"
    decomposition: str = None
    # CG ran on the normal equations C* C c = C* b
    normal_equations: bool = False

    def to_dict(self):
        record = asdict(self)
        record["N"] = record.pop("size")
        return record


@dataclass
class SolveReport:
    method: str
    converged: bool
    levels: list = field(default_factory=list)
    contraction_norm: float = None
    contraction_sufficient: bool = None
    sup_inverse_norm: float = None
    uniformity_flag: bool = False
    stabilized_at: int = None
    message: str = ""

    def to_dict(self):
        return {**asdict(self), "levels": [lv.to_dict() for lv in self.levels]}


# -- iterative kernels --------------------------------------------------------


@dataclass
class IterationResult:
    c: np.ndarray
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    normal_equations: bool = False
    diverged: bool = False


def _normal_cg(m, b, tol):
    """CG on the normal equations M* M c = M* b, flagged ``normal_equations``.

    M* b always lies in the range of M* M, so whether b lies in the range of
    M is tested on M itself.
    """
    res = cg_solve((adjoint(m) @ m).view(_HermitianCore), blockwise(np.matmul, adjoint(m))(b),
                   tol=tol)
    res.normal_equations = True
    if np.linalg.norm(blockwise(np.matmul, m)(res.c) - b) > 10 * tol * np.linalg.norm(b):
        _check_range(m, b, tol)
    return res


def _check_range(m, b, tol):
    """Raise ``ContractError`` when no c brings M c within 10 tol of b; a stack
    of blocks, when none brings each block's part within."""
    pairs = zip(m, b.reshape(len(m), -1)) if m.ndim == 3 else [(m, b)]
    best = np.concatenate([np.linalg.lstsq(block, part, rcond=None)[0] for block, part in pairs])
    floor = np.linalg.norm(blockwise(np.matmul, m)(best) - b) / np.linalg.norm(b)
    if floor > 10 * tol:
        raise ContractError(
            f"right side has a component outside the range (floor {floor:.3e})"
        )


class _HermitianCore(np.ndarray):
    """A core whose defect ``spectrum`` found below n u, or M^* M: ``cg_solve`` skips its test."""


def cg_solve(m, b, tol=1e-10):
    """Conjugate gradients for Hermitian positive semidefinite systems.

    ``b`` must lie in the range (project through the Gram projection
    first); an unreachable right side surfaces as a contract error.  A
    matrix that fails the Frobenius Hermitian test (``HERMITIAN_TOL``) or
    shows negative curvature p* M p < 0 (it is indefinite) is solved through
    the normal equations M* M c = M* b, flagged in ``normal_equations``.
    M may be a stack of diagonal blocks (``blockwise``).
    """
    tested = isinstance(m, _HermitianCore)
    m, b = field_array(m), field_array(b)
    if not tested and hermitian_defect(m) > HERMITIAN_TOL:
        return _normal_cg(m, b, tol)
    # promoted once: a real m against a complex b would be cast on every product
    m = np.asarray(m, dtype=np.result_type(m, b))
    k, apply = len(b), blockwise(np.matmul, m)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return IterationResult(np.zeros(k, dtype=m.dtype), 0, True, [0.0])
    # a search direction whose curvature p* M p sits at the rounding level
    # of M p lies in the null space; stepping along it would overflow x
    curvature_floor = np.finfo(float).eps * np.linalg.norm(m)
    x = np.zeros(k, dtype=m.dtype)
    r = b.copy()
    p = r.copy()
    rs = np.real(np.vdot(r, r))
    residuals = [1.0]
    it = 0
    for it in range(1, 10 * k + 1):
        mp = apply(p)
        denom = np.real(np.vdot(p, mp))
        limit = curvature_floor * np.real(np.vdot(p, p))
        if denom < -limit:
            # indefinite: restart, counting the iterations run on M so far
            res = _normal_cg(m, b, tol)
            res.iterations += it
            return res
        if denom <= limit:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * mp
        rs_new = np.real(np.vdot(r, r))
        residuals.append(math.sqrt(rs_new) / bnorm)
        if residuals[-1] <= tol:
            return IterationResult(x, it, True, residuals)
        p = r + (rs_new / rs) * p
        rs = rs_new
    # curvature floor or cap: tell an unreachable right side from slow progress
    _check_range(m, b, tol)
    return IterationResult(x, it, residuals[-1] <= tol, residuals)


def richardson_solve(m, b, relaxation, tol=1e-10):
    """Damped Richardson iteration c <- c + relaxation (b - M c).

    No contraction factor is estimated beforehand: a relative residual that
    climbs past ten times the first marks the result diverged, with one
    warning, instead of looping to the cap of 10 k updates.  M may be a stack
    of diagonal blocks (``blockwise``).
    """
    m, b = field_array(m), field_array(b)
    # promoted once: a real m against a complex b would be cast on every product
    m = np.asarray(m, dtype=np.result_type(m, b))
    k, apply = len(b), blockwise(np.matmul, m)
    bnorm = max(np.linalg.norm(b), 1e-300)
    x = np.zeros(k, dtype=m.dtype)
    residuals = []
    updates = 0
    while updates <= 10 * k:
        r = b - apply(x)
        rel = np.linalg.norm(r) / bnorm
        residuals.append(rel)
        if rel <= tol:
            return IterationResult(x, updates, True, residuals)
        if rel > 10 * residuals[0]:
            warnings.warn(f"Richardson iteration diverged after {updates} updates "
                          f"(relative residual {rel:.3e})", stacklevel=2)
            return IterationResult(x, updates, False, residuals, diverged=True)
        x = x + relaxation * r
        updates += 1
    return IterationResult(x, 10 * k, False, residuals)


# -- one solve level ----------------------------------------------------------

METHODS = ("direct", "cg", "richardson")


def _by_parts(apply, v):
    """``apply`` to v's real and imaginary parts as two columns: a real matrix stays real."""
    parts = apply(np.stack((v.real, v.imag), axis=1))
    return parts[:, 0] + 1j * parts[:, 1]


def _solve_level(core, b, method, tol, size):
    """Decompose the core C of one level once and solve C c = b.

    C's one values-only ``spectrum`` gives the ``LevelRecord``'s singular
    flag (a rank below the order of C), inverse norm and kappa^dagger.
    ``direct`` solves by one LU, or applies C^+ when C is rank-deficient; CG
    runs on C, or on the normal equations when C fails its Hermitian test;
    Richardson relaxes with 2 / (sigma_max + sigma_min).  A stack of diagonal
    blocks is decomposed, solved and applied block by block.  Returns the record
    (the caller fills ``residual``), the ``IterationResult`` or None when CG
    finds b outside C's range, and the spectrum's signed ``eigenvalues``
    (None when C took the SVD).
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}")
    spec = spectrum(core)
    s = spec.values[:spec.rank]
    rec = LevelRecord(size=size, residual=math.inf, singular=bool(s.size < spec.values.size),
                      decomposition=spec.decomposition)
    if s.size:
        rec.inverse_norm, rec.kappa_dagger = float(1.0 / s[-1]), spec.kappa
    try:
        if method == "direct":
            c = (spectrum(core, vectors=True).pinv_apply(b) if rec.singular
                 else _by_parts(blockwise(np.linalg.solve, core), b))
            res = IterationResult(c, 0, True)
        elif method == "cg":
            tested = core.view(_HermitianCore) if spec.decomposition == "eigh" else core
            res = cg_solve(tested, b, tol=tol)
        else:
            relaxation = 2.0 / (s[0] + s[-1]) if s.size else 1.0
            res = richardson_solve(core, b, relaxation, tol=tol)
    except ContractError:
        return rec, None, spec.eigenvalues
    rec.iterations, rec.diverged = res.iterations, res.diverged
    rec.normal_equations = res.normal_equations
    return rec, res, spec.eigenvalues


# -- finite sections ----------------------------------------------------------


def finite_section_solve(a, y, schedule: ProjectionSchedule, method="direct",
                         tol=DEFAULT_TOL):
    """Solve P_N A P_N x = P_N y over a nested projection schedule.

    Each level's section is Q_N C Q_N^* with the core C = Q_N^* A Q_N, which
    carries exactly the nonzero singular values of P_N A P_N;
    ``_solve_level`` solves C c = Q_N^* y for x = Q_N c.  Residuals and
    errors against a dense reference solution (one LU of A, shared with a
    ``direct`` last level whose core is A) are recorded.  A level that
    is singular, or whose iteration diverges, is flagged and the schedule
    continues.  The last section is A itself: when it is numerically
    singular, no reference is computed and ``error`` stays None.
    """
    a = as_operator(a)
    y = np.asarray(y, dtype=complex)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or y.shape != (n,):
        raise InvalidInputError("finite sections need a square system")
    dense = a.dense()
    report = SolveReport(method=method, converged=False,
                         uniformity_flag=schedule.uniformity_flag)
    solutions = []
    for lv, q in zip(schedule.levels, schedule._sections):
        core, b, lift = _section(q, dense, y)
        rec, res, lam = _solve_level(core, b, method, tol * 1e-2, len(lv))
        x = None if res is None or res.diverged else lift(res.c)
        if x is not None:
            rec.residual = float(np.linalg.norm(_by_parts(dense.__matmul__, x) - y))
        solutions.append(x)
        report.levels.append(rec)
    # a square last Q (or every index) makes its core Q^* A Q unitarily similar to A
    reuse = lam is not None and q.shape[-1] == n
    report.contraction_norm = float(np.abs(1 - lam).max() if reuse
                                    else spectrum(np.eye(n) - dense).values[0])
    # the norm is accurate to about n u ||A||_2 <= n u (1 + ||I - A||_2): at
    # ||I - A||_2 = 1 rounding must not decide the verdict
    report.contraction_sufficient = bool(
        report.contraction_norm < 1 - n * EPS * (1 + report.contraction_norm))
    # the last level's section is A: a rank-deficient one makes a dense
    # solve of A rounding noise (norm ~ 1/eps), not a reference
    if not report.levels[-1].singular:
        try:
            # under direct, a last core that is A itself has the reference's LU
            reference = (solutions[-1] if method == "direct" and core is dense
                         else _by_parts(lambda p: np.linalg.solve(dense, p), y))
        except np.linalg.LinAlgError:
            pass
        else:
            for rec, x in zip(report.levels, solutions):
                if x is not None:
                    rec.error = float(np.linalg.norm(x - reference))
    inv_norms = [r.inverse_norm for r in report.levels if r.inverse_norm is not None]
    report.sup_inverse_norm = max(inv_norms) if inv_norms else None

    final = solutions[-1]
    ynorm = max(np.linalg.norm(y), 1e-300)
    # a compressed solution whose ambient residual blows past the first
    # level's marks a divergent projection method even if deeper levels
    # recover; see the uniform-inverse condition in the report
    finite_res = [lv.residual for lv in report.levels if math.isfinite(lv.residual)]
    blew_up = bool(finite_res and max(finite_res) > 10 * max(finite_res[0], ynorm))
    if final is not None and not report.levels[-1].singular:
        rel = report.levels[-1].residual / ynorm
        report.converged = bool(rel <= tol and not blew_up)
    # first level whose solution the next level no longer moves: where the
    # schedule could have stopped early
    for i in range(1, len(solutions)):
        if solutions[i] is None or solutions[i - 1] is None:
            continue
        gap = np.linalg.norm(solutions[i] - solutions[i - 1])
        if gap <= math.sqrt(tol) * max(np.linalg.norm(solutions[i]), 1e-300):
            report.stabilized_at = report.levels[i].size
            break
    if not report.converged:
        report.message = "finite sections did not stabilize below tolerance"
    return report, final


# -- frame-Galerkin -----------------------------------------------------------


def frame_galerkin_solve(op, g, phi: Frame, method="cg", tol=DEFAULT_TOL):
    """Solve O f = g through the frame system matrix M(phi,phi)(O).

    With the analysis QR V^* = Q R, M = Q (R O R^*) Q^*, and the right
    side C_phi g = Q R g lies in the range of Q, where the singular system
    matrix is uniquely solvable.  M is never assembled, nor is Q:
    ``_solve_level`` solves the n x n core R O R^* with right side R g,
    and the ambient solution is f = V Q c = R^* c, R applied by its Walnut blocks.
    An operator diagonal on one side of a lattice frame (``galerkin_core``) is
    solved there on its block-diagonal core, with R^ F in place of R.
    A zero operator and a right side outside the range of a singular core are
    rejected.  The final check compares ||O f - g|| against the requested tolerance.
    """
    op = as_operator(op)
    g = np.asarray(g, dtype=complex)
    if g.shape != (phi.ambient_dim,):
        raise DimensionMismatchError(
            f"vector of length {g.shape} against ambient dim {phi.ambient_dim}")
    core, side = galerkin_core(op, phi, phi)
    if not core.any():
        raise InvalidInputError("condition number of the zero matrix is undefined")
    # a side other than phi's own is the Fourier side, where R^ F stands for R
    rg = analysis_r_product(side, (g if side is phi else np.fft.fft(g, norm="ortho"))[:, None])
    level, res, _ = _solve_level(core, rg[:, 0], method, min(tol * 1e-2, 1e-10), phi.size)
    if res is None:
        raise ContractError("right side has a component outside the range")
    f = analysis_r_adjoint(side, res.c)
    f = f if side is phi else np.fft.ifft(f, norm="ortho")
    level.residual = float(np.linalg.norm(op.apply(f) - g))
    rel = level.residual / max(np.linalg.norm(g), 1e-300)
    notes = [] if rel <= tol else [f"ambient residual {rel:.3e} above tolerance {tol:.1e}"]
    if phi.size > phi.ambient_dim:
        notes.append("system matrix singular by redundancy; solved on the analysis range")
    if res.normal_equations:
        notes.append("non-Hermitian or indefinite core; CG ran on the normal equations")
    converged = bool(rel <= tol and res.converged and not res.diverged)
    return f, SolveReport(method=method, converged=converged, levels=[level],
                          message=". ".join(notes))


# -- synthetic operators ------------------------------------------------------


def make_test_operator(kind, n, **params):
    """Synthetic operators exercising the solver paths.

    identity_minus_kernel: I - theta T with T a polynomially decaying
    circulant whose rows sum to one, normalized once (||I - A|| = theta exactly).
    helmholtz_toy: symmetric circulant kernel with a log-like diagonal
    singularity and quadratic off-diagonal decay.  Both are held as their
    first column; diagonal: explicit spectrum, held as it.
    """
    if n < 4:
        raise InvalidInputError("operators need n >= 4")
    # the first column of a circulant: a function of the ring distance to 0
    d = IndexSet.ring(n).distance_to_origin()
    if kind == "identity_minus_kernel":
        theta = float(params.get("theta", 0.5))
        exponent = float(params.get("exponent", 3.0))
        if exponent < 2:
            raise InvalidInputError("kernel decay exponent must be >= 2")
        t = (1.0 + d) ** (-exponent)
        column = -theta * (t / t.sum())
        column[0] += 1.0
        if theta >= 1:
            warnings.warn(f"theta = {theta} >= 1: operator may be singular",
                          stacklevel=2)
        return LinearOperator(column, name=f"I-{theta}T", side="fourier")
    if kind == "helmholtz_toy":
        deff = np.maximum(d, 0.5)
        kern = -np.log(np.sin(np.pi * deff / n)) / n
        kern = kern * (1.0 + d) ** (-2.0)
        return LinearOperator(kern, name="helmholtz_toy", side="fourier")
    if kind == "diagonal":
        spectrum = field_array(params["spectrum"])
        if spectrum.shape != (n,):
            raise InvalidInputError("spectrum length must equal n")
        return LinearOperator(spectrum, name="diagonal", side="time")
    raise InvalidInputError(f"unknown operator kind {kind!r}")
