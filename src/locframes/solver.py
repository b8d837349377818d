"""Projection / finite-section solver and frame-Galerkin solve for O f = g."""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InvalidInputError
from .frames import Frame, analysis, analysis_qr, synthesis
# galerkin_matrix is re-exported: callers import it from this module
from .galerkin import LinearOperator, as_operator, galerkin_matrix  # noqa: F401
from .indexing import IndexSet
from .linalg import field_array, range_spectrum

PROJECTION_TOL = 1e-10
DEFAULT_TOL = 1e-8
STAGNATION_WINDOW = 50
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
    S_N is ill-conditioned.
    """
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    w = s**2
    keep = w > PROJECTION_TOL * w[0]
    return w[keep], u[:, keep]


def _projector(q, name):
    """The orthogonal projection Q_N Q_N^* onto the span of Q_N."""
    return LinearOperator.from_matrix(q @ np.conj(q.T), name=name)


def subframe_projection(frame: Frame, subset):
    """Orthogonal projection onto the span of a subfamily.

    Built as Q_N Q_N^* from the singular vectors of the subfamily whose
    squared singular values lie above ``PROJECTION_TOL`` relative to the
    largest; idempotent and self-adjoint.
    """
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise InvalidInputError("projection needs a nonempty index subset")
    _, q = _span_basis(frame.vectors[:, subset])
    return _projector(q, f"P[{frame.name}:{subset.size}]")


class ProjectionSchedule:
    """Nested index subsets K_1 c K_2 c ... c K with per-level span bases.

    ``centered`` grows blocks doubling in size around the middle index;
    ``energy_greedy`` orders indices by decreasing analysis energy of a
    pilot vector.  One SVD of each level's vectors V_N gives the subframe
    bounds (extreme nonzero eigenvalues of S_N = V_N V_N^*) and an
    orthonormal basis Q_N of the level's span (``bases``).  A flag is
    raised when the ratio of the bounds exceeds ``ratio_cap`` at any level.
    """

    def __init__(self, frame: Frame, selection="centered", pilot=None,
                 start=8, ratio_cap=1e8, levels=None, n_levels=None):
        self.frame = frame
        self.selection = selection
        k = frame.size
        if levels is not None:
            self.levels = [np.asarray(lv, dtype=int) for lv in levels]
        else:
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
        self._validate()
        self.bases = []
        self.subframe_bounds = []
        self.uniformity_flag = False
        for lv in self.levels:
            pos, q = _span_basis(frame.vectors[:, lv])
            c_n, d_n = float(pos[-1]), float(pos[0])
            self.bases.append(q)
            self.subframe_bounds.append((c_n, d_n))
            if d_n / c_n > ratio_cap:
                self.uniformity_flag = True

    def _ordering(self, selection, pilot):
        k = self.frame.size
        if selection == "centered":
            center = k // 2
            return np.argsort(np.abs(np.arange(k) - center), kind="stable")
        if selection == "energy_greedy":
            if pilot is None:
                raise InvalidInputError("energy_greedy needs a pilot vector")
            coeff = analysis(self.frame, pilot)
            return np.argsort(-np.abs(coeff), kind="stable")
        raise InvalidInputError(f"unknown selection {selection!r}")

    def _validate(self):
        k = self.frame.size
        prev = set()
        for lv in self.levels:
            cur = set(lv.tolist())
            if not prev < cur and prev != set():
                raise InvalidInputError("schedule levels must be strictly nested")
            if prev == cur:
                raise InvalidInputError("schedule levels must grow strictly")
            prev = cur
        if prev != set(range(k)):
            raise InvalidInputError("final level must cover the full index set")

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
    singular: bool = False

    def to_dict(self):
        return {
            "N": self.size,
            "residual": self.residual,
            "error": self.error,
            "inverse_norm": self.inverse_norm,
            "iterations": self.iterations,
            "kappa_dagger": self.kappa_dagger,
            "singular": self.singular,
        }


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
        return {
            "method": self.method,
            "converged": self.converged,
            "levels": [lv.to_dict() for lv in self.levels],
            "contraction_norm": self.contraction_norm,
            "contraction_sufficient": self.contraction_sufficient,
            "sup_inverse_norm": self.sup_inverse_norm,
            "uniformity_flag": self.uniformity_flag,
            "stabilized_at": self.stabilized_at,
            "message": self.message,
        }


# -- iterative kernels --------------------------------------------------------


@dataclass
class IterationResult:
    c: np.ndarray
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    normal_equations: bool = False
    rate_estimate: float = None
    diverged: bool = False


def _hermitian_defect(m):
    """Frobenius-relative defect ||M - M^*||_F / ||M||_F, an O(K^2) check."""
    return float(np.linalg.norm(m - np.conj(m.T)) / max(np.linalg.norm(m), 1e-300))


def cg_solve(m, b, tol=1e-10, max_iter=None, normal_equations=False,
             track_energy=False):
    """Conjugate gradients for Hermitian positive semidefinite systems.

    ``b`` must lie in the range (project through the Gram projection
    first); an unreachable right side surfaces as a contract error.
    With ``normal_equations`` the iteration runs on M* M instead, which
    lifts the Hermitian requirement.
    """
    m, b = field_array(m), field_array(b)
    if normal_equations:
        m2 = np.conj(m.T) @ m
        res = cg_solve(m2, np.conj(m.T) @ b, tol=tol, max_iter=max_iter,
                       track_energy=track_energy)
        res.normal_equations = True
        return res
    # promoted once: a real m against a complex b would be cast on every product
    m = np.asarray(m, dtype=np.result_type(m, b))
    if _hermitian_defect(m) > HERMITIAN_TOL:
        raise ContractError(
            "matrix is not Hermitian; set normal_equations=True to fall back"
        )
    k = m.shape[0]
    if max_iter is None:
        max_iter = 10 * k
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
    energies = []
    best = 1.0
    since_best = 0
    it = 0
    for it in range(1, max_iter + 1):
        mp = m @ p
        denom = np.real(np.vdot(p, mp))
        if denom <= curvature_floor * np.real(np.vdot(p, p)):
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * mp
        rs_new = np.real(np.vdot(r, r))
        residuals.append(math.sqrt(rs_new) / bnorm)
        if track_energy:
            energies.append(float(np.real(np.vdot(x, m @ x)) / 2
                                  - np.real(np.vdot(b, x))))
        if residuals[-1] <= tol:
            return IterationResult(x, it, True, residuals, energies)
        if residuals[-1] < best * (1 - 1e-12):
            best, since_best = residuals[-1], 0
        else:
            since_best += 1
            if since_best >= STAGNATION_WINDOW:
                break
        p = r + (rs_new / rs) * p
        rs = rs_new
    # stalled: distinguish an unreachable right side from slow progress
    best = np.linalg.lstsq(m, b, rcond=None)[0]
    floor = np.linalg.norm(m @ best - b) / bnorm
    if floor > 10 * tol:
        raise ContractError(
            f"right side has a component outside the range (floor {floor:.3e})"
        )
    return IterationResult(x, it, residuals[-1] <= tol, residuals, energies)


def richardson_solve(m, b, relaxation, tol=1e-10, max_iter=None):
    """Damped Richardson iteration c <- c + relaxation (b - M c).

    The contraction factor on the range is estimated by power iteration
    and a warning is emitted when it is not < 1; runaway residuals mark
    the result diverged instead of looping to ``max_iter``.
    """
    m, b = field_array(m), field_array(b)
    # promoted once: a real m against a complex b would be cast on every product
    m = np.asarray(m, dtype=np.result_type(m, b))
    k = m.shape[0]
    if max_iter is None:
        max_iter = 10 * k
    # the power iteration starts in the field of the iteration
    rng = np.random.default_rng(1)
    start = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    v = m @ (start if np.iscomplexobj(m) else start.real)
    rho = 0.0
    nv = np.linalg.norm(v)
    if nv > 0:
        v /= nv
        for _ in range(60):
            v = v - relaxation * (m @ v)
            rho = np.linalg.norm(v)
            if rho == 0:
                break
            v /= rho
    if rho >= 1:
        warnings.warn(
            f"estimated contraction factor {rho:.3f} >= 1; iteration may diverge",
            stacklevel=2,
        )
    bnorm = max(np.linalg.norm(b), 1e-300)
    x = np.zeros(k, dtype=m.dtype)
    residuals = []
    updates = 0
    while updates <= max_iter:
        r = b - m @ x
        rel = np.linalg.norm(r) / bnorm
        residuals.append(rel)
        if rel <= tol:
            return IterationResult(x, updates, True, residuals, rate_estimate=rho)
        if rel > 10 * residuals[0]:
            return IterationResult(x, updates, False, residuals,
                                   rate_estimate=rho, diverged=True)
        x = x + relaxation * r
        updates += 1
    return IterationResult(x, max_iter, False, residuals, rate_estimate=rho)


# -- one solve kernel ---------------------------------------------------------


def solve_system(spectrum, b, method, tol):
    """Solve A c = b for A = Q_l C Q_r^* given by its ``range_spectrum``.

    ``direct`` applies the pseudo-inverse; ``cg`` and ``richardson`` run
    on the r x r core C with right side Q_l^* b, and the result is lifted
    back with Q_r.  CG takes the normal equations when C fails the
    Frobenius Hermitian test, which Q does not change; Richardson relaxes
    with 2 / (sigma_max + sigma_min) over the nonzero singular values.
    """
    if method == "direct":
        return IterationResult(spectrum.pinv_apply(b), 0, True)
    core = spectrum.core
    rhs = np.conj(spectrum.q_left.T) @ b
    if method == "cg":
        res = cg_solve(core, rhs, tol=tol,
                       normal_equations=_hermitian_defect(core) > HERMITIAN_TOL)
    elif method == "richardson":
        s = spectrum.values
        relaxation = 2.0 / (s[0] + s[-1]) if s.size else 1.0
        res = richardson_solve(core, rhs, relaxation, tol=tol)
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    res.c = spectrum.q_right @ res.c
    return res


# -- finite sections ----------------------------------------------------------


def finite_section_solve(a, y, schedule: ProjectionSchedule, method="direct",
                         tol=DEFAULT_TOL, reference=None):
    """Solve P_N A P_N x = P_N y over a nested projection schedule.

    Each level's section is Q_N C Q_N^* with the core C = Q_N^* A Q_N, which
    carries exactly the nonzero singular values of P_N A P_N; its spectrum
    gives the singular flag, the inverse norm and the generalized condition
    number, and ``solve_system`` solves the level.  Residuals and errors
    against a dense reference solution are recorded.  A level whose
    compressed system is numerically singular is flagged and the schedule
    continues.
    """
    a = as_operator(a)
    y = np.asarray(y, dtype=complex)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or y.shape != (n,):
        raise InvalidInputError("finite sections need a square system")
    dense = a.dense()
    contraction = float(np.linalg.norm(np.eye(n) - dense, 2))
    if reference is None:
        try:
            # the real and imaginary parts of y as two right sides, so that
            # a real A is factored in real arithmetic
            parts = np.linalg.solve(dense, np.stack((y.real, y.imag), axis=1))
            reference = parts[:, 0] + 1j * parts[:, 1]
        except np.linalg.LinAlgError:
            reference = None
    report = SolveReport(
        method=method,
        converged=False,
        contraction_norm=contraction,
        contraction_sufficient=bool(contraction < 1),
        uniformity_flag=schedule.uniformity_flag,
    )
    solutions = []
    for lv, q in zip(schedule.levels, schedule.bases):
        span = (q, np.conj(q.T))
        spectrum = range_spectrum(span, span, dense, factors=method == "direct")
        s = spectrum.values
        rec = LevelRecord(size=len(lv), residual=math.inf,
                          singular=bool(s.size < q.shape[1]))
        if s.size:
            rec.inverse_norm = float(1.0 / s[-1])
            rec.kappa_dagger = spectrum.kappa
        x = None
        try:
            res = solve_system(spectrum, y, method, tol * 1e-2)
            rec.iterations = res.iterations
            if not res.diverged:
                x = res.c
        except ContractError:
            pass
        if x is None:
            rec.singular = True
        else:
            rec.residual = float(np.linalg.norm(dense @ x - y))
            if reference is not None:
                rec.error = float(np.linalg.norm(x - reference))
        solutions.append(x)
        report.levels.append(rec)
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
    report.stabilized_at = None
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

    The right side C_phi g lies in the range of the analysis operator,
    where the singular system matrix is uniquely solvable; the ambient
    solution is synthesized from the range solution.  M is never
    assembled: its spectrum is computed once, in that n-dimensional range,
    and gives kappa^dagger, and ``solve_system`` solves on its core.  The
    final check compares ||O f - g|| against the requested tolerance.
    """
    op = as_operator(op)
    g = np.asarray(g, dtype=complex)
    qr = analysis_qr(phi)
    spectrum = range_spectrum(qr, qr, op.dense(), factors=method == "direct")
    kappa = spectrum.kappa  # a zero operator has none and is rejected here
    res = solve_system(spectrum, analysis(phi, g), method, min(tol * 1e-2, 1e-10))
    f = synthesis(phi, res.c)
    residual = float(np.linalg.norm(op.apply(f) - g))
    rel = residual / max(np.linalg.norm(g), 1e-300)
    level = LevelRecord(size=phi.size, residual=residual,
                        iterations=res.iterations, kappa_dagger=kappa)
    report = SolveReport(
        method=method,
        converged=bool(rel <= tol and res.converged and not res.diverged),
        levels=[level],
        message="" if rel <= tol else
        f"ambient residual {rel:.3e} above tolerance {tol:.1e}",
    )
    if phi.size > phi.ambient_dim:
        report.message = (report.message + " " if report.message else "") + \
            "system matrix singular by redundancy; solved on the analysis range"
    if res.normal_equations:
        report.message = (report.message + " " if report.message else "") + \
            "non-Hermitian system matrix; CG ran on the normal equations"
    return f, report


# -- synthetic operators ------------------------------------------------------


def make_test_operator(kind, n, **params):
    """Synthetic operators exercising the solver paths.

    identity_minus_kernel: I - theta T with T a row-normalized,
    polynomially decaying circulant (||I - A|| = theta exactly).
    helmholtz_toy: symmetric kernel with a log-like diagonal singularity
    and quadratic off-diagonal decay.  diagonal: explicit spectrum.
    """
    if n < 4:
        raise InvalidInputError("operators need n >= 4")
    iset = IndexSet.ring(n)
    d = iset.distance_matrix()
    if kind == "identity_minus_kernel":
        theta = float(params.get("theta", 0.5))
        exponent = float(params.get("exponent", 3.0))
        if exponent < 2:
            raise InvalidInputError("kernel decay exponent must be >= 2")
        t = (1.0 + d) ** (-exponent)
        t /= t.sum(axis=1, keepdims=True)
        if theta >= 1:
            warnings.warn(f"theta = {theta} >= 1: operator may be singular",
                          stacklevel=2)
        return LinearOperator.from_matrix(np.eye(n) - theta * t,
                                          name=f"I-{theta}T")
    if kind == "helmholtz_toy":
        deff = np.maximum(d, 0.5)
        kern = -np.log(np.sin(np.pi * deff / n)) / n
        kern = kern * (1.0 + d) ** (-2.0)
        kern = 0.5 * (kern + kern.T)
        return LinearOperator.from_matrix(kern, name="helmholtz_toy")
    if kind == "diagonal":
        spectrum = field_array(params["spectrum"])
        if spectrum.shape != (n,):
            raise InvalidInputError("spectrum length must equal n")
        return LinearOperator.from_matrix(np.diag(spectrum), name="diagonal")
    raise InvalidInputError(f"unknown operator kind {kind!r}")
