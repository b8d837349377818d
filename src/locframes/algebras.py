"""Solid matrix-algebra norms, off-diagonal decay fitting, admissible weights."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .indexing import IndexSet
from .opnorms import schur_test_bound

JAFFARD = "jaffard"
SCHUR_WEIGHTED = "schur_weighted"

# entries this small are indistinguishable from roundoff noise and are
# dropped from shell statistics
SHELL_FLOOR = 1e-14

# slack below s that a fitted decay exponent may have while the matrix
# still counts as a member at finite scale
FIT_MARGIN = 0.25

# margin in the polynomial-weight admissibility rule |t| <= s - d - eps
ADMISSIBILITY_EPS = 0.5


@dataclass(frozen=True)
class MatrixAlgebraSpec:
    """Parameters of a solid decay algebra on an index set.

    ``s`` must exceed the lattice dimension so the algebra norms
    dominate the l^2 operator norm on the test suite.
    """

    kind: str = JAFFARD
    s: float = 3.0
    membership_threshold: float = 1e3

    def __post_init__(self):
        if self.kind not in (JAFFARD, SCHUR_WEIGHTED):
            raise InvalidInputError(f"unknown algebra kind {self.kind!r}")
        if self.s <= 0:
            raise InvalidInputError("decay exponent must be positive")

    def norm(self, a, rows: IndexSet, cols: IndexSet = None):
        return algebra_norms(a, self.s, rows, cols)[self.kind]

    def to_dict(self):
        return {
            "kind": self.kind,
            "s": self.s,
            "membership_threshold": self.membership_threshold,
        }


def _checked(a, rows, cols):
    a = np.asarray(a)
    cols = rows if cols is None else cols
    if a.shape != (len(rows), len(cols)):
        raise InvalidInputError(
            f"matrix shape {a.shape} does not match index sets "
            f"({len(rows)}, {len(cols)})"
        )
    return a, cols


def decay_envelope(d, s):
    """(1 + d)^s as a new array; one that overflows float64 on the
    distances ``d`` is an ``InvalidInputError``."""
    try:
        with np.errstate(over="raise"):
            m = d + 1.0
            m **= s
    except FloatingPointError as err:
        raise InvalidInputError(f"decay envelope (1 + d)^{s} overflows float64 "
                                f"at distances up to {np.max(d):g}") from err
    return m


def algebra_norms(a, s, rows: IndexSet, cols: IndexSet = None):
    """Jaffard and Schur-weighted norms from one weighted matrix |a| (1 + d)^s.

    Both depend on ``a`` only through |a|, so magnitudes may be passed.
    """
    a, cols = _checked(a, rows, cols)
    m = decay_envelope(rows.distance_matrix(cols), s)
    m *= np.abs(a)
    return {
        JAFFARD: float(np.max(m)),
        SCHUR_WEIGHTED: schur_test_bound(m),
    }


def jaffard_norm(a, s, rows: IndexSet, cols: IndexSet = None):
    """sup_{k,l} |a_{k,l}| (1 + d(k,l))^s."""
    return algebra_norms(a, s, rows, cols)[JAFFARD]


def schur_weighted_norm(a, s, rows: IndexSet, cols: IndexSet = None):
    """Symmetric Schur-type norm: max of weighted row and column sums."""
    return algebra_norms(a, s, rows, cols)[SCHUR_WEIGHTED]


@dataclass
class DecayFit:
    """Log-log regression of shell maxima against distance."""

    fitted_exponent: float
    residual: float
    shell_maxima: list = field(default_factory=list)

    @property
    def superpolynomial(self):
        """True when decay outran every shell past the noise floor."""
        return math.isinf(self.fitted_exponent)

    def to_dict(self):
        return {
            "fitted_exponent": self.fitted_exponent,
            "residual": self.residual,
            "shell_maxima": [
                {"distance": d, "max_abs": m} for d, m in self.shell_maxima
            ],
        }


def shell_maxima(a, rows: IndexSet, cols: IndexSet = None):
    """Max |entry| per distance shell, shells sorted by distance."""
    a, cols = _checked(a, rows, cols)
    shells = rows.shells(cols)
    return [(float(d), float(m))
            for d, m in zip(shells.distances, shells.maxima(np.abs(a)))]


def fit_shells(shells, min_shells=4):
    """Least-squares fit of log(shell max) against -s log(1 + distance).

    Shells whose maximum sits below the noise floor are dropped; fewer
    than ``min_shells`` usable shells raise ``InsufficientDataError``.
    """
    usable = [(d, m) for d, m in shells if m >= SHELL_FLOOR]
    if len(usable) < min_shells:
        raise InsufficientDataError(
            f"{len(usable)} usable distance shells, need {min_shells}"
        )
    x = np.log1p([d for d, _ in usable])
    y = np.log([m for _, m in usable])
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return DecayFit(
        fitted_exponent=float(-coef[0]),
        residual=float(np.sqrt(np.mean(resid**2))),
        shell_maxima=shells,
    )


def decay_fit(a, rows: IndexSet, cols: IndexSet = None, min_shells=4):
    """``fit_shells`` on the shell maxima of ``a``."""
    return fit_shells(shell_maxima(a, rows, cols), min_shells)


def algebra_product_constant(spec: MatrixAlgebraSpec, left: IndexSet, middle: IndexSet):
    """Finite-scale submultiplicativity constant of the algebra norm.

    Built from (1 + d(k,l))^s <= 2^s (1 + d(k,m))^s (1 + d(m,l))^s and
    the decay mass of the middle index set, so that
    ||AB|| <= C ||A|| ||B|| holds exactly for the truncated norms.
    """
    d = left.distance_matrix(middle)
    mass = np.max(np.sum((1.0 + d) ** (-spec.s), axis=1))
    return float(2.0**spec.s * mass)


def weight_admissible(spec: MatrixAlgebraSpec, weight, dim):
    """The admissibility rule on a lattice of dimension ``dim``.

    Polynomial weights (1 + |k|)^t pass iff t = 0 or |t| <= s - dim - 0.5.
    An explicit weight has no asymptotic family to extrapolate and passes;
    ``admissible_weight_check`` bounds it by its envelope.
    """
    if weight.family == "polynomial":
        t = weight.parameter
        return t == 0.0 or abs(t) <= spec.s - dim - ADMISSIBILITY_EPS
    if weight.family == "explicit":
        return True
    raise InvalidInputError(
        f"admissibility rule undefined for weight family {weight.family!r}"
    )


def admissible_weight_check(spec: MatrixAlgebraSpec, weight, index_set: IndexSet):
    """Decide whether every algebra member acts boundedly on all l^p_w.

    The verdict is ``weight_admissible``.  The returned bound is the Schur
    norm of the decay envelope conjugated by the weight, valid for all
    p simultaneously.
    """
    if not np.all(weight.values > 0):
        raise InvalidInputError("weight must be strictly positive")
    admissible = weight_admissible(spec, weight, index_set.dim)
    d = index_set.distance_matrix()
    w = weight.values
    ratio = np.maximum(w[:, None] / w[None, :], w[None, :] / w[:, None])
    env = (1.0 + d) ** (-spec.s) * ratio
    return {"admissible": bool(admissible), "worst_p_norm_bound": schur_test_bound(env)}
