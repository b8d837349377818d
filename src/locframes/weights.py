"""Weights, weighted sequence norms, duality, and inclusion tests."""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .indexing import IndexSet

P_ZERO = 0.0
P_INF = math.inf

DEFAULT_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)

# growth of the certificate between the two largest truncations above
# which the asymptotic quantity is declared divergent
_DIVERGENCE_GROWTH = 1.15


def decay_envelope(d, s):
    """(1 + d)^s as a new array, for decay envelopes and polynomial weights.

    One that overflows float64 on the distances ``d`` is an
    ``InvalidInputError``, raised before numpy warns of the overflow.
    """
    try:
        with np.errstate(over="raise"):
            m = d + 1.0
            m **= s
    except FloatingPointError as err:
        raise InvalidInputError(f"(1 + d)^{s} overflows float64 "
                                f"at distances up to {np.max(d):g}") from err
    return m


class Weight:
    """Strictly positive weight sequence over an index set.

    A polynomial weight (1 + |k|)^t carries its ``power`` t, so that it can
    be re-evaluated on truncations of different sizes (needed for
    asymptotic probes); an explicit weight has ``power`` None.
    """

    def __init__(self, values, power=None):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("weight must be a nonempty 1-D sequence")
        if not np.all(v >= np.finfo(float).tiny):
            raise InvalidInputError("weight values must be at least the smallest "
                                    "normal float64, or their reciprocals overflow")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("weight values must be finite")
        self.values = v
        self.values.setflags(write=False)
        self.power = power

    @classmethod
    def polynomial(cls, t, index_set: IndexSet):
        """(1 + |k|)^t with |k| the metric distance to the origin."""
        r = index_set.distance_to_origin()
        return cls(decay_envelope(r, t), power=float(t))

    @classmethod
    def ones(cls, n):
        return cls(np.ones(n), power=0.0)

    def reciprocal(self):
        inv_power = None if self.power is None else -self.power
        return Weight(1.0 / self.values, power=inv_power)

    def on(self, index_set: IndexSet):
        """Re-evaluate a polynomial weight on another index set."""
        if self.power is not None:
            return Weight.polynomial(self.power, index_set)
        if len(index_set) != len(self.values):
            raise InvalidInputError("explicit weight cannot change size")
        return self

    def __len__(self):
        return len(self.values)


def _check_p(p):
    p = float(p)
    if p != P_ZERO and not (1.0 <= p):
        raise InvalidInputError(f"exponent p={p} outside {{0}} u [1, inf]")
    return p


@dataclass(frozen=True)
class SeqSpaceSpec:
    """(p, w) pair naming a weighted sequence space.

    p = 0 tags the limit-zero space; on a finite index set its norm
    coincides with the weighted sup norm.
    """

    p: float
    weight: Weight

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))

    @property
    def effective_p(self):
        return P_INF if self.p == P_ZERO else self.p

    def dual(self):
        if self.p == P_ZERO:
            q = 1.0
        elif self.p == 1.0:
            q = P_INF
        elif self.p == P_INF:
            q = 1.0
        else:
            q = self.p / (self.p - 1.0)
        return SeqSpaceSpec(q, self.weight.reciprocal())

    def on(self, index_set: IndexSet):
        return SeqSpaceSpec(self.p, self.weight.on(index_set))


def column_p_norms(a, p):
    """p-norms of the columns of a nonnegative ``a`` (of ``a`` if 1-D): the
    column max for p = inf, the plain column sum for p = 1, and otherwise
    ||x||_p = s ||x / s||_p for the largest entry s, so that no power
    overflows or underflows at any scale or p; a zero column has norm 0."""
    if p == 1.0:
        return np.sum(a, axis=0)
    s = np.max(a, axis=0)
    if p == P_INF:
        return s
    x = a / np.where(s > 0, s, 1.0)
    x **= p
    return s * np.sum(x, axis=0) ** (1.0 / p)


def seq_norm(c, spec: SeqSpaceSpec):
    """Weighted norm ||w c||_p through ``column_p_norms``; the sup norm for
    p in {0, inf}.

    A K x m array gives the norms of its m columns as an array.
    """
    c = np.asarray(c)
    w = spec.weight.values
    if c.ndim not in (1, 2) or c.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"sequence length {c.shape} does not match weight {w.shape}"
        )
    out = column_p_norms(np.abs((w if c.ndim == 1 else w[:, None]) * c), spec.effective_p)
    return float(out) if c.ndim == 1 else out


def dual_pairing(c, d):
    """Sesquilinear pairing sum_k c_k conj(d_k)."""
    c = np.asarray(c)
    d = np.asarray(d)
    if c.shape != d.shape:
        raise DimensionMismatchError("pairing requires equal lengths")
    return complex(np.sum(c * np.conj(d)))


@dataclass
class InclusionReport:
    included: bool
    certificate: float
    divergent: bool
    criterion: str
    certificates_by_size: list = field(default_factory=list)

    def to_dict(self):
        sizes = [{"size": n, "certificate": c} for n, c in self.certificates_by_size]
        return {**asdict(self), "certificates_by_size": sizes}


def _inclusion_certificate(a: SeqSpaceSpec, b: SeqSpaceSpec, index_set: IndexSet):
    """One-scale certificate: sup(w_b/w_a) or the l^r norm of the ratio."""
    wa = a.weight.on(index_set).values
    wb = b.weight.on(index_set).values
    ratio = wb / wa
    pa, pb = a.effective_p, b.effective_p
    if pa <= pb:
        return float(np.max(ratio)), "sup(w_b/w_a)"
    r = 1.0 / (1.0 / pb - (0.0 if pa == P_INF else 1.0 / pa))
    return float(column_p_norms(ratio, r)), f"l^{r:g} norm of w_b/w_a"


def seq_space_included(a: SeqSpaceSpec, b: SeqSpaceSpec):
    """Hoelder-type inclusion test l^{p_a}_{w_a} into l^{p_b}_{w_b}.

    Asymptotics are probed on a growing family of truncations built from
    the weights' powers; explicit weights are judged at
    their own (single) scale.  Always decidable: a growing certificate
    trips the divergence flag instead of an error.
    """
    explicit = a.weight.power is None or b.weight.power is None
    if explicit:
        sizes = [len(a.weight)]
        sets = [IndexSet.line(len(a.weight))]
        if len(b.weight) != len(a.weight):
            raise DimensionMismatchError("explicit weights must share the index set")
    else:
        sizes = list(DEFAULT_SCHEDULE)
        sets = [IndexSet.line(n) for n in sizes]
    certs = []
    criterion = ""
    for iset in sets:
        c, criterion = _inclusion_certificate(a, b, iset)
        certs.append(c)
    divergent = False
    if len(certs) >= 2 and certs[-1] > certs[0]:
        growth = certs[-1] / max(certs[-2], 1e-300)
        divergent = growth >= _DIVERGENCE_GROWTH
    return InclusionReport(
        included=not divergent and math.isfinite(certs[-1]),
        certificate=certs[-1],
        divergent=divergent,
        criterion=criterion,
        certificates_by_size=list(zip(sizes, certs)),
    )
