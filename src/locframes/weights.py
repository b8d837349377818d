"""Weights, weighted sequence norms, duality, and inclusion tests."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .indexing import IndexSet

P_ZERO = 0.0
P_INF = math.inf

DEFAULT_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)

# growth of the certificate between the two largest truncations above
# which the asymptotic quantity is declared divergent
_DIVERGENCE_GROWTH = 1.15


class Weight:
    """Strictly positive weight sequence over an index set.

    Carries its generating family so the same weight can be re-evaluated
    on truncations of different sizes (needed for asymptotic probes).
    """

    def __init__(self, values, family="explicit", parameter=None):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("weight must be a nonempty 1-D sequence")
        if not np.all(v > 0):
            raise InvalidInputError("weight values must be strictly positive")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("weight values must be finite")
        self.values = v
        self.values.setflags(write=False)
        self.family = family
        self.parameter = parameter

    @classmethod
    def polynomial(cls, t, index_set: IndexSet):
        """(1 + |k|)^t with |k| the metric distance to the origin."""
        r = index_set.distance_to_origin()
        return cls((1.0 + r) ** t, family="polynomial", parameter=float(t))

    @classmethod
    def exponential(cls, a, index_set: IndexSet):
        """exp(a |k|); admissible only for sub-polynomial algebras, kept for probes."""
        r = index_set.distance_to_origin()
        return cls(np.exp(a * r), family="exponential", parameter=float(a))

    @classmethod
    def ones(cls, n):
        return cls(np.ones(n), family="polynomial", parameter=0.0)

    def reciprocal(self):
        inv_param = None if self.parameter is None else -self.parameter
        return Weight(1.0 / self.values, family=self.family, parameter=inv_param)

    def on(self, index_set: IndexSet):
        """Re-evaluate the generating family on another index set."""
        if self.family == "polynomial":
            return Weight.polynomial(self.parameter, index_set)
        if self.family == "exponential":
            return Weight.exponential(self.parameter, index_set)
        if len(index_set) != len(self.values):
            raise InvalidInputError("explicit weight cannot change size")
        return self

    def __len__(self):
        return len(self.values)

    def to_dict(self):
        return {
            "family": self.family,
            "parameter": self.parameter,
            "values": self.values.tolist(),
        }


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

    def to_dict(self):
        return {"p": self.p, "weight": self.weight.to_dict()}


def seq_norm(c, spec: SeqSpaceSpec):
    """Weighted norm ||w c||_p; sup norm for p in {0, inf}.

    A K x m array gives the norms of its m columns as an array.
    """
    c = np.asarray(c)
    w = spec.weight.values
    if c.ndim not in (1, 2) or c.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"sequence length {c.shape} does not match weight {w.shape}"
        )
    wc = np.abs((w if c.ndim == 1 else w[:, None]) * c)
    p = spec.effective_p
    if p == P_INF:
        out = np.max(wc, axis=0)
    elif p == 1.0:
        out = np.sum(wc, axis=0)
    elif p == 2.0:
        out = np.linalg.norm(wc, axis=0 if c.ndim == 2 else None)
    else:
        out = np.sum(wc**p, axis=0) ** (1.0 / p)
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
        return {
            "included": self.included,
            "certificate": self.certificate,
            "divergent": self.divergent,
            "criterion": self.criterion,
            "certificates_by_size": [
                {"size": n, "certificate": c} for n, c in self.certificates_by_size
            ],
        }


def _inclusion_certificate(a: SeqSpaceSpec, b: SeqSpaceSpec, index_set: IndexSet):
    """One-scale certificate: sup(w_b/w_a) or the l^r norm of the ratio."""
    wa = a.weight.on(index_set).values
    wb = b.weight.on(index_set).values
    ratio = wb / wa
    pa, pb = a.effective_p, b.effective_p
    if pa <= pb:
        return float(np.max(ratio)), "sup(w_b/w_a)"
    inv_r = 1.0 / pb - (0.0 if pa == P_INF else 1.0 / pa)
    r = 1.0 / inv_r
    return float(np.sum(ratio**r) ** inv_r), f"l^{r:g} norm of w_b/w_a"


def seq_space_included(a: SeqSpaceSpec, b: SeqSpaceSpec, schedule=DEFAULT_SCHEDULE):
    """Hoelder-type inclusion test l^{p_a}_{w_a} into l^{p_b}_{w_b}.

    Asymptotics are probed on a growing family of truncations built from
    the weights' generating families; explicit weights are judged at
    their own (single) scale.  Always decidable: a growing certificate
    trips the divergence flag instead of an error.
    """
    explicit = a.weight.family == "explicit" or b.weight.family == "explicit"
    if explicit:
        sizes = [len(a.weight)]
        sets = [IndexSet.line(len(a.weight))]
        if len(b.weight) != len(a.weight):
            raise DimensionMismatchError("explicit weights must share the index set")
    else:
        sizes = list(schedule)
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
