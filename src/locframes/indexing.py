"""Finite index sets on integer lattices with absolute or circular metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MetricMismatchError

ABSOLUTE = "absolute"
CIRCULAR = "circular"


def _axis_distance(p, q, circular, modulus):
    d = np.abs(p - q)
    if circular:
        d = np.minimum(d, modulus - d)
    return d


@dataclass(frozen=True)
class ShellPartition:
    """Entries of a distance matrix grouped by distance rounded to 9 places.

    ``order`` sorts the flattened entries by shell; shell i holds the
    entries ``order[starts[i]:starts[i + 1]]`` at distance ``distances[i]``.
    """

    distances: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, d):
        dist = np.round(np.ravel(d), 9)
        order = np.argsort(dist)
        dist = dist[order]
        starts = np.flatnonzero(np.r_[True, dist[1:] != dist[:-1]])
        return cls(dist[starts], order, starts)

    def maxima(self, values):
        """Max of ``values`` (shaped like the distance matrix) in each shell."""
        return np.maximum.reduceat(np.ravel(values)[self.order], self.starts)


class IndexSet:
    """Ordered finite index set with positions in Z^d, d in {1, 2}.

    Parameters
    ----------
    labels : sequence
        Distinct identifiers, one per index.
    positions : array_like, shape (K, d)
        Lattice coordinates of each index.
    metric : str
        ``"absolute"`` or ``"circular"``; distances are Chebyshev
        (max over axes) of the per-axis distances.
    moduli : sequence of int, required for the circular metric
        Per-axis period of the torus, in lattice units.
    scales : sequence of float, optional
        Lattice-to-ambient unit size per axis (e.g. a Gabor time step).
        Used only to reconcile distances between index sets whose
        lattices differ; within one set distances stay in lattice units.
    """

    def __init__(self, labels, positions, metric=ABSOLUTE, moduli=None, scales=None):
        self.labels = list(labels)
        if len(set(map(str, self.labels))) != len(self.labels):
            raise InvalidInputError("index labels must be distinct")
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if pos.shape[0] == 1 and len(self.labels) > 1:
            pos = pos.T
        if pos.shape[0] != len(self.labels):
            raise InvalidInputError("one position per label required")
        if pos.shape[1] not in (1, 2):
            raise InvalidInputError("positions must live in Z^1 or Z^2")
        self.positions = pos
        if metric not in (ABSOLUTE, CIRCULAR):
            raise InvalidInputError(f"unknown metric {metric!r}")
        self.metric = metric
        if metric == CIRCULAR:
            if moduli is None:
                raise InvalidInputError("circular metric requires moduli")
            self.moduli = tuple(float(m) for m in np.atleast_1d(moduli))
            if len(self.moduli) != self.dim:
                raise InvalidInputError("need one modulus per axis")
        else:
            self.moduli = None
        if scales is None:
            scales = (1.0,) * self.dim
        self.scales = tuple(float(s) for s in np.atleast_1d(scales))
        if len(self.scales) != self.dim:
            raise InvalidInputError("need one scale per axis")
        self.positions.setflags(write=False)
        self._distances = None
        self._shells = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def line(cls, n):
        """0..n-1 on Z with the absolute metric."""
        return cls(range(n), np.arange(n)[:, None], ABSOLUTE)

    @classmethod
    def ring(cls, n, scale=1.0):
        """0..n-1 on the n-torus (circular metric)."""
        if n < 1:
            raise InvalidInputError(f"a ring needs n >= 1, got {n}")
        return cls(range(n), np.arange(n)[:, None], CIRCULAR, moduli=(n,), scales=(scale,))

    @classmethod
    def torus_grid(cls, n1, n2, scales=(1.0, 1.0)):
        """Row-major (i, j) grid on the discrete torus Z_n1 x Z_n2."""
        ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
        pos = np.stack([ii.ravel(), jj.ravel()], axis=1)
        labels = [f"{i},{j}" for i, j in pos]
        return cls(labels, pos, CIRCULAR, moduli=(n1, n2), scales=scales)

    # -- basic protocol ----------------------------------------------------

    def __len__(self):
        return len(self.labels)

    @property
    def dim(self):
        return self.positions.shape[1]

    def compatible_with(self, other):
        return (
            self.dim == other.dim
            and self.metric == other.metric
            and self.moduli == other.moduli
            and self.scales == other.scales
        )

    # -- metric ------------------------------------------------------------

    def distance_matrix(self, other=None):
        """Pairwise distances d(k, l), shape (len(self), len(other)).

        Compatible sets are compared in lattice units.  Sets with
        different lattices are compared in ambient units (positions
        times scales) over the shared leading axes, so e.g. a 2-D
        time-frequency set and a 1-D translation set can still be
        related through their common time axis.  The self-distances are
        computed once and returned as one read-only array.
        """
        if other is not None and other is not self:
            return self._distances_to(other)
        if self._distances is None:
            self._distances = self._distances_to(self)
            self._distances.setflags(write=False)
        return self._distances

    def shells(self, other=None):
        """``ShellPartition`` of ``distance_matrix(other)``; cached for self."""
        if other is not None and other is not self:
            return ShellPartition.of(self._distances_to(other))
        if self._shells is None:
            self._shells = ShellPartition.of(self.distance_matrix())
        return self._shells

    def _distances_to(self, other):
        if self.compatible_with(other):
            axes = range(self.dim)
            per_axis = [
                _axis_distance(
                    self.positions[:, None, a],
                    other.positions[None, :, a],
                    self.metric == CIRCULAR,
                    self.moduli[a] if self.moduli else None,
                )
                for a in axes
            ]
            return np.maximum.reduce(per_axis)
        if self.metric != other.metric:
            raise MetricMismatchError("cannot mix absolute and circular metrics")
        shared = min(self.dim, other.dim)
        per_axis = []
        for a in range(shared):
            ps = self.positions[:, None, a] * self.scales[a]
            qo = other.positions[None, :, a] * other.scales[a]
            if self.metric == CIRCULAR:
                ms = self.moduli[a] * self.scales[a]
                mo = other.moduli[a] * other.scales[a]
                if abs(ms - mo) > 1e-9:
                    raise MetricMismatchError(
                        f"ambient period mismatch on axis {a}: {ms} vs {mo}"
                    )
                per_axis.append(_axis_distance(ps, qo, True, ms))
            else:
                per_axis.append(_axis_distance(ps, qo, False, None))
        return np.maximum.reduce(per_axis)

    def is_torus_grid(self, n1, n2):
        """True when this set is laid out as ``torus_grid(n1, n2)``: the
        circular (n1, n2) torus, positions in row-major order."""
        grid = np.indices((n1, n2)).reshape(2, -1).T
        return (self.metric == CIRCULAR and self.moduli == (n1, n2)
                and np.array_equal(self.positions, grid))

    def distance_to_origin(self):
        """Distance of every index position to the lattice origin."""
        per_axis = [
            _axis_distance(
                self.positions[:, a],
                0.0,
                self.metric == CIRCULAR,
                self.moduli[a] if self.moduli else None,
            )
            for a in range(self.dim)
        ]
        return np.maximum.reduce(per_axis)

    def to_dict(self):
        out = {
            "labels": [str(x) for x in self.labels],
            "positions": np.asarray(self.positions).tolist(),
            "metric": self.metric,
            "scales": list(self.scales),
        }
        if self.moduli is not None:
            out["moduli"] = list(self.moduli)
        return out

    @classmethod
    def from_dict(cls, d):
        return cls(
            d["labels"],
            np.asarray(d["positions"], dtype=float),
            d["metric"],
            moduli=d.get("moduli"),
            scales=d.get("scales"),
        )
