"""Finite index sets on integer lattices with absolute or circular metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MetricMismatchError

ABSOLUTE = "absolute"
CIRCULAR = "circular"


def _distances(p, q, circular, moduli):
    """Chebyshev distances between the rows of ``p`` (K x d) and of ``q``
    (L x d): the max over axes of |p - q|, each axis wrapped around its
    modulus when ``circular``.  Shape (K, L)."""
    per_axis = []
    for a in range(p.shape[1]):
        d = np.abs(p[:, None, a] - q[None, :, a])
        if circular:
            d = np.minimum(d, moduli[a] - d)
        per_axis.append(d)
    return np.maximum.reduce(per_axis)


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
        """(distance, max of ``values``) per shell; ``values`` is shaped like d."""
        maxima = np.maximum.reduceat(np.ravel(values)[self.order], self.starts)
        return [(float(d), float(m)) for d, m in zip(self.distances, maxima)]


class IndexSet:
    """Ordered finite index set with positions in Z^d, d in {1, 2}.

    Parameters
    ----------
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

    def __init__(self, positions, metric=ABSOLUTE, moduli=None, scales=None):
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (1, 2):
            raise InvalidInputError("positions must be one row per index in Z^1 or Z^2")
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
        self._self_distances = None
        self._shells = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def line(cls, n):
        """0..n-1 on Z with the absolute metric."""
        return cls(np.arange(n)[:, None], ABSOLUTE)

    @classmethod
    def ring(cls, n):
        """0..n-1 on the n-torus (circular metric)."""
        if n < 1:
            raise InvalidInputError(f"a ring needs n >= 1, got {n}")
        return cls(np.arange(n)[:, None], CIRCULAR, moduli=(n,))

    @classmethod
    def torus_grid(cls, n1, n2, scales=(1.0, 1.0)):
        """Row-major (i, j) grid on the discrete torus Z_n1 x Z_n2."""
        return cls(np.indices((n1, n2)).reshape(2, -1).T, CIRCULAR,
                   moduli=(n1, n2), scales=scales)

    # -- basic protocol ----------------------------------------------------

    def __len__(self):
        return self.positions.shape[0]

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
        if self._self_distances is None:
            self._self_distances = self._distances_to(self)
            self._self_distances.setflags(write=False)
        return self._self_distances

    def shells(self, other=None):
        """``ShellPartition`` of ``distance_matrix(other)``; cached for self."""
        if other is not None and other is not self:
            return ShellPartition.of(self._distances_to(other))
        if self._shells is None:
            self._shells = ShellPartition.of(self.distance_matrix())
        return self._shells

    def _distances_to(self, other):
        circular = self.metric == CIRCULAR
        if self.compatible_with(other):
            return _distances(self.positions, other.positions, circular, self.moduli)
        if self.metric != other.metric:
            raise MetricMismatchError("cannot mix absolute and circular metrics")
        shared = min(self.dim, other.dim)
        p, q = (iset.positions[:, :shared] * iset.scales[:shared] for iset in (self, other))
        if not circular:
            return _distances(p, q, False, None)
        periods = [m * s for m, s in zip(self.moduli, self.scales)]
        for a in range(shared):
            mo = other.moduli[a] * other.scales[a]
            if abs(periods[a] - mo) > 1e-9:
                raise MetricMismatchError(
                    f"ambient period mismatch on axis {a}: {periods[a]} vs {mo}"
                )
        return _distances(p, q, True, periods)

    def is_torus_grid(self, n1, n2):
        """True when this set is laid out as ``torus_grid(n1, n2)``: the
        circular (n1, n2) torus, positions in row-major order."""
        grid = np.indices((n1, n2)).reshape(2, -1).T
        return (self.metric == CIRCULAR and self.moduli == (n1, n2)
                and np.array_equal(self.positions, grid))

    def distance_to_origin(self):
        """Distance of every index position to the lattice origin."""
        origin = np.zeros((1, self.dim))
        return _distances(self.positions, origin, self.metric == CIRCULAR,
                          self.moduli)[:, 0]

    def to_dict(self):
        """Metric, scales, moduli, and the positions, or of a ``torus_grid`` its shape."""
        shape = [int(m) for m in self.moduli or () if m.is_integer()]
        grid = len(shape) == 2 and shape[0] * shape[1] == len(self) and self.is_torus_grid(*shape)
        out = {"grid": shape} if grid else {"positions": np.asarray(self.positions).tolist()}
        out.update(metric=self.metric, scales=list(self.scales))
        if self.moduli is not None:
            out["moduli"] = list(self.moduli)
        return out

    @classmethod
    def from_dict(cls, d, size):
        """The set that ``to_dict`` wrote; a grid must hold ``size`` points, and any
        other key is ignored."""
        if "grid" in d:
            n1, n2 = d["grid"]
            if not (type(n1) is type(n2) is int and n1 > 0 and n2 > 0 and n1 * n2 == size):
                raise ValueError(f"grid {d['grid']} is not a grid of {size} points")
        return cls(np.indices(d["grid"]).reshape(2, -1).T if "grid" in d else d["positions"],
                   d["metric"], moduli=d.get("moduli"), scales=d.get("scales"))
