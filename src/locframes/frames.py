"""Frames and their canonical operators: analysis, synthesis, frame operator, Gram."""

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotAFrameError,
)
from .indexing import IndexSet
from .linalg import field_array

BOUND_RANK_TOL = 1e-10
TIGHT_REL_TOL = 1e-10

# above this condition number the frame-operator inverse falls back from
# Cholesky to an eigendecomposition
CHOLESKY_COND_CAP = 1e8


class FrameBounds:
    """Two-sided energy bounds 0 < A <= B of a frame."""

    def __init__(self, lower, upper):
        if not 0 < lower <= upper:
            raise InvalidInputError(f"invalid bounds ({lower}, {upper})")
        self.lower = float(lower)
        self.upper = float(upper)

    @property
    def tight(self):
        return abs(self.lower - self.upper) <= TIGHT_REL_TOL * self.upper

    def __iter__(self):
        return iter((self.lower, self.upper))

    def __repr__(self):
        return f"FrameBounds({self.lower:.6g}, {self.upper:.6g})"

    def to_dict(self):
        return {"lower": self.lower, "upper": self.upper, "tight": self.tight}


class Frame:
    """Finite vector family psi_k, stored as columns of an n x K matrix.

    Immutable; the canonical operators are computed once on first use and
    frozen (safe to share across threads afterwards).
    """

    def __init__(self, vectors, index_set: IndexSet, name="frame", meta=None):
        v = field_array(vectors)
        if v.ndim != 2:
            raise InvalidInputError("vectors must form an n x K matrix")
        if len(index_set) != v.shape[1]:
            raise DimensionMismatchError(
                f"{v.shape[1]} vectors but {len(index_set)} indices"
            )
        norms = np.linalg.norm(v, axis=0)
        if np.any(norms == 0):
            raise InvalidInputError("frame must not contain zero vectors")
        # a read-only view: the caller's array stays writable
        self.vectors = v.view()
        self.vectors.setflags(write=False)
        self.index_set = index_set
        self.name = name
        self.meta = dict(meta or {})
        self._frame_op = None
        self._bounds = None
        self._dual = None
        self._analysis_qr = None

    @property
    def ambient_dim(self):
        return self.vectors.shape[0]

    @property
    def size(self):
        return self.vectors.shape[1]

    @property
    def redundancy(self):
        return self.size / self.ambient_dim

    def min_vector_norm(self):
        return float(np.min(np.linalg.norm(self.vectors, axis=0)))

    def __repr__(self):
        return f"Frame({self.name!r}, n={self.ambient_dim}, K={self.size})"


# -- canonical operators ----------------------------------------------------


def analysis(frame: Frame, f):
    """Coefficients (<f, psi_k>)_k."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (frame.ambient_dim,):
        raise DimensionMismatchError(
            f"vector of length {f.shape} against ambient dim {frame.ambient_dim}"
        )
    return np.conj(frame.vectors.T) @ f


def synthesis(frame: Frame, c):
    """Weighted sum sum_k c_k psi_k; the adjoint of analysis."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (frame.size,):
        raise DimensionMismatchError(
            f"sequence of length {c.shape} against frame size {frame.size}"
        )
    return frame.vectors @ c


def frame_operator(frame: Frame):
    """S = sum_k psi_k psi_k^*; Hermitian positive semidefinite."""
    if frame._frame_op is None:
        s = frame.vectors @ np.conj(frame.vectors.T)
        s = 0.5 * (s + np.conj(s.T))
        s.setflags(write=False)
        frame._frame_op = s
    return frame._frame_op


def analysis_qr(frame: Frame):
    """Thin QR V^* = Q R of the analysis matrix, r = min(K, n).

    Q is K x r with orthonormal columns and R is r x n, so Q spans the
    range of the analysis operator whenever the family spans C^n.
    """
    if frame._analysis_qr is None:
        q, r = np.linalg.qr(np.conj(frame.vectors.T))
        q.setflags(write=False)
        r.setflags(write=False)
        frame._analysis_qr = (q, r)
    return frame._analysis_qr


def frame_bounds(frame: Frame):
    """(A, B) = extreme eigenvalues of the frame operator.

    Raises ``NotAFrameError`` carrying the numerical rank when the
    family does not span.
    """
    if frame._bounds is None:
        w = np.linalg.eigvalsh(frame_operator(frame))
        lmin, lmax = float(w[0]), float(w[-1])
        if lmax <= 0 or lmin <= BOUND_RANK_TOL * lmax:
            rank = int(np.count_nonzero(w > BOUND_RANK_TOL * lmax))
            raise NotAFrameError(
                f"{frame.name}: family spans only a subspace "
                f"(rank {rank} of {frame.ambient_dim})",
                numerical_rank=rank,
            )
        frame._bounds = FrameBounds(lmin, lmax)
    return frame._bounds


def canonical_dual(frame: Frame):
    """Frame of S^{-1} psi_k; Cholesky path, eigensolver fallback."""
    if frame._dual is None:
        bounds = frame_bounds(frame)
        s = frame_operator(frame)
        if bounds.upper / bounds.lower <= CHOLESKY_COND_CAP:
            ch = np.linalg.cholesky(s)
            half = np.linalg.solve(ch, frame.vectors)
            dual_vectors = np.linalg.solve(np.conj(ch.T), half)
        else:
            w, u = np.linalg.eigh(s)
            w = np.where(w > BOUND_RANK_TOL * w[-1], w, np.inf)
            dual_vectors = u @ ((np.conj(u.T) @ frame.vectors) / w[:, None])
        dual = Frame(
            dual_vectors,
            frame.index_set,
            name=frame.name + "~",
            meta={"dual_of": frame.name, **frame.meta},
        )
        dual._frame_op = None
        dual._dual = frame
        dual._bounds = FrameBounds(1.0 / bounds.upper, 1.0 / bounds.lower)
        frame._dual = dual
    return frame._dual


def gram(left: Frame, right: Frame):
    """Cross-Gram G_{k,l} = <right_l, left_k>; equals analysis o synthesis."""
    if left.ambient_dim != right.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {left.ambient_dim} vs {right.ambient_dim}"
        )
    return np.conj(left.vectors.T) @ right.vectors


class RieszResult:
    """Outcome of the Riesz-sequence test: bounds, or a not-riesz flag."""

    def __init__(self, bounds, riesz, gram_rank):
        self.bounds = bounds
        self.riesz = riesz
        self.gram_rank = gram_rank

    def __repr__(self):
        tag = "riesz" if self.riesz else "not-riesz"
        return f"RieszResult({tag}, bounds={self.bounds})"


def riesz_bounds(frame: Frame):
    """Extreme eigenvalues of the Gram matrix; flags singular families."""
    g = gram(frame, frame)
    w = np.linalg.eigvalsh(0.5 * (g + np.conj(g.T)))
    lmin, lmax = float(w[0]), float(w[-1])
    rank = int(np.count_nonzero(w > BOUND_RANK_TOL * max(lmax, 1e-300)))
    if lmin <= BOUND_RANK_TOL * lmax:
        return RieszResult(None, False, rank)
    return RieszResult(FrameBounds(lmin, lmax), True, rank)


# -- constructors ------------------------------------------------------------


def gaussian_window(n, width=None):
    """Periodized, l^2-normalized Gaussian on Z_n.

    ``width`` is the standard-width parameter; the default sqrt(n) is the
    self-dual choice for square time-frequency lattices.
    """
    if n < 1:
        raise InvalidInputError(f"window length must be positive, got {n}")
    if width is None:
        width = np.sqrt(n)
    elif not width > 0:
        raise InvalidInputError(f"window width must be positive, got {width}")
    x = np.arange(n, dtype=float)
    g = np.zeros(n)
    for j in range(-3, 4):
        g += np.exp(-np.pi * (x + j * n) ** 2 / width**2)
    return g / np.linalg.norm(g)


def make_onb(n, name="onb"):
    """Standard orthonormal basis of C^n on the cyclic index set Z_n."""
    if n < 1:
        raise InvalidInputError(f"dimension must be positive, got {n}")
    return Frame(
        np.eye(n),
        IndexSet.ring(n),
        name=name,
        meta={"kind": "onb", "n": n},
    )


def make_gabor_frame(n, a, b, window, name=None):
    """Time-frequency shifts of a window on Z_n.

    psi_{(m,j)}[x] = window[(x - m a) mod n] exp(2 pi i j b x / n) for
    m = 0..n/a - 1, j = 0..n/b - 1.  Index positions sit on the
    (n/a) x (n/b) torus with axis scales (a, b).
    """
    if min(n, a, b) < 1:
        raise InvalidInputError(f"modulus {n} and steps ({a}, {b}) must be positive")
    if n % a or n % b:
        raise InvalidInputError(f"steps ({a}, {b}) must divide the modulus {n}")
    window = np.asarray(window, dtype=complex)
    if window.shape != (n,):
        raise DimensionMismatchError("window length must equal the modulus")
    mt, mf = n // a, n // b
    if mt * mf < n:
        raise NotAFrameError(
            f"lattice yields {mt * mf} vectors < ambient dimension {n}"
        )
    x = np.arange(n)
    vectors = np.empty((n, mt * mf), dtype=complex)
    col = 0
    for m in range(mt):
        shifted = np.roll(window, m * a)
        for j in range(mf):
            vectors[:, col] = shifted * np.exp(2j * np.pi * j * b * x / n)
            col += 1
    iset = IndexSet.torus_grid(mt, mf, scales=(float(a), float(b)))
    return Frame(
        vectors,
        iset,
        name=name or f"gabor{n}a{a}b{b}",
        meta={"kind": "gabor", "n": n, "a": a, "b": b},
    )


def make_translates_frame(n, step, generator, name=None, require_frame=True):
    """Circular shifts of a generator by multiples of ``step``.

    With ``require_frame`` the family must have at least n members;
    disable it to build Riesz sequences for subspaces.
    """
    if min(n, step) < 1:
        raise InvalidInputError(f"n = {n} and step {step} must be positive")
    if n % step:
        raise InvalidInputError(f"step {step} must divide {n}")
    g = field_array(generator)
    if g.shape != (n,):
        raise DimensionMismatchError("generator length must equal n")
    k = n // step
    if require_frame and k < n:
        raise NotAFrameError(f"{k} translates cannot span C^{n}")
    vectors = np.stack([np.roll(g, m * step) for m in range(k)], axis=1)
    iset = IndexSet.ring(k, scale=float(step))
    return Frame(
        vectors,
        iset,
        name=name or f"translates{n}s{step}",
        meta={"kind": "translates", "n": n, "step": step},
    )


def make_perturbed_onb(n, decay_s, seed, name=None):
    """Identity plus a random matrix with certified polynomial decay.

    Entries of the perturbation are bounded by 0.2 (1 + d(k,l))^{-decay_s}
    on the cyclic metric; the draw is reseeded deterministically.
    """
    if decay_s <= 1:
        raise InvalidInputError("decay exponent must exceed 1")
    iset = IndexSet.ring(n)
    d = iset.distance_matrix()
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    e = 0.2 * (1.0 + d) ** (-float(decay_s)) * (u / np.sqrt(2))
    return Frame(
        np.eye(n) + e,
        iset,
        name=name or f"ponb{n}s{decay_s}",
        meta={"kind": "perturbed_onb", "n": n, "decay_s": decay_s, "seed": seed},
    )
