"""Frames and their canonical operators: analysis, synthesis, frame operator, Gram."""

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotAFrameError,
)
from .indexing import IndexSet
from .linalg import circular_shifts, field_array

BOUND_RANK_TOL = 1e-10
TIGHT_REL_TOL = 1e-10
# columns per block of the norms taken by Frame.min_vector_norm
NORM_BLOCK = 256


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


class Frame:
    """Finite vector family psi_k, stored as columns of an n x K matrix.

    Immutable; the canonical operators are computed once on first use and
    frozen (safe to share across threads afterwards).  A lattice frame is given
    as its window alone, with ``lattice`` (a, b), steps that divide n and give
    K >= n vectors: its vectors, ``gabor_system(window, a, b)``, are built on first
    use, and the bounds and the dual factor through its Walnut blocks.  The one
    factorization a frame holds (``_r``) is the R_t of its Walnut blocks
    B_t = Q_t R_t, Q never formed; without a lattice, the one block V^*.  A lattice
    frame also keeps its frame on the Fourier side (``walnut_side``).
    """

    def __init__(self, vectors, index_set: IndexSet, name="frame", meta=None, lattice=None):
        v = field_array(vectors)
        if v.ndim != (2 if lattice is None else 1):
            raise InvalidInputError("vectors must form an n x K matrix, or a lattice window")
        if lattice is None:   # a read-only view: the caller's array stays writable
            self._vectors, self.window, size = v.view(), None, v.shape[1]
        else:
            self._vectors, self.window = None, np.array(v, dtype=complex)
            n, (a, b) = len(v), lattice
            if min(a, b) < 1 or n % a or n % b:
                raise InvalidInputError(f"steps ({a}, {b}) must be positive and divide {n}")
            size = (n // a) * (n // b)
            if size < n:
                raise NotAFrameError(f"lattice yields {size} vectors < ambient dimension {n}")
        (self._vectors if lattice is None else self.window).setflags(write=False)
        self.ambient_dim, self.size, self._min_norm = len(v), size, None
        if len(index_set) != self.size:
            raise DimensionMismatchError(f"{self.size} vectors but {len(index_set)} indices")
        self.lattice = lattice
        if not self.min_vector_norm() > 0:
            raise InvalidInputError("frame must not contain zero vectors")
        self.index_set = index_set
        self.name = name
        self.meta = dict(meta or {})
        self._r = self._frame_op = self._bounds = self._dual = self._fourier = None

    @property
    def vectors(self):
        if self._vectors is None:
            self._vectors = gabor_system(self.window, *self.lattice)
            self._vectors.setflags(write=False)
        return self._vectors

    @property
    def redundancy(self):
        return self.size / self.ambient_dim

    def min_vector_norm(self):
        """min_k ||psi_k||; on a lattice ||window||, as time-frequency shifts are unitary."""
        if self._min_norm is None:
            # in column blocks: no temporary as large as the frame
            v = self.vectors if self.lattice is None else self.window[:, None]
            norms = (np.linalg.norm(v[:, j:j + NORM_BLOCK], axis=0).min()
                     for j in range(0, v.shape[1], NORM_BLOCK))
            self._min_norm = float(min(norms, default=np.inf))
        return self._min_norm

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


def _walnut_blocks(frame: Frame):
    """The Walnut blocks B_t (mf x mt x b) of the analysis matrix V^*.

    With window w on the lattice (a, b), mt = n/a and mf = n/b, the
    analysis matrix factors as V^* = (I_mt (x) F^*) diag_t(B_t) P: F is
    the unitary DFT of size mf, P groups x by t = x mod mf, and the
    mt x b block B_t[m, p] = sqrt(mf) conj(w[(t + p mf - m a) mod n]).
    Without a lattice mf = 1, F = [1], P = I: one K x n block B_0 = V^*.
    """
    if frame.lattice is None:
        return np.conj(frame.vectors.T)[None]
    a, b = frame.lattice
    mf = frame.ambient_dim // b
    # a view of the shifts of the conjugated, scaled window: no stack is formed
    rows = circular_shifts(np.sqrt(mf) * np.conj(frame.window), a)
    return rows.reshape(-1, b, mf).transpose(2, 0, 1)


def walnut_r(frame: Frame):
    """The cached R_t (mf x r_b x b) of the Walnut blocks B_t = Q_t R_t;
    Q_t is never formed.  R is kept C-contiguous whatever layout QR returns,
    as the batched products that read it round by its strides."""
    if frame._r is None:
        frame._r = np.ascontiguousarray(np.linalg.qr(_walnut_blocks(frame), mode="r"))
        frame._r.setflags(write=False)
    return frame._r


def walnut_side(frame: Frame, side):
    """The lattice frame on ``side`` (None without a lattice or a side): ``frame``
    on "time"; on "fourier" the cached Gabor system of its window's unitary DFT on
    the lattice (b, a), one of whose vectors is a unimodular multiple of F psi for
    each psi of ``frame``, so that R^ F is an R of V^*."""
    if frame.lattice is None or side is None:
        return None
    if side == "time":
        return frame
    if frame._fourier is None:
        a, b = frame.lattice
        frame._fourier = Frame(np.fft.fft(frame.window, norm="ortho"), frame.index_set,
                               name=frame.name + "^", lattice=(b, a))
    return frame._fourier


def _grouped(x, mf):
    """The rows of ``x`` grouped by P: entry [t, p] holds row t + p mf."""
    return x.reshape(-1, mf, x.shape[1]).transpose(1, 0, 2)


def shared_lattice(left: Frame, right: Frame):
    """Whether both frames have one Walnut block layout: lattice, n and K."""
    return ((left.lattice, left.ambient_dim, left.size)
            == (right.lattice, right.ambient_dim, right.size))


def analysis_r_product(frame: Frame, x):
    """R X for the factor R (r x n, r = min(K, n)) of the analysis matrix
    V^* = Q R, Q with orthonormal columns; neither is formed.  R = diag_t(R_t) P,
    R[(t, p), t + p' mf] = R_t[p, p'], and R X is one batched product over the
    mf Walnut blocks R_t, n^2 b flops instead of n^3 for a Gabor frame."""
    r_t = walnut_r(frame)
    return (r_t @ _grouped(x, len(r_t))).reshape(-1, x.shape[1])


def analysis_r_adjoint(frame: Frame, c):
    """R^* c for the factor R of ``analysis_r_product``, one Walnut block at a time:
    (R^* c)[t + p mf] = (R_t^* c_t)[p], with c_t the t-th of the mf blocks of c."""
    r_t = walnut_r(frame)
    f_t = np.conj(r_t.transpose(0, 2, 1)) @ c.reshape(len(r_t), -1, 1)
    return f_t[:, :, 0].T.reshape(-1)


def mixed_frame_operator(left: Frame, right: Frame, x=None):
    """V_left V_right^* X, with X = I by default, as V_left (V_right^* X): the
    dense rule, whose blocks ``walnut_mixed`` gives for frames of one block layout."""
    v = np.conj(right.vectors.T)
    return left.vectors @ v if x is None else left.vectors @ (v @ x)


def walnut_mixed(left: Frame, right: Frame, x=None):
    """The blocks D_t = B_t^left* B_t^right of V_left V_right^* for frames of one
    block layout, or D_t X_t for a stack X of their order."""
    blocks = np.conj(_walnut_blocks(left).transpose(0, 2, 1)) @ _walnut_blocks(right)
    return blocks if x is None else blocks @ x


def frame_bounds(frame: Frame):
    """(A, B) = extreme eigenvalues of the frame operator.

    For a Gabor frame these are the extreme squared singular values of
    the Walnut factors R_t, as S = P^* diag(R_t^* R_t) P.  Raises
    ``NotAFrameError`` carrying the numerical rank when the family does
    not span.
    """
    if frame._bounds is None:
        if frame.lattice is None:
            w = np.linalg.eigvalsh(frame_operator(frame))
        else:
            s = np.linalg.svd(walnut_r(frame), compute_uv=False)
            w = np.sort(s.ravel() ** 2)
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


def _walnut_dual_window(frame: Frame):
    """gamma = S^{-1} w for the window w: gamma_t = R_t^{-1} R_t^{-*} w_t,
    with w_t[p] = w[t + p mf] as in ``_walnut_blocks``."""
    r_t = walnut_r(frame)
    mf, b = r_t.shape[:2]
    w_t = frame.window.reshape(b, mf).T[:, :, None]
    half = np.linalg.solve(np.conj(r_t.transpose(0, 2, 1)), w_t)
    return np.linalg.solve(r_t, half)[:, :, 0].T.reshape(-1)


def canonical_dual(frame: Frame):
    """Frame of S^{-1} psi_k.

    A Gabor frame's dual is the Gabor system of its dual window, held as that
    window.  Any other frame solves S X = V with one LU factorization of S; the
    bounds check has already rejected any S with lambda_min <= 1e-10 lambda_max.
    The frame keeps its dual and the dual refers back to the frame only
    weakly, so that the pair forms no reference cycle: both are freed as
    soon as the caller drops the frame, not at the next cyclic collection.
    """
    dual = None if frame._dual is None else frame._dual()
    if dual is None:
        bounds = frame_bounds(frame)
        vectors = (_walnut_dual_window(frame) if frame.lattice is not None
                   else np.linalg.solve(frame_operator(frame), frame.vectors))
        dual = Frame(vectors, frame.index_set, name=frame.name + "~",
                     meta={"dual_of": frame.name, **frame.meta}, lattice=frame.lattice)
        dual._dual = weakref.ref(frame)
        dual._bounds = FrameBounds(1.0 / bounds.upper, 1.0 / bounds.lower)
        frame._dual = lambda: dual
    return dual


def gram(left: Frame, right: Frame):
    """Cross-Gram G_{k,l} = <right_l, left_k>; equals analysis o synthesis."""
    if left.ambient_dim != right.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {left.ambient_dim} vs {right.ambient_dim}"
        )
    return np.conj(left.vectors.T) @ right.vectors


@dataclass
class RieszResult:
    """Outcome of the Riesz-sequence test: bounds, or a not-riesz flag."""

    bounds: FrameBounds
    riesz: bool
    gram_rank: int


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
    self-dual choice for square time-frequency lattices.  Entries below
    tiny / eps^2 are zero, so that no slow subnormal enters the window or
    its modulations (at the default width, from n = 810 on).
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
    g /= np.linalg.norm(g)
    g[g < np.finfo(float).tiny / np.finfo(float).eps ** 2] = 0.0
    return g


def make_onb(n):
    """Standard orthonormal basis of C^n on the cyclic index set Z_n."""
    if n < 1:
        raise InvalidInputError(f"dimension must be positive, got {n}")
    return Frame(
        np.eye(n),
        IndexSet.ring(n),
        name="onb",
        meta={"kind": "onb", "n": n},
    )


def gabor_system(window, a, b, shifts=slice(None)):
    """Time-frequency shifts of ``window`` on the (a, b) lattice of Z_n.

    Column m (n/b) + j is window[(x - m a) mod n] exp(2 pi i j b x / n),
    m = 0..n/a - 1, j = 0..n/b - 1, for the time shifts m in ``shifts``.  The phase
    argument j b x is reduced mod n first, so that every phase is accurate to the
    last bit or two.
    """
    n = window.shape[0]
    x = np.arange(n)
    shifted = circular_shifts(window, a)[shifts].T
    phases = np.exp(2j * np.pi * ((b * x[:, None] * np.arange(n // b)) % n) / n)
    return np.multiply(shifted[:, :, None], phases[:, None, :], order="C").reshape(n, -1)


def gabor_meta(meta):
    """The shape (n, K) and the lattice (a, b) when ``meta`` describes a Gabor
    frame on Z_n whose steps divide n, with K >= n vectors; otherwise None."""
    if meta.get("kind") != "gabor":
        return None
    n, a, b = (meta.get(key) for key in ("n", "a", "b"))
    if not all(type(v) is int and v > 0 for v in (n, a, b)) or n % a or n % b:
        return None
    size = (n // a) * (n // b)
    return ((n, size), (a, b)) if size >= n else None


def make_gabor_frame(n, a, b, window):
    """Time-frequency shifts of a window on Z_n, held as the window; see ``gabor_system``.

    Index positions sit on the (n/a) x (n/b) torus with axis scales (a, b).
    """
    if min(n, a, b) < 1:
        raise InvalidInputError(f"modulus {n} and steps ({a}, {b}) must be positive")
    window = np.asarray(window, dtype=complex)
    if window.shape != (n,):
        raise DimensionMismatchError("window length must equal the modulus")
    iset = IndexSet.torus_grid(n // a, n // b, scales=(float(a), float(b)))
    return Frame(window, iset, name=f"gabor{n}a{a}b{b}",
                 meta={"kind": "gabor", "n": n, "a": a, "b": b}, lattice=(a, b))


def make_translates_frame(n, generator):
    """The n circular shifts of a generator (a circulant); fewer shifts
    cannot span C^n."""
    g = field_array(generator)
    if g.shape != (n,):
        raise DimensionMismatchError("generator length must equal n")
    return Frame(np.ascontiguousarray(circular_shifts(g).T), IndexSet.ring(n),
                 name=f"translates{n}s1", meta={"kind": "translates", "n": n, "step": 1})


def make_perturbed_onb(n, decay_s, seed):
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
        name=f"ponb{n}s{decay_s}",
        meta={"kind": "perturbed_onb", "n": n, "decay_s": decay_s, "seed": seed},
    )
