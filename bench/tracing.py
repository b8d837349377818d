"""In-memory span tracing of the locframes modules, installed from outside.

``Tracer.install()`` replaces every public function of every
``locframes`` module (and the public methods, class/static methods and
``__init__`` of its public classes) with a timing wrapper, in every
``locframes`` namespace that holds its own reference to it and in every
module-level dict that holds it (``cli.COMMANDS``).  It also
wraps the ``numpy.linalg`` entry points the package calls, as the
``kernel`` layer.  ``Tracer.restore()`` puts every original object back.

Spans are recorded only while ``Tracer.pass_id`` is set, so work done
between commands (the benchmark's own checks) passes straight through.
"""

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# the modules of src/locframes, which are the layers; errors holds only
# exception classes and __main__ only the entry point
LAYERS = (
    "cli", "io", "frames", "indexing", "algebras", "localization",
    "weights", "opnorms", "galerkin", "linalg", "solver",
)
PACKAGE = "locframes"
KERNEL_ENTRIES = (
    "svd", "norm", "cond", "eigh", "eigvalsh", "cholesky", "solve", "lstsq", "inv",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int = -1
    pass_id: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


# -- what a span remembers about its call -------------------------------------


def _observe_cg(span, args, kwargs, result):
    span.extra["iterations"] = int(result.iterations)
    span.extra["normal_equations"] = bool(result.normal_equations)


def _observe_finite_section(span, args, kwargs, result):
    report, _ = result
    span.extra["levels"] = len(report.levels)


def _observe_distance(span, args, kwargs, result):
    span.extra["cells"] = int(np.asarray(result).size)


OBSERVERS = {
    "solver.cg_solve": _observe_cg,
    "solver.finite_section_solve": _observe_finite_section,
    "indexing.IndexSet.distance_matrix": _observe_distance,
}


# -- kernel operation counts (computed from operand shapes, not measured) ----


def _svd_flops(shape, compute_uv=True, full_matrices=True):
    m, n = shape[-2:]
    big, k = max(m, n), min(m, n)
    if not compute_uv:
        return 4.0 * big * k * k - 4.0 * k ** 3 / 3
    if full_matrices:
        return 4.0 * big * big * k + 8.0 * big * k * k + 9.0 * k ** 3
    return 6.0 * big * k * k + 11.0 * k ** 3


def _batch(a):
    return float(np.prod(a.shape[:-2])) if a.ndim > 2 else 1.0


def kernel_flops(entry, args, kwargs):
    """Textbook flop estimate of one numpy.linalg call (complex counts 4x)."""
    a = np.asarray(args[0]) if args else np.asarray(kwargs.get("a", kwargs.get("x")))
    if a.ndim < 2:
        return 0.0
    n = a.shape[-1]
    if entry == "svd":
        flops = _svd_flops(a.shape, kwargs.get("compute_uv", args[2] if len(args) > 2 else True),
                           kwargs.get("full_matrices", args[1] if len(args) > 1 else True))
    elif entry in ("norm2", "cond"):
        flops = _svd_flops(a.shape, compute_uv=False)
    elif entry == "eigh":
        flops = 9.0 * n ** 3
    elif entry == "eigvalsh":
        flops = 4.0 * n ** 3 / 3
    elif entry == "cholesky":
        flops = n ** 3 / 3.0
    elif entry == "solve":
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        rhs = b.shape[-1] if b.ndim == a.ndim else 1
        flops = 2.0 * n ** 3 / 3 + 2.0 * n * n * rhs
    elif entry == "lstsq":
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        rhs = b.shape[-1] if b.ndim == 2 else 1
        flops = _svd_flops(a.shape, compute_uv=False) + 2.0 * a.shape[0] * n * rhs
    elif entry == "inv":
        flops = 2.0 * n ** 3
    else:
        return 0.0
    scale = 4.0 if np.iscomplexobj(a) else 1.0
    return scale * flops * _batch(a)


def _norm_entry(args, kwargs):
    """``norm2`` for the spectral norm of a matrix, which runs an SVD."""
    x = np.asarray(args[0] if args else kwargs["x"])
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    if ord_ in (2, -2) and (x.ndim == 2 and axis is None or
                            isinstance(axis, tuple) and len(axis) == 2):
        return "norm2"
    return "norm"


# -- the tracer ----------------------------------------------------------------


class Tracer:
    """Span recorder plus the install/restore of its wrappers."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._patched = []   # (owner, attribute or key, original), in patch order

    # recording -----------------------------------------------------------

    def _enter(self, name, layer):
        span = Span(name, layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1,
                    pass_id=self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, layer, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.pass_id is None:
                return fn(*args, **kwargs)
            span = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _wrap_kernel(self, entry, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.pass_id is None:
                return fn(*args, **kwargs)
            op = _norm_entry(args, kwargs) if entry == "norm" else entry
            # one span name for the Hermitian eigensolver with and without vectors
            span = tracer._enter("kernel.eigh" if op == "eigvalsh" else f"kernel.{op}", "kernel")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)
                span.extra["flops"] = kernel_flops(op, args, kwargs)

        return traced

    # install / restore -------------------------------------------------------

    def _set(self, owner, attr, value):
        """Set an attribute of a module or class, or an item of a dict."""
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = value
            return
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def _targets(self):
        """(span name, layer, owner, attribute, descriptor) for every target."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{layer}.{attr}", layer, mod, attr, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mattr, mobj in list(vars(obj).items()):
                        if mattr != "__init__" and mattr.startswith("_"):
                            continue
                        fn = mobj.__func__ if isinstance(mobj, (classmethod, staticmethod)) else mobj
                        if not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}" if mattr == "__init__" else f"{layer}.{attr}.{mattr}"
                        out.append((name, layer, obj, mattr, mobj))
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, layer, owner, attr, desc in self._targets():
            if isinstance(owner, type):
                if isinstance(desc, (classmethod, staticmethod)):
                    self._set(owner, attr, type(desc)(self._wrap(name, layer, desc.__func__)))
                else:
                    self._set(owner, attr, self._wrap(name, layer, desc))
            else:
                wrappers[id(desc)] = (desc, self._wrap(name, layer, desc))
        # rebind module functions in every package namespace that imported
        # them, and in the module-level dicts that hold them (cli.COMMANDS)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._set(obj, key, hit[1])
        for entry in KERNEL_ENTRIES:
            self._set(np.linalg, entry, self._wrap_kernel(entry, getattr(np.linalg, entry)))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.pass_id = None
        self._stack.clear()


# -- span arithmetic ------------------------------------------------------------


def self_times(spans):
    """Per span: duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _has_ancestor(spans, i, pred):
    p = spans[i].parent
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


def outermost(spans, i, key="name"):
    """True when no ancestor of span i shares its name (or layer)."""
    value = getattr(spans[i], key)
    return not _has_ancestor(spans, i, lambda s: getattr(s, key) == value)


# every kernel span except plain (vector / Frobenius) norms factorizes
FACTOR_KERNELS = frozenset(
    f"kernel.{e}" for e in ("svd", "norm2", "cond", "eigh", "cholesky", "solve", "lstsq", "inv")
)


def pass_summary(spans):
    """Totals of one pass's spans.

    Returns a flat dict: ``<name>.s`` (inclusive time of outermost calls),
    ``<name>.calls``, ``<layer>.self_s``, ``<layer>.s`` (outermost spans of
    the layer), ``<layer>.calls`` and the kernel and solver aggregates.
    """
    selfs = self_times(spans)
    out = defaultdict(float)
    solver_s = factor_in_solver = 0.0
    for i, s in enumerate(spans):
        out[f"{s.name}.calls"] += 1
        out[f"{s.layer}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[i]
        out[f"{s.layer}.self_s"] += selfs[i]
        if outermost(spans, i):
            out[f"{s.name}.s"] += s.duration
        if outermost(spans, i, key="layer"):
            out[f"{s.layer}.s"] += s.duration
            if s.layer == "solver":
                solver_s += s.duration
        if s.name in FACTOR_KERNELS:
            out["kernel.factor.s"] += s.duration
            out["kernel.gflop_est"] += s.extra.get("flops", 0.0) / 1e9
            if _has_ancestor(spans, i, lambda a: a.layer == "solver"):
                factor_in_solver += s.duration
        if s.name == "solver.cg_solve" and outermost(spans, i):
            out["solver.cg.iterations"] += s.extra.get("iterations", 0)
            out["solver.cg.normal_equations"] += int(s.extra.get("normal_equations", False))
        out["solver.levels"] += s.extra.get("levels", 0)
        out["indexing.distance_cells"] += s.extra.get("cells", 0)
    out["solver.kernel_factor_frac"] = factor_in_solver / solver_s if solver_s else 0.0
    return dict(out)

