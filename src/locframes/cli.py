"""Command-line driver: build, diagnose, assemble, certify, solve.

Every subcommand reads an optional JSON config (flags override config
fields), writes deterministic JSON/CSV artifacts into --out-dir, and
exits 0 on success, 2 on input/contract errors, 3 on divergence.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .algebras import MatrixAlgebraSpec, weight_admissible
from .errors import (ConfigError, DivergedError, InputFileError, InvalidInputError,
                     LocframesError)
from .frames import (
    canonical_dual,
    frame_bounds,
    gaussian_window,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_translates_frame,
)
from .galerkin import (
    CERTIFICATE_CASES,
    LinearOperator,
    compose_rule_check,
    galerkin_matrix,
    idempotency_residual,
    kappa_factorization_probe,
    roundtrip_check,
    schur_certificate,
)
from .indexing import IndexSet
from .localization import (
    GramMagnitudes,
    NotLocalizedError,
    dual_localization_check,
    equivalence_grid,
)
from .solver import (
    METHODS,
    ProjectionSchedule,
    finite_section_solve,
    frame_galerkin_solve,
    make_test_operator,
)
from .weights import SeqSpaceSpec, Weight, decay_envelope


def _finite(value):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _integer(value):
    """A whole number: 8, "8" and 8.0 read as 8; 8.7, booleans and numbers
    beyond the range of an array index do not."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be a whole number")
    number = int(value)
    if abs(number) > np.iinfo(np.intp).max:
        raise ValueError(f"must not exceed {np.iinfo(np.intp).max} in size")
    return number


# n x n complex arrays stay indexable: dense frames, dense operators and the
# finite sections allocate them (Gabor commands hold O(n) windows and blocks)
MAX_N = math.isqrt(np.iinfo(np.intp).max // 16)


def _size(value):
    """A whole number n small enough that an n x n complex array can be indexed."""
    number = _integer(value)
    if number > MAX_N:
        raise ValueError(f"must not exceed {MAX_N}")
    return number


def _tokens(value):
    """Items of a comma-separated string or of a JSON list."""
    if isinstance(value, str):
        return [t for t in value.split(",") if t.strip()]
    return list(value)


# how each setting is read; a value that does not convert is a ConfigError
_SETTING_TYPES = {
    "n": _size,
    **dict.fromkeys(("a", "b", "levels", "start_level"), _integer),
    **dict.fromkeys(("s", "threshold", "p", "w1_power", "w2_power", "width",
                     "exponent", "decay_s", "tol", "theta"), _finite),
    **dict.fromkeys(("frame", "matrix", "right"), os.fspath),
    # float() reads "inf" and "infinity" in any case
    "p_grid": lambda value: [float(t) for t in _tokens(value)],
    **dict.fromkeys(("weight_powers", "spectrum"),
                    lambda value: [_finite(t) for t in _tokens(value)]),
}


def _required(cfg, key):
    """A setting the command cannot run without."""
    if cfg.get(key) is None:
        raise ConfigError(f"missing required setting --{key.replace('_', '-')}")
    return cfg[key]


def _check_settings(cfg):
    """Convert every setting to its type in place.

    A value of the wrong type, a non-finite number and a --tol that is not
    positive raise ``ConfigError``.
    """
    for key, convert in _SETTING_TYPES.items():
        if cfg.get(key) is None:
            continue
        try:
            cfg[key] = convert(cfg[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(
                f"--{key.replace('_', '-')}: cannot read {cfg[key]!r} ({err})"
            ) from err
    if cfg.get("tol") is not None and cfg["tol"] <= 0:
        raise ConfigError(f"--tol must be positive, got {cfg['tol']!r}")


def build_frame(cfg, seed):
    kind = _required(cfg, "kind")
    if kind == "onb":
        return make_onb(_required(cfg, "n"))
    if kind == "gabor":
        n = _required(cfg, "n")
        window = gaussian_window(n, width=cfg.get("width"))
        return make_gabor_frame(n, _required(cfg, "a"), _required(cfg, "b"), window)
    if kind == "translates":
        n = _required(cfg, "n")
        iset = IndexSet.ring(n)
        # a unit spike plus the tail 0.25 (1 + |k|)^-3
        gen = 0.25 * (1.0 + iset.distance_to_origin()) ** -3.0
        gen[0] += 1.0
        return make_translates_frame(n, gen)
    if kind == "perturbed-onb":
        return make_perturbed_onb(_required(cfg, "n"), cfg.get("decay_s", 3.0), seed)
    raise InvalidInputError(f"unknown frame kind {kind!r}")


def build_operator(cfg, n):
    kind = cfg.get("op_kind", "identity")
    if kind == "identity":
        return LinearOperator.identity(n)
    if kind == "diagonal":
        return make_test_operator("diagonal", n, spectrum=_required(cfg, "spectrum"))
    params = {}
    for key in ("theta", "exponent"):
        if cfg.get(key) is not None:
            params[key] = cfg[key]
    return make_test_operator(kind, n, **params)


def make_rhs(cfg, n, seed):
    kind = cfg.get("rhs", "random")
    if kind == "random":
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "bump":
        x = np.arange(n)
        return np.exp(-np.pi * (x - n // 2) ** 2 / (0.02 * n * n)).astype(complex)
    raise InvalidInputError(f"unknown rhs kind {kind!r}")


# -- subcommands ---------------------------------------------------------------


def cmd_frame_build(cfg, out, seed):
    frame = build_frame(cfg, seed)
    bounds = frame_bounds(frame)
    io.save_frame(out / "frame", frame)
    io.save_json(
        {
            "n": frame.ambient_dim,
            "K": frame.size,
            "A": bounds.lower,
            "B": bounds.upper,
            "tight": bounds.tight,
            "redundancy": frame.redundancy,
            "name": frame.name,
        },
        out / "frame_summary.json",
    )
    return 0


def cmd_frame_diag(cfg, out, seed):
    frame = io.load_frame(Path(_required(cfg, "frame")))
    alg = MatrixAlgebraSpec(cfg.get("algebra", "jaffard"), cfg.get("s", 3.0),
                            cfg.get("threshold", 1e3))
    # weights first: a power that overflows exits before any report is written
    weights = [Weight.polynomial(t, frame.index_set)
               for t in cfg.get("weight_powers", [0.0, 1.0])]
    grams = GramMagnitudes(frame)
    try:
        res = dual_localization_check(frame, alg, grams)
    except NotLocalizedError as err:
        primal = err.report
        diag = {"primal": primal.to_dict(), "member": False}
    else:
        primal = res.primal
        diag = {**res.to_dict(), "member": True}
    io.save_json(diag, out / "localization.json")
    io.shells_to_csv(out / "shells.csv", primal.fit)

    admissible = {w.power: weight_admissible(alg, w, frame.index_set.dim)
                  for w in weights}
    spaces = [SeqSpaceSpec(p, w) for p in cfg.get("p_grid", [1.0, 2.0, math.inf])
              for w in weights]
    grid = [
        {
            "p": "inf" if space.p == math.inf else space.p,
            "weight_power": space.weight.power,
            "lower": lo,
            "upper": up,
            "weight_admissible": admissible[space.weight.power],
        }
        for space, (lo, up) in zip(spaces, equivalence_grid(frame, spaces, grams))
    ]
    inf_weight = min((float(space.weight.values.min()) for space in spaces),
                     default=math.inf)
    # triple structure diagnostic: a weight bounded away from zero nests
    # the p = 1 coorbit space inside the ambient space inside its dual
    gelfand = {
        "inf_weight": inf_weight,
        "weight_bounded_below": bool(inf_weight > 0),
        "chain": "coorbit(1,w) in ambient in coorbit(inf,1/w)",
    }
    io.save_json({"grid": grid, "gelfand": gelfand}, out / "equivalence.json")
    return 0


def _load_frame_pair(cfg):
    frame = io.load_frame(Path(_required(cfg, "frame")))
    right = cfg.get("right", "dual")
    if right == "self":
        return frame, frame
    if right == "dual":
        return frame, canonical_dual(frame)
    return frame, io.load_frame(Path(right))


def cmd_galerkin_assemble(cfg, out, seed):
    frame, right = _load_frame_pair(cfg)
    op = build_operator(cfg, frame.ambient_dim)
    # the n x n checks come first: a family they reject leaves no container
    report = {
        "roundtrip_residual": roundtrip_check(op, frame, right),
        "composition_residual": compose_rule_check(op, op, frame, right, frame),
    }
    if op.name == "identity" and cfg.get("right", "dual") == "dual":
        # the assembled matrix is the Gram projection
        report["idempotency_residual"] = idempotency_residual(op, frame, right)
    try:
        report["kappa"] = kappa_factorization_probe(op, frame, right)
    except LocframesError as err:
        report["kappa"] = err.payload()
    io.save_galerkin_matrix(out / "galerkin", galerkin_matrix(op, frame, right),
                            {"operator": op.name})
    io.save_json(report, out / "galerkin_report.json")
    return 0


def cmd_galerkin_certify(cfg, out, seed):
    path = Path(_required(cfg, "matrix"))
    arr, sidecar = io.load_array(path)
    matrix = io.galerkin_from(path, arr, sidecar)
    # plain matrices and containers written before it was recorded have
    # no ambient dimension, and so no rank bound
    rank_bound = sidecar.get("ambient_dim")
    if len(matrix.shape) != 2 or not (rank_bound is None
                                      or type(rank_bound) is int and rank_bound > 0):
        raise InputFileError(f"{path} holds no matrix with a valid ambient_dim")
    case = cfg.get("case", "inf_inf")
    k_out, k_in = matrix.shape
    w1 = Weight(decay_envelope(np.arange(k_in), cfg.get("w1_power", 0.0)))
    w2 = Weight(decay_envelope(np.arange(k_out), cfg.get("w2_power", 0.0)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            cert = schur_certificate(matrix, case, p=cfg.get("p", 2.0),
                                     weights=(w1, w2), rank_bound=rank_bound)
    except FloatingPointError as err:
        raise InvalidInputError(f"the weighted {case} norms leave float64 ({err})") from err
    io.save_json(cert.to_dict(), out / f"certificate_{case}.json")
    return 0


def cmd_solve_fs(cfg, out, seed):
    n = cfg.get("n", 128)
    frame = make_onb(n)
    op = build_operator(cfg, n)
    y = make_rhs(cfg, n, seed)
    sched = ProjectionSchedule(frame, selection=cfg.get("schedule", "centered"),
                               pilot=y, start=cfg.get("start_level", 8),
                               n_levels=cfg.get("levels"))
    report, x = finite_section_solve(
        op, y, sched, method=cfg.get("method", "direct"),
        tol=cfg.get("tol", 1e-8),
    )
    io.save_json(report.to_dict(), out / "solve_fs.json")
    io.report_levels_csv(out / "solve_fs_levels.csv", report)
    if x is not None:
        io.save_array(out / "solution_fs", x, {"container": "vector", "n": n})
    if not report.converged:
        raise DivergedError("finite-section schedule did not converge")
    return 0


def cmd_solve_fg(cfg, out, seed):
    frame = io.load_frame(Path(_required(cfg, "frame")))
    op = build_operator(cfg, frame.ambient_dim)
    g = make_rhs(cfg, frame.ambient_dim, seed)
    f, report = frame_galerkin_solve(
        op, g, frame, method=cfg.get("method", "cg"),
        tol=cfg.get("tol", 1e-8),
    )
    io.save_json(report.to_dict(), out / "solve_fg.json")
    io.report_levels_csv(out / "solve_fg_levels.csv", report)
    io.save_array(out / "solution_fg", f,
                  {"container": "vector", "n": frame.ambient_dim})
    if not report.converged:
        raise DivergedError("frame-Galerkin solve did not converge")
    return 0


COMMANDS = {
    ("frame", "build"): cmd_frame_build,
    ("frame", "diag"): cmd_frame_diag,
    ("galerkin", "assemble"): cmd_galerkin_assemble,
    ("galerkin", "certify"): cmd_galerkin_certify,
    ("solve", "fs"): cmd_solve_fs,
    ("solve", "fg"): cmd_solve_fg,
}


_OPERATOR_FLAGS = ("op_kind", "theta", "exponent", "spectrum")
_SOLVE_FLAGS = _OPERATOR_FLAGS + ("method", "tol", "rhs")

# the settings each subcommand reads, given as --flags; _check_settings
# converts them
FLAGS = {
    ("frame", "build"): ("kind", "n", "a", "b", "width", "decay_s"),
    ("frame", "diag"): ("frame", "algebra", "s", "threshold", "p_grid", "weight_powers"),
    ("galerkin", "assemble"): ("frame", "right") + _OPERATOR_FLAGS,
    ("galerkin", "certify"): ("matrix", "case", "p", "w1_power", "w2_power"),
    ("solve", "fs"): ("n", "schedule", "levels", "start_level") + _SOLVE_FLAGS,
    ("solve", "fg"): ("frame",) + _SOLVE_FLAGS,
}
# the values a setting takes, for --help; each command checks its own
_HELP = {
    "kind": "onb | gabor | translates | perturbed-onb",
    "algebra": "jaffard | schur_weighted",
    "case": " | ".join(CERTIFICATE_CASES),
    "method": " | ".join(METHODS),
    "schedule": "centered | greedy",
    "rhs": "random | bump",
    "right": "self | dual | path to a frame container",
}


@functools.cache
def make_parser():
    """The one parser of a process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="locframes",
        description="frame diagnostics and frame-Galerkin operator solves",
        exit_on_error=False,
    )
    # --out-dir may precede the subcommand: every level reads it, and a level
    # that is not given it keeps the value of an outer one (no default)
    out_dir = dict(default=argparse.SUPPRESS, help='default "out"')
    parser.add_argument("--out-dir", **out_dir)
    # main raises ConfigError for a missing subcommand; required=True would exit instead
    groups = parser.add_subparsers(dest="group")
    subs = {}
    for (group, name), keys in FLAGS.items():
        if group not in subs:
            group_parser = groups.add_parser(group, exit_on_error=False)
            group_parser.add_argument("--out-dir", **out_dir)
            subs[group] = group_parser.add_subparsers(dest="sub")
        sub = subs[group].add_parser(name, allow_abbrev=False, exit_on_error=False)
        sub.add_argument("--config", help="JSON config file; flags override it")
        sub.add_argument("--out-dir", **out_dir)
        sub.add_argument("--seed", help="default 0")
        for key in keys:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key))
    return parser


def _load_config(path):
    """The JSON settings in ``path``; a bad file is an input or config error."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise InputFileError(f"cannot read --config {path}: {err.strerror}") from err
    except ValueError as err:
        raise ConfigError(f"--config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config {path} must hold a JSON object")
    return cfg


def main(argv=None):
    # --out-dir is read on its own first: argparse's errors on the other flags go there
    first = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    first.add_argument("--out-dir", nargs="?", const="out", default="out")
    out = first.parse_known_args(argv)[0].out_dir
    # an empty --out-dir names no directory
    out = Path(out) if out else None
    try:
        try:
            args, unknown = make_parser().parse_known_args(argv)
        except argparse.ArgumentError as err:
            raise ConfigError(str(err)) from err
        if getattr(args, "sub", None) is None:
            raise ConfigError("missing subcommand; see locframes --help")
        # flags override the config file, which overrides these defaults
        cfg = _load_config(args.config) if args.config else {}
        for key, value in vars(args).items():
            if key not in ("group", "sub", "config") and value is not None:
                cfg[key] = value
        try:
            seed = _integer(cfg.setdefault("seed", 0))
            out_dir = cfg.setdefault("out_dir", "out")
            out = Path(out_dir) if out_dir != "" else None
        except (TypeError, ValueError) as err:
            raise ConfigError(f"--seed needs an integer, --out-dir a path: {err}") from err
        if out is None:
            raise ConfigError("--out-dir must not be empty")
        if unknown:
            raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot make --out-dir {out}: {err.strerror}") from err
        # an error.json of an earlier run would outlive this one's artifacts
        (out / "error.json").unlink(missing_ok=True)
        _check_settings(cfg)
        try:
            return COMMANDS[(args.group, args.sub)](cfg, out, seed)
        except MemoryError as err:
            raise ConfigError(
                f"the requested sizes do not fit in memory ({err})") from err
    except LocframesError as err:
        print(json.dumps(err.payload()), file=sys.stderr)
        # an --out-dir that is empty or cannot be made holds no error.json
        if out is not None:
            with contextlib.suppress(OSError):
                io.save_json(err.payload(), out / "error.json")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
