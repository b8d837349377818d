"""The three CLI pipelines the benchmark drives, their inputs and checks.

A workload has a set-up step, which makes the inputs its commands read,
and a pass: a fixed sequence of ``locframes`` CLI commands.  Every
command gets the workload seed as ``--seed``.  Each command has checks
on its artifacts; the checks use oracles built here from the seed (the
operator ``I - theta T`` and the right-hand side), not the package's
own code.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from locframes import io
from locframes.cli import main as cli_main
from locframes.frames import canonical_dual
from locframes.galerkin import galerkin_matrix
from locframes.solver import make_test_operator

THETA = 0.5
TOL = 1e-8   # the CLI's default tolerance for solve fs / fg
OPERATOR = ["--op-kind", "identity_minus_kernel", "--theta", str(THETA)]
CERT_CASES = ("inf_inf", "inf_zero", "one_inf", "one_p", "inf_one", "two_two")

# "full" is what the benchmark measures; "tiny" keeps the same command
# sequences small enough for the benchmark's own tests
SIZES = {
    "full": {"gabor": (256, 8, 8), "onb_n": 384, "perturbed_n": 384},
    "tiny": {"gabor": (32, 4, 4), "onb_n": 64, "perturbed_n": 48},
}

# -- oracles -------------------------------------------------------------------


def oracle_operator(n, theta=THETA, exponent=3.0):
    """I - theta T, T the row-normalized (1 + ring distance)^-exponent kernel."""
    i = np.arange(n)
    d = np.abs(i[:, None] - i[None, :])
    d = np.minimum(d, n - d)
    t = (1.0 + d) ** -exponent
    t /= t.sum(axis=1, keepdims=True)
    return np.eye(n) - theta * t


def oracle_rhs(n, seed):
    """The CLI's ``--rhs random`` right-hand side for this seed."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _relative_residual(out, solution, n, seed):
    x = np.load(out / f"{solution}.npy")
    y = oracle_rhs(n, seed)
    return float(np.linalg.norm(oracle_operator(n) @ x - y) / np.linalg.norm(y))


def check_solve(report, solution, n):
    """The report says converged and the solution meets TOL in the ambient space."""

    def check(out, seed):
        rep = json.loads((out / report).read_text())
        if rep.get("converged") is not True:
            return f"{report}: converged is {rep.get('converged')!r}"
        rel = _relative_residual(out, solution, n, seed)
        if not rel <= TOL:
            return f"{solution}: ambient residual {rel:.3e} above tol {TOL:.0e}"
        return None

    return check


def check_sound(case):
    def check(out, seed):
        cert = json.loads((out / f"certificate_{case}.json").read_text())
        return None if cert.get("sound") is True else f"certificate {case} not sound"

    return check


def verdicts(obj, path=""):
    """Every ``member`` / ``verdict`` field of a localization report."""
    found = {}
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            sub = f"{path}.{key}" if path else key
            if key in ("member", "verdict"):
                found[sub] = value
            else:
                found.update(verdicts(value, sub))
    return found


def read_verdicts(out):
    return verdicts(json.loads((out / "localization.json").read_text()))


# -- workloads -----------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation of a pass; ``key`` names its ``cmd.<key>_s`` metric."""

    key: str
    label: str
    argv: list
    checks: list = field(default_factory=list)
    localization: bool = False   # compare localization.json verdicts across passes


def _build(argv, out, seed):
    rc = cli_main(argv + ["--seed", str(seed), "--out-dir", str(out)])
    if rc != 0:
        raise RuntimeError(f"set-up command {' '.join(argv)} exited {rc}")
    return out / "frame"


def _gabor_argv(size):
    n, a, b = SIZES[size]["gabor"]
    return ["frame", "build", "--kind", "gabor", "--n", str(n), "--a", str(a), "--b", str(b)]


def setup(name, work, seed, size):
    """Make the workload's inputs under ``work``; returns their paths."""
    inputs = {}
    if name in ("gabor-galerkin", "frame-diagnostics"):
        inputs["gabor"] = _build(_gabor_argv(size), work / "gabor", seed)
    if name == "frame-diagnostics":
        n = SIZES[size]["perturbed_n"]
        inputs["perturbed"] = _build(
            ["frame", "build", "--kind", "perturbed-onb", "--n", str(n)],
            work / "perturbed", seed)
        frame = io.load_frame(inputs["gabor"])
        op = make_test_operator("identity_minus_kernel", frame.ambient_dim, theta=THETA)
        gm = galerkin_matrix(op, frame, canonical_dual(frame))
        inputs["galerkin"] = work / "galerkin" / "galerkin"
        io.save_galerkin_matrix(inputs["galerkin"], gm, extra={"operator": op.name})
    return inputs


def commands(name, inputs, size):
    """The fixed command sequence of one pass."""
    if name == "gabor-galerkin":
        frame = str(inputs["gabor"])
        n = SIZES[size]["gabor"][0]
        fg = ["solve", "fg", "--frame", frame, *OPERATOR, "--method"]
        return [
            Command("galerkin_assemble", "assemble",
                    ["galerkin", "assemble", "--frame", frame, "--right", "dual", *OPERATOR]),
            Command("solve_fg", "fg_cg", fg + ["cg"],
                    [check_solve("solve_fg.json", "solution_fg", n)]),
            Command("solve_fg", "fg_direct", fg + ["direct"],
                    [check_solve("solve_fg.json", "solution_fg", n)]),
        ]
    if name == "onb-finite-section":
        n = SIZES[size]["onb_n"]
        fs = ["solve", "fs", *OPERATOR, "--n", str(n), "--method"]
        return [
            Command("solve_fs", f"fs_{method}", fs + [method],
                    [check_solve("solve_fs.json", "solution_fs", n)])
            for method in ("direct", "cg")
        ]
    if name == "frame-diagnostics":
        cmds = [
            Command("frame_diag", f"diag_{frame}",
                    ["frame", "diag", "--frame", str(inputs[frame])], localization=True)
            for frame in ("gabor", "perturbed")
        ]
        cmds += [
            Command("galerkin_certify", f"certify_{case}",
                    ["galerkin", "certify", "--matrix", str(inputs["galerkin"]),
                     "--case", case, "--w1-power", "1", "--w2-power", "1"],
                    [check_sound(case)])
            for case in CERT_CASES
        ]
        return cmds
    raise KeyError(name)


def parameters(name, size):
    """Workload parameters for the environment record."""
    probe = {"gabor": Path("<gabor>"), "perturbed": Path("<perturbed>"),
             "galerkin": Path("<galerkin>")}
    return {"size": size, **SIZES[size], "theta": THETA, "tol": TOL,
            "commands": [" ".join(c.argv) for c in commands(name, probe, size)]}
