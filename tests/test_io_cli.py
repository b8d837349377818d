"""Container round-trips, CLI subcommands, exit codes, determinism."""

import contextlib
import io as io_module
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locframes
from conftest import riesz_sequence
from locframes import (
    Frame,
    IndexSet,
    canonical_dual,
    galerkin_columns,
    galerkin_matrix,
    gaussian_window,
    io,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_test_operator,
    make_translates_frame,
)
from locframes import cli
from locframes.cli import main
from locframes.frames import gabor_system
from locframes.galerkin import LinearOperator
from locframes.weights import SeqSpaceSpec, Weight


class TestContainers:
    def test_frame_roundtrip_bit_exact(self, tmp_path):
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        base = tmp_path / "frame"
        io.save_frame(base, frame)
        loaded = io.load_frame(base)
        assert np.array_equal(loaded.vectors, frame.vectors)
        assert loaded.index_set.to_dict() == frame.index_set.to_dict()
        assert loaded.name == frame.name
        # a torus grid is written as its shape, metric, moduli and scales
        sidecar = json.loads(base.with_suffix(".json").read_text())
        assert sorted(sidecar["index_set"]) == ["grid", "metric", "moduli", "scales"]
        assert sidecar["index_set"]["grid"] == [4, 8]

    @pytest.mark.parametrize("grid, code", [([4, 8], 0), ([8, 8], 2), ([1 << 20, 1 << 20], 2)])
    def test_vectors_container_reads_a_grid_of_its_size(self, tmp_path, grid, code):
        # a dense frame on the torus grid: K = 32 vectors, the grid's points are its indices
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        io.save_array(tmp_path / "frame", frame.vectors, {
            "container": "frame", "name": "f", "index_set": {**frame.index_set.to_dict(),
                                                             "grid": grid}})
        assert run_cli("frame", "diag", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "diag") == code
        if code:
            assert TestCLIContract.error(tmp_path / "diag") == "input-file"

    def test_sidecar_with_labels_loads(self, tmp_path):
        # containers of earlier versions list one label per index; it is not read
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        io.save_frame(tmp_path / "frame", frame)
        path = tmp_path / "frame.json"
        sidecar = json.loads(path.read_text())
        sidecar["index_set"]["labels"] = [
            f"{i},{j}" for i, j in np.asarray(frame.index_set.positions, dtype=int)]
        path.write_text(json.dumps(sidecar))
        loaded = io.load_frame(tmp_path / "frame")
        old, new = frame.index_set, loaded.index_set
        assert new.to_dict() == old.to_dict()
        assert np.array_equal(new.distance_matrix(), old.distance_matrix())
        assert np.array_equal(loaded.vectors, frame.vectors)
        assert (loaded.name, loaded.meta, loaded.lattice) == (frame.name, frame.meta,
                                                              frame.lattice)

    def test_galerkin_matrix_roundtrip(self, tmp_path):
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        gm = galerkin_matrix(LinearOperator.identity(16), frame, frame)
        io.save_galerkin_matrix(tmp_path / "m", gm, extra={"operator": "identity"})
        # a pair on one lattice with a symbol operator is stored as its generators
        generators, sidecar = io.load_array(tmp_path / "m")
        assert np.array_equal(generators, np.stack([frame.window, frame.window,
                                                    gm.generator.held]))
        assert sorted(sidecar) == ["ambient_dim", "container", "generators", "lattice",
                                   "left_frame", "left_index_set", "operator", "right_frame",
                                   "right_index_set", "shape", "side"]
        assert (sidecar["left_frame"], sidecar["ambient_dim"]) == (frame.name, 16)
        assert (sidecar["lattice"], sidecar["side"]) == ([4, 2], "fourier")
        loaded = io.load_galerkin(tmp_path / "m")
        assert loaded.left_frame.index_set.to_dict() == frame.index_set.to_dict()
        assert np.array_equal(loaded.entries, gm.entries)

    @pytest.mark.parametrize("name", ["1-D", "C", "F", "strided", "empty",
                                      "empty columns", "row", "3-D", "chunked"])
    def test_array_bytes_equal_np_save_of_fortran_copy(self, tmp_path, monkeypatch, name):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        arr = {
            "1-D": rng.standard_normal(7),
            "C": c,
            "F": np.asfortranarray(c),
            "strided": rng.standard_normal((10, 12))[::2, 1::3],
            "empty": np.zeros((0, 3)),
            "empty columns": np.zeros((3, 0), dtype=complex),
            "row": np.ones((1, 5)),
            "3-D": rng.standard_normal((2, 3, 4)),
            "chunked": c,
        }[name]
        if name == "chunked":
            # a chunk smaller than one column: one column per write
            monkeypatch.setattr(io, "WRITE_CHUNK_BYTES", 8)
        io.save_array(tmp_path / "a", arr, {})
        reference = tmp_path / "ref.npy"
        np.save(reference, np.asfortranarray(arr))
        assert (tmp_path / "a.npy").read_bytes() == reference.read_bytes()
        assert np.array_equal(io.load_array(tmp_path / "a")[0], arr)

    def test_json_deterministic_key_order(self, tmp_path):
        p1 = io.save_json({"b": 1.5, "a": [1, 2]}, tmp_path / "x.json")
        p2 = io.save_json({"a": [1, 2], "b": 1.5}, tmp_path / "y.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_full_precision(self, tmp_path):
        value = 1.0 / 3.0
        path = io.save_csv(tmp_path / "t.csv", ["x"], [(value,)])
        text = path.read_text().splitlines()[1]
        assert float(text) == value

    def test_reports_serialize_to_json(self, tmp_path):
        from locframes import (
            IndexSet,
            MatrixAlgebraSpec,
            coorbit_inclusion,
            localization_report,
            make_perturbed_onb,
            seq_space_included,
        )

        frame = make_perturbed_onb(16, 3, 2)
        rep = localization_report(frame, frame, MatrixAlgebraSpec("jaffard", 3.0))
        io.save_json(rep.to_dict(), tmp_path / "loc.json")
        w = Weight.ones(16)
        seq = seq_space_included(SeqSpaceSpec(np.inf, w), SeqSpaceSpec(1, w))
        io.save_json(seq.to_dict(), tmp_path / "seq.json")
        coo = coorbit_inclusion(frame, SeqSpaceSpec(np.inf, w), SeqSpaceSpec(1, w))
        io.save_json(coo.to_dict(), tmp_path / "coo.json")
        for name in ("loc", "seq", "coo"):
            assert json.loads((tmp_path / f"{name}.json").read_text())


def run_cli(*args):
    return main([str(a) for a in args])


class TestCLI:
    def test_frame_build_onb(self, tmp_path):
        assert run_cli("frame", "build", "--kind", "onb", "--n", "8",
                       "--out-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "frame_summary.json").read_text())
        assert summary["A"] == pytest.approx(1.0)
        assert summary["B"] == pytest.approx(1.0)

    def test_frame_build_gabor_summary(self, tmp_path):
        assert run_cli("frame", "build", "--kind", "gabor", "--n", "16",
                       "--a", "4", "--b", "2", "--out-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "frame_summary.json").read_text())
        assert summary["K"] == 32
        assert 0 < summary["A"] <= summary["B"]

    def test_frame_build_failure_exit_code(self, tmp_path):
        code = run_cli("frame", "build", "--kind", "gabor", "--n", "16",
                       "--a", "8", "--b", "4", "--out-dir", tmp_path)
        assert code == 2
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["code"] == "not-a-frame"

    def test_frame_diag_onb(self, tmp_path):
        run_cli("frame", "build", "--kind", "onb", "--n", "16",
                "--out-dir", tmp_path)
        assert run_cli("frame", "diag", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "diag") == 0
        diag = json.loads((tmp_path / "diag" / "localization.json").read_text())
        assert diag["member"]
        assert diag["primal"]["cross_gram_norm"] == pytest.approx(1.0)
        eq = json.loads((tmp_path / "diag" / "equivalence.json").read_text())
        flat = [g for g in eq["grid"] if g["weight_power"] == 0.0]
        assert all(g["lower"] == pytest.approx(1.0) for g in flat)
        assert (tmp_path / "diag" / "shells.csv").exists()

    def test_frame_diag_perturbed_onb_member(self, tmp_path):
        run_cli("frame", "build", "--kind", "perturbed-onb", "--n", "64",
                "--seed", "7", "--out-dir", tmp_path)
        run_cli("frame", "diag", "--frame", tmp_path / "frame", "--s", "3",
                "--out-dir", tmp_path / "diag")
        diag = json.loads((tmp_path / "diag" / "localization.json").read_text())
        assert diag["member"]
        assert diag["dual"]["decay_fit"]["fitted_exponent"] >= 2.5

    def test_frame_diag_nonmember_reported_not_failed(self, tmp_path):
        # slowly decaying perturbation: a frame, but not localized at s = 5
        run_cli("frame", "build", "--kind", "perturbed-onb", "--n", "64",
                "--decay-s", "1.5", "--seed", "7", "--out-dir", tmp_path)
        code = run_cli("frame", "diag", "--frame", tmp_path / "frame",
                       "--s", "5.0", "--out-dir", tmp_path / "diag")
        assert code == 0
        diag = json.loads((tmp_path / "diag" / "localization.json").read_text())
        assert not diag.get("member", False)
        assert diag["primal" if "primal" in diag else "report"] is not None

    def test_galerkin_assemble_and_certify(self, tmp_path):
        run_cli("frame", "build", "--kind", "gabor", "--n", "16", "--a", "4",
                "--b", "2", "--out-dir", tmp_path)
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--right", "dual", "--out-dir", tmp_path / "gal") == 0
        rep = json.loads((tmp_path / "gal" / "galerkin_report.json").read_text())
        assert rep["roundtrip_residual"] <= 1e-10
        # identity against the dual pair: the matrix is the cross-Gram,
        # idempotent up to roundoff
        entries = io.load_galerkin(tmp_path / "gal" / "galerkin").entries
        assert np.linalg.norm(entries @ entries - entries, 2) <= 1e-10
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", "inf_inf", "--out-dir", tmp_path / "cert") == 0
        cert = json.loads(
            (tmp_path / "cert" / "certificate_inf_inf.json").read_text()
        )
        assert cert["sound"] and cert["tight"]
        assert cert["witness_lower_bound"] <= cert["certified_bound"] * (1 + 1e-8)
        assert cert["certified_bound"] <= cert["witness_lower_bound"] * (1 + 1e-8)

    @pytest.mark.parametrize("case", ["inf_inf", "inf_zero", "one_inf", "one_p",
                                      "inf_one", "two_two"])
    def test_certificate_details_hold_only_certified_values(self, tmp_path, case):
        run_cli("frame", "build", "--kind", "gabor", "--n", "16", "--a", "4",
                "--b", "2", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", case, "--out-dir", tmp_path / "cert") == 0
        cert = json.loads((tmp_path / "cert" / f"certificate_{case}.json").read_text())
        assert set(cert) == {"case", "certified_bound", "details",
                             "witness_lower_bound", "sound", "tight"}
        assert set(cert["details"]) == {
            "one_p": {"p"}, "two_two": {"rule", "rounding"},
        }.get(case, set())

    def test_galerkin_assemble_reports_singular_operator(self, tmp_path):
        run_cli("frame", "build", "--kind", "onb", "--n", "8",
                "--out-dir", tmp_path)
        code = run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--right", "self", "--op-kind", "diagonal",
                       "--spectrum", "1,1,1,1,1,1,1,0",
                       "--out-dir", tmp_path / "gal")
        assert code == 0
        rep = json.loads((tmp_path / "gal" / "galerkin_report.json").read_text())
        assert rep["kappa"]["code"] == "bijectivity"

    def test_galerkin_assemble_reports_zero_operator(self, tmp_path):
        run_cli("frame", "build", "--kind", "gabor", "--n", "16", "--a", "4",
                "--b", "2", "--out-dir", tmp_path)
        code = run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--op-kind", "diagonal", "--spectrum", ",".join(["0"] * 16),
                       "--out-dir", tmp_path / "gal")
        assert code == 0
        rep = json.loads((tmp_path / "gal" / "galerkin_report.json").read_text())
        assert rep["kappa"]["code"] == "bijectivity"
        assert rep["roundtrip_residual"] == rep["composition_residual"] == 0.0

    def test_solve_fs_converges(self, tmp_path):
        assert run_cli("solve", "fs", "--op-kind", "identity_minus_kernel",
                       "--theta", "0.5", "--n", "64", "--method", "cg",
                       "--out-dir", tmp_path) == 0
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert rep["converged"]
        assert rep["contraction_norm"] == pytest.approx(0.5, abs=1e-12)
        # the operator is symmetric, so every level core is Hermitian
        assert [lv["decomposition"] for lv in rep["levels"]] == ["eigh"] * len(rep["levels"])
        lines = (tmp_path / "solve_fs_levels.csv").read_text().splitlines()
        assert lines[0] == "N,residual,error,inverse_norm,iterations"
        assert len(lines) == len(rep["levels"]) + 1

    def test_solve_fs_divergent_exit_three(self, tmp_path):
        code = run_cli("solve", "fs", "--op-kind", "identity_minus_kernel",
                       "--theta", "1.2", "--n", "32", "--method", "richardson",
                       "--out-dir", tmp_path)
        assert code == 3
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert not rep["converged"]

    @pytest.mark.parametrize("method", ["direct", "cg", "richardson"])
    def test_solve_fs_singular_operator_reports_no_error(self, tmp_path, method):
        # A 1 = 0 at theta = 1: sigma_min ~ 1e-16, yet a dense solve does
        # not raise, and its solution of norm ~ 1e16 is no reference
        with pytest.warns(UserWarning, match="singular"):
            code = run_cli("solve", "fs", "--op-kind", "identity_minus_kernel",
                           "--theta", "1", "--n", "16", "--method", method,
                           "--out-dir", tmp_path)
        assert code == 3
        assert json.loads((tmp_path / "error.json").read_text())["code"] == "diverged"
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert [lv["error"] for lv in rep["levels"]] == [None, None]
        assert rep["levels"][-1]["singular"]

    # every centered section of this diagonal is invertible and indefinite
    INDEFINITE = "1,-2,0.5,3,-0.25,4,-1.5,2,1,-3,0.75,2.5,-0.5,1.25,-4,0.125"

    @pytest.mark.parametrize("method", ["direct", "richardson"])
    def test_solve_fs_divergence_is_not_singularity(self, tmp_path, method):
        # the sections have inverse norms 4 and 8: the relaxation
        # 2 / (sigma_max + sigma_min) cannot contract on them, so Richardson
        # diverges on both levels where direct solves them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = run_cli("solve", "fs", "--n", "16", "--op-kind", "diagonal",
                           f"--spectrum={self.INDEFINITE}", "--method", method,
                           "--out-dir", tmp_path)
        diverged = method == "richardson"
        assert code == (3 if diverged else 0)
        levels = json.loads((tmp_path / "solve_fs.json").read_text())["levels"]
        assert [(lv["singular"], lv["diverged"]) for lv in levels] == [(False, diverged)] * 2
        assert [lv["inverse_norm"] for lv in levels] == [4.0, 8.0]
        assert (tmp_path / "solution_fs.npy").exists() is not diverged

    @pytest.mark.parametrize("frame", [None, ("onb", "--n", "16"),
                                       ("gabor", "--n", "16", "--a", "2", "--b", "2")],
                             ids=["fs", "fg-onb", "fg-gabor"])
    def test_indefinite_core_converges_under_cg(self, tmp_path, frame):
        # CG meets negative curvature on the indefinite cores and restarts
        # on the normal equations
        if frame is None:
            solve = ("fs", "--n", "16")
        else:
            assert run_cli("frame", "build", "--kind", *frame, "--out-dir", tmp_path) == 0
            solve = ("fg", "--frame", tmp_path / "frame")
        assert run_cli("solve", *solve, "--op-kind", "diagonal",
                       f"--spectrum={self.INDEFINITE}", "--method", "cg",
                       "--out-dir", tmp_path / "out") == 0
        rep = json.loads(next((tmp_path / "out").glob("solve_f?.json")).read_text())
        assert rep["converged"]
        assert [lv["singular"] for lv in rep["levels"]] == [False] * len(rep["levels"])
        # every level's core is indefinite, so every level ran on C* C
        assert [lv["normal_equations"] for lv in rep["levels"]] == [True] * len(rep["levels"])
        if frame is not None:
            assert "indefinite" in rep["message"]
        if frame is not None and frame[0] == "gabor":
            # the redundant frame adds a second note; a bare space ran the two
            # together as "... on the analysis range non-Hermitian or ..."
            assert rep["message"].split(". ") == [
                "system matrix singular by redundancy; solved on the analysis range",
                "non-Hermitian or indefinite core; CG ran on the normal equations"]

    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_definite_levels_do_not_take_normal_equations(self, tmp_path, method):
        # the benchmark's operator I - 0.5 T is Hermitian positive definite
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4", "--b", "4",
                "--out-dir", tmp_path)
        for solve in (("fs", "--n", "64"), ("fg", "--frame", tmp_path / "frame")):
            assert run_cli("solve", *solve, "--op-kind", "identity_minus_kernel",
                           "--theta", "0.5", "--method", method,
                           "--out-dir", tmp_path / solve[0]) == 0
            rep = json.loads((tmp_path / solve[0] / f"solve_{solve[0]}.json").read_text())
            assert [lv["normal_equations"] for lv in rep["levels"]] == [False] * len(rep["levels"])

    def test_step_in_config_is_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "translates", "n": 16, "step": 2}))
        assert run_cli("frame", "build", "--config", cfg, "--out-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "frame_summary.json").read_text())
        assert (summary["K"], summary["name"]) == (16, "translates16s1")

    def test_solve_fg_identity(self, tmp_path):
        run_cli("frame", "build", "--kind", "onb", "--n", "16",
                "--out-dir", tmp_path)
        assert run_cli("solve", "fg", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "fg") == 0
        rep = json.loads((tmp_path / "fg" / "solve_fg.json").read_text())
        assert rep["converged"]
        assert rep["levels"][0]["iterations"] == 1
        assert rep["levels"][0]["decomposition"] == "eigh"

    SOLVE_KEYS = {"contraction_norm", "contraction_sufficient", "converged", "levels",
                  "message", "method", "stabilized_at", "sup_inverse_norm",
                  "uniformity_flag"}
    LEVEL_KEYS = {"N", "decomposition", "diverged", "error", "inverse_norm",
                  "iterations", "kappa_dagger", "normal_equations", "residual", "singular"}

    def test_solve_fs_greedy_schedule(self, tmp_path):
        assert run_cli("solve", "fs", "--n", "64", "--schedule", "greedy",
                       "--op-kind", "identity_minus_kernel", "--theta", "0.5",
                       "--out-dir", tmp_path) == 0
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert set(rep) == self.SOLVE_KEYS and rep["converged"]
        assert [set(lv) for lv in rep["levels"]] == [self.LEVEL_KEYS] * 4
        assert [lv["N"] for lv in rep["levels"]] == [8, 16, 32, 64]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "solution_fs.json", "solution_fs.npy", "solve_fs.json", "solve_fs_levels.csv"]

    def test_solve_fs_bump_rhs(self, tmp_path):
        n, theta = 64, 0.5
        assert run_cli("solve", "fs", "--n", n, "--rhs", "bump",
                       "--op-kind", "identity_minus_kernel", "--theta", theta,
                       "--out-dir", tmp_path) == 0
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert set(rep) == self.SOLVE_KEYS and rep["converged"]
        # oracle: I - theta T with T the row-normalized (1 + ring distance)^-3
        # kernel, and a Gaussian bump of variance 0.01 n^2 / pi at n // 2
        i = np.arange(n)
        d = np.minimum(np.abs(i[:, None] - i), n - np.abs(i[:, None] - i))
        t = (1.0 + d) ** -3.0
        a = np.eye(n) - theta * t / t.sum(axis=1, keepdims=True)
        y = np.exp(-np.pi * (i - n // 2) ** 2 / (0.02 * n * n))
        x = np.load(tmp_path / "solution_fs.npy")
        residual = np.linalg.norm(a @ x - y)
        assert residual <= 1e-8 * np.linalg.norm(y)
        assert rep["levels"][-1]["residual"] == pytest.approx(residual, rel=1e-6, abs=1e-14)

    def test_galerkin_assemble_right_frame_path(self, tmp_path):
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                "--b", "4", "--out-dir", tmp_path / "gabor")
        run_cli("frame", "build", "--kind", "perturbed-onb", "--n", "32",
                "--out-dir", tmp_path / "ponb")
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "gabor" / "frame",
                       "--right", tmp_path / "ponb" / "frame",
                       "--out-dir", tmp_path / "gal") == 0
        report = json.loads((tmp_path / "gal" / "galerkin_report.json").read_text())
        assert set(report) == {"composition_residual", "kappa", "roundtrip_residual"}
        assert set(report["kappa"]) == {"lhs", "ratio", "rhs", "submultiplicative"}
        entries, _ = io.load_array(tmp_path / "gal" / "galerkin")
        gabor = io.load_frame(tmp_path / "gabor" / "frame")
        ponb = io.load_frame(tmp_path / "ponb" / "frame")
        expected = galerkin_matrix(LinearOperator.identity(32), gabor, ponb).entries
        assert entries.shape == (64, 32) and np.array_equal(entries, expected)

    def test_solve_fg_richardson_diverged_exit_three(self, tmp_path):
        # invertible and indefinite: 2 / (sigma_max + sigma_min) cannot contract
        run_cli("frame", "build", "--kind", "onb", "--n", "16", "--out-dir", tmp_path)
        spectrum = ",".join(str(v) for v in (-1.0) ** np.arange(16) + 0.5)
        with pytest.warns(UserWarning, match="diverge"):
            code = run_cli("solve", "fg", "--frame", tmp_path / "frame",
                           "--op-kind", "diagonal", f"--spectrum={spectrum}",
                           "--method", "richardson", "--out-dir", tmp_path / "fg")
        assert code == 3
        assert json.loads((tmp_path / "fg" / "error.json").read_text())["code"] == "diverged"
        rep = json.loads((tmp_path / "fg" / "solve_fg.json").read_text())
        assert set(rep) == self.SOLVE_KEYS and not rep["converged"]
        assert rep["levels"][0]["diverged"] and not rep["levels"][0]["singular"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "onb", "n": 4}))
        assert run_cli("frame", "build", "--config", cfg, "--n", "8",
                       "--out-dir", tmp_path) == 0
        summary = json.loads((tmp_path / "frame_summary.json").read_text())
        assert summary["n"] == 8

    def test_config_seed_is_read(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "perturbed-onb", "n": 8, "seed": 5}))
        assert run_cli("frame", "build", "--config", cfg,
                       "--out-dir", tmp_path / "cfg") == 0
        assert run_cli("frame", "build", "--kind", "perturbed-onb", "--n", "8",
                       "--seed", "5", "--out-dir", tmp_path / "flags") == 0
        for name in ("frame.npy", "frame.json"):
            assert ((tmp_path / "cfg" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes()), name

    def test_config_out_dir_is_read_and_flag_overrides_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "onb", "n": 4, "out_dir": "from_cfg"}))
        assert run_cli("frame", "build", "--config", cfg) == 0
        assert (tmp_path / "from_cfg" / "frame_summary.json").exists()
        assert run_cli("frame", "build", "--config", cfg, "--out-dir", "flag") == 0
        assert (tmp_path / "flag" / "frame_summary.json").exists()
        assert not (tmp_path / "out").exists()
        # neither given: the default out, which also takes the error of a
        # config out_dir that is no path
        assert run_cli("frame", "build", "--kind", "onb", "--n", "4") == 0
        assert (tmp_path / "out" / "frame_summary.json").exists()
        cfg.write_text(json.dumps({"kind": "onb", "n": 4, "out_dir": 5}))
        assert run_cli("frame", "build", "--config", cfg) == 2
        assert TestCLIContract.error(tmp_path / "out") == "config"

    def test_determinism_byte_identical(self, tmp_path):
        argsets = [
            ("frame", "build", "--kind", "perturbed-onb", "--n", "32",
             "--seed", "11"),
            ("solve", "fs", "--op-kind", "identity_minus_kernel", "--theta",
             "0.5", "--n", "32", "--method", "cg", "--seed", "11"),
        ]
        for i, args in enumerate(argsets):
            d1, d2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert run_cli(*args, "--out-dir", d1) == 0
            assert run_cli(*args, "--out-dir", d2) == 0
            files1 = sorted(p.name for p in d1.iterdir())
            files2 = sorted(p.name for p in d2.iterdir())
            assert files1 == files2
            for name in files1:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


    @pytest.mark.parametrize("p, powers", [("600", "0"), ("2000", "0"), ("400", "1")])
    def test_one_p_certificate_at_large_p(self, tmp_path, p, powers):
        # redundancy 4, entries at most 1/4: at the parent |m|^p underflowed
        # (bound 0.0, sound false) or overflowed with a RuntimeWarning
        # (bound Infinity at powers 1)
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                "--b", "2", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                           "--case", "one_p", "--p", p, "--w1-power", powers,
                           "--w2-power", powers, "--out-dir", tmp_path / "cert") == 0
        cert = json.loads((tmp_path / "cert" / "certificate_one_p.json").read_text())
        assert cert["sound"]
        assert 0 < cert["certified_bound"] < math.inf


    @pytest.mark.parametrize("case", ["inf_inf", "inf_zero", "one_inf", "one_p",
                                      "inf_one", "two_two"])
    @pytest.mark.parametrize("flag", ["--w1-power", "--w2-power"])
    def test_witness_at_largest_weight_power(self, tmp_path, flag, case):
        # K = 32: (1 + k)^t reaches 32^t, finite up to t = 204; at the parent
        # two_two's squares overflowed there (bound NaN) and the probes'
        # x = c / w_in norms overflowed (one_p measured Infinity)
        run_cli("frame", "build", "--kind", "gabor", "--n", "16", "--a", "4",
                "--b", "2", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        largest = math.floor(math.log(np.finfo(float).max) / math.log(32))
        certify = ("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                   "--case", case, "--out-dir", tmp_path / "cert", flag)
        assert largest == 204 and run_cli(*certify, largest + 1) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*certify, largest) == 0
        cert = json.loads((tmp_path / "cert" / f"certificate_{case}.json").read_text())
        assert 0 < cert["witness_lower_bound"] < math.inf
        assert cert["certified_bound"] < math.inf and cert["sound"]
        assert cert["tight"] is (None if case in ("inf_one", "two_two") else True)


class TestCLIContract:
    """Bad input exits 2 with error.json, never with a traceback."""

    @staticmethod
    def error(out):
        return json.loads((out / "error.json").read_text())["code"]

    @pytest.mark.parametrize("argv", [
        ("solve", "fg", "--frame", "missing/frame"),
        ("galerkin", "certify", "--matrix", "missing/galerkin"),
    ])
    def test_missing_input_file(self, tmp_path, argv):
        assert run_cli(*argv, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "input-file"

    def test_assemble_on_a_non_frame_leaves_only_error_json(self, tmp_path):
        # 16 vectors in C^64 span a subspace: the round trip rejects them
        # before the container is written
        io.save_frame(tmp_path / "frame", riesz_sequence())
        out = tmp_path / "gal"
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--right", "self", "--out-dir", out) == 2
        assert self.error(out) == "not-a-frame"
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_the_shared_parser_keeps_no_settings(self, tmp_path, monkeypatch):
        assert cli.make_parser() is cli.make_parser()
        settings = []
        monkeypatch.setitem(cli.COMMANDS, ("solve", "fs"),
                            lambda cfg, out, seed: settings.append(dict(cfg)) or 0)
        assert run_cli("solve", "fs", "--n", "16", "--method", "cg", "--seed", "3",
                       "--out-dir", tmp_path / "first") == 0
        assert run_cli("solve", "fs", "--out-dir", tmp_path / "second") == 0
        assert settings == [
            {"n": 16, "method": "cg", "seed": "3", "out_dir": str(tmp_path / "first")},
            {"seed": 0, "out_dir": str(tmp_path / "second")},
        ]

    def test_galerkin_container_passed_as_frame(self, tmp_path):
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        assert run_cli("frame", "diag", "--frame", tmp_path / "gal" / "galerkin",
                       "--out-dir", tmp_path / "diag") == 2
        assert self.error(tmp_path / "diag") == "input-file"

    @staticmethod
    def drop_index_set(frame):
        sidecar = json.loads(frame.with_suffix(".json").read_text())
        del sidecar["index_set"]
        frame.with_suffix(".json").write_text(json.dumps(sidecar))

    @staticmethod
    def break_json(frame):
        frame.with_suffix(".json").write_text('{"container": "frame",')

    @staticmethod
    def truncate_npy(frame):
        npy = frame.with_suffix(".npy")
        npy.write_bytes(npy.read_bytes()[:60])

    @staticmethod
    def list_sidecar(frame):
        frame.with_suffix(".json").write_text("[1, 2]")

    @staticmethod
    def number_name(frame):
        sidecar = json.loads(frame.with_suffix(".json").read_text())
        sidecar["name"] = 5
        frame.with_suffix(".json").write_text(json.dumps(sidecar))

    @pytest.mark.parametrize("damage", ["drop_index_set", "break_json", "truncate_npy",
                                        "list_sidecar", "number_name"])
    def test_malformed_frame_container(self, tmp_path, damage):
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        getattr(self, damage)(tmp_path / "frame")
        assert run_cli("frame", "diag", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "diag") == 2
        assert self.error(tmp_path / "diag") == "input-file"

    @staticmethod
    def poison(base, value=np.nan):
        """Write ``value`` into the first entry of a container's array."""
        npy = base.with_suffix(".npy")
        arr = np.load(npy)
        arr.flat[0] = value
        np.save(npy, arr)

    @pytest.mark.parametrize("argv", [("frame", "diag"), ("galerkin", "assemble"),
                                      ("solve", "fg")], ids="-".join)
    def test_non_finite_frame_container(self, tmp_path, argv):
        # at the parent: LinAlgError tracebacks (eigenvalues or SVD did not
        # converge), exit 1
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        self.poison(tmp_path / "frame")
        assert run_cli(*argv, "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "out") == 2
        assert self.error(tmp_path / "out") == "input-file"

    @pytest.mark.parametrize("case, value", [("inf_inf", np.nan), ("two_two", np.nan),
                                             ("inf_inf", np.inf)])
    def test_non_finite_galerkin_container(self, tmp_path, case, value):
        # at the parent inf_inf exited 0 with certified_bound NaN, and
        # two_two ended in a traceback
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        self.poison(tmp_path / "gal" / "galerkin", value)
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", case, "--out-dir", tmp_path / "cert") == 2
        assert self.error(tmp_path / "cert") == "input-file"
        assert not (tmp_path / "cert" / f"certificate_{case}.json").exists()

    @pytest.mark.parametrize("flag", ["--w1-power", "--w2-power"])
    @pytest.mark.parametrize("power", ["400", "-400"])
    def test_certify_weight_out_of_range(self, tmp_path, flag, power):
        # at the parent a power of 400 exited 0: --w1-power with sound true
        # and bound 0.253 against a measured 0.0, --w2-power with an
        # infinite certified bound
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        # the weight is rejected before numpy warns of an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                           "--case", "inf_inf", flag, power,
                           "--out-dir", tmp_path / "cert") == 2
        assert self.error(tmp_path / "cert") == "invalid-input"
        assert not (tmp_path / "cert" / "certificate_inf_inf.json").exists()

    @pytest.mark.parametrize("case", ["inf_inf", "inf_zero", "one_inf", "one_p",
                                      "inf_one", "two_two"])
    @pytest.mark.parametrize("lattice, weight", [
        (("16", "4", "2"), ("--w1-power", "-210")),
        (("16", "4", "2"), ("--w2-power", "204.79")),
        (("32", "4", "4"), ("--w1-power", "-175")),
    ], ids=["subnormal-w1", "near-overflow-w2", "subnormal-w1-k64"])
    def test_certify_weights_leaving_float64(self, tmp_path, lattice, weight, case):
        # at the parent each of these exited 0: the subnormal weights, whose
        # reciprocals overflow, with NaN bounds, and the w2 weights near the
        # float64 limit with an infinite inf_inf, inf_zero or inf_one bound
        n, a, b = lattice
        run_cli("frame", "build", "--kind", "gabor", "--n", n, "--a", a, "--b", b,
                "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                           "--case", case, *weight, "--out-dir", tmp_path / "cert")
        certificate = tmp_path / "cert" / f"certificate_{case}.json"
        if weight[1] == "204.79" and case in ("one_inf", "one_p", "two_two"):
            assert code == 0
            cert = json.loads(certificate.read_text())
            assert cert["sound"] and 0 < cert["certified_bound"] < math.inf
        else:
            assert code == 2 and self.error(tmp_path / "cert") == "invalid-input"
            assert not certificate.exists()

    @pytest.mark.parametrize("kind", [("--kind", "perturbed-onb", "--n", "48"),
                                      ("--kind", "gabor", "--n", "32", "--a", "4",
                                       "--b", "4")], ids=["dense", "lattice"])
    @pytest.mark.parametrize("setting", [("--weight-powers", "0,1e308"),
                                         ("--s", "1000")], ids=["weight", "envelope"])
    def test_frame_diag_overflow(self, tmp_path, kind, setting):
        # at the parent: NaN bounds, and NaN or Infinity norms; (1 + d)^1000
        # overflows for every d >= 2, so on both of these small index sets
        run_cli("frame", "build", *kind, "--out-dir", tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("frame", "diag", "--frame", tmp_path / "frame", *setting,
                           "--out-dir", tmp_path / "diag") == 2
        assert self.error(tmp_path / "diag") == "invalid-input"
        assert not (tmp_path / "diag" / "localization.json").exists()

    def test_gabor_build_without_lattice_steps(self, tmp_path):
        assert run_cli("frame", "build", "--kind", "gabor", "--n", "16",
                       "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "config"

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1"),
                                             ("--theta", "inf")])
    def test_non_finite_numeric_setting(self, tmp_path, flag, value):
        assert run_cli("solve", "fs", "--op-kind", "identity_minus_kernel",
                       "--n", "16", flag, value, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "config"
        assert not (tmp_path / "solve_fs.json").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("frame", "build", "--config", tmp_path / "nope.json",
                       "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "input-file"

    def test_non_integer_config_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "onb", "n": 4, "seed": "five"}))
        assert run_cli("frame", "build", "--config", cfg, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "config"

    def test_invalid_json_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "onb", "n": ')
        assert run_cli("frame", "build", "--config", cfg, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "config"

    @pytest.mark.parametrize("argv", [
        ("--kind", "gabor", "--n", "16", "--a", "0", "--b", "4"),
        ("--kind", "gabor", "--n", "16", "--a", "4", "--b", "0"),
        ("--kind", "onb", "--n", "0"),
        ("--kind", "gabor", "--n", "16", "--a", "4", "--b", "2", "--width", "0"),
    ])
    def test_frame_build_non_positive_size(self, tmp_path, argv):
        assert run_cli("frame", "build", *argv, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "invalid-input"

    @pytest.mark.parametrize("flag, value", [("--p-grid", "abc"),
                                             ("--weight-powers", "x"),
                                             ("--s", "nan"),
                                             ("--threshold", "inf")])
    def test_frame_diag_bad_setting(self, tmp_path, flag, value):
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        assert run_cli("frame", "diag", "--frame", tmp_path / "frame", flag, value,
                       "--out-dir", tmp_path / "diag") == 2
        assert self.error(tmp_path / "diag") == "config"
        assert not (tmp_path / "diag" / "localization.json").exists()

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_frame_diag_non_positive_threshold(self, tmp_path, threshold):
        # no frame meets a cap <= 0; at the parent this exited 0 with a
        # not-localized report
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        assert run_cli("frame", "diag", "--frame", tmp_path / "frame",
                       "--threshold", threshold, "--out-dir", tmp_path / "diag") == 2
        assert self.error(tmp_path / "diag") == "invalid-input"
        assert not (tmp_path / "diag" / "localization.json").exists()

    @pytest.mark.parametrize("flag", ["--p", "--w1-power", "--w2-power"])
    def test_certify_non_finite_setting(self, tmp_path, flag):
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path / "gal")
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", "one_p", flag, "nan", "--out-dir", tmp_path / "cert") == 2
        assert self.error(tmp_path / "cert") == "config"

    @pytest.mark.parametrize("argv", [
        ("frame", "build", "--kind", "gabor", "--n", "16", "--a", "4", "--b", "2",
         "--width", "inf"),
        ("frame", "build", "--kind", "perturbed-onb", "--n", "16", "--decay-s", "nan"),
        ("solve", "fs", "--n", "16", "--op-kind", "identity_minus_kernel",
         "--exponent", "inf"),
    ])
    def test_non_finite_build_and_operator_setting(self, tmp_path, argv):
        assert run_cli(*argv, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "config"

    @pytest.mark.parametrize("setting", [{"n": "abc"}, {"n": [8]}, {"s": {}},
                                         {"p_grid": 5}, {"frame": 3}])
    def test_config_value_of_wrong_type(self, tmp_path, setting):
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "onb", "n": 4,
                                   "frame": str(tmp_path / "frame"), **setting}))
        command = ("frame", "build") if "n" in setting else ("frame", "diag")
        assert run_cli(*command, "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert self.error(tmp_path / "out") == "config"

    def test_solve_fs_zero_levels(self, tmp_path):
        assert run_cli("solve", "fs", "--n", "16", "--levels", "0",
                       "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "invalid-input"

    @staticmethod
    def run_capped(*args):
        """The CLI in its own process, with a time and a 2 GiB memory cap."""
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(io.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run(
            [sys.executable, "-m", "locframes", *map(str, args)],
            env=env, preexec_fn=cap_memory, capture_output=True, timeout=60,
        )

    def test_solve_fs_start_level_zero(self, tmp_path):
        # run apart, so a schedule that never terminates fails this test
        # instead of hanging the suite
        proc = self.run_capped("solve", "fs", "--n", "16", "--start-level", "0",
                               "--out-dir", tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert self.error(tmp_path) == "invalid-input"

    @pytest.mark.parametrize("n", [1e300, 2**32, 10**6])
    def test_oversized_n(self, tmp_path, n):
        # 1e300 is no array size; an n x n complex array at 2**32 has more
        # bytes than an array index reaches; an n x n identity at 10**6
        # needs 8 TB
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "onb", "n": n}))
        proc = self.run_capped("frame", "build", "--config", cfg, "--out-dir", tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert self.error(tmp_path) == "config"

    @pytest.mark.parametrize("argv", [
        ("solve", "fg", "--frame", "f", "--n", "8"),
        ("solve", "fg", "--frame", "f", "--levels", "2"),
        ("solve", "fs", "--frame", "f"),
        # an unknown flag, a stray argument and abbreviations: --meth of
        # --method, --a of frame diag's --algebra, --s of --seed
        ("solve", "fs", "--n", "16", "--bogus", "1"),
        ("solve", "fs", "--n", "16", "extra"),
        ("solve", "fs", "--n", "16", "--meth", "cg"),
        ("frame", "diag", "--frame", "f", "--a", "3"),
        ("frame", "build", "--kind", "onb", "--n", "8", "--s=1"),
        # a translates frame is always the n shifts: there is no step to set
        ("frame", "build", "--kind", "translates", "--n", "16", "--step", "1"),
    ])
    def test_flag_of_another_subcommand_rejected(self, tmp_path, argv):
        assert run_cli(*argv, "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "config"
        assert [p.name for p in tmp_path.iterdir()] == ["error.json"]

    def test_energy_greedy_is_no_schedule(self, tmp_path):
        assert run_cli("solve", "fs", "--n", "16", "--schedule", "energy_greedy",
                       "--out-dir", tmp_path) == 2
        assert self.error(tmp_path) == "invalid-input"
        assert [p.name for p in tmp_path.iterdir()] == ["error.json"]

    @staticmethod
    def choice_inputs(tmp_path):
        """A frame and a Galerkin matrix for the commands that read one."""
        run_cli("frame", "build", "--kind", "onb", "--n", "8", "--out-dir", tmp_path)
        run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                "--out-dir", tmp_path)
        return {"frame": str(tmp_path / "frame"), "matrix": str(tmp_path / "galerkin")}

    @pytest.mark.parametrize("command, key", [
        (("frame", "build"), "kind"), (("frame", "diag"), "algebra"),
        (("galerkin", "certify"), "case"), (("solve", "fs"), "method"),
        (("solve", "fg"), "method"), (("solve", "fs"), "schedule"),
        (("solve", "fs"), "rhs"), (("solve", "fg"), "rhs"),
    ])
    def test_unknown_choice_value(self, tmp_path, command, key):
        # a flag and the same value in --config take one path: invalid-input
        inputs = self.choice_inputs(tmp_path)
        needs = [k for k in ("frame", "matrix") if k in cli.FLAGS[command]]
        flags = [f"--{k}={inputs[k]}" for k in needs]
        assert run_cli(*command, *flags, f"--{key}", "foo",
                       "--out-dir", tmp_path / "flag") == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "foo", **{k: inputs[k] for k in needs}}))
        assert run_cli(*command, "--config", cfg, "--out-dir", tmp_path / "config") == 2
        for out in ("flag", "config"):
            assert self.error(tmp_path / out) == "invalid-input"
            assert "'foo'" in json.loads((tmp_path / out / "error.json").read_text())["message"]

    def test_success_removes_stale_error(self, tmp_path):
        assert run_cli("solve", "fs", "--n", "16", "--start-level", "0",
                       "--out-dir", tmp_path) == 2
        assert (tmp_path / "error.json").exists()
        # an --out-dir before the subcommand names the same directory
        assert run_cli("--out-dir", tmp_path, "solve", "fs", "--n", "16") == 0
        assert (tmp_path / "solve_fs.json").exists()
        assert not (tmp_path / "error.json").exists()

    @pytest.mark.parametrize("argv", [("solve", "fs", "--n", "16", "--theta", "-inf"),
                                      ("solve", "fs", "--n"), (), ("solve",)])
    def test_usage_error_writes_error_json(self, tmp_path, monkeypatch, argv):
        # argparse's own errors: a dash-leading value that is no plain
        # number and a flag without its value; and no subcommand at all.
        # --out-dir goes after the arguments, or before the subcommand
        for out in ("--out-dir", tmp_path / "sep"), (f"--out-dir={tmp_path / 'eq'}",):
            assert run_cli(*argv, *out) == 2
        assert run_cli("--out-dir", tmp_path / "pre", *argv) == 2
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eq", "out", "pre", "sep"]
        for out in ("sep", "eq", "pre", "out"):
            assert [p.name for p in (tmp_path / out).iterdir()] == ["error.json"]
            message = json.loads((tmp_path / out / "error.json").read_text())
            assert message["code"] == "config"
            expected = "expected one argument" if len(argv) > 2 else "missing subcommand"
            assert expected in message["message"]

    def test_empty_out_dir(self, tmp_path, monkeypatch, capsys):
        # --out-dir=, --out-dir "" and "out_dir": "" in --config name no
        # directory: nothing is written into the working directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": ""}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for out in (("--out-dir=",), ("--out-dir", ""), ("--config", cfg)):
            assert run_cli("solve", "fs", "--n", "16", *out) == 2
            assert json.loads(capsys.readouterr().err)["code"] == "config"
        assert list(work.iterdir()) == []

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        for out in (afile, afile / "sub"):
            assert run_cli("solve", "fs", "--n", "16", "--out-dir", out) == 2
            assert json.loads(capsys.readouterr().err)["code"] == "config"
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("spectrum, method, code", [
        ("0," * 15 + "0", "cg", "invalid-input"),
        ("0," * 15 + "0", "direct", "invalid-input"),
        ("0," + ",".join(["1"] * 15), "cg", "contract"),
    ])
    def test_solve_fg_rejections(self, tmp_path, spectrum, method, code):
        # a zero operator has no system to solve; a singular one under CG
        # cannot reach a random right side
        run_cli("frame", "build", "--kind", "onb", "--n", "16", "--out-dir", tmp_path)
        assert run_cli("solve", "fg", "--frame", tmp_path / "frame", "--op-kind",
                       "diagonal", f"--spectrum={spectrum}", "--method", method,
                       "--out-dir", tmp_path / "out") == 2
        assert self.error(tmp_path / "out") == code
        assert not (tmp_path / "out" / "solve_fg.json").exists()


class TestIntegerSettings:
    """Sizes and level counts are whole numbers; nothing is truncated."""

    @staticmethod
    def build(tmp_path, **setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "onb", **setting}))
        return run_cli("frame", "build", "--config", cfg, "--out-dir", tmp_path)

    @pytest.mark.parametrize("value", [8, "8", 8.0])
    def test_whole_numbers_read_as_integers(self, tmp_path, value):
        assert self.build(tmp_path, n=value) == 0
        assert json.loads((tmp_path / "frame_summary.json").read_text())["n"] == 8

    def test_fractional_number_rejected(self, tmp_path):
        assert self.build(tmp_path, n=8.7) == 2
        assert TestCLIContract.error(tmp_path) == "config"
        assert not (tmp_path / "frame.npy").exists()

    def test_fractional_string_rejected(self, tmp_path):
        assert run_cli("frame", "build", "--kind", "onb", "--n", "8.5",
                       "--out-dir", tmp_path) == 2
        assert TestCLIContract.error(tmp_path) == "config"

    def test_fractional_seed_rejected(self, tmp_path):
        assert self.build(tmp_path, n=8, seed=1.5) == 2
        assert TestCLIContract.error(tmp_path) == "config"

    def test_boolean_rejected(self, tmp_path):
        assert self.build(tmp_path, n=True) == 2
        assert TestCLIContract.error(tmp_path) == "config"

    @pytest.mark.parametrize("command, setting", [
        (("frame", "build"), {"kind": "gabor", "n": 16, "a": 4.5, "b": 2}),
        (("frame", "build"), {"kind": "gabor", "n": 16, "a": 4, "b": 2.5}),
        (("solve", "fs"), {"n": 16, "levels": 2.5}),
        (("solve", "fs"), {"n": 16, "start_level": 8.5}),
    ])
    def test_every_integer_setting_rejects_fractions(self, tmp_path, command, setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        assert run_cli(*command, "--config", cfg, "--out-dir", tmp_path) == 2
        assert TestCLIContract.error(tmp_path) == "config"


class TestRealDataPipeline:
    """Real frames and Galerkin matrices are stored and loaded as float64."""

    def test_translates_pipeline(self, tmp_path):
        op = ("--op-kind", "identity_minus_kernel", "--theta", "0.5")
        assert run_cli("frame", "build", "--kind", "translates", "--n", "32",
                       "--out-dir", tmp_path) == 0
        assert np.load(tmp_path / "frame.npy").dtype == np.float64
        assert io.load_frame(tmp_path / "frame").vectors.dtype == np.float64
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame", *op,
                       "--out-dir", tmp_path / "gal") == 0
        assert np.load(tmp_path / "gal" / "galerkin.npy").dtype == np.float64
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", "two_two", "--out-dir", tmp_path / "cert") == 0
        cert = json.loads((tmp_path / "cert" / "certificate_two_two.json").read_text())
        assert cert["sound"]
        assert run_cli("solve", "fg", "--frame", tmp_path / "frame", "--method", "cg",
                       *op, "--out-dir", tmp_path / "fg") == 0
        assert json.loads((tmp_path / "fg" / "solve_fg.json").read_text())["converged"]

    @pytest.mark.parametrize("kind, dtype", [("onb", np.float64),
                                             ("perturbed-onb", np.complex128)])
    def test_frame_container_keeps_its_field(self, tmp_path, kind, dtype):
        assert run_cli("frame", "build", "--kind", kind, "--n", "8",
                       "--out-dir", tmp_path) == 0
        assert io.load_frame(tmp_path / "frame").vectors.dtype == dtype


class TestGalerkinContainerRankBound:
    @staticmethod
    def assemble(tmp_path):
        # 32/4/4 against 32/2/8: no shared lattice, so a K x K container
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                "--b", "4", "--out-dir", tmp_path)
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "2",
                "--b", "8", "--out-dir", tmp_path / "right")
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--right", tmp_path / "right" / "frame",
                       "--op-kind", "identity_minus_kernel", "--theta", "0.5",
                       "--out-dir", tmp_path / "gal") == 0
        assert np.load(tmp_path / "gal" / "galerkin.npy").shape == (64, 64)
        return tmp_path / "gal" / "galerkin"

    @staticmethod
    def certify(matrix, out):
        code = run_cli("galerkin", "certify", "--matrix", matrix, "--case", "two_two",
                       "--w1-power", "1", "--w2-power", "1", "--out-dir", out)
        return code, (json.loads((out / "certificate_two_two.json").read_text())
                      if code == 0 else None)

    def test_container_without_ambient_dim_certifies(self, tmp_path):
        matrix = self.assemble(tmp_path)
        _, new = self.certify(matrix, tmp_path / "new")
        sidecar = matrix.with_suffix(".json")
        old_style = json.loads(sidecar.read_text())
        assert old_style.pop("ambient_dim") == 32
        sidecar.write_text(json.dumps(old_style))
        code, old = self.certify(matrix, tmp_path / "old")
        assert code == 0
        assert old["sound"] and new["sound"]
        assert old["certified_bound"] == pytest.approx(new["certified_bound"], rel=1e-12)

    def test_container_with_space_tags_certifies_identically(self, tmp_path):
        # older containers also recorded the unit-weight l^2 spaces of the
        # matrix; certify reads only ambient_dim from the sidecar
        matrix = self.assemble(tmp_path)
        self.certify(matrix, tmp_path / "new")
        sidecar = matrix.with_suffix(".json")
        unit = {"p": 2.0, "weight": {"family": "polynomial", "parameter": 0.0,
                                     "values": [1.0] * 64}}
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       "domain_space": unit, "codomain_space": unit}))
        code, _ = self.certify(matrix, tmp_path / "old")
        assert code == 0
        name = "certificate_two_two.json"
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    @pytest.mark.parametrize("value", [0, "32", 2.5, True])
    def test_invalid_ambient_dim_rejected(self, tmp_path, value):
        matrix = self.assemble(tmp_path)
        sidecar = matrix.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       "ambient_dim": value}))
        code, _ = self.certify(matrix, tmp_path / "cert")
        assert code == 2
        assert TestCLIContract.error(tmp_path / "cert") == "input-file"

    def test_vector_container_rejected(self, tmp_path):
        run_cli("solve", "fs", "--n", "16", "--out-dir", tmp_path)
        code, _ = self.certify(tmp_path / "solution_fs", tmp_path / "cert")
        assert code == 2
        assert TestCLIContract.error(tmp_path / "cert") == "input-file"


class TestStreamedAssembly:
    """``galerkin assemble`` writes the Galerkin matrix into its container one
    column block at a time: the bytes are those of ``np.save`` of the
    column-major matrix that ``galerkin_matrix`` forms in memory."""

    OPERATOR = ("--op-kind", "identity_minus_kernel", "--theta", "0.5")

    @staticmethod
    def expected(tmp_path, op, left, right):
        reference = tmp_path / "reference.npy"
        np.save(reference, np.asfortranarray(galerkin_matrix(op, left, right).entries))
        return reference.read_bytes()

    def assemble(self, tmp_path, frame, *args):
        """The CLI's container of ``frame``, and the frame as the CLI reads it."""
        io.save_frame(tmp_path / "frame", frame)
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame", *args,
                       "--out-dir", tmp_path / "gal") == 0
        return (tmp_path / "gal" / "galerkin.npy").read_bytes(), io.load_frame(tmp_path / "frame")

    @pytest.mark.parametrize("columns", [256, 24])
    def test_gabor_frame_with_its_dual(self, tmp_path, monkeypatch, columns):
        # K = 64: one block, or two of 24 and a ragged one of 16; the container
        # holds the generators, whose entries are those galerkin_matrix forms
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", columns)
        _, frame = self.assemble(tmp_path, make_gabor_frame(32, 4, 4, gaussian_window(32)),
                                 *self.OPERATOR)
        assert frame.lattice is not None
        op = make_test_operator("identity_minus_kernel", 32, theta=0.5)
        loaded = io.load_galerkin(tmp_path / "gal" / "galerkin")
        expected = galerkin_matrix(op, frame, canonical_dual(frame)).entries
        assert loaded.entries.tobytes() == expected.tobytes()
        assert loaded.entries.flags.f_contiguous and expected.flags.f_contiguous

    def test_real_onb_with_real_operator(self, tmp_path, monkeypatch):
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", 5)
        spectrum = np.linspace(1.0, 2.0, 16)
        streamed, frame = self.assemble(
            tmp_path, make_onb(16), "--op-kind", "diagonal",
            "--spectrum=" + ",".join(repr(float(v)) for v in spectrum))
        assert np.load(tmp_path / "gal" / "galerkin.npy").dtype == np.float64
        op = make_test_operator("diagonal", 16, spectrum=spectrum)
        assert streamed == self.expected(tmp_path, op, frame, canonical_dual(frame))

    def test_complex_perturbed_onb_against_itself(self, tmp_path, monkeypatch):
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", 7)
        streamed, frame = self.assemble(tmp_path, make_perturbed_onb(24, 3.0, 5),
                                        "--right", "self", *self.OPERATOR)
        assert np.iscomplexobj(frame.vectors)
        op = make_test_operator("identity_minus_kernel", 24, theta=0.5)
        assert streamed == self.expected(tmp_path, op, frame, frame)

    @pytest.mark.parametrize("columns", [8, 5])
    def test_ragged_last_block(self, tmp_path, monkeypatch, columns):
        # K_r = 17: blocks of 8, 8 and a single trailing column, or of 5, 5, 5 and 2
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", columns)
        frame = make_translates_frame(17, 0.25 ** np.minimum(np.arange(17), 17 - np.arange(17)))
        streamed, frame = self.assemble(tmp_path, frame, *self.OPERATOR)
        op = make_test_operator("identity_minus_kernel", 17, theta=0.5)
        assert streamed == self.expected(tmp_path, op, frame, canonical_dual(frame))

    def test_fewer_vectors_than_dimensions(self, tmp_path, monkeypatch):
        # 12 vectors in C^40 span a subspace only; the CLI's report rejects
        # them, so the container is written as the CLI writes it
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", 5)
        rng = np.random.default_rng(11)
        frame = Frame(rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12)),
                      IndexSet.line(12))
        op = make_test_operator("identity_minus_kernel", 40, theta=0.5)
        shape, dtype, blocks = galerkin_columns(op, frame, frame)
        io.save_blocks(tmp_path / "galerkin", shape, dtype, blocks,
                       io.galerkin_sidecar(frame, frame))
        assert (tmp_path / "galerkin.npy").read_bytes() == self.expected(tmp_path, op, frame,
                                                                         frame)
        sidecar = json.loads((tmp_path / "galerkin.json").read_text())
        assert (sidecar["shape"], sidecar["ambient_dim"]) == ([12, 12], 40)

    def test_no_square_temporary(self, tmp_path):
        # K = 1024, n = 64: the entries are 16.8 MB; forming them in memory
        # before writing them peaked at 1.4 times that
        io.save_frame(tmp_path / "frame", make_gabor_frame(64, 2, 2, gaussian_window(64)))
        tracemalloc.start()
        try:
            code = run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                           "--out-dir", tmp_path / "gal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.5 * 1024 * 1024 * np.dtype(complex).itemsize


class TestLatticeContainers:
    """A Gabor frame and its dual, with the operator held as its symbol, are
    assembled from their Walnut blocks; every other pair by the GEMM rule."""

    @staticmethod
    def gemm_bytes(tmp_path, o, left, right):
        """``np.save`` bytes of the GEMM rule Phi^* (O Xi[:, columns]), block by block."""
        analysis, width = np.conj(left.vectors.T), locframes.galerkin.ASSEMBLY_COLUMNS
        entries = np.empty((left.size, right.size), complex, order="F")
        for start in range(0, right.size, width):
            image = o @ right.vectors[:, start:start + width]
            out = np.empty((left.size, image.shape[1]), complex, order="F")
            entries[:, start:start + width] = np.matmul(analysis, image, out=out)
        np.save(tmp_path / "gemm.npy", entries)
        return (tmp_path / "gemm.npy").read_bytes()

    @pytest.mark.parametrize("operator", [
        ("--op-kind", "identity_minus_kernel", "--theta", "0.5"),
        ("--op-kind", "diagonal", "--spectrum=" + ",".join(str(1.5 + (k % 5) / 8) for k in range(32))),
    ], ids=["fourier", "time"])
    def test_vectors_and_window_containers_agree(self, tmp_path, operator):
        # the window container assembles a generator container, the container
        # of all K vectors a dense frame's K x K one: each holds the entries
        # galerkin_matrix forms for its frames, and they agree to rounding
        frame = make_gabor_frame(32, 4, 4, gaussian_window(32))
        io.save_frame(tmp_path / "window", frame)
        sidecar = json.loads((tmp_path / "window.json").read_text())
        del sidecar["window"]
        io.save_array(tmp_path / "vectors", frame.vectors, sidecar)
        entries = []
        for name in ("window", "vectors"):
            loaded = io.load_frame(tmp_path / name)
            assert loaded.lattice == ((4, 4) if name == "window" else None)
            assert run_cli("galerkin", "assemble", "--frame", tmp_path / name, *operator,
                           "--out-dir", tmp_path / f"gal_{name}") == 0
            op = (make_test_operator("identity_minus_kernel", 32, theta=0.5)
                  if operator[1] == "identity_minus_kernel" else make_test_operator(
                      "diagonal", 32, spectrum=[1.5 + (k % 5) / 8 for k in range(32)]))
            expected = galerkin_matrix(op, loaded, canonical_dual(loaded)).entries
            got = io.load_galerkin(tmp_path / f"gal_{name}" / "galerkin")
            got = got.entries if name == "window" else got
            assert got.tobytes() == expected.tobytes()
            entries.append(got)
        assert np.linalg.norm(entries[0] - entries[1]) <= 1e-13 * np.linalg.norm(entries[0])

    def test_unshared_lattices_keep_the_gemm_rule(self, tmp_path, monkeypatch):
        # 32/4/4 against 32/2/8: K = 64 on both, one layout on neither side
        monkeypatch.setattr(locframes.galerkin, "ASSEMBLY_COLUMNS", 24)
        for name, (a, b) in (("left", (4, 4)), ("right", (2, 8))):
            io.save_frame(tmp_path / name, make_gabor_frame(32, a, b, gaussian_window(32)))
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "left", "--right",
                       tmp_path / "right", "--op-kind", "identity_minus_kernel", "--theta", "0.5",
                       "--out-dir", tmp_path / "gal") == 0
        left, right = io.load_frame(tmp_path / "left"), io.load_frame(tmp_path / "right")
        o = make_test_operator("identity_minus_kernel", 32, theta=0.5).dense()
        assert (tmp_path / "gal" / "galerkin.npy").read_bytes() == self.gemm_bytes(
            tmp_path, o, left, right)

    def test_dense_operator_keeps_the_gemm_rule(self, tmp_path):
        frame = make_gabor_frame(32, 4, 4, gaussian_window(32))
        dual = canonical_dual(frame)
        o = make_test_operator("identity_minus_kernel", 32, theta=0.5).dense()
        shape, dtype, blocks = galerkin_columns(LinearOperator(o), frame, dual)
        io.save_blocks(tmp_path / "galerkin", shape, dtype, blocks, io.galerkin_sidecar(frame, dual))
        assert (tmp_path / "galerkin.npy").read_bytes() == self.gemm_bytes(tmp_path, o, frame, dual)

    @pytest.mark.parametrize("kind", ["identity_minus_kernel", "diagonal"])
    def test_blocks_hold_one_block_and_the_stack(self, kind):
        # K = 4096, n = 256, mt = mf = 64: a block is 16.8 MB and the Walnut
        # stack 4.2 MB; the GEMM rule held the K x n analysis factor and the
        # dual's vectors besides, 35 MB on the time side and 52 MB on the Fourier side
        frame = make_gabor_frame(256, 4, 4, gaussian_window(256))
        dual = canonical_dual(frame)
        op = (make_test_operator(kind, 256, spectrum=np.linspace(1.0, 2.0, 256))
              if kind == "diagonal" else make_test_operator(kind, 256, theta=0.5))
        op.symbol   # the operator's own n-vector, formed before the count
        tracemalloc.start()
        try:
            for block in galerkin_columns(op, frame, dual)[2]:
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(complex).itemsize
        assert frame._vectors is None and dual._vectors is None
        assert peak < (4096 * 256 + 3 * 4096 * 64) * itemsize


def unreduced_gabor_vectors(n, a, b, window):
    """The Gabor system with the phase argument j b x / n left unreduced."""
    x = np.arange(n)
    return np.stack([np.roll(window, m * a) * np.exp(2j * np.pi * j * b * x / n)
                     for m in range(n // a) for j in range(n // b)], axis=1)


class TestGaborContainers:
    """A container of vectors is a dense frame whatever its meta describes: only
    a window container is read as a Gabor frame."""

    def save(self, tmp_path, vectors, meta=None):
        """Save ``vectors`` with the sidecar of Gabor 64/8/4 and load them."""
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        io.save_frame(tmp_path / "frame", locframes.Frame(
            vectors, frame.index_set, name=frame.name, meta=meta or frame.meta))
        return frame, io.load_frame(tmp_path / "frame")

    def test_built_container_loads_dense(self, tmp_path):
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        _, loaded = self.save(tmp_path, frame.vectors)
        assert loaded.lattice is None and loaded.window is None
        assert loaded.vectors.tobytes() == frame.vectors.tobytes()

    def test_unreduced_phases_load_dense(self, tmp_path):
        old = unreduced_gabor_vectors(64, 8, 4, gaussian_window(64).astype(complex))
        frame, loaded = self.save(tmp_path, old)
        assert not np.array_equal(old, frame.vectors)
        assert np.allclose(old, frame.vectors, rtol=0, atol=1e-13)
        assert loaded.lattice is None
        for got, ref in zip(locframes.frame_bounds(loaded), locframes.frame_bounds(frame)):
            assert got == pytest.approx(ref, rel=1e-12)

    def test_one_changed_entry_loads_dense(self, tmp_path):
        vectors = make_gabor_frame(64, 8, 4, gaussian_window(64)).vectors.copy()
        vectors[5, 17] += 1e-3
        _, loaded = self.save(tmp_path, vectors)
        assert loaded.lattice is None

    def test_undersized_lattice_is_not_a_frame(self, tmp_path):
        # (16/8)(16/8) = 4 vectors in C^16: meta and vectors agree, but the
        # family spans a 4-dimensional subspace
        vectors = gabor_system(gaussian_window(16).astype(complex), 8, 8)
        iset = IndexSet.torus_grid(2, 2, scales=(8.0, 8.0))
        io.save_frame(tmp_path / "frame", locframes.Frame(
            vectors, iset, meta={"kind": "gabor", "n": 16, "a": 8, "b": 8}))
        loaded = io.load_frame(tmp_path / "frame")
        assert loaded.lattice is None
        with pytest.raises(locframes.NotAFrameError):
            locframes.frame_bounds(loaded)
        for argv in (("frame", "diag"), ("galerkin", "assemble")):
            out = tmp_path / argv[0]
            assert run_cli(*argv, "--frame", tmp_path / "frame", "--out-dir", out) == 2
            assert TestCLIContract.error(out) == "not-a-frame"

    @pytest.mark.parametrize("meta", [{"kind": "onb"},
                                      {"kind": "gabor", "n": 64, "a": 8.0, "b": 4},
                                      {"kind": "gabor", "n": 64, "a": 4, "b": 8}])
    def test_meta_must_describe_the_lattice(self, tmp_path, meta):
        vectors = make_gabor_frame(64, 8, 4, gaussian_window(64)).vectors
        _, loaded = self.save(tmp_path, vectors, meta)
        assert loaded.lattice is None


class TestWindowContainers:
    """A Gabor frame is stored as its window; containers of all K vectors,
    written before, load as dense frames."""

    OPERATOR = ("--op-kind", "identity_minus_kernel", "--theta", "0.5")

    @staticmethod
    def count_systems(monkeypatch):
        calls = []
        original = locframes.frames.gabor_system
        monkeypatch.setattr(locframes.frames, "gabor_system",
                            lambda *args: calls.append(args[1:]) or original(*args))
        return calls

    def test_window_round_trip(self, tmp_path, monkeypatch):
        calls = self.count_systems(monkeypatch)
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        locframes.frame_bounds(frame)
        dual = canonical_dual(frame)
        io.save_frame(tmp_path / "frame", frame)
        loaded = io.load_frame(tmp_path / "frame")
        # neither the frame, its dual, the container nor the load built a vector
        assert calls == []
        assert np.load(tmp_path / "frame.npy").shape == (64,)
        assert json.loads((tmp_path / "frame.json").read_text())["window"] is True
        assert (loaded.lattice, loaded.ambient_dim, loaded.size) == ((8, 4), 64, 128)
        assert loaded.index_set.to_dict() == frame.index_set.to_dict()
        assert loaded.window.tobytes() == frame.window.tobytes()
        assert loaded.vectors.tobytes() == frame.vectors.tobytes()
        assert not loaded.vectors.flags.writeable and loaded.vectors is loaded.vectors

    def test_min_vector_norm_is_the_window_norm(self, tmp_path, monkeypatch):
        # every time-frequency shift is unitary: a built frame and a loaded window
        # give the same bits, and no vector is built for them
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        io.save_frame(tmp_path / "new" / "frame", frame)
        calls = self.count_systems(monkeypatch)
        frames = [make_gabor_frame(64, 8, 4, gaussian_window(64)),
                  io.load_frame(tmp_path / "new" / "frame")]
        norms = [f.min_vector_norm() for f in frames]
        dual = canonical_dual(frames[0])
        assert calls == [] and dual.min_vector_norm() == np.linalg.norm(dual.window)
        assert norms == [np.linalg.norm(frame.window)] * 2
        assert abs(norms[0] - np.linalg.norm(frame.vectors, axis=0).min()) <= 1e-15

    def test_old_layout_loads_as_a_dense_frame(self, tmp_path):
        # a container of all K vectors with a Gabor meta is a dense frame: the
        # same vectors, no lattice, and diagnostics that agree to rounding
        assert run_cli("frame", "build", "--kind", "gabor", "--n", "64", "--a", "8",
                       "--b", "4", "--out-dir", tmp_path / "new") == 0
        frame = io.load_frame(tmp_path / "new" / "frame")
        sidecar = json.loads((tmp_path / "new" / "frame.json").read_text())
        del sidecar["window"]
        io.save_array(tmp_path / "old" / "frame", frame.vectors, sidecar)
        assert np.load(tmp_path / "old" / "frame.npy").shape == (64, 128)
        old = io.load_frame(tmp_path / "old" / "frame")
        assert (old.lattice, old.window, old.meta) == (None, None, frame.meta)
        assert old.vectors.tobytes() == frame.vectors.tobytes()
        assert old.index_set.to_dict() == frame.index_set.to_dict()
        grids = []
        for layout in ("new", "old"):
            out = tmp_path / f"{layout}-diag"
            assert run_cli("frame", "diag", "--frame", tmp_path / layout / "frame",
                           "--out-dir", out) == 0
            grids.append(json.loads((out / "equivalence.json").read_text())["grid"])
        for new, dense in zip(*grids):
            for key in ("lower", "upper"):
                assert dense[key] == pytest.approx(new[key], rel=1e-10)

    @pytest.mark.parametrize("case", ["short", "two_d", "nan", "zero", "not_dividing",
                                      "index_set", "not_gabor", "not_a_bool", "grid_size"])
    def test_malformed_window_exits_2(self, tmp_path, case):
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        io.save_frame(tmp_path / "frame", frame)
        window, sidecar = io.load_array(tmp_path / "frame")
        if case == "short":
            window = window[:-1]
        elif case == "two_d":
            window = window.reshape(8, 8)
        elif case == "nan":
            window[3] = np.nan
        elif case == "zero":
            window[:] = 0
        elif case == "not_dividing":
            sidecar["meta"]["a"] = 7
        elif case == "index_set":
            sidecar["index_set"] = IndexSet.torus_grid(8, 8).to_dict()
        elif case == "not_gabor":
            sidecar["meta"] = {"kind": "onb", "n": 64}
        elif case == "grid_size":   # 2^40 points against K = 128, read without forming them
            sidecar["index_set"]["grid"] = [1 << 20, 1 << 20]
        else:
            sidecar["window"] = 1
        np.save(tmp_path / "frame.npy", window)
        (tmp_path / "frame.json").write_text(json.dumps(sidecar))
        for argv in (("frame", "diag"), ("solve", "fg"), ("galerkin", "assemble")):
            out = tmp_path / argv[0]
            assert run_cli(*argv, "--frame", tmp_path / "frame", "--out-dir", out) == 2
            assert TestCLIContract.error(out) == "input-file"

    def test_solve_fg_forms_no_vectors(self, tmp_path):
        # Gabor 512/8/16: K x n is 2048 x 512 complex entries, 16.8 MB
        assert run_cli("frame", "build", "--kind", "gabor", "--n", "512", "--a", "8",
                       "--b", "16", "--out-dir", tmp_path) == 0
        tracemalloc.start()
        try:
            code = run_cli("solve", "fg", "--frame", tmp_path / "frame", *self.OPERATOR,
                           "--out-dir", tmp_path / "fg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2048 * 512 * np.dtype(complex).itemsize

    def test_frame_diag_forms_no_vectors(self, tmp_path):
        # the same frame: its Gram profiles are read from the two windows
        assert run_cli("frame", "build", "--kind", "gabor", "--n", "512", "--a", "8",
                       "--b", "16", "--out-dir", tmp_path) == 0
        tracemalloc.start()
        try:
            code = run_cli("frame", "diag", "--frame", tmp_path / "frame",
                           "--out-dir", tmp_path / "diag")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2048 * 512 * np.dtype(complex).itemsize


class TestGaborNoDenseFactorizations:
    """On a Gabor frame, frame build, galerkin assemble and solve fg take no
    Householder QR of the K x n analysis matrix and no n x n solve,
    Cholesky or eigvalsh of the frame: the guard records the calls made
    from ``locframes.frames``.  The spectra of the n x n operator and of
    the Hermitian Galerkin core, taken elsewhere, are not the frame's."""

    @staticmethod
    def guard(monkeypatch):
        shapes = {}
        for name in ("qr", "solve", "cholesky", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, _name=name, **kwargs):
                if sys._getframe(1).f_globals.get("__name__") == "locframes.frames":
                    shapes.setdefault(_name, []).append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        return shapes

    def run_pipeline(self, tmp_path, frame):
        operator = ("--op-kind", "identity_minus_kernel", "--theta", "0.5")
        assert run_cli("galerkin", "assemble", "--frame", frame, *operator,
                       "--out-dir", tmp_path / "gal") == 0
        for method in ("cg", "direct"):
            assert run_cli("solve", "fg", "--frame", frame, *operator,
                           "--method", method, "--out-dir", tmp_path / method) == 0

    def test_structured_pipeline(self, tmp_path, monkeypatch):
        shapes = self.guard(monkeypatch)
        assert run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                       "--b", "4", "--out-dir", tmp_path) == 0
        self.run_pipeline(tmp_path, tmp_path / "frame")
        # the mf = 8 Walnut blocks, never the one dense block (1, 64, 32)
        assert shapes["qr"] and all(s == (8, 8, 4) for s in shapes["qr"])
        dense = [s for name in ("solve", "cholesky", "eigvalsh")
                 for s in shapes.get(name, [])]
        assert (32, 32) not in dense

    def test_guard_sees_the_dense_path(self, tmp_path, monkeypatch):
        frame = make_gabor_frame(32, 4, 4, gaussian_window(32))
        io.save_frame(tmp_path / "frame", locframes.Frame(
            unreduced_gabor_vectors(32, 4, 4, gaussian_window(32).astype(complex)),
            frame.index_set, name=frame.name, meta=frame.meta))
        shapes = self.guard(monkeypatch)
        self.run_pipeline(tmp_path, tmp_path / "frame")
        assert (1, 64, 32) in shapes["qr"]
        assert (32, 32) in shapes["solve"] and (32, 32) in shapes["eigvalsh"]


class TestWorkCounts:
    """K x K work per command, counted by wrapping the functions that do it."""

    @staticmethod
    def count(monkeypatch, name, modules):
        calls = []
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_assemble_streams_the_one_galerkin_matrix(self, tmp_path, monkeypatch):
        # a dense frame: a lattice pair's container holds its generators, no entry
        run_cli("frame", "build", "--kind", "perturbed-onb", "--n", "32", "--out-dir", tmp_path)
        matrices = self.count(monkeypatch, "galerkin_matrix", [locframes.galerkin])
        columns = self.count(monkeypatch, "galerkin_columns",
                             [locframes.galerkin, locframes.io])
        # identity against the dual also reports the idempotency residual;
        # every diagnostic works on the n x n cores, so the entries are
        # assembled once, straight into the container
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "gal") == 0
        assert "idempotency_residual" in json.loads(
            (tmp_path / "gal" / "galerkin_report.json").read_text())
        assert (len(matrices), len(columns)) == (0, 1)

    @pytest.mark.parametrize("argv", [
        ("--right", "dual"),
        ("--right", "self", "--op-kind", "identity_minus_kernel", "--theta", "0.5"),
        ("--op-kind", "diagonal", "--spectrum=" + ",".join(str(1 + k % 3) for k in range(32))),
    ], ids=["identity", "kernel-self", "diagonal"])
    def test_lattice_assemble_builds_no_frame_vectors(self, tmp_path, monkeypatch, argv):
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                "--b", "4", "--out-dir", tmp_path)
        # every K x n array of a frame held as its window, its vectors or its
        # analysis matrix, is built by gabor_system
        systems = self.count(monkeypatch, "gabor_system", [locframes.frames])
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame", *argv,
                       "--out-dir", tmp_path / "gal") == 0
        assert systems == []

    def test_gabor_pipeline_builds_no_frame_vectors(self, tmp_path, monkeypatch):
        # a Gabor frame is its window in every command whose operator is held
        # as a symbol: no K x n array of the frame or its dual is built
        systems = self.count(monkeypatch, "gabor_system", [locframes.frames])
        frame, gal, operator = tmp_path / "frame", tmp_path / "gal", TestWindowContainers.OPERATOR
        diagonal = ("--op-kind", "diagonal", "--spectrum=" + ",".join(
            str(1 + k % 3) for k in range(32)))
        runs = [(("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4", "--b", "4"),
                 tmp_path),
                (("frame", "diag", "--frame", frame), tmp_path / "diag")]
        for i, argv in enumerate([(), operator, diagonal]):
            runs += [(("galerkin", "assemble", "--frame", frame, *argv), gal / str(i)),
                     (("galerkin", "certify", "--matrix", gal / str(i) / "galerkin"), gal / str(i))]
        for method in ("cg", "direct"):
            runs.append((("solve", "fg", "--frame", frame, "--method", method, *operator),
                         tmp_path / method))
        for argv, out in runs:
            assert run_cli(*argv, "--out-dir", out) == 0, argv
        assert json.loads((tmp_path / "diag" / "localization.json").read_text())["member"]
        assert systems == []

    def test_gabor_assemble_takes_no_n_sized_decomposition(self, tmp_path, monkeypatch):
        run_cli("frame", "build", "--kind", "gabor", "--n", "64", "--a", "4",
                "--b", "8", "--out-dir", tmp_path)
        # norm(., 2) calls numpy's internal svd, which np.linalg.svd re-exports
        calls = self.count(monkeypatch, "svd", [np.linalg, np.linalg._linalg])
        eigs = self.count(monkeypatch, "eigvalsh", [np.linalg])
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--op-kind", "identity_minus_kernel", "--theta", "0.5",
                       "--out-dir", tmp_path / "gal") == 0
        # the operator is circulant: the two round-trip residuals and the
        # Galerkin core are stacks of n / a blocks of order a on the Fourier
        # side; the frame bounds and the two Gram cores stacks of n / b blocks
        # of order b.  The operator's singular values are the moduli of its symbol
        shapes = [np.shape(args[0]) for args in calls + eigs]
        assert sorted(shapes) == [(8, 8, 8)] * 3 + [(16, 4, 4)] * 3

    def test_solve_fs_spends_no_svd_on_span_bases(self, tmp_path, monkeypatch):
        # the levels of the standard basis are their own span bases
        svds = self.count(monkeypatch, "svd", [np.linalg, np.linalg._linalg])
        eighs = self.count(monkeypatch, "eigh", [np.linalg])
        eigvalshs = self.count(monkeypatch, "eigvalsh", [np.linalg])
        solves = self.count(monkeypatch, "solve", [np.linalg])
        bases = self.count(monkeypatch, "_span_basis", [locframes.solver])
        assert run_cli("solve", "fs", "--n", "64", "--out-dir", tmp_path) == 0
        # one check of the whole frame names the rows of levels N = 8, 16, 32, 64
        assert [np.shape(args[0]) for args in bases] == [(64, 64)]
        # the operator is symmetric: each level core takes one eigvalsh for
        # its record, and the last level spans C^n, so its eigenvalues give
        # the contraction norm without another decomposition.  Every core is
        # invertible, so direct solves it by one LU and takes no vectors; the
        # last core is A itself, and its LU is the reference
        levels = [(8, 8), (16, 16), (32, 32), (64, 64)]
        assert len(svds) == 0
        assert eighs == []
        assert [np.shape(args[0]) for args in eigvalshs] == levels
        assert [np.shape(args[0]) for args in solves] == levels

    def diag_gram_calls(self, tmp_path, monkeypatch):
        calls = self.count(monkeypatch, "gram",
                           [locframes.frames, locframes.localization, locframes.galerkin])
        assert run_cli("frame", "diag", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "diag") == 0
        assert json.loads((tmp_path / "diag" / "localization.json").read_text())["member"]
        return len(calls)

    @pytest.mark.parametrize("argv, grams", [
        # a Gabor frame reads its three Gram magnitudes from lattice profiles
        (("--kind", "gabor", "--n", "32", "--a", "4", "--b", "4"), 0),
        (("--kind", "perturbed-onb", "--n", "48"), 3),
    ], ids=["gabor", "perturbed"])
    def test_frame_diag_gram_calls(self, tmp_path, monkeypatch, argv, grams):
        run_cli("frame", "build", *argv, "--out-dir", tmp_path)
        assert self.diag_gram_calls(tmp_path, monkeypatch) == grams

    def test_gabor_frame_diag_holds_no_gram(self, tmp_path):
        # K = 4096: one K x K float64 array is 134 MB; the frame and its
        # dual are 33.5 MB each
        run_cli("frame", "build", "--kind", "gabor", "--n", "512", "--a", "8",
                "--b", "8", "--out-dir", tmp_path)
        tracemalloc.start()
        try:
            assert run_cli("frame", "diag", "--frame", tmp_path / "frame",
                           "--out-dir", tmp_path / "diag") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 4096 * 8

    def test_gabor_container_off_the_torus_grid_runs_dense(self, tmp_path, monkeypatch):
        frame = make_gabor_frame(32, 4, 4, gaussian_window(32))
        iset = frame.index_set
        # the same positions in column-major order
        order = np.lexsort(iset.positions.T)
        moved = IndexSet(iset.positions[order], iset.metric, moduli=iset.moduli,
                         scales=iset.scales)
        io.save_frame(tmp_path / "frame", Frame(frame.vectors, moved,
                                                name=frame.name, meta=frame.meta))
        assert io.load_frame(tmp_path / "frame").lattice is None
        assert self.diag_gram_calls(tmp_path, monkeypatch) == 3


# -- every argv keeps the exit contract -----------------------------------------

# the codes error.json may carry, by exit code
EXIT_CODES = {2: {"dimension-mismatch", "metric-mismatch", "invalid-input", "config",
                  "input-file", "not-a-frame", "insufficient-data", "contract",
                  "not-localized", "bijectivity"},
              3: {"diverged"}}
# (valid, bad) values of each setting: bad ones are mistyped, out of range
# or unknown; no size above 32, so that every drawn command runs in
# milliseconds
# "-inf" given as a separate argument is an argparse usage error
REAL = (["0.5", "1", "3"], ["-1", "-inf", "0", "nan", "inf", "x", ""])
SETTING_VALUES = {
    "kind": (["onb", "gabor", "translates", "perturbed-onb"], ["foo"]),
    "n": (["4", "8", "16", "32"], ["0", "-2", "8.5", "x", "", "1e300"]),
    "a": (["1", "2", "4"], ["3", "0", "x"]), "b": (["1", "2", "4"], ["3", "0", "x"]),
    "levels": (["1", "3"], ["0", "-1", "x"]),
    "start_level": (["1", "4"], ["0", "-3", "2.5"]),
    "width": REAL, "decay_s": REAL, "s": (REAL[0], REAL[1] + ["300"]),
    "threshold": (["1e3", "10"], REAL[1]), "theta": (["0.5", "1", "1.2"], REAL[1]),
    "exponent": (["2", "3"], REAL[1]), "p": (["1", "2", "2000"], REAL[1]),
    "w1_power": (["0", "1", "-1"], ["-175", "400", "nan", "x"]),
    "w2_power": (["0", "1", "204.79"], ["-400", "nan", "x"]),
    "tol": (["1e-8", "1e-300"], ["0", "-1", "nan", "x"]),
    "p_grid": (["1,2,inf", "0.5", "inf"], ["x", ""]),
    "weight_powers": (["0,1", "-1"], ["1e308", "-400", "x", ""]),
    "spectrum": (["1,2,3,4", "0,0,0,0,0,0,0,0", ",".join(["1", "-2"] * 4),
                  "0," + ",".join(["1"] * 15)], ["x", "1,nan"]),
    "algebra": (["jaffard", "schur_weighted"], ["foo"]),
    "case": (list(locframes.galerkin.CERTIFICATE_CASES), ["foo"]),
    "method": (["cg", "direct", "richardson"], ["foo"]),
    "schedule": (["centered", "greedy"], ["foo"]), "rhs": (["random", "bump"], ["foo"]),
    "op_kind": (["identity", "identity_minus_kernel", "helmholtz_toy", "diagonal"],
                ["foo"]),
}
# the settings without which a command has nothing to read
REQUIRED = {("frame", "build"): ("kind", "n"), ("frame", "diag"): ("frame",),
            ("galerkin", "assemble"): ("frame",), ("galerkin", "certify"): ("matrix",),
            ("solve", "fg"): ("frame",)}
ALL_KEYS = sorted({key for keys in cli.FLAGS.values() for key in keys})


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Small frames and a Galerkin matrix, with (valid, bad) paths for the
    settings that name a container."""
    root = tmp_path_factory.mktemp("inputs")
    for name, argv in {"onb": ("--kind", "onb", "--n", "8"),
                       "gabor": ("--kind", "gabor", "--n", "16", "--a", "4", "--b", "2"),
                       "translates": ("--kind", "translates", "--n", "8")}.items():
        assert run_cli("frame", "build", *argv, "--out-dir", root / name) == 0
    assert run_cli("galerkin", "assemble", "--frame", root / "gabor" / "frame",
                   "--out-dir", root / "gal") == 0
    frames = [str(root / name / "frame") for name in ("onb", "gabor", "translates")]
    matrix, missing = str(root / "gal" / "galerkin"), str(root / "missing" / "frame")
    return {"frame": (frames, [matrix, missing]),
            "right": (frames + ["self", "dual"], [matrix, missing]),
            "matrix": ([matrix], [frames[0], missing])}


@st.composite
def cli_argv(draw, paths):
    """A subcommand with settings drawn from its FLAGS, each bad one time in
    six and given as --flag=value, as --flag value or in --config; now and
    then with a flag the subcommand does not take."""
    command = draw(st.sampled_from(sorted(cli.FLAGS)))
    keys = draw(st.lists(st.sampled_from(cli.FLAGS[command]), unique=True,
                         max_size=len(cli.FLAGS[command])))
    # integers() favours its bounds: a rare branch takes an inner value
    if draw(st.integers(0, 9)) != 4:
        keys = [*REQUIRED.get(command, ()), *keys]
        keys = sorted(set(keys), key=keys.index)
    if draw(st.integers(0, 4)) == 2:
        keys.append(draw(st.sampled_from([k for k in ALL_KEYS + ["bogus"]
                                          if k not in cli.FLAGS[command]])))
    flags, config = [], {}
    for key in keys:
        valid, bad = {**SETTING_VALUES, **paths}.get(key, (["1"], []))
        value = draw(st.sampled_from(bad if bad and draw(st.integers(0, 5)) == 3
                                     else valid))
        flag = "--" + key.replace("_", "-")
        if key in cli.FLAGS[command] and draw(st.booleans()):
            config[key] = value
        else:
            flags += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    seed = "x" if draw(st.integers(0, 9)) == 4 else draw(st.sampled_from(["0", "7"]))
    return command, flags + [f"--seed={seed}"], config, draw(st.booleans())


class TestCLIProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exit_contract(self, cli_inputs, data):
        command, flags, config, stale = data.draw(cli_argv(cli_inputs))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            if stale:
                out.mkdir()
                (out / "error.json").write_text('{"code": "stale", "message": ""}')
            argv = [*command, *flags, "--out-dir", str(out)]
            if config:
                (Path(tmp) / "cfg.json").write_text(json.dumps(config))
                argv += ["--config", str(Path(tmp) / "cfg.json")]
            stderr = io_module.StringIO()
            with contextlib.redirect_stderr(stderr), warnings.catch_warnings(), \
                    np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                rc = main(argv)
            assert rc in (0, 2, 3), argv
            assert "Traceback" not in stderr.getvalue(), argv
            error = out / "error.json"
            if rc == 0:
                assert not error.exists(), argv
            else:
                assert json.loads(error.read_text())["code"] in EXIT_CODES[rc], argv
