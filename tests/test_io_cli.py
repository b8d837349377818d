"""Container round-trips, CLI subcommands, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import locframes
from locframes import (
    Frame,
    IndexSet,
    galerkin_matrix,
    gaussian_window,
    io,
    make_gabor_frame,
)
from locframes.cli import main
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

    def test_galerkin_matrix_roundtrip(self, tmp_path):
        frame = make_gabor_frame(16, 4, 2, gaussian_window(16))
        w = Weight.ones(frame.size)
        gm = galerkin_matrix(LinearOperator.identity(16), frame, frame,
                             domain_space=SeqSpaceSpec(2, w),
                             codomain_space=SeqSpaceSpec(2, w))
        io.save_galerkin_matrix(tmp_path / "m", gm)
        entries, sidecar = io.load_array(tmp_path / "m")
        assert np.array_equal(entries, gm.entries)
        assert sidecar["left_frame"] == frame.name
        assert sidecar["ambient_dim"] == 16
        assert sidecar["domain_space"]["p"] == 2

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
        entries, _ = io.load_array(tmp_path / "gal" / "galerkin")
        assert np.linalg.norm(entries @ entries - entries, 2) <= 1e-10
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", "inf_inf", "--out-dir", tmp_path / "cert") == 0
        cert = json.loads(
            (tmp_path / "cert" / "certificate_inf_inf.json").read_text()
        )
        assert cert["sound"]
        assert cert["measured_probe_norm"] <= cert["certified_bound"] * (1 + 1e-8)

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

    def test_solve_fs_converges(self, tmp_path):
        assert run_cli("solve", "fs", "--op-kind", "identity_minus_kernel",
                       "--theta", "0.5", "--n", "64", "--method", "cg",
                       "--out-dir", tmp_path) == 0
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert rep["converged"]
        assert rep["contraction_norm"] == pytest.approx(0.5, abs=1e-12)
        lines = (tmp_path / "solve_fs_levels.csv").read_text().splitlines()
        assert lines[0] == "N,residual,error,inverse_norm,iterations"
        assert len(lines) == len(rep["levels"]) + 1

    def test_solve_fs_divergent_exit_three(self, tmp_path):
        code = run_cli("solve", "fs", "--op-kind", "identity_minus_kernel",
                       "--theta", "1.2", "--n", "32", "--method", "cg",
                       "--out-dir", tmp_path)
        assert code == 3
        rep = json.loads((tmp_path / "solve_fs.json").read_text())
        assert not rep["converged"]

    def test_solve_fg_identity(self, tmp_path):
        run_cli("frame", "build", "--kind", "onb", "--n", "16",
                "--out-dir", tmp_path)
        assert run_cli("solve", "fg", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "fg") == 0
        rep = json.loads((tmp_path / "fg" / "solve_fg.json").read_text())
        assert rep["converged"]
        assert rep["levels"][0]["iterations"] == 1

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
        assert run_cli("galerkin", "certify", "--matrix", tmp_path / "gal" / "galerkin",
                       "--case", "inf_inf", flag, power,
                       "--out-dir", tmp_path / "cert") == 2
        assert self.error(tmp_path / "cert") == "invalid-input"
        assert not (tmp_path / "cert" / "certificate_inf_inf.json").exists()

    @pytest.mark.parametrize("kind", [("--kind", "perturbed-onb", "--n", "48"),
                                      ("--kind", "gabor", "--n", "32", "--a", "4",
                                       "--b", "4")], ids=["dense", "lattice"])
    @pytest.mark.parametrize("setting", [("--weight-powers", "0,1e308"),
                                         ("--s", "1000")], ids=["weight", "envelope"])
    def test_frame_diag_overflow(self, tmp_path, kind, setting):
        # at the parent: NaN bounds, and NaN or Infinity norms; (1 + d)^1000
        # overflows for every d >= 2, so on both of these small index sets
        run_cli("frame", "build", *kind, "--out-dir", tmp_path)
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
        ("--kind", "translates", "--n", "16", "--step", "0"),
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
    ])
    def test_flag_of_another_subcommand_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out-dir", tmp_path)
        assert exc.value.code == 2


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
        (("frame", "build"), {"kind": "translates", "n": 16, "step": 1.5}),
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
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                "--b", "4", "--out-dir", tmp_path)
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--op-kind", "identity_minus_kernel", "--theta", "0.5",
                       "--out-dir", tmp_path / "gal") == 0
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


def unreduced_gabor_vectors(n, a, b, window):
    """The Gabor system with the phase argument j b x / n left unreduced."""
    x = np.arange(n)
    return np.stack([np.roll(window, m * a) * np.exp(2j * np.pi * j * b * x / n)
                     for m in range(n // a) for j in range(n // b)], axis=1)


class TestGaborContainers:
    """A container is read as a Gabor frame only when its vectors are exactly
    the system its meta describes; otherwise it takes the dense path."""

    def save(self, tmp_path, vectors, meta=None):
        """Save ``vectors`` with the sidecar of Gabor 64/8/4 and load them."""
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        io.save_frame(tmp_path / "frame", locframes.Frame(
            vectors, frame.index_set, name=frame.name, meta=meta or frame.meta))
        return frame, io.load_frame(tmp_path / "frame")

    def test_built_container_is_structured(self, tmp_path):
        frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
        _, loaded = self.save(tmp_path, frame.vectors)
        assert loaded.lattice == (8, 4)

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

    @pytest.mark.parametrize("meta", [{"kind": "onb"},
                                      {"kind": "gabor", "n": 64, "a": 8.0, "b": 4},
                                      {"kind": "gabor", "n": 64, "a": 4, "b": 8}])
    def test_meta_must_describe_the_lattice(self, tmp_path, meta):
        vectors = make_gabor_frame(64, 8, 4, gaussian_window(64)).vectors
        _, loaded = self.save(tmp_path, vectors, meta)
        assert loaded.lattice is None


class TestGaborNoDenseFactorizations:
    """On a Gabor frame, frame build, galerkin assemble and solve fg run no
    Householder QR of the K x n analysis matrix and no n x n solve,
    Cholesky or eigvalsh."""

    @staticmethod
    def guard(monkeypatch):
        shapes = {}
        for name in ("qr", "solve", "cholesky", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, _name=name, **kwargs):
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
        assert shapes["qr"] and all(len(s) == 3 for s in shapes["qr"])
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
        assert (64, 32) in shapes["qr"]
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

    def test_assemble_forms_two_galerkin_matrices(self, tmp_path, monkeypatch):
        run_cli("frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                "--b", "4", "--out-dir", tmp_path)
        calls = self.count(monkeypatch, "galerkin_matrix",
                           [locframes.galerkin, locframes.cli])
        # identity against the dual also reports the idempotency residual;
        # every diagnostic works on the n x n cores, so the entries are
        # the one K x K matrix
        assert run_cli("galerkin", "assemble", "--frame", tmp_path / "frame",
                       "--out-dir", tmp_path / "gal") == 0
        assert "idempotency_residual" in json.loads(
            (tmp_path / "gal" / "galerkin_report.json").read_text())
        assert len(calls) == 1

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
        moved = IndexSet([iset.labels[k] for k in order], iset.positions[order],
                         iset.metric, moduli=iset.moduli, scales=iset.scales)
        io.save_frame(tmp_path / "frame", Frame(frame.vectors, moved,
                                                name=frame.name, meta=frame.meta))
        assert io.load_frame(tmp_path / "frame").lattice == (4, 4)
        assert self.diag_gram_calls(tmp_path, monkeypatch) == 3
