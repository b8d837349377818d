"""Generator containers: a lattice pair's Galerkin matrix held as its two
windows and its operator, its closed forms from its Walnut stack and
``two_two`` from the frames' factors."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import locframes
from conftest import GABOR_LATTICES, riesz_sequence
from locframes import canonical_dual, galerkin_matrix, gaussian_window, io, make_gabor_frame
from locframes.cli import main
from locframes.galerkin import (CERTIFICATE_CASES, LinearOperator, galerkin_columns,
                                schur_certificate)
from locframes.solver import make_test_operator
from locframes.weights import Weight, decay_envelope


def operators(n):
    """Each operator the generator containers hold, on both sides."""
    return {
        "identity": LinearOperator.identity(n),
        "identity-time": LinearOperator.identity(n, "time"),
        "kernel": make_test_operator("identity_minus_kernel", n, theta=0.5),
        "helmholtz": make_test_operator("helmholtz_toy", n),
        "diagonal": make_test_operator("diagonal", n, spectrum=1.5 + np.cos(np.arange(n)) / 4),
    }


# the Gabor entries of suite_frames are lattices of gabor_twins
PAIRS = [(lattice, name) for lattice in GABOR_LATTICES for name in operators(16)]


def containers(tmp_path, op, frame):
    """The generator container of (frame, its dual) and its K x K container, loaded."""
    gm = galerkin_matrix(op, frame, canonical_dual(frame))
    io.save_galerkin_matrix(tmp_path / "generators", gm, {"operator": op.name})
    io.save_blocks(tmp_path / "dense", *galerkin_columns(op, frame, canonical_dual(frame)),
                   io.galerkin_sidecar(frame, canonical_dual(frame)))
    dense, sidecar = io.load_array(tmp_path / "dense")
    return io.load_galerkin(tmp_path / "generators"), dense, sidecar["ambient_dim"]


@pytest.mark.parametrize("lattice, name", PAIRS, ids=[f"gabor{n}a{a}b{b}-{op}" for (n, a, b), op
                                                      in PAIRS])
def test_generator_and_dense_containers_certify_alike(tmp_path, lattice, name):
    # the closed forms come from the Walnut stack and agree with the entries' to
    # rounding; two_two lies within its rounding term above a float64 SVD of the
    # weighted matrix; no entry is built
    n, a, b = lattice
    op = operators(n)[name]
    generators, dense, rank_bound = containers(tmp_path, op, make_gabor_frame(n, a, b,
                                                                              gaussian_window(n)))
    assert (np.load(tmp_path / "generators.npy").shape, dense.shape) == ((3, n), generators.shape)
    k = len(dense)
    for t in (0.0, 1.0, 2.0):
        w = Weight(decay_envelope(np.arange(k), t))
        for case in CERTIFICATE_CASES[:-1]:
            got = schur_certificate(generators, case, p=3.0, weights=(w, w)).to_dict()
            want = schur_certificate(dense, case, p=3.0, weights=(w, w),
                                     rank_bound=rank_bound).to_dict()
            assert (got["sound"], got["tight"]) == (want["sound"], want["tight"]), (t, case)
            assert got["certified_bound"] == pytest.approx(want["certified_bound"], rel=1e-12)
            if case == "inf_one":   # Boyd's witness: sound, its digits free
                assert 0 < got["witness_lower_bound"] <= got["certified_bound"]
            else:
                assert got["witness_lower_bound"] == pytest.approx(want["witness_lower_bound"],
                                                                   rel=1e-12), (t, case)
        cert = schur_certificate(generators, "two_two", weights=(w, w)).to_dict()
        truth = np.linalg.svd(w.values[:, None] * dense / w.values, compute_uv=False)[0]
        assert cert["sound"] and cert["details"]["rule"] == "factors"
        assert truth <= cert["certified_bound"] <= truth * (1 + 1e-8), (t, cert, truth)
        assert cert["witness_lower_bound"] == pytest.approx(truth, rel=1e-10)
    assert "entries" not in vars(generators)


def test_two_two_holds_no_analysis_matrix():
    # Gabor 512/8/8: K = 4096, so that a K x n array is 33.6 MB and K x K 268 MB;
    # the rows are read eight time shifts at a time, and the QR of [R; rows]
    # holds 2n x n twice
    frame = make_gabor_frame(512, 8, 8, gaussian_window(512))
    gm = galerkin_matrix(make_test_operator("identity_minus_kernel", 512, theta=0.5),
                         frame, canonical_dual(frame))
    w = Weight(decay_envelope(np.arange(frame.size), 1.0))
    gm.generator.spectrum   # cached before the trace: the operator is an input
    tracemalloc.start()
    try:
        cert = schur_certificate(gm, "two_two", weights=(w, w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.to_dict()["sound"] and "entries" not in vars(gm)
    assert peak < frame.size * 512 * 16 < frame.size ** 2 * 16 / 4


def test_one_row_block_at_a_time(monkeypatch):
    # blocks of n rows, the least a block holds: the QR of [R; next rows], step by
    # step, gives the bound of the one-block QR within the rounding terms of both
    frame = make_gabor_frame(64, 8, 4, gaussian_window(64))
    gm = galerkin_matrix(make_test_operator("helmholtz_toy", 64), frame, canonical_dual(frame))
    w = Weight(decay_envelope(np.arange(frame.size), 2.0))
    whole = schur_certificate(gm, "two_two", weights=(w, w))
    monkeypatch.setattr(locframes.galerkin, "FACTOR_BYTES", 64 * 16)
    assert [rows for rows, _ in locframes.galerkin._analysis_rows(frame, w.values)] == [
        slice(0, 64), slice(64, 128)]
    stacked = schur_certificate(gm, "two_two", weights=(w, w))
    assert stacked.details["rounding"] > whole.details["rounding"]
    truth = np.linalg.norm(w.values[:, None] * gm.entries / w.values, 2)
    for cert in (whole, stacked):
        assert truth <= cert.certified_bound <= truth * (1 + 1e-8)


@pytest.mark.parametrize("case", CERTIFICATE_CASES[:-1])
def test_closed_forms_hold_no_analysis_matrix(case):
    # Gabor 512/8/8 against its dual, K = 4096: the closed forms read the Walnut
    # stack (K x mt moduli) and apply M through the Walnut blocks; their parent
    # built the K x K entries (268 MB)
    frame = make_gabor_frame(512, 8, 8, gaussian_window(512))
    gm = galerkin_matrix(make_test_operator("identity_minus_kernel", 512, theta=0.5),
                         frame, canonical_dual(frame))
    w = Weight(decay_envelope(np.arange(frame.size), 1.0))
    gm.generator.spectrum
    tracemalloc.start()
    try:
        cert = schur_certificate(gm, case, p=3.0, weights=(w, w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.to_dict()["sound"] and "entries" not in vars(gm)
    assert frame._vectors is None and canonical_dual(frame)._vectors is None
    assert peak < frame.size * 512 * 16


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_extreme_weights_exit_as_the_dense_container(tmp_path, case):
    # K = 32: (1 + k)^t reaches 32^t, finite up to the whole power 204; at 205 the
    # weights leave float64, and at w2 power 204.79 the row sums do
    assert main(["frame", "build", "--kind", "gabor", "--n", "16", "--a", "4", "--b", "2",
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["galerkin", "assemble", "--frame", str(tmp_path / "frame"),
                 "--out-dir", str(tmp_path / "gen")]) == 0
    assert json.loads((tmp_path / "gen" / "galerkin.json").read_text())["generators"] is True
    io.save_array(tmp_path / "dense" / "galerkin", io.load_galerkin(tmp_path / "gen" / "galerkin")
                  .entries, {"container": "galerkin_matrix", "ambient_dim": 16})
    for flag, power in [(flag, power) for flag in ("--w1-power", "--w2-power")
                        for power in ("204", "205")] + [("--w2-power", "204.79")]:
        got = []
        for matrix in ("gen", "dense"):
            out = tmp_path / f"{matrix}-{flag}-{power}"
            code = main(["galerkin", "certify", "--matrix", str(tmp_path / matrix / "galerkin"),
                         "--case", case, flag, power, "--out-dir", str(out)])
            got.append((code, json.loads((out / ("error.json" if code else
                                                 f"certificate_{case}.json")).read_text())))
        (code, gen), (dense_code, dense) = got
        assert code == dense_code, (flag, power, gen, dense)
        if code:
            assert gen["code"] == dense["code"] == "invalid-input"
            continue
        assert gen["sound"] and gen["tight"] == dense["tight"], (flag, power, gen)
        assert 0 < gen["witness_lower_bound"] <= gen["certified_bound"] * (1 + 1e-8) < math.inf
        if case != "two_two":
            assert gen["certified_bound"] == pytest.approx(dense["certified_bound"], rel=1e-12)


class TestMalformedGeneratorContainer:
    """A generator container that does not describe a lattice pair exits 2 with
    an input-file error.json, never with a traceback."""

    @staticmethod
    def container(tmp_path):
        frame = make_gabor_frame(32, 4, 4, gaussian_window(32))
        op = make_test_operator("identity_minus_kernel", 32, theta=0.5)
        io.save_galerkin_matrix(tmp_path / "galerkin", galerkin_matrix(op, frame,
                                                                       canonical_dual(frame)))
        return io.load_array(tmp_path / "galerkin")

    @pytest.mark.parametrize("case", ["no_lattice", "no_side", "bad_side", "short_window",
                                      "not_dividing", "index_set", "nan", "zero_window",
                                      "float_steps", "not_a_list", "not_true", "grid_size",
                                      "zero_step"])
    def test_exits_2(self, tmp_path, case):
        arr, sidecar = self.container(tmp_path)
        if case in ("no_lattice", "no_side"):
            del sidecar[case[3:]]
        elif case == "bad_side":
            sidecar["side"] = "frequency"
        elif case == "short_window":
            arr = arr[:, :-1]
        elif case == "not_dividing":
            sidecar["lattice"] = [5, 4]
        elif case == "index_set":
            sidecar["right_index_set"] = locframes.IndexSet.torus_grid(8, 4).to_dict()
        elif case == "nan":
            arr[1, 3] = np.nan
        elif case == "zero_window":
            arr[0] = 0
        elif case == "float_steps":
            sidecar["lattice"] = [4.0, 4]
        elif case == "not_true":
            sidecar["generators"] = 1
        elif case == "grid_size":   # 2^40 points against K = 64, read without forming them
            sidecar["left_index_set"]["grid"] = [1 << 20, 1 << 20]
        elif case == "zero_step":
            sidecar["lattice"] = [0, 4]
        else:
            sidecar["lattice"] = 4
        np.save(tmp_path / "galerkin.npy", arr)
        (tmp_path / "galerkin.json").write_text(json.dumps(sidecar))
        for certificate in ("inf_inf", "two_two"):
            out = tmp_path / certificate
            assert main(["galerkin", "certify", "--matrix", str(tmp_path / "galerkin"),
                         "--case", certificate, "--out-dir", str(out)]) == 2
            assert json.loads((out / "error.json").read_text())["code"] == "input-file"

    def test_in_process_load_raises_input_file_error(self, tmp_path):
        arr, sidecar = self.container(tmp_path)
        del sidecar["lattice"]
        with pytest.raises(locframes.InputFileError):
            io.galerkin_from(tmp_path / "galerkin", arr, sidecar)
        assert main(["galerkin", "certify", "--matrix", str(tmp_path / "galerkin"),
                     "--out-dir", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("name", ["onb", "translates", "ponb", "gabor144", "riesz"])
def test_two_two_factors_on_any_frame_pair(suite_frames, name):
    # dense frames read their vectors' rows; a Riesz sequence (K < n) has an R of K rows
    frame = riesz_sequence() if name == "riesz" else suite_frames[name]
    right = frame if name == "riesz" else canonical_dual(frame)
    op = make_test_operator("identity_minus_kernel", frame.ambient_dim, theta=0.5).dense()
    gm = galerkin_matrix(op, frame, right)
    w1, w2 = (Weight(decay_envelope(np.arange(frame.size), t)) for t in (0.5, 1.5))
    cert = schur_certificate(gm, "two_two", weights=(w1, w2))
    truth = np.linalg.norm(w2.values[:, None] * gm.entries / w1.values, 2)
    assert truth <= cert.certified_bound <= truth * (1 + 1e-8)
    assert cert.witness_lower_bound == pytest.approx(truth, rel=1e-10)
