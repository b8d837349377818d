"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one ``[acceptance] criterion N PASS/FAIL`` line
(visible with ``pytest -s tests/test_acceptance.py``).
"""

import itertools
from contextlib import contextmanager

import numpy as np

import locframes as lf
from locframes import (
    IndexSet,
    MatrixAlgebraSpec,
    SeqSpaceSpec,
    Weight,
)
from locframes.cli import main as cli_main
from locframes.galerkin import certificate_probe_norm
from locframes.opnorms import (
    exact_operator_norm,
    rayleigh_lower_l2,
    weighted_matrix,
)
from locframes.solver import ProjectionSchedule

from conftest import mercedes_frame


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {title}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {title}")


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_criterion_01_frame_axioms(suite_frames):
    with criterion(1, "frame axioms: ONB and Mercedes bounds, energy sandwich"):
        a, b = lf.frame_bounds(lf.make_onb(64))
        assert abs(a - 1.0) <= 1e-12 and abs(b - 1.0) <= 1e-12
        ma, mb = lf.frame_bounds(mercedes_frame())
        assert abs(ma - 1.5) <= 1e-12 and abs(mb - 1.5) <= 1e-12
        rng = np.random.default_rng(1001)
        for frame in suite_frames.values():
            lo, hi = lf.frame_bounds(frame)
            for _ in range(100):
                f = random_vec(rng, frame.ambient_dim)
                energy = float(np.sum(np.abs(lf.analysis(frame, f)) ** 2))
                nf2 = float(np.linalg.norm(f) ** 2)
                assert lo * nf2 * (1 - 1e-12) <= energy <= hi * nf2 * (1 + 1e-12)


def test_criterion_02_reconstruction(suite_frames):
    with criterion(2, "dual reconstructions reproduce f to 1e-10 on all frames"):
        rng = np.random.default_rng(1002)
        for frame in suite_frames.values():
            dual = lf.canonical_dual(frame)
            for _ in range(100):
                f = random_vec(rng, frame.ambient_dim)
                nf = np.linalg.norm(f)
                r1 = lf.synthesis(dual, lf.analysis(frame, f))
                r2 = lf.synthesis(frame, lf.analysis(dual, f))
                assert np.linalg.norm(r1 - f) <= 1e-10 * nf
                assert np.linalg.norm(r2 - f) <= 1e-10 * nf


def test_criterion_03_gram_projection(suite_frames):
    with criterion(3, "Gram projection idempotent, self-adjoint, norm >= 1"):
        for frame in suite_frames.values():
            p = lf.gram(frame, lf.canonical_dual(frame))
            assert np.linalg.norm(p @ p - p, 2) <= 1e-10
            assert np.linalg.norm(p - np.conj(p.T), 2) <= 1e-10
            w = Weight.ones(frame.size)
            pb = weighted_matrix(p, w.values, w.values)
            for q in (1.0, np.inf):
                assert exact_operator_norm(pb, q, q) >= 1 - 1e-10
            assert rayleigh_lower_l2(pb) >= 1 - 1e-10


def test_criterion_04_norm_equivalence(suite_frames):
    with criterion(4, "coorbit norm equivalence constants sandwich, p in {1,inf}"):
        rng = np.random.default_rng(1004)
        for frame in suite_frames.values():
            dual = lf.canonical_dual(frame)
            for p, t in itertools.product((1.0, np.inf), (0.0, 1.0)):
                spec = SeqSpaceSpec(p, Weight.polynomial(t, frame.index_set))
                lo, up = lf.equivalence_constants(frame, spec)
                violations = 0
                for _ in range(100):
                    f = random_vec(rng, frame.ambient_dim)
                    h_norm = lf.seq_norm(lf.analysis(dual, f), spec)
                    c_norm = lf.seq_norm(lf.analysis(frame, f), spec)
                    ok = (lo * h_norm * (1 - 1e-10) <= c_norm
                          <= up * h_norm * (1 + 1e-10))
                    violations += not ok
                assert violations == 0


def test_criterion_05_galerkin_identities(suite_frames):
    with criterion(5, "roundtrip/composition residuals <= 1e-10 on a 3x4 grid"):
        n = 64
        rng = np.random.default_rng(1005)
        operators = [
            lf.make_test_operator("identity_minus_kernel", n, theta=0.5, exponent=3),
            lf.make_test_operator("helmholtz_toy", n),
            lf.make_test_operator("diagonal", n, spectrum=np.arange(1.0, n + 1.0)),
        ]
        pairs = [
            (suite_frames["gabor64"], suite_frames["translates"]),
            (suite_frames["ponb"], suite_frames["gabor64"]),
            (suite_frames["onb"], suite_frames["ponb"]),
            (suite_frames["translates"], suite_frames["translates"]),
        ]
        partner = lf.LinearOperator(
            rng.standard_normal((n, n)) / n + np.eye(n)
        )
        for op in operators:
            for phi, psi in pairs:
                assert lf.roundtrip_check(op, phi, psi) <= 1e-10
                assert lf.compose_rule_check(
                    op, partner, phi, psi, suite_frames["ponb"]
                ) <= 1e-10
        for frame in (suite_frames["gabor16"], suite_frames["gabor64"]):
            dual = lf.canonical_dual(frame)
            gm = lf.galerkin_matrix(lf.LinearOperator.identity(frame.ambient_dim),
                                    frame, dual)
            assert np.abs(gm.entries - lf.gram(frame, dual)).max() <= 1e-12


def test_criterion_06_schur_certificates():
    with criterion(6, "Schur certificates sound on 50 decaying matrices per case"):
        rng = np.random.default_rng(1006)
        iset = IndexSet.ring(32)
        d = iset.distance_matrix()
        w1 = Weight.ones(32)
        w2 = Weight.polynomial(0.5, iset)
        for case in ("inf_inf", "one_inf", "one_p", "two_two"):
            for _ in range(50):
                m = (rng.standard_normal((32, 32))
                     + 1j * rng.standard_normal((32, 32))) * (1 + d) ** -2.5
                cert = lf.schur_certificate(m, case, p=2.0, weights=(w1, w2))
                measured = certificate_probe_norm(m, cert, probes=50, seed=3)
                assert measured <= cert.certified_bound * (1 + 1e-8)
                if case == "two_two":
                    assert cert.details["svd_ground_truth"] <= \
                        cert.certified_bound * (1 + 1e-8)


def test_criterion_07_empirical_inverse_closedness(suite_frames):
    with criterion(7, "Gabor Z144 Gaussian: primal fit > 3, dual localized at s=3"):
        frame = suite_frames["gabor144"]
        alg = MatrixAlgebraSpec("jaffard", 3.0)
        res = lf.dual_localization_check(frame, alg)
        primal_fit = res.primal.fit.fitted_exponent
        dual_fit = res.dual.fit.fitted_exponent
        assert primal_fit > 3.0
        # dual-exponent bar is s - 0.5 = 2.5, and the dual must stay a
        # member of the same algebra.  A Gaussian primal fits
        # superpolynomially, so the raw primal-dual gap is recorded as
        # data rather than gated.
        assert dual_fit >= 2.5
        assert res.dual.member
        print(f"[acceptance]   criterion 7 data: primal fit {primal_fit:.2f}, "
              f"dual fit {dual_fit:.2f}, "
              f"exponent drop flag {res.exponent_drop_flagged}")


def test_criterion_08_inclusion_equivalence(suite_frames):
    with criterion(8, "coorbit inclusion mirrors sequence spaces on a 20-case grid"):
        grid = []
        for p_a, p_b in itertools.product((1.0, 2.0, np.inf), repeat=2):
            for t_a, t_b in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
                grid.append((p_a, t_a, p_b, t_b))
        grid = grid[:20]
        assert len(grid) == 20
        big = lf.make_gabor_frame(256, 16, 8, lf.gaussian_window(256))
        frames = list(suite_frames.values()) + [big]
        for frame in frames:
            assert frame.min_vector_norm() >= 1e-6
            iset = frame.index_set
            for p_a, t_a, p_b, t_b in grid:
                a = SeqSpaceSpec(p_a, Weight.polynomial(t_a, iset))
                b = SeqSpaceSpec(p_b, Weight.polynomial(t_b, iset))
                seq = lf.seq_space_included(a, b)
                coo = lf.coorbit_inclusion(frame, a, b)
                assert coo.included == seq.included
                if not coo.included:
                    ratios = [r for n, r in coo.schedule_ratios if 16 <= n <= 512]
                    assert all(x < y for x, y in zip(ratios, ratios[1:]))
                    assert coo.monotone
        # witness growth demonstrated through a frame with K = 512
        w = Weight.ones(big.size)
        rep = lf.coorbit_inclusion(
            big, SeqSpaceSpec(np.inf, w), SeqSpaceSpec(1.0, w)
        )
        vals = [r for _, r in rep.frame_ratios]
        assert vals[0] >= 1.0 and vals[-1] > 10 * vals[0]
        assert all(x < y * (1 + 1e-9) for x, y in zip(vals, vals[1:]))


def test_criterion_09_finite_section_convergence():
    with criterion(9, "finite sections: contraction 0.5, errors nonincreasing"):
        n = 128
        a = lf.make_test_operator("identity_minus_kernel", n, theta=0.5, exponent=3)
        assert abs(np.linalg.norm(np.eye(n) - a.dense(), 2) - 0.5) <= 1e-12
        x = np.arange(n)
        y = np.exp(-np.pi * (x - n // 2) ** 2 / (0.02 * n * n)).astype(complex)
        onb = lf.make_onb(n)
        sched = ProjectionSchedule(onb)
        report, solution = lf.finite_section_solve(a, y, sched, method="direct",
                                                   tol=1e-8)
        assert report.converged
        assert report.contraction_sufficient
        x_star = np.linalg.solve(a.dense(), y)
        energies = [
            np.linalg.norm(sched.projection(i).dense() @ x_star) ** 2
            / np.linalg.norm(x_star) ** 2
            for i in range(len(sched.levels))
        ]
        first99 = next(i for i, e in enumerate(energies) if e >= 0.99)
        errors = [lv.error for lv in report.levels]
        tail = errors[first99:]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(tail, tail[1:]))
        assert errors[-1] <= 1e-8
        assert report.sup_inverse_norm <= 2.0 / (1 - 0.5) + 0.1


def test_criterion_10_frame_galerkin_solve(suite_frames):
    with criterion(10, "CG solves the singular frame system to 1e-8"):
        frame = suite_frames["gabor64"]  # redundancy 2
        op = lf.make_test_operator("identity_minus_kernel", 64, theta=0.5,
                                   exponent=3)
        rng = np.random.default_rng(1010)
        g = random_vec(rng, 64)
        gm = lf.galerkin_matrix(op, frame, frame)
        assert lf.numerical_rank(gm.entries) < frame.size  # singular matrix
        f, report = lf.frame_galerkin_solve(op, g, frame, method="cg", tol=1e-8)
        assert report.converged
        assert np.linalg.norm(op.apply(f) - g) <= 1e-8 * np.linalg.norm(g)
        assert np.linalg.norm(f - np.linalg.solve(op.dense(), g)) <= 1e-8


def test_criterion_11_kappa_probe(suite_frames):
    with criterion(11, "kappa factorization: ONB equality, redundant <="):
        rng = np.random.default_rng(1011)
        onb = lf.make_onb(32)
        for _ in range(5):
            op = rng.standard_normal((32, 32)) + 6 * np.eye(32)
            out = lf.kappa_factorization_probe(op, onb, onb)
            assert abs(out["lhs"] - out["rhs"]) <= 1e-10 * out["rhs"]
        gab = suite_frames["gabor64"]
        tra = suite_frames["translates"]
        drifts = []
        for _ in range(20):
            op = rng.standard_normal((64, 64)) + 8 * np.eye(64)
            out = lf.kappa_factorization_probe(op, gab, tra)
            assert out["submultiplicative"]
            if abs(out["lhs"] - out["rhs"]) > 1e-10 * out["rhs"]:
                drifts.append(out["ratio"])
        if drifts:
            print(f"[acceptance]   criterion 11 open-question data: "
                  f"{len(drifts)} equality deviations, ratio range "
                  f"[{min(drifts):.3f}, {max(drifts):.3f}] (logged, not failed)")


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "identical seeds give byte-identical CLI artifacts"):
        def run_suite(root):
            frame_dir = root / "frame"
            assert cli_main(["frame", "build", "--kind", "perturbed-onb",
                             "--n", "48", "--seed", "5",
                             "--out-dir", str(frame_dir)]) == 0
            assert cli_main(["frame", "diag", "--frame", str(frame_dir / "frame"),
                             "--seed", "5", "--out-dir", str(root / "diag")]) == 0
            assert cli_main(["galerkin", "assemble",
                             "--frame", str(frame_dir / "frame"),
                             "--right", "dual", "--op-kind",
                             "identity_minus_kernel", "--theta", "0.5",
                             "--seed", "5", "--out-dir", str(root / "gal")]) == 0
            assert cli_main(["galerkin", "certify",
                             "--matrix", str(root / "gal" / "galerkin"),
                             "--case", "two_two", "--seed", "5",
                             "--out-dir", str(root / "cert")]) == 0
            assert cli_main(["solve", "fs", "--op-kind", "identity_minus_kernel",
                             "--theta", "0.5", "--n", "48", "--method", "cg",
                             "--seed", "5", "--out-dir", str(root / "fs")]) == 0
            assert cli_main(["solve", "fg", "--frame", str(frame_dir / "frame"),
                             "--op-kind", "identity_minus_kernel",
                             "--theta", "0.5", "--method", "cg", "--seed", "5",
                             "--out-dir", str(root / "fg")]) == 0

        run_suite(tmp_path / "run1")
        run_suite(tmp_path / "run2")
        files1 = sorted(p.relative_to(tmp_path / "run1")
                        for p in (tmp_path / "run1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "run2")
                        for p in (tmp_path / "run2").rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            b1 = (tmp_path / "run1" / rel).read_bytes()
            b2 = (tmp_path / "run2" / rel).read_bytes()
            assert b1 == b2, f"artifact differs: {rel}"
