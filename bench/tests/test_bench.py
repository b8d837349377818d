"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    final, detail = harness.measure(name, tmp_path, seed=3, seconds=0, trace=False,
                                    import_s=0.1, size="tiny")
    assert detail["failures"] == []
    assert final["correct"] and final["failed"] == 0
    assert detail["end_to_end"]["failed_frac"]["value"] == 0
    assert final["attempted"] == detail["passes"] * len(detail["command_s_p50"])
    assert set(final["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in final["metrics"].values())


def _namespaces():
    """Every attribute of every locframes module and class, and numpy.linalg."""
    seen = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "locframes" or modname.startswith("locframes."):
            for attr, obj in vars(mod).items():
                seen[(modname, attr)] = obj
                if isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in obj.items():
                        seen[(modname, attr, key)] = value
                if isinstance(obj, type) and obj.__module__ == modname:
                    for mattr, mobj in vars(obj).items():
                        seen[(modname, attr, mattr)] = mobj
    for entry in tracing.KERNEL_ENTRIES:
        seen[("numpy.linalg", entry)] = getattr(np.linalg, entry)
    return seen


def test_install_wraps_every_namespace_and_restore_puts_originals_back():
    import locframes.cli
    import locframes.solver

    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # solver holds its own reference to galerkin_matrix
        assert locframes.solver.galerkin_matrix is not before[("locframes.solver", "galerkin_matrix")]
        assert locframes.cli.main.__wrapped__ is before[("locframes.cli", "main")]
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
    finally:
        tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_command_records_spans_of_the_dispatched_subcommand(tmp_path):
    import locframes.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id = 1
        rc = locframes.cli.main(["frame", "build", "--kind", "gabor", "--n", "32", "--a", "4",
                                 "--b", "4", "--seed", "1", "--out-dir", str(tmp_path)])
    finally:
        tracer.restore()
    assert rc == 0
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    # main dispatches through cli.COMMANDS, not through the module attribute
    assert "cli.cmd_frame_build" in names
    assert tracer.spans[names.index("cli.cmd_frame_build")].parent == 0
    assert any(n.startswith("io.") for n in names)


def test_traced_run_counts_layers_and_restores_originals(tmp_path):
    before = _namespaces()
    final, detail = harness.measure("frame-diagnostics", tmp_path, seed=3, seconds=0,
                                    trace=True, import_s=0.1, size="tiny")
    after = _namespaces()
    assert [k for k in before if after[k] is not before[k]] == []
    assert final["correct"]
    assert set(final["metrics"]) == set(harness.PER_LAYER)
    assert detail["unsteady_counts"] == []
    layer = detail["per_layer"]
    assert layer["localization.localization_report.calls"]["value"] > 0
    assert layer["indexing.distance_cells"]["value"] > 0
    assert layer["galerkin.schur_certificate.s"]["value"] > 0
    assert layer["solver.cg.iterations"]["value"] == 0


def test_counts_repeat_across_runs_with_the_same_seed(tmp_path):
    def counts():
        final, _ = harness.measure("onb-finite-section", tmp_path, seed=5, seconds=0,
                                   trace=True, import_s=0.1, size="tiny")
        return {k: m["value"] for k, m in final["metrics"].items()
                if harness.PER_LAYER[k] in ("count", "B", "GFLOP")}

    first = counts()
    assert first["solver.levels"] > 0 and first["solver.cg.iterations"] > 0
    assert counts() == first


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("cli.main", "cli", 0.0, 10.0, -1),
        Span("solver.a", "solver", 1.0, 6.0, 0),
        Span("kernel.svd", "kernel", 2.0, 4.0, 1),
        Span("solver.a", "solver", 4.5, 5.5, 1),
        Span("io.save", "io", 7.0, 8.0, 0),
        Span("io.write", "io", 7.5, 9.0, 4),   # overruns its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 1.0, 0.5, 1.5])
    out = tracing.pass_summary(spans)
    assert out["solver.a.s"] == pytest.approx(5.0)        # outermost call only
    assert out["solver.a.calls"] == 2
    assert out["solver.s"] == pytest.approx(5.0)
    assert out["solver.self_s"] == pytest.approx(3.0)
    assert out["io.self_s"] == pytest.approx(2.0)
    assert out["kernel.factor.s"] == pytest.approx(2.0)
    assert out["solver.kernel_factor_frac"] == pytest.approx(2.0 / 5.0)


def test_tail_keeps_ten_samples_beyond_it():
    assert harness.tail(list(range(10))) == (None, None)
    value, pct = harness.tail(list(range(30, 0, -1)))
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)


def test_oracle_operator_matches_the_package():
    from locframes.solver import make_test_operator

    dense = make_test_operator("identity_minus_kernel", 40, theta=workloads.THETA).dense()
    assert np.allclose(workloads.oracle_operator(40), dense, rtol=0, atol=1e-15)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gabor-galerkin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
