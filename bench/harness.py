"""Closed-loop measurement of one workload, and the metrics it reports.

One client runs passes back to back, each command starting only after
the previous one returned, through ``locframes.cli.main(argv)`` in this
process.  Pass 0 warms up (first BLAS calls, lazy imports) and is the
reference: it is checked but not timed into any statistic, and every
later pass must write byte-identical artifacts and the same
localization verdicts.
"""

import hashlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import locframes.cli

import tracing
import workloads

SETUP_REPS = 3
MIN_PASSES = 3   # timed passes after the warm-up; a traced run has 2 traced, 1 untraced
TAIL_BEYOND = 10        # samples a tail percentile must keep beyond it

# reported on every workload with --trace 0 / --trace 1 (BENCHMARK.json)
END_TO_END = {"setup_s": "s", "pipeline_s_p50": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s", "io.s": "s", "frames.self_s": "s", "kernel.factor.s": "s",
    "indexing.distance_matrix.s": "s",
    "trace.overhead_frac": "frac", "kernel.gflop_est": "GFLOP",
    "io.calls": "count", "io.bytes_written": "B", "linalg.calls": "count",
    "frames.gram.calls": "count", "indexing.distance_matrix.calls": "count",
    "indexing.distance_cells": "count",
    "localization.localization_report.calls": "count", "weights.seq_norm.calls": "count",
    "solver.cg.iterations": "count", "solver.cg.normal_equations": "count",
    "solver.levels": "count",
    "kernel.svd.calls": "count", "kernel.norm2.calls": "count", "kernel.cond.calls": "count",
    "kernel.eigh.calls": "count", "kernel.lstsq.calls": "count",
    "kernel.cholesky.calls": "count",
}
# the full per-layer set, printed on the detail line; times that are 0 on a
# workload which never enters the layer are kept out of PER_LAYER above
LAYER_DETAIL = {
    **PER_LAYER,
    "solver.frame_galerkin_solve.self_s": "s", "solver.cg_solve.s": "s",
    "solver.kernel_factor_frac": "frac",
    "solver.finite_section_solve.self_s": "s", "solver.subframe_projection.s": "s",
    "solver.ProjectionSchedule.s": "s",
    "galerkin.galerkin_matrix.s": "s", "galerkin.roundtrip_check.s": "s",
    "galerkin.compose_rule_check.s": "s", "galerkin.kappa_factorization_probe.s": "s",
    "galerkin.schur_certificate.s": "s", "galerkin.certificate_probe_norm.s": "s",
    "localization.localization_report.s": "s", "localization.dual_localization_check.s": "s",
    "localization.equivalence_constants.s": "s", "algebras.shell_maxima.s": "s",
    "algebras.decay_fit.s": "s", "algebras.self_s": "s", "opnorms.self_s": "s",
    "frames.canonical_dual.s": "s", "frames.frame_bounds.s": "s", "frames.gram.s": "s",
    "linalg.pseudo_inverse.s": "s", "linalg.generalized_condition_number.s": "s",
}


@dataclass
class PassResult:
    index: int
    traced: bool
    seconds: float = 0.0
    command_s: dict = field(default_factory=dict)   # cmd key -> summed seconds
    label_s: dict = field(default_factory=dict)     # command label -> seconds
    failures: list = field(default_factory=list)
    attempted: int = 0
    bytes_written: int = 0


def _hash_tree(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Runner:
    """Set-up and passes of one workload in a private work directory."""

    def __init__(self, name, work, seed, size="full"):
        self.name, self.work, self.seed, self.size = name, work, seed, size
        self.commands = None
        self.reference = {}   # command label -> (artifact hashes, verdicts)

    def setup(self):
        """SETUP_REPS fresh input generations; returns their wall times."""
        times = []
        for rep in range(SETUP_REPS):
            target = self.work / "setup" / str(rep)
            t0 = time.perf_counter()
            inputs = workloads.setup(self.name, target, self.seed, self.size)
            times.append(time.perf_counter() - t0)
        self.commands = workloads.commands(self.name, inputs, self.size)
        return times

    def run_pass(self, index, tracer=None):
        res = PassResult(index, tracer is not None)
        out_root = self.work / "pass"
        shutil.rmtree(out_root, ignore_errors=True)
        for cmd in self.commands:
            out = out_root / cmd.label
            argv = cmd.argv + ["--seed", str(self.seed), "--out-dir", str(out)]
            res.attempted += 1
            if tracer is not None:
                tracer.pass_id = index
            t0 = time.perf_counter()
            try:
                rc = locframes.cli.main(argv)
            except Exception:   # a crash is a failed command, not a failed benchmark
                rc = "exception"
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.pass_id = None
            res.seconds += elapsed
            res.label_s[cmd.label] = elapsed
            res.command_s[cmd.key] = res.command_s.get(cmd.key, 0.0) + elapsed
            problem = f"exit code {rc}" if rc != 0 else self._check(cmd, out)
            if problem:
                res.failures.append(f"pass {index} {cmd.label}: {problem}")
        res.bytes_written = sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())
        return res

    def _check(self, cmd, out):
        try:
            for check in cmd.checks:
                problem = check(out, self.seed)
                if problem:
                    return problem
            seen = (_hash_tree(out), workloads.read_verdicts(out) if cmd.localization else None)
        except (OSError, ValueError, KeyError) as err:
            return f"artifact check failed: {err!r}"
        ref = self.reference.setdefault(cmd.label, seen)
        if seen[1] != ref[1]:
            return "localization verdicts differ from the reference pass"
        if seen[0] != ref[0]:
            changed = sorted(k for k in set(seen[0]) | set(ref[0])
                             if seen[0].get(k) != ref[0].get(k))
            return f"artifacts differ from the reference pass: {changed}"
        return None


# -- statistics ----------------------------------------------------------------


def tail(values):
    """Highest nearest-rank percentile keeping TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    rank = n - TAIL_BEYOND   # 1-based rank of the reported sample
    return sorted(values)[rank - 1], 100.0 * rank / n


def _metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


# -- the measured run ------------------------------------------------------------


def measure(name, work, seed, seconds, trace, import_s, size="full"):
    """Run one workload for ``seconds``; returns (final line, detail)."""
    runner = Runner(name, work, seed, size)
    setup_times = runner.setup()
    passes, traced_spans = [], []   # spans: one list per traced pass
    t_start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            passes.append(runner.run_pass(len(passes), tracer))
        finally:
            if tracer is not None:
                tracer.restore()
                traced_spans.append(tracer.spans)
        next_s = statistics.median(p.seconds for p in passes)
        if len(passes) - 1 >= MIN_PASSES and time.perf_counter() - t_start + next_s > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = len(failures)
    plain = [p for p in passes[1:] if not p.traced]
    pass_s = [p.seconds for p in plain]
    setup_s = import_s + statistics.median(setup_times)
    tail_s, tail_pct = tail(pass_s)
    e2e = {
        "setup_s": _metric(setup_s, "s", import_s=import_s, inputs_s=setup_times),
        "pipeline_s_p50": _metric(statistics.median(pass_s), "s", samples=len(pass_s)),
        "pipeline_s_tail": _metric(tail_s, "s", percentile=tail_pct, samples=len(pass_s)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "failed_frac": _metric(failed / attempted, "frac", failed=failed, attempted=attempted),
    }
    for key in dict.fromkeys(c.key for c in runner.commands):
        e2e[f"cmd.{key}_s"] = _metric(
            statistics.median(p.command_s[key] for p in plain), "s",
            samples=len(plain), invocations_per_pass=sum(c.key == key for c in runner.commands))
    detail = {
        "workload": name, "seed": seed, "trace": int(bool(trace)),
        "passes": len(passes),
        "warmup_s": passes[0].seconds,
        "pass_s": [p.seconds for p in plain],
        "command_s_p50": {label: statistics.median(p.label_s[label] for p in plain)
                          for label in plain[0].label_s},
        "end_to_end": e2e,
        "failures": failures[:20],
    }
    if trace:
        traced = [p for p in passes if p.traced]
        detail["traced_pass_s"] = [p.seconds for p in traced]
        detail.update(layer_metrics(traced_spans, traced, plain))
        metrics = {k: detail["per_layer"][k] for k in PER_LAYER}
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    return final, detail


def layer_metrics(traced_spans, traced, plain):
    """Per-pass medians of the span totals of the traced passes."""
    per_pass = [tracing.pass_summary(spans) for spans in traced_spans]
    metrics, unsteady = {}, []
    for key, unit in LAYER_DETAIL.items():
        if key == "trace.overhead_frac":
            untraced = statistics.median(p.seconds for p in plain)
            value = (statistics.median(p.seconds for p in traced) - untraced) / untraced
            metrics[key] = _metric(value, unit)
            continue
        if key == "io.bytes_written":
            samples = [p.bytes_written for p in traced]
        else:
            # distance_matrix is a method: its span carries the class name
            span_key = key.replace("indexing.distance_matrix.", "indexing.IndexSet.distance_matrix.")
            samples = [s.get(span_key, 0.0) for s in per_pass]
        value = statistics.median(samples)
        if unit in ("count", "B"):
            if len(set(samples)) > 1:
                unsteady.append(key)
            value = int(value) if float(value).is_integer() else value
        metrics[key] = _metric(value, unit)
    return {"per_layer": metrics, "unsteady_counts": unsteady}
