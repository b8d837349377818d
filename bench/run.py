"""Benchmark of the locframes CLI pipelines.

    python3 bench/run.py --workload gabor-galerkin --seed 1 --seconds 30 --trace 0

Builds nothing: it imports ``locframes`` from ``src/`` of the checkout
it sits in and exits 2 when that source is missing.  Prints a detail
JSON line (environment, every metric, failures), then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gabor-galerkin", "onb-finite-section", "frame-diagnostics")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import locframes.cli; "
                "print(time.perf_counter() - t)")


def blas_threads(environ, nproc):
    """The BLAS thread count: the first valid request, capped at nproc.

    Without a request it is nproc, the count OpenBLAS picks by default on
    a machine it has to itself, which is how the CLI normally runs.
    """
    for var in THREAD_VARS:
        value = environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), nproc)
    return nproc


def import_times(src):
    """Import time of locframes.cli in IMPORT_PROBES fresh interpreters."""
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_PROBES)]


def environment(nproc, threads, requested, seed, params):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env_requested": requested,
        "thread_env_used": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
        "workload": params,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "locframes" / "__init__.py").is_file():
        print(f"bench: no locframes source under {src}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    requested = {v: os.environ.get(v) for v in THREAD_VARS}
    threads = blas_threads(os.environ, nproc)
    for var in THREAD_VARS:   # must precede the first numpy import
        os.environ[var] = str(threads)

    probes = import_times(src)
    sys.path.insert(0, str(src))
    import locframes
    if Path(locframes.__file__).resolve().parent != (src / "locframes").resolve():
        print(f"bench: imported locframes from {locframes.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        final, detail = harness.measure(args.workload, work, args.seed, args.seconds,
                                        args.trace, statistics.median(probes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run still uses it
            pass
    detail["end_to_end"]["setup_s"]["import_probes_s"] = probes
    detail["environment"] = environment(nproc, threads, requested, args.seed,
                                        workloads.parameters(args.workload, "full"))
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
