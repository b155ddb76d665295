"""Host-normalised benchmark of the Two-Step SpMV engine against scipy.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-er10k --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: every timed figure is the
engine's wall time divided by scipy's wall time for the same work on the
same inputs, measured back to back in this process.  ``--trace 1`` runs
a separate pass that replays each op through the engine's public layer
calls with the benchmark's own spans around them, and prints the
per-layer metrics.  The last line of standard output is the result
object; the line before it holds provenance, sample counts and, for
traced runs, self times per span.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Measure what a user gets: default options, no REPRO_* overrides, and at
# most two busy threads (the caller plus the serving batch thread).
CLEARED_ENV = sorted(k for k in os.environ if k.startswith("REPRO_"))
for _key in CLEARED_ENV:
    del os.environ[_key]
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def l3_bytes() -> int | None:
    """Last-level cache size from libc ``sysconf``, or None."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        size = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE (glibc)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def provenance() -> dict:
    from importlib import metadata

    import numpy
    import scipy

    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = None
    return {
        "cpu_count": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "cleared_env": CLEARED_ENV,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes (self-test)")
    parser.add_argument(
        "--perturb", action="store_true", help="corrupt every engine result before it is checked (self-test)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    from common import Gate, LayerTable, Tracer, peak_rss_mb
    from wl_pagerank import PageRankWorkload
    from wl_serve import ServeWorkload
    from wl_spgemm import SpGEMMWorkload

    workloads = {w.name: w for w in (PageRankWorkload, ServeWorkload, SpGEMMWorkload)}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2

    detail = {"workload": args.workload, "seed": args.seed, "toy": args.toy, "host": provenance()}
    detail["loadavg_start"] = os.getloadavg()
    gate = Gate(perturb=args.perturb)
    started = time.perf_counter()
    workload = workloads[args.workload](args.seed, args.toy, gate)
    detail["input_s"] = time.perf_counter() - started
    l3 = detail["host"]["l3_bytes"]
    detail["x_bytes"] = workload.x_bytes
    detail["x_over_l3"] = workload.x_bytes / l3 if l3 else None

    if args.trace:
        tracer, table = Tracer(), LayerTable()
        detail["pass"] = workload.trace(args.seconds, tracer, table)
        metrics, counts = table.metrics()
        detail["samples"] = counts
        detail["self_time"] = tracer.self_times()
        detail["unattributed_ms_per_op"] = table.unattributed_per_op()
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.records()))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["peak_rss_mb"] = peak_rss_mb()
    else:
        values, detail["pass"] = workload.measure(args.seconds)
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    detail["loadavg_end"] = os.getloadavg()
    detail["first_failure"] = gate.first_failure
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0 and gate.attempted > 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
