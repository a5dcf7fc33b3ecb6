"""One benchmark process: set up a workload, run its passes, print the result.

``run.py`` starts this file with one BLAS thread and ``src`` on the import
path. The worker prints ``READY`` once its inputs are set up (``run.py`` times
set-up by it), then, unless ``--setup-only``, runs passes for ``--seconds`` and
prints one JSON line: the operation counts, the metrics and run information.

With ``--trace 1`` every untraced pass is followed by a traced one, and the
per-layer metrics come with the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import workloads
from tracing import Totals, Tracer

# Layers reported by call count and inclusive seconds per traced pass.
COUNTED_LAYERS = (
    "fitting.fit_model",
    "fitting.link_fun", "fitting.link_jac", "fitting.link_hess",
    "fitting.moment_fun", "fitting.moment_jac", "fitting.moment_hess",
    "wald.f_jacobian",
    "design.score_vector", "design.moment_matrix",
    "moments.moments",
    "projection.iproject",
    "chi2.chi2_sf",
    "tables.orbit_sums",
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def timed_pass(workload, outcome) -> float:
    t0 = time.perf_counter()
    outcome.add(workload.run_pass())
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(times, outcome, rss_mb: float) -> dict:
    return {
        "pass_ms_p50": (1000.0 * float(np.median(times)), "ms"),
        "ok_ratio": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(t: Totals, cold_s: float, overhead_pct: float) -> dict:
    n = t.passes

    def layer(name):
        return t.layers.get(name, (0, 0.0, 0.0))

    out = {}
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = (layer(name)[0] / n, "count")
        out[f"{name}.s"] = (layer(name)[1] / n, "s")
    durations = [s for _, _, s in t.fits]
    iterations = [i for _, i, _ in t.fits if i is not None]
    for kind in ("link", "moment"):
        out[f"fitting.fit_model.{kind}_s"] = (
            sum(s for k, _, s in t.fits if k == kind) / n, "s")
    out["fitting.fit_model.ms_p50"] = (1000.0 * float(np.percentile(durations, 50)), "ms")
    out["fitting.fit_model.ms_p90"] = (1000.0 * float(np.percentile(durations, 90)), "ms")
    out["fitting.fit_errors"] = (sum(1 for _, i, _ in t.fits if i is None) / n, "count")
    out["fitting.iterations.sum"] = (sum(iterations) / n, "count")
    out["fitting.iterations.max"] = (max(iterations, default=0), "count")
    out["fitting.solver_self_s"] = (layer("fitting.fit_hlp")[2] / n, "s")
    evaluations = layer("fitting.link_fun")[0] + layer("fitting.moment_fun")[0]
    out["fitting.probe_accept_ratio"] = (
        sum(iterations) / evaluations if evaluations else 0.0, "ratio")
    out["wald.decompose.self_s"] = (layer("wald.decompose")[2] / n, "s")
    out["design.design_matrix.cold_s"] = (cold_s, "s")
    out["simulate.mvn_sample.s"] = (layer("simulate.mvn_sample")[1] / n, "s")
    out["simulate.discretize.s"] = (layer("simulate.discretize")[1] / n, "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def measure(workload, seconds: float, trace: bool, cold_s: float = 0.0) -> dict:
    """Run passes for ``seconds``, at least one, and return counts, metrics and run information.

    A traced run follows every untraced pass with a traced one, so that the
    overhead compares passes run close together in time. Peak memory is read
    after the first pass: later passes can only add heap fragmentation, and
    how many of them fit in ``seconds`` depends on the speed of the machine.
    """
    outcome = workloads.Outcome()
    plain, traced = [], []
    tracer, totals = Tracer(), Totals()
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(timed_pass(workload, outcome))
        if len(plain) == 1:
            rss_mb = peak_rss_mb()
        if trace:
            tracer.install()
            try:
                traced.append(timed_pass(workload, outcome))
            finally:
                tracer.restore()
            tracer.fold(totals)
    if trace:
        overhead = 100.0 * (float(np.median(traced)) / float(np.median(plain)) - 1.0)
        metrics = per_layer(totals, cold_s, overhead)
    else:
        metrics = end_to_end(plain, outcome, rss_mb)
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": sorted(set(outcome.errors)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "passes": len(plain) + len(traced),
            "fits": outcome.fits,
            "blas_threads": blas_threads(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    cold_s = workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seconds, bool(args.trace), cold_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
