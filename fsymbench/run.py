#!/usr/bin/env python3
"""fsym benchmark: run one workload and print its metrics.

Usage, from the root of an fsym checkout:

    python3 fsymbench/run.py --workload {power,anes,ladder} --seed N \
        --seconds S --trace {0,1}

The workload runs in a worker process with one BLAS thread and the checkout's
``src`` first on the import path. Set-up (interpreter start, imports, inputs
and the first cold design builds) is timed in separate processes as well and
reported as the median. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Without fsym sources under ``src/`` the script exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 9  # set-up timings per run: eight set-up-only processes and the worker
DEADLINE_S = 170.0  # the whole run, set-ups included
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("power", "anes", "ladder")


class BenchError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Without numpy's huge-page advice, peak RSS counts the pages touched and
    # does not depend on whether the kernel has free 2 MB pages at the time.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def start(cmd: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; return it and its set-up time."""
    t0 = time.perf_counter()
    # Unbuffered, so that reading the READY line takes nothing more from the pipe.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        if line.strip() != b"READY":
            raise BenchError(f"worker did not set up (exit status {proc.poll()})")
    except BaseException:
        stop(proc)
        raise
    return proc, time.perf_counter() - t0


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a started worker to exit and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline")
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out.decode()


def run(args, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, seconds = start(cmd + ["--setup-only"], env, deadline)
        finish(proc, deadline)
        setups.append(seconds)
    proc, seconds = start(
        cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
    )
    setups.append(seconds)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fsym" / "__init__.py").is_file():
        print(f"run.py: no fsym sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    info = " ".join(f"{k}={v}" for k, v in result["info"].items())
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {info}")
    for message in result["errors"]:
        print(f"# failed: {message}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name:<36s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
