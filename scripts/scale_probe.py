#!/usr/bin/env python3
"""Time and memory of the large-table operations, each in a fresh process.

For each shape, one process draws the shape's ``ladder_table`` of seed 1
(``tests/conftest.py``: about 20 counts per cell) into a temporary file.
For each operation, another process loads those counts, runs the operation
once on cold caches and reports; this prints one JSON line per operation.
Linux keeps a process's peak resident set across ``execve``, so the table
is not drawn in the process that starts the others.  Each line has:

* ``shape``, ``cells``, ``op``;
* ``wall_s``: the operation's wall time, with tracemalloc off;
* ``rss_mb``: the process's peak resident set (``ru_maxrss``) after it,
  and ``rss_before_mb`` before it, so that the difference bounds what the
  operation added, LAPACK's work arrays included;
* ``traced_mb``: the tracemalloc peak of the same operation in a second
  fresh process (numpy's allocations only; LAPACK's are not seen).

Operations: ``gs`` (the gs[kl] fit), ``ve`` and ``ce`` (the ve and ce fits), ``decompose``
(under kl, with its six partition fits) and ``U`` (reading the gs design's
complement basis, an N x d1 array).  ``U`` is skipped, with the bytes it
would need, where ``fsym design`` would refuse it.
BLAS runs on one thread.

Usage: python scripts/scale_probe.py [--shapes 3^8,3^9,3^10,6^6] [--ops gs,ve,ce,decompose,U]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("3^8", "3^9", "3^10", "6^6")
OPS = ("gs", "ve", "ce", "decompose", "U")


def measure(r: int, T: int, op: str, path: str, trace: bool) -> dict:
    """Run op once in this process on the counts saved at path and return its figures."""
    sys.path.insert(0, str(ROOT / "src"))
    from fsym import CountTable, ModelSpec, TableShape, decompose, design_matrix, fit_model, kl

    counts = CountTable(TableShape(r, T), np.load(path))
    run = {
        "gs": lambda: fit_model(counts, ModelSpec("gs", kl())),
        "ve": lambda: fit_model(counts, ModelSpec("ve")),
        "ce": lambda: fit_model(counts, ModelSpec("ce")),
        "decompose": lambda: decompose(counts, kl()),
        "U": lambda: design_matrix(counts.shape, "gs").U,
    }[op]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        tracemalloc.start()
    t0 = time.perf_counter()
    run()
    wall = time.perf_counter() - t0
    if trace:
        return {"traced_mb": tracemalloc.get_traced_memory()[1] / 2**20}
    return {
        "wall_s": wall,
        "rss_before_mb": before / 1024,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def draw(r: int, T: int, path: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import ladder_table

    np.save(path, ladder_table(1, r, T).counts)


def child(*args: str) -> str:
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    cmd = [sys.executable, __file__, *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", default=",".join(SHAPES))
    parser.add_argument("--ops", default=",".join(OPS))
    parser.add_argument("--draw", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--one", nargs=4, help=argparse.SUPPRESS)
    parser.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.draw:
        r, T, path = args.draw
        draw(int(r), int(T), path)
        return
    if args.one:
        r, T, op, path = args.one
        print(json.dumps(measure(int(r), int(T), op, path, args.trace)))
        return

    sys.path.insert(0, str(ROOT / "src"))
    from fsym.cli import DESIGN_MAX_BYTES
    from fsym.design import family_d2
    from fsym.tables import TableShape

    with tempfile.TemporaryDirectory() as tmp:
        for name in args.shapes.split(","):
            r, T = (int(x) for x in name.split("^"))
            shape = TableShape(r, T)
            path = str(Path(tmp) / f"{r}^{T}.npy")
            child("--draw", str(r), str(T), path)
            for op in args.ops.split(","):
                row = {"shape": name, "cells": shape.n_cells, "op": op}
                u_bytes = 8 * shape.n_cells * (shape.n_cells - family_d2("gs", T) - shape.n_orbits)
                if op == "U" and u_bytes > DESIGN_MAX_BYTES:
                    row["skipped"] = f"U needs {u_bytes / 2**30:.1f} GiB, past {DESIGN_MAX_BYTES / 2**30:g} GiB"
                else:
                    for trace in ([], ["--trace"]):
                        row.update(json.loads(child("--one", str(r), str(T), op, path, *trace)))
                print(json.dumps(row), flush=True)

if __name__ == "__main__":
    main()
