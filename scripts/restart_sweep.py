#!/usr/bin/env python3
"""Seeded sweep of sparse random tables: every fit against the KKT oracle.

Tables: for seed s in 1..8, the 16 tables that ``restart_tables(s)`` in
``tests/conftest.py`` draws from ``default_rng(s)``: for the shapes 2^3,
3^3, 4^3 and 3^4, for n in (60, 500) and Dirichlet concentration in (1, 0.3),
one table ``rng.multinomial(n, rng.dirichlet(full(N, c)))``.
Models: s, me/ve/ce/me2 and gs/els/ls under power(2), Hellinger and
power(-1.5).  Each model but s is fitted by ``fit_model`` and by the KKT
oracle, ``fit_hlp`` on ``moment_constraint`` or ``linkform_constraint``; a
moment fit is also checked by its certificate (``moment_certificate`` in
``tests/conftest.py``, which needs scipy).  Every model contains complete
symmetry, so no fit may end above the table's s G2.

Prints one JSON line per fit, with ``g2``/``iterations`` or ``error`` for
each fitter (``oracle_*`` for the oracle, ``certificate`` for the failed
criteria).  A row whose ``fit_model`` call returns a fit also carries
``pihat_sha1``, the first 16 hex digits of the SHA-1 of the fitted
probabilities' bytes: two runs whose fits agree bit for bit give the same
rows, so a refactor that must not move any fit is checked by a ``diff`` of
the two outputs.  Then it prints on stderr one summary line per moment family and per link:
the FitError count, the oracle's, the fits above the oracle's G2 by more
than 1e-6, the fits above s's G2 by more than 1e-6 and, for the moment
families, the fits that fail the certificate.
A shape a family cannot take (gs/els at r = 2) is skipped.

On each r >= 3 table it also runs ``decompose`` under kl and compares its
three Wald statistics and its ``ridged`` flag with the dense oracle
(``dense_decomposition`` in ``tests/conftest.py``: the Wald kernel on
U'F and U'J) at the report's evaluation point, and prints on stderr the
largest relative gap and every table where ``ridged`` differs.

Last, it fits each shape's tables as one block (``fit_block``) under
gs/els/ls with kl, pearson and hellinger, compares every G2 the block
settles with ``fit_model``'s, and prints on stderr the largest relative gap,
whether it is within 1e-9, and how many tables fell back to ``fit_model``.

The oracle's stationary points depend on the BLAS thread count, so the
script pins BLAS to one thread before it imports numpy, whatever the
environment says, and prints that setting on stderr first.

Usage: python scripts/restart_sweep.py > sweep.jsonl
"""

import hashlib
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

from fsym import ModelSpec, decompose, fit_model, hellinger, kl, pearson, power  # noqa: E402
from fsym.fitting import FitError, fit_block  # noqa: E402
from fsym.oracle import fit_hlp, linkform_constraint, moment_constraint  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import dense_decomposition, moment_certificate, restart_tables  # noqa: E402

MOMENT_MODELS = ("me", "ve", "ce", "me2")
LINK_FAMILIES = ("gs", "els", "ls")
LINKS = (power(2.0), hellinger(), power(-1.5))
BLOCK_LINKS = (kl(), pearson(), hellinger())
BLOCK_RTOL = 1e-9


def tables():
    for seed in range(1, 9):
        for (r, T, n, c), counts in restart_tables(seed):
            yield dict(seed=seed, shape=f"{r}^{T}", n=n, concentration=c), counts


def pihat_sha1(fit):
    return hashlib.sha1(fit.pihat.probs.tobytes()).hexdigest()[:16]


def attempt(fit, prefix=""):
    try:
        result = fit()
    except FitError as exc:
        return {f"{prefix}error": str(exc)}
    return {f"{prefix}g2": result.g2, f"{prefix}iterations": result.iterations}


def decompose_row(key, counts):
    """The kl decomposition's Wald statistics beside the dense oracle's."""
    report = decompose(counts, kl())
    observed = report.evaluation_point == "observed"
    p = counts.proportions() if observed else counts.smoothed_proportions()
    *dense, dense_ridged = dense_decomposition(p, kl(), counts.n)
    blocked = [report.w_gs, report.w_me2, report.w_s]
    gap = max(abs(b - d) / max(abs(d), 1e-300) for b, d in zip(blocked, dense))
    return dict(key, model="decompose[kl]", w=blocked, oracle_w=dense, rel_gap=gap,
                ridged=report.ridged, oracle_ridged=dense_ridged)


def block_summary(by_shape):
    """(largest relative G2 gap to fit_model, settled fits, fallbacks) of the
    block fits of each shape's tables."""
    gap, settled, fallbacks = 0.0, 0, 0
    for tables in by_shape.values():
        counts = np.array([t.counts for t in tables])
        for ff in BLOCK_LINKS:
            for family in LINK_FAMILIES:
                spec = ModelSpec(family, ff)
                try:
                    g2 = fit_block(tables[0].shape, counts, spec)
                except ValueError:
                    continue  # the family has no free parameters at this shape
                for table, stat in zip(tables, g2):
                    if np.isnan(stat):
                        fallbacks += 1
                        continue
                    want = fit_model(table, spec).g2
                    gap = max(gap, abs(stat - want) / max(abs(want), 1e-300))
                    settled += 1
    return gap, settled, fallbacks


def main():
    print("BLAS threads: " + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()), file=sys.stderr)
    # [FitError, oracle FitError, fits above the oracle's G2, failed
    # certificates, fits above s's G2] per moment family and per link
    tally = {name: [0, 0, 0, 0, 0] for name in MOMENT_MODELS + tuple(ff.name for ff in LINKS)}
    wald_gap, ridge_mismatch = 0.0, []
    by_shape = {}
    for key, counts in tables():
        by_shape.setdefault(key["shape"], []).append(counts)
        symmetry = fit_model(counts, ModelSpec("s"))
        print(json.dumps(dict(key, model="s", g2=symmetry.g2, pihat_sha1=pihat_sha1(symmetry))), flush=True)
        specs = [ModelSpec(m) for m in MOMENT_MODELS]
        specs += [ModelSpec(f, ff) for ff in LINKS for f in LINK_FAMILIES]
        for spec in specs:
            row = dict(key, model=spec.label)
            try:
                fit = fit_model(counts, spec)
                row.update(g2=fit.g2, iterations=fit.iterations, pihat_sha1=pihat_sha1(fit))
            except FitError as exc:
                fit = None
                row.update(error=str(exc))
            except ValueError:
                continue  # the family has no free parameters at this shape
            counter = tally[spec.family if spec.ff is None else spec.ff.name]
            counter[0] += fit is None
            counter[4] += fit is not None and fit.g2 > symmetry.g2 + 1e-6
            if spec.ff is None:
                oracle = moment_constraint(counts.shape, spec.family)
                if fit is not None:
                    row["certificate"] = moment_certificate(counts, spec.family, fit.pihat.probs)
                    counter[3] += bool(row["certificate"])
            else:
                oracle = linkform_constraint(counts.shape, spec.family, spec.ff)
            row.update(attempt(lambda: fit_hlp(counts, oracle), "oracle_"))
            counter[1] += "oracle_error" in row
            counter[2] += "g2" in row and "oracle_g2" in row and (
                row["g2"] > row["oracle_g2"] + 1e-6
            )
            print(json.dumps(row), flush=True)
        if counts.shape.r >= 3:
            row = decompose_row(key, counts)
            wald_gap = max(wald_gap, row["rel_gap"])
            if row["ridged"] != row["oracle_ridged"]:
                ridge_mismatch.append(key)
            print(json.dumps(row), flush=True)
    for name, (errors, oracle_errors, above, uncertified, above_s) in tally.items():
        line = (
            f"{name}: FitError {errors} (oracle {oracle_errors}); "
            f"fits above the oracle's G2 by more than 1e-6: {above}; "
            f"above s's G2: {above_s}"
        )
        if name in MOMENT_MODELS:
            line += f"; failed certificates: {uncertified}"
        print(line, file=sys.stderr)
    print(f"decompose[kl]: largest relative Wald gap to the dense oracle {wald_gap:.2e}; "
          f"ridged differs on {len(ridge_mismatch)} tables", file=sys.stderr)
    for key in ridge_mismatch:
        print(f"  ridged differs: {key}", file=sys.stderr)
    gap, settled, fallbacks = block_summary(by_shape)
    verdict = "within" if gap <= BLOCK_RTOL else "ABOVE"
    print(f"fit_block (kl, pearson, hellinger): largest relative G2 gap to fit_model "
          f"{gap:.2e} over {settled} fits, {verdict} {BLOCK_RTOL:g}; "
          f"{fallbacks} tables fell back to fit_model", file=sys.stderr)


if __name__ == "__main__":
    main()
