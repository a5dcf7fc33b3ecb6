#!/usr/bin/env python3
"""Seeded sweep of sparse random tables: every fit against the KKT oracle.

Tables: for seed s in 1..8, ``rng = default_rng(s)`` draws, for the shapes
2^3, 3^3, 4^3 and 3^4, for n in (60, 500) and Dirichlet concentration in
(1, 0.3), one table ``rng.multinomial(n, rng.dirichlet(full(N, c)))``.
Models: me/ve/ce/me2 and gs/els/ls under power(2) and Hellinger.  Each model
is fitted by ``fit_model`` and by the KKT oracle, ``fit_hlp`` on
``moment_constraint`` or ``linkform_constraint``; a moment fit is also
checked by its certificate (``moment_certificate`` in ``tests/conftest.py``,
which needs scipy).

Prints one JSON line per fit, with ``g2``/``iterations`` or ``error`` for
each fitter (``oracle_*`` for the oracle, ``certificate`` for the failed
criteria), then on stderr one summary line per moment family and per link:
the FitError count, the oracle's, the fits above the oracle's G2 by more
than 1e-6 and, for the moment families, the fits that fail the certificate.
A shape a family cannot take (gs/els at r = 2) is skipped.

Usage: python scripts/restart_sweep.py > sweep.jsonl
"""

import json
import sys
from pathlib import Path

import numpy as np

from fsym import ModelSpec, fit_model, hellinger, power
from fsym.fitting import FitError, fit_hlp, linkform_constraint, moment_constraint
from fsym.tables import CountTable, TableShape

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import moment_certificate  # noqa: E402

SHAPES = ((2, 3), (3, 3), (4, 3), (3, 4))
MOMENT_MODELS = ("me", "ve", "ce", "me2")
LINK_FAMILIES = ("gs", "els", "ls")
LINKS = (power(2.0), hellinger())


def tables():
    for seed in range(1, 9):
        rng = np.random.default_rng(seed)
        for r, T in SHAPES:
            shape = TableShape(r, T)
            for n in (60, 500):
                for c in (1.0, 0.3):
                    probs = rng.dirichlet(np.full(shape.n_cells, c))
                    key = dict(seed=seed, shape=f"{r}^{T}", n=n, concentration=c)
                    yield key, CountTable(shape, rng.multinomial(n, probs))


def attempt(fit, prefix=""):
    try:
        result = fit()
    except FitError as exc:
        return {f"{prefix}error": str(exc)}
    return {f"{prefix}g2": result.g2, f"{prefix}iterations": result.iterations}


def main():
    # [FitError, oracle FitError, fits above the oracle's G2, failed
    # certificates] per moment family and per link
    tally = {name: [0, 0, 0, 0] for name in MOMENT_MODELS + tuple(ff.name for ff in LINKS)}
    for key, counts in tables():
        specs = [ModelSpec(m) for m in MOMENT_MODELS]
        specs += [ModelSpec(f, ff) for ff in LINKS for f in LINK_FAMILIES]
        for spec in specs:
            row = dict(key, model=spec.label)
            try:
                fit = fit_model(counts, spec)
                row.update(g2=fit.g2, iterations=fit.iterations)
            except FitError as exc:
                fit = None
                row.update(error=str(exc))
            except ValueError:
                continue  # the family has no free parameters at this shape
            counter = tally[spec.family if spec.ff is None else spec.ff.name]
            counter[0] += fit is None
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
    for name, (errors, oracle_errors, above, uncertified) in tally.items():
        line = (
            f"{name}: FitError {errors} (oracle {oracle_errors}); "
            f"fits above the oracle's G2 by more than 1e-6: {above}"
        )
        if name in MOMENT_MODELS:
            line += f"; failed certificates: {uncertified}"
        print(line, file=sys.stderr)


if __name__ == "__main__":
    main()
