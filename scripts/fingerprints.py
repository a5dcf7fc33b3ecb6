#!/usr/bin/env python3
"""Fingerprints of a fixed set of fits, for checking that a change moves no bit.

Prints one JSON line per fit in the row format of ``scripts/restart_sweep.py``,
keyed by seed, shape, n, concentration and model, with ``g2``, ``df``,
``iterations`` and ``pihat_sha1`` (the first 16 hex digits of the SHA-1 of the
fitted probabilities' bytes), or ``error`` for a fit that raised ``FitError``:

* the bundled panel (seed ``"anes"``): its ten models, gs under
  power(0.5), power(2) and power(-1.5), and the kl and pearson ``decompose``
  reports, as the three Wald statistics ``w`` and ``orthogonality_residual``;
* gs[kl], me, me2, ve and ce on the benchmark's size-ladder tables
  (``ladder_table`` in ``tests/conftest.py``) of seeds 1 and 7 at 4^5, 3^6
  and 3^5;
* every ``fit_model`` row of the restart sweep (the tables of seeds 1-8),
  without its oracle;
* acceptance criterion 4: the power study of each bundled scenario at 1,000
  replicates in one process, one row per model (seed: the scenario's name)
  with its ``rejections``, ``failures`` and ``fallbacks``;
* ``fit_block`` on the first 64 replicates of each bundled scenario, one row
  per link model (model ``fit_block <label>``) with ``g2_sha1``, the SHA-1 of
  the stacked G2 bytes, ``handed_over``, the number of NaN rows left for
  ``fit_model``, and ``g2_rows``, the G2 values (null where handed over), so
  that the lockstep climb is checked row by row and a move can be bounded;
* the count stack of those 64 replicates, one row per bundled scenario
  (model ``tables``) with ``counts_sha1``, the SHA-1 of the stacked counts'
  bytes, so that a change to the draws or the binning shows directly;
* the same ``tables`` and ``fit_block`` rows for ``table2_row1`` and
  ``table2_row3`` at n = 300 (key ``n`` 300), where most tables have a zero
  count and many a cut step or a held cell.

A committed run is the baseline ``scripts/fingerprints.jsonl``; compare a
fresh run with it by ``python scripts/sweep_diff.py``.  Fits depend on the
BLAS thread count, so the script pins BLAS to one thread before it imports
numpy, whatever the environment says.

Usage: python scripts/fingerprints.py > fingerprints.jsonl
"""

import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

from fsym import (  # noqa: E402
    ModelSpec, SimConfig, anes_party_id, decompose, fit_model, hellinger, kl, pearson, power,
    power_study,
)
from fsym.datasets import data_path  # noqa: E402
from fsym.fitting import FitError, fit_block  # noqa: E402
from fsym.simulate import discretize, mvn_sample  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import ladder_table, restart_tables  # noqa: E402

PANEL_SPECS = [ModelSpec(m) for m in ("s", "me2", "me", "ve", "ce")]
PANEL_SPECS += [ModelSpec("gs", ff) for ff in (kl(), pearson(), hellinger(), power(0.5),
                                               power(2.0), power(-1.5))]
PANEL_SPECS += [ModelSpec("els", kl()), ModelSpec("ls", kl())]
LADDER_SPECS = [ModelSpec("gs", kl())] + [ModelSpec(m) for m in ("me", "me2", "ve", "ce")]
SWEEP_SPECS = [ModelSpec(m) for m in ("s", "me", "ve", "ce", "me2")]
SWEEP_SPECS += [ModelSpec(f, ff) for ff in (power(2.0), hellinger(), power(-1.5))
                for f in ("gs", "els", "ls")]


def fit_row(key, counts, spec):
    """The fingerprint of one fit, or None for a family with no free
    parameters at this shape."""
    row = dict(key, model=spec.label)
    try:
        fit = fit_model(counts, spec)
    except FitError as exc:
        return dict(row, error=str(exc))
    except ValueError:
        return None
    sha1 = hashlib.sha1(fit.pihat.probs.tobytes()).hexdigest()[:16]
    return dict(row, g2=fit.g2, df=fit.df, iterations=fit.iterations, pihat_sha1=sha1)


def block_rows(key, config):
    """The ``tables`` and ``fit_block`` rows of a scenario, on its first 64
    replicates."""
    cuts = config.effective_cutpoints()
    tables = [discretize(mvn_sample(config, k), cuts) for k in range(64)]
    counts = np.array([table.counts for table in tables])
    yield dict(key, model="tables", counts_sha1=hashlib.sha1(counts.tobytes()).hexdigest()[:16])
    for spec in config.models:
        if spec.family == "s":
            continue
        g2 = fit_block(tables[0].shape, counts, spec)
        handed_over = np.isnan(g2)
        yield dict(key, model=f"fit_block {spec.label}",
                   g2_sha1=hashlib.sha1(g2.tobytes()).hexdigest()[:16],
                   handed_over=int(handed_over.sum()),
                   g2_rows=[None if nan else value for nan, value in zip(handed_over, g2.tolist())])


def rows():
    panel = anes_party_id()
    key = dict(seed="anes", shape="3^3", n=panel.n, concentration=None)
    for spec in PANEL_SPECS:
        yield fit_row(key, panel, spec)
    for ff in (kl(), pearson()):
        report = decompose(panel, ff)
        yield dict(key, model=f"decompose[{ff.name}]", w=[report.w_gs, report.w_me2, report.w_s],
                   orthogonality_residual=report.orthogonality_residual)
    for seed in (1, 7):
        for r, T in ((4, 5), (3, 6), (3, 5)):
            counts = ladder_table(seed, r, T)
            key = dict(seed=seed, shape=f"{r}^{T}", n=counts.n, concentration=None)
            for spec in LADDER_SPECS:
                yield fit_row(key, counts, spec)
    for seed in range(1, 9):
        for (r, T, n, c), counts in restart_tables(seed):
            key = dict(seed=seed, shape=f"{r}^{T}", n=n, concentration=c)
            for spec in SWEEP_SPECS:
                yield fit_row(key, counts, spec)
    for scenario in ("table2_row1", "table2_row2", "table2_row3"):
        config = SimConfig.from_dict(json.loads(data_path(f"{scenario}.json").read_text()))
        config = replace(config, n_reps=1000)
        key = dict(seed=scenario, shape=f"{len(config.effective_cutpoints()) + 1}^{config.T}",
                   n=config.n_obs, concentration=None)
        for row in power_study(config).rows:
            yield dict(key, model=row.model, rejections=row.rejections, failures=row.failures,
                       fallbacks=row.fallbacks)
        yield from block_rows(key, config)
    for scenario in ("table2_row1", "table2_row3"):
        config = SimConfig.from_dict(json.loads(data_path(f"{scenario}.json").read_text()))
        config = replace(config, n_obs=300)
        key = dict(seed=scenario, shape=f"{len(config.effective_cutpoints()) + 1}^{config.T}",
                   n=config.n_obs, concentration=None)
        yield from block_rows(key, config)


def main():
    for row in rows():
        if row is not None:
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
