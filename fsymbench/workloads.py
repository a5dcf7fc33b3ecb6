"""The three benchmark workloads: their inputs, one pass of work, and its checks.

A workload is built from a seed, prepares its inputs in ``setup`` and then runs
identical passes. Every pass checks its own outputs; a failed fit, a failed
projection, a power-study budget error or an output that fails its check counts
as a failed operation in the returned ``Outcome``.

The workloads call fsym through attributes of the ``fsym`` package and its
modules, looked up at call time, so that a traced run sees every call.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

import fsym
from fsym.datasets import data_path

design = importlib.import_module("fsym.design")


@dataclass
class Outcome:
    """Operations attempted and failed in one or more passes."""

    attempted: int = 0
    failed: int = 0
    fits: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.fits += other.fits
        self.errors.extend(other.errors)


def orbit_ids(r: int, T: int) -> np.ndarray:
    """Orbit number of every cell, computed here rather than taken from fsym."""
    cells = np.indices((r,) * T).reshape(T, -1).T
    _, inverse = np.unique(np.sort(cells, axis=1), axis=0, return_inverse=True)
    return inverse.ravel()


def orbit_mass(ids: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return np.bincount(ids, weights=probs)


# --------------------------------------------------------------------------
# power: Monte Carlo power study over the bundled Table 2 scenarios
# --------------------------------------------------------------------------

SCENARIOS = ("table2_row1.json", "table2_row2.json", "table2_row3.json")
POWER_REPS = 60

# Criterion 4 of the acceptance suite: rates at 1,000 replicates of the bundled
# seed. Two-sided references for the symmetric and heterogeneous-correlation
# scenarios, a floor for the heterogeneous-variance one.
RATE_REFERENCE = {
    "table2_row1.json": {"s": 0.0479, "gs[kl]": 0.0495, "gs[pearson]": 0.0492,
                         "gs[hellinger]": 0.0492},
    "table2_row3.json": {"gs[kl]": 0.1186, "gs[pearson]": 0.1488},
}
RATE_FLOOR = {"table2_row2.json": {"s": 0.99, "ls[kl]": 0.99}}
REFERENCE_REPS = 1000
# The band is Z binomial standard errors of the difference between a rate at
# the run's replicate count and the 1,000-replicate reference, so a correct
# program fails one check in about 16,000.
RATE_Z = 4.0


def rate_band(p_ref: float, reps: int) -> float:
    return RATE_Z * math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / reps + 1.0 / REFERENCE_REPS))


def rate_problem(scenario: str, model: str, rate: float, reps: int) -> str | None:
    """Why a rejection rate is wrong, or None when it is within its band."""
    ref = RATE_REFERENCE.get(scenario, {}).get(model)
    if ref is not None and abs(rate - ref) > rate_band(ref, reps):
        return f"rate {rate:.4f} outside {ref} +- {rate_band(ref, reps):.4f}"
    floor = RATE_FLOOR.get(scenario, {}).get(model)
    if floor is not None and rate < floor - rate_band(floor, reps):
        return f"rate {rate:.4f} below {floor} - {rate_band(floor, reps):.4f}"
    return None


class Power:
    """``power_study(workers=1)`` on the three scenarios at a fixed replicate count."""

    name = "power"

    def __init__(self, seed: int, reps: int = POWER_REPS, scenarios=SCENARIOS):
        self.seed = seed
        self.reps = reps
        self.scenarios = scenarios
        self.configs: dict = {}

    def setup(self) -> float:
        for name in self.scenarios:
            with data_path(name).open() as fh:
                config = fsym.SimConfig.from_dict(json.load(fh))
            self.configs[name] = replace(config, n_reps=self.reps, seed=self.seed)
        builds = {
            (len(config.effective_cutpoints()) + 1, config.T, spec.family)
            for config in self.configs.values()
            for spec in config.models
            if spec.family in design.ASYMMETRY_FAMILIES
        }
        t0 = time.perf_counter()
        for r, T, family in sorted(builds):
            fsym.design_matrix(fsym.TableShape(r, T), family)
        return time.perf_counter() - t0

    def run_pass(self) -> Outcome:
        out = Outcome()
        for name, config in self.configs.items():
            n_fits = config.n_reps * len(config.models)
            out.attempted += n_fits
            out.fits += n_fits
            try:
                study = fsym.power_study(config, workers=1)
            except RuntimeError as exc:
                # Below 1,000 replicates the failure budget is under one fit,
                # so a single FitError fails the whole scenario.
                if "replicates failed to fit" not in str(exc):
                    raise
                out.fail(n_fits, f"{name}: {exc}")
                continue
            for row in study.rows:
                problem = rate_problem(name, row.model, row.rate, row.n_used)
                if problem:
                    out.fail(row.n_used, f"{name} {row.model}: {problem}")
        return out


# --------------------------------------------------------------------------
# anes: the analysis of the bundled three-wave panel
# --------------------------------------------------------------------------

# Exact-MLE G2 and df of the ten-model table. me2 is 31.545; the paper prints
# 31.6, which the acceptance suite keeps as a documented failure.
REFERENCE_G2 = {
    "s": (45.255773, 17),
    "me2": (31.545045, 6),
    "me": (3.34118, 2),
    "ve": (9.887026, 2),
    "ce": (17.374583, 2),
    "gs[kl]": (15.473983, 11),
    "gs[pearson]": (13.710729, 11),
    "gs[hellinger]": (15.95589, 11),
    "els[kl]": (33.016649, 13),
    "ls[kl]": (41.476265, 15),
}
G2_TOL = 1e-3
# Wald statistics (gs, me2, s) of decompose at the smoothed panel.
REFERENCE_WALD = {
    "kl": (7.551355560095297, 27.443477342245576, 34.99483290234086),
    "pearson": (15.694841841308966, 27.443477342245576, 57.49679592780205),
}
WALD_RTOL = 1e-6
# Criteria 2 and 3: published potential parameters of the (1, 1, 3) orbit and
# the headline discrepancies, for gs under kl, pearson and hellinger.
HEADLINE = ((1, 1, 3), (1, 3, 1))
REFERENCE_POTENTIAL = {
    (1, 1, 3): (0.0161, -1.3085, 3.7307),
    (3, 1, 1): (0.0057, -1.7262, 4.5959),
    (1, 3, 1): (0.0019, -2.0173, 5.6129),
}
POTENTIAL_TOL = 5e-4
REFERENCE_DISCREPANCY = (8.27, 0.71, -1.88)
DISCREPANCY_TOL = 5e-3
PROJECTION_TOL = 1e-9


def _attempt(out: Outcome, label: str, call, check):
    """Run one operation; count it failed if it raises a fit error or fails its check."""
    out.attempted += 1
    try:
        value = call()
    except (fsym.FitError, fsym.projection.ProjectionError) as exc:
        out.fail(1, f"{label}: {type(exc).__name__}: {exc}")
        return None
    problem = check(value)
    if problem:
        out.fail(1, f"{label}: {problem}")
    return value


def _g2_problem(label: str, g2: float, df: int) -> str | None:
    ref, ref_df = REFERENCE_G2[label]
    if abs(g2 - ref) > G2_TOL or df != ref_df:
        return f"G2 {g2:.6f} df {df}, want {ref} df {ref_df}"
    return None


class Anes:
    """Repeated passes of the full analysis of the party-identification panel."""

    name = "anes"

    def __init__(self, seed: int):
        # The panel is fixed data; the seed does not change this workload.
        self.seed = seed

    def setup(self) -> float:
        self.table = fsym.anes_party_id()
        self.smoothed = self.table.smoothed_proportions()
        self.orbits = orbit_ids(self.table.shape.r, self.table.shape.T)
        kl, pearson, hellinger = fsym.kl(), fsym.pearson(), fsym.hellinger()
        self.link_ffs = (kl, pearson, hellinger)
        self.specs = [fsym.ModelSpec(family) for family in ("s", "me2", "me", "ve", "ce")]
        self.specs += [fsym.ModelSpec("gs", ff) for ff in self.link_ffs]
        self.specs += [fsym.ModelSpec("els", kl), fsym.ModelSpec("ls", kl)]
        self.projection_ffs = (kl, pearson, hellinger, fsym.power(-0.5))
        t0 = time.perf_counter()
        for family in design.ASYMMETRY_FAMILIES:
            fsym.design_matrix(self.table.shape, family)
        cold = time.perf_counter() - t0
        self.moment_rows = design.moment_matrix(self.table.shape)
        return cold

    def run_pass(self) -> Outcome:
        out = Outcome()
        table = self.table
        fits = {}
        for spec in self.specs:
            fit = _attempt(
                out, spec.label, lambda: fsym.fit_model(table, spec),
                lambda f: _g2_problem(spec.label, f.g2, f.df),
            )
            fits[spec.label] = fit
            out.fits += 1

        for col, ff in enumerate(self.link_ffs):
            fit = fits[f"gs[{ff.name}]"]
            if fit is None:
                out.attempted += 2
                out.fail(2, f"gs[{ff.name}]: no fit for potentials and discrepancy")
                continue

            def potential_problem(theta, col=col):
                worst = max(abs(theta[c] - ref[col]) for c, ref in REFERENCE_POTENTIAL.items())
                return f"potential off by {worst:.2e}" if worst > POTENTIAL_TOL else None

            _attempt(out, f"potential_params gs[{ff.name}]",
                     lambda: fsym.potential_params(fit), potential_problem)
            want = REFERENCE_DISCREPANCY[col]
            _attempt(
                out, f"discrepancy_measure gs[{ff.name}]",
                lambda: fsym.discrepancy_measure(fit, *HEADLINE),
                lambda d: f"{d:.4f}, want {want}" if abs(d - want) > DISCREPANCY_TOL else None,
            )

        for ff in self.link_ffs[:2]:
            report = _attempt(out, f"decompose {ff.name}",
                              lambda: fsym.decompose(table, ff), self._report_problem)
            if report is not None:
                out.fits += len(report.g2_partition)

        for ff in self.projection_ffs:
            _attempt(
                out, f"iproject {ff.name}",
                lambda: fsym.iproject(fsym.ProjectionSpec(self.smoothed, ff)),
                self._projection_problem,
            )
        return out

    def _report_problem(self, report) -> str | None:
        ref = REFERENCE_WALD[report.ff.name]
        got = (report.w_gs, report.w_me2, report.w_s)
        if any(abs(g - r) > WALD_RTOL * abs(r) for g, r in zip(got, ref)):
            return f"Wald statistics {got}, want {ref}"
        for row in report.g2_partition:
            problem = _g2_problem(row.family, row.g2, row.df)
            if problem:
                return f"partition {row.family}: {problem}"
        return None

    def _projection_problem(self, proj) -> str | None:
        target = self.smoothed.probs
        moment_gap = np.max(np.abs(self.moment_rows @ (proj.probs - target)))
        mass_gap = np.max(np.abs(
            orbit_mass(self.orbits, proj.probs) - orbit_mass(self.orbits, target)
        ))
        if max(moment_gap, mass_gap) > PROJECTION_TOL:
            return f"moments off by {moment_gap:.2e}, orbit masses by {mass_gap:.2e}"
        return None


# --------------------------------------------------------------------------
# ladder: generated tables of growing size
# --------------------------------------------------------------------------

# Largest first: the peak memory of a pass is then reached on a fresh heap and
# does not depend on how the smaller fits left it.
LADDER_SHAPES = ((4, 5), (3, 6), (3, 5))
LADDER_MODELS = (("gs", "kl"), ("me2", None), ("ce", None))
COUNTS_PER_CELL = 20
# Strong common correlation and unequal variances leave sampling zeros in the
# discordant cells of every table, so every seed meets boundary fits.
LADDER_RHO = 0.7
LADDER_VARIANCE_STEP = 0.25
CONSTRAINT_TOL = 1e-8
ORBIT_MASS_TOL = 1e-8


def ladder_table(rng: np.random.Generator, r: int, T: int) -> "fsym.CountTable":
    """Counts of a discretized correlated normal, about 20 per cell.

    Variable h has variance 1 + 0.25 (h - 1); every cut falls at a quantile of
    the standard normal, so the categories are equally likely for variable 1.
    """
    sd = np.sqrt(1.0 + LADDER_VARIANCE_STEP * np.arange(T))
    corr = np.full((T, T), LADDER_RHO)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr * np.outer(sd, sd))
    z = rng.standard_normal((COUNTS_PER_CELL * r**T, T)) @ chol.T
    cuts = [NormalDist().inv_cdf(k / r) for k in range(1, r)]
    flat = np.searchsorted(cuts, z) @ (r ** np.arange(T - 1, -1, -1))
    return fsym.CountTable(fsym.TableShape(r, T), np.bincount(flat, minlength=r**T))


class Ladder:
    """gs[kl], me2 and ce fits on one generated table per shape."""

    name = "ladder"

    def __init__(self, seed: int, shapes=LADDER_SHAPES):
        self.seed = seed
        self.shapes = shapes

    def setup(self) -> float:
        rng = np.random.default_rng(self.seed)
        self.tables = [ladder_table(rng, r, T) for r, T in self.shapes]
        self.orbits = [orbit_ids(r, T) for r, T in self.shapes]
        self.specs = [
            fsym.ModelSpec(family, fsym.parse_f(f) if f else None)
            for family, f in LADDER_MODELS
        ]
        t0 = time.perf_counter()
        for table in self.tables:
            fsym.design_matrix(table.shape, "gs")
        cold = time.perf_counter() - t0
        for table in self.tables:
            design.moment_matrix(table.shape)
        return cold

    def run_pass(self) -> Outcome:
        out = Outcome()
        for table, ids in zip(self.tables, self.orbits):
            for spec in self.specs:
                label = f"{spec.label} at {table.shape.r}^{table.shape.T}"
                _attempt(out, label, lambda: fsym.fit_model(table, spec),
                         lambda fit: self._fit_problem(fit, ids))
                out.fits += 1
        return out

    @staticmethod
    def _fit_problem(fit, ids: np.ndarray) -> str | None:
        pihat = fit.pihat.probs
        if not (fit.converged and math.isfinite(fit.g2) and fit.g2 >= 0):
            return f"converged={fit.converged} G2={fit.g2}"
        if fit.spec.family == "gs":
            mass = orbit_mass(ids, pihat)
            sizes = np.bincount(ids)
            ratio = pihat / (mass / sizes)[ids]
            U = fsym.design_matrix(fit.shape, "gs").U
            resid = np.max(np.abs(U.T @ fit.spec.ff.F(ratio)))
            mass_gap = np.max(np.abs(mass - orbit_mass(ids, fit.counts.proportions().probs)))
            if mass_gap > ORBIT_MASS_TOL:
                return f"orbit masses differ from the observed ones by {mass_gap:.2e}"
        else:
            resid = np.max(np.abs(fsym.constraint_vector(fit.spec.family, fit.pihat)))
        if resid > CONSTRAINT_TOL:
            return f"constraint residual {resid:.2e}"
        return None


WORKLOADS = {cls.name: cls for cls in (Power, Anes, Ladder)}
