"""Multivariate normal sampling, discretization, and the empirical power study.

Each replicate draws its own generator from (seed, replicate index), so the
aggregate is reproducible for a fixed seed no matter how replicates are
scheduled or parallelized.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .fitting import FitError, ModelSpec, fit_model
from .divergences import parse_f
from .tables import CountTable, TableShape

FAILURE_BUDGET = 0.001  # studies with more failed fits than this are unusable


@dataclass(frozen=True)
class SimConfig:
    means: tuple[float, ...]
    variances: tuple[float, ...]
    correlations: tuple[tuple[float, ...], ...]  # full T x T matrix
    n_obs: int = 10_000
    n_reps: int = 1_000
    cutpoints: tuple[float, ...] | None = None  # default: mean_1, mean_1 +- 0.6 sd_1
    alpha: float = 0.05
    seed: int = 20260808
    models: tuple[ModelSpec, ...] = ()

    def __post_init__(self):
        T = len(self.means)
        if T < 2:
            raise ValueError("need at least two variables")
        if len(self.variances) != T:
            raise ValueError("means and variances disagree in length")
        if any(v <= 0 for v in self.variances):
            raise ValueError("variances must be positive")
        corr = np.asarray(self.correlations, dtype=float)
        if corr.shape != (T, T):
            raise ValueError(f"correlation matrix must be {T}x{T}")
        if not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
            raise ValueError("correlation matrix must be symmetric with unit diagonal")
        try:
            np.linalg.cholesky(self.covariance())
        except np.linalg.LinAlgError as exc:
            raise ValueError("correlation matrix is not positive definite") from exc
        cuts = self.cutpoints
        if cuts is not None and any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cutpoints must be strictly increasing")
        if not self.models:
            raise ValueError("need at least one model to fit")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

    @property
    def T(self) -> int:
        return len(self.means)

    def covariance(self) -> np.ndarray:
        sd = np.sqrt(np.asarray(self.variances))
        return np.asarray(self.correlations) * np.outer(sd, sd)

    def effective_cutpoints(self) -> tuple[float, ...]:
        if self.cutpoints is not None:
            return self.cutpoints
        return default_cutpoints(self.means[0], float(np.sqrt(self.variances[0])))

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        """Build from the JSON configuration schema.

        ``correlations`` may be a full matrix or, for T = 3, the vector
        (rho_12, rho_13, rho_23).
        """
        means = tuple(float(x) for x in doc["means"])
        variances = tuple(float(x) for x in doc["variances"])
        corr_in = doc["correlations"]
        T = len(means)
        arr = np.asarray(corr_in, dtype=float)
        if arr.ndim == 1:
            if T != 3 or arr.shape != (3,):
                raise ValueError("correlation vectors are only supported for T = 3")
            r12, r13, r23 = arr
            corr = np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1.0]])
        else:
            corr = arr
        models = tuple(
            ModelSpec(m["family"], parse_f(m["f"]) if "f" in m else None)
            for m in doc["models"]
        )
        cuts = doc.get("cutpoints")
        return cls(
            means=means,
            variances=variances,
            correlations=tuple(map(tuple, corr)),
            n_obs=int(doc.get("n_obs", 10_000)),
            n_reps=int(doc.get("n_reps", 1_000)),
            cutpoints=tuple(cuts) if cuts is not None else None,
            alpha=float(doc.get("alpha", 0.05)),
            seed=int(doc.get("seed", 20260808)),
            models=models,
        )


def default_cutpoints(mu1: float, sigma1: float) -> tuple[float, float, float]:
    """Thresholds mean_1 - 0.6 sd_1, mean_1, mean_1 + 0.6 sd_1 (four categories)."""
    return (mu1 - 0.6 * sigma1, mu1, mu1 + 0.6 * sigma1)


def mvn_sample(config: SimConfig, replicate_id: int) -> np.ndarray:
    """n_obs x T normal draws, deterministic in (seed, replicate_id)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(replicate_id,))
    )
    chol = np.linalg.cholesky(config.covariance())
    z = rng.standard_normal((config.n_obs, config.T))
    return np.asarray(config.means) + z @ chol.T


def discretize(samples: np.ndarray, cutpoints) -> CountTable:
    """Bin each coordinate by the shared cutpoints and tabulate the cells."""
    cutpoints = np.asarray(cutpoints, dtype=float)
    if np.any(np.diff(cutpoints) <= 0):
        raise ValueError("cutpoints must be strictly increasing")
    samples = np.asarray(samples, dtype=float)
    n_obs, T = samples.shape
    r = len(cutpoints) + 1
    codes = np.searchsorted(cutpoints, samples, side="left")  # 0-based categories
    powers = r ** np.arange(T - 1, -1, -1)
    flat = codes @ powers
    counts = np.bincount(flat, minlength=r**T)
    return CountTable(TableShape(r, T), counts)


@dataclass
class PowerRow:
    model: str
    rate: float
    ci_low: float
    ci_high: float
    rejections: int
    n_used: int
    failures: int


@dataclass
class PowerStudyResult:
    config: SimConfig
    rows: list[PowerRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_obs": self.config.n_obs,
            "n_reps": self.config.n_reps,
            "alpha": self.config.alpha,
            "seed": self.config.seed,
            "rows": [asdict(row) for row in self.rows],
        }


def _run_replicate(config: SimConfig, replicate_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(reject indicator, failure indicator) per model for one replicate."""
    table = discretize(mvn_sample(config, replicate_id), config.effective_cutpoints())
    rejects = np.zeros(len(config.models), dtype=np.int64)
    failures = np.zeros(len(config.models), dtype=np.int64)
    for k, spec in enumerate(config.models):
        try:
            fit = fit_model(table, spec)
        except FitError:
            failures[k] = 1
            continue
        rejects[k] = 1 if fit.pvalue < config.alpha else 0
    return rejects, failures


def _replicate_chunk(config: SimConfig, ids) -> tuple[np.ndarray, np.ndarray]:
    rejects = np.zeros(len(config.models), dtype=np.int64)
    failures = np.zeros(len(config.models), dtype=np.int64)
    for rep in ids:
        r, f = _run_replicate(config, rep)
        rejects += r
        failures += f
    return rejects, failures


def power_study(config: SimConfig, workers: int = 1) -> PowerStudyResult:
    """Empirical rejection rate of each model over the replicates.

    The aggregate is a commutative sum of per-replicate indicators, so the
    result is identical for any worker count.  Replicates whose fit fails are
    excluded from that model's rate; the study errors out if failures exceed
    0.1% of replicates for any model.
    """
    ids = range(config.n_reps)
    if workers > 1:
        chunks = [range(k, config.n_reps, workers) for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_replicate_chunk, [config] * workers, chunks))
        rejects = sum(p[0] for p in parts)
        failures = sum(p[1] for p in parts)
    else:
        rejects, failures = _replicate_chunk(config, ids)

    result = PowerStudyResult(config=config)
    for k, spec in enumerate(config.models):
        fails = int(failures[k])
        if fails > FAILURE_BUDGET * config.n_reps:
            raise RuntimeError(
                f"{fails} of {config.n_reps} replicates failed to fit {spec.label}"
            )
        used = config.n_reps - fails
        rate = rejects[k] / used if used else float("nan")
        half = 1.96 * np.sqrt(max(rate * (1.0 - rate), 0.0) / used) if used else 0.0
        result.rows.append(
            PowerRow(
                model=spec.label,
                rate=float(rate),
                ci_low=float(max(0.0, rate - half)),
                ci_high=float(min(1.0, rate + half)),
                rejections=int(rejects[k]),
                n_used=used,
                failures=fails,
            )
        )
    return result
