"""Multivariate normal sampling, discretization, and the empirical power study.

Each replicate draws its own generator from (seed, replicate index), so the
aggregate is reproducible for a fixed seed no matter how replicates are
scheduled or parallelized.

The study works in blocks of BLOCK replicates.  A worker process draws and
bins each block on one thread per CPU it may use (its share of the CPUs when
several workers run, never more threads than a block has replicates): thread
t takes rows t, t + threads, ... of the block, each into two sample buffers
of its own that it reuses from block to block, and writes each row's count
vector into the block's stack, which is all that is kept.  ``mvn_sample``
adds each nonzero mean to its column and skips a mean of 0, which would
change no finite draw.  ``_bin`` counts a replicate's cells: it codes each
value by the cutpoints below it, builds each observation's cell index from
its codes by Horner's rule, in int8 when every index fits (r**T <= 128)
and in intp otherwise, and tabulates the indices by ``bincount``.  Only
the draws gain from a second thread: on two shared CPUs, 60 replicates of
n = 10,000 took 30.5 ms to draw on one thread and 25.5 ms on two, and 6.8
and 8.0 ms to bin (medians of 15).  A row's counts depend only on its
replicate, so the stack is the same for any thread count.  The fits run
on the worker's own thread.  Each s, gs, els or ls model is then fitted to the
whole stack at once by ``fitting.fit_block``: s in closed form, a link
family with |lam| <= 1 by ``fitting.fit_link``'s climb run on every table
of the stack.  A table under a link with |lam| > 1, whose several starts
stay per table, and a table whose climb fails fall back to
``fitting.fit_model``, which fits the first and raises the second's
FitError for the report; so does the whole block when its first settled
table's G2 disagrees with ``fit_model``'s.
Each row of the report counts these fallbacks.  The moment families are
fitted table by table with ``fitting.fit_model``.  A block's rejections are
counted on its sorted G2 values by bisection, so ``pvalue`` is evaluated a
few times per block rather than once per table.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .divergences import parse_f
from .fitting import FitError, ModelSpec, degrees_of_freedom, fit_block, fit_model, pvalue
from .moments import MOMENT_FAMILIES
from .tables import CountTable, TableShape

FAILURE_BUDGET = 0.001  # studies with more failed fits than this are unusable
BLOCK = 64  # replicates binned, then fitted together
# Relative width of the G2 band around a block's bisected rejection boundary
# whose values are decided one by one: chi2_sf is monotone only beyond its
# roundoff, a few ulps wide at the critical value.
BISECT_RTOL = 1e-9


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
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be at least 1, got {self.n_obs}")
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be at least 1, got {self.n_reps}")
        T = len(self.means)
        if T < 2:
            raise ValueError("need at least two variables")
        if len(self.variances) != T:
            raise ValueError("means and variances disagree in length")
        corr = np.asarray(self.correlations, dtype=float)
        if corr.shape != (T, T):
            raise ValueError(f"correlation matrix must be {T}x{T}")
        # finite parameters give finite draws, which the study bins unchecked
        if not np.all(np.isfinite(np.concatenate([self.means, self.variances, corr.ravel()]))):
            raise ValueError("means, variances and correlations must be finite")
        if any(v <= 0 for v in self.variances):
            raise ValueError("variances must be positive")
        if not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
            raise ValueError("correlation matrix must be symmetric with unit diagonal")
        try:
            self.cholesky  # cached for mvn_sample; only a positive definite matrix has one
        except np.linalg.LinAlgError as exc:
            raise ValueError("correlation matrix is not positive definite") from exc
        _check_cutpoints(np.asarray(self.effective_cutpoints(), dtype=float))
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

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance, computed once per config."""
        return np.linalg.cholesky(self.covariance())

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
        # a key the document leaves out keeps its dataclass default
        casts = {"n_obs": int, "n_reps": int, "alpha": float, "seed": int}
        given = {key: cast(doc[key]) for key, cast in casts.items() if key in doc}
        return cls(
            means=means,
            variances=variances,
            correlations=tuple(map(tuple, corr)),
            cutpoints=tuple(cuts) if cuts is not None else None,
            models=models,
            **given,
        )


def default_cutpoints(mu1: float, sigma1: float) -> tuple[float, float, float]:
    """Thresholds mean_1 - 0.6 sd_1, mean_1, mean_1 + 0.6 sd_1 (four categories)."""
    return (mu1 - 0.6 * sigma1, mu1, mu1 + 0.6 * sigma1)


def mvn_sample(config: SimConfig, replicate_id: int, out=None, work=None) -> np.ndarray:
    """n_obs x T normal draws, deterministic in (seed, replicate_id).

    The draws are written to ``out`` and the standard normals they come from
    to ``work``, two distinct float arrays of shape (n_obs, T), each
    allocated when not given; the draws do not depend on which are given.
    Returns the draws.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(replicate_id,))
    )
    z = rng.standard_normal((config.n_obs, config.T), out=work)
    x = np.matmul(z, config.cholesky.T, out=out)
    for j, mean in enumerate(config.means):  # by column: a broadcast add loops over T per row
        if mean:  # x + 0 == x for every finite x; only -0.0 turns +0.0, which no cut sees
            np.add(mean, x[:, j], out=x[:, j])
    return x


def discretize(samples: np.ndarray, cutpoints) -> CountTable:
    """Bin each coordinate by the shared cutpoints and tabulate the cells.

    A value's category is the number of cutpoints below it, one comparison
    per cutpoint (``searchsorted(side="left")``): a value on a cutpoint falls
    in the lower category and +-inf in an end category.  A NaN sample or
    cutpoint is refused.
    """
    cutpoints = np.asarray(cutpoints, dtype=float)
    _check_cutpoints(cutpoints)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be an (n_obs, T) array")
    if np.isnan(samples).any():
        raise ValueError("samples contain NaN")
    return CountTable(TableShape(len(cutpoints) + 1, samples.shape[1]), _bin(samples, cutpoints))


def _check_cutpoints(cutpoints: np.ndarray) -> None:
    if not len(cutpoints):
        raise ValueError("need at least one cutpoint (two categories)")
    # a NaN compares False both ways, so its differences alone cannot refuse it
    if np.isnan(cutpoints).any() or np.any(np.diff(cutpoints) <= 0):
        raise ValueError("cutpoints must be strictly increasing")


def _bin(samples: np.ndarray, cutpoints: np.ndarray) -> np.ndarray:
    """``discretize``'s count vector, without its checks: (n_obs, T) float
    samples without NaN and strictly increasing float cutpoints."""
    _, T = samples.shape
    r = len(cutpoints) + 1
    codes = np.zeros(samples.shape, dtype=np.int8 if r <= 127 else np.intp)
    for c in cutpoints:
        codes += samples > c
    flat = codes[:, 0].astype(np.int8 if r**T <= 128 else np.intp)  # every cell index fits
    for j in range(1, T):
        flat *= r
        flat += codes[:, j]
    return np.bincount(flat, minlength=r**T)


@dataclass
class PowerRow:
    model: str
    rate: float
    ci_low: float
    ci_high: float
    rejections: int
    n_used: int
    failures: int
    fallbacks: int  # gs/els/ls tables that fit_block handed to fit_model; s never falls back
    first_failure: str  # the FitError of the lowest failed replicate, or ""


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


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _replicate_chunk(config: SimConfig, ids: range, threads: int):
    """Per-model (rejections, failures, fallbacks, first failure) over ``ids``.

    Each block is drawn and binned on ``threads`` threads (at most a block's
    length), the calling thread and ``threads - 1`` helpers: thread t takes
    rows t, t + threads, ... into two sample buffers of its own.  The fits
    run on the calling thread.  The first failure is (replicate id, FitError
    message) or None.
    """
    cuts = np.asarray(config.effective_cutpoints(), dtype=float)
    shape = TableShape(len(cuts) + 1, config.T)
    n_models = len(config.models)
    rejects, failures, fallbacks = (np.zeros(n_models, dtype=np.int64) for _ in range(3))
    first: list = [None] * n_models
    threads = min(threads, BLOCK, len(ids))
    buffers = [(np.empty((config.n_obs, config.T)), np.empty((config.n_obs, config.T)))
               for _ in range(threads)]

    def draw(t, block, counts):
        out, work = buffers[t]
        for i in range(t, len(block), threads):
            counts[i] = _bin(mvn_sample(config, block[i], out, work), cuts)

    # the calling thread draws rows 0, threads, ... itself, so one thread
    # starts no other
    with ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as pool:
        for lo in range(0, len(ids), BLOCK):
            block = ids[lo : lo + BLOCK]
            counts = np.empty((len(block), shape.n_cells), dtype=np.intp)
            helpers = [pool.submit(draw, t, block, counts) for t in range(1, threads)]
            draw(0, block, counts)
            for future in helpers:
                future.result()  # raises what the helper raised
            for k, spec in enumerate(config.models):
                blocked = spec.family not in MOMENT_FAMILIES
                stats = fit_block(shape, counts, spec) if blocked else np.full(len(block), np.nan)
                for i in np.flatnonzero(np.isnan(stats)):
                    fallbacks[k] += blocked
                    try:
                        stats[i] = fit_model(CountTable(shape, counts[i]), spec).g2
                    except FitError as exc:
                        failures[k] += 1
                        first[k] = first[k] or (block[i], str(exc))
                rejects[k] += _rejections(
                    stats, degrees_of_freedom(spec.family, shape), config.alpha
                )
    return rejects, failures, fallbacks, first


def _rejections(stats: np.ndarray, df: int, alpha: float) -> int:
    """``sum(pvalue(g2, df) < alpha)`` over the G2 values in ``stats`` that
    are not NaN, with a few ``pvalue`` calls.

    Bisection on the sorted values finds the first that ``pvalue`` rejects.
    The values within BISECT_RTOL of the two either side of it, where the
    computed tail probability need not fall as G2 grows, are decided one by
    one; every value above that band is rejected, every value below is not.
    """
    g2 = np.sort(stats[~np.isnan(stats)])
    lo, hi = 0, len(g2)
    while lo < hi:
        mid = (lo + hi) // 2
        if pvalue(g2[mid], df) < alpha:
            hi = mid
        else:
            lo = mid + 1
    start = np.searchsorted(g2, g2[lo - 1] * (1.0 - BISECT_RTOL)) if lo > 0 else lo
    stop = np.searchsorted(g2, g2[lo] * (1.0 + BISECT_RTOL), "right") if lo < len(g2) else lo
    return len(g2) - stop + sum(pvalue(v, df) < alpha for v in g2[start:stop])


def power_study(config: SimConfig, workers: int = 1) -> PowerStudyResult:
    """Empirical rejection rate of each model over the replicates.

    The replicates are split among ``workers`` processes (at most
    ``n_reps``), and each process draws and bins on as many threads as its
    share of this process's CPUs, at least one.  A replicate's table depends
    only on (seed, replicate id), not on the process or thread that draws it;
    the aggregate is a commutative sum of per-replicate indicators; and a
    table's G2 from ``fit_block`` does not depend on the tables blocked with
    it.  So the result is identical for any worker or thread count.
    Replicates whose fit fails are excluded from that model's rate; the
    study raises FitError, quoting the first failure, if failures exceed
    0.1% of replicates for any model.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, config.n_reps)
    threads = max(1, _cpu_count() // workers)
    if workers > 1:
        chunks = [range(k, config.n_reps, workers) for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_replicate_chunk, [config] * workers, chunks,
                                  [threads] * workers))
    else:
        parts = [_replicate_chunk(config, range(config.n_reps), threads)]
    rejects, failures, fallbacks = (sum(p[j] for p in parts) for j in range(3))
    first = [min(filter(None, column), default=None) for column in zip(*(p[3] for p in parts))]

    result = PowerStudyResult(config=config)
    for k, spec in enumerate(config.models):
        fails = int(failures[k])
        first_failure = first[k][1] if first[k] else ""
        if fails > FAILURE_BUDGET * config.n_reps:
            raise FitError(
                f"{fails} of {config.n_reps} replicates failed to fit {spec.label}: "
                f"{first_failure}"
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
                fallbacks=int(fallbacks[k]),
                first_failure=first_failure,
            )
        )
    return result
