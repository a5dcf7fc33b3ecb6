import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fsym import fitting, simulate
from fsym.datasets import data_path
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import FitError, ModelSpec, degrees_of_freedom, fit_block, fit_model, pvalue
from fsym.simulate import (
    SimConfig,
    default_cutpoints,
    discretize,
    mvn_sample,
    power_study,
)
from fsym.tables import CountTable, TableShape, orbit_sums

from conftest import restart_tables

SCENARIOS = ("table2_row1.json", "table2_row2.json", "table2_row3.json")


def tiny_config(**overrides) -> SimConfig:
    base = dict(
        means=(0.0, 0.0, 0.0),
        variances=(1.0, 1.0, 1.0),
        correlations=((1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.2, 0.2, 1.0)),
        n_obs=2000,
        n_reps=8,
        seed=99,
        models=(ModelSpec("s"), ModelSpec("ls", kl())),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_from_dict_with_correlation_vector(self):
        with data_path("table2_row3.json").open() as fh:
            config = SimConfig.from_dict(json.load(fh))
        assert config.correlations[0][1] == 0.2
        assert config.correlations[0][2] == 0.3
        assert config.correlations[1][2] == 0.4
        assert config.models[0].label == "gs[kl]"

    def test_from_dict_keys_left_out_keep_their_defaults(self):
        doc = {"means": [0, 0, 0], "variances": [1, 1, 1], "correlations": [0.2, 0.2, 0.2],
               "models": [{"family": "s"}]}
        config = SimConfig.from_dict(doc)
        for name in ("n_obs", "n_reps", "alpha", "seed"):
            assert getattr(config, name) == SimConfig.__dataclass_fields__[name].default
        given = SimConfig.from_dict(dict(doc, n_obs="30", n_reps=5.0, alpha="0.1", seed=3))
        assert (given.n_obs, given.n_reps, given.alpha, given.seed) == (30, 5, 0.1, 3)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(
                correlations=((1.0, 0.99, -0.99), (0.99, 1.0, 0.99), (-0.99, 0.99, 1.0))
            )

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(variances=(1.0, 0.0, 1.0))

    def test_bad_cutpoints_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(cutpoints=(0.5, 0.5, 1.0))
        for nan_cuts in ((-0.5, np.nan, 0.5), (np.nan,)):
            with pytest.raises(ValueError, match="strictly increasing"):
                tiny_config(cutpoints=nan_cuts)

    def test_empty_cutpoints_rejected(self):
        # no cutpoint bins every draw into one category
        with pytest.raises(ValueError, match="at least one cutpoint"):
            tiny_config(cutpoints=())
        with pytest.raises(ValueError, match="at least one cutpoint"):
            SimConfig.from_dict({"means": [0, 0], "variances": [1, 1],
                                 "correlations": [[1, 0], [0, 1]], "cutpoints": [],
                                 "models": [{"family": "s"}]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        correlations = ((1.0, bad, 0.2), (bad, 1.0, 0.2), (0.2, 0.2, 1.0))
        for field, value in (("means", (0.0, bad, 0.0)), ("variances", (1.0, bad, 1.0)),
                             ("correlations", correlations)):
            with pytest.raises(ValueError, match="must be finite"):
                tiny_config(**{field: value})

    @pytest.mark.parametrize("name", ["n_obs", "n_reps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            tiny_config(**{name: value})


class TestSampling:
    def test_deterministic_replay(self):
        config = tiny_config()
        a = mvn_sample(config, 3)
        b = mvn_sample(config, 3)
        assert np.array_equal(a, b)
        c = mvn_sample(config, 4)
        assert not np.array_equal(a, c)

    def test_buffers_receive_the_allocated_draws(self):
        config = tiny_config(means=(0.5, -1.0, 2.0), variances=(1.0, 2.5, 0.5))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(5,)))
        z = rng.standard_normal((config.n_obs, config.T))
        want = np.asarray(config.means) + z @ np.linalg.cholesky(config.covariance()).T
        np.testing.assert_array_equal(mvn_sample(config, 5), want)
        out, work = np.full_like(want, np.nan), np.full_like(want, np.nan)
        for args in ((out,), (out, work), (None, work)):
            got = mvn_sample(config, 5, *args)
            if args[0] is not None:
                assert got is out
            np.testing.assert_array_equal(got, want)

    def test_moments_large_sample(self):
        config = tiny_config(
            n_obs=1_000_000,
            variances=(1.0, 1.5, 2.0),
            correlations=((1.0, 0.3, 0.1), (0.3, 1.0, 0.5), (0.1, 0.5, 1.0)),
            means=(0.0, 1.0, -1.0),
        )
        x = mvn_sample(config, 0)
        # 4 sigma / sqrt(n) band per coordinate
        for k in range(3):
            sd = np.sqrt(config.variances[k])
            assert abs(x[:, k].mean() - config.means[k]) < 4 * sd / 1000
        got = np.corrcoef(x.T)
        assert np.max(np.abs(got - np.asarray(config.correlations))) < 0.005


class TestDiscretize:
    def test_default_cutpoints(self):
        assert default_cutpoints(0.0, 1.0) == (-0.6, 0.0, 0.6)
        assert default_cutpoints(2.0, 0.5) == (1.7, 2.0, 2.3)

    def test_binning_example(self):
        table = discretize(np.array([[-1.0, 0.1, 0.7]]), (-0.6, 0.0, 0.6))
        assert table.shape == TableShape(4, 3)
        from fsym.tables import cell_index

        assert table.counts[cell_index(table.shape, (1, 3, 4))] == 1
        assert table.n == 1

    def test_count_conservation(self, rng):
        x = rng.normal(size=(5000, 3))
        table = discretize(x, (-0.6, 0.0, 0.6))
        assert table.n == 5000

    @pytest.mark.parametrize("cuts,T", [
        ((-0.6, 0.0, 0.6), 2),
        (tuple(np.linspace(-2.0, 2.0, 12)), 2),
        ((0.3,), 7),  # r**T = 128: the largest index an int8 holds
        ((-0.5, 0.5), 5),  # r**T = 243: an intp index
        (tuple(np.linspace(-2.0, 2.0, 127)), 2),  # r = 128: intp codes
    ], ids=["cuts0", "cuts1", "2^7", "3^5", "128^2"])
    def test_matches_searchsorted_on_cutpoints_and_infinities(self, rng, cuts, T):
        x = rng.normal(size=(3000, T))
        x[:40] = rng.choice(np.array(cuts), size=(40, T))  # exactly on a cut
        x[40:50, 0], x[50:60, 1] = np.inf, -np.inf
        x[60], x[61] = np.inf, -np.inf  # the last cell and the first
        r = len(cuts) + 1
        codes = np.searchsorted(np.array(cuts), x, side="left")
        want = np.bincount(codes @ r ** np.arange(T - 1, -1, -1), minlength=r**T)
        got = discretize(x, cuts)
        assert got.shape == TableShape(r, T)
        assert got.counts[0] >= 1 and got.counts[-1] >= 1
        assert np.array_equal(got.counts, want)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            discretize(np.array([[0.0, np.nan, 1.0]]), (-0.6, 0.0, 0.6))

    @pytest.mark.parametrize("samples", [np.zeros(5), np.zeros((2, 3, 4)), np.float64(0.5)],
                             ids=["1-D", "3-D", "0-D"])
    def test_samples_that_are_not_a_matrix_are_refused(self, samples):
        with pytest.raises(ValueError, match=r"samples must be an \(n_obs, T\) array"):
            discretize(samples, [0.0])

    @pytest.mark.parametrize("cuts", [(-0.5, np.nan, 0.5), (np.nan, 0.0, 0.5), (-0.5, 0.0, np.nan),
                                      (np.nan,), (0.5, 0.0), (0.0, 0.0)])
    def test_cutpoints_not_strictly_increasing_are_refused(self, rng, cuts):
        with pytest.raises(ValueError, match="strictly increasing"):
            discretize(rng.normal(size=(1000, 3)), cuts)


def record_pools(monkeypatch):
    """Record the ``max_workers`` of each process pool ``power_study`` starts
    and, for each chunk, how many threads draw: the calling thread and the
    helpers it hands rows to.  The process pool's chunks run in this process,
    so that their thread pools are seen too.  Returns the two lists."""
    processes, threads = [], []

    class RecordingProcessPool:
        def __init__(self, max_workers):
            processes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    class RecordingThreadPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            threads.append(1)
            super().__init__(max_workers)

        def submit(self, fn, t, *args):
            threads[-1] = max(threads[-1], t + 1)
            return super().submit(fn, t, *args)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingProcessPool)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingThreadPool)
    return processes, threads


class TestPowerStudy:
    def test_deterministic_and_order_independent(self):
        config = tiny_config()
        first = power_study(config, workers=1)
        second = power_study(config, workers=1)
        assert [r.rate for r in first.rows] == [r.rate for r in second.rows]
        assert [r.rejections for r in first.rows] == [r.rejections for r in second.rows]

    def test_parallel_matches_serial(self):
        config = tiny_config()
        assert power_study(config, workers=2).rows == power_study(config, workers=1).rows

    @pytest.mark.parametrize("workers,pools", [(1, []), (2, [2]), (5000, [8])])
    def test_no_more_worker_processes_than_replicates(self, monkeypatch, workers, pools):
        started = record_pools(monkeypatch)[0]
        config = tiny_config()  # 8 replicates
        rows = power_study(config, workers=workers).rows
        assert started == pools
        serial = power_study(config, workers=1).rows
        assert [r.rejections for r in rows] == [r.rejections for r in serial]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            power_study(tiny_config(), workers=workers)

    def test_symmetric_scenario_rarely_rejects(self):
        # a smoke-scale calibration check; the full-scale band lives in the
        # acceptance suite
        config = tiny_config(n_reps=25, n_obs=5000, models=(ModelSpec("s"),))
        result = power_study(config)
        assert result.rows[0].rate <= 0.2

    def test_report_fields(self):
        config = tiny_config()
        result = power_study(config)
        doc = result.to_dict()
        assert doc["n_reps"] == config.n_reps
        assert {row["model"] for row in doc["rows"]} == {"s", "ls[kl]"}
        for row in doc["rows"]:
            assert 0.0 <= row["rate"] <= 1.0
            assert row["failures"] == 0
            assert row["fallbacks"] == 0
            assert row["first_failure"] == ""

    def test_failure_budget_quotes_the_first_failure(self, monkeypatch):
        def fail(counts, spec):
            raise FitError(f"no fit of {counts.n:.0f} counts")

        # a moment family is fitted by fit_model alone
        monkeypatch.setattr(simulate, "fit_model", fail)
        with pytest.raises(RuntimeError, match="8 of 8 replicates failed to fit me: no fit of 2000"):
            power_study(tiny_config(models=(ModelSpec("me"),)))


def scenario(name: str, reps: int) -> SimConfig:
    with data_path(name).open() as fh:
        return replace(SimConfig.from_dict(json.load(fh)), n_reps=reps)


def replicate_tables(config: SimConfig) -> list[CountTable]:
    cuts = config.effective_cutpoints()
    return [discretize(mvn_sample(config, k), cuts) for k in range(config.n_reps)]


class TestBlockFits:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_block_fits_match_fit_model(self, name):
        config = scenario(name, 40)
        tables = replicate_tables(config)
        counts = np.array([t.counts for t in tables])
        for spec in config.models:
            got = fit_block(tables[0].shape, counts, spec)
            want = np.array([fit_model(t, spec).g2 for t in tables])
            assert not np.isnan(got).any(), spec.label
            if spec.family == "s":  # the closed form, bit for bit
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=spec.label)
            # split as two workers split the replicates, every G2 comes out bit for bit
            np.testing.assert_array_equal(
                np.concatenate([fit_block(tables[0].shape, counts[k::2], spec) for k in (0, 1)]),
                np.concatenate([got[0::2], got[1::2]]),
                err_msg=spec.label,
            )

    def test_a_block_that_disagrees_with_fit_model_is_handed_over(self, monkeypatch):
        config = scenario("table2_row3.json", 4)
        tables = replicate_tables(config)
        counts, spec = np.array([t.counts for t in tables]), config.models[0]
        assert not np.isnan(fit_block(tables[0].shape, counts, spec)).any()

        def off(table, spec, real=fitting.fit_model):
            return SimpleNamespace(g2=real(table, spec).g2 * (1.0 + 1e-8))

        monkeypatch.setattr(fitting, "fit_model", off)
        assert np.isnan(fit_block(tables[0].shape, counts, spec)).all()

    def test_empty_stacks_and_tables_are_left_to_fit_model(self):
        shape, spec = TableShape(3, 3), ModelSpec("gs", kl())
        assert fit_block(shape, np.zeros((0, 27)), spec).shape == (0,)
        counts = np.zeros((3, 27))
        counts[1] = np.arange(27) % 5 + 1
        got = fit_block(shape, counts, spec)
        assert np.isnan(got[[0, 2]]).all()
        assert got[1] == fit_model(CountTable(shape, counts[1]), spec).g2

    @pytest.mark.parametrize("family", ["me", "ce"])
    def test_only_link_families_are_blocked(self, family):
        with pytest.raises(ValueError, match="fit_block fits s/gs/els/ls"):
            fit_block(TableShape(3, 3), np.ones((2, 27)), ModelSpec(family))

    def test_stacked_symmetry_is_fit_model_bit_for_bit_with_zero_counts(self, rng):
        for shape in (TableShape(2, 3), TableShape(3, 3), TableShape(4, 3), TableShape(3, 4)):
            counts = np.array([
                rng.multinomial(60, rng.dirichlet(np.full(shape.n_cells, 0.3))) for _ in range(64)
            ])
            assert (counts == 0).any()
            want = [fit_model(CountTable(shape, row), ModelSpec("s")).g2 for row in counts]
            np.testing.assert_array_equal(fit_block(shape, counts, ModelSpec("s")), want)

    def test_a_block_whose_check_fit_fails_is_handed_over(self, monkeypatch):
        config = scenario("table2_row3.json", 4)
        tables = replicate_tables(config)
        counts, spec = np.array([t.counts for t in tables]), config.models[0]

        def failing(table, spec):
            raise FitError("test")

        monkeypatch.setattr(fitting, "fit_model", failing)
        assert np.isnan(fit_block(tables[0].shape, counts, spec)).all()

    def test_a_row_below_the_symmetric_fit_is_handed_over(self, monkeypatch):
        config = scenario("table2_row3.json", 4)
        tables = replicate_tables(config)
        counts, spec = np.array([t.counts for t in tables]), config.models[0]
        assert not np.isnan(fit_block(tables[0].shape, counts, spec)).any()

        def shifted(nvec, has_count, g, real=fitting._link_loglik):
            return real(nvec, has_count, g) - 1e6

        monkeypatch.setattr(fitting, "_link_loglik", shifted)
        assert np.isnan(fit_block(tables[0].shape, counts, spec)).all()

    def test_skewed_tables_match_fit_model_or_fall_back(self, rng):
        # one plus a sparse multinomial in every cell: starts that are
        # infeasible, indefinite Hessians and steps that would be cut; only a
        # table that fit_model cannot fit either falls back
        for shape in (TableShape(3, 3), TableShape(4, 3)):
            counts = np.array([
                rng.multinomial(200, rng.dirichlet(np.full(shape.n_cells, 0.3))) + 1
                for _ in range(12)
            ])
            for ff in (kl(), pearson(), hellinger(), power(0.5), power(-1.0)):
                for family in ("gs", "els", "ls"):
                    spec = ModelSpec(family, ff)
                    got = fit_block(shape, counts, spec)
                    # a row's G2 does not depend on the rows beside it
                    alone = np.array([fit_block(shape, row[None], spec)[0] for row in counts])
                    np.testing.assert_array_equal(alone, got, err_msg=spec.label)
                    # the block's climb is fit_model's, step for step
                    np.testing.assert_array_equal(
                        got, [fit_model(CountTable(shape, row), spec).g2 for row in counts],
                        err_msg=spec.label)

    def test_zero_cells_and_steep_links_match_a_loop_of_fit_model(self):
        config = tiny_config(
            n_obs=300,
            n_reps=12,
            seed=11,
            variances=(1.0, 1.2, 1.4),
            correlations=((1.0, 0.2, 0.3), (0.2, 1.0, 0.4), (0.3, 0.4, 1.0)),
            models=(
                ModelSpec("s"),
                ModelSpec("gs", kl()),
                ModelSpec("ls", pearson()),
                ModelSpec("els", hellinger()),
                ModelSpec("gs", power(2.0)),
                ModelSpec("ls", power(-1.5)),
            ),
        )
        tables = replicate_tables(config)
        zero = [bool(np.any(t.counts == 0)) for t in tables]
        assert 0 < sum(zero) < len(tables)  # tables with and without a zero count
        want = []
        for spec in config.models:
            rejections = failures = 0
            for table in tables:
                try:
                    rejections += fit_model(table, spec).pvalue < config.alpha
                except FitError:
                    failures += 1
            want.append((rejections, failures))
        for workers in (1, 2):
            rows = power_study(config, workers=workers).rows
            assert [(row.rejections, row.failures) for row in rows] == want
            fallbacks = {row.model: row.fallbacks for row in rows}
            # a zero count no longer falls back; a link with |lam| > 1 always does
            assert fallbacks["s"] == fallbacks["gs[kl]"] == 0
            assert fallbacks["ls[pearson]"] == fallbacks["els[hellinger]"] == 0
            assert fallbacks["gs[power(2)]"] == fallbacks["ls[power(-1.5)]"] == len(tables)


def link_stacks():
    """(name, shape, counts) stacks with zero counts: the first 64
    replicates of table2_row1 and table2_row3 at n = 300, and the r >= 3
    restart-sweep tables of seeds 1-8, one stack per shape."""
    for name in ("table2_row1.json", "table2_row3.json"):
        tables = replicate_tables(replace(scenario(name, 64), n_obs=300))
        yield name, tables[0].shape, np.array([t.counts for t in tables])
    by_shape = {}
    for seed in range(1, 9):
        for (r, _, _, _), table in restart_tables(seed):
            if r >= 3:
                by_shape.setdefault(table.shape, []).append(table.counts)
    for shape, rows in by_shape.items():
        yield str(shape), shape, np.array(rows)


def fit_or_nan(shape, row, spec) -> float:
    try:
        return fit_model(CountTable(shape, row), spec).g2
    except FitError:
        return np.nan


STACKED_LINKS = [ModelSpec("gs", ff) for ff in (kl(), pearson(), hellinger(), power(0.5))]
STACKED_LINKS += [ModelSpec("els", kl()), ModelSpec("ls", kl())]


class TestOneLinkClimb:
    """``fit_block`` runs ``fit_link``'s one climb on a stack of tables with
    zero counts, held cells, Fisher steps and cut steps."""

    @pytest.mark.parametrize("spec", STACKED_LINKS, ids=lambda spec: spec.label)
    def test_every_row_is_fit_model_bit_for_bit(self, spec):
        for name, shape, counts in link_stacks():
            got = fit_block(shape, counts, spec)
            want = [fit_or_nan(shape, row, spec) for row in counts]
            np.testing.assert_array_equal(got, want, err_msg=f"{name} {spec.label}")
            # a table with a zero count climbs in the stack
            assert np.any((counts == 0).any(axis=1) & ~np.isnan(got)), name
            # so does the same stack in reverse, row for row
            np.testing.assert_array_equal(fit_block(shape, counts[::-1], spec)[::-1], got)

    def test_a_failing_row_is_nan_alone(self):
        # one 3^3 restart table's power(0.5) climb raises FitError
        name, shape, counts = [stack for stack in link_stacks() if stack[1] == TableShape(3, 3)][0]
        spec = ModelSpec("gs", power(0.5))
        got = fit_block(shape, counts, spec)
        failed = np.flatnonzero(np.isnan(got))
        assert len(failed) == 1
        with pytest.raises(FitError):
            fit_model(CountTable(shape, counts[failed[0]]), spec)
        # without it, every other row's G2 is the same
        rest = np.delete(counts, failed, axis=0)
        np.testing.assert_array_equal(fit_block(shape, rest, spec), np.delete(got, failed))

    def test_the_stacks_meet_held_cells_fisher_steps_and_cut_steps(self, monkeypatch):
        events = []  # (function, result) of the climb's calls, in order

        def recorded(attr, real):
            def call(*args):
                result = real(*args)
                events.append((attr, result))
                return result
            return call

        for attr in ("_theta_information", "_evaluate", "_link_score"):
            monkeypatch.setattr(fitting, attr, recorded(attr, getattr(fitting, attr)))
        seen = set()
        for _, shape, counts in link_stacks():
            for spec in (ModelSpec("gs", pearson()), ModelSpec("gs", hellinger())):
                events.clear()
                fit_block(shape, counts, spec)
                modes = [result[1] for attr, result in events if attr == "_theta_information"]
                if any(set(mode) - {"newton"} for mode in modes):
                    seen.add("fisher")
                calls = [attr for attr, _ in events]
                scores = [i for i, attr in enumerate(calls) if attr == "_link_score"]
                # two trial points before the second score: a first full step is cut
                if calls[scores[0] : scores[1]].count("_evaluate") > 1:
                    seen.add("cut")
            for row in counts:  # a cell held at g = 0 in an orbit with mass
                probs = fit_model(CountTable(shape, row), ModelSpec("gs", pearson())).pihat.probs
                if np.any(probs[(row == 0) & (orbit_sums(shape, row) > 0)] == 0):
                    seen.add("held")
        assert seen == {"fisher", "cut", "held"}


def study(monkeypatch, config: SimConfig):
    """The count vectors ``power_study`` fits, in replicate order (the stacks
    ``fit_block`` receives for the s model), and its rows."""
    seen = []

    def recording(shape, counts, spec, real=simulate.fit_block):
        if spec.family == "s":
            seen.append(counts.copy())
        return real(shape, counts, spec)

    monkeypatch.setattr(simulate, "fit_block", recording)
    rows = power_study(config).rows
    return np.concatenate(seen), rows


def study_tables(monkeypatch, config: SimConfig) -> np.ndarray:
    """The count vectors ``power_study`` fits, in replicate order."""
    return study(monkeypatch, replace(config, models=(ModelSpec("s"),)))[0]


def four_variable_config() -> SimConfig:
    """130 replicates: two full blocks and a last block of 2."""
    return tiny_config(
        means=(0.5, -0.3, 1.2, 0.0),
        variances=(1.0, 2.0, 0.5, 1.5),
        correlations=(
            (1.0, 0.3, 0.1, 0.2),
            (0.3, 1.0, 0.4, 0.0),
            (0.1, 0.4, 1.0, -0.2),
            (0.2, 0.0, -0.2, 1.0),
        ),
        n_obs=5000,
        n_reps=130,
    )


class TestStudyTables:
    """The study fits, drawn into buffers it reuses, the tables the
    allocating sampler gives."""

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("seed", [20260808, 5])
    def test_bundled_scenarios(self, monkeypatch, name, seed):
        config = replace(scenario(name, 200), seed=seed)
        want = np.array([t.counts for t in replicate_tables(config)])
        np.testing.assert_array_equal(study_tables(monkeypatch, config), want)

    def test_four_variables_with_means_and_unequal_variances(self, monkeypatch):
        config = four_variable_config()
        want = np.array([t.counts for t in replicate_tables(config)])
        assert want.shape == (130, 4**4)
        np.testing.assert_array_equal(study_tables(monkeypatch, config), want)


class TestZeroMeans:
    """Every bundled scenario has zero means, whose column adds ``mvn_sample``
    skips: the draws and the study's tables are those of adding every mean."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bundled_scenarios_draw_as_if_every_mean_were_added(self, monkeypatch, name):
        config = scenario(name, 70)
        assert config.means == (0.0,) * config.T
        cuts = np.array(config.effective_cutpoints())
        r = len(cuts) + 1
        want = []
        for k in range(config.n_reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(k,)))
            z = rng.standard_normal((config.n_obs, config.T))
            x = np.asarray(config.means) + z @ np.linalg.cholesky(config.covariance()).T
            assert np.array_equal(mvn_sample(config, k), x)
            codes = np.searchsorted(cuts, x, side="left")
            want.append(np.bincount(codes @ r ** np.arange(config.T - 1, -1, -1),
                                    minlength=r**config.T))
        np.testing.assert_array_equal(study_tables(monkeypatch, config), want)
        np.testing.assert_array_equal([t.counts for t in replicate_tables(config)], want)


class TestDrawThreads:
    """Each block is drawn and binned on one thread per CPU of the process's
    share; the tables and the rows do not depend on how many."""

    @pytest.mark.parametrize("make", [
        four_variable_config,
        lambda: scenario("table2_row1.json", 70),
    ], ids=["four-variables-130", "table2_row1-70"])
    def test_thread_counts_give_identical_stacks_and_rows(self, monkeypatch, make):
        config = make()
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_cpu_count", lambda cpus=cpus: cpus)
            threads = record_pools(monkeypatch)[1]
            results.append(study(monkeypatch, config))
            assert threads == [cpus]
        (stack, rows), *others = results
        assert stack.shape == (config.n_reps, (len(config.effective_cutpoints()) + 1) ** config.T)
        for other_stack, other_rows in others:
            np.testing.assert_array_equal(other_stack, stack)
            assert other_rows == rows

    @pytest.mark.parametrize("cpus,workers,threads", [
        (2, 1, [2]),
        (2, 2, [1, 1]),  # each process its share
        (5, 2, [2, 2]),
        (1, 3, [1, 1, 1]),  # at least one
        (16, 1, [8]),  # no more than the replicates to draw
        (16, 2, [4, 4]),
    ])
    def test_each_process_draws_on_its_share_of_the_cpus(
        self, monkeypatch, cpus, workers, threads
    ):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        started = record_pools(monkeypatch)[1]
        config = tiny_config()  # 8 replicates
        rows = power_study(config, workers=workers).rows
        assert started == threads
        monkeypatch.undo()
        assert rows == power_study(config).rows

    def test_no_thread_outlives_the_study(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
        before = threading.active_count()
        power_study(tiny_config())
        assert threading.active_count() == before

        def failing(config, replicate_id, out=None, work=None):
            raise RuntimeError(f"no draw for replicate {replicate_id}")

        monkeypatch.setattr(simulate, "mvn_sample", failing)
        with pytest.raises(RuntimeError, match="no draw for replicate"):
            power_study(tiny_config())
        assert threading.active_count() == before


def bundled_dfs() -> set[int]:
    return {
        degrees_of_freedom(spec.family, shape)
        for config in (scenario(name, 1) for name in SCENARIOS)
        for shape in [TableShape(len(config.effective_cutpoints()) + 1, config.T)]
        for spec in config.models
    }


def critical_value(df: int, alpha: float) -> float:
    """Where pvalue(., df) crosses alpha, by bisection down to adjacent floats."""
    lo, hi = 0.0, 10.0 * df + 100.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if pvalue(mid, df) < alpha else (mid, hi)
    return hi


class TestRejectionCount:
    """The bisected count is the loop of pvalue over the block."""

    @staticmethod
    def loop(stats, df, alpha):
        return sum(pvalue(g2, df) < alpha for g2 in stats if not np.isnan(g2))

    @pytest.mark.parametrize("df", sorted(bundled_dfs()))
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_dense_grid_around_the_critical_value(self, rng, df, alpha):
        c = critical_value(df, alpha)
        ulps = c + np.arange(-400, 401) * np.spacing(c)  # nextafter neighbours
        near = c * (1.0 + np.concatenate([-np.logspace(-15, -2, 60), np.logspace(-15, -2, 60)]))
        grid = np.concatenate([ulps, near, [0.0, c / 2, 2 * c]])
        assert simulate._rejections(grid, df, alpha) == self.loop(grid, df, alpha)
        for _ in range(100):
            block = rng.choice(grid, size=64)  # ties too
            block[rng.random(64) < 0.1] = np.nan
            assert simulate._rejections(block, df, alpha) == self.loop(block, df, alpha)
        for k in range(0, len(ulps) - 64, 16):  # runs of consecutive floats
            run = ulps[k : k + 64]
            assert simulate._rejections(run, df, alpha) == self.loop(run, df, alpha)

    def test_pvalue_is_not_monotone_at_the_ulp_scale(self):
        # why the values beside the bisected boundary are decided one by one
        c = critical_value(44, 0.05)
        decisions = [pvalue(g2, 44) < 0.05 for g2 in c + np.arange(-400, 401) * np.spacing(c)]
        assert not decisions[0] and decisions[-1]
        assert np.count_nonzero(np.diff(decisions)) > 1

    def test_empty_and_nan_blocks(self):
        assert simulate._rejections(np.array([]), 44, 0.05) == 0
        assert simulate._rejections(np.full(64, np.nan), 44, 0.05) == 0

    def test_a_few_pvalue_calls_per_block(self, rng, monkeypatch):
        calls = []

        def counting(stat, df, real=simulate.pvalue):
            calls.append(stat)
            return real(stat, df)

        monkeypatch.setattr(simulate, "pvalue", counting)
        block = rng.chisquare(44, size=64)
        assert simulate._rejections(block, 44, 0.05) == self.loop(block, 44, 0.05)
        assert len(calls) <= 9  # 7 bisection steps and the two values beside the boundary
