"""Smoke tests of the benchmark harness on tiny versions of its workloads.

Run from the repository root:

    PYTHONPATH=src python -m pytest fsymbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import fsym  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int):
    if name == "power":
        return workloads.Power(seed, reps=2, scenarios=("table2_row3.json",))
    if name == "ladder":
        return workloads.Ladder(seed, shapes=((3, 3),))
    return workloads.Anes(seed)


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def inputs(workload) -> list:
    if isinstance(workload, workloads.Power):
        return [
            fsym.discretize(fsym.mvn_sample(c, 0), c.effective_cutpoints()).counts.tolist()
            for c in workload.configs.values()
        ]
    return [t.counts.tolist() for t in workload.tables]


def import_sites() -> dict:
    sites = {
        (site, name.split(".")[1]) for name, names in tracing.TRACED for site in names
    }
    sites |= {("fitting", attr) for attr, _ in tracing.CONSTRAINT_FACTORIES}
    return {(s, a): getattr(tracing._site(s), a) for s, a in sites}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace):
    workload = tiny(name, 1)
    cold_s = workload.setup()
    result = worker.measure(workload, 0.0, trace, cold_s)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if not trace:
        got["setup_s"] = "s"  # timed by run.py around the worker processes
    assert got == units("per_layer" if trace else "end_to_end")
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]


def test_traced_run_restores_every_patch():
    before = import_sites()
    workload = tiny("anes", 1)
    workload.setup()
    worker.measure(workload, 0.0, True)
    after = import_sites()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_tracer_sees_every_layer_and_nothing_after_restore():
    tracer, totals = tracing.Tracer(), tracing.Totals()
    for name in ("anes", "power"):
        workload = tiny(name, 1)
        workload.setup()
        tracer.install()
        try:
            workload.run_pass()
        finally:
            tracer.restore()
        tracer.fold(totals)
    traced = {name for name, _ in tracing.TRACED}
    traced |= {f"fitting.{kind}_{cb}" for _, kind in tracing.CONSTRAINT_FACTORIES
               for cb in ("fun", "jac", "hess")}
    assert traced <= set(totals.layers)
    assert len(totals.fits) == totals.layers["fitting.fit_model"][0]

    workload.run_pass()
    assert tracer.spans == [] and tracer.fits == []


@pytest.mark.parametrize("name", ["power", "ladder"])
def test_seed_changes_inputs_but_not_metric_names(name):
    first, second = tiny(name, 1), tiny(name, 2)
    first.setup()
    second.setup()
    assert inputs(first) != inputs(second)
    names = [set(worker.measure(w, 0.0, False)["metrics"]) for w in (first, second)]
    assert names[0] == names[1]


def test_power_budget_error_fails_the_scenario(monkeypatch):
    workload = tiny("power", 1)
    workload.setup()

    def over_budget(config, workers=1):
        raise RuntimeError(f"1 of {config.n_reps} replicates failed to fit gs[kl]")

    monkeypatch.setattr(fsym, "power_study", over_budget)
    out = workload.run_pass()
    assert out.attempted == out.failed == 2 * 2


def test_rate_band_scales_with_replicates():
    assert workloads.rate_problem("table2_row3.json", "gs[kl]", 0.085, 200) is None
    assert workloads.rate_problem("table2_row3.json", "gs[kl]", 0.40, 200)
    assert workloads.rate_problem("table2_row2.json", "s", 0.80, 100)
    assert workloads.rate_problem("table2_row2.json", "els[kl]", 0.10, 100) is None


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "fsymbench/run.py", "--workload", "anes", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "anes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
