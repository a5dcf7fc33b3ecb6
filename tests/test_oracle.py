"""The dense oracles stay off the production path, and their old names resolve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsym
from fsym import fitting, oracle, wald

# Old import paths of the oracle's names, as tests and the benchmark read them.
OLD_NAMES = [
    (fitting, name)
    for name in ("fit_hlp", "symmetry_constraint", "linkform_constraint", "moment_constraint", "f_jacobian")
] + [
    (wald, name) for name in ("sigma", "f_jacobian", "orbit_averaging_matrix", "wald_statistic")
] + [
    (fsym, name) for name in ("fit_hlp", "f_jacobian", "sigma", "wald_statistic")
]

# Every production entry point, in a fresh interpreter; prints the fsym
# modules it loaded.
ENTRY_POINTS = """
import json, sys, tempfile
from pathlib import Path

import numpy as np

from fsym import ModelSpec, ProjectionSpec, SimConfig, decompose, fit_model, iproject, parse_f, power_study
from fsym.cli import main
from fsym.datasets import anes_party_id, data_path
from fsym.design import ASYMMETRY_FAMILIES
from fsym.fitting import FAMILIES, fit_block

table = anes_party_id()
links = ("kl", "pearson", "hellinger", "power:2")
for family in FAMILIES:
    for f in links if family in ASYMMETRY_FAMILIES else (None,):
        fit_model(table, ModelSpec(family, f and parse_f(f)))
stack = np.array([table.counts + 1, table.counts + 2])
for spec in (ModelSpec("s"), ModelSpec("gs", parse_f("kl"))):
    fit_block(table.shape, stack, spec)
config = SimConfig.from_dict({
    "means": [0, 0, 0], "variances": [1, 1, 1], "correlations": [0.2, 0.2, 0.2],
    "n_obs": 500, "n_reps": 4, "seed": 3,
    "models": [{"family": "s"}, {"family": "gs", "f": "kl"}, {"family": "gs", "f": "power:2"},
               {"family": "me"}],
})
power_study(config)
decompose(table, parse_f("kl"))
iproject(ProjectionSpec(table.smoothed_proportions(), parse_f("pearson")))
anes = str(data_path("anes_party_id.json"))
with tempfile.TemporaryDirectory() as out:
    for argv in (["fit", "--input", anes, "--model", "ce"],
                 ["fit", "--input", anes, "--model", "gs", "--f", "power:2", "--json"],
                 ["decompose", "--input", anes],
                 ["design", "--r", "3", "--T", "3", "--model", "gs", "--out", out]):
        assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("fsym"))))
"""


def test_no_production_entry_point_loads_the_oracle():
    env = dict(os.environ, PYTHONPATH=str(Path(fsym.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", ENTRY_POINTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert {"fsym.cli", "fsym.simulate", "fsym.projection", "fsym.wald", "fsym.tilted"} <= set(loaded)
    assert "fsym.oracle" not in loaded


@pytest.mark.parametrize(
    "module,name", OLD_NAMES, ids=[f"{m.__name__}.{n}" for m, n in OLD_NAMES]
)
def test_old_names_are_the_oracle_objects(module, name):
    assert getattr(module, name) is getattr(oracle, name)


def test_package_exports_keep_the_oracle_names():
    names = {name for module, name in OLD_NAMES if module is fsym}
    assert names <= set(fsym.__all__)
    namespace = {}
    exec("from fsym import *", namespace)
    assert all(namespace[name] is getattr(oracle, name) for name in names)


@pytest.mark.parametrize("module", [fitting, wald, fsym], ids=lambda m: m.__name__)
def test_unknown_names_still_raise(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "_wald")
