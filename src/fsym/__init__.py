"""Symmetry and f-divergence asymmetry models for multi-way ordinal contingency tables."""

from .tables import (
    Cell,
    CountTable,
    ProbTable,
    TableShape,
    cell_index,
    cell_of_index,
    conditional_within_orbit,
    orbit,
    orbit_representative,
    symmetric_average,
)
from .divergences import FFunction, divergence, hellinger, kl, parse_f, pearson, power
from .design import DesignSystem, design_matrix, recover_coefficients
from .moments import MomentSet, constraint_jacobian, constraint_vector, moments
from .fitting import (
    FitError,
    FitResult,
    ModelSpec,
    degrees_of_freedom,
    discrepancy_measure,
    fit_model,
    fit_symmetry,
    g2,
    potential_params,
    pvalue,
)
from .projection import ProjectionSpec, forward_model, iproject, normalize_gamma
from .wald import WaldReport, decompose
from .simulate import SimConfig, discretize, default_cutpoints, mvn_sample, power_study
from .datasets import anes_party_id

__version__ = "0.1.0"

# The dense oracles (``oracle``) load on first access to these names.
_ORACLE_NAMES = frozenset(("fit_hlp", "f_jacobian", "sigma", "wald_statistic"))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Cell",
    "CountTable",
    "DesignSystem",
    "FFunction",
    "FitError",
    "FitResult",
    "ModelSpec",
    "MomentSet",
    "ProbTable",
    "ProjectionSpec",
    "SimConfig",
    "TableShape",
    "WaldReport",
    "anes_party_id",
    "cell_index",
    "cell_of_index",
    "conditional_within_orbit",
    "constraint_jacobian",
    "constraint_vector",
    "decompose",
    "default_cutpoints",
    "degrees_of_freedom",
    "design_matrix",
    "discrepancy_measure",
    "discretize",
    "divergence",
    "f_jacobian",
    "fit_hlp",
    "fit_model",
    "fit_symmetry",
    "forward_model",
    "g2",
    "hellinger",
    "iproject",
    "kl",
    "moments",
    "mvn_sample",
    "normalize_gamma",
    "orbit",
    "orbit_representative",
    "parse_f",
    "pearson",
    "potential_params",
    "power",
    "power_study",
    "pvalue",
    "recover_coefficients",
    "sigma",
    "symmetric_average",
    "wald_statistic",
]
