"""Exact and Monte Carlo tools for the binary weaving cascade.

A depth-``n`` weave scatters mass ``p**ones(k) * (1-p)**(n-ones(k))`` onto
the lattice point ``k/(2**n - 1)``; the modules here build that law with
rational arithmetic, simulate the two-population sampling scheme that
realizes it, and expose the closed-form moment and variance structure.
"""

from importlib import import_module

from weaver.analysis import (
    DecompositionRow,
    RoughnessReport,
    exact_moment,
    exact_variance,
    limit_variance,
    local_density,
    pmodel_cell_masses,
    roughness_report,
    variance_decomposition,
)
from weaver.errors import (
    CapacityError,
    ContractError,
    DegeneracyError,
    RangeError,
    RefinementError,
    WeaverError,
)
from weaver.exact import (
    MATERIALIZATION_CAP,
    DyadicPoint,
    SelectionPath,
    WeaverDist,
    WeaverParams,
    as_exact_probability,
    build_pmf_vector,
    cdf_at_dyadic,
    exponent_sum,
    geometric_triangle_row,
    jump_spectrum,
    mirror_index,
    pmf_point,
    pmf_point_log2,
    realization_value,
)

# The sampler side needs numpy; the exact side does not.  Its names are
# resolved on first access (PEP 562), so the exact commands never load it.
_LAZY_MODULES = {
    "weaver.parents": (
        "ParentDistribution",
        "bernoulli",
        "gaussian",
        "is_standardized",
        "point_mass",
        "standardize_parents",
        "uniform_interval",
    ),
    "weaver.sampler": (
        "PATH_ONLY_CAP",
        "RAW_DRAW_CAP",
        "MomentReport",
        "SampleRun",
        "convergence_ks",
        "draw_selection_path",
        "monte_carlo_moments",
        "path_ensemble",
        "run_ensemble",
        "run_exponential_sample",
        "run_from_path",
        "simulate_mean_ensemble",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "MATERIALIZATION_CAP",
    "PATH_ONLY_CAP",
    "RAW_DRAW_CAP",
    "CapacityError",
    "ContractError",
    "DecompositionRow",
    "DegeneracyError",
    "DyadicPoint",
    "MomentReport",
    "ParentDistribution",
    "RangeError",
    "RefinementError",
    "RoughnessReport",
    "SampleRun",
    "SelectionPath",
    "WeaverDist",
    "WeaverError",
    "WeaverParams",
    "as_exact_probability",
    "bernoulli",
    "build_pmf_vector",
    "cdf_at_dyadic",
    "convergence_ks",
    "draw_selection_path",
    "exact_moment",
    "exact_variance",
    "exponent_sum",
    "gaussian",
    "geometric_triangle_row",
    "is_standardized",
    "jump_spectrum",
    "limit_variance",
    "local_density",
    "mirror_index",
    "monte_carlo_moments",
    "path_ensemble",
    "pmf_point",
    "pmf_point_log2",
    "pmodel_cell_masses",
    "point_mass",
    "realization_value",
    "roughness_report",
    "run_ensemble",
    "run_exponential_sample",
    "run_from_path",
    "simulate_mean_ensemble",
    "standardize_parents",
    "uniform_interval",
    "variance_decomposition",
]
