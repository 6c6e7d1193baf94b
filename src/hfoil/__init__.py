"""hfoil: hyperboloidal-slice diagnostics for wave / Klein-Gordon systems.

Evolves a coupled wave and Klein-Gordon model on the Cartesian time
levels of a radial grid, then measures everything on the hyperboloids
t^2 - |x|^2 = s^2: slice energies of boosted derivatives, weighted sup
norms, decay exponents, and explicit pointwise envelope bounds.  A
run's slice derivatives are all read through one frame algebra, the
chain-rule expansions of :mod:`hfoil.analysis`.
"""
from .util import (ConfigError, EmptyLatticeError, FoliationError,
                   SliceCoverageError, StabilityError, StencilRangeError)
from .fields import RadialGrid
from .solver import (InitialData, ModelParams, RunResult, evolve_model,
                     grid_for_run, solve_linear_kg_curved,
                     solve_linear_wave_sourced)
from .analysis import (PowerFit, QueryPool, SliceDerivativeTable,
                       SliceEnergySuite, SupTracker, combo_expansion,
                       design_lowpass, fit_power_law,
                       hierarchy_check, hierarchy_combos, hierarchy_target,
                       profile_family, slice_cone_margin,
                       sobolev_ratio_profile)
from .bounds import (BoundParams, MetricPerturb, RayCoords, WaveSourceStack,
                     accumulate_F, envelope_V, h_ray_derivative,
                     kg_bound_margin, metric_pull, wave_bound_margin,
                     wave_bound_value, wave_source)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "EmptyLatticeError", "FoliationError",
    "SliceCoverageError", "StabilityError", "StencilRangeError",
    "RadialGrid",
    "InitialData", "ModelParams", "RunResult", "evolve_model",
    "grid_for_run", "solve_linear_kg_curved", "solve_linear_wave_sourced",
    "PowerFit", "QueryPool", "SliceDerivativeTable", "SliceEnergySuite",
    "SupTracker", "combo_expansion", "design_lowpass", "fit_power_law",
    "hierarchy_check", "hierarchy_combos", "hierarchy_target",
    "profile_family",
    "slice_cone_margin", "sobolev_ratio_profile",
    "BoundParams", "MetricPerturb", "RayCoords", "WaveSourceStack",
    "accumulate_F",
    "envelope_V", "h_ray_derivative", "kg_bound_margin", "metric_pull",
    "wave_bound_margin", "wave_bound_value", "wave_source",
    "__version__",
]
