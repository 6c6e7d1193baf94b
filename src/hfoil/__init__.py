"""hfoil: hyperboloidal-slice diagnostics for wave / Klein-Gordon systems.

Evolves a coupled wave and Klein-Gordon model on Cartesian time levels,
then measures everything on the hyperboloids t^2 - |x|^2 = s^2: slice
energies of boosted derivatives, weighted sup norms, decay exponents,
and explicit pointwise envelope bounds.
"""
from .util import (ConfigError, FoliationError, SliceCoverageError,
                   StabilityError, StencilRangeError)
from .fields import EVEN, ODD, BoxGrid, FieldHistory, RadialGrid, sample_history
from .geometry import (apply_frame_tangent, dalembertian_cartesian,
                       dalembertian_frame, slice_cone_margin)
from .solver import (InitialData, ModelParams, RunResult, evolve_model,
                     grid_for_run, solve_linear_kg_curved,
                     solve_linear_wave_sourced)
from .analysis import (PowerFit, QueryPool, SliceDerivativeTable,
                       SliceEnergySuite, SupTracker, combo_expansion,
                       design_lowpass, filter_level, fit_power_law,
                       hierarchy_check, hierarchy_combos, hierarchy_target,
                       kernel_response, profile_family,
                       sobolev_ratio_profile, write_csv, write_json)
from .bounds import (BoundParams, MetricPerturb, RayCoords, accumulate_F,
                     attach_refinement, envelope_V, h_ray_derivative,
                     kg_bound_margin, metric_pull, refinement_delta,
                     wave_bound_margin, wave_bound_value, wave_source)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "FoliationError", "SliceCoverageError", "StabilityError",
    "StencilRangeError",
    "EVEN", "ODD", "BoxGrid", "FieldHistory", "RadialGrid", "sample_history",
    "apply_frame_tangent", "dalembertian_cartesian", "dalembertian_frame",
    "slice_cone_margin",
    "InitialData", "ModelParams", "RunResult", "evolve_model",
    "grid_for_run", "solve_linear_kg_curved", "solve_linear_wave_sourced",
    "PowerFit", "QueryPool", "SliceDerivativeTable", "SliceEnergySuite",
    "SupTracker", "combo_expansion", "design_lowpass", "filter_level",
    "fit_power_law", "hierarchy_check", "hierarchy_combos",
    "hierarchy_target", "kernel_response", "profile_family",
    "sobolev_ratio_profile", "write_csv", "write_json",
    "BoundParams", "MetricPerturb", "RayCoords", "accumulate_F",
    "attach_refinement", "envelope_V", "h_ray_derivative", "kg_bound_margin",
    "metric_pull", "refinement_delta", "wave_bound_margin",
    "wave_bound_value", "wave_source",
    "__version__",
]
