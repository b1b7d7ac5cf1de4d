"""Pseudo-spectral simulation and linear-stability analysis of two-layer
internal-wave models with adjustable Fourier-multiplier dispersion, including
the hydrostatic (Saint-Venant) limit and conserved-quantity diagnostics."""

__version__ = "0.1.0"

from .params import ExperimentConfig, PhysParams, instability_parameter, parse_config, serialize_config
from .spectral import Grid, apply_symbol, ddx, inner
from .multipliers import AdmissibilityReport, MultiplierSpec, check_admissibility, eval_multiplier
from .operators import (
    GNContext,
    GNWorkspace,
    apply_mass_operator,
    hamiltonian,
    invert_mass_operator,
    rhs,
    surface_tension_term,
    w_to_velocities,
)
from .stability import (
    euler_coeffs,
    euler_threshold_curve,
    growth_rate,
    model_coeffs,
    threshold_curve,
)
from .saint_venant import sv_hyperbolicity_margin, sv_rhs
from .timestepper import IntegrationResult, integrate
from .runner import RunResult, run_experiment

__all__ = [
    "__version__",
    "ExperimentConfig",
    "PhysParams",
    "instability_parameter",
    "parse_config",
    "serialize_config",
    "Grid",
    "apply_symbol",
    "ddx",
    "inner",
    "AdmissibilityReport",
    "MultiplierSpec",
    "check_admissibility",
    "eval_multiplier",
    "GNContext",
    "GNWorkspace",
    "apply_mass_operator",
    "hamiltonian",
    "invert_mass_operator",
    "rhs",
    "surface_tension_term",
    "w_to_velocities",
    "euler_coeffs",
    "euler_threshold_curve",
    "growth_rate",
    "model_coeffs",
    "threshold_curve",
    "sv_hyperbolicity_margin",
    "sv_rhs",
    "IntegrationResult",
    "integrate",
    "RunResult",
    "run_experiment",
]
