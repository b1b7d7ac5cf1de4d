"""Pseudo-spectral simulation and linear-stability analysis of two-layer
internal-wave models with adjustable Fourier-multiplier dispersion, including
the hydrostatic (Saint-Venant) limit and conserved-quantity diagnostics."""

__version__ = "0.1.0"

from .params import ExperimentConfig, PhysParams, parse_config, serialize_config
from .spectral import Grid
from .multipliers import AdmissibilityReport, MultiplierSpec, check_admissibility, eval_multiplier
from .operators import (
    GNContext,
    GNWorkspace,
    apply_mass_operator,
    invert_mass_operator,
    rhs,
)
from .stability import euler_threshold_curve, model_coeffs, threshold_curve
from .diagnostics import sv_hyperbolicity_margin
from .timestepper import IntegrationResult, integrate
from .runner import RunResult, run_experiment

__all__ = [
    "__version__",
    "ExperimentConfig",
    "PhysParams",
    "parse_config",
    "serialize_config",
    "Grid",
    "AdmissibilityReport",
    "MultiplierSpec",
    "check_admissibility",
    "eval_multiplier",
    "GNContext",
    "GNWorkspace",
    "apply_mass_operator",
    "invert_mass_operator",
    "rhs",
    "euler_threshold_curve",
    "model_coeffs",
    "threshold_curve",
    "sv_hyperbolicity_margin",
    "IntegrationResult",
    "integrate",
    "RunResult",
    "run_experiment",
]
