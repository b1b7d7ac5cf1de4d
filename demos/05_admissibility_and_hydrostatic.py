# Two smaller capabilities in one script.
#
# First, the admissibility report: the structural conditions on a dispersion
# symbol (evenness, F(0)=1, F'(0)=0, positivity, bounded F'', sub-additive
# |k|F(k)) on the fixed window |k| <= 50, and the fitted decay
# |F(k)| <= K |k|^-sigma. The built-in families decay with sigma = 0
# (identity), 1 (regularized), 1/2 (improved).
#
# Second, the hydrostatic (mu = 0) limit: the same solver with the dispersive
# operators switched off; a small-amplitude mode travels at
# sqrt((gamma+delta) H(0) (1 + k^2/Bo)).

import numpy as np

from gnwaves.diagnostics import sv_hyperbolicity_margin
from gnwaves.multipliers import MultiplierSpec, check_admissibility
from gnwaves.params import ExperimentConfig, PhysParams, with_overrides
from gnwaves.runner import run_experiment

delta = 0.5
for spec in (
    MultiplierSpec.identity(),
    MultiplierSpec.regularized(delta),
    MultiplierSpec.improved(delta),
):
    print(check_admissibility(spec, layer=1).summary())
    print()

params = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=5e-4)
h0 = 1.0 / (params.gamma + params.delta)  # H(0)
print(f"hydrostatic long-wave speed sqrt((gamma+delta) H(0)) = {np.sqrt((params.gamma + params.delta) * h0):.6f}")
margin = sv_hyperbolicity_margin(params, np.zeros(8), np.zeros(8))
print(f"rest-state hyperbolicity margin: {margin:.4f}")

config = with_overrides(ExperimentConfig(), mu=0.0, t_end=1.0, grid_n=256)
result = run_experiment(config, "sv_run", force=True)
print(f"hydrostatic run: {result.status} in {result.stats.accepted} steps -> sv_run/")
