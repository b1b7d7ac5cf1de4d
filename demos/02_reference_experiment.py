# The reference experiment: a Gaussian interface depression released from
# rest, integrated to t = 2 with surface tension, once per dispersion family.
#
# All three families agree on the smooth main wave. The classical model
# (identity) additionally grows a high-frequency component out of round-off
# noise: look at the high_band column of diag.csv, or at the spectrum of the
# i-th snapshot, mode_amplitudes(Grid(n, L), read_snapshots(path)[1][i]) with
# path the record's snapshots.npy. Under the
# default 2/3 rule that growth stays below the cut n/3 (high_band 4e-11 at
# t = 2); with dealias = false it reaches 3e-6, and the identity run's
# impulse drifts by about 7e-9. Conserved-quantity drifts land at
# integrator accuracy (1e-17 .. 1e-12).

import os

from gnwaves.io_store import read_diagnostics
from gnwaves.params import ExperimentConfig, with_overrides
from gnwaves.runner import run_experiment

base = with_overrides(ExperimentConfig(), t_end=2.0, snapshot_times=(1.0, 2.0))
out_root = "reference_runs"

for name in ("identity", "regularized", "improved"):
    out = os.path.join(out_root, name)
    result = run_experiment(with_overrides(base, multiplier=name), out, force=True)
    diag = read_diagnostics(os.path.join(out, "diag.csv"))
    drift = {q: diag[q][-1] - diag[q][0] for q in ("Z", "V", "I", "H")}
    print(
        f"{name:12s} {result.status:9s} steps={result.stats.accepted:5d}  "
        f"dZ={drift['Z']:+.2e} dV={drift['V']:+.2e} dI={drift['I']:+.2e} dH={drift['H']:+.2e}  "
        f"high_band(t=2)={diag['high_band'][-1]:.2e}"
    )

print(f"run records in {out_root}/<multiplier>/ (snapshots, diag.csv, manifest)")
