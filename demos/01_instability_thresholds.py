# Instability-threshold curves for the three dispersion families.
#
# For each wavenumber k we compute the squared shear strength eps^2*wbar^2
# above which mode k grows, for the classical model (identity multiplier),
# the regularized family, the improved family, and the exact-dispersion
# two-layer reference. The improved family lies exactly on the reference
# curve; the classical model triggers instabilities at much weaker shear
# for large k, which is the whole story of the high-frequency
# Kelvin-Helmholtz problem.

import numpy as np

from gnwaves.io_store import write_table
from gnwaves.params import PhysParams
from gnwaves.stability import threshold_table

params = PhysParams(gamma=0.95, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=5e-4)
k = np.linspace(0.1, 100.0, 1000)
columns = threshold_table(k, params)

imp_vs_euler = np.nanmax(
    np.abs(columns["threshold_improved"] - columns["threshold_euler"])
    / columns["threshold_euler"]
)
print(f"improved vs exact dispersion: max relative gap {imp_vs_euler:.2e}")

for name in ("threshold_original", "threshold_regularized", "threshold_improved"):
    thr = columns[name]
    i_min = int(np.nanargmin(thr))
    print(f"{name:24s} min threshold {thr[i_min]:.4f} at k = {k[i_min]:.2f}")

out = "thresholds.csv"
write_table(out, ",".join(columns), list(columns.values()))
print(f"wrote {out}")

try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 5))
    for name, style in [
        ("threshold_original", "-"),
        ("threshold_regularized", "--"),
        ("threshold_improved", "-."),
        ("threshold_euler", ":"),
    ]:
        ax.loglog(k, columns[name], style, label=name.removeprefix("threshold_"))
    ax.set_xlabel("wavenumber k")
    ax.set_ylabel(r"instability threshold $\epsilon^2 \bar{w}^2$")
    ax.legend()
    fig.tight_layout()
    fig.savefig("thresholds.png", dpi=150)
    print("wrote thresholds.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
