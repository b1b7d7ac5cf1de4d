# Linear theory against the nonlinear code.
#
# Around a constant-shear state, a mode k is unstable once a(k) < 0, and
# linear theory predicts the growth rate |k| sqrt(-a(k) b(k)). Here we pick
# a mode, set the shear to twice its instability threshold, seed the growing
# eigenvector at amplitude 1e-8, and measure the growth of that Fourier bin
# in the full nonlinear evolution over one e-folding.

import sys

import numpy as np

from gnwaves.multipliers import MultiplierSpec
from gnwaves.operators import GNContext, GNWorkspace, apply_mass_operator, rhs
from gnwaves.params import PhysParams
from gnwaves.spectral import Grid, irfft
from gnwaves.stability import growth_rates, model_coeffs, threshold_curve
from gnwaves.timestepper import integrate

params = PhysParams(gamma=0.95, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=5e-4)
grid = Grid(512, 4.0)
spec = MultiplierSpec.identity()
ctx = GNContext(grid, params, spec)

k0 = 16 * 2 * np.pi / grid.length
threshold = threshold_curve(np.array([k0]), params, spec)[0]
wbar = float(np.sqrt(2.0 * threshold) / params.epsilon)
sigma = float(growth_rates(np.array([k0]), params, spec, wbar)[0])
a, b, _ = model_coeffs(k0, params, spec, wbar)  # they seed the growing eigenvector
print(f"mode k = {k0:.3f}: threshold eps^2 wbar^2 = {threshold:.4f}, "
      f"shear set to twice that -> predicted rate {sigma:.4f}")

amp = 1e-8
zeta0 = amp * np.cos(k0 * grid.x)
v0 = apply_mass_operator(ctx, GNWorkspace().load(ctx, np.zeros(grid.n)), np.full(grid.n, wbar))
v0 = v0 - amp * np.sqrt(-a / b) * np.sin(k0 * grid.x)

idx = int(np.argmin(np.abs(grid.k - k0)))
trace = []  # integrate reports t = 0 first, then every accepted step
workspace = GNWorkspace()


# plain Dormand-Prince stages (no linear part) take the tendencies in
# physical space: the irfft of rhs's spectral ones; each solve starts from
# the last stage's flux
def f(t, y, u):
    return irfft(rhs(ctx, workspace, *y, x0=workspace.w), grid.n)


def watch(t, y, stats):
    trace.append((t, abs(np.fft.rfft(y[0])[idx]) / grid.n))


result = integrate(f, (0.0, 1.0 / sigma), np.stack((zeta0, v0)),
                   rel_tol=1e-10, abs_tol=1e-13, on_step=watch)
if result.reason:  # a run that stopped early measures no e-folding
    sys.exit(f"stopped at t = {result.t:.4f}: {result.reason}")

ts = np.array([t for t, _ in trace])
amps = np.array([a_ for _, a_ in trace])
rate = np.polyfit(ts, np.log(amps), 1)[0]
print(f"measured rate over one e-folding: {rate:.4f}  "
      f"({100 * abs(rate - sigma) / sigma:.3f}% from prediction)")
