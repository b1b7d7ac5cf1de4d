"""Conserved and monitored quantities along a trajectory.

Exactly conserved by the flow (and tracked as numerical-drift indicators):
excess mass Z, the velocity mass V, the horizontal impulse I, and the total
energy H. The horizontal momentum M is generally *not* conserved under a
rigid lid and is reported without any conservation claim; the centroid
quantity C is conserved only in the one-layer limit gamma = 0. The
high-band spectral amplitude (the largest mode from half-Nyquist up) flags
incipient shear instability. ``hyp_margin`` reads the hydrostatic system in
(zeta, vbar = w/H), H(X) = h1 h2 / (h1 + gamma h2): at mu = 0 it is zero
where the two characteristic speeds coalesce, at mu > 0 where one is zero.
"""

from dataclasses import dataclass, fields

import numpy as np

from .operators import LAYER_SIGN, _dxf, capillary_density, layer_depths
from .spectral import inner, mode_amplitudes

__all__ = [
    "DiagnosticsRow",
    "mass",
    "impulse",
    "energy",
    "momentum",
    "centroid",
    "band_max",
    "hyperbolicity_margin",
    "depth_flux_second",
    "sv_hyperbolicity_margin",
    "compute_row",
]


@dataclass
class DiagnosticsRow:
    t: float
    Z: float
    V: float
    I: float
    H: float
    M: float
    C: float
    hyp_margin: float
    high_band: float

    def as_csv(self):
        return ",".join(f"{getattr(self, f.name):.17g}" for f in fields(self))


DiagnosticsRow.HEADER = ",".join(f.name for f in fields(DiagnosticsRow))


def mass(grid, zeta):
    """Z = integral of zeta."""
    return grid.dx * float(np.sum(zeta))


def impulse(grid, zeta, v):
    """I = integral of zeta * v."""
    return inner(grid, zeta, v)


def energy(ctx, zeta, w):
    """Total energy
    integral[ (gamma+delta) zeta^2 + capillary
              + sum_i gamma_i ( h_i u_i^2 + (mu/3) h_i (h_i dx F_i u_i)^2 ) ]
    with layer weights (gamma_1, gamma_2) = (gamma, 1).

    Identically zero at rest, so drift needs no reference subtraction.
    """
    p = ctx.params
    grid = ctx.grid
    h = layer_depths(p, zeta)
    u = LAYER_SIGN * w / h
    density = (p.gamma + p.delta) * zeta**2 + capillary_density(grid, zeta, p)
    kinetic = np.array([[p.gamma], [1.0]]) * h * u**2
    density += kinetic[0] + kinetic[1]
    if p.mu > 0.0:
        s = _dxf(grid, u, ctx.dx_symbols)
        # layer i carries mu*gamma_i/3, rounded as mu*(gamma/3) and mu/3
        dispersive = np.array([[p.mu * (p.gamma / 3.0)], [p.mu / 3.0]]) * h * (h * s) ** 2
        density += dispersive[0]
        density += dispersive[1]
    return grid.dx * float(np.sum(density))


def momentum(grid, params, w):
    """M = integral of gamma h1 u1 + h2 u2 = (1 - gamma) * integral of w.
    Monitored only; the rigid lid breaks its conservation."""
    return (1.0 - params.gamma) * grid.dx * float(np.sum(w))


def centroid(grid, zeta, w, t):
    """C = integral of (zeta * x - t * w); a conservation check only for
    gamma = 0."""
    return grid.dx * float(np.sum(zeta * grid.x - t * w))


def band_max(grid, zeta):
    """max |zeta_hat(k)| over |k| >= grid.nyquist / 2, with the single-mode
    normalization |zeta_hat| = amplitude/2."""
    amps = mode_amplitudes(grid, zeta)
    return float(amps[grid.k >= 0.5 * grid.nyquist].max())


def hyperbolicity_margin(params, zeta, w):
    """min over x of (gamma+delta) - eps^2 (h2^-3 + gamma h1^-3) w^2, which
    is -lambda_+ lambda_- / H for the hydrostatic characteristic speeds at
    vbar = w/H: zero where one speed is zero (composite Froude number 1),
    not where they coalesce; never above the SV margin at vbar = w/H."""
    h1, h2 = layer_depths(params, zeta)
    p = params
    return float(np.min((p.gamma + p.delta) - p.epsilon**2 * (h2**-3 + p.gamma * h1**-3) * w**2))


def depth_flux_second(params, zeta):
    """d2H/dX2 = -2 gamma (h1 + h2)^2 / (h1 + gamma h2)^3 (closed form)."""
    h1, h2 = layer_depths(params, zeta)
    return -2.0 * params.gamma * (h1 + h2) ** 2 / (h1 + params.gamma * h2) ** 3


def sv_hyperbolicity_margin(params, zeta, vbar):
    """min over x of (gamma+delta) + (eps^2/2) H''(eps*zeta) vbar^2; zero
    where the two hydrostatic characteristic speeds coalesce, negative past
    that loss of hyperbolicity (the shear threshold)."""
    p = params
    return float(np.min((p.gamma + p.delta) + 0.5 * p.epsilon**2 * depth_flux_second(p, zeta) * vbar**2))


def compute_row(ctx, t, zeta, v, w):
    """One diagnostics record from a state snapshot (w already recovered).

    At mu = 0 the integrated system is the hydrostatic one, v equals vbar,
    and hyp_margin is its criterion :func:`sv_hyperbolicity_margin`; at
    mu > 0 it is :func:`hyperbolicity_margin`, another condition.
    """
    grid = ctx.grid
    if ctx.params.mu == 0.0:
        hyp_margin = sv_hyperbolicity_margin(ctx.params, zeta, v)
    else:
        hyp_margin = hyperbolicity_margin(ctx.params, zeta, w)
    return DiagnosticsRow(
        t=t,
        Z=mass(grid, zeta),
        V=grid.dx * float(np.sum(v)),
        I=impulse(grid, zeta, v),
        H=energy(ctx, zeta, w),
        M=momentum(grid, ctx.params, w),
        C=centroid(grid, zeta, w, t),
        hyp_margin=hyp_margin,
        high_band=band_max(grid, zeta),
    )
