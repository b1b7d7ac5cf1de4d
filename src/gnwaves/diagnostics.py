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

A row reads the products of one spectral pass at (zeta, w), the pass of
:func:`gnwaves.operators.interface_gradient`: the depths, velocities,
slope, dx F u and zeta_hat it keeps on the workspace feed the energy, the
margin and the high band. The runner passes the workspace of the accepted
(FSAL) stage, whose pass ``rhs`` has just run, so its rows make no
transform; without a stage (the t = 0 row), :func:`compute_row` runs
``interface_gradient`` on a fresh workspace, once for the whole row, and
discards the gradient.
"""

from dataclasses import dataclass, fields

import numpy as np

from .operators import GNWorkspace, capillary_density, interface_gradient, layer_depths
from .spectral import inner

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


def _stage(ctx, zeta, w, stage):
    """``stage``, or, when it is None, a freshly loaded workspace holding the
    products of the spectral pass at (zeta, w): it runs
    :func:`~gnwaves.operators.interface_gradient` and discards the gradient
    (whose rfft/irfft pair the products do not need)."""
    if stage is None:
        stage = GNWorkspace().load(ctx, zeta)
        interface_gradient(ctx, zeta, w, stage)
    return stage


def energy(ctx, zeta, w, stage=None):
    """Total energy
    integral[ (gamma+delta) zeta^2 + capillary
              + sum_i gamma_i ( h_i u_i^2 + (mu/3) h_i (h_i dx F_i u_i)^2 ) ]
    with layer weights (gamma_1, gamma_2) = (gamma, 1).

    The depths, velocities, slope and dx F u are read from ``stage``, the
    products of the spectral pass at (zeta, w) (the runner passes those of
    the accepted stage); without it the pass runs here.
    Identically zero at rest, so drift needs no reference subtraction.
    """
    p = ctx.params
    stage = _stage(ctx, zeta, w, stage)
    h, u = stage.depths, stage.u
    density = (p.gamma + p.delta) * zeta**2
    if p.inv_bond > 0.0:
        density += capillary_density(p, stage.slope)
    kinetic = np.array([[p.gamma], [1.0]]) * h * u**2
    density += kinetic[0] + kinetic[1]
    if p.mu > 0.0:
        s = stage.dxf_u
        # layer i carries mu*gamma_i/3, rounded as mu*(gamma/3) and mu/3
        dispersive = np.array([[p.mu * (p.gamma / 3.0)], [p.mu / 3.0]]) * h * (h * s) ** 2
        density += dispersive[0]
        density += dispersive[1]
    return ctx.grid.dx * float(np.sum(density))


def momentum(grid, params, w):
    """M = integral of gamma h1 u1 + h2 u2 = (1 - gamma) * integral of w.
    Monitored only; the rigid lid breaks its conservation."""
    return (1.0 - params.gamma) * grid.dx * float(np.sum(w))


def centroid(grid, zeta, w, t):
    """C = integral of (zeta * x - t * w); a conservation check only for
    gamma = 0."""
    return grid.dx * float(np.sum(zeta * grid.x - t * w))


def band_max(grid, zeta_hat):
    """max |zeta_hat(k)| / n over |k| >= grid.nyquist / 2 for zeta_hat =
    rfft(zeta): the normalization of ``spectral.mode_amplitudes``, under
    which a single mode has amplitude/2."""
    amps = np.abs(zeta_hat) / grid.n
    return float(amps[grid.k >= 0.5 * grid.nyquist].max())


def hyperbolicity_margin(params, zeta, w, depths=None):
    """min over x of (gamma+delta) - eps^2 (h2^-3 + gamma h1^-3) w^2, which
    is -lambda_+ lambda_- / H for the hydrostatic characteristic speeds at
    vbar = w/H: zero where one speed is zero (composite Froude number 1),
    not where they coalesce; never above the SV margin at vbar = w/H.
    ``depths`` passes ``layer_depths(params, zeta)`` when the caller has it."""
    h1, h2 = layer_depths(params, zeta) if depths is None else depths
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


def compute_row(ctx, t, zeta, v, w, stage=None):
    """One diagnostics record from a state snapshot (w already recovered).

    ``stage`` passes the products of the spectral pass at (zeta, w) (a
    :class:`~gnwaves.operators.GNWorkspace` right after :func:`rhs` at
    that state, as the runner's accepted FSAL stage): the row then makes no
    transform. Without it the pass runs here, once for the whole row.

    At mu = 0 the integrated system is the hydrostatic one, v equals vbar,
    and hyp_margin is its criterion :func:`sv_hyperbolicity_margin`; at
    mu > 0 it is :func:`hyperbolicity_margin`, another condition.
    """
    grid = ctx.grid
    stage = _stage(ctx, zeta, w, stage)
    if ctx.params.mu == 0.0:
        hyp_margin = sv_hyperbolicity_margin(ctx.params, zeta, v)
    else:
        hyp_margin = hyperbolicity_margin(ctx.params, zeta, w, stage.depths)
    return DiagnosticsRow(
        t=t,
        Z=mass(grid, zeta),
        V=grid.dx * float(np.sum(v)),
        I=impulse(grid, zeta, v),
        H=energy(ctx, zeta, w, stage),
        M=momentum(grid, ctx.params, w),
        C=centroid(grid, zeta, w, t),
        hyp_margin=hyp_margin,
        high_band=band_max(grid, stage.zeta_hat),
    )
