"""Conserved and monitored quantities along a trajectory.

Exactly conserved by the flow (and tracked as numerical-drift indicators):
excess mass Z, the velocity mass V, the horizontal impulse I, and the total
energy H. The horizontal momentum M is generally *not* conserved under a
rigid lid and is reported without any conservation claim; the centroid
quantity C is conserved only in the one-layer limit gamma = 0. The
high-band spectral amplitude (the largest mode from half-Nyquist up) flags
incipient shear instability. Every column but H and ``hyp_margin`` is one
rectangle-rule integral, dx * sum, or one spectral maximum, written out in
:func:`compute_row`; the fields of :class:`DiagnosticsRow` say what each
is. ``hyp_margin`` reads the hydrostatic system in (zeta, vbar = w/H),
H(X) = h1 h2 / (h1 + gamma h2): at mu = 0 it is zero where the two
characteristic speeds coalesce, at mu > 0 where one is zero.

A row reads the state (zeta, w) and the products of one spectral pass at
it from a :class:`~gnwaves.operators.GNWorkspace`: the stage loaded at
zeta whose pass :func:`gnwaves.operators.interface_gradient` ran with w.
The depths, velocities, slope, dx F u and zeta_hat it keeps feed the
energy, the margin and the high band, so a row makes no transform. The
runner passes the workspace of the accepted (FSAL) stage, whose pass
``rhs`` has just run; the t = 0 row's is the integrator's first stage, at
the initial state.
"""

from dataclasses import dataclass, fields

import numpy as np

from .operators import capillary_density, layer_depths

__all__ = [
    "DiagnosticsRow",
    "energy",
    "hyperbolicity_margin",
    "depth_flux_second",
    "sv_hyperbolicity_margin",
    "compute_row",
]


@dataclass
class DiagnosticsRow:
    t: float
    Z: float  # integral of zeta
    V: float  # integral of v
    I: float  # integral of zeta * v
    H: float  # :func:`energy`
    # integral of gamma h1 u1 + h2 u2 = (1 - gamma) * integral of w; the
    # rigid lid breaks its conservation, so it is monitored only
    M: float
    C: float  # integral of (zeta * x - t * w); conserved only at gamma = 0
    hyp_margin: float
    # max |zeta_hat(k)| / n over |k| >= nyquist / 2: the normalisation of
    # spectral.mode_amplitudes, under which a single mode has amplitude/2
    high_band: float

    def as_csv(self):
        return ",".join(f"{getattr(self, f.name):.17g}" for f in fields(self))


DiagnosticsRow.HEADER = ",".join(f.name for f in fields(DiagnosticsRow))


def energy(ctx, stage):
    """Total energy
    integral[ (gamma+delta) zeta^2 + capillary
              + sum_i gamma_i ( h_i u_i^2 + (mu/3) h_i (h_i dx F_i u_i)^2 ) ]
    with layer weights (gamma_1, gamma_2) = (gamma, 1), at the state
    (zeta, w) of ``stage``, whose spectral pass has run: zeta, the depths,
    velocities, slope and dx F u are read from it.
    Identically zero at rest, so drift needs no reference subtraction.
    """
    p = ctx.params
    h, u = stage.depths, stage.u
    density = (p.gamma + p.delta) * stage.zeta**2
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


def compute_row(ctx, t, v, stage):
    """One diagnostics record of the state (zeta, v) at time t, zeta and
    its flux w read from ``stage``, a
    :class:`~gnwaves.operators.GNWorkspace` loaded at zeta whose spectral
    pass ran with w (as right after :func:`rhs` at that state, the runner's
    accepted FSAL stage). The row makes no transform.

    At mu = 0 the integrated system is the hydrostatic one, v equals vbar,
    and hyp_margin is its criterion :func:`sv_hyperbolicity_margin`; at
    mu > 0 it is :func:`hyperbolicity_margin`, another condition.
    """
    grid, p = ctx.grid, ctx.params
    zeta, w = stage.zeta, stage.w
    if p.mu == 0.0:
        hyp_margin = sv_hyperbolicity_margin(p, zeta, v)
    else:
        hyp_margin = hyperbolicity_margin(p, zeta, w, stage.depths)
    amps = np.abs(stage.zeta_hat) / grid.n
    return DiagnosticsRow(
        t=t,
        Z=grid.dx * float(np.sum(zeta)),
        V=grid.dx * float(np.sum(v)),
        I=grid.dx * float(zeta @ v),
        H=energy(ctx, stage),
        M=(1.0 - p.gamma) * grid.dx * float(np.sum(w)),
        C=grid.dx * float(np.sum(zeta * grid.x - t * w)),
        hyp_margin=hyp_margin,
        high_band=float(amps[grid.k >= 0.5 * grid.nyquist].max()),
    )
