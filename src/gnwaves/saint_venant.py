"""The hydrostatic (mu = 0) limit with surface tension, in variables
(zeta, vbar) where vbar = u2 - gamma*u1 = ((h1 + gamma*h2)/(h1*h2)) w.

With the depth-flux function H(X) = h1*h2 / (h1 + gamma*h2), h1 = 1 - X,
h2 = 1/delta + X evaluated at X = eps*zeta, the system reads

    dt zeta = -dx( H(eps*zeta) vbar )
    dt vbar = -(gamma+delta) dx zeta - (eps/2) dx( H'(eps*zeta) vbar^2 )
              + (gamma+delta)/Bo * dx^3 zeta.

Both equations are exact spatial derivatives, so the means of zeta and vbar
are conserved. Runs integrate this system as the mu = 0 case of
:func:`gnwaves.operators.rhs` (there v = vbar); :func:`sv_rhs` is an
independent implementation of it that the tests compare rhs against, and
:func:`sv_hyperbolicity_margin` is its hyperbolicity criterion.
"""

import numpy as np

from .operators import layer_depths
from .spectral import ddx, dealias_mask

__all__ = [
    "depth_flux",
    "depth_flux_prime",
    "depth_flux_second",
    "sv_rhs",
    "sv_hyperbolicity_margin",
]


def depth_flux(params, zeta):
    """H(eps*zeta) = h1 h2 / (h1 + gamma h2)."""
    h1, h2 = layer_depths(params, zeta)
    return h1 * h2 / (h1 + params.gamma * h2)


def depth_flux_prime(params, zeta):
    """dH/dX = (h1^2 - gamma h2^2) / (h1 + gamma h2)^2 (closed form)."""
    h1, h2 = layer_depths(params, zeta)
    return (h1**2 - params.gamma * h2**2) / (h1 + params.gamma * h2) ** 2


def depth_flux_second(params, zeta):
    """d2H/dX2 = -2 gamma (h1 + h2)^2 / (h1 + gamma h2)^3 (closed form)."""
    h1, h2 = layer_depths(params, zeta)
    return -2.0 * params.gamma * (h1 + h2) ** 2 / (h1 + params.gamma * h2) ** 3


def sv_rhs(grid, params, zeta, vbar, dealias=False):
    """Tendencies (dt zeta, dt vbar)."""
    p = params
    dzeta = -ddx(grid, depth_flux(p, zeta) * vbar)
    flux = (p.gamma + p.delta) * zeta + 0.5 * p.epsilon * depth_flux_prime(p, zeta) * vbar**2
    dvbar = -ddx(grid, flux)
    if p.inv_bond > 0.0:
        dvbar += (p.gamma + p.delta) * p.inv_bond * ddx(grid, ddx(grid, ddx(grid, zeta)))
    if dealias:
        mask = dealias_mask(grid)
        dzeta = np.fft.irfft(mask * np.fft.rfft(dzeta), grid.n)
        dvbar = np.fft.irfft(mask * np.fft.rfft(dvbar), grid.n)
    return dzeta, dvbar


def sv_hyperbolicity_margin(params, zeta, vbar):
    """min over x of (gamma+delta) + (eps^2/2) H''(eps*zeta) vbar^2; negative
    values flag loss of hyperbolicity (the shear threshold)."""
    p = params
    return float(np.min((p.gamma + p.delta) + 0.5 * p.epsilon**2 * depth_flux_second(p, zeta) * vbar**2))
