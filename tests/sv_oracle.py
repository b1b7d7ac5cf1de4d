"""The hydrostatic (mu = 0) limit with surface tension, written out
independently of the package's one right-hand side, in variables
(zeta, vbar) where vbar = u2 - gamma*u1 = ((h1 + gamma*h2)/(h1*h2)) w.

With the depth-flux function H(X) = h1*h2 / (h1 + gamma*h2), h1 = 1 - X,
h2 = 1/delta + X evaluated at X = eps*zeta, the system reads

    dt zeta = -dx( H(eps*zeta) vbar )
    dt vbar = -(gamma+delta) dx zeta - (eps/2) dx( H'(eps*zeta) vbar^2 )
              + (gamma+delta)/Bo * dx^3 zeta.

Both equations are exact spatial derivatives, so the means of zeta and vbar
are conserved. Runs integrate this system as the mu = 0 case of
:func:`gnwaves.operators.rhs` (there v = vbar); :func:`sv_rhs` is the oracle
the tests compare that case against. Its hyperbolicity criterion is
:func:`gnwaves.diagnostics.sv_hyperbolicity_margin`.
"""

from gnwaves.operators import layer_depths
from gnwaves.spectral import ddx


def depth_flux(params, zeta):
    """H(eps*zeta) = h1 h2 / (h1 + gamma h2)."""
    h1, h2 = layer_depths(params, zeta)
    return h1 * h2 / (h1 + params.gamma * h2)


def depth_flux_prime(params, zeta):
    """dH/dX = (h1^2 - gamma h2^2) / (h1 + gamma h2)^2 (closed form)."""
    h1, h2 = layer_depths(params, zeta)
    return (h1**2 - params.gamma * h2**2) / (h1 + params.gamma * h2) ** 2


def sv_rhs(grid, params, zeta, vbar):
    """Tendencies (dt zeta, dt vbar)."""
    p = params
    dzeta = -ddx(grid, depth_flux(p, zeta) * vbar)
    flux = (p.gamma + p.delta) * zeta + 0.5 * p.epsilon * depth_flux_prime(p, zeta) * vbar**2
    dvbar = -ddx(grid, flux)
    if p.inv_bond > 0.0:
        dvbar += (p.gamma + p.delta) * p.inv_bond * ddx(grid, ddx(grid, ddx(grid, zeta)))
    return dzeta, dvbar
