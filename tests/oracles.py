"""Reference quantities the tests measure the package against, written
independently of the code paths that runs take.

* :func:`inner`, the rectangle rule (L/n) * sum(f*g), which is exact for
  band-limited products resolvable on the grid.
* :func:`ddx`, the checked spectral derivative, and :func:`hamiltonian`, the
  conserved functional whose finite differences are the oracle of the
  zeta- and v-gradients (criterion 7).
* :func:`euler_coeffs`, the exact-dispersion shear coefficients of the
  two-layer Euler system, which the improved family reproduces
  (criterion 4).
* :func:`sv_rhs`, the hydrostatic limit (criterion 9).
* :func:`serre_solitary_wave`, a closed-form travelling wave of the
  identity family at gamma = 0 (criterion 12), and
  :func:`travelling_wave`, Newton's periodic travelling wave of
  :func:`zeta_gradient`, the zeta-gradient written out with a transform
  per derivative, for every family (criterion 13).

The hydrostatic (mu = 0) limit with surface tension is written out
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

import math

import numpy as np

from gnwaves.errors import ValidationError
from gnwaves.operators import (
    LAYER_SIGN,
    GNWorkspace,
    apply_mass_operator,
    capillary_density,
    invert_mass_operator,
    layer_depths,
)
from gnwaves.spectral import _check_field, irfft, rfft
from gnwaves.stability import _tanhc, restoring_symbol


# GNContext CG settings tighter than the evolution default, for the oracle
# H and the exact gradients its finite differences are compared with
TIGHT_CG = {"cg_tol": 1e-14, "cg_max_iter": 800}


def inner(grid, f, g):
    """Rectangle-rule approximation of the integral of f*g over one period."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise ValidationError("field", "inner() requires both fields on the same grid")
    return grid.dx * float(f @ g)


def ddx(grid, f):
    """Spectral derivative; the Nyquist mode of the result is zeroed."""
    return irfft(rfft(_check_field(grid, f)) * grid.ik, grid.n)


def hamiltonian(ctx, zeta, v):
    """The conserved functional H(zeta, v) =
    (1/2) integral[ (gamma+delta) zeta^2 + capillary + w A w ]  with w = A^{-1} v.

    Its gradients are dH/dzeta = interface_gradient and dH/dv = w; the finite
    differences of this function are the oracle for both. Inverted at the
    context's CG settings: build ``ctx`` with :data:`TIGHT_CG`, tighter than
    the evolution default, so central differences stay clean.
    """
    p = ctx.params
    w = invert_mass_operator(ctx, GNWorkspace().load(ctx, zeta), v)
    quad = inner(ctx.grid, zeta, (p.gamma + p.delta) * zeta)
    cap = 0.0
    if p.inv_bond > 0.0:
        cap = inner(ctx.grid, capillary_density(p, ddx(ctx.grid, zeta)), np.ones(ctx.grid.n))
    return 0.5 * (quad + cap + inner(ctx.grid, w, v))


def euler_coeffs(k, params, vbar):
    """Exact-dispersion shear coefficients (a, b, c) at wavenumber k.

    Written with t_i = tanh(s_i)/s_i, s_1 = sqrt(mu)|k|, s_2 = sqrt(mu)|k|/delta,
    which removes every 0/0: at k = 0 they reduce to b = 1/(gamma+delta) and
    c = (delta^2-gamma)/(gamma+delta)^2 * eps*vbar. The shear is
    vbar = u2 - gamma*u1, linked to the models' flux by
    wbar = vbar / (gamma + delta).
    """
    g, d, eps, mu = params.gamma, params.delta, params.epsilon, params.mu
    k = np.abs(np.asarray(k, dtype=float))
    t1, t2 = _tanhc(np.sqrt(mu) * k), _tanhc(np.sqrt(mu) * k / d)
    den = t1 + g * t2 / d
    b = (t1 * t2 / d) / den
    c = (d * t1 - g * t2 / d) / den * eps * vbar / (g + d)
    a = restoring_symbol(params, k) - g * (d + 1.0) ** 2 / (d + g) ** 2 * (eps * vbar) ** 2 / den
    return a, b, c


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


def serre_solitary_wave(params, amplitude, x, t=0.0):
    """The solitary wave of amplitude A = ``amplitude`` (in eps*zeta) at time
    t: (zeta, w, c) with zeta = (A/eps) sech^2(kappa (x - c t)), w = c zeta,
    c = sqrt(1 + delta A) and kappa = sqrt(3A / (4 D^2 (D + A))) / sqrt(mu),
    D = 1/delta.

    At gamma = 0 without tension the identity family is the one-layer
    Green-Naghdi (Serre) system: x = sqrt(mu) X, t = sqrt(mu) T,
    eta = eps zeta, q = eps w turn it into the standard Serre equations with
    gravity delta and depth D, whose solitary wave this is (Serre 1953; Su &
    Gardner 1969). It travels at speed c with v = A[eps*zeta] w, so
    c A[eps*zeta](c zeta) equals the zeta-gradient at (zeta, c zeta).
    """
    depth = 1.0 / params.delta
    c = math.sqrt(1.0 + params.delta * amplitude)
    kappa = math.sqrt(3.0 * amplitude / (4.0 * depth**2 * (depth + amplitude))) / math.sqrt(params.mu)
    zeta = amplitude / params.epsilon / np.cosh(kappa * (x - c * t)) ** 2
    return zeta, c * zeta, c


def zeta_gradient(ctx, zeta, w):
    """The zeta-gradient of the energy (``interface_gradient``) as the
    formula in :mod:`gnwaves.operators` writes it, one transform pair per
    derivative: the capillary stress through :func:`ddx`, dx F = ik * F *
    rfft through np.fft, the coefficient (eps/2) (1/h2^2 - gamma/h1^2) of w^2
    from 1/h, and R = R_2 - gamma * R_1 with u = LAYER_SIGN * w / h and h*h*h
    formed here."""
    p, grid = ctx.params, ctx.grid
    ez = p.epsilon * zeta
    h = np.stack((1.0 - ez, 1.0 / p.delta + ez))
    h1, h2 = h
    grad = (p.gamma + p.delta) * zeta
    if p.inv_bond > 0.0:
        s = ddx(grid, zeta)
        grad -= (p.gamma + p.delta) * p.inv_bond * ddx(grid, s / np.sqrt(1.0 + p.mu * p.epsilon**2 * s**2))
    grad += 0.5 * p.epsilon * ((1.0 / h2) ** 2 - p.gamma * (1.0 / h1) ** 2) * w**2
    if p.mu > 0.0 and p.epsilon > 0.0:

        def dxf(u):
            return np.fft.irfft(grid.ik * ctx.symbols * np.fft.rfft(u), grid.n)

        u = LAYER_SIGN * w / h
        s = dxf(u)
        t = dxf(h * h * h * s)
        r1, r2 = 0.5 * (h * s) ** 2 + (u * t) / (3.0 * h)
        grad -= p.mu * p.epsilon * (r2 - p.gamma * r1)
    return grad


def travelling_wave(ctx, a1):
    """The periodic travelling wave zeta = sum_{m=1..N} a_m cos(m k1 (x - c t)),
    w = c zeta, of mode-1 amplitude a_1 = ``a1`` on the context's grid, with
    N = n/2 - 1 (so the discrete wave is exact) and k1 = grid.k[1].

    Newton on the unknowns (a_2, ..., a_N, c), from the linear wave (c =
    ``ctx.linear.omega[1] / k1``), with a forward-difference Jacobian. The
    equations are the cosine projections, modes 1..N, of
    c A[eps*zeta](c zeta) - zeta_gradient(zeta, c zeta); mode 0 is the
    integration constant. Returns ``(profile, c, residual)``: profile(t) is
    zeta at grid.x and time t, residual the largest projection left.
    """
    grid = ctx.grid
    k1 = grid.k[1]
    modes = np.arange(1, grid.n // 2)
    basis = np.cos(np.outer(modes, k1 * grid.x))

    def residual(unknowns):
        zeta = np.concatenate(([a1], unknowns[:-1])) @ basis
        c = unknowns[-1]
        r = c * apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta), c * zeta) - zeta_gradient(ctx, zeta, c * zeta)
        return basis @ r * (2.0 / grid.n)

    unknowns = np.zeros(modes.size)
    unknowns[-1] = ctx.linear.omega[1] / k1
    for _ in range(10):
        f = residual(unknowns)
        if np.max(np.abs(f)) <= 1e-14:
            break
        jac = np.empty((f.size, unknowns.size))
        for j in range(unknowns.size):
            step = 1e-7 * max(1.0, abs(unknowns[j]))
            shifted = unknowns.copy()
            shifted[j] += step
            jac[:, j] = (residual(shifted) - f) / step
        unknowns -= np.linalg.solve(jac, f)
    coefficients, c = np.concatenate(([a1], unknowns[:-1])), unknowns[-1]

    def profile(t):
        return coefficients @ np.cos(np.outer(modes, k1 * (grid.x - c * t)))

    return profile, c, float(np.max(np.abs(residual(unknowns))))
