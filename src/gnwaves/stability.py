"""Linear Kelvin-Helmholtz analysis around constant-shear states.

Linearizing either the two-layer Euler equations or a multiplier model about
a flat interface with constant shear yields a 2x2 system

    d/dt zeta + c(D) dx zeta + b(D) dx v = 0
    d/dt v    + a(D) dx zeta + c(D) dx v = 0

whose plane-wave frequencies are omega = k (c +- sqrt(a b)). Since b > 0, a
mode is neutrally stable exactly when a(k) > 0; the growth rate of an
unstable mode is |k| sqrt(-a b).

``model_coeffs`` gives the multiplier-model coefficients, with the shear
specified as the flux wbar. ``euler_threshold_curve`` gives the
exact-dispersion threshold (tanh kernels, evaluated through tanh(x)/x so
every k -> 0 limit is removable).
"""

import numpy as np

from .errors import ValidationError
from .multipliers import FAMILIES, layer_symbols

__all__ = [
    "restoring_symbol",
    "mass_symbol",
    "flat_interface",
    "model_coeffs",
    "threshold_curve",
    "euler_threshold_curve",
    "growth_rates",
    "threshold_table",
]


def _tanhc(x):
    """tanh(x)/x with the removable limit 1 at x = 0; series below 1e-4."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 - xs**2 / 3.0 + 2.0 * xs**4 / 15.0
    xb = x[~small]
    out[~small] = np.tanh(xb) / xb
    return out


def restoring_symbol(params, k):
    """Flat-interface restoring symbol a0(k) = (gamma+delta)(1 + k^2/Bo): the
    shear-free a(k) of the stability analysis and the stiffness of the linear
    propagator."""
    return (params.gamma + params.delta) * (1.0 + params.inv_bond * k**2)


def mass_symbol(params, f, k):
    """Symbol of the mass operator at zeta = 0,
    A0(k) = (gamma+delta) + (mu/3)(F2^2/delta + gamma F1^2) k^2: the CG
    preconditioner of ``operators.GNContext`` and the b = 1/A0 of the shear
    analysis. ``f`` holds the layer symbols (F1, F2) at k."""
    g, d = params.gamma, params.delta
    f1, f2 = f
    # this operation order sets the preconditioner's bits, and with them
    # every run record's; keep it bit for bit
    return (g + d) + (params.mu / 3.0) * (f2**2 / d + g * f1**2) * k**2


def flat_interface(params, f, k):
    """Flat-interface algebra of the shear analysis.

    Returns the symbol A0(k) of the mass operator at zeta = 0
    (:func:`mass_symbol`) and the shear factor Gamma(k) = gamma (delta+1)^2
    / delta * (delta^2 + mu k^2 F2^2/3) (1 + mu k^2 F1^2/3) / A0(k), so that
    a(k) = a0(k) - eps^2 wbar^2 Gamma(k) with a0 from
    :func:`restoring_symbol`. ``f`` holds the layer symbols (F1, F2) at k.
    """
    g, d, mu = params.gamma, params.delta, params.mu
    f1, f2 = f
    a0 = mass_symbol(params, f, k)
    shear = g * (d + 1.0) ** 2 / d * (d**2 + mu * k**2 * f2**2 / 3.0) * (1.0 + mu * k**2 * f1**2 / 3.0) / a0
    return a0, shear


def model_coeffs(k, params, spec, wbar):
    """Multiplier-model shear coefficients (a, b, c) at wavenumber k."""
    g, d, eps, mu = params.gamma, params.delta, params.epsilon, params.mu
    k = np.abs(np.asarray(k, dtype=float))
    f1, f2 = f = layer_symbols(spec, k, mu)
    a0, shear = flat_interface(params, f, k)
    b = 1.0 / a0
    c = eps * wbar * ((d**2 - g) + mu * (f2**2 - g * f1**2) * k**2 / 3.0) / a0
    a = restoring_symbol(params, k) - (eps * wbar) ** 2 * shear
    return a, b, c


def _threshold_curve(k_grid, params, shear_factor):
    """Solve a(k) = 0 for eps^2*wbar^2 (a is affine in it):
    threshold = a0(k) / Gamma(k), with Gamma(k) = ``shear_factor(k)``; modes
    with Gamma(k) <= 0 are stable for every shear."""
    k = np.asarray(k_grid, dtype=float)
    if np.any(k <= 0):
        raise ValidationError("k_grid", "wavenumbers must be positive")
    gamma_k = shear_factor(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        thr = restoring_symbol(params, k) / gamma_k
    return np.where(gamma_k <= 0.0, np.nan, thr)


def threshold_curve(k_grid, params, spec):
    """Instability threshold of the multiplier model: for each wavenumber of
    k_grid, the value of eps^2 * wbar^2 above which that mode grows. NaN
    marks modes that are stable for every shear."""

    def shear_factor(k):
        return flat_interface(params, layer_symbols(spec, k, params.mu), k)[1]

    return _threshold_curve(k_grid, params, shear_factor)


def euler_threshold_curve(k_grid, params):
    """Full-dispersion counterpart of :func:`threshold_curve`: the
    eps^2 * wbar^2 above which each mode of k_grid grows, NaN where it is
    stable for every shear."""
    g, d, mu = params.gamma, params.delta, params.mu

    def shear_factor(k):
        return g * (d + 1.0) ** 2 / (_tanhc(np.sqrt(mu) * k) + g * _tanhc(np.sqrt(mu) * k / d) / d)

    return _threshold_curve(k_grid, params, shear_factor)


def growth_rates(k_grid, params, spec, wbar):
    """Temporal growth rates max Im omega of the modes k_grid: the symbol
    matrix k*[[c, b], [a, c]] has eigenvalues k (c +- sqrt(a b)), and b > 0
    for every real symbol, so the rate is |k| sqrt(max(0, -a b))."""
    k = np.asarray(k_grid, dtype=float)
    a, b, _ = model_coeffs(k, params, spec, wbar)
    return np.abs(k) * np.sqrt(np.maximum(0.0, -a * b))


# the CSV names the unmodified model's column by the paper's name for it
_COLUMN_NAMES = {"identity": "original"}


def threshold_table(k_grid, params, theta1=None, theta2=None):
    """Columns for the threshold-curve CSV: the built-in families of
    :data:`~gnwaves.multipliers.FAMILIES`, in its order, plus the
    exact-dispersion reference, on a shared k grid."""
    columns = {"k": np.asarray(k_grid, dtype=float)}
    for name, build in FAMILIES.items():
        spec = build(params.delta, theta1, theta2)
        columns[f"threshold_{_COLUMN_NAMES.get(name, name)}"] = threshold_curve(k_grid, params, spec)
    columns["threshold_euler"] = euler_threshold_curve(k_grid, params)
    return columns
