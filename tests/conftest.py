import numpy as np
import pytest

import gnwaves.runner as runner_mod
from gnwaves.operators import GNContext, GNWorkspace, apply_mass_operator, interface_gradient
from gnwaves.params import PhysParams
from gnwaves.spectral import Grid

# reference-experiment parameter set used throughout
REF_PARAMS = PhysParams(gamma=0.95, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=5e-4)


@pytest.fixture
def grid():
    return Grid(512, 4.0)


@pytest.fixture
def small_grid():
    return Grid(64, 4.0)


def start_with_flux(monkeypatch, config, flux):
    """Make ``run_experiment(config)`` integrate from its initial interface
    carrying the flux ``flux(grid)`` instead of from rest (the t = 0 record
    still shows the rest state)."""
    grid = Grid(config.grid_n, config.domain_half_length)
    ctx = GNContext(grid, config.params, runner_mod.build_multiplier(config))
    real_integrate = runner_mod.integrate

    def integrate_from_flux(rhs_fn, t_span, y0, **kw):
        zeta0 = y0[0]
        y0 = np.stack((zeta0, apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta0), flux(grid))))
        return real_integrate(rhs_fn, t_span, y0, **kw)

    monkeypatch.setattr(runner_mod, "integrate", integrate_from_flux)


def passed_stage(ctx, zeta, w):
    """A workspace loaded at zeta whose spectral pass ran with the flux w:
    the stage a diagnostics row of the state (zeta, w) reads."""
    stage = GNWorkspace().load(ctx, zeta)
    interface_gradient(ctx, stage, w)
    return stage


def random_smooth_field(grid, rng, max_abs=1.0, modes=8):
    """Band-limited random field with the requested max-norm."""
    coeffs = np.zeros(grid.n // 2 + 1, dtype=complex)
    m = np.arange(1, modes + 1)
    coeffs[1 : modes + 1] = (rng.standard_normal(modes) + 1j * rng.standard_normal(modes)) / (1 + m)
    f = np.fft.irfft(coeffs, grid.n)
    peak = np.max(np.abs(f))
    if peak == 0.0:
        return f
    return f * (max_abs / peak)
