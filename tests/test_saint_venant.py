import numpy as np
import pytest

from gnwaves.diagnostics import depth_flux_second, sv_hyperbolicity_margin
from gnwaves.multipliers import MultiplierSpec
from gnwaves.operators import GNContext, GNWorkspace, rhs
from gnwaves.params import PhysParams
from gnwaves.spectral import Grid, irfft
from gnwaves.timestepper import integrate

from conftest import random_smooth_field
from oracles import depth_flux, depth_flux_prime, sv_rhs


def sv_params(**overrides):
    base = dict(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=5e-4)
    base.update(overrides)
    return PhysParams(**base)


class TestDepthFlux:
    def test_flat_interface_value(self, grid):
        p = sv_params()
        h0 = float(depth_flux(p, np.zeros(grid.n))[0])
        # H(0) = (1/delta) / (1 + gamma/delta) = 1/(gamma+delta)
        assert h0 == pytest.approx(1.0 / (p.gamma + p.delta), rel=1e-15)

    def test_prime_matches_finite_difference(self, grid):
        p = sv_params()
        rng = np.random.default_rng(3)
        zeta = random_smooth_field(grid, rng, max_abs=0.8)
        h = 1e-6
        fd = (depth_flux(p, zeta + h / p.epsilon) - depth_flux(p, zeta - h / p.epsilon)) / (2 * h)
        assert np.allclose(depth_flux_prime(p, zeta), fd, rtol=1e-7, atol=1e-9)

    def test_second_matches_finite_difference(self, grid):
        p = sv_params()
        rng = np.random.default_rng(5)
        zeta = random_smooth_field(grid, rng, max_abs=0.8)
        h = 1e-5
        fd = (
            depth_flux(p, zeta + h / p.epsilon)
            - 2 * depth_flux(p, zeta)
            + depth_flux(p, zeta - h / p.epsilon)
        ) / h**2
        assert np.allclose(depth_flux_second(p, zeta), fd, rtol=1e-4, atol=1e-6)


class TestSvRhs:
    def test_rest_is_steady(self, grid):
        p = sv_params()
        dz, dv = sv_rhs(grid, p, np.zeros(grid.n), np.zeros(grid.n))
        assert np.allclose(dz, 0.0, atol=1e-16)
        assert np.allclose(dv, 0.0, atol=1e-16)

    def test_means_are_conserved_instantaneously(self, grid):
        # both equations are exact derivatives: the tendencies have zero mean
        p = sv_params()
        rng = np.random.default_rng(7)
        zeta = random_smooth_field(grid, rng, max_abs=0.8)
        vbar = random_smooth_field(grid, rng)
        dz, dv = sv_rhs(grid, p, zeta, vbar)
        assert abs(np.sum(dz)) <= 1e-12
        assert abs(np.sum(dv)) <= 1e-12

    def test_equivalence_with_dispersive_path_at_mu_zero(self, grid):
        # map w = H(eps zeta) vbar into the dispersive rhs with any
        # multiplier at mu = 0 and recover sv_rhs exactly
        p = sv_params()
        rng = np.random.default_rng(9)
        zeta = random_smooth_field(grid, rng, max_abs=0.8)
        vbar = random_smooth_field(grid, rng)
        dz_sv, dv_sv = sv_rhs(grid, p, zeta, vbar)
        for spec in (MultiplierSpec.identity(), MultiplierSpec.improved(p.delta)):
            ctx = GNContext(grid, p, spec)
            # at mu = 0, v = vbar exactly
            dz_gn, dv_gn = irfft(rhs(ctx, GNWorkspace(), zeta, vbar), grid.n)
            assert np.max(np.abs(dz_gn - dz_sv)) <= 1e-13
            assert np.max(np.abs(dv_gn - dv_sv)) <= 1e-13


class TestHyperbolicity:
    def test_rest_margin(self, grid):
        p = sv_params()
        margin = sv_hyperbolicity_margin(p, np.zeros(grid.n), np.zeros(grid.n))
        assert margin == pytest.approx(p.gamma + p.delta, rel=1e-15)

    def test_one_layer_is_unconditional(self, grid):
        p = sv_params(gamma=0.0)
        vbar = np.full(grid.n, 5.0)
        margin = sv_hyperbolicity_margin(p, np.zeros(grid.n), vbar)
        assert margin == pytest.approx(p.delta, rel=1e-15)

    def test_margin_zero_matches_flat_shear_threshold(self, grid):
        # at the critical constant shear the margin crosses zero exactly where
        # the closed-form identity says: (gamma+delta) = gamma eps^2 (h1+h2)^2/(h1+gamma h2)^3 vbar^2
        p = sv_params()
        h1, h2 = 1.0, 1.0 / p.delta
        vcrit_sq = (p.gamma + p.delta) * (h1 + p.gamma * h2) ** 3 / (p.gamma * (h1 + h2) ** 2) / p.epsilon**2
        vbar = np.full(grid.n, np.sqrt(vcrit_sq))
        margin = sv_hyperbolicity_margin(p, np.zeros(grid.n), vbar)
        assert margin == pytest.approx(0.0, abs=1e-12)


class TestLinearWaves:
    @pytest.mark.parametrize("inv_bond", [0.0, 5e-4])
    def test_single_mode_phase_speed(self, inv_bond):
        # seed a right-moving eigenmode of amplitude 1e-8 and measure the
        # phase drift of its Fourier coefficient over t ~ 1
        grid = Grid(128, 4.0)
        p = sv_params(inv_bond=inv_bond)
        k0 = 6 * np.pi / grid.length
        h0 = 1.0 / (p.gamma + p.delta)
        c_expected = np.sqrt((p.gamma + p.delta) * h0 * (1.0 + inv_bond * k0**2))
        amp = 1e-8
        zeta0 = amp * np.cos(k0 * grid.x)
        omega = k0 * c_expected
        vbar0 = (omega / (k0 * h0)) * amp * np.cos(k0 * grid.x)
        y0 = np.stack((zeta0, vbar0))
        idx = int(np.argmin(np.abs(grid.k - k0)))

        phases = []  # integrate reports t = 0 first

        def on_step(t, y, stats):
            phases.append((t, np.angle(np.fft.rfft(y[0])[idx])))

        def f(t, y, u):
            return np.stack(sv_rhs(grid, p, *y))

        # abs_tol far below the 1e-8 amplitude keeps the control truly relative
        t_end = 1.0
        integrate(f, (0.0, t_end), y0, rel_tol=1e-11, abs_tol=1e-19, on_step=on_step)
        ts = np.array([t for t, _ in phases])
        unwrapped = np.unwrap(np.array([ph for _, ph in phases]))
        # linear fit of phase vs time: slope = -omega
        slope = np.polyfit(ts, unwrapped, 1)[0]
        c_measured = -slope / k0
        assert c_measured == pytest.approx(c_expected, rel=1e-6)

    def test_mean_drift_over_default_run(self):
        # integral of zeta and of vbar drift below 1e-10 over a full run
        grid = Grid(256, 4.0)
        p = sv_params()
        zeta0 = -np.exp(-4 * grid.x**2)
        y0 = np.stack((zeta0, np.zeros(grid.n)))

        def f(t, y, u):
            return np.stack(sv_rhs(grid, p, *y))

        result = integrate(f, (0.0, 2.0), y0)
        z_drift = grid.dx * abs(np.sum(result.y[0]) - np.sum(zeta0))
        v_drift = grid.dx * abs(np.sum(result.y[1]))
        assert z_drift <= 1e-10
        assert v_drift <= 1e-10
