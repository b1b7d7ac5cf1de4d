from dataclasses import astuple

import numpy as np
import pytest

from gnwaves.diagnostics import (
    compute_row,
    depth_flux_second,
    energy,
    hyperbolicity_margin,
    sv_hyperbolicity_margin,
)
from gnwaves.errors import ConvergenceError
from gnwaves.multipliers import FAMILIES, MultiplierSpec
from gnwaves.operators import (
    LAYER_SIGN,
    GNContext,
    GNWorkspace,
    apply_mass_operator,
    invert_mass_operator,
    layer_depths,
    rhs,
)
from gnwaves.params import PhysParams
from gnwaves.spectral import Grid, irfft

from conftest import REF_PARAMS, passed_stage, random_smooth_field
from oracles import TIGHT_CG, depth_flux, depth_flux_prime, hamiltonian, inner


def make_ctx(grid, params=REF_PARAMS, spec=None, **kw):
    return GNContext(grid, params, spec or MultiplierSpec.regularized(params.delta), **kw)


def row(grid, zeta, v=None, w=None, t=0.0):
    """The diagnostics row of (zeta, v, w) at time t; v and w default to
    zero. Z, I, M, C and high_band read no operator, so any v and w do."""
    zero, ctx = np.zeros(grid.n), make_ctx(grid)
    return compute_row(ctx, t, zero if v is None else v, passed_stage(ctx, zeta, zero if w is None else w))


def row_velocity_mass(ctx, zeta, w):
    """The V column of the diagnostics row of the state carrying the flux w:
    the integral of v = A[eps*zeta] w."""
    stage = passed_stage(ctx, zeta, w)
    return compute_row(ctx, 0.0, apply_mass_operator(ctx, stage, w), stage).V


class TestMass:
    def test_zero(self, grid):
        assert row(grid, np.zeros(grid.n)).Z == 0.0

    def test_gaussian(self, grid):
        zeta = -np.exp(-4 * grid.x**2)
        assert row(grid, zeta).Z == pytest.approx(-np.sqrt(np.pi) / 2, rel=1e-12)


class TestVelocityMass:
    def test_zero_flux(self, grid):
        ctx = make_ctx(grid)
        assert row_velocity_mass(ctx, np.zeros(grid.n), np.zeros(grid.n)) == 0.0

    def test_flat_interface_reduces_to_local_part(self, grid):
        # at zeta = 0 the nonlocal part is an exact derivative: integral
        # of A w = (gamma+delta) * integral of w
        ctx = make_ctx(grid)
        rng = np.random.default_rng(2)
        w = random_smooth_field(grid, rng) + 0.3
        expected = (REF_PARAMS.gamma + REF_PARAMS.delta) * grid.dx * np.sum(w)
        assert row_velocity_mass(ctx, np.zeros(grid.n), w) == pytest.approx(expected, rel=1e-12)


class TestImpulse:
    def test_zero_v(self, grid):
        assert row(grid, np.ones(grid.n)).I == 0.0

    def test_orthogonality(self, grid):
        k0 = 2 * np.pi / grid.length
        f = np.sin(k0 * grid.x)
        assert row(grid, f, v=f).I == pytest.approx(grid.length / 2, rel=1e-13)


class TestEnergy:
    def test_rest_is_zero(self, grid):
        ctx = make_ctx(grid)
        assert energy(ctx, passed_stage(ctx, np.zeros(grid.n), np.zeros(grid.n))) == 0.0

    def test_flat_quadratic_closed_form(self, grid):
        # Bo^-1 = 0, mu = 0, zeta = 0: energy = integral gamma u1^2 + h2 u2^2
        # with u1 = -w, u2 = delta w: = (gamma + delta) * integral w^2
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=0.0)
        ctx = GNContext(grid, p, MultiplierSpec.identity())
        k0 = 4 * np.pi / grid.length
        w = 0.2 * np.sin(k0 * grid.x)
        expected = (p.gamma + p.delta) * 0.2**2 * grid.length / 2
        assert energy(ctx, passed_stage(ctx, np.zeros(grid.n), w)) == pytest.approx(expected, rel=1e-12)

    def test_even_in_w(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(3)
        zeta = random_smooth_field(grid, rng, max_abs=0.6)
        w = random_smooth_field(grid, rng)
        reversed_flux = energy(ctx, passed_stage(ctx, zeta, -w))
        assert energy(ctx, passed_stage(ctx, zeta, w)) == pytest.approx(reversed_flux, rel=1e-14)

    def test_matches_hamiltonian_quadratic_form(self, grid):
        # energy = 2 * H where H = (1/2) [ (gamma+delta) zeta^2 + cap + w A w ]
        ctx = make_ctx(grid, **TIGHT_CG)
        rng = np.random.default_rng(4)
        zeta = random_smooth_field(grid, rng, max_abs=0.6)
        w = random_smooth_field(grid, rng)
        stage = passed_stage(ctx, zeta, w)
        v = apply_mass_operator(ctx, stage, w)
        assert energy(ctx, stage) == pytest.approx(2.0 * hamiltonian(ctx, zeta, v), rel=1e-11)


class TestMomentum:
    def test_zero_w(self, grid):
        assert row(grid, np.zeros(grid.n)).M == 0.0

    def test_rigid_lid_weight(self, grid):
        rng = np.random.default_rng(5)
        w = random_smooth_field(grid, rng) + 1.0
        expected = (1 - REF_PARAMS.gamma) * grid.dx * np.sum(w)
        assert row(grid, np.zeros(grid.n), w=w).M == pytest.approx(expected, rel=1e-14)


class TestCentroid:
    def test_even_zeta_at_t0(self, grid):
        # odd integrand; the unpaired boundary node only sees the e^{-64} tail
        zeta = np.exp(-4 * grid.x**2)
        assert row(grid, zeta).C == pytest.approx(0.0, abs=1e-13)

    def test_linear_in_t(self, grid):
        rng = np.random.default_rng(6)
        zeta = random_smooth_field(grid, rng)
        w = random_smooth_field(grid, rng)
        c0 = row(grid, zeta, w=w, t=0.0).C
        c2 = row(grid, zeta, w=w, t=2.0).C
        assert c2 - c0 == pytest.approx(-2.0 * grid.dx * np.sum(w), rel=1e-12)


class TestBandMax:
    def test_low_mode_below_band(self, grid):
        k0 = 2 * np.pi / grid.length
        zeta = np.sin(k0 * grid.x)
        assert row(grid, zeta).high_band <= 1e-14

    def test_normalization(self, grid):
        # k0 lies above half-Nyquist, so inside the band
        k0 = grid.k[grid.n // 4 + 3]
        zeta = 1e-6 * np.sin(k0 * grid.x)
        assert row(grid, zeta).high_band == pytest.approx(5e-7, rel=1e-12)

    def test_default_band_is_half_nyquist(self, grid):
        k_half = 0.5 * grid.nyquist
        below = 1e-3 * np.sin((k_half - grid.k[1]) * grid.x)
        above = 1e-3 * np.sin((k_half + grid.k[1]) * grid.x)
        assert row(grid, below).high_band <= 1e-15
        assert row(grid, above).high_band == pytest.approx(5e-4, rel=1e-10)


class TestHyperbolicityMargin:
    def test_rest(self, grid):
        p = REF_PARAMS
        assert hyperbolicity_margin(p, np.zeros(grid.n), np.zeros(grid.n)) == pytest.approx(
            p.gamma + p.delta
        )

    def test_decreases_with_shear(self, grid):
        p = REF_PARAMS
        m1 = hyperbolicity_margin(p, np.zeros(grid.n), np.full(grid.n, 0.2))
        m2 = hyperbolicity_margin(p, np.zeros(grid.n), np.full(grid.n, 0.6))
        assert m2 < m1 < p.gamma + p.delta

    @staticmethod
    def pointwise(margin, p, zeta, f):
        return np.array([margin(p, zeta[j : j + 1], f[j : j + 1]) for j in range(zeta.size)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_what_it_measures(self, seed):
        # with vbar = w/H, the hydrostatic system (tests/oracles.py) has the
        # characteristic speeds eps H' vbar +- sqrt(H s), s the SV margin's
        # integrand. hyp_margin is -(their product)/H, so it is zero where one
        # speed is zero; the SV margin is zero where the two coalesce, and
        # hyp_margin = s - eps^2 H'^2 vbar^2 / H is never above it
        p = REF_PARAMS
        grid = Grid(64, 4.0)
        rng = np.random.default_rng(seed)
        zeta = random_smooth_field(grid, rng, max_abs=0.9)
        vbar = random_smooth_field(grid, rng, max_abs=5.0)
        h, h_prime = depth_flux(p, zeta), depth_flux_prime(p, zeta)
        s = (p.gamma + p.delta) + 0.5 * p.epsilon**2 * depth_flux_second(p, zeta) * vbar**2
        speed_product = p.epsilon**2 * h_prime**2 * vbar**2 - h * s
        hyp = self.pointwise(hyperbolicity_margin, p, zeta, h * vbar)
        sv = self.pointwise(sv_hyperbolicity_margin, p, zeta, vbar)
        assert np.min(hyp) < 0.0 < np.max(hyp) and np.min(sv) < 0.0 < np.max(sv)
        assert np.allclose(hyp, -speed_product / h, rtol=0, atol=1e-12 * np.max(np.abs(h * s)))
        assert np.array_equal(sv, s)
        assert np.all(hyp <= sv)
        assert hyperbolicity_margin(p, zeta, h * vbar) <= sv_hyperbolicity_margin(p, zeta, vbar)

    def test_flat_interface_zeros(self):
        # reference parameters, zeta = 0: hyp_margin reaches 0 at vbar =
        # 3.368 (speeds -1.121 and 0, SV margin +0.456); the SV margin at
        # vbar = 4.068 (both speeds -0.677, hyp_margin -0.665)
        p = REF_PARAMS
        zeta = np.zeros(1)
        h = depth_flux(p, zeta)
        for vbar, hyp, sv in ((3.368, 0.0, 0.456), (4.068, -0.665, 0.0)):
            assert hyperbolicity_margin(p, zeta, h * vbar) == pytest.approx(hyp, abs=1e-3)
            assert sv_hyperbolicity_margin(p, zeta, vbar) == pytest.approx(sv, abs=1e-3)


class TestTranslationInvariance:
    def test_shift_by_whole_cells(self, grid):
        # Z, V, I, H are invariant under discrete translations
        ctx = make_ctx(grid)
        rng = np.random.default_rng(8)
        zeta = random_smooth_field(grid, rng, max_abs=0.6)
        w = random_smooth_field(grid, rng)
        stage = passed_stage(ctx, zeta, w)
        v = apply_mass_operator(ctx, stage, w)
        shift = 37
        zs, ws, vs = np.roll(zeta, shift), np.roll(w, shift), np.roll(v, shift)
        shifted = passed_stage(ctx, zs, ws)
        r, rs = compute_row(ctx, 0.0, v, stage), compute_row(ctx, 0.0, vs, shifted)
        assert rs.Z == pytest.approx(r.Z, rel=1e-13, abs=1e-15)
        assert row_velocity_mass(ctx, zs, ws) == pytest.approx(row_velocity_mass(ctx, zeta, w), rel=1e-12)
        assert rs.I == pytest.approx(r.I, rel=1e-12)
        assert energy(ctx, shifted) == pytest.approx(energy(ctx, stage), rel=1e-12)


class TestOneLayerConservation:
    def test_centroid_and_momentum_conserved_at_gamma_zero(self):
        # with a free upper surface removed (gamma = 0) the momentum is
        # conserved and so is the centroid quantity C = int(zeta x - t w)
        from gnwaves.operators import GNContext, GNWorkspace, invert_mass_operator, rhs
        from gnwaves.spectral import Grid
        from gnwaves.timestepper import integrate

        # the identity lives on the whole line; on the torus it holds only
        # while no signal has reached the seam (finite group velocity), so
        # keep the boundary far from the released wave
        p = PhysParams(gamma=0.0, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=0.0)
        grid = Grid(1024, 16.0)
        ctx = GNContext(grid, p, MultiplierSpec.regularized(p.delta))
        ws = GNWorkspace()
        zeta0 = -0.4 * np.exp(-4 * grid.x**2)
        y0 = np.stack((zeta0, np.zeros(grid.n)))

        def f(t, y, u):
            return irfft(rhs(ctx, ws, *y, x0=ws.w), grid.n)

        t_end = 0.5
        result = integrate(f, (0.0, t_end), y0)
        zeta, v = result.y
        w = invert_mass_operator(ctx, GNWorkspace().load(ctx, zeta), v)
        r0 = compute_row(ctx, 0.0, np.zeros(grid.n), passed_stage(ctx, zeta0, np.zeros(grid.n)))
        r1 = compute_row(ctx, t_end, v, passed_stage(ctx, zeta, w))
        assert abs(r1.C - r0.C) <= 1e-10
        assert abs(r1.M - r0.M) <= 1e-10


def test_compute_row_fields(grid):
    ctx = make_ctx(grid)
    rng = np.random.default_rng(9)
    zeta = random_smooth_field(grid, rng, max_abs=0.5)
    w = random_smooth_field(grid, rng)
    stage = passed_stage(ctx, zeta, w)
    v = apply_mass_operator(ctx, stage, w)
    row = compute_row(ctx, 1.5, v, stage)
    assert row.t == 1.5
    assert row.Z == pytest.approx(inner(grid, zeta, np.ones(grid.n)))
    assert row.I == pytest.approx(inner(grid, zeta, v))
    assert np.isfinite([row.V, row.H, row.M, row.C, row.hyp_margin, row.high_band]).all()
    text = row.as_csv()
    assert len(text.split(",")) == 9


def _oracle_row(ctx, t, zeta, v, w):
    """compute_row written out with one np.fft transform per derivative:
    the slope through grid.ik, dx F u through ctx.dx_symbols, and the
    band amplitudes of rfft(zeta), each formed anew. Every column but the
    mu = 0 margin is written here, with the operands and order of the row's
    own, so the two agree bit for bit."""
    p, grid = ctx.params, ctx.grid
    h = layer_depths(p, zeta)
    h1, h2 = h
    u = LAYER_SIGN * w / h
    cap = np.zeros(grid.n)
    if p.inv_bond > 0.0:
        s = np.fft.irfft(np.fft.rfft(zeta) * grid.ik, grid.n)
        slope_sq = p.mu * p.epsilon**2 * s**2
        cap = 2.0 * (p.gamma + p.delta) * p.inv_bond * s**2 / (1.0 + np.sqrt(1.0 + slope_sq))
    density = (p.gamma + p.delta) * zeta**2 + cap
    kinetic = np.array([[p.gamma], [1.0]]) * h * u**2
    density += kinetic[0] + kinetic[1]
    if p.mu > 0.0:
        s = np.fft.irfft(ctx.dx_symbols * np.fft.rfft(u), grid.n)
        dispersive = np.array([[p.mu * (p.gamma / 3.0)], [p.mu / 3.0]]) * h * (h * s) ** 2
        density += dispersive[0]
        density += dispersive[1]
    if p.mu == 0.0:
        hyp_margin = sv_hyperbolicity_margin(p, zeta, v)
    else:
        hyp_margin = float(np.min((p.gamma + p.delta) - p.epsilon**2 * (h2**-3 + p.gamma * h1**-3) * w**2))
    amps = np.abs(np.fft.rfft(zeta)) / grid.n
    return (t, grid.dx * float(np.sum(zeta)), grid.dx * float(np.sum(v)), grid.dx * float(zeta @ v),
            grid.dx * float(np.sum(density)), (1.0 - p.gamma) * grid.dx * float(np.sum(w)),
            grid.dx * float(np.sum(zeta * grid.x - t * w)), hyp_margin,
            float(amps[grid.k >= 0.5 * grid.nyquist].max()))


@pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
@pytest.mark.parametrize("epsilon", [0.5, 0.0], ids=["eps0.5", "eps0"])
@pytest.mark.parametrize("mu", [0.1, 0.0], ids=["mu0.1", "mu0"])
@pytest.mark.parametrize("inv_bond", [5e-4, 0.0], ids=["tension", "no_tension"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_row_from_the_stage_equals_the_recomputed_row(small_grid, family, inv_bond, mu, epsilon, dealias):
    # the runner's rows read the products rhs left in the workspace; they
    # must be the row of a stage freshly loaded at zeta and passed with
    # rhs's w, and the row of the transform-per-derivative oracle, bit for bit
    p = PhysParams(gamma=0.95, epsilon=epsilon, mu=mu, delta=0.5, inv_bond=inv_bond)
    ctx = GNContext(small_grid, p, FAMILIES[family](p.delta, None, None), dealias=dealias)
    rng = np.random.default_rng(19)
    zeta = random_smooth_field(small_grid, rng, max_abs=0.9)
    v = random_smooth_field(small_grid, rng)
    ws = GNWorkspace()
    rhs(ctx, ws, zeta, v)
    w = ws.w
    rows = (astuple(compute_row(ctx, 0.75, v, ws)), astuple(compute_row(ctx, 0.75, v, passed_stage(ctx, zeta, w))),
            _oracle_row(ctx, 0.75, zeta, v, w))
    bits = [np.array(row).view(np.uint64) for row in rows]
    assert np.array_equal(bits[0], bits[1])
    assert np.array_equal(bits[0], bits[2])


@pytest.mark.parametrize("mu", [0.1, 0.0], ids=["mu0.1", "mu0"])
def test_row_after_a_failed_stage_equals_the_recomputed_row(small_grid, mu):
    # rhs loads its workspace before the solve, so a stage whose solve fails
    # leaves that stage's depths beside the last pass's products; the next
    # successful rhs loads and passes again, and its row must not see them
    p = PhysParams(gamma=0.95, epsilon=0.5, mu=mu, delta=0.5, inv_bond=5e-4)
    ctx = GNContext(small_grid, p, MultiplierSpec.regularized(p.delta))
    rng = np.random.default_rng(23)
    zeta, v = random_smooth_field(small_grid, rng, max_abs=0.9), random_smooth_field(small_grid, rng)
    failed_zeta = random_smooth_field(small_grid, rng, max_abs=0.9)
    ws = GNWorkspace()
    rhs(ctx, ws, failed_zeta, v)
    with pytest.raises(ConvergenceError):
        rhs(ctx, ws, -failed_zeta, np.full(small_grid.n, np.nan), x0=ws.w)
    assert np.array_equal(ws.depths, layer_depths(p, -failed_zeta))
    rhs(ctx, ws, zeta, v, x0=ws.w)
    rows = astuple(compute_row(ctx, 0.5, v, ws)), astuple(compute_row(ctx, 0.5, v, passed_stage(ctx, zeta, ws.w)))
    assert np.array_equal(np.array(rows[0]).view(np.uint64), np.array(rows[1]).view(np.uint64))
