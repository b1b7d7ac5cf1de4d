from dataclasses import replace

import numpy as np
import pytest

import gnwaves.operators as operators_mod
from gnwaves.errors import CavitationError, ConvergenceError, ValidationError
from gnwaves.multipliers import FAMILIES as FAMILY_BUILDERS
from gnwaves.multipliers import MultiplierSpec, eval_multiplier
from gnwaves.operators import (
    CAVITATION_FLOOR,
    LAYER_SIGN,
    GNContext,
    GNWorkspace,
    apply_mass_operator,
    interface_gradient,
    invert_mass_operator,
    layer_depths,
    r_operator,
    rhs,
)
from gnwaves.params import PhysParams
from gnwaves.runner import guarded_rhs
from gnwaves.spectral import Grid, dealias_mask, inner

from conftest import REF_PARAMS, random_smooth_field
from oracles import ddx, hamiltonian, zeta_gradient


def make_ctx(grid, params=REF_PARAMS, spec=None, **kw):
    spec = spec or MultiplierSpec.regularized_for_depth(params.delta)
    return GNContext(grid, params, spec, **kw)


def random_state(ctx, rng, zeta_scale=None):
    """Random smooth (zeta, w) with ||eps*zeta||_inf <= 0.5."""
    max_zeta = 0.5 / max(ctx.params.epsilon, 1e-12) if zeta_scale is None else zeta_scale
    zeta = random_smooth_field(ctx.grid, rng, max_abs=max_zeta)
    w = random_smooth_field(ctx.grid, rng, max_abs=1.0)
    return zeta, w


def _layer_dxf(grid, spec, layer, mu):
    """dx F_layer{u} built per layer from ddx and eval_multiplier, independent
    of GNContext's stacked symbols."""
    fsym = eval_multiplier(spec, layer, grid.k, mu)
    return lambda u: ddx(grid, np.fft.irfft(fsym * np.fft.rfft(u), grid.n))


def _dxf(grid, dx_symbols):
    """u -> dx F{u} for the symbol ``dx_symbols`` of dx F, through np.fft."""
    return lambda u: np.fft.irfft(dx_symbols * np.fft.rfft(u), grid.n)


class TestLayerOperators:
    def test_r_vanishes_on_constants(self, grid):
        fsym = np.exp(-0.2 * grid.k)
        h = 1.0 + 0.2 * np.cos(2 * np.pi * grid.x / grid.length)
        u = np.full(grid.n, -0.4)
        dxf = _dxf(grid, grid.ik * fsym)
        s = dxf(u)
        out = r_operator(h, u, s, dxf(h**3 * s))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_r_constant_depth_identity_symbol(self, grid):
        c = 1.1
        k0 = 4 * np.pi / grid.length
        u = np.sin(k0 * grid.x)
        h = np.full(grid.n, c)
        dxf = _dxf(grid, grid.ik * np.ones_like(grid.k))
        s = dxf(u)
        out = r_operator(h, u, s, dxf(h**3 * s))
        expected = (c**2 * k0**2 / 2.0) * np.cos(k0 * grid.x) ** 2 - (c**2 * k0**2 / 3.0) * u**2
        assert np.allclose(out, expected, rtol=0, atol=1e-11)


class TestMassOperator:
    def test_linear_in_w(self, grid):
        ctx = make_ctx(grid)
        assert np.allclose(apply_mass_operator(ctx, np.zeros(grid.n), np.zeros(grid.n)), 0.0)

    def test_flat_interface_symbol(self, grid):
        # at zeta = 0 the operator is diagonal with symbol
        # (gamma+delta) + (mu/3)(F2^2/delta + gamma F1^2) k^2
        p = REF_PARAMS
        for spec in (
            MultiplierSpec.identity(),
            MultiplierSpec.regularized_for_depth(p.delta),
            MultiplierSpec.improved(p.delta),
        ):
            ctx = GNContext(grid, p, spec)
            k0 = 10 * np.pi / grid.length
            w = np.sin(k0 * grid.x)
            f1 = float(eval_multiplier(spec, 1, k0, p.mu))
            f2 = float(eval_multiplier(spec, 2, k0, p.mu))
            symbol = (p.gamma + p.delta) + (p.mu / 3.0) * (f2**2 / p.delta + p.gamma * f1**2) * k0**2
            out = apply_mass_operator(ctx, np.zeros(grid.n), w)
            assert np.allclose(out, symbol * w, rtol=1e-12)

    def test_flat_symbol_matches_stability_b(self, grid):
        # cross-module consistency: the flat symbol equals 1/((gamma+delta) b(k)) * ... i.e.
        # bbar(k) = (gamma+delta) * D(k) = 1 / b_model(k)
        from gnwaves.stability import model_coeffs

        p = REF_PARAMS
        spec = MultiplierSpec.improved(p.delta)
        ctx = GNContext(grid, p, spec)
        k = grid.k[1:-1]  # skip mean and Nyquist (derivative ladder truncates it)
        _, b, _ = model_coeffs(k, p, spec, wbar=0.0)
        assert np.allclose(ctx.flat_symbol[1:-1], 1.0 / b, rtol=1e-12)

    def test_local_limit_gamma_zero_mu_zero(self, grid):
        p = PhysParams(gamma=0.0, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=0.0)
        ctx = GNContext(grid, p, MultiplierSpec.identity())
        rng = np.random.default_rng(5)
        zeta, w = random_state(ctx, rng)
        h1, h2 = layer_depths(p, zeta)
        out = apply_mass_operator(ctx, zeta, w)
        assert np.allclose(out, w / h2, rtol=1e-14)

    def test_self_adjoint_and_positive(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(11)
        for _ in range(10):
            zeta, w = random_state(ctx, rng)
            g = random_smooth_field(grid, rng)
            aw = apply_mass_operator(ctx, zeta, w)
            ag = apply_mass_operator(ctx, zeta, g)
            lhs, rhs_ = inner(grid, aw, g), inner(grid, w, ag)
            assert lhs == pytest.approx(rhs_, rel=1e-12)
            assert inner(grid, aw, w) > 0

    def test_matches_expanded_form_off_flat(self, grid):
        # away from zeta = 0, with F1 != F2 (improved family at delta = 0.5),
        # each layer must get its own symbol, depth and weight (gamma, 1)
        p = REF_PARAMS
        spec = MultiplierSpec.improved(p.delta)
        ctx = make_ctx(grid, spec=spec)
        rng = np.random.default_rng(71)
        zeta, w = random_state(ctx, rng)
        h1 = 1.0 - p.epsilon * zeta
        h2 = 1.0 / p.delta + p.epsilon * zeta
        dxf1 = _layer_dxf(grid, spec, 1, p.mu)
        dxf2 = _layer_dxf(grid, spec, 2, p.mu)
        assert not np.allclose(eval_multiplier(spec, 1, grid.k, p.mu), eval_multiplier(spec, 2, grid.k, p.mu))
        expanded = (
            (h1 + p.gamma * h2) / (h1 * h2) * w
            - (p.mu * p.gamma / 3.0) * dxf1(h1**3 * dxf1(w / h1)) / h1
            - (p.mu / 3.0) * dxf2(h2**3 * dxf2(w / h2)) / h2
        )
        out = apply_mass_operator(ctx, zeta, w)
        assert np.allclose(out, expanded, rtol=0, atol=1e-12 * np.max(np.abs(expanded)))

    def test_cavitation_raises(self, grid):
        ctx = make_ctx(grid)
        zeta = np.full(grid.n, 2.1)  # h1 = 1 - 0.5*2.1 < 0
        with pytest.raises(CavitationError):
            apply_mass_operator(ctx, zeta, np.ones(grid.n))


class TestInversion:
    def test_flat_interface_oracle(self, grid):
        # exact Fourier-diagonal division; CG converges in one iteration
        ctx = make_ctx(grid)
        rng = np.random.default_rng(23)
        v = random_smooth_field(grid, rng)
        expected = np.fft.irfft(np.fft.rfft(v) / ctx.flat_symbol, grid.n)
        w = invert_mass_operator(ctx, np.zeros(grid.n), v)
        assert np.max(np.abs(w - expected)) <= 1e-13

    def test_zero_rhs(self, grid):
        ctx = make_ctx(grid)
        w = invert_mass_operator(ctx, np.zeros(grid.n), np.zeros(grid.n))
        assert np.array_equal(w, np.zeros(grid.n))

    def test_round_trip_random_states(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(31)
        for _ in range(10):
            zeta, _ = random_state(ctx, rng)
            v = random_smooth_field(grid, rng)
            w = invert_mass_operator(ctx, zeta, v, tol=1e-12)
            residual = apply_mass_operator(ctx, zeta, w) - v
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(v)

    def test_warm_start_converges(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(37)
        zeta, _ = random_state(ctx, rng)
        v = random_smooth_field(grid, rng)
        w1 = invert_mass_operator(ctx, zeta, v)
        w2 = invert_mass_operator(ctx, zeta, v, x0=w1)
        assert np.allclose(w1, w2, atol=1e-11)

    def test_mu_zero_is_pointwise(self, grid):
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=0.0)
        ctx = GNContext(grid, p, MultiplierSpec.identity())
        rng = np.random.default_rng(41)
        zeta, _ = random_state(ctx, rng)
        v = random_smooth_field(grid, rng)
        h1, h2 = layer_depths(p, zeta)
        w = invert_mass_operator(ctx, zeta, v)
        assert np.allclose(w, v * h1 * h2 / (h1 + p.gamma * h2), rtol=1e-15)


class TestCGBreakdown:
    """A non-finite right-hand side or residual is a CG breakdown, raised
    as soon as its norm is seen."""

    @staticmethod
    def count_applications(monkeypatch):
        calls = []
        real = operators_mod.apply_mass_operator

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(operators_mod, "apply_mass_operator", counted)
        return calls

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_v_raises_at_once(self, grid, monkeypatch, bad, warm):
        ctx = make_ctx(grid)
        zeta, w = random_state(ctx, np.random.default_rng(43))
        v = apply_mass_operator(ctx, zeta, w)
        v[grid.n // 3] = bad
        calls = self.count_applications(monkeypatch)
        with pytest.raises(ConvergenceError):
            invert_mass_operator(ctx, zeta, v, x0=w if warm else None)
        assert len(calls) <= 1

    def test_non_finite_warm_start_raises_after_one_application(self, grid, monkeypatch):
        ctx = make_ctx(grid)
        zeta, w = random_state(ctx, np.random.default_rng(47))
        v = apply_mass_operator(ctx, zeta, w)
        x0 = w.copy()
        x0[7] = np.nan
        calls = self.count_applications(monkeypatch)
        with pytest.raises(ConvergenceError) as exc:
            invert_mass_operator(ctx, zeta, v, x0=x0)
        assert len(calls) == 1
        assert len(exc.value.residuals) == 1 and np.isnan(exc.value.residuals[0])

    def test_non_finite_v_raises_at_mu_zero(self):
        # the pointwise inverse breaks down on a non-finite v like CG does,
        # so hamiltonian raises instead of returning NaN
        grid = Grid(64, 4.0)
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=0.0)
        ctx = GNContext(grid, p, MultiplierSpec.identity())
        zeta = 0.2 * np.cos(grid.x)
        v = np.sin(grid.x)
        v[grid.n // 3] = np.nan
        with pytest.raises(ConvergenceError):
            invert_mass_operator(ctx, zeta, v)
        with pytest.raises(ConvergenceError):
            hamiltonian(ctx, zeta, v)


class TestSolverSettings:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("cg_max_iter", 2.5),
            ("cg_max_iter", True),
            ("cg_max_iter", 0),
            ("cg_tol", True),
            ("cg_tol", np.nan),
            ("cg_tol", np.inf),
            ("cg_tol", 0.0),
        ],
    )
    def test_rejected_not_coerced(self, field, value):
        # int(2.5) ran CG with 2 iterations, float(True) at tolerance 1.0,
        # and a NaN tolerance escaped a solve as a bare ZeroDivisionError
        with pytest.raises(ValidationError) as err:
            make_ctx(Grid(64, 4.0), **{field: value})
        assert err.value.field == field

    def test_numpy_scalars_accepted(self):
        ctx = make_ctx(Grid(64, 4.0), cg_tol=np.float64(1e-10), cg_max_iter=np.int64(57))
        assert (ctx.cg_tol, ctx.cg_max_iter) == (1e-10, 57)


def _oracle_mass_operator(ctx, zeta, w):
    """A[eps*zeta] w written out per application: the coefficient, h**3 and
    dx F = deriv * fsym * rfft are all formed anew on every call."""
    h = layer_depths(ctx.params, zeta)
    h1, h2 = h
    g, mu = ctx.params.gamma, ctx.params.mu
    grid = ctx.grid

    def dxf(u):
        return np.fft.irfft(grid.ik * ctx.symbols * np.fft.rfft(u), grid.n)

    out = (h1 + g * h2) / (h1 * h2) * w
    if mu > 0.0:
        t = dxf(w / h)
        t1, t2 = dxf(h**3 * t)
        out -= (mu / 3.0) * (t2 / h2 + g * t1 / h1)
    return out


def _oracle_pcg(ctx, zeta, v, x0=None):
    """Preconditioned CG on the oracle operator with np.linalg.norm residuals;
    the same iterates and stopping rule as invert_mass_operator."""
    tol = ctx.cg_tol
    b_norm = float(np.linalg.norm(v))

    def precondition(r):
        return np.fft.irfft(np.fft.rfft(r) / ctx.flat_symbol, ctx.grid.n)

    x = np.zeros_like(v) if x0 is None else np.array(x0, dtype=float)
    r = v - _oracle_mass_operator(ctx, zeta, x) if x0 is not None else v.copy()
    if float(np.linalg.norm(r)) <= tol * b_norm:
        return x
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(ctx.cg_max_iter):
        ap = _oracle_mass_operator(ctx, zeta, p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol * b_norm:
            return x
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("oracle CG did not converge")


def _oracle_layer_depths(params, zeta):
    """layer_depths as np.stack formed it."""
    ez = params.epsilon * zeta
    h = np.stack((1.0 - ez, 1.0 / params.delta + ez))
    if h.min() <= CAVITATION_FLOOR:
        raise CavitationError(f"layer depth reached {h.min():.3e} (floor {CAVITATION_FLOOR:g})")
    return h


def _oracle_rhs(ctx, zeta, v, workspace=None):
    """rhs as one 1-D transform per tendency wrote it: the flux from the
    oracle CG (pointwise at mu = 0), the zeta-gradient of
    ``oracles.zeta_gradient``, and -dx of each tendency through the context's derivative
    symbol, which carries the dealias mask. Returns (dzeta, dv)."""
    p, grid = ctx.params, ctx.grid
    h = _oracle_layer_depths(p, zeta)
    x0 = workspace.w_prev if workspace is not None else None
    if p.mu == 0.0:
        w = v * (h[0] * h[1]) / (h[0] + p.gamma * h[1])
    else:
        w = _oracle_pcg(ctx, zeta, v, x0=x0)
    w_hat = np.fft.rfft(w)
    if workspace is not None:
        workspace.w_prev, workspace.w_hat = w, w_hat
    grad = zeta_gradient(ctx, zeta, w)
    dzeta = -np.fft.irfft(w_hat * ctx.ik, grid.n)
    dv = -np.fft.irfft(np.fft.rfft(grad) * ctx.ik, grid.n)
    return dzeta, dv


def _assert_rhs_matches_oracle(ctx, states):
    """rhs against _oracle_rhs, bit for bit, with and without a workspace;
    the workspaces carry the warm start from one state to the next."""
    ws, oracle_ws = GNWorkspace(), GNWorkspace()
    for zeta, v in states:
        assert np.array_equal(layer_depths(ctx.params, zeta), _oracle_layer_depths(ctx.params, zeta))
        expected = np.stack(_oracle_rhs(ctx, zeta, v))
        got = rhs(ctx, zeta, v)
        assert got.shape == (2, ctx.grid.n)
        assert np.array_equal(got, expected)
        got = rhs(ctx, zeta, v, workspace=ws)
        assert np.array_equal(got, np.stack(_oracle_rhs(ctx, zeta, v, workspace=oracle_ws)))
        assert np.array_equal(ws.w_prev, oracle_ws.w_prev)
        assert np.array_equal(ws.w_hat, oracle_ws.w_hat)


FAMILIES = {
    "identity": MultiplierSpec.identity(),
    "regularized": MultiplierSpec.regularized_for_depth(REF_PARAMS.delta),
    "improved": MultiplierSpec.improved(REF_PARAMS.delta),
}


class TestHotPathOracle:
    """The CG hot path reuses per-state constants, dx F symbols and FFT
    buffers; none of that may change a single bit of its results."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_apply_matches_oracle_bitwise(self, grid, family):
        ctx = make_ctx(grid, spec=FAMILIES[family])
        rng = np.random.default_rng(101)
        for _ in range(3):
            zeta, w = random_state(ctx, rng)
            assert np.array_equal(apply_mass_operator(ctx, zeta, w), _oracle_mass_operator(ctx, zeta, w))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_invert_matches_oracle_bitwise(self, grid, family, warm):
        ctx = make_ctx(grid, spec=FAMILIES[family])
        rng = np.random.default_rng(103)
        zeta, w_true = random_state(ctx, rng)
        v = _oracle_mass_operator(ctx, zeta, w_true)
        x0 = w_true + 1e-3 * random_smooth_field(grid, rng) if warm else None
        expected = _oracle_pcg(ctx, zeta, v, x0=x0)
        got = invert_mass_operator(ctx, zeta, v, x0=x0)
        assert np.array_equal(got, expected)

    def test_precomputed_constants_match_zeta_call(self, grid):
        ctx = make_ctx(grid, spec=FAMILIES["improved"])
        rng = np.random.default_rng(107)
        zeta, w = random_state(ctx, rng)
        other = random_smooth_field(grid, rng)
        stage = GNWorkspace().load(ctx, zeta)
        expected = apply_mass_operator(ctx, zeta, w)
        # reused buffers: an application in between must leave no trace
        first = apply_mass_operator(ctx, zeta, w, stage=stage)
        between = apply_mass_operator(ctx, zeta, other, stage=stage)
        again = apply_mass_operator(ctx, zeta, w, stage=stage)
        assert np.array_equal(first, expected)
        assert np.array_equal(again, expected)
        assert np.array_equal(between, apply_mass_operator(ctx, zeta, other))
        for buf in (stage.spectral, stage.physical):
            assert not np.shares_memory(first, buf)

    def test_mu_zero_constants_match_oracle(self, grid):
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=0.0)
        ctx = GNContext(grid, p, MultiplierSpec.identity())
        rng = np.random.default_rng(109)
        zeta, w = random_state(ctx, rng)
        stage = GNWorkspace().load(ctx, zeta)
        assert np.array_equal(apply_mass_operator(ctx, zeta, w, stage=stage), _oracle_mass_operator(ctx, zeta, w))

    @pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rhs_matches_oracle_bitwise(self, grid, family, dealias):
        ctx = make_ctx(grid, spec=FAMILIES[family], dealias=dealias)
        rng = np.random.default_rng(127)
        states = []
        for _ in range(3):
            zeta, w = random_state(ctx, rng)
            states.append((zeta, _oracle_mass_operator(ctx, zeta, w)))
        _assert_rhs_matches_oracle(ctx, states)

    @pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
    def test_rhs_at_mu_zero_matches_oracle_bitwise(self, grid, dealias):
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=5e-4)
        ctx = GNContext(grid, p, MultiplierSpec.identity(), dealias=dealias)
        rng = np.random.default_rng(129)
        states = [(random_smooth_field(grid, rng, max_abs=0.9), random_smooth_field(grid, rng)) for _ in range(2)]
        _assert_rhs_matches_oracle(ctx, states)

    def test_results_survive_later_calls(self, grid):
        # the per-solve buffers never leak into what a solve or rhs returns
        ctx = make_ctx(grid, spec=FAMILIES["improved"], dealias=True)
        rng = np.random.default_rng(131)
        zeta, w = random_state(ctx, rng)
        other_zeta, other_w = random_state(ctx, rng)
        v, other_v = apply_mass_operator(ctx, zeta, w), apply_mass_operator(ctx, other_zeta, other_w)
        first = invert_mass_operator(ctx, zeta, v)
        tendencies = rhs(ctx, zeta, v)
        kept = first.copy(), tendencies.copy()
        invert_mass_operator(ctx, other_zeta, other_v, x0=first)
        rhs(ctx, other_zeta, other_v, workspace=GNWorkspace())
        assert np.array_equal(first, kept[0])
        assert np.array_equal(tendencies, kept[1])

    def test_dx_symbols_match_left_to_right_product(self, grid):
        ctx = make_ctx(grid, spec=FAMILIES["improved"])
        u = random_smooth_field(grid, np.random.default_rng(113))
        u_hat = np.fft.rfft(u)
        assert np.array_equal(ctx.dx_symbols * u_hat, grid.ik * ctx.symbols * u_hat)


class TestSharedConstants:
    """rhs loads the per-state constants of A into its workspace once, for
    the CG solve, the pass and R; CG writes A p into its own buffer and
    divides by the complex copy of the preconditioner symbol."""

    @staticmethod
    def count_constants(monkeypatch):
        built = []
        load = operators_mod.GNWorkspace.load

        def counted(self, ctx, zeta):
            built.append(1)
            return load(self, ctx, zeta)

        monkeypatch.setattr(operators_mod.GNWorkspace, "load", counted)
        return built

    @pytest.mark.parametrize("mu", [0.1, 0.0], ids=["dispersive", "hydrostatic"])
    def test_one_mass_constants_per_rhs_call(self, grid, monkeypatch, mu):
        params = PhysParams(gamma=0.95, epsilon=0.5, mu=mu, delta=0.5, inv_bond=5e-4)
        ctx = make_ctx(grid, params=params, dealias=True)
        rng = np.random.default_rng(137)
        states = [random_state(ctx, rng) for _ in range(3)]
        states = [(zeta, apply_mass_operator(ctx, zeta, w)) for zeta, w in states]
        built = self.count_constants(monkeypatch)
        ws = GNWorkspace()
        for calls, (zeta, v) in enumerate(states, start=1):
            rhs(ctx, zeta, v, workspace=ws)
            assert len(built) == calls
        rhs(ctx, states[0][0], np.zeros(grid.n))
        assert len(built) == len(states) + 1

    def test_apply_into_out(self, grid):
        ctx = make_ctx(grid)
        zeta, w = random_state(ctx, np.random.default_rng(139))
        buf = np.full(grid.n, np.nan)
        assert apply_mass_operator(ctx, zeta, w, out=buf) is buf
        assert np.array_equal(buf, apply_mass_operator(ctx, zeta, w))

    def test_complex_symbol_divides_like_the_real_one(self, grid):
        ctx = make_ctx(grid)
        assert ctx.flat_symbol_complex.dtype == complex
        assert np.array_equal(ctx.flat_symbol_complex.real, ctx.flat_symbol)
        spec = np.fft.rfft(random_smooth_field(grid, np.random.default_rng(149)))
        spec[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, 1.0), complex(1.0, -np.inf)]
        with np.errstate(invalid="ignore"):
            expected = spec / ctx.flat_symbol
            got = spec / ctx.flat_symbol_complex
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("max_iter", [1, 3])
def test_cg_iteration_cap(grid, max_iter):
    # a solve that cannot reach tol in max_iter iterations raises with every
    # residual it saw, and a stage under guarded_rhs turns that into NaN
    ctx = make_ctx(grid, cg_max_iter=max_iter)
    zeta, w = random_state(ctx, np.random.default_rng(157))
    v = apply_mass_operator(ctx, zeta, w)
    with pytest.raises(ConvergenceError, match="did not reach tol") as err:
        invert_mass_operator(ctx, zeta, v)
    assert len(err.value.residuals) == max_iter + 1
    tendencies = guarded_rhs(ctx, GNWorkspace())(0.0, np.stack((zeta, v)))
    assert tendencies.shape == (2, grid.n) and np.isnan(tendencies).all()


class TestVelocities:
    """u = LAYER_SIGN * w / h, the layer velocities interface_gradient forms."""

    def test_zero_flux(self, grid):
        u1, u2 = LAYER_SIGN * np.zeros(grid.n) / layer_depths(REF_PARAMS, np.zeros(grid.n))
        assert np.array_equal(u1, np.zeros(grid.n))
        assert np.array_equal(u2, np.zeros(grid.n))

    def test_flat_interface_unit_flux(self, grid):
        u1, u2 = LAYER_SIGN * np.ones(grid.n) / layer_depths(REF_PARAMS, np.zeros(grid.n))
        assert np.allclose(u1, -1.0)
        assert np.allclose(u2, REF_PARAMS.delta)

    def test_rigid_lid_identity(self, grid):
        rng = np.random.default_rng(43)
        zeta = random_smooth_field(grid, rng, max_abs=0.9)
        w = random_smooth_field(grid, rng)
        h1, h2 = h = layer_depths(REF_PARAMS, zeta)
        u1, u2 = LAYER_SIGN * w / h
        assert np.allclose(h1 * u1 + h2 * u2, 0.0, atol=1e-15)


def capillary_part(grid, zeta, params):
    """The surface-tension part of the zeta-gradient as the pass of
    interface_gradient forms it: the gradient at w = 0 less its
    (gamma+delta) zeta term."""
    ctx = GNContext(grid, params, MultiplierSpec.identity())
    return interface_gradient(ctx, zeta, np.zeros(grid.n)) - (params.gamma + params.delta) * zeta


class TestSurfaceTension:
    """The surface-tension term as it enters dt v, -dx of its part of the
    zeta-gradient (capillary_part)."""

    def test_zero_without_tension(self, grid):
        p = PhysParams(inv_bond=0.0)
        rng = np.random.default_rng(47)
        zeta = random_smooth_field(grid, rng)
        assert np.array_equal(-ddx(grid, capillary_part(grid, zeta, p)), np.zeros(grid.n))

    def test_linear_reduction_single_mode(self, grid):
        # with mu*eps^2 = 0 the term is (gamma+delta)/Bo * dddx zeta
        p = PhysParams(gamma=0.95, epsilon=0.0, mu=0.1, delta=0.5, inv_bond=5e-4)
        k0 = 8 * np.pi / grid.length
        zeta = np.sin(k0 * grid.x)
        out = -ddx(grid, capillary_part(grid, zeta, p))
        expected = (p.gamma + p.delta) * p.inv_bond * (-(k0**3)) * np.cos(k0 * grid.x)
        assert np.allclose(out, expected, rtol=1e-11)

    def test_finite_difference_oracle(self):
        # fully nonlinear term vs an O(h^2) centered stencil on a fine grid
        p = REF_PARAMS
        results = []
        for n in (1024, 2048, 4096):
            g = Grid(n, 4.0)
            zeta = np.exp(-2 * g.x**2) * np.sin(g.x)
            spectral = -ddx(g, capillary_part(g, zeta, p))

            def fd_d1(f, dx):
                return (np.roll(f, -1) - np.roll(f, 1)) / (2 * dx)

            def fd_d2(f, dx):
                return (np.roll(f, -1) - 2 * f + np.roll(f, 1)) / dx**2

            s = fd_d1(zeta, g.dx)
            inner_term = s / np.sqrt(1.0 + p.mu * p.epsilon**2 * s**2)
            fd = (p.gamma + p.delta) * p.inv_bond * fd_d2(inner_term, g.dx)
            results.append(np.max(np.abs(fd - spectral)))
        # second-order convergence of the stencil toward the spectral value
        rate = np.log2(results[0] / results[1])
        assert rate == pytest.approx(2.0, abs=0.2)
        rate = np.log2(results[1] / results[2])
        assert rate == pytest.approx(2.0, abs=0.2)


class TestRFluxAssembly:
    def test_matches_expanded_form(self, grid):
        # R[eps zeta, w], the part of interface_gradient the other terms
        # leave (no tension) divided by -mu*eps, must equal the fully
        # expanded expression (independent path)
        spec = MultiplierSpec.improved(REF_PARAMS.delta)
        p = replace(REF_PARAMS, inv_bond=0.0)
        ctx = make_ctx(grid, params=p, spec=spec)
        rng = np.random.default_rng(53)
        zeta, w = random_state(ctx, rng)
        h1, h2 = layer_depths(p, zeta)
        dxf1 = _layer_dxf(grid, spec, 1, p.mu)
        dxf2 = _layer_dxf(grid, spec, 2, p.mu)

        g = p.gamma
        t2 = dxf2(h2**3 * dxf2(w / h2))
        t1 = dxf1(h1**3 * dxf1(w / h1))
        expanded = (
            w * t2 / (3.0 * h2**2)
            - g * w * t1 / (3.0 * h1**2)
            + 0.5 * (h2 * dxf2(w / h2)) ** 2
            - 0.5 * g * (h1 * dxf1(w / h1)) ** 2
        )
        rest = (p.gamma + p.delta) * zeta + 0.5 * p.epsilon * (h1**2 - g * h2**2) / (h1 * h2) ** 2 * w**2
        r = (rest - interface_gradient(ctx, zeta, w)) / (p.mu * p.epsilon)
        assert np.allclose(r, expanded, rtol=0, atol=1e-12)


class TestRhs:
    def test_rest_state_is_steady(self, grid):
        ctx = make_ctx(grid)
        dzeta, dv = rhs(ctx, np.zeros(grid.n), np.zeros(grid.n))
        assert np.allclose(dzeta, 0.0, atol=1e-16)
        assert np.allclose(dv, 0.0, atol=1e-16)

    def test_constant_shear_is_steady(self, grid):
        ctx = make_ctx(grid)
        p = ctx.params
        wbar = 0.3
        v = apply_mass_operator(ctx, np.zeros(grid.n), np.full(grid.n, wbar))
        dzeta, dv = rhs(ctx, np.zeros(grid.n), v)
        assert np.max(np.abs(dzeta)) <= 1e-13
        assert np.max(np.abs(dv)) <= 1e-13

    def test_mu_zero_multiplier_independence(self, grid):
        # every nonlocal term carries mu; at mu = 0 the family is irrelevant
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=5e-4)
        rng = np.random.default_rng(59)
        zeta = random_smooth_field(grid, rng, max_abs=0.9)
        v = random_smooth_field(grid, rng)
        outs = []
        for spec in (MultiplierSpec.identity(), MultiplierSpec.improved(p.delta)):
            ctx = GNContext(grid, p, spec)
            outs.append(rhs(ctx, zeta, v))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_workspace_warm_start_used(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(61)
        zeta = random_smooth_field(grid, rng, max_abs=0.5)
        v = random_smooth_field(grid, rng)
        ws = GNWorkspace()
        rhs(ctx, zeta, v, workspace=ws)
        assert ws.w_prev is not None


@pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
@pytest.mark.parametrize("mu", [0.1, 0.0], ids=["mu0.1", "mu0"])
@pytest.mark.parametrize("family", list(FAMILY_BUILDERS))
class TestSymmetries:
    """rhs commutes with the symmetries the models keep: the reflection
    x -> -x, under which zeta is even and v odd, and whole-cell translation;
    every family, with tension, at mu > 0 and mu = 0, dealiased or not."""

    @staticmethod
    def state(family, mu, dealias):
        grid = Grid(128, 4.0)
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=mu, delta=0.5, inv_bond=5e-4)
        ctx = GNContext(grid, p, FAMILY_BUILDERS[family](p.delta, None, None), dealias=dealias)
        rng = np.random.default_rng(163)
        return ctx, random_smooth_field(grid, rng, max_abs=0.9), random_smooth_field(grid, rng)

    @staticmethod
    def assert_rel_close(got, expected):
        for g, e in zip(got, expected):
            assert np.max(np.abs(g - e)) <= 1e-11 * np.max(np.abs(e))

    def test_reflection(self, family, mu, dealias):
        ctx, zeta, v = self.state(family, mu, dealias)
        flip = (-np.arange(ctx.grid.n)) % ctx.grid.n  # x_j -> x_{-j} = -x_j
        dzeta, dv = rhs(ctx, zeta, v)
        self.assert_rel_close(rhs(ctx, zeta[flip], -v[flip]), (dzeta[flip], -dv[flip]))

    def test_translation(self, family, mu, dealias):
        ctx, zeta, v = self.state(family, mu, dealias)
        shift = 37
        expected = np.roll(rhs(ctx, zeta, v), shift, axis=-1)
        self.assert_rel_close(rhs(ctx, np.roll(zeta, shift), np.roll(v, shift)), expected)


class TestDealias:
    """Under ``dealias`` the 2/3 rule is part of the context's derivative
    symbol ``ctx.ik``: rhs and the Lawson propagator apply it with the
    derivative, with no transform of its own."""

    def test_symbol(self, grid):
        plain, ctx = make_ctx(grid), make_ctx(grid, dealias=True)
        assert plain.ik is grid.ik
        assert np.array_equal(ctx.ik, grid.ik * dealias_mask(grid))
        # the masked modes have no linear part, so the propagator leaves them be
        masked = dealias_mask(grid) == 0.0
        assert np.all(ctx.linear.coef[:, masked] == 0.0) and np.all(ctx.linear.omega[masked] == 0.0)
        assert np.array_equal(ctx.linear.coef[:, ~masked], plain.linear.coef[:, ~masked])

    @pytest.mark.parametrize("mu", [0.1, 0.0], ids=["mu0.1", "mu0"])
    @pytest.mark.parametrize("family", list(FAMILY_BUILDERS))
    def test_rhs_equals_round_trip_mask(self, family, mu):
        # the earlier form: the plain tendencies, then the mask through one
        # more rfft/irfft round trip
        grid = Grid(128, 4.0)
        p = PhysParams(gamma=0.95, epsilon=0.5, mu=mu, delta=0.5, inv_bond=5e-4)
        spec = FAMILY_BUILDERS[family](p.delta, None, None)
        plain, ctx = GNContext(grid, p, spec), GNContext(grid, p, spec, dealias=True)
        rng = np.random.default_rng(167)
        zeta = random_smooth_field(grid, rng, max_abs=0.9, modes=30)
        v = random_smooth_field(grid, rng, modes=30)
        unmasked = rhs(plain, zeta, v)
        expected = np.fft.irfft(dealias_mask(grid) * np.fft.rfft(unmasked), grid.n)
        got = rhs(ctx, zeta, v)
        for g, e, u in zip(got, expected, unmasked):
            scale = np.max(np.abs(e))
            assert np.max(np.abs(u - e)) > 1e-6 * scale  # the mask removes something
            assert np.max(np.abs(g - e)) <= 1e-14 * scale


class TestLinearDispersion:
    def test_single_mode_oscillation_frequency(self):
        # seed the right-moving linear eigenvector about rest and check the
        # measured frequency against omega^2 = k^2 a(k) b(k) (shear-free)
        from gnwaves.stability import model_coeffs
        from gnwaves.timestepper import integrate

        grid = Grid(128, 4.0)
        p = REF_PARAMS
        spec = MultiplierSpec.improved(p.delta)
        ctx = GNContext(grid, p, spec)
        k0 = 8 * np.pi / grid.length
        a, b, _ = model_coeffs(k0, p, spec, wbar=0.0)
        omega = k0 * np.sqrt(a * b)
        amp = 1e-8
        zeta0 = amp * np.cos(k0 * grid.x)
        v0 = amp * np.sqrt(a / b) * np.cos(k0 * grid.x)
        idx = int(np.argmin(np.abs(grid.k - k0)))
        phases = [(0.0, np.angle(np.fft.rfft(zeta0)[idx]))]

        def watch(t, y, stats):
            phases.append((t, np.angle(np.fft.rfft(y[0])[idx])))

        ws = GNWorkspace()

        def f(t, y):
            return rhs(ctx, *y, workspace=ws)

        # abs_tol must sit far below the 1e-8 mode amplitude or the error
        # control is effectively loose-relative and the phase drifts
        integrate(
            f, (0.0, 1.0), np.stack((zeta0, v0)),
            rel_tol=1e-11, abs_tol=1e-19, on_step=watch,
        )
        ts = np.array([t for t, _ in phases])
        unwrapped = np.unwrap(np.array([ph for _, ph in phases]))
        omega_measured = -np.polyfit(ts, unwrapped, 1)[0]
        assert omega_measured == pytest.approx(omega, rel=1e-6)


class TestHamiltonianGradients:
    def test_gradient_wrt_v_is_w(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(67)
        zeta, w0 = random_state(ctx, rng)
        v = apply_mass_operator(ctx, zeta, w0)
        phi = random_smooth_field(grid, rng)
        w = invert_mass_operator(ctx, zeta, v, tol=1e-14, max_iter=800)
        exact = inner(grid, w, phi)
        for h in (1e-2, 1e-3):
            fd = (hamiltonian(ctx, zeta, v + h * phi) - hamiltonian(ctx, zeta, v - h * phi)) / (2 * h)
            # H is quadratic in v: central differences are exact to round-off
            assert fd == pytest.approx(exact, rel=1e-9)

    def test_gradient_wrt_zeta_second_order(self, grid):
        ctx = make_ctx(grid)
        rng = np.random.default_rng(71)
        zeta, w0 = random_state(ctx, rng)
        v = apply_mass_operator(ctx, zeta, w0)
        phi = random_smooth_field(grid, rng, max_abs=0.2)
        w = invert_mass_operator(ctx, zeta, v, tol=1e-14, max_iter=800)
        exact = inner(grid, interface_gradient(ctx, zeta, w), phi)
        errs = []
        for h in (1e-2, 1e-3):
            fd = (hamiltonian(ctx, zeta + h * phi, v) - hamiltonian(ctx, zeta - h * phi, v)) / (2 * h)
            errs.append(abs(fd - exact))
        order = np.log10(errs[0] / errs[1])
        assert order == pytest.approx(2.0, abs=0.3)
