import ast
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import gnwaves.operators as operators_mod
import gnwaves.spectral as spectral_mod
from gnwaves.diagnostics import compute_row
from gnwaves.errors import CorruptFieldError, ValidationError
from gnwaves.multipliers import MultiplierSpec
from gnwaves.operators import GNContext, GNWorkspace, apply_mass_operator, invert_mass_operator, rhs
from gnwaves.params import ExperimentConfig, with_overrides
from gnwaves.runner import guarded_rhs, run_experiment
from gnwaves.spectral import Grid, dealias_mask, irfft, mode_amplitudes, rfft

from gnwaves.timestepper import integrate

from conftest import REF_PARAMS, passed_stage, random_smooth_field
from oracles import ddx, inner


class TestTransformPair:
    """rfft/irfft are np.fft.rfft/irfft bit for bit; they reach into numpy's
    private pocketfft ufuncs, so this is the guard for a numpy that moves
    or changes them."""

    @pytest.mark.parametrize("n", [8, 64, 512, 1024])
    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_equal_to_np_fft(self, n, shape):
        rng = np.random.default_rng(n)
        f = rng.standard_normal(shape + (n,))
        f_hat = rng.standard_normal(shape + (n // 2 + 1,)) + 1j * rng.standard_normal(shape + (n // 2 + 1,))
        assert_array_equal(rfft(f), np.fft.rfft(f))
        assert_array_equal(irfft(f_hat, n), np.fft.irfft(f_hat, n))
        out_hat = np.empty(shape + (n // 2 + 1,), dtype=complex)
        out = np.empty(shape + (n,))
        assert rfft(f, out=out_hat) is out_hat
        assert irfft(f_hat, n, out=out) is out
        assert_array_equal(out_hat, np.fft.rfft(f))
        assert_array_equal(out, np.fft.irfft(f_hat, n))

    @pytest.mark.parametrize("n", [8, 64, 512, 1024])
    def test_non_contiguous_views(self, n):
        rng = np.random.default_rng(n + 1)
        f = rng.standard_normal((2, 2 * n))[:, ::2]
        f_hat = (rng.standard_normal((n + 2, 2)) + 1j * rng.standard_normal((n + 2, 2)))[::2].T
        assert not f.flags.c_contiguous and not f_hat.flags.c_contiguous
        assert_array_equal(rfft(f), np.fft.rfft(f))
        assert_array_equal(irfft(f_hat, n), np.fft.irfft(f_hat, n))
        assert_array_equal(rfft(f[1]), np.fft.rfft(f[1]))
        assert_array_equal(irfft(f_hat[0], n), np.fft.irfft(f_hat[0], n))


class TestTransformRoute:
    """Every package transform, the Lawson frame changes of the timestepper
    included, goes through gnwaves.spectral's pair, looked up at call time;
    no module of the package calls np.fft."""

    @pytest.fixture
    def state(self, small_grid):
        ctx = GNContext(
            small_grid, REF_PARAMS, MultiplierSpec.regularized(REF_PARAMS.delta), dealias=True
        )
        rng = np.random.default_rng(6)
        zeta = random_smooth_field(small_grid, rng, max_abs=0.5)
        w = random_smooth_field(small_grid, rng)
        return ctx, zeta, w, apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta), w)

    def test_no_np_fft_call(self, state, monkeypatch, tmp_path):
        ctx, zeta, w, v = state
        assert ctx.params.mu > 0.0 and ctx.params.inv_bond > 0.0
        assert np.count_nonzero(ctx.ik) < np.count_nonzero(ctx.grid.ik)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.fft called from the package")

        monkeypatch.setattr(np.fft, "rfft", forbidden)
        monkeypatch.setattr(np.fft, "irfft", forbidden)
        rhs(ctx, GNWorkspace(), zeta, v)
        stage = GNWorkspace().load(ctx, zeta)
        invert_mass_operator(ctx, stage, v)
        apply_mass_operator(ctx, stage, w)
        compute_row(ctx, 0.0, v, passed_stage(ctx, zeta, w))
        mode_amplitudes(ctx.grid, zeta)
        ddx(ctx.grid, zeta)
        result = integrate(guarded_rhs(ctx, GNWorkspace()), (0.0, 0.05), np.stack((zeta, v)),
                           snapshot_times=(0.02,), linear=ctx.linear)
        assert result.t == 0.05
        # the reference Gaussian on 64 points: on 32 its tail above the 2/3
        # cut is about 2e-2 of the peak, and the run ends with lost resolution
        config = with_overrides(ExperimentConfig(), grid_n=64, t_end=0.05, snapshot_times=(0.02,), dealias=True)
        assert run_experiment(config, str(tmp_path / "run")).status == "completed"

    def test_no_module_calls_np_fft(self):
        # the static counterpart of test_no_np_fft_call, which sees only the
        # paths it drives: no call through np.fft in any package source
        def dotted(node):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""

        calls = []
        for path in sorted(pathlib.Path(spectral_mod.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call) and dotted(node.func).startswith(("np.fft.", "numpy.fft.")):
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == []

    @staticmethod
    def count_transforms(monkeypatch):
        """Count the calls of gnwaves.spectral's pair from here on."""
        calls = {"rfft": 0, "irfft": 0}

        def counted(name):
            fn = getattr(spectral_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(spectral_mod, "rfft", counted("rfft"))
        monkeypatch.setattr(spectral_mod, "irfft", counted("irfft"))
        return calls

    def test_one_mass_application_is_two_round_trips(self, state, monkeypatch):
        ctx, zeta, w, _ = state
        calls = self.count_transforms(monkeypatch)
        apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta), w)
        assert calls == {"rfft": 2, "irfft": 2}

    def test_rhs_makes_three_rfft_and_two_irfft_besides_the_solve(self, state, monkeypatch):
        # one rfft of the stacked w, zeta, u; one irfft of the slope and
        # dx F u; one rfft/irfft pair for the stress and h^3 dx F u; one rfft
        # of the gradient; the tendencies stay spectral
        ctx, zeta, w, v = state
        assert ctx.params.epsilon > 0.0
        monkeypatch.setattr(operators_mod, "invert_mass_operator", lambda *args, **kwargs: w)
        calls = self.count_transforms(monkeypatch)
        ws = GNWorkspace()
        rhs(ctx, ws, zeta, v)
        assert calls == {"rfft": 3, "irfft": 2}
        assert ws.w is w

    def test_run_transform_count(self, monkeypatch, tmp_path):
        # a whole run, regularized with tension, 128 points to t = 0.2: CG,
        # the passes, the predictor and the Lawson frame changes, pinned at
        # the value measured when the CG start became the projection onto
        # the recent stage solves (3436 with the stage-value predictor; 3440
        # while the runner ran a pass of its own at t = 0; 3711 before
        # the stages moved to Fourier space, when each rhs call took an
        # irfft of its tendencies, the Lawson frame their rfft, and each
        # predicted CG start an rfft of v)
        config = with_overrides(ExperimentConfig(), grid_n=128, t_end=0.2, snapshot_times=())
        assert config.multiplier == "regularized" and config.params.inv_bond > 0.0 and config.dealias
        calls = self.count_transforms(monkeypatch)
        result = run_experiment(config, str(tmp_path / "run"))
        assert result.status == "completed"
        assert (result.stats.accepted, result.stats.rejected, result.stats.rhs_evals) == (15, 0, 92)
        assert calls["rfft"] + calls["irfft"] == 2513

    def test_row_of_an_evaluated_stage_makes_no_transform(self, state, monkeypatch):
        ctx, zeta, _, v = state
        ws = GNWorkspace()
        rhs(ctx, ws, zeta, v)
        calls = self.count_transforms(monkeypatch)
        compute_row(ctx, 0.5, v, ws)
        assert calls == {"rfft": 0, "irfft": 0}

    def test_dealias_costs_no_transform(self, state, monkeypatch):
        ctx, zeta, _, v = state
        plain = GNContext(ctx.grid, ctx.params, MultiplierSpec.regularized(REF_PARAMS.delta))
        calls = self.count_transforms(monkeypatch)
        counts = []
        for c in (plain, ctx):
            rhs(c, GNWorkspace(), zeta, v)
            counts.append(dict(calls))
            calls.update(rfft=0, irfft=0)
        assert counts[0]["rfft"] > 0 and counts[1] == counts[0]


class TestGrid:
    def test_ladder_uniform(self, grid):
        # k_m = m * (2*pi/L), correctly rounded per entry; spacing deviates
        # from 2*pi/L by at most one ulp of the largest wavenumber
        spacing = np.diff(grid.k)
        ulp = np.spacing(grid.nyquist)
        assert np.allclose(spacing, 2 * np.pi / grid.length, rtol=0, atol=2 * ulp)
        assert grid.k[0] == 0.0
        assert grid.nyquist == pytest.approx(np.pi * grid.n / grid.length)

    def test_nodes(self, grid):
        assert grid.x[0] == -4.0
        assert grid.x[-1] == pytest.approx(4.0 - grid.dx)

    @pytest.mark.parametrize("bad_n", [0, 7, 12, 500, 4])
    def test_rejects_bad_sizes(self, bad_n):
        with pytest.raises(ValidationError):
            Grid(bad_n, 4.0)

    @pytest.mark.parametrize("half_length", [0.0, -4.0, np.nan, np.inf])
    def test_rejects_a_non_positive_half_length(self, half_length):
        with pytest.raises(ValidationError) as err:
            Grid(64, half_length)
        assert err.value.field == "half_length"


class TestDdx:
    def test_constant(self, grid):
        assert np.allclose(ddx(grid, np.full(grid.n, 3.0)), 0.0, atol=1e-15)

    def test_single_mode(self, grid):
        k0 = 6 * np.pi / grid.length
        f = np.sin(k0 * grid.x)
        assert np.allclose(ddx(grid, f), k0 * np.cos(k0 * grid.x), atol=1e-12)

    def test_gaussian_matches_analytic(self, grid):
        # tails are ~exp(-64), far below round-off at n = 512
        f = np.exp(-4 * grid.x**2)
        exact = -8 * grid.x * np.exp(-4 * grid.x**2)
        assert np.max(np.abs(ddx(grid, f) - exact)) <= 1e-10

    def test_nyquist_zeroed(self, grid):
        f = np.cos(grid.nyquist * grid.x)  # pure Nyquist mode
        assert np.allclose(ddx(grid, f), 0.0, atol=1e-12)


class TestModeAmplitudesChecks:
    """The input checks of mode_amplitudes."""

    def test_rejects_nan(self, grid):
        f = np.zeros(grid.n)
        f[3] = np.nan
        with pytest.raises(CorruptFieldError):
            mode_amplitudes(grid, f)

    def test_rejects_wrong_shape(self, grid, small_grid):
        with pytest.raises(ValidationError):
            mode_amplitudes(grid, np.zeros(small_grid.n))


class TestInner:
    def test_constants(self, grid):
        one = np.ones(grid.n)
        assert inner(grid, one, one) == pytest.approx(8.0, rel=1e-15)

    def test_sin_squared(self, grid):
        f = np.sin(2 * np.pi * grid.x / grid.length)
        assert inner(grid, f, f) == pytest.approx(grid.length / 2, rel=1e-14)

    def test_gaussian(self, grid):
        f = np.exp(-4 * grid.x**2)
        assert inner(grid, np.ones(grid.n), f) == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-12)

    def test_grid_mismatch(self, grid, small_grid):
        with pytest.raises(ValidationError):
            inner(grid, np.ones(grid.n), np.ones(small_grid.n))


class TestOperatorAlgebra:
    """Structural identities: adjoints and Parseval."""

    def test_ddx_skew_adjoint(self, grid):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_smooth_field(grid, rng)
            g = random_smooth_field(grid, rng)
            assert inner(grid, ddx(grid, f), g) == pytest.approx(-inner(grid, f, ddx(grid, g)), rel=1e-12)

    def test_parseval(self, grid):
        rng = np.random.default_rng(4)
        f = random_smooth_field(grid, rng)
        fh = np.fft.rfft(f) / grid.n
        weights = np.full(grid.n // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        spectral_sum = grid.length * float(np.sum(weights * np.abs(fh) ** 2))
        assert inner(grid, f, f) == pytest.approx(spectral_sum, rel=1e-12)


def test_mode_amplitude_normalization(grid):
    k0 = 10 * np.pi / grid.length
    amps = mode_amplitudes(grid, 2.0 * np.sin(k0 * grid.x))
    idx = int(np.argmin(np.abs(grid.k - k0)))
    assert amps[idx] == pytest.approx(1.0, rel=1e-12)  # amplitude/2


def test_dealias_mask(grid):
    mask = dealias_mask(grid)
    assert mask[0] == 1.0
    assert mask[grid.n // 3] == 1.0
    assert mask[grid.n // 3 + 1] == 0.0
    assert mask[-1] == 0.0
