import time

import numpy as np
import pytest

import gnwaves.spectral as spectral_mod
from gnwaves.diagnostics import compute_row
from gnwaves.errors import StepUnderflowError, ValidationError
from gnwaves.multipliers import MultiplierSpec
from gnwaves.operators import GNContext, GNWorkspace, invert_mass_operator
from gnwaves.runner import guarded_rhs
from gnwaves.spectral import Grid
from gnwaves.timestepper import MIN_FACTOR, ModeRotation, integrate

from conftest import REF_PARAMS, random_smooth_field


def test_exponential_growth_to_e():
    result = integrate(lambda t, y: y, (0.0, 1.0), np.array([1.0]))
    assert abs(result.y[0] - np.e) <= 1e-8
    assert result.t == 1.0
    assert result.stats.accepted > 0


def test_harmonic_oscillator_energy_drift():
    # 100 periods of y'' = -y; energy (y^2 + p^2)/2 must hold to 1e-6
    def f(t, y):
        return np.array([y[1], -y[0]])

    t_end = 100 * 2 * np.pi
    result = integrate(f, (0.0, t_end), np.array([1.0, 0.0]))
    energy = 0.5 * (result.y[0] ** 2 + result.y[1] ** 2)
    assert abs(energy - 0.5) <= 1e-6


@pytest.mark.parametrize(
    "rhs_fn,y0,t_end,exact",
    [
        (lambda t, y: y, np.array([1.0]), 1.0, np.array([np.e])),
        (
            lambda t, y: np.array([y[1], -y[0]]),
            np.array([1.0, 0.0]),
            5.0,
            np.array([np.cos(5.0), -np.sin(5.0)]),
        ),
    ],
    ids=["exp-growth", "oscillator"],
)
def test_tolerance_monotonicity(rhs_fn, y0, t_end, exact):
    # halving both tolerances never increases the final error (tolerances
    # chosen to stay above the round-off floor)
    errors = []
    rel, abs_ = 1e-4, 1e-6
    for _ in range(8):
        result = integrate(rhs_fn, (0.0, t_end), y0, rel_tol=rel, abs_tol=abs_)
        errors.append(np.max(np.abs(result.y - exact)))
        rel *= 0.5
        abs_ *= 0.5
    assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errors, errors[1:]))


def test_error_scales_linearly_with_tolerance():
    # proportional error control: err ~ tol within a factor
    errs = {}
    for tol in (1e-6, 1e-8):
        result = integrate(
            lambda t, y: y, (0.0, 1.0), np.array([1.0]), rel_tol=tol, abs_tol=tol * 1e-2
        )
        errs[tol] = abs(result.y[0] - np.e)
    ratio = errs[1e-6] / errs[1e-8]
    assert 10 <= ratio <= 1000  # ~100 for clean proportional control


def test_zero_rhs_fixed_point_fast():
    calls = {"n": 0}

    def f(t, y):
        calls["n"] += 1
        return np.zeros_like(y)

    result = integrate(f, (0.0, 1.0), np.array([2.0, -1.0]))
    assert np.array_equal(result.y, [2.0, -1.0])
    assert calls["n"] < 200  # zero error lets dt grow at the max factor


def test_snapshots_land_exactly():
    hits = []
    result = integrate(
        lambda t, y: y,
        (0.0, 1.0),
        np.array([1.0]),
        snapshot_times=(0.25, 0.5, 0.875),
        on_snapshot=lambda t, y: hits.append((t, y[0])),
    )
    assert [t for t, _ in hits] == [0.25, 0.5, 0.875]  # exact float equality
    for t, val in hits:
        assert val == pytest.approx(np.exp(t), rel=1e-9)
    assert result.t == 1.0


def test_deterministic_repeatability():
    def f(t, y):
        return np.array([y[1], -np.sin(y[0])])

    runs = []
    for _ in range(2):
        result = integrate(f, (0.0, 5.0), np.array([1.2, 0.0]), rel_tol=1e-9, abs_tol=1e-11)
        runs.append((result.y.copy(), result.stats.accepted, result.stats.rhs_evals))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1:] == runs[1][1:]


def test_underflow_raises_with_state():
    # NaN tendencies force permanent rejection: dt collapses to the floor
    def f(t, y):
        return np.full_like(y, np.nan) if t > 0.1 else y

    with pytest.raises(StepUnderflowError) as err:
        integrate(f, (0.0, 1.0), np.array([1.0]))
    assert err.value.t <= 0.2
    assert np.isfinite(err.value.state).all()
    assert err.value.stats.rejected > 0


def test_stats_accumulate():
    result = integrate(lambda t, y: -50 * y, (0.0, 1.0), np.array([1.0]))
    stats = result.stats
    assert stats.accepted >= 1
    assert stats.rhs_evals >= 6 * stats.accepted



def test_no_stage_after_a_non_finite_one():
    # call 23 is the third stage of the fourth attempt (calls 1-2 start the
    # integration, every attempt before it is accepted); its NaN must end
    # that attempt at once and shrink the step by MIN_FACTOR
    bad_call = 2 + 6 * 3 + 3
    calls = []

    def f(t, y):
        calls.append(t)
        return np.full_like(y, np.nan) if len(calls) == bad_call else -y

    stats = integrate(f, (0.0, 1.0), np.array([1.0])).stats
    assert stats.rejected == 1
    assert stats.rhs_evals == len(calls) == 2 + 6 * stats.accepted + 3
    # the call after the failed one is the first stage of the next attempt,
    # from the same state with the step shrunk by MIN_FACTOR
    t_first, t_bad, t_next = calls[bad_call - 3], calls[bad_call - 1], calls[bad_call]
    dt_step = (t_bad - t_first) / (4 / 5 - 1 / 5)
    t_start = t_first - dt_step / 5
    assert t_next == pytest.approx(t_start + MIN_FACTOR * dt_step / 5, rel=1e-12)


@pytest.mark.parametrize(
    "tols",
    [{"rel_tol": 0.0}, {"rel_tol": -1e-10}, {"rel_tol": np.nan}, {"rel_tol": np.inf},
     {"abs_tol": 0.0}, {"abs_tol": np.inf}],
    ids=["rel-0", "rel-negative", "rel-nan", "rel-inf", "abs-0", "abs-inf"],
)
def test_tolerances_must_be_finite_and_positive(tols):
    # an infinite tolerance would switch error control off without a word
    calls = []

    def f(t, y):
        calls.append(t)
        return y

    with pytest.raises(ValidationError):
        integrate(f, (0.0, 1.0), np.array([1.0]), **tols)
    assert calls == []


def test_failure_at_t0_feeds_no_stage():
    # like rhs at mu = 0, this stage function refuses non-finite input
    calls = []

    def f(t, y):
        if not np.isfinite(y).all():
            raise ValueError("stage fed a non-finite state")
        calls.append(t)
        return np.full_like(y, np.nan)

    with pytest.raises(StepUnderflowError) as err:
        integrate(f, (0.0, 1.0), np.array([1.0]))
    assert err.value.t == 0.0
    assert err.value.stats.rhs_evals == len(calls) == 1
    assert err.value.stats.rejected > 0


def test_callbacks_follow_a_stage_at_their_state():
    # on_snapshot and on_step run right after a stage evaluated at exactly
    # their y (t is not compared: a truncated step lands on the boundary,
    # which may differ from t + dt by one ulp)
    last_input = {}
    seen = []

    def f(t, y):
        last_input["y"] = y.copy()
        return np.array([y[1], -np.sin(y[0])])

    def check(t, y, stats=None):
        seen.append(t)
        assert np.array_equal(last_input["y"], y)

    result = integrate(
        f, (0.0, 3.0), np.array([1.2, 0.0]), rel_tol=1e-9, abs_tol=1e-11,
        snapshot_times=(0.1, 1 / 3, 0.7, 2.9), on_step=check, on_snapshot=check,
    )
    assert result.t == 3.0
    assert len(seen) == result.stats.accepted + 4


# --- Lawson (integrating-factor) stages: integrate(..., linear=ModeRotation) ---


def _reference_ctx(n=512):
    return GNContext(Grid(n, 4.0), REF_PARAMS, MultiplierSpec.regularized_for_depth(REF_PARAMS.delta))


def _exact_rotation(linear, y0, t):
    """exp(tL) y0, mode by mode through an eigendecomposition of the 2x2 L."""
    m = linear.coef.shape[1]
    gen = np.zeros((m, 2, 2), dtype=complex)
    gen[:, 0, 1], gen[:, 1, 0] = linear.coef
    lam, vec = np.linalg.eig(t * gen)
    expm = vec @ (np.exp(lam)[:, :, None] * np.linalg.inv(vec))
    y_hat = np.fft.rfft(y0).T
    return np.fft.irfft((expm @ y_hat[:, :, None])[:, :, 0].T)


def test_lawson_is_exact_on_the_linear_part():
    # rhs = L y: every stage's remainder f_hat - L u is round-off, so each
    # accepted step, however long against the top frequency, is exp(hL)
    ctx = _reference_ctx()
    linear = ctx.linear
    n = ctx.grid.n

    def f(t, y):
        return linear.to_state(linear.coef * linear.to_frame(y)[::-1])

    rng = np.random.default_rng(5)
    y0 = np.stack((random_smooth_field(ctx.grid, rng, modes=n // 2), random_smooth_field(ctx.grid, rng)))
    worst, steps = 0.0, [0.0]

    def check(t, y, stats):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(y - _exact_rotation(linear, y0, t)))))
        steps.append(t)

    result = integrate(f, (0.0, 2.0), y0, on_step=check, linear=linear)
    assert result.t == 2.0 and result.stats.rejected == 0
    # round-off of phases omega t up to 750 rad, one ulp of which is 1.1e-13
    assert worst <= 1e-12
    assert max(np.diff(steps)) * linear.omega.max() > 50  # far past DP5's |h omega| ~ 1
    assert result.stats.accepted < 20


def test_lawson_callbacks_follow_a_stage_at_their_state():
    # the contract of test_callbacks_follow_a_stage_at_their_state, with a
    # linear part: the state handed out is the input of the FSAL stage
    ctx = _reference_ctx(n=64)
    linear = ctx.linear
    last_input = {}
    seen = []

    def f(t, y):
        last_input["y"] = y.copy()
        return linear.to_state(linear.coef * linear.to_frame(y)[::-1]) + 0.3 * np.sin(y)

    def check(t, y, stats=None):
        seen.append(t)
        assert np.array_equal(last_input["y"], y)

    y0 = np.stack((np.exp(-4 * ctx.grid.x**2), np.zeros(ctx.grid.n)))
    result = integrate(
        f, (0.0, 1.0), y0, rel_tol=1e-9, abs_tol=1e-11,
        snapshot_times=(0.1, 1 / 3, 0.7, 0.9), on_step=check, on_snapshot=check, linear=linear,
    )
    assert result.t == 1.0
    assert len(seen) == result.stats.accepted + 4


def _gn_run(ctx, t_end, rel_tol, linear=True, **kw):
    grid = ctx.grid
    y0 = np.stack((-np.exp(-4 * grid.x**2), np.zeros(grid.n)))
    f = guarded_rhs(ctx, GNWorkspace(), rel_tol=1e-10)
    return integrate(f, (0.0, t_end), y0, rel_tol=rel_tol, abs_tol=1e-2 * rel_tol,
                     linear=ctx.linear if linear else None, **kw)


def test_gn_error_falls_as_rel_tol_halves():
    # the GN system itself, with tension, against a tight Lawson reference:
    # proportional error control, so the error follows rel_tol down
    ctx = _reference_ctx(n=64)
    ref = _gn_run(ctx, 0.5, 1e-13).y
    errors = [np.max(np.abs(_gn_run(ctx, 0.5, 1e-5 / 2**i).y - ref)) for i in range(6)]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), errors
    assert errors[0] / errors[-1] >= 5.0, errors


@pytest.mark.parametrize("linear", [True, False], ids=["lawson", "dp5"])
def test_gn_fifth_order_in_the_step(linear):
    # snapshot times every h force the step to h at a loose tolerance; both
    # schemes are 5th order on the GN system
    ctx = _reference_ctx(n=64)
    ref = _gn_run(ctx, 0.5, 1e-13).y
    errors = []
    for m in (8, 16, 32):
        result = _gn_run(ctx, 0.5, 1e-2, linear=linear, snapshot_times=np.arange(1, m + 1) * 0.5 / m)
        errors.append(np.max(np.abs(result.y - ref)))
    slopes = -np.diff(np.log2(errors))
    assert np.all(slopes >= 4.5), slopes



def test_plain_dp5_reference_run_keeps_the_conserved_quantities():
    # the tension reference run of acceptance criterion 2 (n = 512, to t = 2)
    # with plain Dormand-Prince stages (linear=None), under that criterion's
    # drift bounds; the final flux comes from a cold CG solve
    elapsed = 0.0
    for spec in (MultiplierSpec.regularized_for_depth(REF_PARAMS.delta), MultiplierSpec.improved(REF_PARAMS.delta)):
        grid = Grid(512, 4.0)
        ctx = GNContext(grid, REF_PARAMS, spec)
        zeta0, rest = -np.exp(-4 * grid.x**2), np.zeros(grid.n)
        start = time.monotonic()
        result = integrate(guarded_rhs(ctx, GNWorkspace()), (0.0, 2.0), np.stack((zeta0, rest)),
                           rel_tol=1e-10, abs_tol=1e-12)
        elapsed += time.monotonic() - start
        assert result.t == 2.0
        zeta, v = result.y
        row0 = compute_row(ctx, 0.0, zeta0, rest, rest)
        row = compute_row(ctx, result.t, zeta, v, invert_mass_operator(ctx, zeta, v))
        assert abs(row.Z - row0.Z) <= 1e-10 and abs(row.V - row0.V) <= 1e-10, spec.label
        assert abs(row.I - row0.I) <= 1e-8, spec.label
        assert abs(row.H - row0.H) / max(abs(row0.H), 1.0) <= 1e-8, spec.label
    assert elapsed < 120.0


def test_truncated_steps_leave_the_pi_memory_alone():
    # a step cut short to land on an output time has a small error that says
    # nothing about the natural step; fed to err_prev it would throttle every
    # following step (209 instead of 129 steps here)
    ctx = _reference_ctx(n=64)
    result = _gn_run(ctx, 1.0, 1e-10, linear=False, snapshot_times=np.arange(1, 101) / 100)
    assert result.t == 1.0
    assert result.stats.accepted <= 150


def test_lawson_transforms_go_through_the_spectral_pair(monkeypatch):
    # the transforms integrate makes itself are the Lawson frame changes:
    # rfft of y0 and of every stage's tendency but the first-step probe's;
    # irfft of every stage's input and of each attempt's error estimate
    grid = Grid(64, 4.0)
    linear = ModeRotation(-grid.ik, -grid.ik * (1.0 + grid.k**2 / 50.0))
    calls = {"rfft": 0, "irfft": 0}

    def counted(name):
        fn = getattr(spectral_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(spectral_mod, "rfft", counted("rfft"))
    monkeypatch.setattr(spectral_mod, "irfft", counted("irfft"))
    y0 = np.stack((np.exp(-4 * grid.x**2), np.zeros(grid.n)))
    # an rhs that transforms nothing itself
    result = integrate(lambda t, y: 0.5 * np.sin(y[::-1]), (0.0, 1.0), y0, rel_tol=1e-9, abs_tol=1e-11,
                       snapshot_times=(0.25, 0.6), linear=linear)
    stats = result.stats
    assert result.t == 1.0 and stats.accepted > 2
    assert calls["rfft"] == stats.rhs_evals
    assert calls["irfft"] == stats.rhs_evals - 2 + stats.accepted + stats.rejected


class _NpFftModeRotation:
    """ModeRotation as it was on np.fft's wrappers, with real cosines: the
    bitwise oracle of the propagator on the spectral pair."""

    def __init__(self, upper, lower):
        self.coef = np.stack((upper, lower)).astype(complex)
        self.omega = np.sqrt(np.maximum(-(self.coef[0] * self.coef[1]).real, 0.0))
        self._coef_over_omega = np.divide(self.coef, self.omega, out=np.zeros_like(self.coef),
                                          where=self.omega > 0.0)

    def to_frame(self, y):
        return np.fft.rfft(y)

    def to_state(self, u):
        return np.fft.irfft(u)

    def tendency(self, f, u):
        return np.fft.rfft(f) - self.coef * u[::-1]

    def rotations(self, s):
        phase = np.multiply.outer(s, self.omega)
        return np.cos(phase)[:, None, :], np.sin(phase)[:, None, :] * self._coef_over_omega

    def rotate(self, rotations, i, u, inverse=False):
        cos, sin_l = rotations
        swapped = sin_l[i] * u[::-1]
        return cos[i] * u - swapped if inverse else cos[i] * u + swapped


@pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
def test_lawson_run_matches_np_fft_propagator_bitwise(dealias):
    ctx = GNContext(Grid(64, 4.0), REF_PARAMS, MultiplierSpec.regularized_for_depth(REF_PARAMS.delta),
                    dealias=dealias)
    assert ctx.params.inv_bond > 0.0
    y0 = np.stack((-np.exp(-4 * ctx.grid.x**2), np.zeros(ctx.grid.n)))
    runs = []
    for linear in (ctx.linear, _NpFftModeRotation(*ctx.linear.coef)):
        snaps = []
        result = integrate(guarded_rhs(ctx, GNWorkspace(), rel_tol=1e-10), (0.0, 0.5), y0, rel_tol=1e-9,
                           abs_tol=1e-11, snapshot_times=(0.1, 0.25, 0.4),
                           on_snapshot=lambda t, y: snaps.append((t, y.copy())), linear=linear)
        runs.append((result, snaps))
    (new, new_snaps), (old, old_snaps) = runs
    assert new.t == old.t == 0.5
    assert new.stats == old.stats and new.stats.accepted > 3
    assert np.array_equal(new.y, old.y)
    assert [t for t, _ in new_snaps] == [t for t, _ in old_snaps] == [0.1, 0.25, 0.4]
    for (_, y_new), (_, y_old) in zip(new_snaps, old_snaps):
        assert np.array_equal(y_new, y_old)


@pytest.mark.parametrize(
    "t_span", [(1.0, 0.0), (0.5, 0.5), (0.0, np.inf), (np.nan, 1.0)], ids=["reversed", "empty", "inf", "nan"]
)
def test_integrate_refuses_a_bad_time_span(t_span):
    with pytest.raises(ValidationError) as err:
        integrate(lambda t, y: y, t_span, np.array([1.0]))
    assert err.value.field == "t_span"
