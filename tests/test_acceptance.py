"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute. Criteria 2 and 3a-3c read run records: the reference experiment as
``run_experiment`` writes it (Lawson stages, the flux of the last stage in
every diagnostics row), shared by one module-scoped fixture.

Criterion 3 note: without surface tension the classical (identity) model
is unstable at every high frequency. On 512 points, under the default 2/3
rule, the resolution guard (``runner._resolution_lost``, which judges each
accepted state) sees the flux spectrum of the modes the run evolves stop
decaying toward the cut n/3, and ends the run at that state with the reason
``spectral resolution lost at t=<t_final>`` (t = 1.782; t = 1.497 with
``dealias = false``, where the spectrum rises toward Nyquist), before the
flow is spectrally destroyed at t = 2. The high band has grown by more than
four orders by then (3b: 8.5); the regularized run stays smooth and
completes (3c).
"""

import os
import time

import numpy as np
import pytest

from gnwaves.io_store import read_diagnostics, read_snapshot, snapshot_name
from gnwaves.multipliers import MultiplierSpec, check_admissibility
from gnwaves.operators import (
    GNContext,
    GNWorkspace,
    apply_mass_operator,
    interface_gradient,
    invert_mass_operator,
    rhs,
)
from gnwaves.params import ExperimentConfig, PhysParams, with_overrides
from gnwaves.runner import build_multiplier, guarded_rhs, prepare, run_experiment
from gnwaves.spectral import Grid, irfft
from gnwaves.stability import growth_rates, model_coeffs, threshold_curve
from gnwaves.timestepper import ModeRotation, integrate

from conftest import REF_PARAMS, random_smooth_field
from oracles import TIGHT_CG, euler_coeffs, hamiltonian, inner, serre_solitary_wave, sv_rhs, travelling_wave


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}  {label}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _pack(zeta, v):
    return np.stack((zeta, v))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The reference experiment to t = 2 as ``run_experiment`` records it:
    regularized and improved with surface tension (the fig2 runs), identity
    and regularized without (fig4). Each entry holds the RunResult, the
    record's diag.csv columns and the run's wall time."""
    base = ExperimentConfig()
    configs = {
        "regularized": with_overrides(base, multiplier="regularized"),
        "improved": with_overrides(base, multiplier="improved"),
        "identity/no_tension": with_overrides(base, multiplier="identity", inv_bond=0.0),
        "regularized/no_tension": with_overrides(base, multiplier="regularized", inv_bond=0.0),
    }
    out = tmp_path_factory.mktemp("records")
    runs = {}
    for name, config in configs.items():
        start = time.monotonic()
        result = run_experiment(config, str(out / name.replace("/", "_")))
        runs[name] = {
            "result": result,
            "diag": read_diagnostics(os.path.join(result.out_dir, "diag.csv")),
            "elapsed": time.monotonic() - start,
        }
    return runs


def test_criterion_01_rest_state_fixed_point():
    # unmasked and under the 2/3 rule that run records use
    start = time.monotonic()
    worst, reached = 0.0, True
    for epsilon, dealias in ((0.5, False), (1.7, False), (0.5, True), (1.7, True)):
        params = PhysParams(gamma=0.95, epsilon=epsilon, mu=0.1, delta=0.5, inv_bond=5e-4)
        grid = Grid(512, 4.0)
        ctx = GNContext(grid, params, MultiplierSpec.regularized(params.delta), dealias=dealias)
        peaks = []

        def watch(t, y, stats):
            peaks.append(np.max(np.abs(y)))

        result = integrate(
            guarded_rhs(ctx, GNWorkspace()), (0.0, 1.0), np.zeros((2, grid.n)),
            rel_tol=1e-10, abs_tol=1e-12, on_step=watch, linear=ModeRotation(0 * ctx.ik, 0 * ctx.ik),
        )
        worst = max(worst, max(peaks), float(np.max(np.abs(result.y))))
        reached = reached and result.t == 1.0
    elapsed = time.monotonic() - start
    _report(1, "rest state is a fixed point", reached and worst <= 1e-13 and elapsed < 1.0,
            f"max|state| = {worst:.2e}, reached t=1: {reached}, {elapsed:.2f} s")


def test_criterion_02_conserved_quantity_drift(records):
    lines = []
    ok = True
    elapsed = 0.0
    for name in ("regularized", "improved"):
        run = records[name]
        elapsed += run["elapsed"]
        assert run["result"].status == "completed"
        diag = run["diag"]
        dz, dv, di, dh = (abs(diag[q][-1] - diag[q][0]) for q in ("Z", "V", "I", "H"))
        dh /= max(abs(diag["H"][0]), 1.0)
        ok = ok and dz <= 1e-10 and dv <= 1e-10 and di <= 1e-8 and dh <= 1e-8
        lines.append(f"{name}: dZ={dz:.1e} dV={dv:.1e} dI={di:.1e} dH/H={dh:.4e}")
    ok = ok and elapsed < 120.0
    _report(2, "conserved-quantity drift to t=2", ok, "; ".join(lines) + f"; {elapsed:.1f} s")


def test_criterion_03a_identity_no_tension_blowup_exit(records):
    result = records["identity/no_tension"]["result"]
    detail = f"status={result.status} at t={result.t_final:.3f} ({result.reason})"
    ok = (result.status == "blowup" and result.t_final < 2.0
          and result.reason == f"spectral resolution lost at t={result.t_final:.6f}")
    _report("3a", "identity without tension aborts before t=2", ok, detail)


def test_criterion_03b_identity_no_tension_band_growth(records):
    band = records["identity/no_tension"]["diag"]["high_band"]
    floor = max(band[0], 1e-300)
    growth = band[-1] / floor
    _report("3b", "identity high band grows >= 4 orders", growth >= 1e4,
            f"band {floor:.1e} -> {band[-1]:.1e} ({np.log10(max(growth, 1e-300)):.1f} orders)")


def test_criterion_03c_regularized_no_tension_smooth(records):
    run = records["regularized/no_tension"]
    result, band_end = run["result"], run["diag"]["high_band"][-1]
    ok = result.status == "completed" and result.t_final >= 2.0 and band_end <= 1e-6
    _report("3c", "regularized without tension stays smooth to t=2", ok,
            f"status={result.status}, band={band_end:.1e}")


def test_criterion_04_improved_dispersion_exactness():
    start = time.monotonic()
    p = REF_PARAMS
    vbar = 0.4
    wbar = vbar / (p.gamma + p.delta)
    spec = MultiplierSpec.improved(p.delta)
    k = np.linspace(0.1, 100.0, 1000)
    am, bm, cm = model_coeffs(k, p, spec, wbar)
    ae, be, ce = euler_coeffs(k, p, vbar)
    worst = max(
        float(np.max(np.abs(am - ae) / np.abs(ae))),
        float(np.max(np.abs(bm - be) / np.abs(be))),
        float(np.max(np.abs(cm - ce) / np.abs(ce))),
    )
    elapsed = time.monotonic() - start
    _report(4, "improved-model dispersion exactness", worst <= 1e-12 and elapsed < 1.0,
            f"worst relative difference {worst:.2e}, {elapsed:.2f} s")


def test_criterion_05_admissibility_suite():
    start = time.monotonic()
    specs = {
        "identity": (MultiplierSpec.identity(), 0.0),
        "regularized": (MultiplierSpec.regularized(0.5), 1.0),
        "improved": (MultiplierSpec.improved(0.5), 0.5),
    }
    ok = True
    details = []
    for name, (spec, sigma_expected) in specs.items():
        report = check_admissibility(spec, layer=1)
        ok = ok and report.subadditive_ok and report.worst_violation >= -1e-12
        ok = ok and report.sigma == sigma_expected
        details.append(f"{name}: worst={report.worst_violation:+.1e} sigma={report.sigma:g}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(5, "admissibility suite (10^4 pairs/family)", ok, "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_06_operator_algebra():
    grid = Grid(512, 4.0)
    spec = MultiplierSpec.regularized(REF_PARAMS.delta)
    # loose: the same operator, solved to the relative residual the check reads
    ctx, loose = GNContext(grid, REF_PARAMS, spec), GNContext(grid, REF_PARAMS, spec, cg_tol=1e-12)
    rng = np.random.default_rng(2024)
    worst_sym, worst_res, worst_flat = 0.0, 0.0, 0.0
    coercive = True
    for _ in range(100):
        zeta = random_smooth_field(grid, rng, max_abs=0.5 / REF_PARAMS.epsilon)
        w = random_smooth_field(grid, rng)
        g = random_smooth_field(grid, rng)
        stage = GNWorkspace().load(ctx, zeta)
        aw = apply_mass_operator(ctx, stage, w)
        ag = apply_mass_operator(ctx, stage, g)
        lhs, rhs_val = inner(grid, aw, g), inner(grid, w, ag)
        worst_sym = max(worst_sym, abs(lhs - rhs_val) / max(abs(lhs), 1e-30))
        coercive = coercive and inner(grid, aw, w) > 0
        v = random_smooth_field(grid, rng)
        w_solved = invert_mass_operator(loose, stage, v)
        res = np.linalg.norm(apply_mass_operator(ctx, stage, w_solved) - v) / np.linalg.norm(v)
        worst_res = max(worst_res, res)
        flat = invert_mass_operator(ctx, GNWorkspace().load(ctx, np.zeros(grid.n)), v)
        oracle = np.fft.irfft(np.fft.rfft(v) / ctx.flat_symbol, grid.n)
        worst_flat = max(worst_flat, float(np.max(np.abs(flat - oracle))))
    ok = worst_sym <= 1e-12 and coercive and worst_res <= 1e-12 and worst_flat <= 1e-13
    _report(6, "mass-operator algebra (100 random triples)", ok,
            f"sym={worst_sym:.1e} residual={worst_res:.1e} flat={worst_flat:.1e}")


def test_criterion_07_hamiltonian_gradient_orders():
    grid = Grid(512, 4.0)
    ctx = GNContext(grid, REF_PARAMS, MultiplierSpec.regularized(REF_PARAMS.delta), **TIGHT_CG)
    rng = np.random.default_rng(7)
    hs = (1e-2, 1e-3, 1e-4)
    slopes = []
    worst_v = 0.0
    for _ in range(10):
        # amplitudes chosen so the cubic part of H along phi keeps the h^2
        # error term far above the ~1e-12 evaluation-noise floor at h = 1e-4
        zeta = random_smooth_field(grid, rng, max_abs=0.5 / REF_PARAMS.epsilon)
        w0 = random_smooth_field(grid, rng, max_abs=2.0)
        stage = GNWorkspace().load(ctx, zeta)
        v = apply_mass_operator(ctx, stage, w0)
        phi = random_smooth_field(grid, rng, max_abs=1.0)
        w = invert_mass_operator(ctx, stage, v)
        exact_zeta = inner(grid, interface_gradient(ctx, stage, w), phi)
        errs = []
        for h in hs:
            fd = (hamiltonian(ctx, zeta + h * phi, v) - hamiltonian(ctx, zeta - h * phi, v)) / (2 * h)
            errs.append(abs(fd - exact_zeta))
        # least-squares slope of log err vs log h
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        slopes.append(slope)
        # dH/dv = w: H is quadratic in v, central differences are exact
        exact_v = inner(grid, w, phi)
        for h in hs:
            fd = (hamiltonian(ctx, zeta, v + h * phi) - hamiltonian(ctx, zeta, v - h * phi)) / (2 * h)
            worst_v = max(worst_v, abs(fd - exact_v) / max(abs(exact_v), 1e-30))
    slopes = np.array(slopes)
    ok = np.all(np.abs(slopes - 2.0) <= 0.3) and worst_v <= 1e-7
    _report(7, "energy-gradient finite differences at order 2", ok,
            f"zeta-slopes in [{slopes.min():.2f}, {slopes.max():.2f}], v-agreement {worst_v:.1e}")


def test_criterion_08_linear_growth_rate_in_nonlinear_code():
    p = REF_PARAMS
    grid = Grid(512, 4.0)
    spec = MultiplierSpec.identity()
    ctx = GNContext(grid, p, spec)
    k0 = 16 * 2 * np.pi / grid.length  # mode 16 on the ladder
    thr = threshold_curve(np.array([k0]), p, spec)[0]
    wbar = float(np.sqrt(2.0 * thr) / p.epsilon)
    a, b, _ = model_coeffs(k0, p, spec, wbar)  # a and b seed the growing eigenvector
    assert a < 0
    sigma = float(growth_rates(np.array([k0]), p, spec, wbar)[0])

    amp = 1e-8
    zeta0 = amp * np.cos(k0 * grid.x)
    v_bg = apply_mass_operator(ctx, GNWorkspace().load(ctx, np.zeros(grid.n)), np.full(grid.n, wbar))
    v0 = v_bg - amp * np.sqrt(-a / b) * np.sin(k0 * grid.x)
    idx = int(np.argmin(np.abs(grid.k - k0)))
    trace = []  # integrate reports t = 0 first

    def watch(t, y, stats):
        trace.append((t, np.abs(np.fft.rfft(y[0])[idx]) / grid.n))

    t_end = 1.0 / sigma  # one e-folding
    result = integrate(
        guarded_rhs(ctx, GNWorkspace()), (0.0, t_end), _pack(zeta0, v0),
        rel_tol=1e-10, abs_tol=1e-13, on_step=watch, linear=ctx.linear,
    )
    ts = np.array([t for t, _ in trace])
    amps = np.array([a_ for _, a_ in trace])
    rate = np.polyfit(ts, np.log(amps), 1)[0]
    rel_err = abs(rate - sigma) / sigma
    # a run that stopped early measures no e-folding
    _report(8, "KH growth rate in the nonlinear code", result.t == t_end and rel_err <= 0.05,
            f"predicted {sigma:.4f}, measured {rate:.4f} ({100 * rel_err:.2f}%); {result.reason or 'reached t_end'}")


def test_criterion_09_saint_venant_checks():
    # phase speed
    grid = Grid(128, 4.0)
    p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.0, delta=0.5, inv_bond=5e-4)
    k0 = 6 * np.pi / grid.length
    h0 = 1.0 / (p.gamma + p.delta)
    c_expected = np.sqrt((p.gamma + p.delta) * h0 * (1.0 + p.inv_bond * k0**2))
    amp = 1e-8
    zeta0 = amp * np.cos(k0 * grid.x)
    vbar0 = (c_expected / h0) * amp * np.cos(k0 * grid.x)
    idx = int(np.argmin(np.abs(grid.k - k0)))
    phases = []  # integrate reports t = 0 first

    def on_step(t, y, stats):
        phases.append((t, np.angle(np.fft.rfft(y[0])[idx])))

    def f(t, y, u):
        return np.stack(sv_rhs(grid, p, *y))

    # abs_tol far below the 1e-8 amplitude keeps the control truly relative
    result = integrate(f, (0.0, 1.0), _pack(zeta0, vbar0), rel_tol=1e-11, abs_tol=1e-19, on_step=on_step)
    ts = np.array([t for t, _ in phases])
    unwrapped = np.unwrap(np.array([ph for _, ph in phases]))
    c_measured = -np.polyfit(ts, unwrapped, 1)[0] / k0
    speed_err = abs(c_measured - c_expected) / c_expected

    # mu = 0 equivalence of the two right-hand sides
    grid2 = Grid(512, 4.0)
    rng = np.random.default_rng(99)
    zeta = random_smooth_field(grid2, rng, max_abs=0.8)
    vbar = random_smooth_field(grid2, rng)
    dz_sv, dv_sv = sv_rhs(grid2, p, zeta, vbar)
    ctx = GNContext(grid2, p, MultiplierSpec.improved(p.delta))
    dz_gn, dv_gn = irfft(rhs(ctx, GNWorkspace(), zeta, vbar), grid2.n)
    equiv = max(float(np.max(np.abs(dz_gn - dz_sv))), float(np.max(np.abs(dv_gn - dv_sv))))

    ok = result.t == 1.0 and speed_err <= 1e-6 and equiv <= 1e-13
    _report(9, "hydrostatic limit: phase speed + mu=0 equivalence", ok,
            f"speed err {speed_err:.1e} to t={result.t:.4f}, rhs mismatch {equiv:.1e}")


def test_criterion_10_integrator_oracles():
    result = integrate(lambda t, y, u: y, (0.0, 1.0), np.array([1.0]))
    exp_err = abs(result.y[0] - np.e)

    errors = []
    rel, abs_ = 1e-4, 1e-6
    for _ in range(8):
        r = integrate(lambda t, y, u: y, (0.0, 1.0), np.array([1.0]), rel_tol=rel, abs_tol=abs_)
        errors.append(abs(r.y[0] - np.e))
        rel *= 0.5
        abs_ *= 0.5
    monotone = all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errors, errors[1:]))
    ok = exp_err <= 1e-8 and monotone
    _report(10, "integrator oracles (exp growth, tolerance halving)", ok,
            f"|y(1)-e| = {exp_err:.1e}, monotone over {len(errors)} halvings: {monotone}")


def test_criterion_10b_integrator_order_on_the_gn_system():
    # the reference experiment on 64 points to t = 2 (abs_tol = rel_tol/100)
    # against a Lawson run at 1e-13/1e-15, for the Lawson stages and for
    # plain ones (a zero ModeRotation). Measured: per decade of rel_tol the
    # error of zeta falls 14.0x and 8.0x (Lawson), 9.9x and 9.9x (plain), as
    # tolerance proportionality has it (10x), and the accepted steps grow
    # 1.525-1.568x, near the 10^(1/5) = 1.585 of an error estimate of
    # order 4 (10^(1/4) = 1.78 for one of order 3)
    start = time.monotonic()
    _, ctx, zeta0 = prepare(with_overrides(ExperimentConfig(), grid_n=64))
    y0 = _pack(zeta0, np.zeros_like(zeta0))

    def run(rel_tol, linear):
        return integrate(guarded_rhs(ctx, GNWorkspace()), (0.0, 2.0), y0,
                         rel_tol=rel_tol, abs_tol=rel_tol / 100, linear=linear)

    ref = run(1e-13, ctx.linear)
    ok, lines = ref.t == 2.0, []
    for name, linear in (("lawson", ctx.linear), ("plain", ModeRotation(0 * ctx.ik, 0 * ctx.ik))):
        results = [run(rel_tol, linear) for rel_tol in (1e-8, 1e-9, 1e-10)]
        errors = [float(np.max(np.abs(r.y[0] - ref.y[0]))) for r in results]
        error_ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
        step_ratios = [r2.stats.accepted / r1.stats.accepted for r1, r2 in zip(results, results[1:])]
        ok = (ok and all(r.t == 2.0 for r in results)
              and all(5.0 <= q <= 20.0 for q in error_ratios)
              and all(1.45 <= q <= 1.70 for q in step_ratios))
        lines.append(f"{name}: errors {', '.join(f'{e:.2e}' for e in errors)}, per decade "
                     f"{', '.join(f'{q:.1f}x' for q in error_ratios)} error and "
                     f"{', '.join(f'{q:.3f}x' for q in step_ratios)} steps")
    _report("10b", "integrator order on the GN system", ok,
            "; ".join(lines) + f"; {time.monotonic() - start:.2f} s")


@pytest.mark.parametrize("inv_bond", [5e-4, 0.0], ids=["tension", "no_tension"])
@pytest.mark.parametrize("family", ["identity", "regularized", "improved"])
def test_criterion_11_rest_start_run_keeps_parity(tmp_path, family, inv_bond):
    # the symmetry part of criterion 11: the reflection x -> -x maps node j
    # to (-j) mod n, and a rest-start Gaussian stays in the class the
    # models preserve, zeta even and v (so w = A^{-1} v) odd, to rounding
    config = with_overrides(ExperimentConfig(), grid_n=64, t_end=0.25, multiplier=family, inv_bond=inv_bond)
    result = run_experiment(config, str(tmp_path / "run"))
    grid = Grid(config.grid_n, config.domain_half_length)
    _, zeta, w = read_snapshot(os.path.join(result.out_dir, snapshot_name(result.t_final)))
    ctx = GNContext(grid, config.params, build_multiplier(config))
    v = apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta), w)
    flip = (-np.arange(grid.n)) % grid.n
    odd = np.max(np.abs(zeta - zeta[flip])) / np.max(np.abs(zeta))
    even = max(np.max(np.abs(f + f[flip])) / np.max(np.abs(f)) for f in (w, v))
    ok = result.status == "completed" and result.t_final == config.t_end and odd <= 1e-13 and even <= 1e-13
    _report(11, f"rest-start parity ({family}, inv_bond={inv_bond:g})", ok,
            f"odd part of zeta {odd:.1e}, even part of w and v {even:.1e} (relative)")


def test_criterion_12_serre_solitary_wave():
    # identity family at gamma = 0 without tension: the one-layer Serre
    # system, whose solitary wave is known in closed form (tests/oracles.py),
    # unmasked and under the 2/3 rule that run records use
    start = time.monotonic()
    p = PhysParams(gamma=0.0, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=0.0)
    grid = Grid(512, 32.0)
    amplitude = 0.5
    zeta0, w0, c = serre_solitary_wave(p, amplitude, grid.x)
    t_end = 2.0
    zeta_exact, _, _ = serre_solitary_wave(p, amplitude, grid.x, t_end)
    peak = amplitude / p.epsilon
    ok, details = True, []
    for dealias in (False, True):
        ctx = GNContext(grid, p, MultiplierSpec.identity(), dealias=dealias)
        stage = GNWorkspace().load(ctx, zeta0)
        v0 = apply_mass_operator(ctx, stage, w0)
        residual = float(np.max(np.abs(c * v0 - interface_gradient(ctx, stage, w0))))
        ok = ok and residual <= 1e-13
        details.append(f"{'2/3 rule' if dealias else 'unmasked'}: travelling-wave residual {residual:.1e}")
        for rel_tol in (1e-8, 1e-10):
            result = integrate(
                guarded_rhs(ctx, GNWorkspace()), (0.0, t_end), _pack(zeta0, v0),
                rel_tol=rel_tol, abs_tol=rel_tol / 100, linear=ctx.linear,
            )
            err = float(np.max(np.abs(result.y[0] - zeta_exact))) / peak
            ok = ok and result.t == t_end and err <= rel_tol
            s = result.stats
            details.append(f"rel_tol {rel_tol:g}: error {err:.1e} ({s.accepted}/{s.rejected}/{s.rhs_evals} steps)")
    elapsed = time.monotonic() - start
    _report(12, "Serre solitary wave: residual and error at t=2", ok, "; ".join(details) + f"; {elapsed:.2f} s")


@pytest.mark.parametrize("inv_bond", [5e-4, 0.0], ids=["tension", "no_tension"])
@pytest.mark.parametrize("family", ["identity", "regularized", "improved"])
def test_criterion_13_travelling_wave(family, inv_bond):
    # Newton's periodic wave of the oracle zeta-gradient (tests/oracles.py):
    # the package's equations must hold at it, and a run must carry it
    # along unchanged, unmasked and under the 2/3 rule that run records
    # use; at rel_tol 1e-10 the error is 2.7e-12 to 3.1e-12 of the peak
    # over the twelve cases, so 0.05 * rel_tol bounds it
    start = time.monotonic()
    config = with_overrides(ExperimentConfig(), multiplier=family, inv_bond=inv_bond)
    grid = Grid(64, 4.0)
    t_end, rel_tol = 2.0, 1e-10
    ok, details = True, []
    for dealias in (False, True):
        ctx = GNContext(grid, config.params, build_multiplier(config), dealias=dealias)
        profile, c, newton_residual = travelling_wave(ctx, 0.2)
        zeta0 = profile(0.0)
        stage = GNWorkspace().load(ctx, zeta0)
        v0 = apply_mass_operator(ctx, stage, c * zeta0)
        r = c * v0 - interface_gradient(ctx, stage, c * zeta0)
        residual = float(np.max(np.abs(r - np.mean(r))))  # up to the integration constant
        result = integrate(
            guarded_rhs(ctx, GNWorkspace()), (0.0, t_end), _pack(zeta0, v0),
            rel_tol=rel_tol, abs_tol=rel_tol / 100, linear=ctx.linear,
        )
        err = float(np.max(np.abs(result.y[0] - profile(t_end)))) / float(np.max(np.abs(zeta0)))
        ok = ok and newton_residual <= 1e-14 and residual <= 1e-13 and result.t == t_end and err <= 0.05 * rel_tol
        s = result.stats
        details.append(f"{'2/3 rule' if dealias else 'unmasked'}: c = {c:.6f}, Newton residual {newton_residual:.1e}, "
                       f"package residual {residual:.1e}, error at t=2 {err:.1e} "
                       f"({s.accepted}/{s.rejected}/{s.rhs_evals} steps)")
    _report(13, f"travelling wave ({family}, inv_bond={inv_bond:g})", ok,
            "; ".join(details) + f"; {time.monotonic() - start:.2f} s")
