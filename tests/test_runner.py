import hashlib
import os
import platform

import numpy as np
import pytest

import gnwaves
import gnwaves.runner as runner_mod
from gnwaves.cli import _load_config, build_parser, main
from gnwaves.errors import StepUnderflowError, ValidationError
from gnwaves.io_store import (
    read_diagnostics,
    read_manifest,
    read_snapshot,
    snapshot_name,
    write_manifest,
    write_text,
)
from gnwaves.multipliers import MultiplierSpec
from gnwaves.operators import GNContext, GNWorkspace, apply_mass_operator, rhs
from gnwaves.params import ExperimentConfig, parse_config, serialize_config, with_overrides
from gnwaves.runner import build_multiplier, guarded_rhs, initial_state, run_experiment
from gnwaves.spectral import Grid, mode_amplitudes

from conftest import start_with_flux


def fast_config(**overrides):
    base = with_overrides(
        ExperimentConfig(),
        grid_n=64,
        t_end=0.25,
        rel_tol=1e-8,
        abs_tol=1e-10,
        snapshot_times=(0.125, 0.25),
    )
    return with_overrides(base, **overrides)


class TestBuildMultiplier:
    def test_names(self):
        for name, kind in [("identity", "identity"), ("regularized", "regularized"), ("improved", "improved")]:
            spec = build_multiplier(with_overrides(ExperimentConfig(), multiplier=name))
            assert spec.kind == kind

    def test_regularized_theta_defaults_from_delta(self):
        spec = build_multiplier(ExperimentConfig())
        assert spec.theta == pytest.approx((1 / 15, 1 / (15 * 0.25)))

    def test_theta_overrides(self):
        config = with_overrides(ExperimentConfig(), theta1=0.3, theta2=0.4)
        assert build_multiplier(config).theta == (0.3, 0.4)

    def test_custom_path_relative_to_config_dir(self, tmp_path, monkeypatch):
        # the CLI makes a relative table path absolute against the config
        # file's directory when it reads the config, whatever the cwd
        (tmp_path / "a").mkdir()
        table = tmp_path / "a" / "sym.csv"
        table.write_text("0,1\n10,0.5\n")
        (tmp_path / "a" / "run.cfg").write_text("multiplier = custom:sym.csv\n")
        monkeypatch.chdir(tmp_path)
        config = _load_config(build_parser().parse_args(["admissibility", "--config", "a/run.cfg"]))
        assert config.multiplier == f"custom:{table}"
        spec = build_multiplier(config)
        assert spec.kind == "custom"
        assert spec.label == config.multiplier


class TestInitialState:
    def test_gaussian_default(self):
        grid = Grid(64, 4.0)
        zeta0 = initial_state(ExperimentConfig(), grid)
        assert np.allclose(zeta0, -np.exp(-4 * grid.x**2))

    def test_rest(self):
        # the +0.0 rest state, bit for bit
        grid = Grid(64, 4.0)
        zeta0 = initial_state(with_overrides(ExperimentConfig(), ic_amplitude=0.0), grid)
        assert zeta0.tobytes() == np.zeros(grid.n).tobytes()

    def test_run_starts_at_rest(self, tmp_path):
        out = str(tmp_path / "run")
        run_experiment(fast_config(), out)
        _, _, w0 = read_snapshot(os.path.join(out, snapshot_name(0.0)))
        assert np.array_equal(w0, np.zeros(64))


def no_tension_ctx(grid):
    params = with_overrides(ExperimentConfig(), inv_bond=0.0).params
    return GNContext(grid, params, MultiplierSpec.identity())


def stacked_state(ctx, w):
    """The (2, n) state (zeta, v) for the reference Gaussian interface
    carrying the flux w."""
    zeta = -np.exp(-4 * ctx.grid.x**2)
    return np.stack((zeta, apply_mass_operator(ctx, zeta, w)))


def smooth_flux(grid):
    return 0.3 * grid.x * np.exp(-grid.x**2)


def rough_flux(grid, amplitude):
    """The smooth flux plus one mode in the top third of the ladder."""
    m = 5 * grid.n // 12
    return smooth_flux(grid) + amplitude * np.cos(grid.k[m] * grid.x)


def flux_bands(w):
    """Largest |w_hat| over the top third and over the middle third."""
    n = w.size
    amp = np.abs(np.fft.rfft(w))
    return amp[n // 3 + 1 :].max(), amp[n // 6 + 1 : n // 3 + 1].max()


class TestGuardedRhs:
    def test_smooth_state_passes_rhs_through_bit_for_bit(self, grid):
        ctx = no_tension_ctx(grid)
        y = stacked_state(ctx, smooth_flux(grid))
        got = guarded_rhs(ctx, GNWorkspace())(0.0, y)
        expected = rhs(ctx, *y, workspace=GNWorkspace())
        assert np.array_equal(got, expected)

    def test_decaying_tail_above_level_does_not_trip(self, small_grid):
        # a narrow Gaussian flux on 64 points: its top-third tail is above
        # sqrt(rel_tol) * n * max|w|, but the spectrum still decays
        ctx = no_tension_ctx(small_grid)
        rel_tol = 1e-11
        workspace = GNWorkspace()
        y = stacked_state(ctx, 0.5 * np.exp(-8 * small_grid.x**2))
        out = guarded_rhs(ctx, workspace, rel_tol=rel_tol)(0.0, y)
        top, middle = flux_bands(workspace.w_prev)
        assert top > np.sqrt(rel_tol) * small_grid.n * np.abs(workspace.w_prev).max()
        assert top < middle
        assert np.all(np.isfinite(out))
        assert workspace.resolution_lost_at is None

    def test_rising_tail_trips_and_stays_tripped(self, grid):
        ctx = no_tension_ctx(grid)
        workspace = GNWorkspace()
        f = guarded_rhs(ctx, workspace)
        assert np.all(np.isnan(f(0.25, stacked_state(ctx, rough_flux(grid, 1e-3)))))
        assert workspace.resolution_lost_at == 0.25
        # sticky: a smooth state on the same wrapper is refused too
        smooth = stacked_state(ctx, smooth_flux(grid))
        assert np.all(np.isnan(f(0.3, smooth)))
        assert workspace.resolution_lost_at == 0.25
        # a wrapper with a fresh workspace starts clean
        fresh = GNWorkspace()
        assert np.all(np.isfinite(guarded_rhs(ctx, fresh)(0.3, smooth)))
        assert fresh.resolution_lost_at is None

    def test_non_finite_v_is_a_cg_breakdown(self, grid):
        ctx = no_tension_ctx(grid)
        for bad in (np.nan, np.inf):
            y = stacked_state(ctx, smooth_flux(grid))
            y[1, 5] = bad
            workspace = GNWorkspace()
            assert np.all(np.isnan(guarded_rhs(ctx, workspace)(0.0, y)))
            assert workspace.w_prev is None and workspace.resolution_lost_at is None

    def test_run_ended_by_the_guard_names_the_cause(self, tmp_path, monkeypatch):
        config = fast_config(snapshot_times=())
        start_with_flux(monkeypatch, config, lambda grid: rough_flux(grid, 0.1))
        out = str(tmp_path / "rough")
        result = run_experiment(config, out)
        assert result.status == "blowup"
        assert result.reason.startswith("spectral resolution lost at t=")
        metadata, _ = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["reason"] == result.reason

    def test_linear_run_from_kinked_data_completes(self, tmp_path):
        # at epsilon = 0 rhs forms no product, so nothing can alias: a
        # Gaussian that is kinked as a periodic field (exp(-4) at x = +-2)
        # must not read as lost resolution
        config = with_overrides(
            ExperimentConfig(), epsilon=0.0, domain_half_length=2.0, ic_width=1.0, t_end=0.5, grid_n=64
        )
        out = str(tmp_path / "linear")
        result = run_experiment(config, out)
        assert result.status == "completed" and result.t_final == 0.5
        h = read_diagnostics(os.path.join(out, "diag.csv"))["H"]
        assert np.max(np.abs(h - h[0])) <= 1e-12 * abs(h[0])


class TestRunExperiment:
    def test_record_layout_and_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        result = run_experiment(fast_config(), out)
        assert result.status == "completed"
        files = set(os.listdir(out))
        # a snapshot at t = 0 and at each snapshot time, and no spectra:
        # they are mode_amplitudes of a snapshot's zeta
        snaps = {"snap_t0.csv", "snap_t0.125.csv", "snap_t0.25.csv"}
        assert files == {"config.txt", "manifest.txt", "diag.csv"} | snaps
        metadata, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["status"] == "completed"
        assert int(metadata["accepted"]) > 0
        for name, digest in checksums.items():
            assert os.path.exists(os.path.join(out, name))
            assert len(digest) == 64

    def test_manifest_digests_are_the_files_on_disk(self, tmp_path, monkeypatch):
        # the digests come from the bytes as written, diag.csv's as it was
        # appended row by row; a run that blows up must hash the same way
        done = str(tmp_path / "done")
        assert run_experiment(fast_config(), done).status == "completed"

        config = fast_config(snapshot_times=())
        start_with_flux(monkeypatch, config, lambda grid: rough_flux(grid, 0.1))
        blown = str(tmp_path / "blown")
        assert run_experiment(config, blown).status == "blowup"
        for out in (done, blown):
            _, checksums = read_manifest(os.path.join(out, "manifest.txt"))
            assert set(checksums) == set(os.listdir(out)) - {"manifest.txt"}
            assert "diag.csv" in checksums
            for name, digest in checksums.items():
                with open(os.path.join(out, name), "rb") as fh:
                    assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    def test_config_copy_parses_back(self, tmp_path):
        out = str(tmp_path / "run")
        config = fast_config()
        run_experiment(config, out)
        with open(os.path.join(out, "config.txt"), encoding="utf-8") as fh:
            assert parse_config(fh.read()) == config

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = str(tmp_path / "run")
        run_experiment(fast_config(), out)
        with pytest.raises(ValidationError):
            run_experiment(fast_config(), out)
        run_experiment(fast_config(), out, force=True)  # force allows it

    def test_force_removes_the_old_record_first(self, tmp_path):
        # the replaced record's snapshots at other times must not outlive
        # it, and what is no part of a record stays
        out = str(tmp_path / "run")
        run_experiment(fast_config(snapshot_times=(0.1, 0.25)), out)
        assert {"snap_t0.1.csv", "snap_t0.25.csv"} <= set(os.listdir(out))
        notes = tmp_path / "run" / "notes.txt"
        notes.write_text("kept\n")
        run_experiment(fast_config(snapshot_times=()), out, force=True)
        _, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert set(os.listdir(out)) == set(checksums) | {"manifest.txt", "notes.txt"}
        assert notes.read_text() == "kept\n"

    def test_force_over_an_older_record_removes_its_spectra(self, tmp_path):
        # a record written while runs still wrote spec_t<t>.csv beside each
        # snapshot lists them in its manifest; --force removes them and the
        # new record lists none
        out = str(tmp_path / "run")
        run_experiment(fast_config(snapshot_times=()), out)
        manifest = os.path.join(out, "manifest.txt")
        metadata, checksums = read_manifest(manifest)
        checksums["spec_t0.csv"] = write_text(os.path.join(out, "spec_t0.csv"), "k,abs_zeta_hat\n0,0\n")
        write_manifest(out, metadata, checksums)
        run_experiment(fast_config(snapshot_times=()), out, force=True)
        _, checksums = read_manifest(manifest)
        assert not [name for name in os.listdir(out) if name.startswith("spec_t")]
        assert not [name for name in checksums if name.startswith("spec_t")]
        assert set(os.listdir(out)) == set(checksums) | {"manifest.txt"}

    @pytest.mark.parametrize("ending", ["completed", "blowup"])
    def test_stride_keeps_the_last_accepted_row(self, tmp_path, monkeypatch, ending):
        # diag-compare reads the last row as the final drift: diag.csv holds
        # the row at t = 0 and one per accepted step, the last one that of
        # the last accepted state, whether the run completes or blows up
        config = fast_config(t_end=0.5, snapshot_times=())
        if ending == "blowup":
            real_integrate = runner_mod.integrate

            def cut_short(rhs_fn, t_span, y0, **kw):
                result = real_integrate(rhs_fn, (t_span[0], 0.3), y0, **kw)
                raise StepUnderflowError(result.t, result.y, result.stats, 1e-15)

            monkeypatch.setattr(runner_mod, "integrate", cut_short)
        out = str(tmp_path / "run")
        result = run_experiment(config, out)
        assert result.status == ending
        diag = read_diagnostics(os.path.join(out, "diag.csv"))
        assert diag["t"].size == result.stats.accepted + 1
        assert diag["t"][0] == 0.0
        assert diag["t"][-1] == result.t_final
        assert np.all(np.diff(diag["t"]) > 0)
        # the last row describes the saved final state and its spectrum
        grid = Grid(config.grid_n, config.domain_half_length)
        _, zeta, _ = read_snapshot(os.path.join(out, snapshot_name(result.t_final)))
        assert diag["Z"][-1] == grid.dx * float(np.sum(zeta))
        k, amp = grid.k, mode_amplitudes(grid, zeta)
        assert diag["high_band"][-1] == amp[k >= 0.5 * k[-1]].max()

    def test_rest_dynamics_flat_diagnostics(self, tmp_path):
        out = str(tmp_path / "rest")
        result = run_experiment(fast_config(ic_amplitude=0.0, t_end=1.0, snapshot_times=()), out)
        assert result.status == "completed"
        diag = read_diagnostics(os.path.join(out, "diag.csv"))
        for name in ("Z", "V", "I", "H", "M"):
            assert np.max(np.abs(diag[name])) <= 1e-13

    def test_epsilon_zero_rest_dynamics(self, tmp_path):
        out = str(tmp_path / "eps0")
        result = run_experiment(fast_config(epsilon=0.0, ic_amplitude=0.0), out)
        assert result.status == "completed"

    def test_deterministic_data_files(self, tmp_path):
        # identical config -> byte-identical data (manifest differs by wall time)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(fast_config(), out1)
        run_experiment(fast_config(), out2)
        for name in ("diag.csv", "snap_t0.25.csv", "config.txt"):
            with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_manifest_names_the_environment_outside_the_checksums(self, tmp_path, monkeypatch):
        # the environment keys sit in the manifest only: another platform
        # string leaves every data file's sha256 line as it was
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(fast_config(), out1)
        here = platform.platform()
        monkeypatch.setattr(runner_mod.platform, "platform", lambda: "another-platform")
        run_experiment(fast_config(), out2)
        meta1, sums1 = read_manifest(os.path.join(out1, "manifest.txt"))
        meta2, sums2 = read_manifest(os.path.join(out2, "manifest.txt"))
        assert meta1["generator"] == "gnwaves simulate" and meta1["gnwaves"] == gnwaves.__version__
        assert meta1["python"] == platform.python_version()
        assert meta1["numpy"] == np.__version__
        assert meta1["platform"] == here
        assert meta2["platform"] == "another-platform"
        assert sums1 == sums2 and "manifest.txt" not in sums1

    def test_sv_model_runs(self, tmp_path):
        out = str(tmp_path / "sv")
        result = run_experiment(fast_config(mu=0.0), out)
        assert result.status == "completed"
        diag = read_diagnostics(os.path.join(out, "diag.csv"))
        # means conserved by exact-derivative structure
        assert abs(diag["Z"][-1] - diag["Z"][0]) <= 1e-10
        assert abs(diag["V"][-1] - diag["V"][0]) <= 1e-10

    def test_sv_equals_gn_at_mu_zero(self, tmp_path):
        # sv is the mu = 0 case of the one model path: `gnwaves sv` writes the
        # record of run_experiment at mu = 0 byte for byte, config.txt included
        config = fast_config(t_end=0.5, snapshot_times=(0.5,), rel_tol=1e-11, abs_tol=1e-13)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(serialize_config(config))
        out_sv, out_gn = str(tmp_path / "sv"), str(tmp_path / "gn")
        assert main(["sv", "--config", str(cfg), "--out", out_sv]) == 0
        assert run_experiment(with_overrides(config, mu=0.0), out_gn).status == "completed"
        _, sums_sv = read_manifest(os.path.join(out_sv, "manifest.txt"))
        _, sums_gn = read_manifest(os.path.join(out_gn, "manifest.txt"))
        assert sums_sv == sums_gn and "config.txt" in sums_sv
        for name in sums_sv:
            with open(os.path.join(out_sv, name), "rb") as f1, open(os.path.join(out_gn, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_sv_forces_and_records_mu_zero(self, tmp_path):
        # with the default mu = 0.1 the diagnostics must still measure the
        # hydrostatic system that is integrated, so H is conserved; the tight
        # tolerances keep the DP5 error (5e-10 at rel_tol = 1e-8) below the bound
        config = fast_config(rel_tol=1e-11, abs_tol=1e-13)
        assert config.params.mu > 0.0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(serialize_config(config))
        out = str(tmp_path / "sv")
        assert main(["sv", "--config", str(cfg), "--out", out]) == 0
        with open(os.path.join(out, "config.txt"), encoding="utf-8") as fh:
            recorded = parse_config(fh.read())
        assert recorded.params.mu == 0.0
        assert recorded == with_overrides(config, mu=0.0)
        diag = read_diagnostics(os.path.join(out, "diag.csv"))
        assert abs(diag["H"][-1] - diag["H"][0]) <= 1e-10

    def test_blowup_records_last_state(self, tmp_path, monkeypatch):
        # inject an underflow mid-run: the record must hold the last healthy
        # state with its flux, and the manifest must say so
        real_integrate = runner_mod.integrate
        captured = {}

        def sabotaged(rhs_fn, t_span, y0, **kw):
            result = real_integrate(rhs_fn, (t_span[0], 0.05), y0, **kw)
            captured["y"] = result.y
            rhs_fn(result.t, 1.01 * result.y)  # a stage of a rejected attempt
            raise StepUnderflowError(result.t, result.y, result.stats, 1e-15)

        monkeypatch.setattr(runner_mod, "integrate", sabotaged)
        out = str(tmp_path / "blow")
        config = fast_config(snapshot_times=())
        result = run_experiment(config, out)
        assert result.status == "blowup"
        assert result.t_final == pytest.approx(0.05)
        metadata, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["status"] == "blowup"
        snap = snapshot_name(result.t_final)
        assert snap.startswith("snap_t0.05")
        assert set(checksums) == {"config.txt", "diag.csv", "snap_t0.csv", snap}
        assert set(os.listdir(out)) == set(checksums) | {"manifest.txt"}
        # the recorded w is the flux of the captured state: A[eps*zeta] w = v
        grid = Grid(config.grid_n, config.domain_half_length)
        ctx = GNContext(grid, config.params, build_multiplier(config), cg_tol=config.cg_tol)
        _, zeta, w = read_snapshot(os.path.join(out, snap))
        y = captured["y"]
        assert np.array_equal(zeta, y[0])
        residual = apply_mass_operator(ctx, zeta, w) - y[1]
        assert np.linalg.norm(residual) <= config.cg_tol * np.linalg.norm(y[1])

    def test_dealias_config_runs(self, tmp_path):
        # with the 2/3 rule the integrated model leaves the top third of the
        # ladder alone, and so must the propagator of its linear part: the
        # run completes with those modes of zeta where they started
        config = fast_config(dealias=True)
        out = str(tmp_path / "dealias")
        result = run_experiment(config, out)
        assert result.status == "completed"
        ctx = GNContext(Grid(config.grid_n, config.domain_half_length), config.params,
                        build_multiplier(config), dealias=True)
        top = slice(config.grid_n // 3 + 1, None)
        assert np.all(ctx.linear.omega[top] == 0.0) and ctx.linear.omega[1 : top.start].min() > 0.0
        _, zeta0, _ = read_snapshot(os.path.join(out, "snap_t0.csv"))
        _, zeta, _ = read_snapshot(os.path.join(out, "snap_t0.25.csv"))
        assert np.max(np.abs(np.fft.rfft(zeta)[top] - np.fft.rfft(zeta0)[top])) <= 1e-13
