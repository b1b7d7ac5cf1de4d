import hashlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import gnwaves
import gnwaves.operators as operators_mod
import gnwaves.runner as runner_mod
from gnwaves.cli import _load_config, build_parser, main
from gnwaves.errors import CavitationError, ConvergenceError, StageRejected, StepUnderflowError, ValidationError
from gnwaves.io_store import (
    read_diagnostics,
    read_manifest,
    read_snapshot,
    read_snapshots,
    snapshot_name,
    write_manifest,
    write_snapshot,
    write_text,
)
from gnwaves.multipliers import MultiplierSpec, eval_multiplier
from gnwaves.operators import GNContext, GNWorkspace, apply_mass_operator, rhs
from gnwaves.params import ExperimentConfig, parse_config, serialize_config, with_overrides
from gnwaves.runner import build_multiplier, guarded_rhs, initial_state, run_experiment
from gnwaves.spectral import Grid, mode_amplitudes, rfft

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
        for name in ("identity", "regularized", "improved"):
            spec = build_multiplier(with_overrides(ExperimentConfig(), multiplier=name))
            assert spec.label == name

    def test_regularized_theta_defaults_from_delta(self):
        # F_i(1) = 1/sqrt(1 + theta_i) with theta_i = 1/(15 delta_i^2), delta = 0.5
        spec = build_multiplier(ExperimentConfig())
        for layer, theta in ((1, 1 / 15), (2, 1 / (15 * 0.25))):
            assert eval_multiplier(spec, layer, 1.0, 1.0) == pytest.approx(1 / np.sqrt(1 + theta), rel=1e-15)

    def test_theta_overrides(self):
        spec = build_multiplier(with_overrides(ExperimentConfig(), theta1=0.3, theta2=0.4))
        for layer, theta in ((1, 0.3), (2, 0.4)):
            assert eval_multiplier(spec, layer, 1.0, 1.0) == pytest.approx(1 / np.sqrt(1 + theta), rel=1e-15)

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
        assert spec.label == config.multiplier
        assert eval_multiplier(spec, 2, 5.0, 1.0) == 0.75


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
        t, _, w = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert t[0] == 0.0 and np.array_equal(w[0], np.zeros(64))


def no_tension_ctx(grid):
    params = with_overrides(ExperimentConfig(), inv_bond=0.0).params
    return GNContext(grid, params, MultiplierSpec.identity())


def stacked_state(ctx, w):
    """The (2, n) state (zeta, v) for the reference Gaussian interface
    carrying the flux w."""
    zeta = -np.exp(-4 * ctx.grid.x**2)
    return np.stack((zeta, apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta), w)))


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


def stage(f, t, y):
    """The stage function f at the state y, with y's spectrum as its frame
    (a non-finite y has a non-finite spectrum, without a warning)."""
    with np.errstate(invalid="ignore"):
        u = rfft(y)
    return f(t, y, u)


class TestGuardedRhs:
    def test_smooth_state_passes_rhs_through_bit_for_bit(self, grid):
        ctx = no_tension_ctx(grid)
        y = stacked_state(ctx, smooth_flux(grid))
        got = stage(guarded_rhs(ctx, GNWorkspace()), 0.0, y)
        expected = rhs(ctx, GNWorkspace(), *y)
        assert np.array_equal(got, expected)

    def test_decaying_tail_above_level_does_not_trip(self, small_grid):
        # a narrow Gaussian flux on 64 points: its top-third tail is above
        # sqrt(rel_tol) * n * max|w|, but the spectrum still decays
        ctx = no_tension_ctx(small_grid)
        rel_tol = 1e-11
        workspace = GNWorkspace()
        y = stacked_state(ctx, 0.5 * np.exp(-8 * small_grid.x**2))
        f = guarded_rhs(ctx, workspace, rel_tol=rel_tol)
        out = stage(f, 0.0, y)
        top, middle = flux_bands(workspace.w)
        assert top > np.sqrt(rel_tol) * small_grid.n * np.abs(workspace.w).max()
        assert top < middle
        assert np.all(np.isfinite(out))
        # the wrapper has not tripped: a further smooth stage passes
        assert np.all(np.isfinite(stage(f, 0.1, stacked_state(ctx, smooth_flux(small_grid)))))

    def test_rising_tail_trips_and_stays_tripped(self, grid):
        ctx = no_tension_ctx(grid)
        workspace = GNWorkspace()
        f = guarded_rhs(ctx, workspace)
        message = "^spectral resolution lost at t=0.250000$"
        with pytest.raises(StageRejected, match=message):
            stage(f, 0.25, stacked_state(ctx, rough_flux(grid, 1e-3)))
        # sticky: a smooth state on the same wrapper is refused too, with
        # the time of the trip and without a solve
        smooth = stacked_state(ctx, smooth_flux(grid))
        solved = workspace.w
        with pytest.raises(StageRejected, match=message):
            stage(f, 0.3, smooth)
        assert workspace.w is solved
        # a fresh wrapper starts clean, on the same workspace too
        for fresh in (GNWorkspace(), workspace):
            assert np.all(np.isfinite(stage(guarded_rhs(ctx, fresh), 0.3, smooth)))

    def test_non_finite_v_is_a_cg_breakdown(self, grid):
        ctx = no_tension_ctx(grid)
        for bad in (np.nan, np.inf):
            y = stacked_state(ctx, smooth_flux(grid))
            y[1, 5] = bad
            workspace = GNWorkspace()
            f = guarded_rhs(ctx, workspace)
            with pytest.raises(ConvergenceError, match="is not finite"):
                stage(f, 0.0, y)
            assert workspace.w is None
            # a breakdown does not trip the resolution guard
            assert np.all(np.isfinite(stage(f, 0.1, stacked_state(ctx, smooth_flux(grid)))))

    def test_failed_stages_leave_the_basis(self, grid):
        # cavitation, a CG breakdown and a tripped resolution guard each
        # raise their StageRejected, and none adds its stage to the
        # predictor's basis
        ctx = no_tension_ctx(grid)
        workspace = GNWorkspace()
        f = guarded_rhs(ctx, workspace)
        for t, w in ((0.0, smooth_flux(grid)), (0.1, smooth_flux(grid) ** 2)):
            y = stacked_state(ctx, w)
            assert np.all(np.isfinite(stage(f, t, y)))
        assert (workspace.rows, workspace.solves) == (2, 2)
        kept = workspace.basis[:2].copy(), workspace.images[:2].copy(), workspace.recent[:2].copy()
        cavitating = y.copy()
        cavitating[0, 0] = 1.0 / ctx.params.epsilon
        broken = y.copy()
        broken[1, 5] = np.nan
        rough = stacked_state(ctx, rough_flux(grid, 1e-3))
        for t, bad, refusal in ((0.2, cavitating, CavitationError), (0.2, broken, ConvergenceError),
                                (0.25, rough, StageRejected)):
            with pytest.raises(refusal):
                stage(f, t, bad)
            assert (workspace.rows, workspace.solves) == (2, 2)
            now = workspace.basis[:2], workspace.images[:2], workspace.recent[:2]
            assert all(np.array_equal(a, b) for a, b in zip(now, kept))
        with pytest.raises(StageRejected, match="lost at t=0.250000"):
            stage(f, 0.3, y)

    def test_run_ended_by_the_guard_names_the_cause(self, tmp_path, monkeypatch):
        config = fast_config(snapshot_times=())
        start_with_flux(monkeypatch, config, lambda grid: rough_flux(grid, 0.1))
        out = str(tmp_path / "rough")
        result = run_experiment(config, out)
        assert result.status == "blowup"
        assert result.reason.startswith("spectral resolution lost at t=")
        metadata, _ = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["reason"] == result.reason

    @pytest.mark.parametrize(
        "config, flux, cause, steps",
        [
            pytest.param(with_overrides(ExperimentConfig(), grid_n=64, cg_tol=1e-300, t_end=0.01), None,
                         "mass-operator CG breakdown: r.z = 0; step size underflow", (10, 27, 136),
                         id="cg_breakdown"),
            pytest.param(with_overrides(ExperimentConfig(), grid_n=64, cg_max_iter=1, t_end=0.05), None,
                         "mass-operator CG did not reach tol=1e-13 in 1 iterations", (0, 17, 19),
                         id="cg_iteration_cap"),
            # the upper layer starts 1.5e-6 deep at x = 0, where the flux converges
            pytest.param(fast_config(ic_amplitude=1.999997, t_end=0.01, snapshot_times=()),
                         lambda grid: -grid.x * np.exp(-grid.x**2), "layer depth reached", None, id="cavitation"),
        ],
    )
    def test_run_ended_by_a_refused_stage_names_the_cause(self, tmp_path, monkeypatch, capsys,
                                                          config, flux, cause, steps):
        # every refusal that ends a run in underflow is named first in the
        # manifest's reason and in the printed blow-up line (lost
        # resolution: test_run_ended_by_the_guard_names_the_cause)
        if flux is not None:
            start_with_flux(monkeypatch, config, flux)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(serialize_config(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        metadata, _ = read_manifest(out / "manifest.txt")
        assert metadata["status"] == "blowup"
        assert metadata["reason"].startswith(cause) and "; step size underflow (dt=" in metadata["reason"]
        assert f"  ({metadata['reason']})" in capsys.readouterr().out.splitlines()
        if steps is not None:
            assert tuple(int(metadata[key]) for key in ("accepted", "rejected", "rhs_evals")) == steps

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


def unmasked_rule(w, rel_tol):
    """The full-ladder test as it stood before the masked band was watched,
    written out: top third of the ladder against its middle third."""
    top, middle = flux_bands(w)
    return bool(top > middle and top > np.sqrt(rel_tol) * w.size * np.max(np.abs(w)))


def synthetic_flux(n, modes, amplitudes, decay=0.3):
    """A flux whose spectrum decays as exp(-decay m), plus the given single
    modes; returns (w, rfft(w))."""
    m = np.arange(n // 2 + 1)
    w_hat = n * np.exp(-decay * m).astype(complex)
    w_hat[modes] += n * np.asarray(amplitudes)
    w = np.fft.irfft(w_hat, n)
    return w, np.fft.rfft(w)


class TestResolutionBands:
    """``runner._resolution_lost`` on synthetic spectra: the full-ladder test
    is the formula it always was; under the mask (last mode n//3) the band
    the run evolves is tested too."""

    REL_TOL = 1e-10

    def test_without_the_mask_decisions_equal_the_full_ladder_formula(self):
        rng = np.random.default_rng(31)
        decisions = []
        for _ in range(400):
            n = int(rng.choice([32, 64, 512]))
            m = np.arange(n // 2 + 1)
            amp = np.exp(-rng.uniform(0.0, 1.0) * m) * 10.0 ** rng.uniform(-8, 0, m.size)
            w_hat = amp * np.exp(2j * np.pi * rng.uniform(size=m.size))
            w = np.fft.irfft(w_hat, n)
            w_hat = np.fft.rfft(w)
            rel_tol = 10.0 ** rng.uniform(-14, -4)
            expected = unmasked_rule(w, rel_tol)
            assert bool(runner_mod._resolution_lost(w, w_hat, rel_tol, n // 2)) == expected
            decisions.append(expected)
        assert 0 < sum(decisions) < len(decisions)

    def test_decaying_spectrum_passes(self):
        n = 512
        w, w_hat = synthetic_flux(n, [], [])
        assert not runner_mod._resolution_lost(w, w_hat, self.REL_TOL, n // 3)

    def test_rising_tail_at_the_top_of_the_evolved_band_trips(self):
        # a tail rising to 1e-6 of the peak over the top third of modes
        # 0..n/3: the full ladder's middle third holds it, so only the
        # evolved band sees it
        n = 512
        modes = np.arange(2 * (n // 3) // 3 + 1, n // 3 + 1)
        w, w_hat = synthetic_flux(n, modes, np.geomspace(1e-8, 1e-6, modes.size))
        assert not runner_mod._resolution_lost(w, w_hat, self.REL_TOL, n // 2)
        assert runner_mod._resolution_lost(w, w_hat, self.REL_TOL, n // 3)
        # below the tail level the same shape passes
        w, w_hat = synthetic_flux(n, modes, np.geomspace(1e-12, 1e-10, modes.size))
        assert not runner_mod._resolution_lost(w, w_hat, self.REL_TOL, n // 3)

    def test_content_above_the_cut_trips(self):
        # the mask would carry a mode above n/3 frozen: the full-ladder test
        # still applies under it
        n = 512
        w, w_hat = synthetic_flux(n, [5 * n // 12], [1e-3])
        assert runner_mod._resolution_lost(w, w_hat, self.REL_TOL, n // 3)


class TestIllPosednessSignature:
    """Fig. 4's identity run without tension is ill-posed: under the default
    config (2/3 rule) the guard ends it before t = 2, and earlier on a finer
    grid, where faster modes are resolved."""

    def test_identity_without_tension_trips_earlier_when_finer(self, tmp_path):
        times = []
        for n in (512, 1024):
            config = with_overrides(ExperimentConfig(), multiplier="identity", inv_bond=0.0, grid_n=n)
            result = run_experiment(config, str(tmp_path / str(n)))
            assert result.status == "blowup"
            assert result.reason.startswith("spectral resolution lost at t=")
            times.append(result.t_final)
        assert times[1] < times[0] < 2.0


class TestRunExperiment:
    def test_record_layout_and_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        result = run_experiment(fast_config(), out)
        assert result.status == "completed"
        files = set(os.listdir(out))
        # one stream of the snapshots at t = 0 and at each snapshot time, the
        # final state, and no spectra: they are mode_amplitudes of a snapshot's zeta
        assert files == {"config.txt", "manifest.txt", "diag.csv", "snapshots.npy", snapshot_name(0.25)}
        t, _, _ = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert t.tolist() == [0.0, 0.125, 0.25]
        metadata, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["status"] == "completed"
        assert int(metadata["accepted"]) > 0
        for name, digest in checksums.items():
            assert os.path.exists(os.path.join(out, name))
            assert len(digest) == 64

    @pytest.mark.parametrize(
        "times",
        [(0.0900001, 0.0900002), (0.09000001, 0.09000002), (0.05, 0.05 + 5e-13, 0.1), (0.05, 0.1, 0.05)],
        ids=["seven_digits", "same_6_digits", "half_a_picosecond_apart", "repeated"],
    )
    def test_stream_holds_every_accepted_snapshot_time(self, tmp_path, times):
        # close and repeated times are rows of one stream, also where they
        # agree to 6 significant digits: the stream is sized for exactly the
        # distinct times integrate lands on
        config = parse_config(f"grid_n = 64\nt_end = 0.1\nsnapshot_times = {','.join(map(repr, times))}")
        out = str(tmp_path / "run")
        assert run_experiment(config, out).status == "completed"
        t, _, _ = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert t.tolist() == [0.0, *sorted(set(times))]

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
        # the replaced record's final state at another time must not outlive
        # it, and what is no part of a record stays
        out = str(tmp_path / "run")
        run_experiment(fast_config(snapshot_times=(0.1, 0.25), t_end=0.3), out)
        assert {"snapshots.npy", snapshot_name(0.3)} <= set(os.listdir(out))
        notes = tmp_path / "run" / "notes.txt"
        notes.write_text("kept\n")
        run_experiment(fast_config(snapshot_times=()), out, force=True)
        assert snapshot_name(0.3) not in os.listdir(out)
        _, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert set(os.listdir(out)) == set(checksums) | {"manifest.txt", "notes.txt"}
        assert notes.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "old,text",
        [("spec_t0.csv", "k,abs_zeta_hat\n0,0\n"), ("snap_t0.csv", "x,zeta,w\n0,0,0\n")],
        ids=["spec_t0.csv", "snap_t0.csv"],
    )
    def test_force_over_an_older_record_removes_its_retired_files(self, tmp_path, old, text):
        # a record written while runs still wrote spec_t<t>.csv beside each
        # snapshot, or CSV snapshots, lists them in its manifest; --force
        # removes them and the new record lists none
        out = str(tmp_path / "run")
        run_experiment(fast_config(snapshot_times=()), out)
        manifest = os.path.join(out, "manifest.txt")
        metadata, checksums = read_manifest(manifest)
        checksums[old] = write_text(os.path.join(out, old), text)
        write_manifest(out, metadata, checksums)
        run_experiment(fast_config(snapshot_times=()), out, force=True)
        _, checksums = read_manifest(manifest)
        assert old not in os.listdir(out)
        assert not [name for name in os.listdir(out) if name.startswith("spec_t")]
        assert [name for name in checksums if name.endswith(".csv")] == ["diag.csv"]
        assert set(os.listdir(out)) == set(checksums) | {"manifest.txt"}

    def test_force_replaces_a_versioned_record(self, tmp_path):
        # records written while the generator named the version
        out = str(tmp_path / "run")
        run_experiment(fast_config(snapshot_times=()), out)
        manifest = os.path.join(out, "manifest.txt")
        metadata, checksums = read_manifest(manifest)
        write_manifest(out, {**metadata, "generator": "gnwaves 0.1.0"}, checksums)
        with pytest.raises(ValidationError, match="already holds output of gnwaves simulate"):
            run_experiment(fast_config(snapshot_times=()), out)
        run_experiment(fast_config(snapshot_times=()), out, force=True)
        assert read_manifest(manifest)[0]["generator"] == "gnwaves simulate"

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
        for name in ("diag.csv", "snapshots.npy", snapshot_name(0.25), "config.txt"):
            with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_records_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the CG start's products give the same bits on one BLAS thread and
        # on two; on 512 points a complex product a @ Q_hat did not (on 128
        # points it did, so a smaller record would not show it)
        code = ("import sys; from gnwaves.params import ExperimentConfig, with_overrides; "
                "from gnwaves.runner import run_experiment; "
                "run_experiment(with_overrides(ExperimentConfig(), t_end=0.1, snapshot_times=()), sys.argv[1])")
        src = os.path.dirname(os.path.dirname(os.path.abspath(gnwaves.__file__)))
        sums = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True)
            sums.append(read_manifest(out / "manifest.txt")[1])
        assert ExperimentConfig().grid_n == 512
        assert sums[0] == sums[1] and len(sums[0]) == 4

    def test_flat_custom_table_runs_the_identity_family(self, tmp_path):
        # 0,1 / 100,1 interpolates to exactly 1 on the grid: the same run as
        # the identity family, byte for byte, except the config that names it
        table = tmp_path / "flat.csv"
        table.write_text("0,1\n100,1\n")
        out_tab, out_id = str(tmp_path / "table"), str(tmp_path / "identity")
        run_tab = run_experiment(fast_config(multiplier=f"custom:{table}"), out_tab)
        run_id = run_experiment(fast_config(multiplier="identity"), out_id)
        assert (run_tab.stats.accepted, run_tab.stats.rejected) == (run_id.stats.accepted, run_id.stats.rejected)
        meta_tab, sums_tab = read_manifest(os.path.join(out_tab, "manifest.txt"))
        _, sums_id = read_manifest(os.path.join(out_id, "manifest.txt"))
        assert meta_tab["multiplier"] == f"custom:{table}"
        assert sums_tab.pop("config.txt") != sums_id.pop("config.txt")
        assert sums_tab == sums_id and len(sums_tab) == 3  # diag.csv, the snapshots and the final state

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
            stage(rhs_fn, result.t, 1.01 * result.y)  # a stage of a rejected attempt
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
        assert set(checksums) == {"config.txt", "diag.csv", "snapshots.npy", snap}
        assert set(os.listdir(out)) == set(checksums) | {"manifest.txt"}
        # the stream holds the t = 0 snapshot only: the run stopped before t_end
        t, _, _ = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert t.tolist() == [0.0]
        # the recorded w is the flux of the captured state: A[eps*zeta] w = v
        grid = Grid(config.grid_n, config.domain_half_length)
        ctx = GNContext(grid, config.params, build_multiplier(config), cg_tol=config.cg_tol)
        _, zeta, w = read_snapshot(os.path.join(out, snap))
        y = captured["y"]
        assert np.array_equal(zeta, y[0])
        residual = apply_mass_operator(ctx, GNWorkspace().load(ctx, zeta), w) - y[1]
        assert np.linalg.norm(residual) <= config.cg_tol * np.linalg.norm(y[1])

    def test_rows_and_snapshots_take_the_solved_flux(self, tmp_path, monkeypatch):
        # the predicted CG start never reaches the record: every row and
        # snapshot holds the flux a solve returned, t = 0's the first stage's
        solves = []
        invert = operators_mod.invert_mass_operator

        def recorded(ctx, stage, v, **kwargs):
            w = invert(ctx, stage, v, **kwargs)
            solves.append((kwargs.get("x0"), w))
            return w

        taken = []
        compute_row, append = runner_mod.compute_row, runner_mod.SnapshotStream.append

        def row(ctx, t, v, stage):
            taken.append(("row", t, stage.w))
            return compute_row(ctx, t, v, stage)

        def snapshot(stream, t, zeta, w):
            taken.append(("snapshot", t, w))
            return append(stream, t, zeta, w)

        monkeypatch.setattr(operators_mod, "invert_mass_operator", recorded)
        monkeypatch.setattr(runner_mod, "compute_row", row)
        monkeypatch.setattr(runner_mod.SnapshotStream, "append", snapshot)
        out = str(tmp_path / "run")
        run_experiment(fast_config(), out)
        assert [(kind, t) for kind, t, _ in taken[:2]] == [("snapshot", 0.0), ("row", 0.0)]
        assert [kind for kind, _, _ in taken].count("snapshot") == 3 and len(taken) > 6
        for _, _, w in taken:
            assert any(w is solved and w is not x0 for x0, solved in solves)
        # at v0 = 0 the solve returns the rest flux w0 = 0
        assert taken[0][2].tobytes() == np.zeros(64).tobytes()
        # and the stream holds those fluxes
        _, _, w = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert np.array_equal(w, np.stack([flux for kind, _, flux in taken if kind == "snapshot"]))

    def test_every_stage_is_an_rhs_evaluation(self, tmp_path, monkeypatch):
        # the t = 0 row reads the first stage: a run loads a stage once per
        # rhs evaluation, and none of its own
        loads = []
        load = GNWorkspace.load

        def counted(stage, ctx, zeta):
            loads.append(zeta)
            return load(stage, ctx, zeta)

        monkeypatch.setattr(GNWorkspace, "load", counted)
        result = run_experiment(fast_config(), str(tmp_path / "run"))
        assert result.status == "completed"
        assert len(loads) == result.stats.rhs_evals

    def test_stream_rows_are_the_snapshot_files_of_the_same_states(self, tmp_path, monkeypatch):
        # each row of snapshots.npy holds the zeta and w, bit for bit, that a
        # snap_t<t>.npy of the same state holds, and its t
        config = fast_config(snapshot_times=(0.05, 0.125, 0.25))
        grid = Grid(config.grid_n, config.domain_half_length)
        side = tmp_path / "side"
        side.mkdir()
        append = runner_mod.SnapshotStream.append

        def also_a_file(stream, t, zeta, w):
            write_snapshot(side / snapshot_name(t), grid, zeta, w)
            return append(stream, t, zeta, w)

        monkeypatch.setattr(runner_mod.SnapshotStream, "append", also_a_file)
        out = str(tmp_path / "run")
        run_experiment(config, out)
        t, zeta, w = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert t.tolist() == [0.0, 0.05, 0.125, 0.25]
        for i, ti in enumerate(t):
            x, zeta_i, w_i = read_snapshot(side / snapshot_name(ti))
            assert x.tobytes() == grid.x.tobytes()
            assert (zeta[i].tobytes(), w[i].tobytes()) == (zeta_i.tobytes(), w_i.tobytes())
        # the final state's own file is the last row's
        _, zeta_f, w_f = read_snapshot(os.path.join(out, snapshot_name(0.25)))
        assert (zeta[-1].tobytes(), w[-1].tobytes()) == (zeta_f.tobytes(), w_f.tobytes())

    def test_blowup_record_keeps_the_snapshots_before_the_stop(self, tmp_path, monkeypatch):
        # a run stopped at t = 0.3 of t_end = 0.5 holds the snapshots at 0, 0.1
        # and 0.2 (the stream's row count rewritten from the 4 it was sized
        # for, its manifest digest that of the file) and its final state
        real_integrate = runner_mod.integrate

        def cut_short(rhs_fn, t_span, y0, **kw):
            result = real_integrate(rhs_fn, (t_span[0], 0.3), y0, **kw)
            raise StepUnderflowError(result.t, result.y, result.stats, 1e-15)

        monkeypatch.setattr(runner_mod, "integrate", cut_short)
        out = str(tmp_path / "run")
        result = run_experiment(fast_config(t_end=0.5, snapshot_times=(0.1, 0.2, 0.4)), out)
        assert (result.status, result.t_final) == ("blowup", 0.3)
        stream = os.path.join(out, "snapshots.npy")
        assert np.load(stream, allow_pickle=False)["t"].tolist() == [0.0, 0.1, 0.2]
        _, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert set(checksums) == {"config.txt", "diag.csv", "snapshots.npy", snapshot_name(0.3)}
        with open(stream, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == checksums["snapshots.npy"]

    def test_final_state_is_kept_when_snapshot_times_leave_out_t_end(self, tmp_path):
        out = str(tmp_path / "run")
        result = run_experiment(fast_config(t_end=0.2, snapshot_times=(0.1,)), out)
        assert result.t_final == 0.2
        assert snapshot_name(0.2) in os.listdir(out)
        t, _, _ = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert t.tolist() == [0.0, 0.1]
        diag = read_diagnostics(os.path.join(out, "diag.csv"))
        grid = Grid(64, 4.0)
        _, zeta_f, _ = read_snapshot(os.path.join(out, snapshot_name(0.2)))
        assert diag["Z"][-1] == grid.dx * float(np.sum(zeta_f))

    def test_cg_work_per_solve(self, tmp_path, monkeypatch):
        # 5.36 applications of A per solve with the stage predictor, 7.92
        # when each solve starts from the last flux; the bound is 5.36 + 5%
        counts = {"apply": 0, "invert": 0}
        apply, invert = operators_mod.apply_mass_operator, operators_mod.invert_mass_operator

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(operators_mod, "apply_mass_operator", counted("apply", apply))
        monkeypatch.setattr(operators_mod, "invert_mass_operator", counted("invert", invert))
        config = with_overrides(ExperimentConfig(), grid_n=128, t_end=0.2)
        result = run_experiment(config, str(tmp_path / "run"))
        assert (result.status, result.stats.rhs_evals) == ("completed", counts["invert"])
        assert counts["apply"] / counts["invert"] <= 5.36 * 1.05

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
        _, (zeta0, _, zeta), _ = read_snapshots(os.path.join(out, "snapshots.npy"))
        assert np.max(np.abs(np.fft.rfft(zeta)[top] - np.fft.rfft(zeta0)[top])) <= 1e-13
