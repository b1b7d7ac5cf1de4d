import hashlib
import os
import shutil

import numpy as np
import pytest

import gnwaves.runner as runner_mod
from gnwaves.cli import main
from gnwaves.errors import StepUnderflowError
from gnwaves.io_store import read_manifest, snapshot_name
from gnwaves.params import parse_config

from conftest import start_with_flux


FAST = """
grid_n = 64
t_end = 0.2
rel_tol = 1e-8
abs_tol = 1e-10
snapshot_times = 0.2
"""


@pytest.fixture
def fast_config_path(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST)
    return str(path)


class TestSimulate:
    def test_completes_with_exit_zero(self, fast_config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["simulate", "--config", fast_config_path, "--out", out])
        assert code == 0
        assert "completed" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "manifest.txt"))

    def test_multiplier_override_aliases(self, fast_config_path, tmp_path):
        out = str(tmp_path / "run")
        code = main(["simulate", "--config", fast_config_path, "--out", out, "--multiplier", "imp"])
        assert code == 0
        metadata, _ = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["multiplier"] == "improved"

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("delta = -1\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamm = 0.9\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("grid_n = 64\ncg_tol = inf\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cg_tol: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_cavitating_initial_state_is_a_config_error(self, tmp_path, capsys):
        # h1 = 1 - eps*zeta < 0 at t = 0: rejected before anything is written
        cfg = tmp_path / "cav.cfg"
        cfg.write_text("grid_n = 64\nic_amplitude = 2.5\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "ic_amplitude" in capsys.readouterr().err
        assert not out.exists()

    def test_unrecordable_snapshot_time_is_a_config_error(self, tmp_path, capsys):
        # snapshot_times = 5 past t_end = 0.2 would leave no snapshot at t_end
        cfg = tmp_path / "late.cfg"
        cfg.write_text(FAST.replace("snapshot_times = 0.2", "snapshot_times = 5"))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "snapshot_times: times must not exceed t_end = 0.2" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_table_record_reruns_from_its_config(self, tmp_path, monkeypatch):
        # the table is read relative to the config file and recorded with its
        # absolute path, in config.txt and the manifest alike
        (tmp_path / "a").mkdir()
        table = tmp_path / "a" / "sym.csv"
        table.write_text("0,1\n10,0.5\n")
        (tmp_path / "a" / "run.cfg").write_text(FAST + "multiplier = custom:sym.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "a/run.cfg", "--out", "rec"]) == 0
        metadata, checksums = read_manifest(os.path.join("rec", "manifest.txt"))
        with open(os.path.join("rec", "config.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert f"multiplier = {metadata['multiplier']}" in lines
        assert metadata["multiplier"] == f"custom:{table}"

        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["simulate", "--config", "../rec/config.txt", "--out", "rerun"]) == 0
        _, rerun = read_manifest(os.path.join("rerun", "manifest.txt"))
        assert rerun == checksums

    def test_blowup_exit_code(self, fast_config_path, tmp_path, monkeypatch, capsys):
        real_integrate = runner_mod.integrate

        def sabotaged(rhs_fn, t_span, y0, **kw):
            result = real_integrate(rhs_fn, (t_span[0], 0.02), y0, **kw)
            raise StepUnderflowError(result.t, result.y, result.stats, 1e-15)

        monkeypatch.setattr(runner_mod, "integrate", sabotaged)
        out = str(tmp_path / "run")
        code = main(["simulate", "--config", fast_config_path, "--out", out])
        assert code == 3
        assert "blowup" in capsys.readouterr().out

    def test_resolution_loss_names_the_cause(self, fast_config_path, tmp_path, monkeypatch, capsys):
        # a flux with a strong mode in the top third of the ladder trips the
        # resolution guard at the first stage
        def rough(grid):
            return 0.1 * np.cos(grid.k[5 * grid.n // 12] * grid.x)

        start_with_flux(monkeypatch, parse_config(FAST), rough)
        out = str(tmp_path / "run")
        code = main(["simulate", "--config", fast_config_path, "--out", out])
        assert code == 3
        assert "(spectral resolution lost at t=0.000000; step size underflow" in capsys.readouterr().out


class TestSv:
    def test_runs_hydrostatic_model(self, tmp_path):
        cfg = tmp_path / "sv.cfg"
        cfg.write_text(FAST + "mu = 0\n")
        out = str(tmp_path / "run")
        assert main(["sv", "--config", str(cfg), "--out", out]) == 0
        metadata, _ = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["status"] == "completed" and "model" not in metadata

    def test_config_multiplier_key_still_parses(self, tmp_path):
        # at mu = 0 every family's symbol is 1, so sv takes no --multiplier,
        # but a config that names one runs and records it
        cfg = tmp_path / "sv.cfg"
        cfg.write_text(FAST + "multiplier = improved\n")
        out = tmp_path / "run"
        assert main(["sv", "--config", str(cfg), "--out", str(out)]) == 0
        recorded = parse_config((out / "config.txt").read_text())
        assert recorded.multiplier == "improved" and recorded.params.mu == 0.0

    @pytest.mark.parametrize(
        "line",
        ["model = sv", "initial_condition = rest", "write_spectra = true", "diag_stride = 1", "k_band = auto"],
    )
    def test_retired_keys_are_unknown(self, tmp_path, capsys, line):
        # mu = 0 and ic_amplitude = 0 say what the first two keys said; every
        # record has a row per accepted step and the half-Nyquist band, and no spectra
        cfg = tmp_path / "old.cfg"
        cfg.write_text(FAST + line + "\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_blowup_writes_manifest(self, tmp_path):
        # at epsilon = 1.9 the hydrostatic run loses hyperbolicity; a failed
        # stage must end its attempt instead of feeding NaN to the next one,
        # so the run ends as a recorded blow-up rather than a crash
        cfg = tmp_path / "sv.cfg"
        cfg.write_text("epsilon = 1.9\n")
        out = str(tmp_path / "run")
        assert main(["sv", "--config", str(cfg), "--out", out]) == 3
        metadata, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["status"] == "blowup"
        assert 0.0 < float(metadata["t_final"]) < 2.0
        snap = [name for name in checksums if name.startswith("snap_t") and name != snapshot_name(0.0)]
        assert len(snap) == 1


class TestStability:
    def test_csv_columns(self, tmp_path):
        out = str(tmp_path / "stab")
        code = main(["stability", "--out", out, "--k-points", "50", "--k-max", "50"])
        assert code == 0
        path = os.path.join(out, "stability.csv")
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["k", "threshold_original", "threshold_regularized", "threshold_improved", "threshold_euler"]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (50, 5)
        # improved column reproduces the exact-dispersion one
        imp, eul = data[:, 3], data[:, 4]
        assert np.allclose(imp, eul, rtol=1e-10)

    def test_gamma_zero_all_nan(self, tmp_path):
        cfg = tmp_path / "g0.cfg"
        cfg.write_text("gamma = 0\n")
        out = str(tmp_path / "stab")
        assert main(["stability", "--config", str(cfg), "--out", out, "--k-points", "10"]) == 0
        data = np.loadtxt(os.path.join(out, "stability.csv"), delimiter=",", skiprows=1)
        assert np.all(np.isnan(data[:, 1:4]))
        assert np.all(np.isnan(data[:, 4]))

    def test_single_point_grid(self, tmp_path):
        out = str(tmp_path / "stab1")
        assert main(["stability", "--out", out, "--k-points", "1"]) == 0
        data = np.loadtxt(os.path.join(out, "stability.csv"), delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (1, 5)


    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--k-points", "0", "k_points"),
            ("--k-points", "-3", "k_points"),
            ("--k-max", "nan", "k_max"),
            ("--k-max", "inf", "k_max"),
            ("--k-max", "0", "k_max"),
        ],
    )
    def test_invalid_k_grid_is_a_usage_error(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "stab"
        assert main(["stability", "--out", str(out), flag, value]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not out.exists()


class TestAdmissibility:
    def test_builtin_report(self, tmp_path, capsys):
        for name, sigma in (("identity", "0"), ("regularized", "1"), ("improved", "0.5")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"multiplier = {name}\n")
            assert main(["admissibility", "--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            assert "sub-additive |k|F(k): ok" in out
            assert f"|k|^-{sigma}" in out

    def test_flat_custom_table_matches_identity(self, tmp_path, capsys):
        table = tmp_path / "flat.csv"
        table.write_text("0,1\n100,1\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"multiplier = custom:{table}\n")
        assert main(["admissibility", "--config", str(cfg)]) == 0
        assert "sub-additive |k|F(k): ok" in capsys.readouterr().out

    def test_non_monotone_table_reports_violation(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("0,1\n1,0.2\n2,1\n3,0.2\n50,0.2\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"multiplier = custom:{table}\n")
        assert main(["admissibility", "--config", str(cfg)]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_report_file_written(self, tmp_path, capsys):
        out = str(tmp_path / "adm")
        assert main(["admissibility", "--out", out]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "admissibility.txt"))


def test_stability_and_admissibility_manifests_hash_the_files(tmp_path, capsys):
    # the digests come from the bytes as written; they must be the files' own
    stab, adm = str(tmp_path / "stab"), str(tmp_path / "adm")
    assert main(["stability", "--out", stab, "--k-points", "7"]) == 0
    assert main(["admissibility", "--out", adm]) == 0
    capsys.readouterr()
    for out, name in ((stab, "stability.csv"), (adm, "admissibility.txt")):
        _, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        with open(os.path.join(out, name), "rb") as fh:
            assert checksums == {name: hashlib.sha256(fh.read()).hexdigest()}


# the outputs an --out may already hold, and how each is made
EXISTING = {
    "record": ["simulate"],
    "preset": ["simulate", "--preset", "fig4"],
    "stability": ["stability", "--k-points", "7"],
    "admissibility": ["admissibility"],
    "diag-compare": ["diag-compare", "--preset", "table1"],
}
# the commands run into them; "+" adds --force
COMMANDS = {
    "simulate": ["simulate"],
    "preset": ["simulate", "--preset", "fig2"],
    "stability": ["stability", "--k-points", "7"],
    "admissibility": ["admissibility"],
    "diag-compare": ["diag-compare"],
}
# the records key each command's manifest writes
RECORDS = {
    "preset": "identity,regularized,improved",
    "diag-compare": "with_tension_identity,with_tension_regularized,with_tension_improved",
}
# exit code of each command (column) run into each existing output (row):
# another generator's output is refused even with --force, the command's own
# is refused without it; stability and admissibility always replace their own
RULE = """
              simulate simulate+ preset preset+ stability admissibility diag-compare diag-compare+
record               2         0      2       0         2             2            2             2
preset               2         0      2       0         2             2            2             2
stability            2         2      2       2         0             2            2             2
admissibility        2         2      2       2         2             0            2             2
diag-compare         2         2      2       2         2             2            2             0
"""
_header, *_rows = (line.split() for line in RULE.strip().splitlines())
CASES = [(row[0], column, int(code)) for row in _rows for column, code in zip(_header, row[1:])]


def _tree(out):
    """Every file and directory under out, files with their bytes."""
    tree = {}
    for root, dirs, files in os.walk(out):
        tree.update({os.path.relpath(os.path.join(root, name), out): None for name in dirs})
        for name in files:
            with open(os.path.join(root, name), "rb") as fh:
                tree[os.path.relpath(os.path.join(root, name), out)] = fh.read()
    return tree


def _listed(out, rel=""):
    """The paths out's manifest names: its files and, by the same rule, its
    records."""
    metadata, checksums = read_manifest(os.path.join(out, rel, "manifest.txt"))
    names = {os.path.join(rel, name) for name in [*checksums, "manifest.txt"]}
    for record in filter(None, metadata.get("records", "").split(",")):
        names |= {os.path.join(rel, record)} | _listed(out, os.path.join(rel, record))
    return names


@pytest.fixture(scope="module")
def existing(tmp_path_factory):
    """One output of each EXISTING kind, made once for the module."""
    root = tmp_path_factory.mktemp("existing")
    config = root / "fast.cfg"
    config.write_text(FAST)
    for kind, argv in EXISTING.items():
        assert main(argv + ["--config", str(config), "--out", str(root / kind)]) == 0
    return root, str(config)


@pytest.mark.parametrize("kind,column,code", CASES, ids=[f"{kind}-{column}" for kind, column, _ in CASES])
def test_out_dir_rule(kind, column, code, existing, tmp_path, capsys):
    # a refused --out keeps every file and byte; an accepted one holds
    # exactly what the new manifest names, sub-records included
    root, config = existing
    out = tmp_path / "out"
    shutil.copytree(root / kind, out)
    before = _tree(out)
    argv = COMMANDS[column.rstrip("+")] + ["--config", config, "--out", str(out)] + ["--force"] * column.endswith("+")
    assert main(argv) == code
    if code:
        assert "error: out: " in capsys.readouterr().err
        assert _tree(out) == before
        return
    assert set(_tree(out)) == _listed(out)
    records = read_manifest(out / "manifest.txt")[0].get("records")
    assert records == RECORDS.get(column.rstrip("+"))


@pytest.mark.parametrize("kind,argv", [("preset", ["simulate", "--preset", "fig2"]), ("diag-compare", ["diag-compare"])])
def test_cavitating_config_keeps_the_earlier_output(kind, argv, existing, tmp_path, capsys):
    # the initial state is judged before --out is claimed, so a refused
    # config leaves the command's own earlier output as it was, --force or not
    root, _ = existing
    out = tmp_path / "out"
    shutil.copytree(root / kind, out)
    before = _tree(out)
    cfg = tmp_path / "cav.cfg"
    cfg.write_text(FAST + "ic_amplitude = -5\n")
    assert main(argv + ["--config", str(cfg), "--out", str(out), "--force"]) == 2
    assert "ic_amplitude: the initial state cavitates" in capsys.readouterr().err
    assert _tree(out) == before


class TestDiagCompare:
    def test_drift_table(self, fast_config_path, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["diag-compare", "--config", fast_config_path, "--out", out])
        assert code == 0
        path = os.path.join(out, "drift_table.csv")
        with open(path, "rb") as fh:
            data = fh.read()
        metadata, checksums = read_manifest(os.path.join(out, "manifest.txt"))
        assert metadata["generator"] == "gnwaves diag-compare"
        assert checksums == {"drift_table.csv": hashlib.sha256(data).hexdigest()}
        lines = data.decode("utf-8").strip().splitlines()
        assert lines[0] == "case,multiplier,status,t_final,dZ,dV,dI,dH"
        assert len(lines) == 4  # three multipliers, one case
        for line in lines[1:]:
            assert line.split(",")[2] == "completed"

    def test_table1_preset_adds_no_tension_case(self, fast_config_path, tmp_path):
        out = str(tmp_path / "cmp")
        code = main(["diag-compare", "--config", fast_config_path, "--out", out, "--preset", "table1"])
        assert code == 0
        with open(os.path.join(out, "drift_table.csv"), encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 7  # three multipliers x two cases
        cases = {line.split(",")[0] for line in lines[1:]}
        assert cases == {"with_tension", "without_tension"}

    def test_a_config_without_tension_names_its_case(self, tmp_path):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(FAST + "inv_bond = 0\n")
        out = tmp_path / "cmp"
        assert main(["diag-compare", "--config", str(cfg), "--out", str(out)]) == 0
        records = [f"without_tension_{name}" for name in ("identity", "regularized", "improved")]
        assert read_manifest(out / "manifest.txt")[0]["records"] == ",".join(records)
        assert sorted(os.listdir(out)) == sorted(["drift_table.csv", "manifest.txt", *records])
        lines = (out / "drift_table.csv").read_text(encoding="utf-8").strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["without_tension"] * 3

    def test_table1_refuses_a_config_without_tension(self, tmp_path, capsys):
        # its two cases would be one run under two names
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(FAST + "inv_bond = 0\n")
        out = tmp_path / "cmp"
        assert main(["diag-compare", "--config", str(cfg), "--out", str(out), "--preset", "table1"]) == 2
        assert "inv_bond: --preset table1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--force"],
        ["stability", "--multiplier", "id"],
        ["sv", "--multiplier", "imp"],
        ["admissibility", "--force"],
        ["diag-compare", "--multiplier", "id"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


class TestSimulationPresets:
    def test_fig_preset_runs_all_three_families(self, tmp_path):
        # desk-scale stand-in: the preset machinery with a small grid
        cfg = tmp_path / "small.cfg"
        cfg.write_text("grid_n = 64\nrel_tol = 1e-8\nabs_tol = 1e-10\n")
        out = str(tmp_path / "fig4")
        code = main(["simulate", "--config", str(cfg), "--out", out, "--preset", "fig4"])
        assert code == 0
        for name in ("identity", "regularized", "improved"):
            metadata, _ = read_manifest(os.path.join(out, name, "manifest.txt"))
            assert metadata["multiplier"] == name
            # fig4 preset removes surface tension and runs to t = 2
            assert metadata["t_end"] == "2.0"

    def test_fig1_preset_is_stability(self, tmp_path, capsys):
        # Fig. 1 is what stability writes at the default config; it has no preset
        out = tmp_path / "fig1"
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--out", str(out), "--preset", "fig1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --preset fig1" in capsys.readouterr().err
        assert not out.exists()
        assert main(["stability", "--out", str(out), "--k-points", "20"]) == 0
        assert os.path.exists(os.path.join(out, "stability.csv"))
