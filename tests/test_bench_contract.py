"""The package API the benchmark in ``perfbench/`` relies on, checked from
the test suite.

``perfbench/setup_probe.py`` builds a run's set-up from a config file with
``GNContext``'s solver keywords and the config fields that feed them, and
``perfbench/calibrate.py`` paces a timed run by wrapping
``DiagnosticsWriter.append``, one kernel call per diagnostics row. The
benchmark's ``wall_rel`` divides by those calls, so a row written some other
way would skew it silently. ``perfbench/gate.py`` reads every benchmarked run
record (diagnostics, manifest and final snapshot), so a change to the record
format that breaks it fails here.
"""

import os
import subprocess
import sys

from gnwaves.io_store import read_diagnostics, read_snapshot, snapshot_name
from gnwaves.params import ExperimentConfig, serialize_config, with_overrides
from gnwaves.runner import run_experiment

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
import calibrate  # noqa: E402
import gate  # noqa: E402


def test_setup_probe_builds_the_default_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(serialize_config(ExperimentConfig()), encoding="utf-8")
    probe = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "setup_probe.py"), str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr


def test_pace_runs_once_per_diagnostics_row(tmp_path):
    config = with_overrides(
        ExperimentConfig(), grid_n=64, t_end=0.25, rel_tol=1e-8, abs_tol=1e-10, snapshot_times=(0.125, 0.25)
    )
    out = str(tmp_path / "run")
    with calibrate.paced(calibrate.Pace()) as pace:
        result = run_experiment(config, out)
    assert result.status == "completed"
    rows = len(read_diagnostics(os.path.join(out, "diag.csv"))["t"])
    assert rows == result.stats.accepted + 1
    assert pace.calls == rows
    assert pace.wall_s > 0.0 and pace.cpu_s > 0.0


def test_gate_passes_a_real_record(tmp_path):
    config = with_overrides(ExperimentConfig(), grid_n=64, t_end=0.25, snapshot_times=(0.125, 0.25))
    result = run_experiment(config, str(tmp_path / "run"))
    again = run_experiment(config, str(tmp_path / "again"))
    _, zeta_ref, _ = read_snapshot(os.path.join(again.out_dir, snapshot_name(config.t_end)))
    problems, final_state_err, _ = gate.check_run(None, config, result, zeta_ref)
    assert problems == []
    assert final_state_err == 0.0
