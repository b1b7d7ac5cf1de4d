import os
import sys

import pytest

from gnwaves.cli import main
from gnwaves.io_store import read_manifest
from gnwaves.params import ExperimentConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import record_oracle  # noqa: E402


def test_checksum_lines_cover_every_record(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_n = 64\nt_end = 0.1\nrel_tol = 1e-8\nabs_tol = 1e-10\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out / "runs" / "one")]) == 0
    assert main(["stability", "--out", str(out / "stab"), "--k-points", "5"]) == 0
    expected = []
    for record in ("runs/one", "stab"):
        metadata, checksums = read_manifest(out / record / "manifest.txt")
        expected += [f"{record}/{name} {digest}" for name, digest in checksums.items()]
        # a run's outcome is pinned too; a stability table has none
        expected += [f"{record}/manifest.txt {key} = {metadata[key]}"
                     for key in ("status", "t_final", "reason", "accepted", "rejected", "rhs_evals")
                     if key in metadata]
    lines = record_oracle.checksum_lines(str(out))
    assert lines == sorted(expected)
    assert "stab/stability.csv" in {line.split()[0] for line in expected}
    assert "runs/one/manifest.txt status = completed" in lines
    assert "runs/one/manifest.txt t_final = 0.10000000000000001" in lines
    assert sum(line.startswith("runs/one/manifest.txt ") for line in lines) == 6
    assert not any(line.startswith("stab/manifest.txt ") for line in lines)


def test_refuses_a_non_empty_out_dir(tmp_path):
    (tmp_path / "old.txt").write_text("x")
    with pytest.raises(SystemExit) as exc:
        record_oracle.main([str(tmp_path)])
    assert "is not empty" in str(exc.value.code)


def test_reads_the_benchmark_workloads():
    workloads = record_oracle.load_workloads()
    assert workloads
    for workload in workloads.values():
        assert isinstance(workload.config(), ExperimentConfig)


@pytest.mark.parametrize("stray", ["file", "subdirectory"])
def test_a_record_holding_what_its_manifest_does_not_name_fails(tmp_path, stray):
    # every record holds exactly what its manifest names: a stray file, or a
    # subdirectory that its records key does not name, ends the oracle
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_n = 64\nt_end = 0.1\nrel_tol = 1e-8\nabs_tol = 1e-10\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out / "runs" / "one")]) == 0
    (out / "runs" / "manifest.txt").write_text("generator = gnwaves simulate\nrecords = one\n")
    assert record_oracle.checksum_lines(str(out))  # a sub-record its parent names
    if stray == "file":
        (out / "runs" / "one" / "spec_t0.csv").write_text("k,abs_zeta_hat\n")
    else:
        (out / "runs" / "one" / "old").mkdir()
    with pytest.raises(SystemExit) as exc:
        record_oracle.checksum_lines(str(out))
    message = str(exc.value.code)
    assert "runs/one" in message and ("spec_t0.csv" if stray == "file" else "old") in message
