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
        _, checksums = read_manifest(out / record / "manifest.txt")
        expected += [f"{record}/{name} {digest}" for name, digest in checksums.items()]
    assert record_oracle.checksum_lines(str(out)) == sorted(expected)
    assert "stab/stability.csv" in {line.split()[0] for line in expected}


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
