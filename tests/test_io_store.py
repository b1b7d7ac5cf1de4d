import numpy as np
import pytest

from gnwaves.diagnostics import DiagnosticsRow
from gnwaves.io_store import (
    DiagnosticsWriter,
    read_diagnostics,
    read_manifest,
    read_snapshot,
    read_spectrum,
    snapshot_name,
    spectrum_name,
    write_manifest,
    write_snapshot,
    write_spectrum,
)
from gnwaves.spectral import Grid

from conftest import random_smooth_field


@pytest.fixture
def grid():
    return Grid(64, 4.0)


class TestSnapshots:
    def test_rest_state_columns(self, grid, tmp_path):
        path = tmp_path / "snap_t0.csv"
        write_snapshot(path, grid, np.zeros(grid.n), np.zeros(grid.n))
        x, zeta, w = read_snapshot(path)
        assert np.array_equal(x, grid.x)
        assert np.array_equal(zeta, np.zeros(grid.n))
        assert np.array_equal(w, np.zeros(grid.n))

    def test_round_trip_bit_exact(self, grid, tmp_path):
        rng = np.random.default_rng(1)
        zeta = random_smooth_field(grid, rng)
        w = random_smooth_field(grid, rng)
        path = tmp_path / "snap.csv"
        write_snapshot(path, grid, zeta, w)
        _, zeta2, w2 = read_snapshot(path)
        assert np.array_equal(zeta, zeta2)  # 17 digits round-trips doubles
        assert np.array_equal(w, w2)

    def test_bytes_equal_the_per_value_format(self, tmp_path):
        # the one %-format over the whole table writes what formatting each
        # value with f"{v:.17g}", row by row, wrote
        special = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, np.inf, -np.inf, np.nan,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -123456.789e-300]
        grid = Grid(16, 4.0)
        zeta = np.array(special + [2.0**-1074 * 3, 1e16 + 2, -1e-5, 7.0])
        w = zeta[::-1] * 0.5
        path = tmp_path / "snap.csv"
        write_snapshot(path, grid, zeta, w)
        expected = "x,zeta,w\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(grid.x, zeta, w)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_names(self):
        assert snapshot_name(2.0) == "snap_t2.csv"
        assert spectrum_name(0.5) == "spec_t0.5.csv"


class TestSpectra:
    def test_rest(self, grid, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum(path, grid, np.zeros(grid.n))
        k, amp = read_spectrum(path)
        assert np.array_equal(k, grid.k)
        assert np.array_equal(amp, np.zeros(grid.n // 2 + 1))

    def test_single_mode_single_bin(self, grid, tmp_path):
        k0 = grid.k[5]
        path = tmp_path / "spec.csv"
        write_spectrum(path, grid, np.sin(k0 * grid.x))
        _, amp = read_spectrum(path)
        assert amp[5] == pytest.approx(0.5, rel=1e-12)
        others = np.delete(amp, 5)
        assert np.max(others) <= 1e-14


class TestDiagnosticsWriter:
    def test_incremental_rows_survive_without_close(self, tmp_path):
        path = tmp_path / "diag.csv"
        writer = DiagnosticsWriter(path, DiagnosticsRow.HEADER)
        row = DiagnosticsRow(t=0.0, Z=1.0, V=2.0, I=3.0, H=4.0, M=5.0, C=6.0, hyp_margin=1.45, high_band=0.0)
        writer.append(row)
        # rows are flushed immediately: readable before close (crash safety)
        data = read_diagnostics(path)
        assert data["t"].tolist() == [0.0]
        assert data["hyp_margin"].tolist() == [1.45]
        writer.close()

    def test_header_and_row_text_are_pinned(self):
        # the diag.csv format of every run record
        assert DiagnosticsRow.HEADER == "t,Z,V,I,H,M,C,hyp_margin,high_band"
        row = DiagnosticsRow(t=0.25, Z=-0.1, V=0.0, I=1e-20, H=3.0, M=-0.0, C=2.5, hyp_margin=1.45, high_band=1 / 3)
        assert row.as_csv() == "0.25,-0.10000000000000001,0,9.9999999999999995e-21,3,-0,2.5,1.45,0.33333333333333331"

    def test_columns_round_trip(self, tmp_path):
        path = tmp_path / "diag.csv"
        with DiagnosticsWriter(path, DiagnosticsRow.HEADER) as writer:
            for t in (0.0, 0.25, 0.5):
                writer.append(
                    DiagnosticsRow(t=t, Z=-0.886, V=0.0, I=t * 1e-12, H=0.91, M=0.0, C=0.0, hyp_margin=1.4, high_band=1e-16)
                )
        data = read_diagnostics(path)
        assert list(data) == DiagnosticsRow.HEADER.split(",")
        assert data["t"].tolist() == [0.0, 0.25, 0.5]


class TestManifest:
    def test_checksums_cover_files(self, grid, tmp_path):
        write_snapshot(tmp_path / "snap_t0.csv", grid, np.zeros(grid.n), np.zeros(grid.n))
        write_manifest(str(tmp_path), {"status": "completed", "accepted": 10}, ["snap_t0.csv"])
        metadata, checksums = read_manifest(tmp_path / "manifest.txt")
        assert metadata["status"] == "completed"
        assert metadata["accepted"] == "10"
        assert set(checksums) == {"snap_t0.csv"}
        assert len(checksums["snap_t0.csv"]) == 64

    def test_checksum_detects_modification(self, grid, tmp_path):
        write_snapshot(tmp_path / "a.csv", grid, np.zeros(grid.n), np.zeros(grid.n))
        write_manifest(str(tmp_path), {}, ["a.csv"])
        _, before = read_manifest(tmp_path / "manifest.txt")
        with open(tmp_path / "a.csv", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        write_manifest(str(tmp_path), {}, ["a.csv"])
        _, after = read_manifest(tmp_path / "manifest.txt")
        assert before["a.csv"] != after["a.csv"]
