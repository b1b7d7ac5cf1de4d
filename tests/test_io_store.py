import hashlib
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gnwaves.diagnostics import DiagnosticsRow
from gnwaves.errors import ValidationError
from gnwaves.io_store import (
    DiagnosticsWriter,
    claim_out_dir,
    read_diagnostics,
    read_manifest,
    read_snapshot,
    snapshot_name,
    write_manifest,
    write_snapshot,
    write_text,
)
from gnwaves.spectral import Grid, mode_amplitudes

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
        assert snapshot_name(0.5) == "snap_t0.5.csv"


def _oracle_rows(header, columns):
    """The bytes of a CSV table as one %-format over the whole table,
    grid column included, wrote them."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    line = "%.17g," * (cols - 1) + "%.17g\n"
    return (header + "\n" + (line * rows) % tuple(table.ravel().tolist())).encode("utf-8")


class TestWriterOracle:
    """The grid column is rendered once per grid; the bytes stay those of
    the whole-table format."""

    SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-310, 1e300, -1e300, 1 / 3, -7.0]

    def test_snapshot_and_spectrum_bytes_per_grid(self, tmp_path):
        rng = np.random.default_rng(3)
        # two grids with one n, another n, then the first grid again as a new
        # but equal object: each file must carry its own grid's column
        for i, grid in enumerate((Grid(16, 4.0), Grid(16, 2.5), Grid(32, 4.0), Grid(16, 4.0))):
            zeta = np.concatenate([self.SPECIAL, rng.standard_normal(grid.n - len(self.SPECIAL))])
            w = -zeta[::-1]
            snap = tmp_path / f"snap{i}.csv"
            snap_digest = write_snapshot(snap, grid, zeta, w)
            assert snap.read_bytes() == _oracle_rows("x,zeta,w", (grid.x, zeta, w))
            assert snap_digest == hashlib.sha256(snap.read_bytes()).hexdigest()
            # the oracle that a record without spectrum files loses nothing:
            # x, zeta and w come back with every bit (signed zeros and
            # subnormals included), so the spectrum recomputed from the file
            # is the one the run could have written
            read = read_snapshot(snap)
            for got, wrote in zip(read, (grid.x, zeta, w)):
                assert got.tobytes() == wrote.tobytes()
            assert_array_equal(mode_amplitudes(grid, read[1]), mode_amplitudes(grid, zeta))

    def test_write_text_returns_the_digest_of_the_bytes(self, tmp_path):
        text = "a = 1\nnon-ascii \u00b5\n"
        digest = write_text(tmp_path / "t.txt", text)
        assert (tmp_path / "t.txt").read_bytes() == text.encode("utf-8")
        assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestSpectra:
    """The spectrum of a record is mode_amplitudes of its snapshot's zeta."""

    def test_rest(self, grid, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot(path, grid, np.zeros(grid.n), np.zeros(grid.n))
        amp = mode_amplitudes(grid, read_snapshot(path)[1])
        assert grid.k.shape == amp.shape
        assert np.array_equal(amp, np.zeros(grid.n // 2 + 1))

    def test_single_mode_single_bin(self, grid, tmp_path):
        k0 = grid.k[5]
        path = tmp_path / "snap.csv"
        write_snapshot(path, grid, np.sin(k0 * grid.x), np.zeros(grid.n))
        amp = mode_amplitudes(grid, read_snapshot(path)[1])
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

    def test_digest_follows_the_appended_bytes(self, tmp_path):
        path = tmp_path / "diag.csv"
        writer = DiagnosticsWriter(path, DiagnosticsRow.HEADER)
        assert writer.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        for t in (0.0, 0.5):
            writer.append(DiagnosticsRow(t=t, Z=-0.0, V=5e-324, I=1e300, H=0.9, M=0.0, C=0.0, hyp_margin=1.4, high_band=0.1))
            # flushed row by row, so the file on disk always has the digest
            assert writer.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        writer.close()


class TestManifest:
    def test_checksums_cover_files(self, grid, tmp_path):
        digest = write_snapshot(tmp_path / "snap_t0.csv", grid, np.zeros(grid.n), np.zeros(grid.n))
        write_manifest(str(tmp_path), {"status": "completed", "accepted": 10}, {"snap_t0.csv": digest})
        metadata, checksums = read_manifest(tmp_path / "manifest.txt")
        assert metadata["status"] == "completed"
        assert metadata["accepted"] == "10"
        assert set(checksums) == {"snap_t0.csv"}
        assert len(checksums["snap_t0.csv"]) == 64

    def test_checksum_detects_modification(self, grid, tmp_path):
        digest = write_snapshot(tmp_path / "a.csv", grid, np.zeros(grid.n), np.zeros(grid.n))
        write_manifest(str(tmp_path), {}, {"a.csv": digest})
        _, before = read_manifest(tmp_path / "manifest.txt")
        tampered = (tmp_path / "a.csv").read_text(encoding="utf-8") + "tampered\n"
        write_manifest(str(tmp_path), {}, {"a.csv": write_text(tmp_path / "a.csv", tampered)})
        _, after = read_manifest(tmp_path / "manifest.txt")
        assert before["a.csv"] != after["a.csv"]


class TestClaimOutDir:
    def test_force_removes_what_the_manifest_names_and_nothing_outside(self, tmp_path):
        # a hand-written manifest whose names leave out_dir: they are never
        # followed, while its own file and sub-record go
        outside = tmp_path / "outside"
        (outside / "rec").mkdir(parents=True)
        for victim in (outside / "victim.txt", outside / "rec" / "data.csv"):
            victim.write_text("kept\n")
        write_manifest(str(outside / "rec"), {"generator": "g"}, {"data.csv": "0" * 64})
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "own.csv").write_text("x\n")
        (out / "notes.txt").write_text("kept\n")
        write_manifest(str(out / "sub"), {"generator": "g"}, {})
        os.symlink(outside / "rec", out / "link")
        names = ["../outside/victim.txt", str(outside / "victim.txt"), "own.csv"]
        records = ["", ".", "..", "../outside/rec", str(outside / "rec"), "link", "sub"]
        write_manifest(str(out), {"generator": "g", "records": ",".join(records)}, {n: "0" * 64 for n in names})
        claim_out_dir(str(out), "g", force=True)
        assert sorted(os.listdir(out)) == ["link", "notes.txt"]
        assert sorted(os.listdir(outside)) == ["rec", "victim.txt"]
        assert sorted(os.listdir(outside / "rec")) == ["data.csv", "manifest.txt"]

    def test_refusals_touch_nothing(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.csv").write_text("x\n")
        write_manifest(str(out), {"generator": "g"}, {"a.csv": "0" * 64})
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        for generator, force in (("other", True), ("other", False), ("g", False)):
            with pytest.raises(ValidationError, match="out: "):
                claim_out_dir(str(out), generator, force)
            assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
