import hashlib
import io
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gnwaves.diagnostics import DiagnosticsRow
from gnwaves.errors import ValidationError
from gnwaves.io_store import (
    RUN_GENERATOR,
    DiagnosticsWriter,
    SnapshotStream,
    claim_out_dir,
    read_diagnostics,
    read_manifest,
    read_snapshot,
    read_snapshots,
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


SNAPSHOT_DTYPE = np.dtype([("x", "<f8"), ("zeta", "<f8"), ("w", "<f8")])
# signed zeros, subnormals, infinities, NaN, the extremes and ordinary values
SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, np.inf, -np.inf, np.nan,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -123456.789e-300,
           2.0**-1074 * 3, 1e16 + 2, -1e-5, 7.0]


def _npy_parts(path):
    """(shape, fortran_order, dtype, payload) of an .npy file, parsed by
    numpy's format reader rather than np.load."""
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        return shape, fortran_order, dtype, fh.read()


def _assert_snapshot_file(path, grid, zeta, w):
    """The file is a 1.0 .npy of (n,) x, zeta, w float64 records, C order,
    whose payload is the rows of the three columns as little-endian doubles."""
    shape, fortran_order, dtype, payload = _npy_parts(path)
    assert (shape, fortran_order, dtype) == ((grid.n,), False, SNAPSHOT_DTYPE)
    assert payload == np.column_stack((grid.x, zeta, w)).astype("<f8").tobytes()


class TestSnapshots:
    def test_rest_state_columns(self, grid, tmp_path):
        path = tmp_path / snapshot_name(0.0)
        write_snapshot(path, grid, np.zeros(grid.n), np.zeros(grid.n))
        x, zeta, w = read_snapshot(path)
        assert np.array_equal(x, grid.x)
        assert np.array_equal(zeta, np.zeros(grid.n))
        assert np.array_equal(w, np.zeros(grid.n))

    def test_round_trip_bit_exact(self, grid, tmp_path):
        rng = np.random.default_rng(1)
        zeta = random_smooth_field(grid, rng)
        w = random_smooth_field(grid, rng)
        path = tmp_path / "snap.npy"
        write_snapshot(path, grid, zeta, w)
        _, zeta2, w2 = read_snapshot(path)
        assert np.array_equal(zeta, zeta2)
        assert np.array_equal(w, w2)

    def test_special_values_bit_for_bit(self, tmp_path):
        grid = Grid(16, 4.0)
        zeta = np.array(SPECIAL)
        w = zeta[::-1] * 0.5
        path = tmp_path / "snap.npy"
        write_snapshot(path, grid, zeta, w)
        _assert_snapshot_file(path, grid, zeta, w)
        for got, wrote in zip(read_snapshot(path), (grid.x, zeta, w)):
            assert got.dtype == np.float64
            assert got.tobytes() == wrote.tobytes()

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_bytes_are_np_save_bytes(self, tmp_path, n):
        # the cached header and the table behind it are what np.save writes
        grid = Grid(n, 4.0)
        pool = np.concatenate([SPECIAL, np.random.default_rng(n).standard_normal(2 * n - len(SPECIAL))])
        zeta, w = pool[:n], pool[n:][::-1]
        buf = io.BytesIO()
        np.save(buf, np.rec.fromarrays((grid.x, zeta, w), dtype=SNAPSHOT_DTYPE), allow_pickle=False)
        path = tmp_path / "snap.npy"
        digest = write_snapshot(path, grid, zeta, w)
        assert path.read_bytes() == buf.getvalue()
        assert digest == hashlib.sha256(buf.getvalue()).hexdigest()
        for got, wrote in zip(read_snapshot(path), (grid.x, zeta, w)):
            assert got.tobytes() == wrote.tobytes()

    def test_names(self):
        assert snapshot_name(2.0) == "snap_t2.npy"
        assert snapshot_name(0.5) == "snap_t0.5.npy"


class _Trap:
    """Unpickling this makes the directory ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


class TestReadSnapshotRejects:
    """A .npy that is not a snapshot, or no .npy at all, is a ValueError
    naming the file; an object array is never unpickled."""

    def _rejects(self, path):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_snapshot(path)

    def test_object_array_is_not_unpickled(self, tmp_path):
        trap = tmp_path / "unpickled"
        path = tmp_path / "objects.npy"
        np.save(path, np.array([_Trap(str(trap)), 1.0], dtype=object), allow_pickle=True)
        self._rejects(path)
        assert not trap.exists()

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((64, 3)),
            np.zeros(64, dtype=[("x", "<f8"), ("eta", "<f8"), ("w", "<f8")]),
            np.zeros(64, dtype=[("x", "<f8"), ("zeta", "<f8")]),
            np.zeros(64, dtype=[("x", "<f8"), ("zeta", "<f8"), ("w", "<f8"), ("v", "<f8")]),
            np.zeros((2, 64), dtype=SNAPSHOT_DTYPE),
        ],
        ids=["plain_n_by_3", "eta_for_zeta", "no_w", "extra_field", "two_dimensional"],
    )
    def test_other_arrays(self, tmp_path, table):
        path = tmp_path / "table.npy"
        np.save(path, table)
        self._rejects(path)

    def test_csv_snapshot(self, tmp_path):
        path = tmp_path / "snap_t0.csv"
        path.write_text("x,zeta,w\n0,0,0\n")
        self._rejects(path)


class TestSnapshotStream:
    """snapshots.npy: one row per snapshot, the bytes np.save writes for the
    table of the rows, read back bit for bit."""

    def _rows(self, grid, count):
        rng = np.random.default_rng(5)
        table = np.zeros(count, dtype=[("t", "<f8"), ("zeta", "<f8", (grid.n,)), ("w", "<f8", (grid.n,))])
        table["t"] = np.arange(count) / 8
        table["zeta"] = rng.standard_normal((count, grid.n))
        table["zeta"][0, : len(SPECIAL)] = SPECIAL
        table["w"] = -table["zeta"][:, ::-1]
        return table

    def _save(self, table):
        buf = io.BytesIO()
        np.save(buf, table, allow_pickle=False)
        return buf.getvalue()

    def test_round_trip(self, grid, tmp_path):
        table = self._rows(grid, 3)
        path = tmp_path / "snapshots.npy"
        with SnapshotStream(path, grid.n, 3) as stream:
            for row in table:
                stream.append(row["t"], row["zeta"], row["w"])
        assert path.read_bytes() == self._save(table)
        assert stream.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        for got, wrote in zip(read_snapshots(path), (table["t"], table["zeta"], table["w"])):
            assert got.tobytes() == wrote.tobytes()

    def test_each_row_is_on_disk_as_it_is_appended(self, grid, tmp_path):
        table = self._rows(grid, 2)
        path = tmp_path / "snapshots.npy"
        with SnapshotStream(path, grid.n, 2) as stream:
            stream.append(table["t"][0], table["zeta"][0], table["w"][0])
            assert path.read_bytes() == self._save(table)[: -table.itemsize]

    def test_a_short_stream_rewrites_its_row_count(self, grid, tmp_path):
        # sized for 5 rows, closed after 2: np.load reads the 2, and the
        # digest is that of the file after the rewrite
        table = self._rows(grid, 2)
        path = tmp_path / "snapshots.npy"
        with SnapshotStream(path, grid.n, 5) as stream:
            for row in table:
                stream.append(row["t"], row["zeta"], row["w"])
        assert path.read_bytes() == self._save(table)
        assert np.load(path, allow_pickle=False).tobytes() == table.tobytes()
        assert stream.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_no_row_past_its_size(self, grid, tmp_path):
        path = tmp_path / "snapshots.npy"
        with SnapshotStream(path, grid.n, 1) as stream:
            stream.append(0.0, np.zeros(grid.n), np.zeros(grid.n))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                stream.append(0.1, np.zeros(grid.n), np.zeros(grid.n))

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros(64, dtype=SNAPSHOT_DTYPE),
            np.zeros(2, dtype=[("t", "<f8"), ("zeta", "<f8", (64,))]),
            np.zeros(2, dtype=[("t", "<f8"), ("zeta", "<f8"), ("w", "<f8")]),
            np.zeros(2, dtype=[("t", "<f8"), ("zeta", "<f8", (64,)), ("w", "<f8", (32,))]),
            np.zeros(2, dtype=[("t", "<f8"), ("zeta", "<f4", (64,)), ("w", "<f4", (64,))]),
            np.zeros(2, dtype=[("t", "<f8"), ("zeta", "<f8", (2, 32)), ("w", "<f8", (2, 32))]),
            np.zeros((2, 2), dtype=[("t", "<f8"), ("zeta", "<f8", (64,)), ("w", "<f8", (64,))]),
        ],
        ids=["snapshot_file", "no_w", "scalar_fields", "unequal_fields", "float32", "two_d_fields",
             "two_dimensional"],
    )
    def test_read_snapshots_refuses_other_arrays(self, tmp_path, table):
        path = tmp_path / "table.npy"
        np.save(path, table)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_snapshots(path)

    def test_read_snapshots_refuses_objects_and_text(self, tmp_path):
        trap = tmp_path / "unpickled"
        path = tmp_path / "objects.npy"
        np.save(path, np.array([_Trap(str(trap)), 1.0], dtype=object), allow_pickle=True)
        text = tmp_path / "snap_t0.csv"
        text.write_text("x,zeta,w\n0,0,0\n")
        for bad in (path, text):
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                read_snapshots(bad)
        assert not trap.exists()


class TestWriterOracle:
    SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-310, 1e300, -1e300, 1 / 3, -7.0]

    def test_snapshot_and_spectrum_bytes_per_grid(self, tmp_path):
        rng = np.random.default_rng(3)
        # two grids with one n, another n, then the first grid again as a new
        # but equal object: each file must carry its own grid's column
        for i, grid in enumerate((Grid(16, 4.0), Grid(16, 2.5), Grid(32, 4.0), Grid(16, 4.0))):
            zeta = np.concatenate([self.SPECIAL, rng.standard_normal(grid.n - len(self.SPECIAL))])
            w = -zeta[::-1]
            snap = tmp_path / f"snap{i}.npy"
            snap_digest = write_snapshot(snap, grid, zeta, w)
            _assert_snapshot_file(snap, grid, zeta, w)
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
        path = tmp_path / "snap.npy"
        write_snapshot(path, grid, np.zeros(grid.n), np.zeros(grid.n))
        amp = mode_amplitudes(grid, read_snapshot(path)[1])
        assert grid.k.shape == amp.shape
        assert np.array_equal(amp, np.zeros(grid.n // 2 + 1))

    def test_single_mode_single_bin(self, grid, tmp_path):
        k0 = grid.k[5]
        path = tmp_path / "snap.npy"
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
        snap = snapshot_name(0.0)
        digest = write_snapshot(tmp_path / snap, grid, np.zeros(grid.n), np.zeros(grid.n))
        write_manifest(str(tmp_path), {"status": "completed", "accepted": 10}, {snap: digest})
        metadata, checksums = read_manifest(tmp_path / "manifest.txt")
        assert metadata["status"] == "completed"
        assert metadata["accepted"] == "10"
        assert set(checksums) == {snap}
        assert len(checksums[snap]) == 64

    def test_checksum_detects_modification(self, grid, tmp_path):
        snap = snapshot_name(0.0)
        digest = write_snapshot(tmp_path / snap, grid, np.zeros(grid.n), np.zeros(grid.n))
        write_manifest(str(tmp_path), {}, {snap: digest})
        _, before = read_manifest(tmp_path / "manifest.txt")
        tampered = (tmp_path / snap).read_bytes() + b"tampered\n"
        (tmp_path / snap).write_bytes(tampered)
        write_manifest(str(tmp_path), {}, {snap: hashlib.sha256(tampered).hexdigest()})
        _, after = read_manifest(tmp_path / "manifest.txt")
        assert before[snap] != after[snap]


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

    def test_a_versioned_run_record_is_read_as_a_run_record(self, tmp_path):
        # run records once named the package version as their generator
        # ("gnwaves 0.1.0"); they are refused without force and replaced
        # with it, and stay another command's output for every other one
        out = tmp_path / "out"
        out.mkdir()
        (out / "snap_t0.csv").write_text("x,zeta,w\n0,0,0\n")
        (out / "notes.txt").write_text("kept\n")
        (out / "manifest.txt").write_text("generator = gnwaves 0.1.0\nsha256 " + "0" * 64 + " snap_t0.csv\n")
        for generator, force in (("gnwaves stability", True), (RUN_GENERATOR, False)):
            with pytest.raises(ValidationError, match="out: "):
                claim_out_dir(str(out), generator, force)
        assert sorted(os.listdir(out)) == ["manifest.txt", "notes.txt", "snap_t0.csv"]
        claim_out_dir(str(out), RUN_GENERATOR, force=True)
        assert os.listdir(out) == ["notes.txt"]
