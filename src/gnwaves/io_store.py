"""On-disk run records: snapshots, diagnostics, manifest.

A run directory contains::

    config.txt        exact copy of the resolved configuration
    manifest.txt      run metadata + sha256 of every data file
    diag.csv          one diagnostics row at t = 0 and per accepted step
    snapshots.npy     t, zeta, w at t = 0 and at every snapshot time
    snap_t<t>.npy     x, zeta, w of the final state (t_end, or the blow-up)

The snapshot stream ``snapshots.npy`` is a NumPy ``.npy`` (NEP 1) of one
row per snapshot, with float64 fields ``t``, ``zeta`` and ``w`` (the last
two of length n), exact as computed; ``x`` is ``Grid(n, L).x`` of the
record's config. Its header is sized up front for every snapshot time, and
each row is appended and flushed as it is taken, one file for all of them
(a file per snapshot took 201 file creations per run writing 200). A run
that stops early rewrites the row count in place: numpy's header leaves
room for a 21-digit axis, so its length does not change.

The final state is a NumPy ``.npy`` of float64 fields ``x, zeta, w``. Both
files take their header from numpy's own writer (the one ``np.save``
calls), and the table is filled field by field behind it: the bytes of
``np.save`` without its per-call work.

The diagnostics file is appended and flushed row by row, so a crashed or
blown-up run keeps everything up to its last accepted step. A record holds
only what cannot be recomputed: the spectrum of the i-th snapshot is
``mode_amplitudes(Grid(n, L), read_snapshots(path)[1][i])``, bit for bit. A
manifest's ``generator`` names the command that wrote it, its ``records =
a,b,c`` the sub-records in its subdirectories; :func:`claim_out_dir` is the
one rule for what an output directory may hold.

Every writer returns the sha256 of the bytes it wrote (the appending
writers keep one as they append), and the manifest records those digests
without reading any file back; the one exception is a snapshot stream that
stopped short of its rows (a blow-up), which is hashed once after its row
count is rewritten.
"""

import hashlib
import io
import os
import re

import numpy as np

from .errors import ValidationError
from .spectral import mode_amplitudes

__all__ = [
    "snapshot_name",
    "write_text",
    "write_table",
    "write_snapshot",
    "read_snapshot",
    "SnapshotStream",
    "read_snapshots",
    "write_spectrum",
    "DiagnosticsWriter",
    "read_diagnostics",
    "write_manifest",
    "read_manifest",
    "RUN_GENERATOR",
    "claim_out_dir",
]

# the generator of every run record and of simulate --preset's manifest
RUN_GENERATOR = "gnwaves simulate"


def snapshot_name(t):
    return f"snap_t{t:.6g}.npy"


_SNAPSHOT_DTYPE = np.dtype([("x", "<f8"), ("zeta", "<f8"), ("w", "<f8")])


def _write_bytes(path, data):
    """Write ``data`` to path; returns the sha256 hex digest of it."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def write_text(path, text):
    """Write ``text`` to path as UTF-8; returns the sha256 of the bytes."""
    return _write_bytes(path, text.encode("utf-8"))


def write_table(path, header, columns):
    """CSV of equal-length columns at 17 significant digits, formatted by
    one %-format over the whole table (the same bytes as f"{v:.17g}");
    returns the sha256 of the file."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    line = "%.17g," * (cols - 1) + "%.17g\n"
    return write_text(path, header + "\n" + (line * rows) % tuple(table.ravel().tolist()))


def _npy_header(dtype, shape):
    """The bytes ``np.save`` writes before the data of a C-ordered array of
    ``dtype`` and ``shape``: its magic string and padded header, whose
    length does not depend on the row count of ``shape``."""
    buf = io.BytesIO()
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue()


def _load_table(path, what, expected, accepts):
    """The fields of the 1-d structured array that ``path`` holds, as
    contiguous arrays, when ``accepts(dtype)``; another file is a ValueError
    naming it as not a ``what``, which ``expected`` describes."""
    try:
        table = np.load(path, allow_pickle=False)
    except ValueError as exc:
        raise ValueError(f"{path} is not a {what}: {exc}") from exc
    if not isinstance(table, np.ndarray) or table.ndim != 1 or not accepts(table.dtype):
        raise ValueError(f"{path} is not a {what}: expected {expected}")
    return tuple(np.ascontiguousarray(table[name]) for name in table.dtype.names)


def write_snapshot(path, grid, zeta, w):
    """``.npy`` of float64 fields ``x, zeta, w``, the bytes ``np.save``
    writes for that table; returns its sha256."""
    table = np.empty(grid.n, dtype=_SNAPSHOT_DTYPE)
    table["x"] = grid.x
    table["zeta"] = zeta
    table["w"] = w
    return _write_bytes(path, _npy_header(_SNAPSHOT_DTYPE, (grid.n,)) + table.tobytes())


def read_snapshot(path):
    """``x, zeta, w`` as float64 arrays; another file is a ValueError naming it."""
    return _load_table(path, "snapshot", f"a 1-d array of dtype {_SNAPSHOT_DTYPE}",
                       lambda dtype: dtype == _SNAPSHOT_DTYPE)


def write_spectrum(path, grid, zeta):
    """CSV ``k,abs_zeta_hat`` over the nonnegative wavenumber ladder;
    returns its sha256. No record writes it (see the module docstring)."""
    return write_table(path, "k,abs_zeta_hat", (grid.k, mode_amplitudes(grid, zeta)))


class _AppendedFile:
    """A file written by appending: every write is flushed as it is made,
    and :meth:`hexdigest` is the sha256 of the bytes written so far."""

    def __init__(self, path):
        self.path = path
        self._digest = hashlib.sha256()
        self._fh = open(path, "wb")

    def _write(self, data):
        self._fh.write(data)
        self._fh.flush()
        self._digest.update(data)

    def hexdigest(self):
        return self._digest.hexdigest()

    def close(self):
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class DiagnosticsWriter(_AppendedFile):
    """Incremental, crash-safe CSV writer for diagnostics rows; every row is
    flushed as it is appended."""

    def __init__(self, path, header):
        super().__init__(path)
        self._write((header + "\n").encode("utf-8"))

    def append(self, row):
        self._write((row.as_csv() + "\n").encode("utf-8"))


def _stream_dtype(shape):
    """The row of a snapshot stream whose fields ``zeta`` and ``w`` have ``shape``."""
    return np.dtype([("t", "<f8"), ("zeta", "<f8", shape), ("w", "<f8", shape)])


class SnapshotStream(_AppendedFile):
    """The snapshot stream of a run (see the module docstring): a ``.npy``
    sized for ``rows`` snapshots on an n-point grid, one row appended and
    flushed per :meth:`append`. Closing a stream that holds fewer rows
    rewrites its row count in place and hashes the file once, so
    :meth:`hexdigest` after :meth:`close` is that of the file on disk."""

    def __init__(self, path, n, rows):
        super().__init__(path)
        self._rows, self._count = rows, 0
        self._row = np.empty((), dtype=_stream_dtype((n,)))
        self._write(_npy_header(self._row.dtype, (rows,)))

    def append(self, t, zeta, w):
        if self._count == self._rows:
            raise ValueError(f"{self.path} is sized for {self._rows} snapshots")
        row = self._row
        row["t"] = t
        row["zeta"] = zeta
        row["w"] = w
        self._write(row.tobytes())
        self._count += 1

    def close(self):
        if not self._fh.closed and self._count < self._rows:
            self._fh.seek(0)
            self._fh.write(_npy_header(self._row.dtype, (self._count,)))
            self._fh.close()
            with open(self.path, "rb") as fh:
                self._digest = hashlib.sha256(fh.read())
        super().close()


def read_snapshots(path):
    """The ``t``, ``zeta`` and ``w`` of a snapshot stream as float64 arrays
    of shapes (rows,), (rows, n) and (rows, n); another file is a
    ValueError naming it."""
    return _load_table(
        path, "snapshot stream", "a 1-d array of float64 fields t, zeta (n,), w (n,)",
        lambda dtype: dtype.names == ("t", "zeta", "w") and len(dtype["zeta"].shape) == 1
        and dtype == _stream_dtype(dtype["zeta"].shape),
    )


def read_diagnostics(path):
    """Diagnostics CSV back as a dict of named columns."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def write_manifest(out_dir, metadata, checksums):
    """manifest.txt: ``key = value`` metadata lines followed by one
    ``sha256 <hex> <name>`` line per data file, sorted by name, from the
    ``checksums`` mapping of name to the digest its writer returned."""
    lines = [f"{key} = {value}\n" for key, value in metadata.items()]
    lines += [f"sha256 {checksums[name]} {name}\n" for name in sorted(checksums)]
    path = os.path.join(out_dir, "manifest.txt")
    write_text(path, "".join(lines))
    return path


def read_manifest(path):
    metadata, checksums = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("sha256 "):
                _, hexdigest, name = line.split(" ", 2)
                checksums[name] = hexdigest
            else:
                key, _, value = line.partition("=")
                metadata[key.strip()] = value.strip()
    return metadata, checksums


def _remove_output(out_dir):
    """Remove the files out_dir/manifest.txt lists, then each of its
    ``records`` by this same rule (and its directory once empty), then the
    manifest. A name that leaves out_dir, or a link, is never followed."""
    manifest = os.path.join(out_dir, "manifest.txt")
    metadata, checksums = read_manifest(manifest)
    records = metadata.get("records", "").split(",")
    for name in [*checksums, *records]:
        path = os.path.join(out_dir, name)
        if name in ("", ".", "..") or os.path.basename(name) != name:
            continue
        if name in checksums and os.path.isfile(path):
            os.remove(path)
        elif name in records and not os.path.islink(path) and os.path.isfile(os.path.join(path, "manifest.txt")):
            _remove_output(path)
            if not os.listdir(path):
                os.rmdir(path)
    os.remove(manifest)


def claim_out_dir(out_dir, generator, force):
    """Create out_dir for ``generator``'s output. Another generator's
    manifest.txt there is an error even with ``force``; the generator's own is
    an error without ``force`` and removed with it. Errors touch nothing.
    ``gnwaves <version>`` (older run records) reads as :data:`RUN_GENERATOR`."""
    manifest = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(manifest):
        owner = read_manifest(manifest)[0].get("generator")
        if re.fullmatch(r"gnwaves \d\S*", owner or ""):
            owner = RUN_GENERATOR
        if owner != generator:
            raise ValidationError("out", f"{out_dir} holds the output of {owner}, not of {generator}")
        if not force:
            raise ValidationError("out", f"{out_dir} already holds output of {generator} (use force to replace it)")
        _remove_output(out_dir)
    os.makedirs(out_dir, exist_ok=True)
