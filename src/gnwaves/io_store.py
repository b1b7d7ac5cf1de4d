"""On-disk run records: snapshots, diagnostics, manifest.

Everything is plain CSV with 17 significant digits (round-trip exact for
doubles); at 512 grid points, human-diffable text beats binary. A run
directory contains::

    config.txt        exact copy of the resolved configuration
    manifest.txt      run metadata + sha256 of every data file
    diag.csv          one diagnostics row at t = 0 and per accepted step
    snap_t<t>.csv     x,zeta,w columns at requested times

The diagnostics file is appended and flushed row by row, so a crashed or
blown-up run keeps everything up to its last accepted step. A record holds
only what cannot be recomputed: the spectrum of a snapshot is
``mode_amplitudes(Grid(n, L), read_snapshot(path)[1])``, bit for bit. A
manifest's ``generator`` names the command that wrote it, its ``records =
a,b,c`` the sub-records in its subdirectories; :func:`claim_out_dir` is the
one rule for what an output directory may hold.

Every writer returns the sha256 of the bytes it wrote (the diagnostics
writer keeps one as it appends), and the manifest records those digests
without reading any file back. The grid column of snapshots is rendered once
per grid, as literal text in the row format.
"""

import functools
import hashlib
import os

import numpy as np

from .errors import ValidationError
from .spectral import mode_amplitudes

__all__ = [
    "format_time_tag",
    "snapshot_name",
    "write_text",
    "write_snapshot",
    "read_snapshot",
    "write_spectrum",
    "DiagnosticsWriter",
    "read_diagnostics",
    "write_manifest",
    "read_manifest",
    "claim_out_dir",
]


def format_time_tag(t):
    tag = f"{t:.6g}"
    return tag


def snapshot_name(t):
    return f"snap_t{format_time_tag(t)}.csv"


def write_text(path, text):
    """Write ``text`` to path as UTF-8; returns the sha256 hex digest of the
    bytes written."""
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def _write_rows(path, header, columns):
    """CSV of equal-length columns at 17 significant digits, formatted by
    one %-format over the whole table (the same bytes as f"{v:.17g}");
    returns the sha256 of the file."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    line = "%.17g," * (cols - 1) + "%.17g\n"
    return write_text(path, header + "\n" + (line * rows) % tuple(table.ravel().tolist()))


@functools.lru_cache(maxsize=16)
def _grid_row_format(grid, column, fields):
    """The %-format of a table whose first column is ``grid.<column>``,
    rendered here once as literal text, followed by ``fields`` free %.17g
    columns."""
    row = "%.17g" + ",%%.17g" * fields + "\n"
    return "".join(row % value for value in getattr(grid, column).tolist())


def _write_grid_rows(path, header, grid, column, fields):
    """:func:`_write_rows` of ``(grid.<column>, *fields)``, with the grid
    column taken from :func:`_grid_row_format`."""
    values = np.column_stack(fields).ravel().tolist()
    return write_text(path, header + "\n" + _grid_row_format(grid, column, len(fields)) % tuple(values))


def write_snapshot(path, grid, zeta, w):
    """CSV ``x,zeta,w`` at 17 significant digits; returns its sha256."""
    return _write_grid_rows(path, "x,zeta,w", grid, "x", (zeta, w))


def read_snapshot(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def write_spectrum(path, grid, zeta):
    """CSV ``k,abs_zeta_hat`` over the nonnegative wavenumber ladder;
    returns its sha256. No record writes it (see the module docstring)."""
    return _write_grid_rows(path, "k,abs_zeta_hat", grid, "k", (mode_amplitudes(grid, zeta),))


class DiagnosticsWriter:
    """Incremental, crash-safe CSV writer for diagnostics rows; every row is
    flushed as it is appended, and :meth:`hexdigest` is the sha256 of the
    bytes written so far."""

    def __init__(self, path, header):
        self.path = path
        self._digest = hashlib.sha256()
        self._fh = open(path, "wb")
        self._write(header + "\n")

    def _write(self, text):
        data = text.encode("utf-8")
        self._fh.write(data)
        self._fh.flush()
        self._digest.update(data)

    def append(self, row):
        self._write(row.as_csv() + "\n")

    def hexdigest(self):
        return self._digest.hexdigest()

    def close(self):
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
    an error without ``force`` and removed with it. Errors touch nothing."""
    manifest = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(manifest):
        owner = read_manifest(manifest)[0].get("generator")
        if owner != generator:
            raise ValidationError("out", f"{out_dir} holds the output of {owner}, not of {generator}")
        if not force:
            raise ValidationError("out", f"{out_dir} already holds output of {generator} (use force to replace it)")
        _remove_output(out_dir)
    os.makedirs(out_dir, exist_ok=True)
