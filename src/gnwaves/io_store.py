"""On-disk run records: snapshots, spectra, diagnostics, manifest.

Everything is plain CSV with 17 significant digits (round-trip exact for
doubles); at 512 grid points, human-diffable text beats binary. A run
directory contains::

    config.txt        exact copy of the resolved configuration
    manifest.txt      run metadata + sha256 of every data file
    diag.csv          one diagnostics row per accepted step (or stride)
    snap_t<t>.csv     x,zeta,w columns at requested times
    spec_t<t>.csv     k,abs_zeta_hat columns at the same times

The diagnostics file is appended and flushed row by row, so a crashed or
blown-up run keeps everything up to its last accepted step.
"""

import hashlib
import os

import numpy as np

from .spectral import mode_amplitudes

__all__ = [
    "format_time_tag",
    "snapshot_name",
    "spectrum_name",
    "write_snapshot",
    "read_snapshot",
    "write_spectrum",
    "read_spectrum",
    "DiagnosticsWriter",
    "read_diagnostics",
    "write_manifest",
    "read_manifest",
]


def format_time_tag(t):
    tag = f"{t:.6g}"
    return tag


def snapshot_name(t):
    return f"snap_t{format_time_tag(t)}.csv"


def spectrum_name(t):
    return f"spec_t{format_time_tag(t)}.csv"


def _write_rows(path, header, columns):
    """CSV of equal-length columns at 17 significant digits, formatted by
    one %-format over the whole table (the same bytes as f"{v:.17g}")."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    line = "%.17g," * (cols - 1) + "%.17g\n"
    text = (line * rows) % tuple(table.ravel().tolist())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write(text)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def write_snapshot(path, grid, zeta, w):
    """CSV ``x,zeta,w`` at 17 significant digits."""
    _write_rows(path, "x,zeta,w", (grid.x, zeta, w))


def read_snapshot(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def write_spectrum(path, grid, zeta):
    """CSV ``k,abs_zeta_hat`` over the nonnegative wavenumber ladder."""
    _write_rows(path, "k,abs_zeta_hat", (grid.k, mode_amplitudes(grid, zeta)))


def read_spectrum(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


class DiagnosticsWriter:
    """Incremental, crash-safe CSV writer for diagnostics rows."""

    def __init__(self, path, header):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(header + "\n")
        self._fh.flush()

    def append(self, row):
        self._fh.write(row.as_csv() + "\n")
        self._fh.flush()

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


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, metadata, data_files):
    """manifest.txt: ``key = value`` metadata lines followed by one
    ``sha256 <hex> <name>`` line per data file."""
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in metadata.items():
            fh.write(f"{key} = {value}\n")
        for name in sorted(set(data_files)):
            fh.write(f"sha256 {_sha256(os.path.join(out_dir, name))} {name}\n")
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
