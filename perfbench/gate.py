"""Correctness gate applied to the run record of every benchmarked run."""

import hashlib
import os

import numpy as np

from gnwaves.io_store import read_diagnostics, read_manifest, read_snapshot, snapshot_name

# acceptance criterion 2: drift of Z, V, I and relative H over the run
DRIFT_LIMITS = {"Z": 1e-10, "V": 1e-10, "I": 1e-8, "H": 1e-8}
# max |zeta(t_end) - zeta_ref| accepted as the same solution; the stated
# step tolerances give about 1e-10
FINAL_STATE_LIMIT = 1e-8

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload_name):
    return os.path.join(REFERENCE_DIR, f"{workload_name}.csv")


def load_reference(workload_name):
    return np.loadtxt(reference_path(workload_name), delimiter=",", skiprows=1, usecols=1)


# hashed here rather than with io_store's helper, so that the check does not
# share the code it checks
def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(workload, config, result, zeta_ref):
    """Gate one finished run.

    Returns (problems, final_state_err, energy_drift); the run passes when
    ``problems`` is empty.
    """
    problems = []
    out_dir = result.out_dir
    if result.status != "completed" or result.t_final != config.t_end:
        problems.append(f"status {result.status} at t = {result.t_final!r}, expected t_end = {config.t_end!r}")
        return problems, float("nan"), float("nan")

    diag = read_diagnostics(os.path.join(out_dir, "diag.csv"))
    drift = {name: abs(diag[name][-1] - diag[name][0]) for name in DRIFT_LIMITS}
    drift["H"] /= max(abs(diag["H"][0]), 1.0)
    for name, limit in DRIFT_LIMITS.items():
        if not drift[name] <= limit:
            problems.append(f"{name} drift {drift[name]:.3e} exceeds {limit:g}")

    _, checksums = read_manifest(os.path.join(out_dir, "manifest.txt"))
    on_disk = set(os.listdir(out_dir)) - {"manifest.txt"}
    if set(checksums) != on_disk:
        problems.append(f"manifest lists {sorted(set(checksums) ^ on_disk)} inconsistently with the files")
    for name in sorted(set(checksums) & on_disk):
        if _sha256(os.path.join(out_dir, name)) != checksums[name]:
            problems.append(f"sha256 of {name} does not match the manifest")

    _, zeta, _ = read_snapshot(os.path.join(out_dir, snapshot_name(config.t_end)))
    final_err = float(np.max(np.abs(zeta - zeta_ref)))
    if not final_err <= FINAL_STATE_LIMIT:
        problems.append(f"final state differs from the reference by {final_err:.3e} (limit {FINAL_STATE_LIMIT:g})")
    return problems, final_err, float(drift["H"])
