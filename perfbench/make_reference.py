"""Regenerate the stored reference final states zeta(t_end).

Each workload is run with the current code at the tighter step tolerances
rel_tol = 1e-12, abs_tol = 1e-14, and its final interface is written to
perfbench/reference/<workload>.csv as ``x,zeta`` at 17 significant digits.
The benchmark's ``final_state_err`` is measured against these files.

    python3 perfbench/make_reference.py [workload ...]
"""

import os
import shutil
import sys

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402  (after the thread pinning)

from gate import REFERENCE_DIR, reference_path  # noqa: E402
from gnwaves.io_store import read_snapshot, snapshot_name  # noqa: E402
from gnwaves.runner import run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_TOLERANCES = {"rel_tol": 1e-12, "abs_tol": 1e-14}


def main(names):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or WORKLOADS:
        config = WORKLOADS[name].config(**REFERENCE_TOLERANCES)
        out_dir = os.path.join(bootstrap.ROOT, ".perfbench_out", f"reference-{name}")
        shutil.rmtree(out_dir, ignore_errors=True)
        result = run_experiment(config, out_dir)
        if result.status != "completed":
            sys.exit(f"{name}: reference run ended with {result.status}: {result.reason}")
        x, zeta, _ = read_snapshot(os.path.join(out_dir, snapshot_name(config.t_end)))
        header = (
            f"x,zeta  # {name} at t = {config.t_end!r}, rel_tol = {config.rel_tol:g}, "
            f"abs_tol = {config.abs_tol:g}; {result.stats.accepted} accepted steps"
        )
        np.savetxt(reference_path(name), np.column_stack([x, zeta]), fmt="%.17g",
                   delimiter=",", header=header, comments="")
        shutil.rmtree(out_dir)
        print(f"{name}: {result.stats}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
