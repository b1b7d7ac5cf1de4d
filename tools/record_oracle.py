"""Byte-identity oracle for run records: run the bundled presets and the
benchmark's workloads into OUT_DIR and print the sha256 of every data file
they record and the outcome of every run.

    python3 tools/record_oracle.py OUT_DIR

It runs ``gnwaves stability`` (Fig. 1, into ``stability_fig1``),
``gnwaves simulate --preset fig2/fig3/fig4``, ``gnwaves sv``,
``gnwaves diag-compare --preset table1`` and ``gnwaves admissibility`` of
each built-in family (into ``admissibility_<family>``), then one record of
each workload of ``perfbench/workloads.py`` (into ``workload/<name>``) and
one of the default config with ``dealias = false`` to ``t_end = 0.5``
(into ``unmasked``), the only record without the 2/3 rule, with the
gnwaves package of the checkout this script sits in (its ``src/``). The
workload file is only read. It prints one ``<record>/<file> <sha256>``
line per data file and, for every run, one ``<record>/manifest.txt <key>
= <value>`` line per key of OUTCOME_KEYS, sorted together, taken from the
records' manifests, so a moved rejection or a changed blow-up reason shows
even where the data do not. It exits non-zero if a record holds a file or
subdirectory that its manifest does not name. Two checkouts write the same
records when their outputs are equal:

    diff <(python3 A/tools/record_oracle.py outA) <(python3 B/tools/record_oracle.py outB)

To compare against a checkout whose script covers less, copy this script
into its ``tools/`` first. OUT_DIR must not exist or be empty.
"""

import contextlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gnwaves.cli import main as gnwaves_main  # noqa: E402
from gnwaves.io_store import read_manifest  # noqa: E402
from gnwaves.params import ExperimentConfig, with_overrides  # noqa: E402
from gnwaves.runner import EXIT_OK, run_experiment  # noqa: E402

# (record directory, gnwaves arguments before --out)
COMMANDS = (
    ("stability_fig1", ["stability"]),
    ("fig2", ["simulate", "--preset", "fig2"]),
    ("fig3", ["simulate", "--preset", "fig3"]),
    ("fig4", ["simulate", "--preset", "fig4"]),
    ("sv", ["sv"]),
    ("table1", ["diag-compare", "--preset", "table1"]),
    ("admissibility_identity", ["admissibility", "--multiplier", "id"]),
    ("admissibility_regularized", ["admissibility", "--multiplier", "reg"]),
    ("admissibility_improved", ["admissibility", "--multiplier", "imp"]),
)
WORKLOADS_FILE = os.path.join(ROOT, "perfbench", "workloads.py")
# the manifest keys of a run record (one with a status) that state its outcome
OUTCOME_KEYS = ("status", "t_final", "reason", "accepted", "rejected", "rhs_evals")


def load_workloads():
    """The WORKLOADS table of perfbench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def checksum_lines(out_dir):
    """Sorted ``<record>/<file> <sha256>`` lines from every manifest.txt
    under out_dir, with the ``<record>/manifest.txt <key> = <value>`` lines
    of every run's OUTCOME_KEYS; <record> is the manifest's directory
    relative to out_dir.
    A record must hold exactly what its manifest names: a file that no
    sha256 line lists, or a subdirectory that its ``records`` key does not
    name, exits non-zero naming the record."""
    lines = []
    for root, dirs, files in os.walk(out_dir):
        if "manifest.txt" not in files:
            continue
        record = os.path.relpath(root, out_dir).replace(os.sep, "/")
        metadata, checksums = read_manifest(os.path.join(root, "manifest.txt"))
        stray = sorted(set(files) - set(checksums) - {"manifest.txt"})
        stray += sorted(set(dirs) - set(metadata.get("records", "").split(",")))
        if stray:
            sys.exit(f"record_oracle: {record} holds {stray}, which its manifest does not name")
        lines.extend(f"{record}/{name} {digest}" for name, digest in checksums.items())
        if "status" in metadata:
            lines.extend(f"{record}/manifest.txt {key} = {metadata[key]}" for key in OUTCOME_KEYS)
    return sorted(lines)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    out_dir = args[0]
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        sys.exit(f"record_oracle: {out_dir} is not empty")
    for record, command in COMMANDS:
        # stdout carries only the checksum lines
        with contextlib.redirect_stdout(sys.stderr):
            code = gnwaves_main(command + ["--out", os.path.join(out_dir, record)])
        if code != EXIT_OK:
            sys.exit(f"record_oracle: gnwaves {' '.join(command)} exited {code}")
    for name, workload in load_workloads().items():
        run_experiment(workload.config(), os.path.join(out_dir, "workload", name))
    run_experiment(with_overrides(ExperimentConfig(), dealias=False, t_end=0.5), os.path.join(out_dir, "unmasked"))
    print("\n".join(checksum_lines(out_dir)))


if __name__ == "__main__":
    main()
