"""Command-line entry point.

Subcommands::

    simulate       full dispersive-model run from a config (or preset)
    sv             simulate with mu = 0: the hydrostatic (Saint-Venant) case
    stability      instability-threshold CSV over a wavenumber grid
    admissibility  numerical admissibility report for the configured symbols
    diag-compare   conserved-quantity drift table across the three families

Exit codes: 0 success, 2 configuration/usage error (including an initial
state that already cavitates), 3 shear blow-up (the
physically expected outcome for unstable runs; scripts must be able to tell
it apart from bugs). Blow-up is step-size underflow or a first stage that
fails, where the printed reason names the last refusal first (cavitation
or a failed mass-operator solve), or an accepted state whose flux has
lost spectral resolution, where it reads ``spectral resolution lost at
t=<t>``.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .errors import ValidationError
from .io_store import RUN_GENERATOR, claim_out_dir, read_diagnostics, write_manifest, write_table, write_text
from .multipliers import ALIASES, FAMILIES, check_admissibility
from .params import ExperimentConfig, parse_config, with_overrides
from .runner import EXIT_BLOWUP, EXIT_OK, EXIT_USAGE, build_multiplier, prepare, run_experiment
from .stability import threshold_table

# simulate --preset: config overrides, then one run per built-in family;
# see README for what each one produces
PRESETS = {
    "fig2": {"t_end": 2.0},
    "fig3": {"t_end": 3.0},
    "fig4": {"t_end": 2.0, "inv_bond": 0.0},
}


def _load_config(args):
    """The config of ``--config`` (the defaults without it) with the
    ``--multiplier`` override applied. A relative custom table path is made
    absolute against the config file's directory (the cwd without
    ``--config``), so the run record names the table it read."""
    config = ExperimentConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    override = getattr(args, "multiplier", None)
    if override:
        config = with_overrides(config, multiplier=ALIASES.get(override, override))
    if config.multiplier.startswith("custom:"):
        anchor = os.path.abspath(os.path.dirname(args.config or ""))
        path = os.path.join(anchor, config.multiplier.removeprefix("custom:"))
        config = with_overrides(config, multiplier=f"custom:{path}")
    return config


def _run(config, out_dir, force):
    """run_experiment, with one line on its outcome (two at a blow-up)."""
    result = run_experiment(config, out_dir, force=force)
    print(f"{config.multiplier}: {result.status} at t={result.t_final:.6g} -> {result.out_dir}")
    if result.status == "blowup":
        print(f"  ({result.reason})")
    return result


def _run_families(args, cases):
    """One run per built-in family of each (prefix, config) case, into
    --out/<prefix><family>; returns (record, RunResult) pairs. Every run is
    prepared before --out is claimed, so a refused one leaves --out as it
    was. A blow-up inside a family comparison is a recorded result, not a
    batch failure; the per-run manifests carry the status."""
    runs = [(prefix + name, with_overrides(config, multiplier=name)) for prefix, config in cases for name in FAMILIES]
    for _, config in runs:
        prepare(config)
    claim_out_dir(args.out, args.generator, args.force)
    return [(record, _run(config, os.path.join(args.out, record), args.force)) for record, config in runs]


def _cmd_simulate(args, **overrides):
    config = with_overrides(_load_config(args), **overrides)
    preset = getattr(args, "preset", None)
    if preset:
        _run_families(args, [("", with_overrides(config, **PRESETS[preset]))])
        write_manifest(args.out, {"generator": RUN_GENERATOR, "records": ",".join(FAMILIES)}, {})
        return EXIT_OK
    result = _run(config, args.out, args.force)
    return EXIT_BLOWUP if result.status == "blowup" else EXIT_OK


def _cmd_stability(args):
    config = _load_config(args)
    if args.k_points < 1:
        raise ValidationError("k_points", f"must be >= 1, got {args.k_points}")
    if not 0.0 < args.k_max < math.inf:
        raise ValidationError("k_max", f"must be finite and > 0, got {args.k_max}")
    # the table forms inv_bond k^2 and the shear factor's (mu k^2)^2 times
    # powers of delta: a k_max at which one overflows is refused before --out is claimed
    k_grid = np.linspace(args.k_max / args.k_points, args.k_max, args.k_points)
    try:
        with np.errstate(over="raise"):
            columns = threshold_table(k_grid, config.params, theta1=config.theta1, theta2=config.theta2)
    except FloatingPointError as exc:
        raise ValidationError(
            "k_max", f"the threshold table overflows at k_max = {args.k_max} with delta = "
            f"{config.params.delta} and mu = {config.params.mu} ({exc})",
        ) from None
    claim_out_dir(args.out, args.generator, force=True)
    path = os.path.join(args.out, "stability.csv")
    digest = write_table(path, ",".join(columns), list(columns.values()))
    write_manifest(args.out, {"generator": args.generator, "k_points": args.k_points}, {"stability.csv": digest})
    print(f"threshold curves -> {path}")
    return EXIT_OK


def _cmd_admissibility(args):
    spec = build_multiplier(_load_config(args))
    if args.out:
        claim_out_dir(args.out, args.generator, force=True)
    reports = [check_admissibility(spec, layer) for layer in (1, 2)]
    text = "\n".join(report.summary() for report in reports) + "\n"
    print(text, end="")
    if args.out:
        digest = write_text(os.path.join(args.out, "admissibility.txt"), text)
        write_manifest(args.out, {"generator": args.generator}, {"admissibility.txt": digest})
    return EXIT_OK


def _cmd_diag_compare(args):
    config = _load_config(args)
    tension = config.params.inv_bond > 0.0
    cases = [("with_tension_" if tension else "without_tension_", config)]
    if args.preset == "table1":
        if not tension:
            raise ValidationError("inv_bond", "--preset table1 compares runs with and without tension; got 0")
        cases.append(("without_tension_", with_overrides(config, inv_bond=0.0)))
    results = _run_families(args, cases)
    lines = ["case,multiplier,status,t_final,dZ,dV,dI,dH"]
    for record, result in results:
        tag, _, name = record.rpartition("_")
        diag = read_diagnostics(os.path.join(result.out_dir, "diag.csv"))
        drifts = [f"{diag[q][-1] - diag[q][0]:.6e}" for q in ("Z", "V", "I", "H")]
        lines.append(",".join([tag, name, result.status, f"{result.t_final:.6g}", *drifts]))
    text = "\n".join(lines) + "\n"
    path = os.path.join(args.out, "drift_table.csv")
    digest = write_text(path, text)
    records = ",".join(record for record, _ in results)
    write_manifest(args.out, {"generator": args.generator, "records": records}, {"drift_table.csv": digest})
    print(text, end="")
    print(f"-> {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="gnwaves", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads: stability and diag-compare
    # run every family, sv runs at mu = 0, where every family's symbol is 1,
    # and stability and admissibility always replace their own output; a
    # preset runs every family, so it and --multiplier exclude each other
    def command(name, summary, handler, presets=(), out_required=True, force=True, multiplier=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, generator=f"gnwaves {name}")
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", required=out_required, help="output directory")
        if force:
            p.add_argument("--force", action="store_true", help="replace this command's earlier output in --out")
        choice = p.add_mutually_exclusive_group()
        if multiplier:
            choice.add_argument("--multiplier", help="override the configured multiplier: id|reg|imp|custom:<path>")
        if presets:
            choice.add_argument("--preset", choices=presets, help="bundled experiment preset")
        return p

    command("simulate", "run the dispersive model", _cmd_simulate, presets=tuple(PRESETS))
    command("sv", "run the hydrostatic (mu = 0) model", functools.partial(_cmd_simulate, mu=0.0), multiplier=False)
    p_stab = command("stability", "emit instability-threshold curves", _cmd_stability, force=False, multiplier=False)
    p_stab.add_argument("--k-max", type=float, default=100.0)
    p_stab.add_argument("--k-points", type=int, default=1000)
    command("admissibility", "report multiplier admissibility", _cmd_admissibility, out_required=False, force=False)
    command("diag-compare", "conserved-quantity drift across families", _cmd_diag_compare,
            presets=("table1",), multiplier=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
