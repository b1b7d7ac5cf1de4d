"""Command-line entry point.

Subcommands::

    simulate       full dispersive-model run from a config (or preset)
    sv             same, as the hydrostatic (mu = 0) case
    stability      instability-threshold CSV over a wavenumber grid
    admissibility  numerical admissibility report for the configured symbols
    diag-compare   conserved-quantity drift table across the three families

Exit codes: 0 success, 2 configuration/usage error (including an initial
state that already cavitates), 3 shear blow-up (the
physically expected outcome for unstable runs; scripts must be able to tell
it apart from bugs). Blow-up is step-size underflow: cavitation, a failed
mass-operator solve and lost spectral resolution of the flux all end a run
this way, and the printed reason names lost resolution when that was the
cause.
"""

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, ValidationError
from .io_store import _write_rows, read_diagnostics, write_manifest
from .multipliers import check_admissibility
from .params import ExperimentConfig, parse_config, with_overrides
from .runner import EXIT_BLOWUP, EXIT_OK, EXIT_USAGE, build_multiplier, run_experiment
from .stability import threshold_table

# simulate --preset: config overrides, then one run per built-in family;
# see README for what each one produces
PRESETS = {
    "fig2": {"t_end": 2.0},
    "fig3": {"t_end": 3.0},
    "fig4": {"t_end": 2.0, "inv_bond": 0.0},
}

MULTIPLIER_ALIASES = {"id": "identity", "reg": "regularized", "imp": "improved"}


def _load_config(args):
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        config_dir = os.path.dirname(os.path.abspath(args.config))
    else:
        config = ExperimentConfig()
        config_dir = "."
    override = getattr(args, "multiplier", None)
    if override:
        name = MULTIPLIER_ALIASES.get(override, override)
        config = with_overrides(config, multiplier=name)
    return config, config_dir


def _cmd_simulate(args, model):
    config, config_dir = _load_config(args)
    config = with_overrides(config, model=model)
    preset = getattr(args, "preset", None)
    if preset:
        config = with_overrides(config, **PRESETS[preset])
        # a blow-up inside a comparison preset is a recorded result, not a
        # batch failure; the per-run manifests carry the status
        for name in ("identity", "regularized", "improved"):
            sub = with_overrides(config, multiplier=name)
            result = run_experiment(sub, os.path.join(args.out, name), force=args.force, config_dir=config_dir)
            print(f"{name}: {result.status} at t={result.t_final:.6g} -> {result.out_dir}")
            if result.status == "blowup":
                print(f"  ({result.reason})")
        return EXIT_OK
    result = run_experiment(config, args.out, force=args.force, config_dir=config_dir)
    print(f"{config.multiplier}: {result.status} at t={result.t_final:.6g} -> {result.out_dir}")
    if result.status == "blowup":
        print(f"  ({result.reason})")
        return EXIT_BLOWUP
    return EXIT_OK


def _cmd_stability(args):
    config, _ = _load_config(args)
    if args.k_points < 1:
        raise ValidationError("k_points", f"must be >= 1, got {args.k_points}")
    if not (np.isfinite(args.k_max) and args.k_max > 0):
        raise ValidationError("k_max", f"must be finite and positive, got {args.k_max}")
    os.makedirs(args.out, exist_ok=True)
    k_grid = np.linspace(args.k_max / args.k_points, args.k_max, args.k_points)
    columns = threshold_table(k_grid, config.params, theta1=config.theta1, theta2=config.theta2)
    path = os.path.join(args.out, "stability.csv")
    _write_rows(path, ",".join(columns), list(columns.values()))
    write_manifest(args.out, {"generator": "gnwaves stability", "k_points": args.k_points}, ["stability.csv"])
    print(f"threshold curves -> {path}")
    return EXIT_OK


def _cmd_admissibility(args):
    config, config_dir = _load_config(args)
    spec = build_multiplier(config, base_dir=config_dir)
    reports = [check_admissibility(spec, layer, mu=1.0) for layer in (1, 2)]
    text = "\n".join(report.summary() for report in reports) + "\n"
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "admissibility.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        write_manifest(args.out, {"generator": "gnwaves admissibility"}, ["admissibility.txt"])
    return EXIT_OK


def _drift_table(config, out_dir, force, config_dir, tag):
    quantities = ("Z", "V", "I", "H")
    table = {}
    status = {}
    for name in ("identity", "regularized", "improved"):
        sub = with_overrides(config, multiplier=name)
        result = run_experiment(sub, os.path.join(out_dir, f"{tag}_{name}"), force=force, config_dir=config_dir)
        diag = read_diagnostics(os.path.join(result.out_dir, "diag.csv"))
        table[name] = {q: diag[q][-1] - diag[q][0] for q in quantities}
        status[name] = (result.status, result.t_final)
    return quantities, table, status


def _cmd_diag_compare(args):
    config, config_dir = _load_config(args)
    preset = getattr(args, "preset", None)
    cases = [("with_tension", config)]
    if preset == "table1":
        cases.append(("without_tension", with_overrides(config, inv_bond=0.0)))
    os.makedirs(args.out, exist_ok=True)
    lines = ["case,multiplier,status,t_final,dZ,dV,dI,dH"]
    for tag, case_config in cases:
        quantities, table, status = _drift_table(case_config, args.out, args.force, config_dir, tag)
        for name, drifts in table.items():
            st, t_final = status[name]
            row = [tag, name, st, f"{t_final:.6g}"] + [f"{drifts[q]:.6e}" for q in quantities]
            lines.append(",".join(row))
    path = os.path.join(args.out, "drift_table.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"-> {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="gnwaves", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset_choices=None, needs_out=True):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", required=needs_out, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite an existing run record")
        p.add_argument(
            "--multiplier",
            help="override the configured multiplier: id|reg|imp|custom:<path>",
        )
        if preset_choices:
            p.add_argument("--preset", choices=preset_choices, help="bundled experiment preset")

    p_sim = sub.add_parser("simulate", help="run the dispersive model")
    common(p_sim, preset_choices=tuple(PRESETS))
    p_sv = sub.add_parser("sv", help="run the hydrostatic (mu = 0) model")
    common(p_sv)
    p_stab = sub.add_parser("stability", help="emit instability-threshold curves")
    common(p_stab, preset_choices=("fig1",))
    p_stab.add_argument("--k-max", type=float, default=100.0)
    p_stab.add_argument("--k-points", type=int, default=1000)
    p_adm = sub.add_parser("admissibility", help="report multiplier admissibility")
    common(p_adm, needs_out=False)
    p_diag = sub.add_parser("diag-compare", help="conserved-quantity drift across families")
    common(p_diag, preset_choices=("table1",))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args, model="gn")
        if args.command == "sv":
            return _cmd_simulate(args, model="sv")
        if args.command == "stability":
            return _cmd_stability(args)
        if args.command == "admissibility":
            return _cmd_admissibility(args)
        if args.command == "diag-compare":
            return _cmd_diag_compare(args)
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
