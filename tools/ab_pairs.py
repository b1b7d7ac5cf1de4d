"""Paired A/B runs of the benchmark: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other, and the side that runs first alternates from pair to pair;
pair i passes ``--seed K+i`` to both sides. Each run's result is the last
JSON line it prints. For every end-to-end metric of the change's
``BENCHMARK.json`` the summary gives each side's median and quartiles and
the pairs the change won, in the metric's ``better`` direction (ties count
for neither side), and whether the metric meets the rule for claiming a
gain: the change wins at least nine tenths of the pairs, and the medians
differ, in its favour, by more than the parent's interquartile range. The
failed share of each side's runs is printed too.

The script only reads ``perfbench/`` and ``BENCHMARK.json``; the runs write
``.perfbench_out/`` in their own checkouts, as ``perfbench/run.py`` does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def last_json(stdout):
    """The last line of ``stdout`` that parses as a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    raise ValueError("no JSON result line in the benchmark's output")


def run_side(root, workload, seconds, seed):
    """One ``perfbench/run.py --trace 0`` run in the checkout ``root``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return last_json(proc.stdout)


def quartiles(values):
    """(q1, median, q3), the quartiles as ``perfbench/run.py`` prints them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(end_to_end, pairs):
    """One row per end-to-end metric from ``pairs``, a list of
    (parent result, change result) JSON objects."""
    rows = []
    for entry in end_to_end:
        name, sign = entry["name"], (1.0 if entry["better"] == "lower" else -1.0)
        values = [(parent["metrics"][name]["value"], change["metrics"][name]["value"]) for parent, change in pairs]
        values = [(a, b) for a, b in values if a is not None and b is not None]
        if not values:
            rows.append({"name": name, "unit": entry["unit"], "pairs": 0})
            continue
        parent_q = quartiles([a for a, _ in values])
        change_q = quartiles([b for _, b in values])
        wins = sum(sign * (a - b) > 0 for a, b in values)
        losses = sum(sign * (a - b) < 0 for a, b in values)
        gap = sign * (parent_q[1] - change_q[1])
        rows.append({
            "name": name,
            "unit": entry["unit"],
            "pairs": len(values),
            "parent": parent_q,
            "change": change_q,
            "wins": wins,
            "losses": losses,
            "rel_change": (change_q[1] - parent_q[1]) / parent_q[1] if parent_q[1] else float("nan"),
            "gain": wins >= WIN_SHARE * len(values) and gap > parent_q[2] - parent_q[0],
        })
    return rows


def failed_share(results):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return failed, attempted


def _value(result, name):
    value = result["metrics"][name]["value"]
    return "None" if value is None else f"{value:.6g}"


def format_rows(rows):
    lines = [f"{'metric':16s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s} {'rel':>8s} "
             f"{'won':>7s} gain"]
    for row in rows:
        if not row["pairs"]:
            lines.append(f"{row['name']:16s} no values")
            continue
        parent = "/".join(f"{v:.4g}" for v in row["parent"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        won = f"{row['wins']}/{row['pairs']}"
        lines.append(f"{row['name']:16s} {parent:>34s} {change:>34s} {row['rel_change']:+8.2%} "
                     f"{won:>7s} {'yes' if row['gain'] else 'no'}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            sides.reverse()
        result = {label: run_side(root, args.workload, args.seconds, seed) for label, root in sides}
        pairs.append((result["parent"], result["change"]))
        summary = ", ".join(
            f"{e['name']} {_value(result['parent'], e['name'])} -> {_value(result['change'], e['name'])}"
            for e in end_to_end
        )
        print(f"pair {i + 1}/{args.pairs} ({sides[0][0]} first): {summary}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s")
    print(format_rows(summarize(end_to_end, pairs)))
    for label, results in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        failed, attempted = failed_share(results)
        print(f"{label} failed runs: {failed} of {attempted}")


if __name__ == "__main__":
    main()
