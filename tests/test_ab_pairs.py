"""The summary of tools/ab_pairs.py on canned benchmark output; no benchmark
runs here."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import ab_pairs  # noqa: E402

END_TO_END = [
    {"name": "wall_rel", "unit": "ref", "better": "lower", "bound": 0.15},
    {"name": "accuracy", "unit": "1", "better": "higher", "bound": 0.25},
    {"name": "energy_drift", "unit": "1", "better": "lower", "bound": 0.25},
]


def output(wall_rel, accuracy, drift=1e-9, failed=0):
    """Benchmark stdout: human-readable lines, then the JSON result line."""
    result = {
        "correct": failed == 0,
        "attempted": 5,
        "failed": failed,
        "metrics": {
            "wall_rel": {"value": wall_rel, "unit": "ref"},
            "accuracy": {"value": accuracy, "unit": "1"},
            "energy_drift": {"value": drift, "unit": "1"},
        },
    }
    return f"perfbench ref_reg_tension seed=1\nwall_rel {wall_rel} ref\n{json.dumps(result)}\n"


def test_last_json_line_is_the_result():
    text = output(4000.0, 0.5) + "trailing text\n"
    assert ab_pairs.last_json(text)["metrics"]["wall_rel"]["value"] == 4000.0
    with pytest.raises(ValueError):
        ab_pairs.last_json("no result here\n{not json\n")


def test_summary_counts_wins_in_the_better_direction():
    parent_wall = [4500, 4520, 4480, 4510, 4490, 4505, 4495, 4515, 4485, 4500]
    change_wall = [4000, 4010, 3990, 4005, 3995, 4600, 4002, 3998, 4001, 4003]
    pairs = [
        (ab_pairs.last_json(output(a, 0.5)), ab_pairs.last_json(output(b, 0.5 + 0.01 * (i % 2))))
        for i, (a, b) in enumerate(zip(parent_wall, change_wall))
    ]
    rows = {row["name"]: row for row in ab_pairs.summarize(END_TO_END, pairs)}

    wall = rows["wall_rel"]
    assert wall["pairs"] == 10 and wall["wins"] == 9 and wall["losses"] == 1
    assert wall["parent"][1] == 4500 and wall["change"][1] == 4001.5
    assert wall["gain"]  # 9 of 10, and a 498.5 gap against the parent's IQR of 20

    # higher is better: the change wins the 5 pairs it raised, ties win nothing
    accuracy = rows["accuracy"]
    assert accuracy["wins"] == 5 and accuracy["losses"] == 0 and not accuracy["gain"]

    drift = rows["energy_drift"]
    assert drift["wins"] == drift["losses"] == 0 and not drift["gain"]
    assert "wall_rel" in ab_pairs.format_rows(list(rows.values()))


def test_a_gap_inside_the_parent_spread_is_no_gain():
    parent_wall = [4000, 4400, 4100, 4300, 4200, 4000, 4400, 4100, 4300, 4200]
    pairs = [(ab_pairs.last_json(output(a, 0.5)), ab_pairs.last_json(output(a - 50, 0.5))) for a in parent_wall]
    (wall, *_) = ab_pairs.summarize(END_TO_END, pairs)
    assert wall["wins"] == 10 and not wall["gain"]


def test_failed_share_sums_the_runs():
    results = [ab_pairs.last_json(output(1.0, 0.5, failed=f)) for f in (0, 2, 1)]
    assert ab_pairs.failed_share(results) == (3, 15)
