"""The benchmark's tracing contract, checked from the test suite.

``perfbench/layertrace.py`` rebinds module attributes of the program to
span-recording wrappers; it measures what it should only while every
attribute it names still exists and every call of a layer goes through the
attribute it rebinds. A traced run of a small experiment checks both.
"""

import os
import sys

import numpy as np
import pytest

import gnwaves.runner as runner_mod
from gnwaves.params import ExperimentConfig, with_overrides

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import layertrace  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    config = with_overrides(
        ExperimentConfig(), grid_n=64, t_end=0.25, rel_tol=1e-8, abs_tol=1e-10, snapshot_times=(0.125, 0.25)
    )
    tracer = layertrace.Tracer()
    result = layertrace.traced_run(tracer, runner_mod.run_experiment, config, str(tmp_path_factory.mktemp("run")))
    return result, tracer.spans()


def test_every_traced_attribute_resolves():
    for owner, attr, name in layertrace.TRACED:
        assert callable(getattr(owner, attr, None)), name


def test_rhs_spans_equal_the_controller_count(traced):
    result, spans = traced
    assert result.status == "completed"
    rhs_code = layertrace.NAMES.index("operators.rhs")
    assert int(np.sum(spans["kind"] == rhs_code)) == result.stats.rhs_evals
    assert layertrace.summarize(spans)["operators.rhs_calls"] == result.stats.rhs_evals


def test_cg_applications_are_traced_mass_applies(traced):
    # CG applies A through the gnwaves.operators attribute, so every
    # application is a mass_apply span directly under a cg span; a solve
    # that bypassed the attribute would leave none
    _, spans = traced
    kind, parent = spans["kind"], spans["parent"]
    cg_spans = kind == layertrace.NAMES.index("operators.cg")
    under_cg = (parent >= 0) & cg_spans[np.maximum(parent, 0)]
    applies = int(np.sum(under_cg & (kind == layertrace.NAMES.index("operators.mass_apply"))))
    summary = layertrace.summarize(spans)
    assert applies == summary["operators.mass_applies"]
    assert applies >= 2 * summary["operators.cg_solves"] > 0
