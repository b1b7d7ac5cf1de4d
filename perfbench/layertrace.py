"""Spans around the public functions each layer of a run calls.

The program is not modified: :func:`traced_layers` rebinds module attributes
to wrappers for the length of one run and restores them afterwards. Spans are
kept in flat in-memory arrays (kind, parent, start, end, failed) and written
out once, after the measurements.
"""

import contextlib
import time
from array import array

import numpy as np

import gnwaves.io_store
import gnwaves.operators
import gnwaves.runner

# (owner, attribute, span name). gnwaves.runner binds invert_mass_operator
# for the diagnostics and snapshot w-recovery, gnwaves.operators for the
# solves inside rhs, so the two separate cleanly.
TRACED = (
    (gnwaves.runner, "integrate", "timestepper.integrate"),
    (gnwaves.runner, "rhs", "operators.rhs"),
    (gnwaves.operators, "invert_mass_operator", "operators.cg"),
    (gnwaves.operators, "apply_mass_operator", "operators.mass_apply"),
    (np.fft, "rfft", "spectral.rfft"),
    (np.fft, "irfft", "spectral.irfft"),
    (gnwaves.runner, "invert_mass_operator", "diagnostics.w_recover"),
    (gnwaves.runner, "compute_row", "diagnostics.row"),
    (gnwaves.runner, "write_snapshot", "io_store.write_snapshot"),
    (gnwaves.runner, "write_spectrum", "io_store.write_spectrum"),
    (gnwaves.runner, "write_manifest", "io_store.write_manifest"),
    (gnwaves.io_store.DiagnosticsWriter, "append", "io_store.diag_append"),
)
RUN = "run"
NAMES = (RUN,) + tuple(name for _, _, name in TRACED)
IO_WRITES = ("io_store.write_snapshot", "io_store.write_spectrum",
             "io_store.write_manifest", "io_store.diag_append")


class Tracer:
    """Span recorder; a span's parent is the span open when it started."""

    def __init__(self):
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._open = [-1]

    def wrap(self, name, fn):
        kind = NAMES.index(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.kind)
            self.kind.append(kind)
            self.parent.append(self._open[-1])
            self.failed.append(0)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    def spans(self):
        """The recorded spans as numpy columns."""
        return {
            "kind": np.array(self.kind, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "failed": np.array(self.failed, dtype=bool),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), **self.spans())


@contextlib.contextmanager
def traced_layers(tracer):
    """Rebind every TRACED attribute to a span-recording wrapper."""
    saved = []
    try:
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_run(tracer, fn, *args, **kwargs):
    """Call fn under a root span and with every layer traced."""
    with traced_layers(tracer):
        return tracer.wrap(RUN, fn)(*args, **kwargs)


def summarize(spans):
    """Per-layer counts and times from one traced run.

    Self time is a span's duration minus that of its direct children.
    Operator figures cover only the work inside rhs; the w-recovery solves
    of diagnostics and snapshots are reported under diagnostics.
    """
    kind, parent = spans["kind"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=kind.size)
    self_time = dur - child_time

    code = {name: i for i, name in enumerate(NAMES)}
    in_rhs = np.zeros(kind.size, dtype=bool)
    rhs_code = code["operators.rhs"]
    for i, (k, p) in enumerate(zip(kind.tolist(), parent.tolist())):
        in_rhs[i] = k == rhs_code or (p >= 0 and in_rhs[p])

    def sel(name, only_rhs=False):
        mask = kind == code[name]
        return mask & in_rhs if only_rhs else mask

    fft = sel("spectral.rfft") | sel("spectral.irfft")
    rhs = sel("operators.rhs")
    cg = sel("operators.cg")
    apply_rhs = sel("operators.mass_apply", only_rhs=True)
    n_rhs = int(rhs.sum())
    n_cg = int(cg.sum())
    io = np.zeros(kind.size, dtype=bool)
    for name in IO_WRITES:
        io |= sel(name)
    return {
        "run_s": float(dur[sel(RUN)].sum()),
        "timestepper.self_s": float(self_time[sel("timestepper.integrate")].sum()),
        "operators.rhs_calls": n_rhs,
        "operators.rhs_s": float(dur[rhs].sum()),
        "operators.rhs_self_s": float(self_time[rhs].sum()),
        "operators.cg_solves": n_cg,
        "operators.cg_s": float(dur[cg].sum()),
        "operators.mass_applies": int(apply_rhs.sum()),
        "operators.mass_applies_per_solve": float(apply_rhs.sum() / max(n_cg, 1)),
        "operators.mass_apply_s": float(dur[apply_rhs].sum()),
        "operators.cg_failures": int((cg & spans["failed"]).sum()),
        "spectral.fft_calls": int(fft.sum()),
        "spectral.fft_per_rhs": float((fft & in_rhs).sum() / max(n_rhs, 1)),
        "spectral.fft_s": float(dur[fft].sum()),
        "diagnostics.rows": int(sel("diagnostics.row").sum()),
        "diagnostics.row_s": float(dur[sel("diagnostics.row")].sum()),
        "diagnostics.w_recover_solves": int(sel("diagnostics.w_recover").sum()),
        "diagnostics.w_recover_s": float(dur[sel("diagnostics.w_recover")].sum()),
        "io_store.write_s": float(dur[io].sum()),
    }
