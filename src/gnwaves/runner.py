"""Wires a configuration to a full simulation with on-disk run records.

One call to :func:`run_experiment` builds the grid, multiplier, and initial
state, integrates to t_end writing diagnostics and snapshots as it goes, and
finishes the record with a checksummed manifest, which also names the
gnwaves, Python and numpy versions and the platform that made it; out_dir
is claimed by :func:`gnwaves.io_store.claim_out_dir`. Shear blow-up
(step-size underflow) is a recorded *result*, not an exception: the last
healthy state is saved and the returned status says "blowup".

No flux is solved for outside the stages: the last stage of an accepted step
is evaluated at the accepted state (FSAL), so diagnostics rows and snapshots
take the flux w = A^{-1} v it left in ``GNWorkspace.w_prev``, and a row
reads the other products of that stage's spectral pass from the workspace,
with no transform of its own (the t = 0 row runs the pass itself, not
``rhs``); the blow-up snapshot takes the flux of the last accepted step (w0
if none was accepted).

During time integration, cavitation, solver-convergence failures and loss of
spectral resolution inside a trial stage are converted to NaN tendencies
(:func:`guarded_rhs`); the error controller then rejects the step and shrinks,
so every terminal failure surfaces uniformly as step-size underflow. A run
ended by lost resolution says so in the manifest's reason, with the time of
the stage that tripped the guard.

The hydrostatic (Saint-Venant) model is the mu = 0 member of the dispersive
family: a config with mu = 0 runs through the same rhs and diagnostics.
Every model is integrated with its flat-interface linear part propagated
exactly (``linear=ctx.linear``: Lawson stages, see :mod:`gnwaves.timestepper`),
so the capillary waves at the top of the ladder set no step-size limit.
"""

import math
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsRow, compute_row
from .errors import CavitationError, ConvergenceError, StepUnderflowError, ValidationError
from .io_store import (
    RUN_GENERATOR,
    DiagnosticsWriter,
    claim_out_dir,
    snapshot_name,
    write_manifest,
    write_snapshot,
    write_spectrum,  # unused here but stays bound: perfbench/layertrace.py rebinds it
    write_text,
)
from .multipliers import FAMILIES, load_symbol_table
# invert_mass_operator is unused here but stays bound: perfbench/layertrace.py rebinds it
from .operators import GNContext, GNWorkspace, invert_mass_operator, layer_depths, rhs
from .params import serialize_config
from .spectral import Grid
from .timestepper import REL_TOL, integrate

__all__ = ["RunResult", "build_multiplier", "guarded_rhs", "initial_state", "run_experiment"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BLOWUP = 3


@dataclass
class RunResult:
    status: str          # completed | blowup
    t_final: float
    out_dir: str
    stats: object
    reason: str = ""


def build_multiplier(config):
    """Resolve the config's multiplier string into a MultiplierSpec: a family
    of :data:`~gnwaves.multipliers.FAMILIES`, or the table at a custom path,
    read as given (``gnwaves`` makes it absolute when it reads the config)."""
    name = config.multiplier
    if name in FAMILIES:
        return FAMILIES[name](config.params.delta, config.theta1, config.theta2)
    return load_symbol_table(name.removeprefix("custom:"))


def initial_state(config, grid=None):
    """The initial interface zeta0 = ic_amplitude * exp(-ic_width x^2) on
    ``grid`` (config's grid when None), the +0.0 rest state at
    ic_amplitude = 0; the fluid starts at rest (w0 = v0 = 0). One that
    already cavitates is a configuration error (ValidationError naming
    ``ic_amplitude``). Neither the multiplier nor ``inv_bond`` enters, so a
    command running several families checks once, before it claims --out."""
    grid = Grid(config.grid_n, config.domain_half_length) if grid is None else grid
    zeta0 = config.ic_amplitude * np.exp(-config.ic_width * grid.x**2)
    try:
        layer_depths(config.params, zeta0)
    except CavitationError as exc:
        raise ValidationError("ic_amplitude", f"the initial state cavitates: {exc}") from None
    return zeta0


def _resolution_lost(w, w_hat, rel_tol):
    """True when the flux spectrum ``w_hat = rfft(w)`` rises toward Nyquist
    above the tail level (see :func:`guarded_rhs`)."""
    n = w.size
    amp = np.abs(w_hat)
    top = np.maximum.reduce(amp[n // 3 + 1 :])
    middle = np.maximum.reduce(amp[n // 6 + 1 : n // 3 + 1])
    return top > middle and top > math.sqrt(rel_tol) * n * np.maximum.reduce(np.abs(w))


def guarded_rhs(ctx, workspace, rel_tol=REL_TOL):
    """Stage function f(t, y) for :func:`integrate` on the stacked (2, n)
    state y = (zeta, v), returning the (2, n) tendencies of :func:`rhs` as
    they are. A stage that cavitates, whose CG solve fails, or whose flux
    has lost spectral resolution returns NaN tendencies, so the error
    controller rejects the step and shrinks.

    Resolution is judged on the flux w = A^{-1} v of the stage, from which
    every product in :func:`rhs` is built (w^2, w/h, h^3 dx F(w/h)). With
    w_hat_m its unnormalized real-FFT coefficients on the n-point grid, the
    stage has lost resolution when the largest |w_hat_m| over the top third
    of the ladder (m > n/3) exceeds both

    * the largest over the middle third (n/6 < m <= n/3): the spectrum
      rises toward Nyquist instead of decaying, and
    * sqrt(rel_tol) * n * max|w|.

    The top third is the band whose quadratic products alias back onto the
    resolved modes; its self-aliasing error is of order tail^2, so the second
    bound keeps that error below the relative error the step controller
    accepts (``rel_tol``, the tolerance given to :func:`integrate`). A trip
    is sticky: ``workspace.resolution_lost_at`` records the stage time and
    every later stage of the integration returns NaN too, so the step
    shrinks to underflow from the last resolved state instead of creeping up
    to the bound.
    """
    guarded = ctx.params.epsilon != 0.0  # rhs is linear at epsilon = 0: no product can alias

    def f(t, y):
        if workspace.resolution_lost_at is not None:
            return np.full(y.shape, np.nan)
        try:
            tendencies = rhs(ctx, *y, workspace=workspace)
        except (CavitationError, ConvergenceError):
            return np.full(y.shape, np.nan)
        if guarded and _resolution_lost(workspace.w_prev, workspace.w_hat, rel_tol):
            workspace.resolution_lost_at = t
            return np.full(y.shape, np.nan)
        return tendencies

    return f


def run_experiment(config, out_dir, force=False):
    """Run one experiment into out_dir.

    The integrator steps the stacked state y = (zeta, v), a (2, n) array.
    A diagnostics row is written at t = 0 and after every accepted step, so
    the last row is that of the last accepted state (at t_end or at a
    blow-up), and a snapshot at t = 0, at every snapshot time and at a
    blow-up; no spectrum is written, as one is recomputed from a snapshot's
    zeta (see :mod:`gnwaves.io_store`). With ``force``, an earlier record in
    out_dir is replaced (its files are removed first). An initial state that
    already cavitates is a configuration error (ValidationError), raised
    before anything is written."""
    t_start = time.monotonic()
    grid = Grid(config.grid_n, config.domain_half_length)
    spec = build_multiplier(config)
    ctx = GNContext(
        grid, config.params, spec,
        cg_tol=config.cg_tol, cg_max_iter=config.cg_max_iter, dealias=config.dealias,
    )
    zeta0 = initial_state(config, grid)
    claim_out_dir(out_dir, RUN_GENERATOR, force)
    snapshot_times = tuple(config.snapshot_times) or (config.t_end,)

    w0 = v0 = np.zeros(grid.n)
    y0 = np.stack((zeta0, v0))

    workspace = GNWorkspace()

    # the sha256 of every data file, as its writer returned it
    checksums = {"config.txt": write_text(os.path.join(out_dir, "config.txt"), serialize_config(config))}

    def save_state(t, zeta, w):
        snap = snapshot_name(t)
        checksums[snap] = write_snapshot(os.path.join(out_dir, snap), grid, zeta, w)

    status, reason = "completed", ""
    with DiagnosticsWriter(os.path.join(out_dir, "diag.csv"), DiagnosticsRow.HEADER) as diag:
        diag.append(compute_row(ctx, 0.0, zeta0, v0, w0))
        save_state(0.0, zeta0, w0)
        accepted_w = w0  # flux of the last accepted state, for the blow-up snapshot

        # integrate calls these right after the stage at y: the workspace
        # holds y's flux and the products of its spectral pass
        def on_step(t, y, stats):
            nonlocal accepted_w
            accepted_w = workspace.w_prev
            diag.append(compute_row(ctx, t, *y, accepted_w, workspace))

        def on_snapshot(t, y):
            save_state(t, y[0], workspace.w_prev)

        try:
            result = integrate(
                guarded_rhs(ctx, workspace, rel_tol=config.rel_tol), (0.0, config.t_end), y0,
                rel_tol=config.rel_tol,
                abs_tol=config.abs_tol,
                snapshot_times=snapshot_times,
                on_step=on_step,
                on_snapshot=on_snapshot,
                linear=ctx.linear,
            )
            t_final, y_final, stats = result.t, result.y, result.stats
        except StepUnderflowError as blowup:
            status = "blowup"
            reason = str(blowup)
            if workspace.resolution_lost_at is not None:
                reason = f"spectral resolution lost at t={workspace.resolution_lost_at:.6f}; {reason}"
            t_final, y_final, stats = blowup.t, blowup.state, blowup.stats
            save_state(t_final, y_final[0], accepted_w)
    checksums["diag.csv"] = diag.hexdigest()

    metadata = {
        "generator": RUN_GENERATOR,
        "multiplier": spec.label,
        "grid_n": grid.n,
        "t_end": config.t_end,
        "status": status,
        "t_final": f"{t_final:.17g}",
        "reason": reason,
        "wall_time_s": f"{time.monotonic() - t_start:.3f}",
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "rhs_evals": stats.rhs_evals,
        # the software environment; kept out of every sha256-covered file
        "gnwaves": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    write_manifest(out_dir, metadata, checksums)
    return RunResult(status=status, t_final=t_final, out_dir=out_dir, stats=stats, reason=reason)
