"""Wires a configuration to a full simulation with on-disk run records.

One call to :func:`run_experiment` builds the grid, multiplier, and initial
state, integrates to t_end appending diagnostics rows and snapshots to the
record as it goes, saves the final state, and finishes the record with a
checksummed manifest, which also names the gnwaves, Python and numpy
versions and the platform that made it; out_dir is claimed by
:func:`gnwaves.io_store.claim_out_dir`. Shear blow-up is a recorded
*result*, as :func:`gnwaves.timestepper.integrate` returns it: the last
accepted state is saved, and the status says "blowup" whenever the
integration's reason is not empty.

No flux is solved for outside the stages: the last stage of an accepted step
is evaluated at the accepted state (FSAL), so diagnostics rows and snapshots
take the flux w = A^{-1} v it left in ``GNWorkspace.w``, and a row
reads zeta, w and the other products of that stage's spectral pass from the
workspace, with no transform of its own. The t = 0 row and snapshot are
those of the integrator's first stage, at the initial state (see
:func:`gnwaves.timestepper.integrate`): at v0 = 0 its solve returns
w0 = 0. The final state takes the flux of the last accepted step (w0 if
none was accepted).

:func:`prepare` is the one set-up of a run and holds its refusals: a
command that runs several configs prepares each before it claims --out.

During time integration, a stage that cavitates or whose solve fails
raises a StageRejected naming the cause (:func:`rhs`); the integrator
rejects the step and shrinks, so such a failure surfaces as step-size
underflow (or, at the first stage, ends the run at t = 0), and the
manifest's reason, the integration's, names the last refusal first.
Resolution is judged once per accepted state, on the flux its FSAL stage
left in the workspace (:func:`_resolution_lost`, the ``on_step`` of
:func:`run_experiment`): a state that has lost it ends the run right
there, with the reason ``spectral resolution lost at t=<t>``. The guard
reads the flux spectrum in two bands: the full ladder, against a rise
toward Nyquist above the aliasing level sqrt(rel_tol), and, under the
2/3 rule (``dealias``, the default), the modes up to the cut n/3 that
the run evolves, against a tail that does not decay toward the cut above
the truncation level 10 rel_tol.

The hydrostatic (Saint-Venant) model is the mu = 0 member of the dispersive
family: a config with mu = 0 runs through the same rhs and diagnostics.
Every model is integrated with its flat-interface linear part propagated
exactly (``linear=ctx.linear``: Lawson stages, see :mod:`gnwaves.timestepper`),
so the capillary waves at the top of the ladder set no step-size limit. The
stages run in Fourier space: :func:`guarded_rhs` has the workspace form each
stage's CG start from the stage's v and its spectrum in the integrator's
frame, and hands the integrator the spectral tendencies of :func:`rhs`, with
no transform between them.
"""

import math
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsRow, compute_row
from .errors import CavitationError, ValidationError
from .io_store import (
    RUN_GENERATOR,
    DiagnosticsWriter,
    SnapshotStream,
    claim_out_dir,
    snapshot_name,
    write_manifest,
    write_snapshot,
    write_spectrum,  # unused here but stays bound: perfbench/layertrace.py rebinds it
    write_text,
)
from .multipliers import FAMILIES, load_symbol_table
from .operators import CAVITATION_FLOOR, GNContext, GNWorkspace, layer_depths, rhs
from .operators import invert_mass_operator  # unused here but stays bound: perfbench/layertrace.py rebinds it
from .params import serialize_config
from .spectral import Grid
from .timestepper import integrate

__all__ = ["RunResult", "build_multiplier", "guarded_rhs", "initial_state", "prepare", "run_experiment"]

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


def initial_state(config, grid):
    """The initial interface zeta0 = ic_amplitude * exp(-ic_width x^2) on
    ``grid``, the +0.0 rest state at ic_amplitude = 0 (where ic_width x^2
    overflows, exp(-inf) = 0 is exact); the fluid starts at rest (w0 = v0
    = 0). One that already cavitates is a configuration error
    (ValidationError naming ``ic_amplitude``, or ``delta`` when the flat
    interface cavitates, its lower layer 1/delta deep, which no amplitude
    mends)."""
    with np.errstate(over="ignore"):
        zeta0 = config.ic_amplitude * np.exp(-config.ic_width * grid.x**2)
    try:
        layer_depths(config.params, zeta0)
    except CavitationError as exc:
        key = "delta" if 1.0 / config.params.delta <= CAVITATION_FLOOR else "ic_amplitude"
        raise ValidationError(key, f"the initial state cavitates: {exc}") from None
    return zeta0


def prepare(config):
    """The set-up of a run of config, ``(spec, ctx, zeta0)``: its multiplier
    (:func:`build_multiplier`), :class:`GNContext` and
    :func:`initial_state`. A grid whose flat-interface symbols overflow, or
    an initial state that already cavitates, is a configuration error
    (ValidationError), raised before anything is written; so is a theta the
    multiplier refuses. It writes nothing."""
    grid = Grid(config.grid_n, config.domain_half_length)
    spec = build_multiplier(config)
    try:
        with np.errstate(over="raise"):
            ctx = GNContext(
                grid, config.params, spec,
                cg_tol=config.cg_tol, cg_max_iter=config.cg_max_iter, dealias=config.dealias,
            )
    except FloatingPointError as exc:
        raise ValidationError(
            "domain_half_length",
            f"the flat-interface symbols overflow on {grid.n} points at domain_half_length = "
            f"{config.domain_half_length!r} with the {spec.label} multiplier ({exc})",
        ) from None
    return spec, ctx, initial_state(config, grid)


def _band_peaks(amp, last):
    """The largest of ``amp`` over the top third (2M/3 < m <= M) and over
    the middle third (M/3 < m <= 2M/3) of the modes 0..M, M = ``last``."""
    return (np.maximum.reduce(amp[2 * last // 3 + 1 : last + 1]),
            np.maximum.reduce(amp[last // 3 + 1 : 2 * last // 3 + 1]))


def _resolution_lost(w, w_hat, rel_tol, last_mode):
    """True when the flux spectrum ``w_hat = rfft(w)`` rises toward Nyquist
    above the aliasing level, or, when the tendencies evolve only the modes
    up to ``last_mode`` < n/2, fails to decay toward that cut above the
    truncation level.

    Resolution is judged on the flux w = A^{-1} v of an accepted state,
    from which every product in :func:`rhs` is built (w^2, w/h, h^3 dx
    F(w/h)). With w_hat_m its unnormalized real-FFT coefficients on the
    n-point grid and T = n * max|w| (an upper bound of every |w_hat_m|), a
    band of modes 0..M is judged by the largest |w_hat_m| over its top
    third (2M/3 < m <= M) against the largest over its middle third (M/3 <
    m <= 2M/3). The state has lost resolution when either test trips:

    * the full ladder (M = n/2): top > middle, the spectrum rises toward
      Nyquist instead of decaying, and top > sqrt(rel_tol) * T. The top
      third is the band whose quadratic products alias back onto the
      resolved modes; its self-aliasing error is of order tail^2, so this
      bound keeps that error below the relative error the step controller
      accepts (``rel_tol``, the tolerance given to :func:`integrate`).
      Under the 2/3 rule it also catches content above the cut, which the
      mask would carry frozen.
    * under the 2/3 rule only, the band the tendencies evolve (M =
      ``last_mode`` = n/3): top > 0.1 * middle and top > 10 * rel_tol * T.
      The mask freezes the ladder's top third, so an ill-posed masked run
      fills the band just below the cut and the first test never sees it;
      and the tail the mask drops is itself the truncation error, so the
      bound is a multiple of ``rel_tol``, not of its square root. Both
      constants are measured on the reference experiment, with a margin of
      2 or more on each side: resolved masked runs keep the tail under 1.8
      * rel_tol (the default config at n = 1024 and 2048) and the top third
      under 0.045 of the middle (the default config at epsilon = 1.5, its
      tail 4e4 * rel_tol); ill-posed ones cross both, the identity runs
      without tension by the tail (it grows exponentially, so a bound 3
      times lower or higher moves their trip by less than 0.2 in t) and the
      hydrostatic run at epsilon = 1.9 by the rise, which reaches 0.1 at t
      = 0.18 and stays under 0.5 while its tail grows to 1e7 * rel_tol.
    """
    n = w.size
    amp = np.abs(w_hat)
    scale = n * np.maximum.reduce(np.abs(w))
    top, middle = _band_peaks(amp, n // 2)
    if top > middle and top > math.sqrt(rel_tol) * scale:
        return True
    if last_mode == n // 2:
        return False
    top, middle = _band_peaks(amp, last_mode)
    return top > 0.1 * middle and top > 10.0 * rel_tol * scale


def guarded_rhs(ctx, workspace):
    """Stage function f(t, y, u) for :func:`integrate` with a spectral
    frame (``linear=ctx.linear``, or a zero ModeRotation for plain
    Dormand-Prince stages) on the stacked (2, n) state y = (zeta, v) and
    its (2, n/2+1) real FFT u, returning the spectral tendencies of
    :func:`rhs` as they are. A stage that cavitates or whose CG solve fails
    raises the CavitationError or ConvergenceError of :func:`rhs`, both
    StageRejected, so :func:`integrate` rejects the step and shrinks.
    :func:`rhs` solves from the CG start that ``workspace`` projects from
    the stage's v, y[1], and its spectrum, u[1], and keeps
    (:meth:`GNWorkspace.warm_start`); only a stage whose solve succeeded
    joins the basis of that projection (:meth:`GNWorkspace.remember`).
    """

    def f(t, y, u):
        tendencies = rhs(ctx, workspace, *y, x0=workspace.warm_start(ctx, y[1], u[1]))
        workspace.remember()
        return tendencies

    return f


def run_experiment(config, out_dir, force=False):
    """Run one experiment into out_dir.

    The integrator steps the stacked state y = (zeta, v), a (2, n) array.
    A diagnostics row is written at t = 0 and after every accepted step, so
    the last row is that of the last accepted state (at t_end or at a
    blow-up). A row of ``snapshots.npy`` is appended at t = 0 and at every
    snapshot time the run reaches, and the final state (at t_end or at a
    blow-up) is also saved as ``snap_t<t_final>.npy``; no spectrum is
    written, as one is recomputed from a snapshot's zeta (see
    :mod:`gnwaves.io_store`). With ``force``, an earlier record in out_dir
    is replaced (its files are removed first). A config that
    :func:`prepare` refuses raises its ValidationError before anything is
    written."""
    t_start = time.monotonic()
    spec, ctx, zeta0 = prepare(config)
    claim_out_dir(out_dir, RUN_GENERATOR, force)
    snapshot_times = tuple(config.snapshot_times) or (config.t_end,)

    y0 = np.stack((zeta0, np.zeros_like(zeta0)))
    workspace = GNWorkspace()

    # the sha256 of every data file, as its writer returned it
    checksums = {"config.txt": write_text(os.path.join(out_dir, "config.txt"), serialize_config(config))}

    # a stream row for t = 0 and one for every snapshot time: it drops those
    # of repeated times and of t = 0, which the integrator reports once
    with (DiagnosticsWriter(os.path.join(out_dir, "diag.csv"), DiagnosticsRow.HEADER) as diag,
          SnapshotStream(os.path.join(out_dir, "snapshots.npy"), config.grid_n, 1 + len(snapshot_times))
          as snapshots):
        accepted_w = None  # flux of the last accepted state (or of t = 0), for the final state

        guarded = config.params.epsilon != 0.0  # rhs is linear at epsilon = 0: no product can alias

        # integrate calls these right after the stage at y (at t = 0 too):
        # the workspace holds y's flux and the products of its spectral pass;
        # a state that has lost resolution ends the run there
        def on_step(t, y, stats):
            nonlocal accepted_w
            accepted_w = workspace.w
            diag.append(compute_row(ctx, t, y[1], workspace))
            if guarded and _resolution_lost(workspace.w, workspace.w_hat, config.rel_tol, ctx.last_mode):
                return f"spectral resolution lost at t={t:.6f}"

        def on_snapshot(t, y):
            snapshots.append(t, y[0], workspace.w)

        result = integrate(
            guarded_rhs(ctx, workspace), (0.0, config.t_end), y0,
            rel_tol=config.rel_tol,
            abs_tol=config.abs_tol,
            snapshot_times=snapshot_times,
            on_step=on_step,
            on_snapshot=on_snapshot,
            linear=ctx.linear,
        )
    status = "blowup" if result.reason else "completed"
    checksums["diag.csv"] = diag.hexdigest()
    checksums["snapshots.npy"] = snapshots.hexdigest()
    final = snapshot_name(result.t)
    checksums[final] = write_snapshot(os.path.join(out_dir, final), ctx.grid, result.y[0], accepted_w)

    metadata = {
        "generator": RUN_GENERATOR,
        "multiplier": spec.label,
        "grid_n": config.grid_n,
        "t_end": config.t_end,
        "status": status,
        "t_final": f"{result.t:.17g}",
        "reason": result.reason,
        "wall_time_s": f"{time.monotonic() - t_start:.3f}",
        "accepted": result.stats.accepted,
        "rejected": result.stats.rejected,
        "rhs_evals": result.stats.rhs_evals,
        # the software environment; kept out of every sha256-covered file
        "gnwaves": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    write_manifest(out_dir, metadata, checksums)
    return RunResult(status=status, t_final=result.t, out_dir=out_dir, stats=result.stats, reason=result.reason)
