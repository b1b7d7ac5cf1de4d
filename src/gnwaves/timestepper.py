"""Adaptive embedded Runge-Kutta time integration: Dormand-Prince 5(4), in
Lawson's integrating-factor form when a linear part L of the right-hand side
is given.

The propagating solution is 5th order with an embedded 4th-order error
estimate; the pair is FSAL (the seventh stage is evaluated at the new state
and is the first stage of the next step), so an accepted step costs six
right-hand-side evaluations.

With a linear part whose propagator exp(sL) is known exactly (a
:class:`ModeRotation`, e.g. the flat-interface waves of the GN system), the
stages are taken in the frame u = transform of y and pulled back to the
start of the step (Lawson, SIAM J. Numer. Anal. 4, 1967):

    U_i = exp(c_i h L) (u_n + h sum_j a_ij K_j),   Y_i = state of U_i,
    K_i = exp(-c_i h L) (f_hat(t_n + c_i h, Y_i, U_i) - L U_i),

so L is integrated without a step-size limit and only the remainder
f - L y is Runge-Kutta'd. The seventh stage is still the new state (c_7 = 1,
a_7j = b_j), so FSAL, exact snapshot landing and the callback contract below
hold unchanged. Without a linear part the propagator is the identity, the
frame is the state and the stages are plain Dormand-Prince; both run
through one stage loop.

The stage function is f(t, y, u): it gets the stage in both spaces, the
state y and its frame u (u is y without a linear part), and returns its
tendency in the frame, f_hat. With a :class:`ModeRotation` that is the real
FFT of the tendency, so a right-hand side that works in Fourier space hands
its spectral tendencies over as they are, and the stage loop makes one
inverse transform per stage (the stage's state) and none of the tendency.
Plain Dormand-Prince in the spectral frame is a zero ModeRotation, whose
rotations are the identity.

The error estimate h sum_j e_j K_j is taken in the integrating-factor frame
(not rotated to t_n + h) and measured in state space with the elementwise
weighting

    scale_i = abs_tol + rel_tol * max(|y_i|, |y_new_i|),
    err     = sqrt(mean((e_i / scale_i)^2)),   accept iff err <= 1.

The step update is a PI controller (Gustafsson; Hairer & Wanner, Solving
ODEs II, IV.2, as in Hairer's DOPRI5): after an accepted step

    dt *= clip(SAFETY * err^-(1/5 - 0.75 BETA) * err_prev^BETA, MIN_FACTOR, MAX_FACTOR),

where err_prev is the error of the last accepted step, floored at 1e-4; a
rejected step shrinks by clip(SAFETY * err^-(1/5 - 0.75 BETA), MIN_FACTOR, 1).
The initial state is reported first, then requested snapshot times are
landed on exactly by truncating the step, so reported states carry no
interpolation error; a truncated step neither shrinks the natural step
size nor updates err_prev. Every stage, the first one and the probe of
the first step size included, goes through one evaluation, which counts it
and refuses non-finite tendencies as the stage function refuses a stage:
by raising :class:`~gnwaves.errors.StageRejected`. A refused trial stage
ends its attempt at once, which is rejected at the maximum shrink factor.

Every integration returns how it ended: the last accepted state, its
StepStats and a ``reason``, empty when it reached t1. A run stops early
when its first stage fails (no step can start without it, at any step
size), when dt falls below 1e-14 (the reason names the last refusal
first), or when ``on_step`` returns a reason at an accepted state, as
Hairer's DOPRI5 ends a run when its SOLOUT returns IRTRN < 0 (Hairer,
Norsett & Wanner, Solving ODEs I, II.5). That is the expected outcome for
shear-unstable runs, not a crash.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import StageRejected, ValidationError

__all__ = ["ModeRotation", "StepStats", "IntegrationResult", "integrate"]

# Dormand-Prince 5(4) tableau; the last row of _A is the 5th-order weights b5
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# b5 - b4: local error estimator weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

REL_TOL = 1e-10
ABS_TOL = 1e-12
DT_FLOOR = 1e-14
# the PI step update of the module docstring:
# dt *= clip(SAFETY * err^-(1/5 - 0.75 BETA) * err_prev^BETA, MIN_FACTOR, MAX_FACTOR)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
BETA = 0.08
ERR_PREV_FLOOR = 1e-4
_ALPHA = 0.2 - 0.75 * BETA


class _Identity:
    """The propagator of a zero linear part: plain Dormand-Prince stages."""

    def to_frame(self, y):
        return y

    to_state = to_frame

    def tendency(self, f_hat, u):
        return f_hat

    def rotations(self, s):
        return None

    def rotate(self, rotations, i, u, inverse=False):
        return u


_IDENTITY = _Identity()


class ModeRotation:
    """exp(sL) for a linear part L that couples, mode by mode, the two rows
    of a stacked state y = (p, q) of real fields on an even n-point grid:

        d/dt (p_hat, q_hat) = L (p_hat, q_hat),   L = [[0, upper], [lower, 0]],

    with ``upper``, ``lower`` given on the n/2+1 real-FFT modes and
    upper * lower = -omega^2 <= 0. Then L^2 = -omega^2 I, and exp(sL) =
    cos(omega s) I + (sin(omega s)/omega) L is a rotation, the identity
    where omega = 0. The state is the (2, n) array y, the frame of
    :func:`integrate` its (2, m) real FFT, m = n/2+1; the way back takes
    n = 2(m-1) from the frame. The transforms are ``spectral.rfft``/``irfft``,
    looked up on the module at call time. Zero ``upper`` and ``lower`` give
    plain Dormand-Prince stages in the spectral frame.
    """

    def __init__(self, upper, lower):
        self.coef = np.stack((upper, lower)).astype(complex)
        self.omega = np.sqrt(np.maximum(-(self.coef[0] * self.coef[1]).real, 0.0))
        # L / omega, zero where L is
        self._coef_over_omega = np.divide(self.coef, self.omega, out=np.zeros_like(self.coef),
                                          where=self.omega > 0.0)

    def to_frame(self, y):
        return spectral.rfft(y)

    def to_state(self, u):
        return spectral.irfft(u, 2 * (u.shape[-1] - 1))

    def tendency(self, f_hat, u):
        """The frame tendency f_hat - L u, the part of f that L leaves out;
        no transform: the stage function returns f_hat."""
        return f_hat - self.coef * u[::-1]

    def rotations(self, s):
        """cos(omega s_i) and sin(omega s_i) L / omega for the times s_i, the
        cosines cast to complex once here rather than by every product."""
        phase = np.multiply.outer(s, self.omega)
        return np.cos(phase).astype(complex)[:, None, :], np.sin(phase)[:, None, :] * self._coef_over_omega

    def rotate(self, rotations, i, u, inverse=False):
        """exp(s_i L) u, or exp(-s_i L) u."""
        cos, sin_l = rotations
        swapped = sin_l[i] * u[::-1]
        return cos[i] * u - swapped if inverse else cos[i] * u + swapped


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0


@dataclass
class IntegrationResult:
    t: float
    y: np.ndarray
    stats: StepStats
    reason: str = ""  # why the run stopped before t1; empty if it reached t1


def _initial_step(stage, lin, t0, y0, f0_hat, span, rel_tol, abs_tol):
    """Hairer-style automatic first step, with a safe fallback of 1e-6 span
    when the initial tendency vanishes (e.g. a rest state), when both of
    its norms overflow (extreme tolerances: d0 / d1 is inf / inf) and when
    the step it finds is not > 0; never below DT_FLOOR. Its probe goes
    through :func:`integrate`'s stage evaluation, at a finite time and
    state. The norms are the state space's: the frame tendencies f0_hat and
    f1_hat are taken back to it. Like the step's error norm, they ignore
    overflow and 0/0, and d2 a division by h0 = 0 (extreme tolerances,
    where d0 underflows); a probe that is refused or not finite leaves d2
    NaN, so the step comes from the first stage's norms."""
    scale = abs_tol + rel_tol * np.abs(y0)
    f0 = lin.to_state(f0_hat)
    with np.errstate(invalid="ignore", over="ignore"):
        d0 = np.sqrt(np.mean((y0 / scale) ** 2))
        d1 = np.sqrt(np.mean((f0 / scale) ** 2))
        h0 = 1e-6 * span if d1 == 0.0 else 0.01 * d0 / d1
    h0 = 1e-6 * span if np.isnan(h0) else min(h0, span)
    y1 = y0 + h0 * f0
    f1_hat = stage(t0 + h0, y1, lin.to_frame(y1))
    f1 = math.nan if f1_hat is None else lin.to_state(f1_hat)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, span)
    return max(h if h > 0.0 else 1e-6 * span, DT_FLOOR)


def integrate(rhs_fn, t_span, y0, *, rel_tol=REL_TOL, abs_tol=ABS_TOL, snapshot_times=(), on_step=None,
              on_snapshot=None, linear=None):
    """March y' = f(t, y) over t_span = (t0, t1) with the error
    tolerances ``rel_tol``, ``abs_tol`` (finite and positive).

    ``linear`` is the propagator of a linear part L of f (a
    :class:`ModeRotation`) to integrate exactly; None is the identity, plain
    Dormand-Prince. rhs_fn(t, y, u) returns f at the stage y in the frame of
    ``linear``, given the stage's frame u: with a ModeRotation the real FFT
    of f and of y, without one f and y themselves (u is y). on_step(t, y,
    stats) runs at t0 and after every accepted step,
    on_snapshot(t, y) just before it at t0 and when the step lands exactly
    on one of snapshot_times. Both run right after rhs_fn was evaluated at
    exactly that y (the FSAL stage; at t0 the first evaluation, whatever
    its tendencies, before the first step size is probed), so state rhs_fn
    keeps from its last call belongs to y. When on_step returns a
    non-empty string, the integration ends right there, at that state (at
    t0 too, before the probe), with the string as its ``reason``; None or
    "" goes on.

    Every stage, the one at t0 and the probe of the first step size
    included, is one evaluation: it is counted in ``stats.rhs_evals``, and
    it fails when rhs_fn refuses it by raising StageRejected (cavitation, a
    failed solve under :func:`gnwaves.runner.guarded_rhs`) or returns
    non-finite tendencies, which it refuses as
    ``StageRejected("non-finite tendencies at t=...")``. A failed trial stage ends its attempt, which is rejected at
    MIN_FACTOR; a failed probe leaves the first step size to the norms of
    the first stage.

    Returns an :class:`IntegrationResult` on every path: the last accepted
    t and y, the StepStats and ``reason``, "" when the run reached t1, or
    the reason on_step returned. A failed stage at t0 ends the integration
    right after the callbacks, with no attempt: ``reason`` is "<its
    refusal>; first stage failed at t=<t0>", whatever on_step returned. On
    blow-up, when dt falls below DT_FLOOR, it is "<the last refusal since
    the last accepted step>; step size underflow (dt=...) at t=...", the
    bare underflow text if the controller alone shrank the step.
    """
    lin = _IDENTITY if linear is None else linear
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not np.isfinite([t0, t1]).all() or t1 <= t0:
        raise ValidationError("t_span", f"need finite t1 > t0, got {t_span}")
    if not (0.0 < rel_tol < np.inf and 0.0 < abs_tol < np.inf):
        raise ValidationError("rel_tol/abs_tol", f"must be finite and positive, got {rel_tol}, {abs_tol}")
    stats = StepStats()
    y = np.array(y0, dtype=float)
    t = t0
    targets = sorted({float(s) for s in snapshot_times if t0 < s <= t1})

    cause = None  # the last refusal since the last accepted step

    def stage(t, y, u):
        """rhs_fn's frame tendency at the stage (t, y, u), counted; None if
        rhs_fn refused the stage or its tendencies are not finite, with
        the refusal kept as ``cause``."""
        nonlocal cause
        stats.rhs_evals += 1
        try:
            f = rhs_fn(t, y, u)
            if not np.logical_and.reduce(np.isfinite(f), axis=None):
                raise StageRejected(f"non-finite tendencies at t={t:.6f}")
        except StageRejected as exc:
            cause = exc
            return None
        return f

    # u is y in the frame of the linear part, g the first stage's tendency there
    u = lin.to_frame(y)
    f = stage(t, y, u)
    if on_snapshot is not None:
        on_snapshot(t, y)
    stop = on_step(t, y, stats) if on_step is not None else None
    if f is None:
        # every first step needs this stage, and no step size changes it
        return IntegrationResult(t, y, stats, f"{cause}; first stage failed at t={t:.6f}")
    if stop:
        return IntegrationResult(t, y, stats, stop)
    dt = _initial_step(stage, lin, t0, y, f, t1 - t0, rel_tol, abs_tol)

    g = lin.tendency(f, u)
    k = np.empty((7,) + u.shape, dtype=u.dtype)
    flat = k.reshape(7, -1)
    err_prev = ERR_PREV_FLOOR
    rotated_dt = None
    while t < t1:
        if dt < DT_FLOOR:
            underflow = f"step size underflow (dt={dt:.3e}) at t={t:.6f}"
            return IntegrationResult(t, y, stats, underflow if cause is None else f"{cause}; {underflow}")
        # truncate to land exactly on the next requested time
        boundary = targets[0] if targets else t1
        dt_step = min(dt, t1 - t)
        truncated = False
        if t + dt_step >= boundary - 1e-12 * max(1.0, abs(boundary)):
            dt_step = boundary - t
            truncated = True

        if dt_step != rotated_dt:
            # most steps repeat the last size: its rotations stay valid
            rotated_dt, rotations = dt_step, lin.rotations(_C * dt_step)
        k[0] = g
        err = np.nan
        for i in range(1, 7):
            ui = lin.rotate(rotations, i, u + ((dt_step * _A[i]) @ flat[:i]).reshape(u.shape))
            yi = lin.to_state(ui)
            fi = stage(t + _C[i] * dt_step, yi, ui)
            if fi is None:
                break
            gi = lin.tendency(fi, ui)
            k[i] = lin.rotate(rotations, i, gi, inverse=True)
        else:
            # FSAL: the last stage's input is the 5th-order solution
            y_new, u_new, g_new = yi, ui, gi
            err_vec = lin.to_state(((dt_step * _E) @ flat).reshape(u.shape))
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            with np.errstate(invalid="ignore", over="ignore"):
                q = (err_vec / scale) ** 2
                # sqrt(mean(q)) in np.mean's own arithmetic, without its wrapper
                err = math.sqrt(np.add.reduce(q, axis=None) / q.size)

        if not np.isfinite(err):
            stats.rejected += 1
            dt = dt_step * MIN_FACTOR
            continue
        if err <= 1.0:
            t_new = boundary if truncated else t + dt_step
            t, y, u, g, cause = float(t_new), y_new, u_new, g_new, None
            stats.accepted += 1
            if targets and t == targets[0]:
                targets.pop(0)
                if on_snapshot is not None:
                    on_snapshot(t, y)
            stop = on_step(t, y, stats) if on_step is not None else None
            if stop:
                return IntegrationResult(t, y, stats, stop)
            factor = MAX_FACTOR
            if err > 0.0:
                factor = min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * err**-_ALPHA * err_prev**BETA))
            if truncated:
                # a step truncated to land on an output time must not
                # throttle the natural step size, nor feed the PI memory
                dt = max(dt, dt_step * factor)
            else:
                dt = dt_step * factor
                err_prev = max(err, ERR_PREV_FLOOR)
        else:
            stats.rejected += 1
            dt = dt_step * min(1.0, max(MIN_FACTOR, SAFETY * err**-_ALPHA))

    return IntegrationResult(t, y, stats)
