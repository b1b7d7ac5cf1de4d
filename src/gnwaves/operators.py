"""Nonlocal mass operator, quadratic flux terms, and the two-equation
evolution in Hamiltonian variables (zeta, v).

Layer depths are h1 = 1 - eps*zeta (upper) and h2 = 1/delta + eps*zeta
(lower); the shared flux variable w = -h1*u1 = h2*u2 carries both layer
velocities. Per-layer quantities are stacked on a leading axis of length 2,
layer 1 first: the depths h = (h1, h2), the symbols (F1, F2) held by
:class:`GNContext` and the velocities u = LAYER_SIGN * w / h. Every layer
formula below is written once on the stacked arrays, and one batched real FFT
transforms both layers. The momentum density conjugate to zeta is
v = A[eps*zeta] w with the mass operator

    A[eps*zeta] w = ((h1 + gamma*h2)/(h1*h2)) w
                    - (mu*gamma/3) h1^{-1} dx F1{ h1^3 dx F1{ h1^{-1} w } }
                    - (mu/3)       h2^{-1} dx F2{ h2^3 dx F2{ h2^{-1} w } },

self-adjoint and positive definite for non-cavitating depths. The evolution
reads

    dt zeta = -dx w,
    dt v    = -dx[ (gamma+delta) zeta
                   - (gamma+delta)/Bo * dx( dx zeta / sqrt(1 + mu eps^2 (dx zeta)^2) )
                   + (eps/2) (h1^2 - gamma h2^2)/(h1 h2)^2 * w^2
                   - mu*eps * R[eps*zeta, w] ],

where the bracket is the zeta-gradient of the energy functional and w is
recovered from v at every evaluation by preconditioned conjugate gradients
(Fourier-diagonal flat-interface preconditioner, warm-started through the
workspace). CG is the hot path: what an application of A needs besides w
is formed once, not per application. The symbols of dx F1 and dx F2, and the
complex copy of the preconditioner symbol, are formed per context
(:class:`GNContext`); the depths, the depth coefficient, h^3 and the FFT
buffers once per :func:`rhs` call by :meth:`GNWorkspace.load`, into the
one holder of a stage, which the CG solve, the pass and R read; CG's own
preconditioner, ``A p`` and update buffers per solve. Every floating-point
operation stays as it was written per application.

After the solve, one function runs the stage's stacked spectral pass and
forms the zeta-gradient (:func:`interface_gradient`): one rfft of the rows
w, zeta and u; one irfft of the slope dx zeta (symbol ``grid.ik``) and of
dx F u (``dx_symbols``); the pointwise middle steps of the capillary and R
chains; one rfft and one irfft of their derivatives; then the closings in
place. The two tendencies come out of one batched inverse transform after
one multiply by the context's derivative symbol ``ik``, which carries the
optional 2/3-rule mask: three rfft and three irfft calls per :func:`rhs`
besides CG's. The pass keeps its products on the workspace, and the
diagnostics row of an accepted stage reads them with no transform.

Every transform here, and in the Lawson frame changes of
``timestepper.ModeRotation``, is ``spectral.rfft``/``spectral.irfft``, looked
up on the module at call time: pocketfft's ufuncs without ``np.fft``'s
argument handling, bit for bit the same values.
"""

import math
import numbers

import numpy as np

from . import spectral
from .errors import CavitationError, ConvergenceError, ValidationError
from .multipliers import layer_symbols
from .spectral import dealias_mask
from .stability import flat_interface, restoring_symbol
from .timestepper import ModeRotation

__all__ = [
    "CAVITATION_FLOOR",
    "LAYER_SIGN",
    "GNContext",
    "GNWorkspace",
    "r_operator",
    "layer_depths",
    "apply_mass_operator",
    "invert_mass_operator",
    "capillary_density",
    "interface_gradient",
    "rhs",
]

# CG positive-definiteness degrades as a depth approaches zero; treat
# anything at or below this as cavitation.
CAVITATION_FLOOR = 1e-6

# u_i = LAYER_SIGN_i * w / h_i, from w = -h1*u1 = h2*u2
LAYER_SIGN = np.array([[-1.0], [1.0]])

# the mass-operator CG defaults: relative residual and iteration cap
CG_TOL = 1e-12
CG_MAX_ITER = 200


def layer_depths(params, zeta):
    """h = (h1, h2) = (1 - eps*zeta, 1/delta + eps*zeta) stacked on axis 0,
    with cavitation check."""
    ez = params.epsilon * zeta
    h = np.empty((2,) + ez.shape)
    np.subtract(1.0, ez, out=h[0])
    np.add(1.0 / params.delta, ez, out=h[1])
    low = np.minimum.reduce(h, axis=None)
    if low <= CAVITATION_FLOOR:
        raise CavitationError(f"layer depth reached {low:.3e} (floor {CAVITATION_FLOOR:g})")
    return h


class GNContext:
    """Precomputed spectral data for one (grid, params, multiplier) triple.

    Holds the stacked layer symbols (F1, F2) on the wavenumber ladder and
    ``dx_symbols = grid.ik * symbols``, the symbols of dx F1 and dx F2 that
    every dispersive term applies, formed once per context; ``ik``, the
    derivative symbol of the tendencies: ``grid.ik``, or ``grid.ik *
    dealias_mask(grid)`` under ``dealias``; the flat-interface symbol A0 of
    the mass operator used as CG preconditioner (and ``flat_symbol_complex``,
    the complex copy CG divides by: the cast numpy would otherwise make on
    every division), the propagator ``linear`` of the flat-interface linear
    part of :func:`rhs` built from the same ``ik`` (frequencies omega = |k|
    sqrt(a0/A0), a0 = (gamma+delta) (1 + k^2/Bo)), the symbols
    ``pass_symbols`` of the rows of the spectral pass
    (:func:`interface_gradient`) with the slices ``pass_first``/
    ``pass_second`` of the rows each of its two irffts takes, and the
    solver settings.
    """

    def __init__(self, grid, params, spec, cg_tol=CG_TOL, cg_max_iter=CG_MAX_ITER, dealias=False):
        # the ExperimentConfig fields' checks, repeated: params imports this module
        if isinstance(cg_max_iter, bool) or not isinstance(cg_max_iter, numbers.Integral) or cg_max_iter < 1:
            raise ValidationError("cg_max_iter", f"must be an int >= 1, got {cg_max_iter!r}")
        if isinstance(cg_tol, bool) or not isinstance(cg_tol, numbers.Real) or not 0 < cg_tol < math.inf:
            raise ValidationError("cg_tol", f"must be a finite float > 0, got {cg_tol!r}")
        self.grid = grid
        self.params = params
        self.cg_tol = float(cg_tol)
        self.cg_max_iter = int(cg_max_iter)
        self.symbols = layer_symbols(spec, grid.k, params.mu)
        self.dx_symbols = grid.ik * self.symbols
        # symbol of A at zeta = 0, on the Nyquist-truncated derivative ladder
        k = grid.ik.imag
        self.flat_symbol, _ = flat_interface(params, self.symbols, k)
        self.flat_symbol_complex = self.flat_symbol.astype(complex)
        self.ik = grid.ik * dealias_mask(grid) if dealias else grid.ik
        # linear part of rhs at the flat interface on stacked (zeta, v):
        # dt zeta_hat = -ik/A0 v_hat, dt v_hat = -ik a0 zeta_hat
        self.linear = ModeRotation(-self.ik / self.flat_symbol, -self.ik * restoring_symbol(params, k))
        # pass rows w, zeta, u1, u2 and their symbols: ik (the tendency),
        # grid.ik (the slope), dx F; the rfft takes the rows up to the end
        # of pass_first, the second irfft the stress (with tension) and
        # h^3 dx F u (R, mu*eps > 0)
        tension, dispersive = params.inv_bond > 0.0, params.mu > 0.0
        self.pass_symbols = np.concatenate(([self.ik, grid.ik], self.dx_symbols))
        self.pass_first = slice(1 if tension else 2, 4 if dispersive else 2)
        self.pass_second = slice(self.pass_first.start, 4 if dispersive and params.epsilon > 0.0 else 2)


class GNWorkspace:
    """One stage's data, and per-integration scratch.

    :meth:`load` sets the per-state part of A[eps*zeta]: the stacked
    ``depths`` h, the coefficient ``local`` = (h1 + gamma*h2)/(h1*h2) and,
    for mu > 0, ``cube`` = h^3 and the spectral and physical (2, n) buffers
    every application writes into (used up inside
    :func:`apply_mass_operator`; nothing it returns views them).
    The pass of :func:`interface_gradient` adds ``u``, ``w_hat``,
    ``zeta_hat``, ``slope`` (with tension) and ``dxf_u`` (mu > 0), which the
    diagnostics row of an accepted (FSAL) stage reads. ``w_prev`` keeps the
    last stage's flux (the next CG warm start), ``resolution_lost_at`` the
    stage time at which a resolution guard tripped (None while clean). Not
    shareable between concurrent integrations."""

    def __init__(self):
        self.w_prev = self.w_hat = self.depths = self.local = self.cube = None
        self.u = self.zeta_hat = self.slope = self.dxf_u = self.resolution_lost_at = None

    def load(self, ctx, zeta):
        """Set the per-state data of zeta (cavitation checked by
        :func:`layer_depths`); returns the workspace."""
        self.depths = layer_depths(ctx.params, zeta)
        h1, h2 = self.depths
        self.local = (h1 + ctx.params.gamma * h2) / (h1 * h2)
        if ctx.params.mu > 0.0:
            self.cube = self.depths**3
            self.spectral = np.empty((2, ctx.grid.n // 2 + 1), dtype=complex)
            self.physical = np.empty((2, ctx.grid.n))
        return self


def apply_mass_operator(ctx, zeta, w, stage=None, out=None):
    """A[eps*zeta] w, written into ``out`` when given.

    ``stage`` passes a :class:`GNWorkspace` loaded at zeta, as CG does for
    every application of a solve; without it one is loaded here.
    """
    stage = GNWorkspace().load(ctx, zeta) if stage is None else stage
    g, mu = ctx.params.gamma, ctx.params.mu
    out = np.multiply(stage.local, w, out=out)
    if mu > 0.0:
        spec, t = stage.spectral, stage.physical
        n = ctx.grid.n
        # dx F{ h^3 dx F{ w/h } }, each dx F as irfft(dx_symbols * rfft(.)),
        # with every result written into the solve's two buffers
        np.divide(w, stage.depths, out=t)
        spectral.rfft(t, out=spec)
        np.multiply(ctx.dx_symbols, spec, out=spec)
        spectral.irfft(spec, n, out=t)
        np.multiply(stage.cube, t, out=t)
        spectral.rfft(t, out=spec)
        np.multiply(ctx.dx_symbols, spec, out=spec)
        spectral.irfft(spec, n, out=t)
        # (mu/3.0) * (t2/h2 + g*t1/h1), operation by operation, in t
        t1, t2 = t
        np.multiply(g, t1, out=t1)
        np.divide(t, stage.depths, out=t)
        np.add(t2, t1, out=t2)
        np.multiply(mu / 3.0, t2, out=t2)
        out -= t2
    return out


def invert_mass_operator(ctx, zeta, v, tol=None, max_iter=None, x0=None, stage=None):
    """Solve A[eps*zeta] w = v for w.

    mu = 0 makes A a pointwise multiplication and the inverse is exact; the
    general case runs conjugate gradients on the self-adjoint positive
    definite operator, preconditioned by the flat-interface symbol and
    warm-started from ``x0`` when given. ``stage`` passes a
    :class:`GNWorkspace` loaded at zeta, as :func:`rhs` does; without it one
    is loaded here. The preconditioner, ``A p`` and update buffers are built
    once per solve. The relative residual ||A w - v|| <= tol ||v|| is
    guaranteed on return; a non-finite ||v|| (for every mu) or residual norm
    is a breakdown (ConvergenceError) as soon as it is seen.
    """
    tol = ctx.cg_tol if tol is None else tol
    max_iter = ctx.cg_max_iter if max_iter is None else max_iter
    stage = GNWorkspace().load(ctx, zeta) if stage is None else stage
    h = stage.depths
    b_norm = math.sqrt(v @ v)
    if not math.isfinite(b_norm):
        raise ConvergenceError(f"mass-operator CG: ||v|| = {b_norm} is not finite", [])
    if ctx.params.mu == 0.0:
        return v * (h[0] * h[1]) / (h[0] + ctx.params.gamma * h[1])

    n = ctx.grid.n
    if b_norm == 0.0:
        return np.zeros_like(v)
    spec = np.empty(n // 2 + 1, dtype=complex)
    z = np.empty(n)
    ap = np.empty(n)
    tmp = np.empty(n)
    stop = tol * b_norm
    residuals = []

    if x0 is None:
        x = np.zeros_like(v)
        r = v.copy()
    else:
        x = np.array(x0, dtype=float)
        r = v - apply_mass_operator(ctx, zeta, x, stage=stage, out=ap)
    # each pass checks the residual, then takes one preconditioned step
    for it in range(max_iter + 1):
        norm = math.sqrt(r @ r)
        residuals.append(norm)
        if not math.isfinite(norm):
            raise ConvergenceError(f"mass-operator CG: residual norm {norm} is not finite", residuals)
        if norm <= stop:
            return x
        if it == max_iter:
            break
        # z = irfft(rfft(r) / A0), then p = z, or p = z + (rz_next/rz)*p in place
        spectral.rfft(r, out=spec)
        np.divide(spec, ctx.flat_symbol_complex, out=spec)
        spectral.irfft(spec, n, out=z)
        rz_next = float(r @ z)
        if it == 0:
            p = z.copy()
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
        apply_mass_operator(ctx, zeta, p, stage=stage, out=ap)
        alpha = rz / float(p @ ap)
        # x += alpha*p and r -= alpha*ap through one scratch vector
        np.multiply(alpha, p, out=tmp)
        x += tmp
        np.multiply(alpha, ap, out=tmp)
        r -= tmp
    raise ConvergenceError(
        f"mass-operator CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {residuals[-1] / b_norm:.3e})",
        residuals,
    )


def _capillary_root(params, slope):
    """sqrt(1 + mu eps^2 slope^2), shared by the capillary stress and density."""
    return np.sqrt(1.0 + params.mu * params.epsilon**2 * slope**2)


def capillary_density(params, slope):
    """Pointwise capillary energy density
    2 (gamma+delta)/Bo * s^2 / (1 + sqrt(1 + mu eps^2 s^2)) at the slope
    s = dx zeta.

    Algebraically equal to 2(gamma+delta)/(mu eps^2 Bo) (sqrt(1+...) - 1) but
    free of the removable mu*eps^2 -> 0 singularity and of cancellation.
    """
    p = params
    return 2.0 * (p.gamma + p.delta) * p.inv_bond * slope**2 / (1.0 + _capillary_root(p, slope))


def r_operator(h, u, s, t):
    """Quadratic layer term  (1/2)(h dx F{u})^2 + (1/3) h^{-1} u dx F{ h^3 dx F{u} }
    from s = dx F{u} and t = dx F{h^3 s}."""
    return 0.5 * (h * s) ** 2 + (u * t) / (3.0 * h)


def _dx_rows(ctx, spec, rows):
    """irfft of the pass rows ``rows`` (a slice) of the stacked spectra
    ``spec`` times their symbols ``ctx.pass_symbols[rows]``."""
    return spectral.irfft(spec * ctx.pass_symbols[rows], ctx.grid.n)


def interface_gradient(ctx, zeta, w, stage=None):
    """The zeta-gradient of the energy functional (the bracket inside dt v):
    the stage's spectral pass at (zeta, w) into ``stage``, a
    :class:`GNWorkspace` loaded at zeta (one is loaded here when None).

    u = LAYER_SIGN * w / h; one rfft of the rows w, zeta and (mu > 0) u; one
    irfft of the slope (zeta times ``grid.ik``, with tension) and of dx F u
    (mu > 0, epsilon = 0 too, where only the energy reads it), which
    ``stage`` keeps with ``u``, ``w_hat`` and ``zeta_hat`` (None where not
    formed). Then the capillary and R chains in lockstep: the stress dx zeta
    / sqrt(1 + mu eps^2 (dx zeta)^2) and h^3 dx F u (mu*eps > 0), one rfft,
    one irfft by ``grid.ik`` and dx F, and the closings -(gamma+delta)/Bo
    dx stress and R = R_2 - gamma R_1 (:func:`r_operator`).
    """
    p = ctx.params
    stage = GNWorkspace().load(ctx, zeta) if stage is None else stage
    rows = np.empty((4, ctx.grid.n))
    rows[0] = w
    rows[1] = zeta
    u = rows[2:]
    np.multiply(LAYER_SIGN, w, out=u)
    np.divide(u, stage.depths, out=u)
    first = ctx.pass_first
    spec = spectral.rfft(rows[: first.stop])
    dx = _dx_rows(ctx, spec[first], first) if first.stop > first.start else None
    stage.u, stage.w_hat, stage.zeta_hat = u, spec[0], spec[1]
    stage.slope = dx[0] if p.inv_bond > 0.0 else None
    stage.dxf_u = dx[-2:] if p.mu > 0.0 else None
    second = ctx.pass_second
    if second.stop > second.start:
        middle = np.empty((second.stop - second.start, ctx.grid.n))
        if p.inv_bond > 0.0:
            np.divide(stage.slope, _capillary_root(p, stage.slope), out=middle[0])
        if p.mu > 0.0 and p.epsilon > 0.0:
            np.multiply(stage.cube, stage.dxf_u, out=middle[-2:])
        dx = _dx_rows(ctx, spectral.rfft(middle), second)
    h1, h2 = stage.depths
    grad = (p.gamma + p.delta) * zeta + (-(p.gamma + p.delta) * p.inv_bond * dx[0] if p.inv_bond > 0.0 else 0.0)
    grad += 0.5 * p.epsilon * (h1**2 - p.gamma * h2**2) / (h1 * h2) ** 2 * w**2
    if p.mu > 0.0 and p.epsilon > 0.0:
        r1, r2 = r_operator(stage.depths, u, stage.dxf_u, dx[-2:])
        grad -= p.mu * p.epsilon * (r2 - p.gamma * r1)
    return grad


def rhs(ctx, zeta, v, workspace=None):
    """Tendencies (dt zeta, dt v) at state (zeta, v), stacked as one (2, n)
    array, so ``dzeta, dv = rhs(...)`` unpacks them.

    Loads ``workspace`` (a fresh :class:`GNWorkspace` when None) at zeta
    once, for the CG solve, the pass and R. Recovers w = A^{-1} v first
    (warm-started from ``workspace.w_prev``), then the zeta-gradient through
    the pass of :func:`interface_gradient`, whose products the workspace
    keeps, and assembles the two exact spatial derivatives, -dx w and -dx of the zeta-gradient, through ``ctx.ik`` (so
    dealiased under ``dealias``) and one batched inverse transform: three
    rfft and three irfft calls besides CG's. Hyperbolicity is a monitored
    diagnostic, not checked here.
    """
    grid = ctx.grid
    stage = (GNWorkspace() if workspace is None else workspace).load(ctx, zeta)
    w = invert_mass_operator(ctx, zeta, v, x0=stage.w_prev, stage=stage)
    stage.w_prev = w
    grad = interface_gradient(ctx, zeta, w, stage=stage)
    spec = np.empty((2, grid.n // 2 + 1), dtype=complex)
    np.multiply(stage.w_hat, ctx.ik, out=spec[0])
    np.multiply(spectral.rfft(grad), ctx.ik, out=spec[1])
    out = spectral.irfft(spec, grid.n)
    return np.negative(out, out=out)

