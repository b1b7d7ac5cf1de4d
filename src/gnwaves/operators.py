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
buffers once per :func:`rhs` call (:class:`MassConstants`, shared by the CG
solve and the quadratic flux R), and CG's own preconditioner, ``A p`` and
update buffers per solve. Every floating-point operation stays as it was
written per application.

After the solve, one stacked spectral pass forms the zeta-gradient
(:func:`interface_gradient`): one rfft of the rows w, zeta and u; one irfft
of the slope dx zeta (symbol ``grid.ik``) and of dx F u (``dx_symbols``);
the pointwise middle steps of the capillary and R chains; one rfft and one
irfft of their derivatives; then the pointwise closings. The two tendencies
come out of one batched inverse transform after one multiply by the
context's derivative symbol ``ik``, which carries the optional 2/3-rule
mask: three rfft and three irfft calls per :func:`rhs` besides CG's. The
workspace keeps the products of the pass (:func:`stage_pass`), so the
diagnostics row of an accepted stage makes no transform.

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
    "MassConstants",
    "r_operator",
    "layer_depths",
    "stage_pass",
    "apply_mass_operator",
    "invert_mass_operator",
    "r_flux",
    "capillary_gradient",
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
    ``pass_symbols`` of the rows of a stage pass (:func:`stage_pass`) with
    the slices ``pass_first``/``pass_second`` of the rows each of its two
    irffts takes, and the solver settings.
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


class MassConstants:
    """The per-state part of A[eps*zeta], built once per :func:`rhs` call
    (or per direct CG solve): the stacked depths h, the pointwise coefficient
    (h1 + gamma*h2)/(h1*h2) and, for mu > 0, h^3, which R reuses, with one
    spectral and one physical (2, n) buffer that the batched FFTs and the
    closing pointwise terms of every application write into. The buffers are
    used up inside :func:`apply_mass_operator`; nothing it returns views
    them."""

    def __init__(self, ctx, depths):
        h1, h2 = depths
        self.depths = depths
        self.local = (h1 + ctx.params.gamma * h2) / (h1 * h2)
        if ctx.params.mu > 0.0:
            self.cube = depths**3
            self.spectral = np.empty((2, ctx.grid.n // 2 + 1), dtype=complex)
            self.physical = np.empty((2, ctx.grid.n))


def apply_mass_operator(ctx, zeta, w, consts=None, out=None):
    """A[eps*zeta] w, written into ``out`` when given.

    ``consts`` passes the :class:`MassConstants` of zeta, as CG does for
    every application of a solve; without it they are built here from zeta.
    """
    if consts is None:
        consts = MassConstants(ctx, layer_depths(ctx.params, zeta))
    g, mu = ctx.params.gamma, ctx.params.mu
    out = np.multiply(consts.local, w, out=out)
    if mu > 0.0:
        spec, t = consts.spectral, consts.physical
        n = ctx.grid.n
        # dx F{ h^3 dx F{ w/h } }, each dx F as irfft(dx_symbols * rfft(.)),
        # with every result written into the solve's two buffers
        np.divide(w, consts.depths, out=t)
        spectral.rfft(t, out=spec)
        np.multiply(ctx.dx_symbols, spec, out=spec)
        spectral.irfft(spec, n, out=t)
        np.multiply(consts.cube, t, out=t)
        spectral.rfft(t, out=spec)
        np.multiply(ctx.dx_symbols, spec, out=spec)
        spectral.irfft(spec, n, out=t)
        # (mu/3.0) * (t2/h2 + g*t1/h1), operation by operation, in t
        t1, t2 = t
        np.multiply(g, t1, out=t1)
        np.divide(t, consts.depths, out=t)
        np.add(t2, t1, out=t2)
        np.multiply(mu / 3.0, t2, out=t2)
        out -= t2
    return out


def invert_mass_operator(ctx, zeta, v, tol=None, max_iter=None, x0=None, consts=None):
    """Solve A[eps*zeta] w = v for w.

    mu = 0 makes A a pointwise multiplication and the inverse is exact; the
    general case runs conjugate gradients on the self-adjoint positive
    definite operator, preconditioned by the flat-interface symbol and
    warm-started from ``x0`` when given. ``consts`` passes the
    :class:`MassConstants` of zeta, as :func:`rhs` does; without it they are
    built here. The preconditioner, ``A p`` and update buffers are built once
    per solve. The relative residual ||A w - v|| <= tol ||v|| is guaranteed
    on return; a non-finite ||v|| (for every mu) or residual norm is a
    breakdown (ConvergenceError) as soon as it is seen.
    """
    tol = ctx.cg_tol if tol is None else tol
    max_iter = ctx.cg_max_iter if max_iter is None else max_iter
    h = layer_depths(ctx.params, zeta) if consts is None else consts.depths
    b_norm = math.sqrt(v @ v)
    if not math.isfinite(b_norm):
        raise ConvergenceError(f"mass-operator CG: ||v|| = {b_norm} is not finite", [])
    if ctx.params.mu == 0.0:
        return v * (h[0] * h[1]) / (h[0] + ctx.params.gamma * h[1])

    n = ctx.grid.n
    if b_norm == 0.0:
        return np.zeros_like(v)
    if consts is None:
        consts = MassConstants(ctx, h)
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
        r = v - apply_mass_operator(ctx, zeta, x, consts=consts, out=ap)
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
        apply_mass_operator(ctx, zeta, p, consts=consts, out=ap)
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


def capillary_gradient(params, dx_stress):
    """The surface-tension part of the zeta-gradient,
    -(gamma+delta)/Bo * dx( dx zeta / sqrt(1 + mu eps^2 (dx zeta)^2) ), from
    ``dx_stress``, the derivative of the stress in the parentheses (the
    pass of :func:`interface_gradient` forms both)."""
    return -(params.gamma + params.delta) * params.inv_bond * dx_stress


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


def r_flux(params, h, u, s, t):
    """R[eps*zeta, w] = R_2[h2, u2] - gamma * R_1[h1, u1] for the stacked
    depths h, velocities u = LAYER_SIGN * w / h and their s = dx F{u},
    t = dx F{h^3 s} (mu > 0)."""
    r1, r2 = r_operator(h, u, s, t)
    return r2 - params.gamma * r1


def _dx_rows(ctx, spec, rows):
    """irfft of the pass rows ``rows`` (a slice) of the stacked spectra
    ``spec`` times their symbols ``ctx.pass_symbols[rows]``."""
    return spectral.irfft(spec * ctx.pass_symbols[rows], ctx.grid.n)


def stage_pass(ctx, zeta, w, depths, stage=None):
    """The first half of the spectral pass at (zeta, w), written into
    ``stage`` (a :class:`GNWorkspace`, a fresh one when None), which it
    returns.

    It forms the velocities u = LAYER_SIGN * w / h (h the stacked
    ``depths``); one rfft takes the stacked rows w, zeta and, at mu > 0, u;
    one irfft takes the rows the gradient and the energy differentiate, each
    times its symbol: zeta by ``grid.ik`` for the slope (with tension), u by
    dx F for dx F u (mu > 0, at epsilon = 0 too, where only the energy reads
    it).
    ``stage`` keeps ``depths``, ``u``, ``w_hat``, ``zeta_hat``, ``slope``
    and ``dxf_u`` (the last two None where not formed).
    """
    p = ctx.params
    stage = GNWorkspace() if stage is None else stage
    rows = np.empty((4, ctx.grid.n))
    rows[0] = w
    rows[1] = zeta
    u = rows[2:]
    np.multiply(LAYER_SIGN, w, out=u)
    np.divide(u, depths, out=u)
    first = ctx.pass_first
    spec = spectral.rfft(rows[: first.stop])
    dx = _dx_rows(ctx, spec[first], first) if first.stop > first.start else None
    stage.depths, stage.u = depths, u
    stage.w_hat, stage.zeta_hat = spec[0], spec[1]
    stage.slope = dx[0] if p.inv_bond > 0.0 else None
    stage.dxf_u = dx[-2:] if p.mu > 0.0 else None
    return stage


def interface_gradient(ctx, zeta, w, consts=None, stage=None):
    """The zeta-gradient of the energy functional (the bracket inside dt v).

    This is the stage's spectral pass: :func:`stage_pass` into ``stage``
    (:func:`rhs` passes its workspace; a fresh :class:`GNWorkspace` when
    None), then the capillary chain and the R chain in lockstep: the
    pointwise middle steps (the stress dx zeta / sqrt(1 + mu eps^2
    (dx zeta)^2), and h^3 dx F u for mu*eps > 0), one rfft, one irfft of
    their products by ``grid.ik`` and dx F, then the closings.
    ``consts`` passes the :class:`MassConstants` of zeta, as :func:`rhs`
    does; without it they are built here.
    """
    p = ctx.params
    if consts is None:
        consts = MassConstants(ctx, layer_depths(p, zeta))
    stage = stage_pass(ctx, zeta, w, consts.depths, stage)
    second = ctx.pass_second
    if second.stop > second.start:
        middle = np.empty((second.stop - second.start, ctx.grid.n))
        if p.inv_bond > 0.0:
            np.divide(stage.slope, _capillary_root(p, stage.slope), out=middle[0])
        if p.mu > 0.0 and p.epsilon > 0.0:
            np.multiply(consts.cube, stage.dxf_u, out=middle[-2:])
        dx = _dx_rows(ctx, spectral.rfft(middle), second)
    h1, h2 = consts.depths
    grad = (p.gamma + p.delta) * zeta + (capillary_gradient(p, dx[0]) if p.inv_bond > 0.0 else 0.0)
    grad += 0.5 * p.epsilon * (h1**2 - p.gamma * h2**2) / (h1 * h2) ** 2 * w**2
    if p.mu > 0.0 and p.epsilon > 0.0:
        grad -= p.mu * p.epsilon * r_flux(p, consts.depths, stage.u, stage.dxf_u, dx[-2:])
    return grad


def rhs(ctx, zeta, v, workspace=None):
    """Tendencies (dt zeta, dt v) at state (zeta, v), stacked as one (2, n)
    array, so ``dzeta, dv = rhs(...)`` unpacks them.

    Builds the :class:`MassConstants` of zeta once, for the CG solve and R.
    Recovers w = A^{-1} v first (warm-started from ``workspace.w_prev``),
    then the zeta-gradient through the pass of :func:`interface_gradient`,
    whose products the workspace keeps, and assembles the two exact spatial
    derivatives, -dx w and -dx of the zeta-gradient, through ``ctx.ik`` (so
    dealiased under ``dealias``) and one batched inverse transform: three
    rfft and three irfft calls besides CG's. Hyperbolicity is a monitored
    diagnostic, not checked here.
    """
    grid = ctx.grid
    consts = MassConstants(ctx, layer_depths(ctx.params, zeta))
    stage = GNWorkspace() if workspace is None else workspace
    w = invert_mass_operator(ctx, zeta, v, x0=stage.w_prev, consts=consts)
    stage.w_prev = w
    grad = interface_gradient(ctx, zeta, w, consts=consts, stage=stage)
    spec = np.empty((2, grid.n // 2 + 1), dtype=complex)
    np.multiply(stage.w_hat, ctx.ik, out=spec[0])
    np.multiply(spectral.rfft(grad), ctx.ik, out=spec[1])
    out = spectral.irfft(spec, grid.n)
    return np.negative(out, out=out)


class GNWorkspace:
    """Per-integration scratch, and the products of the spectral pass of
    the last evaluated stage (see :func:`stage_pass`): ``w_prev``, the
    stage's flux (the next CG warm start); ``depths``, ``u``, ``w_hat``,
    ``zeta_hat``, ``slope`` (with tension) and ``dxf_u`` (mu > 0), which
    the diagnostics row of an accepted (FSAL) stage reads instead of
    transforming again; and ``resolution_lost_at``, the stage time at which
    a resolution guard tripped (None while clean). Not shareable between
    concurrent integrations."""

    def __init__(self):
        self.w_prev = None
        self.w_hat = None
        self.depths = self.u = self.zeta_hat = self.slope = self.dxf_u = None
        self.resolution_lost_at = None

