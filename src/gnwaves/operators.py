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
(the Fourier-diagonal flat-interface preconditioner P), to the relative
residual ``CG_TOL`` = 1e-13. CG is the hot path: what an application of A
needs besides w is formed once, not per application. The symbols of dx F1
and dx F2, the complex 1/A0 that applies P^-1 and the closing column
(mu/3) (gamma, 1) are formed per context (:class:`GNContext`); once per
:func:`rhs` call :meth:`GNWorkspace.load` keeps zeta and forms the depths
and 1/h, and from 1/h the depth coefficient gamma/h1 + 1/h2, the closing
coefficients (mu/3) (gamma/h1, 1/h2) and the coefficient (eps/2) (1/h2^2 -
gamma/h1^2) of w^2 in the zeta-gradient, with h^3 = h*h*h and the FFT
buffers, into the one holder of a stage, which the CG solve, the pass and
R read; CG's own preconditioner, ``A p`` and update buffers per solve. A
loaded stage is the only way a state reaches :func:`apply_mass_operator`,
:func:`invert_mass_operator` and :func:`interface_gradient`: each takes
the stage and reads zeta from it, and a library caller loads one with
``GNWorkspace().load(ctx, zeta)``.

The stages run in Fourier space. :func:`rhs` returns the spectral
tendencies -ik (w_hat, grad_hat) that the Lawson stages of
``timestepper.integrate`` take as they are. Like
:func:`invert_mass_operator`, :func:`rhs` takes a stage, which it loads at
the zeta it is given, and solves from the start ``x0`` it is given, cold
when None. Each solve of a timed stage starts from the projection start
for successive right-hand sides (Fischer, Comput. Methods Appl. Mech.
Engrg. 163, 1998), :meth:`GNWorkspace.warm_start`: the workspace keeps an
orthonormal basis Q of the momenta of recent successful stage solves, with
the same combinations Z of their fluxes and Q_hat of their spectra, and
the start is a @ Z + irfft((v_hat - a @ Q_hat) / A0), a = Q v: the
projection of v onto the basis, plus P^-1 of what the basis leaves out.
It takes the reference experiment from 5.5 applications of A per solve
(quadratic Lagrange extrapolation in the stage time, before) to 4.1. The
workspace keeps the start of its stage, v, v_hat and a, and
:meth:`GNWorkspace.remember` adds that stage to the basis, reusing a for
the first Gram-Schmidt pass; ``runner.guarded_rhs`` calls it only once
the stage's rhs has returned, and the next stage's start replaces the
start of a refused one. At mu = 0 the solve is pointwise, and
:meth:`GNWorkspace.warm_start` keeps nothing and returns None. The
stopping errors of predicted starts are correlated from stage to stage
and add up in the energy drift, so ``CG_TOL`` is 1e-13, not 1e-12.

After the solve, one function runs the stage's stacked spectral pass and
forms the zeta-gradient (:func:`interface_gradient`): one rfft of the rows
w, zeta and u; one irfft of the slope dx zeta (symbol ``grid.ik``) and of
dx F u (``dx_symbols``); the pointwise middle steps of the capillary and R
chains; one rfft and one irfft of their derivatives; then the closings in
place. Both irffts take the one row set ``GNContext.pass_rows``: zeta with
tension, u for mu > 0. At epsilon = 0 the pass still forms h^3 dx F u and
R, which the factor mu*eps = 0 removes. The two spectral tendencies are
the pass's w_hat and the gradient's rfft times the context's ``minus_ik``,
-ik with the optional 2/3-rule mask, so they are exactly 0 on the masked
modes: three rfft and two irfft calls per :func:`rhs` besides CG's (and
the projection start's one irfft before a timed stage), and no transform
in the Lawson frame change. The pass keeps w and its products on the
workspace, and the diagnostics row of an accepted stage reads them with
no transform.

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
from .stability import mass_symbol, restoring_symbol
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
CG_TOL = 1e-13
CG_MAX_ITER = 200

# the projection start (GNWorkspace.warm_start): the most rows of its basis,
# the last solves it is rebuilt from when full, and the relative remainder
# at or below which a momentum adds no row
BASIS_ROWS = 20
REBUILD_SOLVES = 10
DROP_TOL = 1e-13


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
    dealias_mask(grid)`` under ``dealias``, and ``minus_ik``, its negation,
    which :func:`rhs` multiplies by; ``last_mode``, the last mode it
    keeps (n//3 under ``dealias``, Nyquist n//2 without); the flat-interface
    symbol A0 of the mass operator used as CG preconditioner P (and
    ``inv_flat_symbol``, the complex 1/A0 that applies P^-1 by one multiply,
    with no cast per product), the propagator ``linear`` of the flat-interface linear
    part of :func:`rhs` built from the same ``ik`` (frequencies omega = |k|
    sqrt(a0/A0), a0 = (gamma+delta) (1 + k^2/Bo)), the slice ``pass_rows``
    of the rows w, zeta, u1, u2 that both irffts of the spectral pass
    (:func:`interface_gradient`) take (zeta with tension, u for mu > 0, at
    every epsilon) and their symbols ``pass_symbols`` (``grid.ik``, dx F),
    the column ``closing_weights`` = (mu/3) (gamma, 1) of A's closing, and
    the solver settings.
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
        self.flat_symbol = mass_symbol(params, self.symbols, k)
        self.inv_flat_symbol = (1.0 / self.flat_symbol).astype(complex)
        self.ik = grid.ik * dealias_mask(grid) if dealias else grid.ik
        self.minus_ik = -self.ik
        self.last_mode = grid.n // 3 if dealias else grid.n // 2
        self.closing_weights = (params.mu / 3.0) * np.array([[params.gamma], [1.0]])
        # linear part of rhs at the flat interface on stacked (zeta, v):
        # dt zeta_hat = -ik/A0 v_hat, dt v_hat = -ik a0 zeta_hat
        self.linear = ModeRotation(-self.ik / self.flat_symbol, -self.ik * restoring_symbol(params, k))
        # pass rows w, zeta, u1, u2: the rfft takes them up to the end of
        # pass_rows, both irffts zeta (with tension) and u (mu > 0); pass row
        # r has symbol r - 1 of (grid.ik (the slope), dx F1, dx F2)
        self.pass_rows = rows = slice(1 if params.inv_bond > 0.0 else 2, 4 if params.mu > 0.0 else 2)
        self.pass_symbols = np.concatenate(([grid.ik], self.dx_symbols))[rows.start - 1 : rows.stop - 1]


class GNWorkspace:
    """One stage's data, and per-integration scratch: the one holder through
    which a state reaches :func:`apply_mass_operator`,
    :func:`invert_mass_operator`, :func:`interface_gradient`, :func:`rhs`
    and the diagnostics row.

    :meth:`load` sets the per-state data of the stage: ``zeta`` itself (the
    array it was given, not a copy, so the caller writes no more into it)
    and, all from ``inv_depths`` = 1/h of the stacked ``depths`` h, the
    coefficient ``local`` = gamma/h1 + 1/h2 of A, the coefficient
    ``w2_coef`` = (eps/2) (1/h2^2 - gamma/h1^2) of w^2 in the
    zeta-gradient and, for mu > 0, ``cube`` = h^3, ``closing`` = (mu/3)
    (gamma/h1, 1/h2) and the spectral and physical (2, n) buffers every
    application writes into (used up inside :func:`apply_mass_operator`;
    nothing it returns views them). The pass of :func:`interface_gradient`
    adds the flux ``w`` it was given (under :func:`rhs`, the stage's solved
    flux), ``u``, ``w_hat``, ``zeta_hat``, ``slope`` (with tension) and
    ``dxf_u`` (mu > 0), which the diagnostics row reads; the CG start of
    the stage, which :meth:`warm_start` keeps as ``start`` until
    :meth:`remember` adds it to the basis the starts are projected on: the
    first ``rows`` rows of ``basis`` and ``images``, and the last
    ``REBUILD_SOLVES`` of the ``solves`` added in ``recent``. Not
    shareable between concurrent integrations."""

    def __init__(self):
        self.zeta = self.w = self.w_hat = self.depths = self.local = self.cube = None
        self.u = self.zeta_hat = self.slope = self.dxf_u = None
        self.basis = self.images = self.recent = self.start = None
        self.rows = self.solves = 0

    def load(self, ctx, zeta):
        """Set the per-state data of zeta (cavitation checked by
        :func:`layer_depths` first: a cavitating zeta changes nothing on
        the stage); returns the workspace."""
        p = ctx.params
        h = layer_depths(p, zeta)
        self.zeta, self.depths = zeta, h
        inv = self.inv_depths = 1.0 / h
        self.local = p.gamma * inv[0] + inv[1]
        self.w2_coef = 0.5 * p.epsilon * (inv[1] ** 2 - p.gamma * inv[0] ** 2)
        if p.mu > 0.0:
            self.cube = h * h * h
            self.closing = inv * ctx.closing_weights
            self.spectral = np.empty((2, ctx.grid.n // 2 + 1), dtype=complex)
            self.physical = np.empty((2, ctx.grid.n))
        return self

    def warm_start(self, ctx, v, v_hat):
        """The CG start of the stage whose momentum is v, with real FFT
        v_hat: the projection start for successive right-hand sides
        (Fischer, Comput. Methods Appl. Mech. Engrg. 163, 1998)

            x0 = a @ Z + P^-1 (v_hat - a @ Q_hat),  a = Q v,

        over the basis that :meth:`remember` built, Q its orthonormal rows
        (``basis``), Z their fluxes and Q_hat their spectra (``images``),
        with P the flat-interface preconditioner, A at zeta = 0, which
        carries the part of v that the basis leaves out: one irfft. At
        zeta = 0 the start is the solve itself. The workspace keeps it as
        ``start`` = (v, v_hat, a) for :meth:`remember`, in place of any
        earlier one: v and v_hat themselves, not copies, so the caller
        writes no more into them before then. None (a cold start) while the
        basis is empty. At mu = 0 the solve is pointwise: no start is kept,
        so the basis stays empty and the start is None."""
        m, n = self.rows, v.size
        # no rows (and before the first remember() no basis): no coordinates
        a = self.basis[:m] @ v if m else np.empty(0)
        self.start = (v, v_hat, a) if ctx.params.mu > 0.0 else None
        if m == 0:
            return None
        # (a @ Z, a @ Q_hat) in one real product, Q_hat by its real view:
        # the same bits for any BLAS thread count
        combined = a @ self.images[:m]
        return combined[:n] + spectral.irfft((v_hat - combined[n:].view(complex)) * ctx.inv_flat_symbol, n)

    def remember(self):
        """Add the stage whose start :meth:`warm_start` kept, solved to the
        flux ``w`` its pass kept, to the basis, and drop the start; with no
        start kept (a fresh workspace, mu = 0, or a stage already
        remembered) it adds nothing. The momentum v's remainder after two
        passes of classical Gram-Schmidt against the rows of ``basis``, the
        first from the start's coordinates a = Q v, becomes a row, and the
        same combination of w and v_hat the row of ``images``, its flux and
        the real view of its spectrum end to end. A remainder of at most
        ``DROP_TOL`` ||v|| (v = 0, or a v the rows already span) adds no
        row. The last ``REBUILD_SOLVES`` solves are kept in ``recent`` as
        copies (v, w, real view of v_hat), and once the basis holds
        ``BASIS_ROWS`` rows it is rebuilt from them, oldest first."""
        if self.start is None:
            return
        (v, v_hat, a), self.start = self.start, None
        n = v.size
        if self.basis is None:
            self.basis = np.empty((BASIS_ROWS, n))
            self.images = np.empty((BASIS_ROWS, 2 * n + 2))
            self.recent = np.empty((REBUILD_SOLVES, 3 * n + 2))
        solve = np.concatenate((v, self.w, v_hat.view(float)), out=self.recent[self.solves % REBUILD_SOLVES])
        self.solves += 1
        self._add_row(solve, a)
        if self.rows == BASIS_ROWS:
            self.rows = 0
            for j in range(self.solves - REBUILD_SOLVES, self.solves):
                solve = self.recent[j % REBUILD_SOLVES]
                self._add_row(solve, self.basis[: self.rows] @ solve[:n])

    def _add_row(self, solve, a):
        """Add the remainder of a kept solve (a row of ``recent``), whose
        momentum has coordinates a on the current rows, unless it is at
        most ``DROP_TOL`` ||v||."""
        m, n = self.rows, self.basis.shape[1]
        q = self.basis[:m]
        v = solve[:n]
        rest = v - a @ q
        more = q @ rest
        rest -= more @ q
        norm = math.sqrt(rest @ rest)
        if norm > DROP_TOL * math.sqrt(v @ v):
            a += more
            np.divide(rest, norm, out=self.basis[m])
            np.divide(solve[n:] - a @ self.images[:m], norm, out=self.images[m])
            self.rows = m + 1


def apply_mass_operator(ctx, stage, w, out=None):
    """A[eps*zeta] w at the state of ``stage``, a :class:`GNWorkspace`
    loaded at zeta, written into ``out`` when given."""
    out = np.multiply(stage.local, w, out=out)
    if ctx.params.mu > 0.0:
        spec, t = stage.spectral, stage.physical
        n = ctx.grid.n
        # dx F{ h^3 dx F{ w/h } }, each dx F as irfft(dx_symbols * rfft(.)),
        # with every result written into the solve's two buffers
        np.multiply(w, stage.inv_depths, out=t)
        spectral.rfft(t, out=spec)
        np.multiply(ctx.dx_symbols, spec, out=spec)
        spectral.irfft(spec, n, out=t)
        np.multiply(stage.cube, t, out=t)
        spectral.rfft(t, out=spec)
        np.multiply(ctx.dx_symbols, spec, out=spec)
        spectral.irfft(spec, n, out=t)
        # out -= (mu/3) (gamma t1/h1 + t2/h2), through the stage's closing
        t *= stage.closing
        out -= t[0]
        out -= t[1]
    return out


def invert_mass_operator(ctx, stage, v, x0=None):
    """Solve A[eps*zeta] w = v for w at the state of ``stage``, a
    :class:`GNWorkspace` loaded at zeta.

    mu = 0 makes A a pointwise multiplication and the inverse is exact; the
    general case runs conjugate gradients on the self-adjoint positive
    definite operator, preconditioned by the flat-interface symbol and
    warm-started from ``x0`` when given, to the context's ``cg_tol`` in at
    most ``cg_max_iter`` iterations. The preconditioner, ``A p`` and update
    buffers are built once per solve. The relative residual ||A w - v|| <=
    cg_tol ||v|| is guaranteed on return; a non-finite ||v|| (for every mu)
    or residual norm, and an r.z or p.Ap that is not positive, is a
    breakdown (ConvergenceError) as soon as it is seen.
    """
    h = stage.depths
    b_norm = math.sqrt(v @ v)
    if not math.isfinite(b_norm):
        raise ConvergenceError(f"mass-operator CG: ||v|| = {b_norm} is not finite")
    if ctx.params.mu == 0.0:
        return v * (h[0] * h[1]) / (h[0] + ctx.params.gamma * h[1])

    n = ctx.grid.n
    if b_norm == 0.0:
        return np.zeros_like(v)
    spec = np.empty(n // 2 + 1, dtype=complex)
    z = np.empty(n)
    ap = np.empty(n)
    tmp = np.empty(n)
    stop = ctx.cg_tol * b_norm

    if x0 is None:
        x = np.zeros_like(v)
        r = v.copy()
    else:
        x = np.array(x0, dtype=float)
        r = v - apply_mass_operator(ctx, stage, x, out=ap)
    # each pass checks the residual, then takes one preconditioned step
    for it in range(ctx.cg_max_iter + 1):
        norm = math.sqrt(r @ r)
        if not math.isfinite(norm):
            raise ConvergenceError(f"mass-operator CG: residual norm {norm} is not finite")
        if norm <= stop:
            return x
        if it == ctx.cg_max_iter:
            break
        # z = irfft(rfft(r) / A0), then p = z, or p = z + (rz_next/rz)*p in place
        spectral.rfft(r, out=spec)
        np.multiply(spec, ctx.inv_flat_symbol, out=spec)
        spectral.irfft(spec, n, out=z)
        rz_next = float(r @ z)
        if not rz_next > 0.0:
            raise ConvergenceError(f"mass-operator CG breakdown: r.z = {rz_next:g}")
        if it == 0:
            p = z.copy()
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
        apply_mass_operator(ctx, stage, p, out=ap)
        pap = float(p @ ap)
        if not pap > 0.0:
            raise ConvergenceError(f"mass-operator CG breakdown: p.Ap = {pap:g}")
        alpha = rz / pap
        # x += alpha*p and r -= alpha*ap through one scratch vector
        np.multiply(alpha, p, out=tmp)
        x += tmp
        np.multiply(alpha, ap, out=tmp)
        r -= tmp
    raise ConvergenceError(
        f"mass-operator CG did not reach tol={ctx.cg_tol:g} in {ctx.cg_max_iter} iterations "
        f"(relative residual {norm / b_norm:.3e})"
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


def interface_gradient(ctx, stage, w):
    """The zeta-gradient of the energy functional (the bracket inside dt v)
    at (zeta, w): the spectral pass of ``stage``, a :class:`GNWorkspace`
    loaded at zeta, and the flux w.

    u = LAYER_SIGN * w / h; one rfft of the rows w, zeta and (mu > 0) u; one
    irfft of the rows ``ctx.pass_rows``: the slope (zeta times ``grid.ik``,
    with tension) and dx F u (mu > 0), which ``stage`` keeps with ``w``,
    ``u``, ``w_hat`` and ``zeta_hat`` (None where not formed). Then the capillary
    and R chains in lockstep on the same rows: the stress dx zeta /
    sqrt(1 + mu eps^2 (dx zeta)^2) and h^3 dx F u, one rfft, one irfft by
    ``grid.ik`` and dx F, and the closings -(gamma+delta)/Bo dx stress and
    mu*eps R, R = R_2 - gamma R_1 (:func:`r_operator`); at epsilon = 0 that
    factor is 0 and R drops out.
    """
    p, zeta = ctx.params, stage.zeta
    rows = np.empty((4, ctx.grid.n))
    rows[0] = w
    rows[1] = zeta
    u = rows[2:]
    np.multiply(LAYER_SIGN, w, out=u)
    np.divide(u, stage.depths, out=u)
    cut, n = ctx.pass_rows, ctx.grid.n
    spec = spectral.rfft(rows[: cut.stop])
    stage.w, stage.u, stage.w_hat, stage.zeta_hat = w, u, spec[0], spec[1]
    stage.slope = stage.dxf_u = None
    if cut.stop > cut.start:
        dx = spectral.irfft(spec[cut] * ctx.pass_symbols, n)
        middle = np.empty_like(dx)
        if p.inv_bond > 0.0:
            stage.slope = dx[0]
            np.divide(stage.slope, _capillary_root(p, stage.slope), out=middle[0])
        if p.mu > 0.0:
            stage.dxf_u = dx[-2:]
            np.multiply(stage.cube, stage.dxf_u, out=middle[-2:])
        dx = spectral.irfft(spectral.rfft(middle) * ctx.pass_symbols, n)
    grad = (p.gamma + p.delta) * zeta + (-(p.gamma + p.delta) * p.inv_bond * dx[0] if p.inv_bond > 0.0 else 0.0)
    grad += stage.w2_coef * w**2
    if p.mu > 0.0:
        r1, r2 = r_operator(stage.depths, u, stage.dxf_u, dx[-2:])
        grad -= p.mu * p.epsilon * (r2 - p.gamma * r1)
    return grad


def rhs(ctx, stage, zeta, v, x0=None):
    """Spectral tendencies (dt zeta_hat, dt v_hat) at state (zeta, v): the
    real FFTs of the tendencies, stacked as one (2, n/2+1) complex array,
    as the Lawson stages of ``timestepper.integrate`` take them.
    ``spectral.irfft(rhs(...), n)`` gives the (2, n) tendencies in physical
    space, so ``dzeta, dv = spectral.irfft(rhs(...), n)`` unpacks them.

    Loads ``stage``, a :class:`GNWorkspace`, at zeta once, for the CG
    solve, the pass and R. Recovers w = A^{-1} v first, started from
    ``x0`` (cold when None, as :func:`invert_mass_operator` is; a timed
    stage passes :meth:`GNWorkspace.warm_start`); then the zeta-gradient
    through the pass of :func:`interface_gradient`, whose products and
    ``w`` the stage keeps, and the two exact spatial derivatives, -dx w
    and -dx of the zeta-gradient, as ``ctx.minus_ik`` times the pass's
    w_hat and the gradient's rfft (so dealiased under ``dealias``, exactly
    0 above the cut): three rfft and two irfft calls besides CG's.
    Hyperbolicity is a monitored diagnostic, not checked here.
    """
    stage.load(ctx, zeta)
    grad = interface_gradient(ctx, stage, invert_mass_operator(ctx, stage, v, x0=x0))
    out = np.empty((2, ctx.grid.n // 2 + 1), dtype=complex)
    np.multiply(stage.w_hat, ctx.minus_ik, out=out[0])
    spectral.rfft(grad, out=out[1])
    out[1] *= ctx.minus_ik
    return out
