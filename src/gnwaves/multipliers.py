"""Dispersion multiplier families and their admissibility diagnostics.

A multiplier pair (F1, F2) tunes the frequency dispersion of the layered
model. The operator acts mode-wise as f_hat(k) -> F_i(sqrt(mu)*k) f_hat(k).
A :class:`MultiplierSpec` is that pair of functions, made once by its
family's builder. Built-in families, with the per-layer depth convention
delta_1 = 1, delta_2 = delta:

* identity:     F_i = 1 (the classical model, no modification)
* regularized:  F_i(k) = (1 + theta_i k^2)^(-1/2), order -1 smoothing that
                suppresses high-frequency shear instabilities outright
* improved:     F_i(k) = sqrt(3/(x tanh x) - 3/x^2) with x = k/delta_i,
                which reproduces the exact linear dispersion of the
                two-layer Euler equations
* custom:       tabulated even symbol, linearly interpolated

A symbol is admissible when it is even, positive, F(0)=1, F'(0)=0, has a
bounded second derivative, and k |-> |k| F(k) is sub-additive; the
well-posedness theory needs these. :func:`check_admissibility` checks all but
evenness on the fixed sampled window |k| <= 50; evenness holds by
construction (F is evaluated at |k|).
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ValidationError

__all__ = [
    "ALIASES",
    "FAMILIES",
    "MultiplierSpec",
    "AdmissibilityReport",
    "eval_multiplier",
    "layer_symbols",
    "check_admissibility",
    "load_symbol_table",
]

# F_imp(x)^2 = 3/(x tanh x) - 3/x^2 has a removable singularity at x = 0 and
# loses ~ eps/x^2 digits to cancellation nearby, so below X_SERIES_SWITCH it
# is evaluated from the Taylor series of x*coth(x) = sum a_n x^(2n):
# F^2 = 3*sum_{n>=1} a_n x^(2n-2). At the switch point both branches are
# accurate to ~1e-14, keeping the seam mismatch well under 1e-13.
X_SERIES_SWITCH = 0.35

_XCOTH = [
    Fraction(1, 3),
    Fraction(-1, 45),
    Fraction(2, 945),
    Fraction(-1, 4725),
    Fraction(2, 93555),
    Fraction(-1382, 638512875),
    Fraction(4, 18243225),
    Fraction(-3617, 162820783125),
    Fraction(87734, 38979295480125),
    Fraction(-174611, 1531329465290625),
    Fraction(155366, 13447856940643125),
]
IMPROVED_SQ_COEFFS = np.array([float(3 * a) for a in _XCOTH])


def _improved(depth, xi):
    """F_imp(xi / depth), the improved symbol of a layer of relative depth
    ``depth``, elementwise, with its square stable through xi = 0."""
    x = np.abs(np.asarray(xi / depth, dtype=float))
    out = np.empty_like(x)
    small = x <= X_SERIES_SWITCH
    if np.any(small):
        x2 = x[small] ** 2
        acc = np.zeros_like(x2)
        for c in IMPROVED_SQ_COEFFS[::-1]:
            acc = acc * x2 + c
        out[small] = acc
    big = ~small
    if np.any(big):
        xb = x[big]
        out[big] = 3.0 / (xb * np.tanh(xb)) - 3.0 / xb**2
    return np.sqrt(out)


def _regularized(theta, xi):
    """The regularized symbol (1 + theta xi^2)^(-1/2)."""
    return 1.0 / np.sqrt(1.0 + theta * xi**2)


def _check_finite_positive(**values):
    """Refuse, by name, the first value not None that is not > 0 and at most
    1e100, the bound PhysParams puts on delta, mu and inv_bond (theta xi^2
    overflows above it)."""
    for field, value in values.items():
        if value is not None and not 0 < value <= 1e100:
            raise ValidationError(field, f"must be positive and at most 1e100, got {value}")


class MultiplierSpec:
    """A multiplier family: its ``label`` and its per-layer symbols
    ``layers = (F1, F2)``, each a function of xi = sqrt(mu)|k| >= 0.

    Use the factory classmethods: F_i(0) = 1 holds exactly for each built-in
    family, :meth:`custom` checks it of a table.
    """

    def __init__(self, label, layers):
        self.label = label
        self.layers = layers

    @classmethod
    def identity(cls):
        return cls("identity", (np.ones_like, np.ones_like))

    @classmethod
    def regularized(cls, delta, *, theta1=None, theta2=None):
        """Regularized family; each theta_i not given defaults to
        1/(15 delta_i^2), which matches the exact dispersion to one order
        beyond the unmodified model."""
        _check_finite_positive(delta=delta, theta1=theta1, theta2=theta2)
        theta1 = 1.0 / 15.0 if theta1 is None else theta1
        theta2 = 1.0 / (15.0 * delta**2) if theta2 is None else theta2
        return cls("regularized", (partial(_regularized, float(theta1)), partial(_regularized, float(theta2))))

    @classmethod
    def improved(cls, delta):
        _check_finite_positive(delta=delta)
        return cls("improved", (partial(_improved, 1.0), partial(_improved, float(delta))))

    @classmethod
    def custom(cls, k_table, f_table, label="custom"):
        k_table = np.asarray(k_table, dtype=float)
        f_table = np.asarray(f_table, dtype=float)
        if k_table.ndim != 1 or k_table.shape != f_table.shape or k_table.size < 2:
            raise ValidationError("table", f"table {label!r}: need matching 1-D arrays with >= 2 rows")
        if not np.all(np.isfinite(k_table)):
            raise ValidationError("table", f"table {label!r} has a non-finite k")
        if k_table[0] != 0.0:
            raise ValidationError("table", f"table {label!r}: first row must tabulate k = 0")
        if np.any(np.diff(k_table) <= 0):
            raise ValidationError("table", f"table {label!r}: k column must be strictly increasing")
        if not np.all(np.isfinite(f_table)):
            raise ValidationError("table", f"table {label!r}: symbol values must be finite")
        if abs(f_table[0] - 1.0) > 1e-9:
            raise ValidationError("F(0)", f"table {label!r} has F(0) = {float(f_table[0])}, expected 1")
        symbol = partial(np.interp, xp=k_table, fp=f_table)
        return cls(label, (symbol, symbol))

    def __repr__(self):
        return f"MultiplierSpec({self.label!r})"


# the built-in families by config name, in report order, each built from
# (delta, theta1, theta2); a theta left None takes its depth default
FAMILIES = {
    "identity": lambda delta, theta1, theta2: MultiplierSpec.identity(),
    "regularized": lambda delta, theta1, theta2: MultiplierSpec.regularized(delta, theta1=theta1, theta2=theta2),
    "improved": lambda delta, theta1, theta2: MultiplierSpec.improved(delta),
}
# short names that ``gnwaves --multiplier`` accepts for the families
ALIASES = {"id": "identity", "reg": "regularized", "imp": "improved"}


def eval_multiplier(spec, layer, k, mu):
    """F_layer(sqrt(mu) * k), elementwise over k.

    Evaluating the raw symbol F(xi) is the special case mu = 1, k = xi.
    """
    if layer not in (1, 2):
        raise ValidationError("layer", f"must be 1 or 2, got {layer}")
    if not (np.isfinite(mu) and mu >= 0):
        raise ValidationError("mu", f"must be finite and nonnegative, got {mu}")
    return spec.layers[layer - 1](np.sqrt(mu) * np.abs(np.asarray(k, dtype=float)))


def layer_symbols(spec, k, mu):
    """(F1, F2)(sqrt(mu) * k) stacked on a new leading axis of length 2."""
    return np.stack([eval_multiplier(spec, layer, k, mu) for layer in (1, 2)])


def load_symbol_table(path):
    """Read a two-column CSV ``k,F`` on k >= 0 into a custom spec; the even
    extension to k < 0 is implied and evaluation clamps to the table ends.
    A header must be a ``#`` comment; a non-numeric or ragged row, or a
    file with no row at all (numpy warns on it), is refused."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValidationError("table", f"{path}: {exc}") from None
    except UserWarning:
        raise ValidationError("table", f"{path}: holds no k,F row") from None
    if rows.shape[1] != 2:
        raise ValidationError("table", f"{path}: expected two columns k,F")
    return MultiplierSpec.custom(rows[:, 0], rows[:, 1], label=f"custom:{path}")


# the admissibility window: |k| <= K_MAX, sampled at SAMPLES points per axis
K_MAX = 50.0
SAMPLES = 100


@dataclass
class AdmissibilityReport:
    label: str
    layer: int
    subadditive_ok: bool
    worst_violation: float        # min over pairs of g(k)+g(l)-g(k+l); bad if < -1e-12
    f0_ok: bool
    fprime0_ok: bool
    positive_ok: bool             # min F > 0 on the window
    second_derivative_bound: float
    sigma: float
    k_constant: float

    def summary(self):
        lines = [
            f"multiplier {self.label!r}, layer {self.layer}",
            f"  sub-additive |k|F(k): {'ok' if self.subadditive_ok else 'VIOLATED'}"
            f" (worst margin {self.worst_violation:+.3e})",
            f"  F(0) = 1: {'ok' if self.f0_ok else 'FAILED'}",
            f"  F'(0) = 0: {'ok' if self.fprime0_ok else 'FAILED'}",
            f"  positive on window: {'ok' if self.positive_ok else 'FAILED'}",
            f"  sup |F''| on window: {self.second_derivative_bound:.6g}",
            f"  decay fit: |F(k)| <= {self.k_constant:.6g} * |k|^-{self.sigma:g}",
        ]
        return "\n".join(lines)


def _fit_decay(f, k_pos):
    """Largest sigma in {1, 1/2, 0} with |F(k)|*|k|^sigma bounded on the
    window, from the symbol's values f on the positive ladder k_pos: a bound
    on the decay of F, whatever its sign.

    Boundedness on a finite window is judged by saturation: the sup over the
    outer half must not exceed the sup over the inner half by more than 5%.
    """
    half = k_pos <= 0.5 * k_pos[-1]
    size = np.abs(f)
    for sigma in (1.0, 0.5, 0.0):
        g = size * k_pos**sigma
        inner_sup = float(np.max(g[half]))
        outer_sup = float(np.max(g[~half]))
        if outer_sup <= 1.05 * inner_sup:
            return sigma, max(inner_sup, outer_sup)
    return 0.0, float(np.max(size))


def check_admissibility(spec, layer):
    """Numerically verify admissibility of one layer's symbol on the window
    |k| <= K_MAX sampled at SAMPLES points.

    Sub-additivity of g(k) = |k| F(k) is tested on the full (k, l) lattice of
    the window's points, 10^4 ordered pairs; positivity is min F > 0 on
    them. Violations are reported, never raised.
    """
    ks = np.linspace(-K_MAX, K_MAX, SAMPLES)

    def symbol(k):
        """The raw symbol F(k), eval_multiplier at mu = 1."""
        return eval_multiplier(spec, layer, k, 1.0)

    f_vals = symbol(ks)
    g = np.abs(ks) * f_vals
    # k_i + l_j lands back on a uniform ladder indexed by i + j.
    sums = np.linspace(-2 * K_MAX, 2 * K_MAX, 2 * SAMPLES - 1)
    g_sum = np.abs(sums) * symbol(sums)
    idx = np.arange(SAMPLES)
    margin = g[:, None] + g[None, :] - g_sum[idx[:, None] + idx[None, :]]
    worst = float(np.min(margin))

    # F'(0) one-sided (F is even): F(h) - F(0) is a quarter of F(2h) - F(0)
    # for a smooth onset, a half for a corner
    h = 1e-6 * K_MAX
    f0, f_h, f_2h = symbol(np.array([0.0, h, 2 * h])).tolist()
    # windowed sup |F''| by central second differences on the sample ladder,
    # which has no node at 0, and there (F is even) by 2 (F(h) - F(0)) / h^2
    dk = ks[1] - ks[0]
    second = np.abs(f_vals[2:] - 2 * f_vals[1:-1] + f_vals[:-2]) / dk**2
    second_at_0 = 2.0 * abs(f_h - f0) / h**2

    k_pos = np.linspace(K_MAX / SAMPLES, K_MAX, SAMPLES)
    sigma, k_const = _fit_decay(symbol(k_pos), k_pos)

    return AdmissibilityReport(
        label=spec.label,
        layer=layer,
        subadditive_ok=worst >= -1e-12,
        worst_violation=worst,
        f0_ok=abs(f0 - 1.0) <= 1e-12,
        fprime0_ok=abs(f_h - f0) <= 0.3 * abs(f_2h - f0) + 1e-15,
        positive_ok=bool(np.min(f_vals) > 0.0),
        second_derivative_bound=max(float(np.max(second)), second_at_0),
        sigma=sigma,
        k_constant=k_const,
    )
