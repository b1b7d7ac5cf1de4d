"""Dimensionless parameter set, experiment configuration, and the flat
``key = value`` config format.

Everything downstream works in the nondimensional variables: gamma is the
density ratio (upper/lower, < 1 for stable stratification), epsilon the
amplitude parameter, mu the shallowness parameter, delta the depth ratio,
and inv_bond the inverse Bond number scaling surface tension. Configs are
flat on purpose: one key per line diffs cleanly across run records.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, ValidationError
from .io_store import format_time_tag
from .multipliers import FAMILIES
from .operators import CG_MAX_ITER, CG_TOL
from .spectral import _is_power_of_two
from .timestepper import ABS_TOL, REL_TOL

__all__ = [
    "PhysParams",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
]


@dataclass(frozen=True)
class PhysParams:
    """The dimensionless parameter tuple (gamma, epsilon, mu, delta, Bo^-1)."""

    gamma: float = 0.95
    epsilon: float = 0.5
    mu: float = 0.1
    delta: float = 0.5
    inv_bond: float = 5e-4

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValidationError("gamma", f"requires 0 <= gamma < 1, got {self.gamma}")
        if self.epsilon < 0.0:
            raise ValidationError("epsilon", f"must be nonnegative, got {self.epsilon}")
        if self.mu < 0.0:
            raise ValidationError("mu", f"must be nonnegative, got {self.mu}")
        if not self.delta > 0.0:
            raise ValidationError("delta", f"must be positive, got {self.delta}")
        if self.inv_bond < 0.0:
            raise ValidationError("inv_bond", f"must be nonnegative, got {self.inv_bond}")
        _require_finite(self)


def _require_finite(config):
    """Reject every non-finite float field of ``config``, tuple entries included."""
    for f in fields(config):
        value = getattr(config, f.name)
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, (float, np.floating)) and not math.isfinite(v) for v in entries):
            raise ValidationError(f.name, "must be finite")


# Defaults reproduce the reference experiment: 512-point grid on [-4, 4],
# zeta0 = -exp(-4 x^2), w0 = 0, integrated to t = 2 at the integrator's and
# CG's default tolerances.
@dataclass(frozen=True)
class ExperimentConfig:
    params: PhysParams = PhysParams()
    model: str = "gn"                 # gn | sv
    multiplier: str = "regularized"   # a name in multipliers.FAMILIES | custom:<path>
    theta1: float | None = None       # default 1/(15*delta_1^2) resolved at build time
    theta2: float | None = None
    grid_n: int = 512
    domain_half_length: float = 4.0
    t_end: float = 2.0
    rel_tol: float = REL_TOL
    abs_tol: float = ABS_TOL
    initial_condition: str = "gaussian"   # gaussian | rest
    ic_amplitude: float = -1.0
    ic_width: float = 4.0
    snapshot_times: tuple = ()            # empty -> snapshot at t_end only; each <= t_end
    write_spectra: bool = True
    diag_stride: int = 1
    dealias: bool = False
    k_band: float | None = None           # None -> half-Nyquist
    cg_tol: float = CG_TOL
    cg_max_iter: int = CG_MAX_ITER

    def __post_init__(self):
        # a float or bool here would be written to config.txt as a value
        # that parse_config refuses
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValidationError(f.name, f"must be an int, got {value!r}")
        if self.model not in ("gn", "sv"):
            raise ValidationError("model", f"must be 'gn' or 'sv', got {self.model!r}")
        mult = self.multiplier
        if mult not in FAMILIES and not mult.startswith("custom:"):
            raise ValidationError("multiplier", f"must be {'|'.join(FAMILIES)}|custom:<path>, got {mult!r}")
        if self.grid_n < 8 or not _is_power_of_two(self.grid_n):
            raise ValidationError("grid_n", f"must be a power of two >= 8, got {self.grid_n}")
        if not self.domain_half_length > 0:
            raise ValidationError("domain_half_length", "must be positive")
        if not self.t_end > 0:
            raise ValidationError("t_end", f"must be positive, got {self.t_end}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("rel_tol/abs_tol", "tolerances must be positive")
        for name in ("theta1", "theta2"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValidationError(name, f"must be positive, got {value}")
        if self.initial_condition not in ("gaussian", "rest"):
            raise ValidationError(
                "initial_condition", f"must be 'gaussian' or 'rest', got {self.initial_condition!r}"
            )
        if not self.ic_width > 0:
            raise ValidationError("ic_width", f"must be positive, got {self.ic_width}")
        if any(t < 0 for t in self.snapshot_times):
            raise ValidationError("snapshot_times", "times must be nonnegative")
        if self.diag_stride < 1:
            raise ValidationError("diag_stride", "must be >= 1")
        if self.k_band is not None and self.k_band < 0:
            raise ValidationError("k_band", "must be nonnegative")
        if not self.cg_tol > 0:
            raise ValidationError("cg_tol", "must be positive")
        if self.cg_max_iter < 1:
            raise ValidationError("cg_max_iter", "must be >= 1")
        _require_finite(self)
        # a time past t_end is never reached, and two times with one file
        # name tag would write one snapshot file
        if any(t > self.t_end for t in self.snapshot_times):
            raise ValidationError("snapshot_times", f"times must not exceed t_end = {self.t_end!r}")
        tags = [format_time_tag(t) for t in self.snapshot_times]
        if len(set(tags)) < len(tags):
            clash = next(tag for tag in tags if tags.count(tag) > 1)
            raise ValidationError("snapshot_times", f"two times share the file name tag {clash!r}")


_BOOL_WORDS = {"true": True, "on": True, "1": True, "false": False, "off": False, "0": False}

# field type -> parser of the stripped value text; a field type missing here
# is a KeyError at import, not a key that cannot be parsed
_PARSERS = {
    float: float,
    int: int,
    str: str,
    bool: lambda raw: _BOOL_WORDS[raw.lower()],
    float | None: lambda raw: None if raw.lower() in ("", "auto", "none") else float(raw),
    tuple: lambda raw: tuple(float(part) for part in raw.split(",")) if raw else (),
}

_PARAM_KEYS = tuple(f.name for f in fields(PhysParams))
# the config keys in config.txt order: PhysParams fields, then the rest
_KEY_PARSERS = {
    f.name: _PARSERS[f.type]
    for f in fields(PhysParams) + tuple(f for f in fields(ExperimentConfig) if f.name != "params")
}


def parse_config(text):
    """Parse a flat ``key = value`` document into an :class:`ExperimentConfig`.

    Lines are either blank, ``# comment``, or ``key = value``. The keys are
    the fields of :class:`PhysParams` and :class:`ExperimentConfig`. Unknown
    keys are a hard error (they are almost always typos), and every missing
    key takes its reference-experiment default.
    """
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}", line=line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=line_no)
        try:
            values[key] = _KEY_PARSERS[key](raw)
        except (ValueError, KeyError):
            raise ConfigError(f"cannot parse value {raw!r} for key {key!r}", line=line_no) from None
    return with_overrides(ExperimentConfig(), **values)


def _format_value(value):
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(t)) for t in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config):
    """Inverse of :func:`parse_config`: emits every key explicitly so a run
    record is self-contained. parse(serialize(c)) == c for valid configs."""
    lines = []
    for key in _KEY_PARSERS:
        value = getattr(config.params if key in _PARAM_KEYS else config, key)
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(config, **changes):
    """Functional update helper mirroring dataclasses.replace, with nested
    params.* keys accepted as gamma=..., mu=..., etc."""
    param_changes = {k: v for k, v in changes.items() if k in _PARAM_KEYS}
    other = {k: v for k, v in changes.items() if k not in _PARAM_KEYS}
    if param_changes:
        other["params"] = replace(config.params, **param_changes)
    return replace(config, **other)
