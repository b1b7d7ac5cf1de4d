"""Dimensionless parameter set, experiment configuration, and the flat
``key = value`` config format.

Everything downstream works in the nondimensional variables: gamma is the
density ratio (upper/lower, < 1 for stable stratification), epsilon the
amplitude parameter, mu the shallowness parameter, delta the depth ratio,
and inv_bond the inverse Bond number scaling surface tension. Configs are
flat on purpose: one key per line diffs cleanly across run records.

The keys are the fields of :class:`PhysParams` and :class:`ExperimentConfig`,
and ``_FORMATS`` declares the format once per field type, so an accepted
config writes a ``config.txt`` that parses back to it. The hydrostatic model
is the config with ``mu = 0``, the fluid at rest the one with
``ic_amplitude = 0``. No key shapes the run record: every record has a
snapshot at t = 0 and a diagnostics row per accepted step, and no spectra.
"""

import math
import numbers
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


def _kind(types, name):
    """The check of a field type: value -> why a field of that type refuses
    it, or None. numpy scalars are numbers; a bool is an int, but no number
    field's value."""
    types = types if isinstance(types, tuple) else (types,)

    def problem(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            return f"must be {name}, got {value!r}"
        return "must be finite" if isinstance(value, numbers.Real) and not math.isfinite(value) else None

    return problem


_real = _kind(numbers.Real, "a float")
_BOOL_WORDS = {"true": True, "on": True, "1": True, "false": False, "off": False, "0": False}

# field type -> (parser of the stripped value text, writer of a value, check
# of a value); a field type missing here is a KeyError at import, not a key
# that cannot be parsed, written or checked
_FORMATS = {
    float: (float, lambda v: repr(float(v)), _real),
    int: (int, str, _kind(numbers.Integral, "an int")),
    bool: (lambda raw: _BOOL_WORDS[raw.lower()], lambda v: "true" if v else "false", _kind((bool, np.bool_), "a bool")),
    str: (str, str, _kind(str, "a str")),
    float | None: (
        lambda raw: None if raw.lower() in ("", "auto", "none") else float(raw),
        lambda v: "auto" if v is None else repr(float(v)),
        _kind((numbers.Real, type(None)), "a float or None"),
    ),
    tuple: (
        lambda raw: tuple(float(part) for part in raw.split(",")) if raw else (),
        lambda v: ",".join(repr(float(t)) for t in v),
        lambda v: _kind(tuple, "a tuple")(v) or next(filter(None, map(_real, v)), None),
    ),
}


def _check_fields(config):
    """Raise ValidationError for the first field of ``config`` whose value
    the check of its type refuses (a nested PhysParams checked itself)."""
    for f in fields(config):
        check = _kind(PhysParams, "a PhysParams") if f.type is PhysParams else _FORMATS[f.type][2]
        problem = check(getattr(config, f.name))
        if problem:
            raise ValidationError(f.name, problem)


@dataclass(frozen=True)
class PhysParams:
    """The dimensionless parameter tuple (gamma, epsilon, mu, delta, Bo^-1)."""

    gamma: float = 0.95
    epsilon: float = 0.5
    mu: float = 0.1
    delta: float = 0.5
    inv_bond: float = 5e-4

    def __post_init__(self):
        _check_fields(self)
        if not (0.0 <= self.gamma < 1.0):
            raise ValidationError("gamma", f"requires 0 <= gamma < 1, got {self.gamma}")
        for name in ("epsilon", "mu", "inv_bond"):
            if getattr(self, name) < 0.0:
                raise ValidationError(name, f"must be nonnegative, got {getattr(self, name)}")
        if not self.delta > 0.0:
            raise ValidationError("delta", f"must be positive, got {self.delta}")


# Defaults reproduce the reference experiment: 512-point grid on [-4, 4],
# zeta0 = -exp(-4 x^2), w0 = 0, integrated to t = 2 at the integrator's and
# CG's default tolerances.
@dataclass(frozen=True)
class ExperimentConfig:
    params: PhysParams = PhysParams()
    multiplier: str = "regularized"   # a name in multipliers.FAMILIES | custom:<path>
    theta1: float | None = None       # default 1/(15*delta_1^2) resolved at build time
    theta2: float | None = None
    grid_n: int = 512
    domain_half_length: float = 4.0
    t_end: float = 2.0
    rel_tol: float = REL_TOL
    abs_tol: float = ABS_TOL
    ic_amplitude: float = -1.0            # zeta0 = ic_amplitude * exp(-ic_width x^2)
    ic_width: float = 4.0
    snapshot_times: tuple = ()            # empty -> snapshot at t_end only; each <= t_end
    dealias: bool = False
    cg_tol: float = CG_TOL
    cg_max_iter: int = CG_MAX_ITER

    def __post_init__(self):
        _check_fields(self)
        mult = self.multiplier
        if mult not in FAMILIES and not mult.startswith("custom:"):
            raise ValidationError("multiplier", f"must be {'|'.join(FAMILIES)}|custom:<path>, got {mult!r}")
        if self.grid_n < 8 or not _is_power_of_two(self.grid_n):
            raise ValidationError("grid_n", f"must be a power of two >= 8, got {self.grid_n}")
        # theta1/theta2 may also be None (auto)
        for name in ("domain_half_length", "t_end", "rel_tol", "abs_tol", "theta1", "theta2", "ic_width", "cg_tol"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValidationError(name, f"must be positive, got {value}")
        if any(t < 0 for t in self.snapshot_times):
            raise ValidationError("snapshot_times", "times must be nonnegative")
        if self.cg_max_iter < 1:
            raise ValidationError("cg_max_iter", "must be >= 1")
        # a time past t_end is never reached, and two times with one file
        # name tag would write one snapshot file
        if any(t > self.t_end for t in self.snapshot_times):
            raise ValidationError("snapshot_times", f"times must not exceed t_end = {self.t_end!r}")
        tags = [format_time_tag(t) for t in self.snapshot_times]
        if len(set(tags)) < len(tags):
            clash = next(tag for tag in tags if tags.count(tag) > 1)
            raise ValidationError("snapshot_times", f"two times share the file name tag {clash!r}")


_PARAM_KEYS = tuple(f.name for f in fields(PhysParams))
# the config keys in config.txt order (PhysParams fields, then the rest),
# each with the (parser, writer, check) of its field's type
_KEY_FORMATS = {
    f.name: _FORMATS[f.type]
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
        if key not in _KEY_FORMATS:
            raise ConfigError(f"unknown key {key!r}", line=line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=line_no)
        try:
            values[key] = _KEY_FORMATS[key][0](raw)
        except (ValueError, KeyError):
            raise ConfigError(f"cannot parse value {raw!r} for key {key!r}", line=line_no) from None
    return with_overrides(ExperimentConfig(), **values)


def serialize_config(config):
    """Inverse of :func:`parse_config`: emits every key explicitly, each
    written by its field's type, so a run record is self-contained.
    parse(serialize(c)) == c for valid configs."""
    lines = []
    for key, (_, write, _) in _KEY_FORMATS.items():
        value = getattr(config.params if key in _PARAM_KEYS else config, key)
        lines.append(f"{key} = {write(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(config, **changes):
    """Functional update helper mirroring dataclasses.replace, with nested
    params.* keys accepted as gamma=..., mu=..., etc."""
    param_changes = {k: v for k, v in changes.items() if k in _PARAM_KEYS}
    other = {k: v for k, v in changes.items() if k not in _PARAM_KEYS}
    if param_changes:
        other["params"] = replace(config.params, **param_changes)
    return replace(config, **other)
