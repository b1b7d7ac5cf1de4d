"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed configuration text (carries the offending line number)."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """A physical or structural invariant was violated; names the field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class CorruptFieldError(ValueError):
    """A field contains NaN or Inf entries."""


class CavitationError(RuntimeError):
    """A layer depth dropped to (or below) the cavitation floor."""


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


class StepUnderflowError(RuntimeError):
    """Adaptive step size fell below the floor. Expected outcome for
    shear-unstable runs, so the last healthy state and the integration's
    StepStats so far are attached."""

    def __init__(self, t, state, stats, dt):
        super().__init__(f"step size underflow (dt={dt:.3e}) at t={t:.6f}")
        self.t = t
        self.state = state
        self.stats = stats
        self.dt = dt
