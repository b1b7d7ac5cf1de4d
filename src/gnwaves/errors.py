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


class StageRejected(RuntimeError):
    """A stage of the integration refused to give its tendencies; its
    message names the cause. The integrator rejects the step and shrinks."""


class CavitationError(StageRejected):
    """A layer depth dropped to (or below) the cavitation floor."""


class ConvergenceError(StageRejected):
    """The mass-operator solve broke down or ran out of iterations."""

