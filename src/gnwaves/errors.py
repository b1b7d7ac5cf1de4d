"""Exception types shared across the package.

Every refusal of input from outside the package (a config line or value,
a parameter, a field, a file) is one :class:`ValidationError`; a stage that
the integration cannot evaluate is a :class:`StageRejected`, subclassed by
its cause."""


class ValidationError(ValueError):
    """Input from outside the package was refused. ``field`` names what was
    refused (a key, a config line ``"line N"``, a field or a file), and the
    message reads ``"<field>: <why>"``."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class StageRejected(RuntimeError):
    """A stage of the integration refused to give its tendencies; its
    message names the cause. The integrator rejects the step and shrinks."""


class CavitationError(StageRejected):
    """A layer depth dropped to (or below) the cavitation floor."""


class ConvergenceError(StageRejected):
    """The mass-operator solve broke down or ran out of iterations."""

