"""Exception types shared across the package."""

__all__ = ["ConfigError", "AssumptionError", "InfeasibleProblemError", "TargetMismatchError",
           "DegenerateSignalError", "SingularFitError"]


class ConfigError(ValueError):
    """Invalid configuration input; the message names the offending field."""


class AssumptionError(ValueError):
    """A model assumption is violated (for example roundtrip efficiency too low)."""


class InfeasibleProblemError(RuntimeError):
    """The set of deliverable regulation bids is empty."""


class TargetMismatchError(ValueError):
    """Operation requires the state-of-charge target to equal the initial state."""


class DegenerateSignalError(ValueError):
    """Input signal carries no usable deviation information."""


class SingularFitError(ValueError):
    """Regression inputs do not identify the model parameters."""
