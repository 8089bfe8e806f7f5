"""Exception and warning types shared across the package."""


class WonhamLabError(ValueError):
    """Base class for all validation and runtime errors raised by wonhamlab."""


class NonSquareError(WonhamLabError):
    """Raw transition-rate matrix is not square."""


class NegativeOffDiagonalError(WonhamLabError):
    """A transition rate off the diagonal is negative."""


class NonzeroRowSumError(WonhamLabError):
    """A row of the transition-rate matrix does not sum to zero."""


class NotMixingError(WonhamLabError):
    """Operation requires every off-diagonal transition rate to be strictly positive."""


class DimensionMismatchError(WonhamLabError):
    """Inputs describe state spaces of different sizes."""


class BoundaryInitialConditionError(WonhamLabError):
    """Initial distribution has a zero component where an interior point is required."""


class NonPositiveEntryError(WonhamLabError):
    """Vector must be entrywise strictly positive."""


class StateCollapseError(WonhamLabError):
    """A filter step left the probability simplex, or a gauge factor the double range; reduce the step."""


class GridMismatchError(WonhamLabError):
    """Time, path, or increment data does not line up with the integration grid."""


class AbsorbingStateError(WonhamLabError):
    """Chain entered a state with zero exit rate although the model was declared mixing."""


class ObservationMismatchError(WonhamLabError):
    """Operation is only defined when both models share the observation function."""


class InsufficientTrialsError(WonhamLabError):
    """Monte Carlo statistic requested with too few trials."""


class UnknownExperimentError(WonhamLabError):
    """Experiment name is not in the registry."""


class ConfigError(WonhamLabError):
    """Run configuration could not be parsed or validated."""


class IllConditionedWarning(RuntimeWarning):
    """Kept exported for compatibility; the package no longer emits it."""
