"""Exception types shared across the package."""


class CurvebenchError(Exception):
    """Base class for all curvebench-specific errors."""


class DegenerateMetricError(CurvebenchError):
    """Metric matrix is singular (or nearly so) and cannot be inverted."""


class MetricEstimationError(CurvebenchError):
    """Least-squares metric fit failed (e.g. neighbors do not span)."""


class ScoringError(CurvebenchError):
    """Embedding is too degenerate to score."""


class TuningError(CurvebenchError):
    """Hyperparameter search could not produce a single successful run."""


class ExternalReducerError(CurvebenchError):
    """Base class for external-reducer protocol violations."""

    def __init__(self, message, command=None, stdout="", stderr=""):
        super().__init__(message)
        self.command = command
        self.stdout = stdout
        self.stderr = stderr


class ReducerExitError(ExternalReducerError):
    """External reducer exited with a nonzero status code."""


class ReducerTimeoutError(ExternalReducerError):
    """External reducer exceeded its wall-clock budget and was killed."""


class ReducerOutputError(ExternalReducerError):
    """External reducer produced missing or malformed output."""


class ReducerRowCountError(ReducerOutputError):
    """External reducer returned the wrong number of embedding rows."""
