"""Exception types shared across the package.

The CLI maps these onto process exit codes (config 2, data 3, numerical 4);
plain ``ValueError`` is used for ordinary precondition violations.
"""


class ConfigError(ValueError):
    """Run configuration is malformed or self-inconsistent."""


class DataError(ValueError):
    """An input file is missing, malformed, or contains invalid values."""


class NumericalDegeneracyError(RuntimeError):
    """A matrix factorization failed or found a non-positive eigenvalue;
    names the offending matrix."""

    def __init__(self, matrix_name: str, detail: str = ""):
        self.matrix_name = matrix_name
        msg = f"factorization failed for {matrix_name}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class OptimizationFailure(RuntimeError):
    """Every optimizer restart failed; carries the per-start trace."""

    def __init__(self, message: str, starts: list | None = None):
        super().__init__(message)
        self.starts = starts or []
