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
    the message names the offending matrix."""

    def __init__(self, matrix_name: str, detail: str = ""):
        msg = f"factorization failed for {matrix_name}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
        self._init_args = (matrix_name, detail)

    def __reduce__(self):
        # rebuilt from its own arguments, not from its message: pickled by
        # default, it would come back with the message doubled
        return type(self), self._init_args


class OptimizationFailure(RuntimeError):
    """Every optimizer restart failed."""
