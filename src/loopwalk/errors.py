"""The errors loopwalk raises for bad input and failed numerics.

Stdlib only, so the command line can parse its arguments and report a
refusal without loading numpy.  :mod:`loopwalk.model` re-exports them.
"""


class ConfigError(ValueError):
    """A device or run configuration violates the contract."""


class UnsupportedConfigError(ConfigError):
    """A valid device that the requested code path does not support."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge.

    The final residual, when known, is carried in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
