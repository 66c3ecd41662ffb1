"""Package errors: ``cli.main`` exits 3 on a ConfigError, 4 on any other."""


class StrategyShiftError(Exception):
    """Base class for all package errors."""


class ParameterError(StrategyShiftError):
    """Invalid model parameters (nonpositive means, negative intensities, ...)."""


class OrderError(StrategyShiftError):
    """A series coefficient beyond the retained truncation order was requested."""


class DomainError(StrategyShiftError):
    """An argument lies outside the mathematical domain of the operation."""


class NoExitError(StrategyShiftError):
    """A threshold can never be exceeded (zero intensity on that axis)."""


class HorizonError(StrategyShiftError):
    """Too many simulated paths hit the observation cap before exceedance."""


class NoDataError(StrategyShiftError):
    """An empirical estimate was requested from an all-censored sample."""


class ConfigError(StrategyShiftError):
    """A run configuration failed validation.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class UnsupportedConfigurationError(ConfigError):
    """A mark or interval family outside the supported set was requested."""
