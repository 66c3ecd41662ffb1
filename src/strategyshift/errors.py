"""Package errors, one class per exit code: ``cli.main`` exits 3 on a
ConfigError and 4 on a DomainError (any other StrategyShiftError)."""


class StrategyShiftError(Exception):
    """Base class for all package errors."""


class DomainError(StrategyShiftError):
    """Parameters, arguments, a sample or a result outside the domain of an
    operation, invalid model parameters and non-finite values included."""


class ConfigError(StrategyShiftError):
    """A run configuration failed validation (an unsupported family included).

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
