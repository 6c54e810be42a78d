"""Exception types shared across the package."""

from __future__ import annotations


class SpinsimError(Exception):
    """Base class for all package-specific errors."""


class _LineError(SpinsimError):
    """An error that may name the 1-based line it was detected on.

    ``line`` is None when the problem belongs to no single line; the
    message is then left as given.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(_LineError):
    """Problem in an input description file (``line`` is None when it spans several keys)."""


class UnknownKeyError(ConfigError):
    """Input file contains a key that is not recognized."""


class MissingRequiredKeyError(ConfigError):
    """A required key is absent from the input file."""


class ValueOutOfRangeError(ConfigError):
    """A key has a malformed value or one outside its allowed domain."""


class ConflictingKeysError(ConfigError):
    """Two keys (or a key and a list length) contradict each other."""


class TooLargeError(SpinsimError):
    """The requested dense or statevector object exceeds the size guard."""


class CircuitSyntaxError(_LineError):
    """Malformed line in the text circuit dialect."""


class UnknownGateError(CircuitSyntaxError):
    """Gate name not part of the dialect."""


class QubitOutOfRangeError(CircuitSyntaxError):
    """Gate operand refers past the declared register."""


class SingularSystemError(SpinsimError):
    """The regularized least-squares solve failed."""


class ZeroOverlapError(SpinsimError):
    """Initial state has no numerically resolvable overlap with the target spectrum slice."""


class NormDriftError(SpinsimError):
    """A simulated state's norm moved further from 1 than the drift budget allows."""


class UnsupportedFeatureError(SpinsimError):
    """Feature is recognized but intentionally not implemented."""
