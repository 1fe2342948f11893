"""Exception taxonomy shared across the package.

Every failure mode a caller can act on gets its own class so the CLI can
map them to exit codes (usage errors -> 2, numerical failures -> 3).
"""


class ShellWrinkleError(Exception):
    """Base class for all package errors."""


class DomainError(ShellWrinkleError):
    """A point lies outside the domain where an operation is defined."""


class UnsupportedShapeError(ShellWrinkleError):
    """The requested shape/sign combination is outside the closed catalog."""


class ResolutionError(ShellWrinkleError):
    """A grid or sample count is below the minimum needed by the operation."""


class ParameterError(ShellWrinkleError):
    """Construction parameters violate their admissibility constraints."""


class RegimeError(ShellWrinkleError):
    """Scale parameters fall outside the asymptotic regime of validity."""


class DataError(ShellWrinkleError):
    """Input fields are inconsistent or missing required components."""


class ConsistencyError(ShellWrinkleError):
    """Two objects passed together were built from different inputs."""
