"""Exception types raised across the package."""


class QmudError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QmudError, ValueError):
    """A scenario or config value violates an invariant; message names the key."""


class ParseError(QmudError, ValueError):
    """Config text is not well-formed JSON."""


class SingularMatrix(QmudError):
    """Correlation matrix is numerically singular (condition number > 1e12)."""


class KTooLarge(QmudError):
    """Exhaustive detection requested for more users than the hard cap allows."""


class CodeOutOfRange(QmudError):
    """A chip code does not fit in the configured bits-per-chip."""


class BudgetExceeded(QmudError):
    """Hypothesis enumeration would exceed the configured budget."""


class EmptyRegister(QmudError):
    """Operation requires a register with at least one stored state."""


class DomainError(QmudError, ValueError):
    """A measurement gain lies outside its admissible interval."""


class NotPositive(QmudError):
    """A constructed measurement operator fails positive semidefiniteness."""


class InternalInconsistency(QmudError):
    """A zero-probability branch combination occurred; indicates a bug."""


class UnknownParameter(QmudError, ValueError):
    """Sweep parameter name is not one of the supported scenario fields."""


class IoError(QmudError):
    """Reading or writing a results file failed."""
