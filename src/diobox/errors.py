"""Exception types shared across the package."""


class DioboxError(Exception):
    """Base class for every error raised by this package."""


class NotSquareError(DioboxError):
    """A square matrix was required."""


class SingularError(DioboxError):
    """The matrix (or the selected basis block) is singular."""


class RankDeficientError(DioboxError):
    """The matrix does not have full row rank."""


class DimensionMismatchError(DioboxError):
    """Operand shapes are inconsistent."""


class NonPositiveEntryError(DioboxError):
    """Every entry was required to be a positive integer."""


class GcdNotOneError(DioboxError):
    """The entries were required to be coprime."""


class CapExceededError(DioboxError):
    """A configured size cap was exceeded."""


class WrongRowCountError(DioboxError):
    """The operation is only defined for a specific number of rows."""


class GenerationFailedError(DioboxError):
    """Random instance generation gave up after bounded retries."""


class InstanceFormatError(DioboxError):
    """An instance or result file could not be parsed."""


class InternalError(DioboxError):
    """A guarantee of the code itself failed: a bug, not bad input.
    ``instance`` holds the input that exposed it."""

    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance


def require(ok: bool, message: str, instance=None) -> None:
    """Raise ``InternalError`` unless ``ok``; unlike ``assert``, this stays under ``-O``."""
    if not ok:
        raise InternalError(message, instance)
