"""Exception types shared across the package.

Inverting a zero scalar raises the builtin ZeroDivisionError; everything
else domain-specific derives from MmalgError so callers can catch broadly.
"""


class MmalgError(Exception):
    """Base class for package-specific errors."""


class DimensionError(MmalgError):
    """Operand shapes are incompatible."""


class BadArgument(MmalgError):
    """A parameter is outside the supported domain."""


class BadField(MmalgError):
    """A modulus that must be prime is not."""


class InvalidAlgorithm(MmalgError):
    """An operation that requires a verified algorithm was given an invalid one."""


class BadTransform(MmalgError):
    """Equivalence-transform data does not satisfy the required structure."""


class SingularMatrix(MmalgError):
    """The matrix has no inverse."""


class ExponentUndefined(MmalgError):
    """The 1x1x1 problem has no multiplication exponent."""


class FormatError(MmalgError):
    """A text file does not conform to its format.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
