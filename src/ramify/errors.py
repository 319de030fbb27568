"""Exception types shared across the package."""


class RamifyError(Exception):
    """Base class for every error this package raises on purpose."""


class FieldMismatch(RamifyError):
    """Operands belong to different coefficient fields."""


class DivisionByZero(RamifyError):
    """Inversion or division by a zero field element."""


class ZeroInput(RamifyError):
    """An operation that requires a nonzero element received zero."""


class NotAPthPower(RamifyError):
    """p-th root requested of an element outside k^p."""


class NotRationalFunctionField(RamifyError):
    """d/du only exists over F_p(u)."""


class AmbientMismatch(RamifyError):
    """Cut arithmetic across different value groups."""


class InsufficientPrecision(RamifyError):
    """The known range of a truncated series cannot certify the result."""


class ZeroSeries(InsufficientPrecision):
    """Inversion of a series whose known range is entirely zero."""


class ZeroElement(RamifyError):
    """Valuation of an element indistinguishable from zero."""


class ExtensionMismatch(RamifyError):
    """Arithmetic between elements of different extensions."""


class NotApplicable(RamifyError):
    """Operation undefined for this ramification type."""


class TrivialExtension(NotApplicable):
    """Invariant requested for a degree-1 (trivial) extension."""


class DegenerateGenerator(RamifyError):
    """The chosen b does not generate the difference ideal."""


class SwanZero(RamifyError):
    """The differential-form invariant needs a positive Swan conductor."""


class InvalidSpec(RamifyError):
    """Parameters violate the constraints of the construction."""


class ParseError(RamifyError):
    """Malformed textual input."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class FieldLiteralError(ParseError):
    """A coefficient literal does not denote an element of the field."""
