"""Exception hierarchy shared by all quatwitt modules, and `quoted`, the
one way a refusal writes the value it refuses: its text (str for an int
or a Fraction, repr for a string or any other object) if that has at
most 40 characters, else the repr of its first 40 and its length, and an
integer past 40 digits by its number of bits, its digits never built.
Quoting never raises, so every refusal is one short line."""


def quoted(x) -> str:
    """x in a refusal message, by the rule above."""
    if isinstance(x, int) and abs(x) >= 10 ** 40:
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"
    try:
        text = str(x)  # the repr, for an object that defines no __str__
    except ValueError:  # a part past the integer digit limit
        return f"<{type(x).__name__} past the digit limit>"
    if len(text) > 40:
        return f"{text[:40]!r}... ({len(text)} characters)"
    return repr(x) if isinstance(x, str) else text


class QuatWittError(Exception):
    """Base class for all library errors."""


class ZeroElement(QuatWittError):
    pass


class ZeroArgument(QuatWittError):
    pass


class ZeroSlot(QuatWittError):
    pass


class FactorizationLimitExceeded(QuatWittError):
    pass


class DigitLimitExceeded(QuatWittError):
    """A result number too long to write as integer text."""


class EvenOrCompositeModulus(QuatWittError):
    pass


class UnsupportedField(QuatWittError):
    pass


class FieldMismatch(QuatWittError):
    pass


class DegenerateForm(QuatWittError):
    pass


class NonSymmetricMatrix(QuatWittError):
    pass


class DegreeTooLarge(QuatWittError):
    pass


class AlgebraMismatch(QuatWittError):
    pass


class NotSplit(QuatWittError):
    pass


class NotDivision(QuatWittError):
    pass


class NotNilpotent(QuatWittError):
    pass


class NotPureInvertible(QuatWittError):
    pass


class SearchBoundExceeded(QuatWittError):
    pass


class AsymmetryDetected(QuatWittError):
    pass


class VerificationFailed(QuatWittError):
    """An exact check of a computed result failed."""


class RankMismatch(QuatWittError):
    pass


class LengthMismatch(QuatWittError):
    pass


class UnsupportedResidueField(QuatWittError):
    pass


class MissingFactorization(QuatWittError):
    pass


class NoGoodSpecializationPoint(QuatWittError):
    pass


class SchemaViolation(QuatWittError):
    """A refused input, at its JSON pointer when it lies in a document."""

    def __init__(self, message, pointer=None):
        super().__init__(message if pointer is None
                         else f"{message} (at {pointer or '/'})")
        self.pointer = pointer


class UnknownSuite(QuatWittError):
    pass


class GenericBasisUnavailable(QuatWittError):
    pass
