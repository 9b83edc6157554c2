"""Exception hierarchy shared by all quatwitt modules."""


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
