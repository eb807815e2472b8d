"""Exception hierarchy shared by all fusionweave modules."""


class FusionWeaveError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FusionWeaveError):
    """Raised when operands live in incompatible ambient spaces."""


class NonSymmetric(FusionWeaveError):
    """Raised when a symmetric matrix was expected."""


class PartOutsideSubspace(FusionWeaveError):
    """Raised when a synthesis coefficient vector lies outside its subspace."""


class NotAFrame(FusionWeaveError):
    """Raised when an operation needs an invertible frame operator."""


class LengthMismatch(FusionWeaveError):
    """Raised when frame families do not share an index-set size."""


class DualityLost(FusionWeaveError):
    """Raised when an enlarged dual fails the reconstruction identity."""


class EnumerationTooLarge(FusionWeaveError):
    """Raised when exhaustive enumeration would exceed the configured cap."""


class NonUniformWeights(FusionWeaveError):
    """Raised when an operation requires all weights equal to one."""


class SingularOperator(FusionWeaveError):
    """Raised when an operator must be invertible but is not."""


class NotOrthonormalBasis(FusionWeaveError):
    """Raised when a subspace family is not an orthonormal fusion basis."""


class IndexOutOfRange(FusionWeaveError):
    """Raised when an index subset leaves the valid 1-based range."""


class AngleNotLessThanOne(FusionWeaveError):
    """Raised when the angle cosine needed by a modulus bound is >= 1."""


class ZeroOperator(FusionWeaveError):
    """Raised when an operator is numerically zero where that is not allowed."""


class NotUnitary(FusionWeaveError):
    """Raised when a check demands a unitary operator."""


class ParseError(FusionWeaveError):
    """Raised on malformed input documents; message carries field diagnostics."""


class NonPositiveWeight(FusionWeaveError, ValueError):
    """Raised when a subspace weight is not positive and finite."""
