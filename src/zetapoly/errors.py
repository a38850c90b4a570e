"""Exception types shared across the package."""


class ZetaPolyError(Exception):
    """Base class for all computational errors raised by this package."""


class DimensionMismatch(ZetaPolyError):
    pass


class IndexOutOfRange(ZetaPolyError):
    pass


class NotHomogeneous(ZetaPolyError):
    pass


class CompositionMismatch(ZetaPolyError):
    pass


class DegenerateFactor(ZetaPolyError):
    pass


class PrecisionUnreachable(ZetaPolyError):
    pass


class RegularityViolated(ZetaPolyError):
    pass


class PositiveEntry(ZetaPolyError):
    pass


class Pole(ZetaPolyError):
    pass


class HypothesisViolated(ZetaPolyError):
    pass


class IraViolated(ZetaPolyError):
    pass


class ThetaDegenerate(ZetaPolyError):
    pass


class NotElliptic(ZetaPolyError):
    pass


class NotDiagonal(ZetaPolyError):
    pass


class QuadratureDidNotConverge(ZetaPolyError):
    pass


class DomainViolation(ZetaPolyError):
    pass


class ContinuationDepthInsufficient(ZetaPolyError):
    pass


class UnsupportedPoint(ZetaPolyError):
    """Evaluation point outside the region covered by the implemented formulas."""
