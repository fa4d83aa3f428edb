"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometry failures."""


class NonFiniteInputError(GeometryError):
    """An input coordinate, normal or offset is NaN or infinite."""


class EmptyInteriorError(GeometryError):
    """The described region is empty or lower-dimensional."""


class UnboundedError(GeometryError):
    """The given half-planes do not bound a polygon."""


class DegenerateVertexError(GeometryError):
    """More than three facet planes meet at a point beyond tolerance."""


class NonIndependentRemovalError(GeometryError):
    """Two facets scheduled for removal in one round are adjacent."""


class NotQualifiedError(GeometryError):
    """Facet fails the root-existence filter f_i(M_i) <= 0."""


class OutOfRangeError(GeometryError):
    """Evaluation height t exceeds the facet's maximum height M_i."""


class InvalidPieceCountError(GeometryError):
    """Piece count n must be a positive integer."""


class VerificationFailedError(GeometryError):
    """A solution self-check failed; `clause` names the violated check."""

    def __init__(self, clause: str, message: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {message}" if message else clause)
