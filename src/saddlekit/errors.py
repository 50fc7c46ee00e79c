"""Exception hierarchy with stable machine-readable error codes.

Every domain error carries a ``code`` string that the CLI maps one-to-one
onto its error JSON, so library errors and command-line errors stay in sync.
"""


class SaddlekitError(Exception):
    code = "ERROR"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def to_json_dict(self):
        return {"error": self.code, "detail": str(self), **self.details}


class SurfaceError(SaddlekitError):
    code = "SURFACE"


class EdgeSumError(SurfaceError):
    code = "EDGE_SUM"


class AreaError(SurfaceError):
    code = "AREA_NONPOSITIVE"


class GluingInvolutionError(SurfaceError):
    code = "GLUING_NOT_INVOLUTIVE"


class GluingOppositeError(SurfaceError):
    code = "GLUING_NOT_OPPOSITE"


class ConeAngleError(SurfaceError):
    code = "CONE_ANGLE"


class DisconnectedError(SurfaceError):
    code = "DISCONNECTED"


class SingularMatrixError(SaddlekitError):
    code = "SINGULAR_MATRIX"


class ResourceLimitError(SaddlekitError):
    code = "RESOURCE_LIMIT"


class DegenerateDiamondError(SaddlekitError):
    code = "DEGENERATE_DIAMOND"


class FlipCycleError(SaddlekitError):
    code = "FLIP_CYCLE"


class ChewCaseError(SaddlekitError):
    """Raised when the slope-normalized case analysis reaches the case that
    must never occur; indicates a normalization or predicate bug."""

    code = "CHEW_CASE"


class AmbiguousMembershipError(SaddlekitError):
    code = "AMBIGUOUS_MEMBERSHIP"


class PrecisionLimitError(SaddlekitError):
    code = "PRECISION_LIMIT"


class AcceptanceRateError(SaddlekitError):
    code = "ACCEPTANCE_RATE"


class InputError(SaddlekitError):
    code = "INPUT"


class BlockedAtVertex(InputError):
    """A straight segment meets a vertex before its end.

    Carries the vertex's developed position and its id, so a caller can
    split the segment there.
    """

    code = "BLOCKED_AT_VERTEX"

    def __init__(self, position, vertex: int):
        super().__init__(f"segment blocked at {position}")
        self.position = position
        self.vertex = vertex
