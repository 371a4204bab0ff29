"""Exception hierarchy shared across the package."""


class MaglabError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(MaglabError, ValueError):
    """Invalid argument (nonpositive scale, bad shape parameters, ...)."""


class SolveError(MaglabError):
    """A linear solve failed or the system is numerically singular.

    Carries the scale, the condition-number estimate and the residual of
    the failed solve, each when one is available (else None).
    """

    def __init__(self, message, condition=None, *, scale=None, residual=None):
        super().__init__(message)
        self.condition = condition
        self.scale = scale
        self.residual = residual


class ResonanceError(SolveError):
    """The boundary trace system is singular at this scale parameter.

    Such scales are candidate poles of the magnitude function; the offending
    value is recorded in ``scale``.
    """

    def __init__(self, message, scale, condition=None):
        super().__init__(message, condition=condition, scale=scale)


class ResourceError(MaglabError):
    """A configurable resource cap (point count, subdivision depth) was hit."""


class MeshError(MaglabError):
    """Surface mesh is open, degenerate or inconsistently oriented."""


class ReconstructionError(MaglabError):
    """The exact rational form of a ball magnitude failed a check.

    Raised when the trace system is singular, when N/D violates its degree
    bounds, or when its zeros and poles cannot be verified by multiplying
    them back out.
    """


class PrecisionError(MaglabError):
    """An iteration or fit did not reach the accuracy it must certify.

    Raised when the shell pole survey's Newton iteration stagnates above the
    residual bound, and when the asymptotic coefficient fit's least-squares
    system is singular at the working precision.
    """


class DiagnosticError(MaglabError):
    """Input data violates an assumption of a diagnostic routine."""
