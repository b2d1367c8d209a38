"""Exception types shared across the package."""


class NormlabError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(NormlabError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class SpecValidationError(NormlabError, ValueError):
    """A norm descriptor violates its invariants (p < 1, gamma <= 0, ...)."""


class HomogeneityError(NormlabError, ValueError):
    """An objective handed to the sphere optimizer is not absolutely homogeneous."""


class NonConvergenceError(NormlabError, RuntimeError):
    """The eigen solve gave no finite answer."""


class DocumentParseError(NormlabError, ValueError):
    """A norm-spec or matrix document is malformed; carries a locus string."""

    def __init__(self, message, locus=None):
        if locus:
            message = f"{message} (at {locus})"
        super().__init__(message)
        self.locus = locus
