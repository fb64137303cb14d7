"""Exception hierarchy for foldkin."""


class FoldkinError(Exception):
    """Base class for all foldkin errors."""


# --- surface construction ---

class NonOrientable(FoldkinError):
    """No globally consistent face orientation exists."""


class NonManifold(FoldkinError):
    """An edge is shared by three or more faces."""


class Degenerate(FoldkinError):
    """A cell fails the span condition (zero-length edge, collinear or
    non-planar face), or a vertex lies on no face."""


# --- spatial algebra ---

class ZeroAxis(FoldkinError):
    """A hinge axis has (numerically) zero length."""


# --- cosheaf machinery ---

class FunctorialityViolation(FoldkinError):
    """Composed extension maps disagree with the direct extension map."""


class NaturalityViolation(FoldkinError):
    """A cosheaf map fails to commute with the extension maps."""


class ShapeMismatch(FoldkinError):
    """Stacked extension or component matrices have the wrong shape, or
    chains are read over a cell that has no stalk."""


class ExactnessViolation(FoldkinError):
    """A stalk-wise short exact sequence check failed."""


class LiftFailure(FoldkinError):
    """A chain could not be lifted through the surjection of a sequence."""


# --- model conversions ---

class NotACycle(FoldkinError):
    """A supplied solution vector does not satisfy its model's constraints."""


class WellDefinednessViolation(FoldkinError):
    """Per-vertex velocities computed from different incident faces disagree."""


class NonRigidMotion(FoldkinError):
    """A truss motion warps a face; no rigid-body fit exists."""


class DegenerateFace(FoldkinError):
    """A face's group of the stiffened truss is not infinitesimally
    rigid: its bars do not have the rank that bracing a face to an apex
    off its plane gives."""


# --- io / cli ---

class InvalidParams(FoldkinError):
    """Generator or CLI parameters are out of range."""


class ParseError(FoldkinError):
    """Input document is not valid UTF-8 JSON of the expected shape."""


class IndexOutOfRange(FoldkinError):
    """A face or edge references a vertex id that does not exist."""


class UnknownCellId(FoldkinError):
    """A solution vector references a cell id not present in the model."""
