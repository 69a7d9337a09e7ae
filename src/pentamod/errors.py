"""Exception types shared across the package."""


class PentamodError(Exception):
    """Base class for all pentamod errors."""


class AntipodalEndpoints(PentamodError):
    """Arc endpoints are antipodal; the minor arc is not unique."""


class DegenerateArc(PentamodError):
    """Arc endpoints coincide; no arc can be formed."""


class AntipodeOfOrigin(PentamodError):
    """Point is the antipode of the chart origin and has no finite chart coordinate."""


class UnsupportedSolid(PentamodError):
    """Solid parameter must be 3 (tetrahedron), 4 (octahedron) or 5 (icosahedron)."""


class DegenerateAnchor(PentamodError):
    """Anchor point coincides with a construction vertex; no pentagon exists."""


class AntipodalConstruction(PentamodError):
    """A connecting arc of the pentagon construction has antipodal endpoints."""


class OutOfRange(PentamodError):
    """Curve parameter lies outside the admissible interval."""


class NoRootInDisk(PentamodError):
    """Radial polynomial has no root in the open unit disk for this angle."""


class InvalidPoints(PentamodError):
    """Points passed to a predicate do not have the required array shape."""
