"""Exception types shared by the whole package.

Every error carries a stable ``code`` string so the CLI can report it
machine-readably without depending on Python class names.
"""


class BergeError(Exception):
    """Base class for all package errors."""

    code = "error"


class EdgeSizeError(BergeError):
    """A hyperedge does not have exactly 2 or 3 vertices."""

    code = "edge-size"


class DuplicateEdgeError(BergeError):
    """The same hyperedge appears twice."""

    code = "duplicate-edge"


class LinearityError(BergeError):
    """Two hyperedges share two or more vertices."""

    code = "linearity"


class VertexOutOfRangeError(BergeError):
    """A vertex index is negative or >= the declared vertex count."""

    code = "vertex-range"


class FormatError(BergeError):
    """Malformed .hg input that fails before semantic validation."""

    code = "format"


class InstanceTooLargeError(BergeError):
    """Instance exceeds a brute-force oracle's size cap."""

    code = "instance-too-large"


class CapExceededError(BergeError):
    """Enumeration cap exceeded."""

    code = "cap-exceeded"


class BadResidueError(BergeError):
    """Construction parameter fails its residue/divisibility condition."""

    code = "bad-residue"


class BadParityError(BergeError):
    """Construction parameter has the wrong parity."""

    code = "bad-parity"


class VertexOnCycleError(BergeError):
    """Peripheral sets requested for a defining vertex of the cycle."""

    code = "vertex-on-cycle"


class TripleTouchesCycleError(BergeError):
    """A checker was given a hyperedge that meets the cycle's defining vertices."""

    code = "triple-touches-cycle"


class BadSharingPatternError(BergeError):
    """Two hyperedges do not share exactly one vertex."""

    code = "bad-sharing"
