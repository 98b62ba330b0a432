"""Exception types shared across the package.

Every domain error raised by the library derives from ConicMirrorError, so the
CLI can map any domain failure to a single exit code while schema problems
(malformed input files) stay distinguishable via SchemaError.
"""

from __future__ import annotations


class ConicMirrorError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(ConicMirrorError):
    """Input does not conform to the documented JSON schemas."""


class DegeneratePolygon(ConicMirrorError):
    """The convex hull of the point set is not 2-dimensional."""


class NonTriangularCell(ConicMirrorError):
    """A lower-hull facet has more than 3 vertices (heights are non-generic)."""


class InconsistentInput(ConicMirrorError):
    """Two inputs that must describe the same object disagree."""


class NotRegular(ConicMirrorError):
    """A character index lies outside the cone of regular functions."""


class UnknownCell(ConicMirrorError):
    """A section refers to cell ids that do not match the triangulation."""


class InvalidSection(ConicMirrorError):
    """A framed section violates an interior-edge compatibility constraint."""


class SingularMatrix(ConicMirrorError):
    """A sublattice basis matrix has determinant zero."""


class InconsistentEntry(ConicMirrorError):
    """A cover-algebra entry violates the projection(n) = h - g condition."""


class RootFindingFailure(ConicMirrorError):
    """Polynomial root extraction failed on a grid line (reported, non-fatal)."""


class FloatRangeError(ConicMirrorError):
    """An exact value is past the range or the precision of floats, so a float
    command cannot use it."""


class DigitLimitError(ConicMirrorError):
    """An exact value has more digits than Python converts to a string."""
