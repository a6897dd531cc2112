"""Exception types shared across the package."""


class InvalidBoxError(ValueError):
    """Box parameters are non-finite, have non-positive extents, or have
    extents outside the range a radial profile supports."""


class DegenerateQuadError(ValueError):
    """Quad has (near-)zero area or collapses to a segment."""


class AnnotationError(ValueError):
    """Malformed annotation record; carries the 1-based line number."""

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)

    @classmethod
    def unreadable(cls, path, exc):
        """The error for an input file that cannot be opened or decoded."""
        return cls(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


class DiscretizationError(ValueError):
    """Angular discretization is too coarse, or too fine to allocate."""


class ShapeError(ValueError):
    """Array or batch shapes do not line up."""


class EmptyBatchError(ValueError):
    """Batch operation called with no elements."""


class InsufficientSamplesError(ValueError):
    """Monte-Carlo estimate requested with too few samples."""


class OutOfImageError(ValueError):
    """Coordinate falls outside the image or the output grid."""


class GroupingError(ValueError):
    """Channel count does not divide into the requested groups."""


class InvalidLossError(ValueError):
    """Loss components must be finite."""


class GridAllocationError(MemoryError):
    """A target grid is too large to allocate; carries its shape."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"cannot allocate the {'x'.join(map(str, self.shape))} target grid")
