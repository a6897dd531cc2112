"""Exception types shared across the package, and the count and finiteness checks."""

import math

import numpy as np

# Error texts print an integer longer than this many digits in short form.
# Every int64 or uint64 value (at most 20 digits) still prints in full.
MAX_PRINTED_DIGITS = 24


def short_int(value) -> str:
    """str(value), except that an int longer than MAX_PRINTED_DIGITS digits
    reads as its first six digits, cut rather than rounded and
    without trailing zeros, in scientific form: int(1.5e300) reads
    1.5e+300.  The digits come from the integer, not from a float, so
    10**400 reads 1e+400 and no decimal string of the whole integer is built."""
    if not isinstance(value, int) or abs(value) < 10**MAX_PRINTED_DIGITS:
        return str(value)
    magnitude = abs(value)
    exponent = int(math.log10(magnitude))
    # The float logarithm can land one off near a power of ten.
    exponent += (magnitude >= 10 ** (exponent + 1)) - (magnitude < 10**exponent)
    lead = str(magnitude // 10 ** (exponent - 5))
    mantissa = lead[0] + f".{lead[1:]}".rstrip(".0")
    return f"{'-' * (value < 0)}{mantissa}e+{exponent}"


def check_count(name: str, value, minimum: int) -> int:
    """value as an int when it is a whole number >= minimum (3.0 counts as 3);
    ValueError naming the argument otherwise."""
    # The range test comes first: int() of a NaN or an infinity raises.
    if not (minimum <= value < math.inf and value == int(value)):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {short_int(value)}")
    return int(value)


def finite(*values) -> bool:
    """True when math.isfinite holds for every value.  An int past the float
    range reads as not finite; a value that is not a real number (a str)
    raises TypeError.  The one finiteness test for scalars in the package."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int past the float range
        return False


def float_array(values, error, message):
    """np.asarray(values, dtype=np.float64), except that a whole number past
    the float range raises error(message) instead of numpy's bare
    OverflowError; a {} in message reads as that number in short form."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        entry = _past_float_range(values)
        raise error(message.format(short_int(values if entry is None else entry))) from None


def finite_array(values, error, message):
    """float_array(values, error, message), except that a NaN or an infinity
    raises error(message) as well; a {} in message reads as the first
    entry that is not finite.  The one finiteness test for arrays in the
    package."""
    array = float_array(values, error, message)
    if not np.isfinite(array).all():
        raise error(message.format(float(array[~np.isfinite(array)][0])))
    return array


def _past_float_range(values):
    """The first int past the float range in a number or nested sequence, or None."""
    if isinstance(values, int):
        return None if finite(values) else values
    if isinstance(values, (str, bytes)):  # each character is a str again
        return None
    try:
        entries = iter(values)
    except TypeError:
        return None
    for entry in entries:
        found = _past_float_range(entry)
        if found is not None:
            return found
    return None


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
        super().__init__(f"cannot allocate the {'x'.join(map(short_int, self.shape))} target grid")
