"""Oriented-box types, canonical parameterization, corner codecs, annotation ingestion.

Coordinate convention: image frame, x right, y down.  "Clockwise" always means
clockwise as drawn on screen in that frame.  Angles are radians measured from
the +x axis; the orientation of a box is the direction of its long axis, kept
in (-pi/2, pi/2] by `canonicalize`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AnnotationError, DegenerateQuadError, InvalidBoxError, finite, finite_array,
                     float_array, short_int)

HALF_PI = math.pi / 2

# Adjacent edges of an annotation quad may deviate from orthogonal by this
# much (radians) before the rectangle fit warns.
ORTHOGONALITY_WARN_RAD = 0.05


@dataclass(frozen=True, init=False)
class OrientedBox:
    """Rotated rectangle: center, half-extents along its two axes, axis angle.

    The constructor only requires finite values and positive extents, so
    non-canonical parameterizations (swapped axes, angles outside
    (-pi/2, pi/2]) are representable; they arise naturally as raw network
    predictions.  `canonicalize` maps any parameterization to the unique
    canonical representative of the same point set.
    """

    cx: float
    cy: float
    r1: float
    r2: float
    phi: float

    def __init__(self, cx: float, cy: float, r1: float, r2: float, phi: float):
        # The values are checked as given, then the fields are set at once, as floats.
        if not finite(cx, cy, r1, r2, phi):
            vals = ", ".join(map(short_int, (cx, cy, r1, r2, phi)))
            raise InvalidBoxError(f"non-finite box parameters ({vals})")
        if r1 <= 0 or r2 <= 0:
            raise InvalidBoxError("half-extents must be positive, "
                                  f"got r1={short_int(r1)}, r2={short_int(r2)}")
        self.__dict__.update(cx=float(cx), cy=float(cy), r1=float(r1), r2=float(r2),
                             phi=float(phi))


def canonicalize(box: OrientedBox) -> OrientedBox:
    """Unique canonical form: r1 >= r2, phi in (-pi/2, pi/2], same point set.

    Swapping the axes rotates the angle by pi/2; square boxes keep their
    angle (only wrapped into range).  A canonical box is returned unchanged,
    the same object, so canonicalize is exactly idempotent.
    """
    r1, r2, phi = box.r1, box.r2, box.phi
    if r1 >= r2 and -HALF_PI < phi <= HALF_PI:
        return box
    if r1 < r2:
        r1, r2 = r2, r1
        phi = phi + HALF_PI
    # IEEE remainder is exact: it keeps an angle already in range and reduces
    # by pi-shifts without rounding.
    phi = math.remainder(phi, math.pi)
    if phi <= -HALF_PI:
        phi += math.pi
    return OrientedBox(box.cx, box.cy, r1, r2, phi)


def corner_offsets(box: OrientedBox) -> list[tuple[float, float]]:
    """Corners of a box relative to its center, in decode_corners' order.

    No overflow check: decode_corners is where a corner that overflows
    is rejected.
    """
    c, s = math.cos(box.phi), math.sin(box.phi)
    r1, r2 = box.r1, box.r2
    # The rotation of (+-r1, +-r2), with each product taken once: negating a
    # product is exact, so these are the bits of c*bx - s*by and s*bx + c*by.
    cr1, sr1, cr2, sr2 = c * r1, s * r1, c * r2, s * r2
    return [(sr2 - cr1, -sr1 - cr2), (cr1 + sr2, sr1 - cr2),
            (cr1 - sr2, sr1 + cr2), (-cr1 - sr2, cr2 - sr1)]


def decode_corners(box: OrientedBox) -> np.ndarray:
    """Corners of a box: rotate the axis-aligned corners by phi, translate to the center.

    Returns a read-only (4, 2) float64 array.  The order starts at the corner
    that sits at (-r1, -r2) in the box frame and runs clockwise on screen.
    Raises InvalidBoxError when a corner overflows to a non-finite value.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corner_offsets(box)
    cx, cy = box.cx, box.cy
    x0, y0, x1, y1 = x0 + cx, y0 + cy, x1 + cx, y1 + cy
    x2, y2, x3, y3 = x2 + cx, y2 + cy, x3 + cx, y3 + cy
    # Corner by corner: a sum of the coordinates can overflow while every corner is finite.
    if not finite(x0, y0, x1, y1, x2, y2, x3, y3):
        raise InvalidBoxError("non-finite corner coordinates")
    quad = np.array([(x0, y0), (x1, y1), (x2, y2), (x3, y3)])
    quad.setflags(write=False)
    return quad


def signed_area(corners) -> float:
    """Signed polygon area, positive for counterclockwise traversal on screen.

    On-screen means the image frame (y down), so corner quads decoded from a
    box come out negative: they run clockwise.  corners is any iterable of
    (x, y) pairs, each coordinate taken as a float64; InvalidBoxError when
    one is NaN, infinite or an int past the float range.
    """
    pts = finite_array(list(corners), InvalidBoxError, "non-finite corner coordinates").tolist()
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        acc += x1 * y0 - x0 * y1
    return 0.5 * acc


def _corner_array(quad, convert=float_array) -> np.ndarray:
    """quad as a (4, 2) float64 array; InvalidBoxError on any other shape,
    and on a coordinate that convert refuses: an int past the float range
    for float_array, also a NaN or an infinity for finite_array."""
    quad = convert(quad, InvalidBoxError, "non-finite corner coordinates")
    if quad.shape != (4, 2):
        raise InvalidBoxError(f"corner array must have shape (4, 2), got {quad.shape}")
    return quad


def corners_to_box(quad) -> OrientedBox:
    """Fit an oriented box to a (near-)rectangular quad: any (4, 2) array-like.

    The center is the corner centroid and each axis is the average of one
    pair of opposite edges, which absorbs small annotation jitter.  The
    longer averaged edge becomes the r1 axis; for squares the first edge in
    annotation order wins.  Warns when adjacent edges are far from
    orthogonal, raises on degenerate (zero-area or segment-like) quads and
    InvalidBoxError on a wrong shape or a non-finite corner (an int past
    the float range included).
    """
    quad = _corner_array(quad, finite_array)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = quad.tolist()
    # Opposite edges point opposite ways, so e0 - e2 and e1 - e3 are the
    # doubled averaged axis vectors.
    ax, ay = ((x1 - x0) - (x3 - x2)) / 2.0, ((y1 - y0) - (y3 - y2)) / 2.0
    bx, by = ((x2 - x1) - (x0 - x3)) / 2.0, ((y2 - y1) - (y0 - y3)) / 2.0
    # Their cross product is the quad's shoelace area, computed from edge
    # differences, so its rounding does not grow with the quad's position.
    if abs(ax * by - ay * bx) <= 1e-12:
        raise DegenerateQuadError("quad has (near-)zero area")
    len_a = float(np.hypot(ax, ay))
    len_b = float(np.hypot(bx, by))
    if len_a <= 1e-12 or len_b <= 1e-12:
        raise DegenerateQuadError("quad collapses to a segment")
    sin_skew = abs(ax * bx + ay * by) / (len_a * len_b)
    if sin_skew > math.sin(ORTHOGONALITY_WARN_RAD):
        warnings.warn(
            f"quad edges deviate from orthogonal by "
            f"{math.asin(min(1.0, sin_skew)):.3f} rad",
            stacklevel=2,
        )
    if len_a >= len_b:
        (lx, ly), r1, r2 = (ax, ay), len_a / 2.0, len_b / 2.0
    else:
        (lx, ly), r1, r2 = (bx, by), len_b / 2.0, len_a / 2.0
    cx, cy = (x0 + x1 + x2 + x3) / 4.0, (y0 + y1 + y2 + y3) / 4.0
    return canonicalize(OrientedBox(cx, cy, r1, r2, math.atan2(ly, lx)))


# A quad's 4 cyclic shifts in both traversal directions, as indices into its
# 8 flattened coordinates: row k holds the x, y pairs of np.roll(order, k)
# for order 0123, then for 3210.
_CORNER_ORDERS = np.array([[2 * i + xy for i in np.roll(order, k) for xy in (0, 1)]
                           for order in ((0, 1, 2, 3), (3, 2, 1, 0)) for k in range(4)])


def corner_set_distance(a, b) -> float:
    """Max corner deviation between two quads, minimized over cyclic shifts.

    Both traversal directions are tried, so the comparison is insensitive to
    starting corner and winding.  a and b are (4, 2) array-likes; another
    shape or a non-finite corner (an int past the float range included)
    raises InvalidBoxError, and OverflowError is raised when even the
    smallest deviation exceeds the float64 range.
    """
    pa, pb = _corner_array(a), _corner_array(b)
    # A non-finite corner makes every shift's deviation NaN or inf, so only
    # a non-finite result needs the corners looked at.
    with np.errstate(over="ignore", invalid="ignore"):
        distance = float(np.abs(pb.ravel()[_CORNER_ORDERS] - pa.ravel()).max(axis=1).min())
    if finite(distance):
        return distance
    finite_array([pa, pb], InvalidBoxError, "non-finite corner coordinates")
    raise OverflowError("corner deviation exceeds the float64 range")


def phi_distance(a: float, b: float) -> float:
    """Angle distance modulo pi, in [0, pi/2], finite for any two finite angles:
    each is reduced modulo pi first, which keeps angles in [-pi/2, pi/2] as they are.
    ValueError naming both angles when either is not finite."""
    if not finite(a, b):
        raise ValueError(f"angles must be finite, got a={short_int(a)} and b={short_int(b)}")
    return abs(math.remainder(math.remainder(a, math.pi) - math.remainder(b, math.pi), math.pi))


DOTA_META_PREFIXES = ("imagesource", "gsd")


def parse_dota_record(line: str, lineno: int | None = None):
    """Parse one annotation line: 8 corner reals, category name, difficulty flag.

    Returns (corners, category, difficulty), corners a read-only (4, 2)
    float64 array.  Raises AnnotationError naming the line on malformed input.
    """
    fields = line.split()
    if len(fields) != 10:
        raise AnnotationError(f"expected 10 fields, got {len(fields)}: {line!r}", lineno)
    try:
        coords = [float(tok) for tok in fields[:8]]
    except ValueError:
        raise AnnotationError(f"non-numeric corner coordinate in {line!r}", lineno) from None
    if not finite(*coords):
        raise AnnotationError(f"non-finite corner coordinate in {line!r}", lineno)
    category = fields[8]
    try:
        difficulty = int(fields[9])
    except ValueError:
        raise AnnotationError(f"non-integer difficulty {fields[9]!r}", lineno) from None
    corners = np.array(coords).reshape(4, 2)
    corners.setflags(write=False)
    return corners, category, difficulty


def iter_text_lines(path):
    """Yield (lineno, line) for each non-blank line of a UTF-8 file, stripped,
    with 1-based line numbers counted over every line; a leading byte-order
    mark is dropped.  AnnotationError if the file cannot be opened or decoded."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line:
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise AnnotationError.unreadable(path, exc) from None


def iter_dota_object_lines(path):
    """Yield (lineno, line) for annotation object lines: `iter_text_lines`
    without the metadata headers ("imagesource", "gsd")."""
    return ((lineno, line) for lineno, line in iter_text_lines(path)
            if not line.startswith(DOTA_META_PREFIXES))


def load_dota_annotations(path):
    """Read an annotation file into a list of (corners, category, difficulty),
    as parse_dota_record returns them."""
    return [parse_dota_record(line, lineno) for lineno, line in iter_dota_object_lines(path)]
