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

from .errors import (
    AnnotationError,
    DegenerateQuadError,
    InvalidBoxError,
    OutOfImageError,
)

HALF_PI = math.pi / 2

# Adjacent edges of an annotation quad may deviate from orthogonal by this
# much (radians) before the rectangle fit warns.
ORTHOGONALITY_WARN_RAD = 0.05


@dataclass(frozen=True)
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

    def __post_init__(self):
        vals = (self.cx, self.cy, self.r1, self.r2, self.phi)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidBoxError(f"non-finite box parameters {vals}")
        if self.r1 <= 0 or self.r2 <= 0:
            raise InvalidBoxError(
                f"half-extents must be positive, got r1={self.r1}, r2={self.r2}"
            )
        for name, v in zip(("cx", "cy", "r1", "r2", "phi"), vals):
            object.__setattr__(self, name, float(v))


def _wrap_phi(phi: float) -> float:
    # Identity when already in range keeps canonicalize exactly idempotent;
    # IEEE remainder makes pi-shift reduction exact for representable sums.
    if -HALF_PI < phi <= HALF_PI:
        return phi
    r = math.remainder(phi, math.pi)
    if r <= -HALF_PI:
        r += math.pi
    return r


def canonicalize(box: OrientedBox) -> OrientedBox:
    """Unique canonical form: r1 >= r2, phi in (-pi/2, pi/2], same point set.

    Swapping the axes rotates the angle by pi/2; square boxes keep their
    angle (only wrapped into range).  Idempotent: canonical boxes pass
    through bit-identical.
    """
    r1, r2, phi = box.r1, box.r2, box.phi
    if r1 < r2:
        r1, r2 = r2, r1
        phi = phi + HALF_PI
    return OrientedBox(box.cx, box.cy, r1, r2, _wrap_phi(phi))


@dataclass(frozen=True)
class CornerQuad:
    """Four (x, y) corners; quads decoded from a box run clockwise on screen."""

    corners: np.ndarray

    def __post_init__(self):
        arr = np.array(self.corners, dtype=np.float64)
        if arr.shape != (4, 2):
            raise InvalidBoxError(f"corner array must have shape (4, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidBoxError("non-finite corner coordinates")
        arr.setflags(write=False)
        object.__setattr__(self, "corners", arr)


def corner_offsets(box: OrientedBox) -> list[tuple[float, float]]:
    """Corners of a box relative to its center, in decode_corners' order.

    Raises InvalidBoxError when a corner, offset plus center, overflows to a
    non-finite value, as CornerQuad does.
    """
    c, s = math.cos(box.phi), math.sin(box.phi)
    r1, r2 = box.r1, box.r2
    offsets = [(c * bx - s * by, s * bx + c * by)
               for bx, by in ((-r1, -r2), (r1, -r2), (r1, r2), (-r1, r2))]
    if not all(math.isfinite(ox + box.cx) and math.isfinite(oy + box.cy)
               for ox, oy in offsets):
        raise InvalidBoxError("non-finite corner coordinates")
    return offsets


def corner_points(box: OrientedBox) -> list[tuple[float, float]]:
    """Corners of a box as (x, y) float tuples: corner_offsets plus the center."""
    return [(ox + box.cx, oy + box.cy) for ox, oy in corner_offsets(box)]


def decode_corners(box: OrientedBox) -> CornerQuad:
    """Corners of a box: rotate the axis-aligned corners by phi, translate to the center.

    The order starts at the corner that sits at (-r1, -r2) in the box frame
    and runs clockwise on screen.
    """
    return CornerQuad(corner_points(box))


def signed_area(corners) -> float:
    """Signed polygon area, positive for counterclockwise traversal on screen.

    On-screen means the image frame (y down), so corner quads decoded from a
    box come out negative: they run clockwise.
    """
    pts = list(corners)
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        acc += x1 * y0 - x0 * y1
    return 0.5 * float(acc)


def corners_to_box(quad: CornerQuad) -> OrientedBox:
    """Fit an oriented box to a (near-)rectangular quad.

    The center is the corner centroid and each axis is the average of one
    pair of opposite edges, which absorbs small annotation jitter.  The
    longer averaged edge becomes the r1 axis; for squares the first edge in
    annotation order wins.  Warns when adjacent edges are far from
    orthogonal, raises on degenerate (zero-area or segment-like) quads.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = quad.corners.tolist()
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


# Row orders of a quad's 4 cyclic shifts in both traversal directions:
# row k is np.roll(order, k) for order 0123, then for 3210.
_CORNER_ORDERS = np.array([np.roll(order, k) for order in ((0, 1, 2, 3), (3, 2, 1, 0))
                           for k in range(4)])


def corner_set_distance(a, b) -> float:
    """Max corner deviation between two quads, minimized over cyclic shifts.

    Both traversal directions are tried, so the comparison is insensitive to
    starting corner and winding.
    """
    pa = np.asarray(a, dtype=np.float64).reshape(4, 2)
    pb = np.asarray(b, dtype=np.float64).reshape(4, 2)
    return float(np.abs(pb[_CORNER_ORDERS] - pa).max(axis=(1, 2)).min())


def phi_distance(a: float, b: float) -> float:
    """Angle distance modulo pi (box orientations are pi-periodic)."""
    return abs(math.remainder(a - b, math.pi))


@dataclass(frozen=True)
class CenterOffset:
    """Sub-cell center position at output stride: cx = (cell_x + dx) * stride."""

    dx: float
    dy: float
    cell_x: int
    cell_y: int


def encode_offset(cx: float, cy: float, stride: int) -> CenterOffset:
    """Split a pixel-space center into output-grid cell indices and fractional offsets."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InvalidBoxError(f"non-finite center ({cx}, {cy})")
    if cx < 0 or cy < 0:
        raise OutOfImageError(f"center ({cx}, {cy}) has negative coordinates")
    gx, gy = cx / stride, cy / stride
    cell_x, cell_y = math.floor(gx), math.floor(gy)
    return CenterOffset(gx - cell_x, gy - cell_y, cell_x, cell_y)


DOTA_META_PREFIXES = ("imagesource", "gsd")


def parse_dota_record(line: str, lineno: int | None = None):
    """Parse one annotation line: 8 corner reals, category name, difficulty flag.

    Returns (CornerQuad, category, difficulty).  Raises AnnotationError
    naming the line on malformed input.
    """
    fields = line.split()
    if len(fields) != 10:
        raise AnnotationError(f"expected 10 fields, got {len(fields)}: {line!r}", lineno)
    try:
        coords = [float(tok) for tok in fields[:8]]
    except ValueError:
        raise AnnotationError(f"non-numeric corner coordinate in {line!r}", lineno) from None
    if not all(math.isfinite(v) for v in coords):
        raise AnnotationError(f"non-finite corner coordinate in {line!r}", lineno)
    category = fields[8]
    try:
        difficulty = int(fields[9])
    except ValueError:
        raise AnnotationError(f"non-integer difficulty {fields[9]!r}", lineno) from None
    quad = CornerQuad(np.asarray(coords, dtype=np.float64).reshape(4, 2))
    return quad, category, difficulty


def iter_text_lines(path):
    """Yield (lineno, line) for each non-blank line of a UTF-8 file, stripped,
    with 1-based line numbers counted over every line; AnnotationError if
    the file cannot be opened or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    """Read an annotation file into a list of (CornerQuad, category, difficulty)."""
    return [parse_dota_record(line, lineno) for lineno, line in iter_dota_object_lines(path)]
