"""Ground-truth geometry: exact rotated-rectangle IoU via polygon clipping,
Monte-Carlo IoU estimates for ellipses and rectangles, and greedy rotated NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBox, corner_offsets, corner_points, signed_area
from .errors import InsufficientSamplesError, InvalidBoxError
from .polar import check_extents

# An intersection counts as empty below this fraction of the two boxes'
# summed areas, plus CLIP_ROUNDING times the coordinate extent times the
# boxes' reach (see exact_rect_iou).  It keeps touching boxes and clipping
# slivers from producing noise IoU at any box scale and position.
MIN_OVERLAP_FRACTION = 1e-12
CLIP_ROUNDING = 2e-15

# Circumcircles farther apart than their radii plus this fraction of them
# prove the boxes disjoint; the slack covers rounding in the corners.
PRUNE_REACH_SLACK = 1e-9
# Below this extent (largest center coordinate plus summed circumradii) no
# corner can overflow: each corner coordinate is at most |center| plus
# sqrt(2) times the box's circumradius, under the largest float.  A pair
# pruned below it returns 0.0 without building corners.
PRUNE_EXTENT_LIMIT = 1e308

MIN_MC_SAMPLES = 10_000
# The Monte-Carlo oracles draw and test their samples this many at a time,
# which bounds their working memory whatever the sample count.
MC_CHUNK = 1 << 15


def _cross(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _intersect(p, q, dp, dq):
    t = dp / (dp - dq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _clip_halfplane(poly, a, b):
    """Keep the part of a convex polygon on the interior side of edge a->b.

    Decoded corners wind so that the interior has non-negative cross product
    against every directed edge.
    """
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        dp = _cross(a, b, p)
        dq = _cross(a, b, q)
        if dp >= 0.0:
            out.append(p)
            if dq < 0.0:
                out.append(_intersect(p, q, dp, dq))
        elif dq >= 0.0:
            out.append(_intersect(p, q, dp, dq))
    return out


def exact_rect_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Exact IoU of two rotated rectangles (half-plane clipping + shoelace area).

    Clipping runs in a's frame, a's corner offsets against b's shifted by
    the center difference, so its rounding follows the boxes' size, not
    their position.  Pairs whose circumcircles are disjoint return 0.0
    before any clipping, and before their corners are built when the
    extent stays below PRUNE_EXTENT_LIMIT.  An intersection below
    MIN_OVERLAP_FRACTION times the summed box areas plus CLIP_ROUNDING *
    extent * reach reads as empty: reach is the summed circumradii, extent
    the largest center coordinate plus reach, and the term covers the
    eps * extent rounding that the centers themselves carry.  That floor
    grows with the square of the long side, so a thin enough box reads 0.0
    against itself: OrientedBox(0, 0, 1, 1/ar, 0.3) reads 0.998 at ar = 1e14
    and 0.0 from ar = 5e14, and OrientedBox(0, 0, 1e100, 1, 0.3) reads 0.0.
    The ratio is clamped at 1.  Raises InvalidBoxError when a corner overflows, pruned
    or not, or when a pair it clips has a half-extent outside [MIN_EXTENT, MAX_EXTENT].
    """
    dx, dy = b.cx - a.cx, b.cy - a.cy
    reach = math.hypot(a.r1, a.r2) + math.hypot(b.r1, b.r2)
    extent = max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy)) + reach
    disjoint = math.hypot(dx, dy) > reach * (1.0 + PRUNE_REACH_SLACK)
    if disjoint and extent < PRUNE_EXTENT_LIMIT:
        return 0.0
    poly = corner_offsets(a)
    clip = corner_offsets(b)
    if disjoint:
        return 0.0
    check_extents("exact clipping", a, b)
    clip = [(x + dx, y + dy) for x, y in clip]
    for i in range(4):
        if not poly:
            break
        poly = _clip_halfplane(poly, clip[i], clip[(i + 1) % 4])
    inter = abs(signed_area(poly))
    area_a = 4.0 * a.r1 * a.r2
    area_b = 4.0 * b.r1 * b.r2
    if inter < MIN_OVERLAP_FRACTION * (area_a + area_b) + CLIP_ROUNDING * extent * reach:
        return 0.0
    return min(1.0, inter / (area_a + area_b - inter))


def _to_frame(box: OrientedBox, x: np.ndarray, y: np.ndarray):
    """Point coordinates in the box frame (origin at center, x along r1)."""
    dx = x - box.cx
    dy = y - box.cy
    c, s = math.cos(box.phi), math.sin(box.phi)
    return c * dx + s * dy, -s * dx + c * dy


def _ellipse_contains(box: OrientedBox, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    u, v = _to_frame(box, x, y)
    u /= box.r1
    v /= box.r2
    return u * u + v * v <= 1.0


def _rect_contains(box: OrientedBox, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    u, v = _to_frame(box, x, y)
    return (np.abs(u) <= box.r1) & (np.abs(v) <= box.r2)


def _ellipse_aabb(box: OrientedBox):
    c, s = math.cos(box.phi), math.sin(box.phi)
    ex = math.hypot(box.r1 * c, box.r2 * s)
    ey = math.hypot(box.r1 * s, box.r2 * c)
    return (box.cx - ex, box.cy - ey), (box.cx + ex, box.cy + ey)


def _rect_aabb(box: OrientedBox):
    xs, ys = zip(*corner_points(box))
    return (min(xs), min(ys)), (max(xs), max(ys))


def _mc_iou(a, b, samples, seed, contains, aabb):
    if samples < MIN_MC_SAMPLES:
        raise InsufficientSamplesError(
            f"need at least {MIN_MC_SAMPLES} samples, got {samples}"
        )
    (ax0, ay0), (ax1, ay1) = aabb(a)
    (bx0, by0), (bx1, by1) = aabb(b)
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    w, h = max(ax1, bx1) - x0, max(ay1, by1) - y0
    if not (math.isfinite(w) and math.isfinite(h)):
        raise OverflowError("Range exceeds valid bounds")
    lo, span = np.array([x0, y0]), np.array([w, h])
    rng = np.random.default_rng(seed)
    n_union = n_inter = 0
    for start in range(0, samples, MC_CHUNK):
        # lo + span * u, as Generator.uniform computes it, from the same stream.
        pts = rng.random((min(MC_CHUNK, samples - start), 2))
        pts *= span
        pts += lo
        x, y = pts.T.copy()
        in_a = contains(a, x, y)
        in_b = contains(b, x, y)
        n_union += int(np.count_nonzero(in_a | in_b))
        n_inter += int(np.count_nonzero(in_a & in_b))
    if n_union == 0:
        return 0.0, 0.0
    p = n_inter / n_union
    std_error = math.sqrt(p * (1.0 - p) / n_union)
    return p, std_error


def mc_ellipse_iou(a: OrientedBox, b: OrientedBox, samples: int, seed: int):
    """Monte-Carlo IoU of the two boxes' inscribed ellipses.

    Uniform points are drawn over the united bounding box of the two
    ellipses, MC_CHUNK rows at a time from one seeded stream; the result
    equals that of a single draw of all samples and does not depend on
    MC_CHUNK.  Raises OverflowError when that box is wider than the
    largest float.  Returns (estimate, standard_error); the standard error
    is the binomial deviation of the intersection fraction among union
    hits, so it is 0 exactly when every union hit is an intersection hit.
    """
    return _mc_iou(a, b, samples, seed, _ellipse_contains, _ellipse_aabb)


def mc_rect_iou(a: OrientedBox, b: OrientedBox, samples: int, seed: int):
    """Monte-Carlo IoU of the two rectangles themselves; see mc_ellipse_iou."""
    return _mc_iou(a, b, samples, seed, _rect_contains, _rect_aabb)


@dataclass(frozen=True)
class Detection:
    """A scored, categorized oriented box."""

    box: OrientedBox
    score: float
    category: int

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise InvalidBoxError(f"score must be finite in [0, 1], got {self.score}")
        object.__setattr__(self, "score", float(self.score))
        object.__setattr__(self, "category", int(self.category))


def rotated_nms(detections, iou_threshold: float):
    """Greedy per-category suppression under the exact rotated IoU.

    Detections are visited in descending score order (ties broken by input
    index); each kept detection suppresses later same-category detections
    whose IoU with it exceeds the threshold.  Each category runs its own
    loop, so every unsuppressed same-category pair costs one exact_rect_iou
    call and other pairs none.  Survivors come back sorted by descending
    score with the same stable tie-break.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")
    dets = list(detections)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    buckets = {}
    for i in order:
        buckets.setdefault(dets[i].category, []).append(i)
    kept = set()
    for members in buckets.values():
        while members:
            i = members[0]
            kept.add(i)
            box = dets[i].box
            members = [j for j in members[1:]
                       if not exact_rect_iou(box, dets[j].box) > iou_threshold]
    return [dets[i] for i in order if i in kept]
