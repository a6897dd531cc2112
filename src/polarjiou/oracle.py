"""Ground-truth geometry: exact rotated-rectangle IoU in closed form,
Monte-Carlo IoU estimates for ellipses and rectangles, and greedy rotated
NMS."""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boxes import HALF_PI, OrientedBox, decode_corners
from .errors import InsufficientSamplesError, InvalidBoxError, check_count, finite, short_int
from .polar import check_extents

# An intersection counts as empty below this fraction of the two boxes'
# summed areas, plus CLIP_ROUNDING times the coordinate extent times the
# boxes' reach (see exact_rect_iou).  It keeps touching boxes and rounding
# slivers from producing noise IoU at any box scale and position.
MIN_OVERLAP_FRACTION = 1e-12
CLIP_ROUNDING = 2e-15

# Circumcircles farther apart than their radii plus this fraction of them
# prove the boxes disjoint; the slack covers rounding in the corners.
PRUNE_REACH_SLACK = 1e-9
# Below this extent (largest center coordinate plus summed circumradii) no
# corner can overflow: each corner coordinate is at most |center| plus
# sqrt(2) times the box's circumradius, under the largest float.
PRUNE_EXTENT_LIMIT = 1e308
# _overlap turns b by pi/2 the other way above this relative angle.
QUARTER_PI = math.pi / 4

MIN_MC_SAMPLES = 10_000
# Above 2**53 a float sample count no longer holds every whole number, and
# drawing even 2**53 samples would take years; larger counts raise ValueError.
MAX_MC_SAMPLES = 1 << 53
# The Monte-Carlo oracles draw and test their samples this many at a time,
# which bounds their working memory whatever the sample count.
MC_CHUNK = 1 << 15
# The oracles split their chunks over at most this many runs, the calling
# thread's and those of a thread pool made for the call.  Each run holds
# about 2.1 MB of chunk buffers, so three keep a call's buffers under 8 MiB
# however many CPUs the machine has.
MC_MAX_WORKERS = 3


def _overlap(a1, a2, b1, b2, phi_a, phi_b, dx, dy):
    """Overlap area of a rectangle with half-extents (a1, a2) at angle phi_a
    and one with (b1, b2) at phi_b whose center lies (dx, dy) from a's.

    In a's frame the overlap is a convex polygon with edges on a's lines
    x = +-a1, y = +-a2 and on b's four lines.  Its area is half the sum
    over the 8 lines of (signed distance from a's center) x (length of the
    overlap's boundary on that line), a chord clamped with min and max by
    the other lines' crossings.

    phi_b - phi_a is reduced by remainder(., pi), each angle first when the
    difference overflows.  The period is the float math.pi, about 1.2e-16
    below pi, so a difference of n half turns puts b about n * 1.2e-16 rad
    from where math.cos and math.sin of its own angle put it.  A mirror in
    a's x axis makes the angle delta >= 0, and above pi/4 b turns by pi/2
    the other way, as (b2, b1) at pi/2 - delta, mirrored again; neither
    moves a.  At delta = 0 the area is the product of the two clamped
    interval overlaps.

    Each crossing of one of b's lines with x = a1 or y = a2 is divided out
    once, as a coordinate on a's line, and carried to b's line by one
    multiply-add, so that both chords end at the same rounded point; two
    independent divisions would not cancel near parallel edges.  The lines
    x = -a1 and y = -a2 are x = a1 and y = a2 of the pair mirrored in a's
    center, so the area is the mean of two such half sums, each taking the
    other's crossings for the chords on b's lines.  A concentric pair is
    its own mirror: it sums one half, with its extents in the largest of
    the four orders that swap the roles of a and b or the x and y axes and
    give the same area, so that (a, b) and (b, a) compute the same bits.
    The halves are written out, not looped over, to keep a concentric
    call's cost."""
    try:
        r = math.remainder(phi_b - phi_a, math.pi)
    except ValueError:  # phi_b - phi_a overflowed to an infinity
        r = math.remainder(math.remainder(phi_b, math.pi) - math.remainder(phi_a, math.pi),
                           math.pi)
    delta = abs(r)
    concentric = dx == 0.0 and dy == 0.0
    if concentric:
        ox = oy = 0.0
    else:
        c, s = math.cos(phi_a), math.sin(phi_a)
        ox, oy = c * dx + s * dy, c * dy - s * dx
        if r < 0.0:
            oy = -oy
    if delta > QUARTER_PI:
        delta = HALF_PI - delta
        b1, b2 = b2, b1
        oy = -oy
    if delta == 0.0:
        return (max(min(a1, ox + b1) - max(-a1, ox - b1), 0.0)
                * max(min(a2, oy + b2) - max(-a2, oy - b2), 0.0))
    c, s = math.cos(delta), math.sin(delta)
    # b's lines u = bu_p, u = bu_m, v = bv_p and v = bv_m.
    if concentric:
        a1, a2, b1, b2 = max((a1, a2, b1, b2), (b1, b2, a1, a2), (a2, a1, b2, b1),
                             (b2, b1, a2, a1))
        bu_p, bu_m, bv_p, bv_m = b1, -b1, b2, -b2
    else:
        u0, v0 = c * ox + s * oy, c * oy - s * ox
        bu_p, bu_m, bv_p, bv_m = u0 + b1, u0 - b1, v0 + b2, v0 - b2
    ca1, sa1, ca2, sa2 = c * a1, s * a1, c * a2, s * a2
    # Where b's lines cross x = a1 (as y) and y = a2 (as x), and where the
    # mirrored pair's lines, u = -bu_m, u = -bu_p, v = -bv_m and v = -bv_p,
    # do (prefix m).
    yu_p, yu_m = (bu_p - ca1) / s, (bu_m - ca1) / s
    yv_p, yv_m = (bv_p + sa1) / c, (bv_m + sa1) / c
    xu_p, xu_m = (bu_p - sa2) / c, (bu_m - sa2) / c
    xv_p, xv_m = (ca2 - bv_p) / s, (ca2 - bv_m) / s
    if concentric:
        myu_m, myv_m, mxu_m, mxv_m = yu_m, yv_m, xu_m, xv_m
    else:
        myu_p, myu_m = (-bu_m - ca1) / s, (-bu_p - ca1) / s
        myv_p, myv_m = (-bv_m + sa1) / c, (-bv_p + sa1) / c
        mxu_p, mxu_m = (-bu_m - sa2) / c, (-bu_p - sa2) / c
        mxv_p, mxv_m = (ca2 + bv_m) / s, (ca2 + bv_p) / s
    # Chords on x = a1 and y = a2 in y and x, on u = bu_p in v and on
    # v = bv_p in u, each line's distance from a's center times its chord.
    la1 = min(a2, yu_p, yv_p) - max(-a2, yu_m, yv_m)
    la2 = min(a1, xu_p, xv_m) - max(-a1, xu_m, xv_p)
    lb1 = min(bv_p, sa1 - c * myu_m, ca2 - s * xu_p) - max(bv_m, c * yu_p - sa1, s * mxu_m - ca2)
    lb2 = (min(bu_p, ca1 + s * yv_p, c * xv_p + sa2)
           - max(bu_m, -(ca1 + s * myv_m), -(c * mxv_m + sa2)))
    half = (a1 * max(la1, 0.0) + a2 * max(la2, 0.0) + bu_p * max(lb1, 0.0)
            + bv_p * max(lb2, 0.0))
    if concentric:
        return half
    # The same sum for the mirrored pair.
    la1 = min(a2, myu_p, myv_p) - max(-a2, myu_m, myv_m)
    la2 = min(a1, mxu_p, mxv_m) - max(-a1, mxu_m, mxv_p)
    lb1 = (min(-bv_m, sa1 - c * yu_m, ca2 - s * mxu_p)
           - max(-bv_p, c * myu_p - sa1, s * xu_m - ca2))
    lb2 = (min(-bu_m, ca1 + s * myv_p, c * mxv_p + sa2)
           - max(-bu_p, -(ca1 + s * yv_m), -(c * xv_m + sa2)))
    mirrored = (a1 * max(la1, 0.0) + a2 * max(la2, 0.0) - bu_m * max(lb1, 0.0)
                - bv_m * max(lb2, 0.0))
    return 0.5 * (half + mirrored)


def exact_rect_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Exact IoU of two rotated rectangles.

    Corner overflow is checked only from PRUNE_EXTENT_LIMIT on, where
    decode_corners raises InvalidBoxError for either box, pruned or not.
    Pairs whose circumcircles are disjoint then return 0.0 before any
    overlap is computed, and a pair that reaches that point raises
    InvalidBoxError when a half-extent lies outside [MIN_EXTENT, MAX_EXTENT].

    Every other pair takes its overlap area from one closed form,
    _overlap, worked out in a's frame: only b's center offset and the
    relative angle go through trig, so the rounding follows the boxes'
    size, not their position.  It reads within 8 eps times the larger
    aspect ratio of the two boxes of the exact rational IoU of
    corner_offsets' float corners.  A concentric pair, as every pair of a
    fit run and of the sweep is, reads the same bits for (a, b) and
    (b, a), exactly 1.0 for a box against itself, against itself turned by
    pi and against its axis swap turned by pi/2, and keeps its bits when
    all four half-extents scale by a power of two.

    The relative angle's period is the float math.pi, about 1.2e-16 below
    pi, as in canonicalize: where phi_b - phi_a spans n half turns, b sits
    about n * 1.2e-16 rad from where math.cos and math.sin of its own
    angle put it (the IoU of OrientedBox(0, 0, 30, 0.1, 0) against the same
    box at phi = 1e6 reads 0.004784778251227369 against 0.004784778250725782
    for its float corners), and a box turned by math.pi reads exactly 1.0
    against itself.

    An intersection below MIN_OVERLAP_FRACTION times the summed box areas
    plus CLIP_ROUNDING * extent * reach reads as empty.  reach is the
    summed circumradii, extent the largest center coordinate plus reach,
    and the term covers the eps * extent rounding that the centers
    themselves carry.  That floor grows with the square of the long side,
    so a thin enough box reads 0.0: OrientedBox(0, 0, 1, 1/ar, 0.3) reads
    exactly 1.0 against itself up to ar = 4.9e14 and 0.0 from 5e14, and
    0.6 within 2 ulp against itself moved by 0.5 along its long axis up to
    ar = 1e14 and 0.0 at 1e15; OrientedBox(0, 0, 1e100, 1, 0.3) reads 0.0
    against itself.  The ratio is clamped at 1.
    """
    dx, dy = b.cx - a.cx, b.cy - a.cy
    reach = math.hypot(a.r1, a.r2) + math.hypot(b.r1, b.r2)
    extent = max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy)) + reach
    if extent >= PRUNE_EXTENT_LIMIT:
        decode_corners(a)
        decode_corners(b)
    if math.hypot(dx, dy) > reach * (1.0 + PRUNE_REACH_SLACK):
        return 0.0
    check_extents("an exact overlap", a, b)
    inter = _overlap(a.r1, a.r2, b.r1, b.r2, a.phi, b.phi, dx, dy)
    area_a = 4.0 * a.r1 * a.r2
    area_b = 4.0 * b.r1 * b.r2
    if inter < MIN_OVERLAP_FRACTION * (area_a + area_b) + CLIP_ROUNDING * extent * reach:
        return 0.0
    return min(1.0, inter / (area_a + area_b - inter))


def _to_frame(box: OrientedBox, x: np.ndarray, y: np.ndarray, frame):
    """Point coordinates in the box frame (origin at center, x along r1).

    frame = (dx, dy, u, v, spare) holds one chunk's work buffers; rotated
    coordinates are written into u and v.  Steps that are exact identities
    are skipped: x - cx when cx == 0.0 (likewise y), and the whole rotation
    when phi == 0.0 (either signed zero), so the arrays returned may be x
    and y themselves, which the caller must not write into.  No skip
    changes a containment test's result:
    - x - 0.0 is x, and x - (-0.0) is x up to the sign of a zero;
    - at phi = ±0.0, math.cos is 1.0 and math.sin ±0.0, so the rotation
      returns dx and dy up to the sign of a zero, which the tests' square
      and abs erase;
    - a coordinate that overflows to inf reads as outside on both paths:
      the full path may make it nan (inf·0), which fails the comparison."""
    dx, dy, u, v, _ = frame
    if box.cx != 0.0:
        x = np.subtract(x, box.cx, out=dx)
    if box.cy != 0.0:
        y = np.subtract(y, box.cy, out=dy)
    if box.phi == 0.0:
        return x, y
    c, s = math.cos(box.phi), math.sin(box.phi)
    # u = c·dx + s·dy
    np.multiply(x, c, out=u)
    np.multiply(y, s, out=v)
    u += v
    # v = -s·dx + c·dy
    np.multiply(x, -s, out=v)
    v += np.multiply(y, c, out=dy)
    return u, v


def _ellipse_contains(box: OrientedBox, x, y, frame, out: np.ndarray) -> np.ndarray:
    _, _, fu, fv, _ = frame
    u, v = _to_frame(box, x, y, frame)
    u = np.divide(u, box.r1, out=fu)
    v = np.divide(v, box.r2, out=fv)
    u *= u
    v *= v
    u += v
    return np.less_equal(u, 1.0, out=out)


def _rect_contains(box: OrientedBox, x, y, frame, out: np.ndarray) -> np.ndarray:
    _, _, fu, fv, spare = frame
    u, v = _to_frame(box, x, y, frame)
    np.less_equal(np.abs(u, out=fu), box.r1, out=out)
    out &= np.less_equal(np.abs(v, out=fv), box.r2, out=spare)
    return out


def _ellipse_aabb(box: OrientedBox):
    c, s = math.cos(box.phi), math.sin(box.phi)
    ex = math.hypot(box.r1 * c, box.r2 * s)
    ey = math.hypot(box.r1 * s, box.r2 * c)
    return (box.cx - ex, box.cy - ey), (box.cx + ex, box.cy + ey)


def _rect_aabb(box: OrientedBox):
    corners = decode_corners(box)
    # Python floats: numpy scalars would warn where _mc_iou finds the range overflowing.
    return corners.min(axis=0).tolist(), corners.max(axis=0).tolist()


def _mc_worker_limit() -> int:
    """Runs a Monte-Carlo call may split into: one per CPU available to this
    process, at most MC_MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, MC_MAX_WORKERS)


def _mc_counts(a, b, seed, start, stop, frame_box, contains, stopped):
    """(n_a, n_b, n_inter) over samples start..stop-1 of the seeded stream.

    The run ends early, with partial counts, once the threading.Event
    stopped is set: another run of the call has failed, and the call
    raises that run's error."""
    x0, y0, w, h = frame_box
    rng = np.random.default_rng(seed)
    # Generator.random takes one 64-bit PCG64 output per double, two per
    # sample, so this run continues the one stream where sample `start` begins.
    if start:
        rng.bit_generator.advance(2 * start)
    # Every chunk is drawn and tested in these buffers; a short last chunk
    # uses their leading rows.
    n = min(MC_CHUNK, stop - start)
    pts = np.empty((n, 2))
    x, y, dx, dy, u, v = np.empty((6, n))
    in_a, in_b, spare = np.empty((3, n), dtype=bool)
    n_a = n_b = n_inter = 0
    # A sample whose box-frame coordinate overflows to inf lies outside that
    # box, and the containment comparison already reads it that way.  The
    # error state is per thread, so each run sets its own.
    with np.errstate(over="ignore"):
        for first in range(start, stop, MC_CHUNK):
            if stopped.is_set():
                break
            k = min(MC_CHUNK, stop - first)
            rng.random(out=pts[:k])
            # lo + span * u, as Generator.uniform computes it, from the same stream.
            xk = np.multiply(pts[:k, 0], w, out=x[:k])
            xk += x0
            yk = np.multiply(pts[:k, 1], h, out=y[:k])
            yk += y0
            frame = (dx[:k], dy[:k], u[:k], v[:k], spare[:k])
            ak = contains(a, xk, yk, frame, in_a[:k])
            bk = contains(b, xk, yk, frame, in_b[:k])
            n_a += int(np.count_nonzero(ak))
            n_b += int(np.count_nonzero(bk))
            ak &= bk
            n_inter += int(np.count_nonzero(ak))
    return n_a, n_b, n_inter


def _mc_iou(a, b, samples, seed, contains, aabb):
    if samples < MIN_MC_SAMPLES:
        raise InsufficientSamplesError(
            f"need at least {MIN_MC_SAMPLES} samples, got {samples}"
        )
    samples = check_count("samples", samples, MIN_MC_SAMPLES)
    if samples > MAX_MC_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_MC_SAMPLES}, got {short_int(samples)}")
    # Every run seeds its generator this way; a bad seed fails here, not in a worker.
    try:
        np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed must be a numpy.random.default_rng seed, got {short_int(seed)}: "
                         f"{exc}") from None
    (ax0, ay0), (ax1, ay1) = aabb(a)
    (bx0, by0), (bx1, by1) = aabb(b)
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    w, h = max(ax1, bx1) - x0, max(ay1, by1) - y0
    if not finite(w, h):
        raise OverflowError("Range exceeds valid bounds")
    chunks = -(-samples // MC_CHUNK)
    # A Generator or BitGenerator seed is one stream shared with the caller,
    # which runs cannot jump apart: one run draws from it in order.
    shared = isinstance(seed, (np.random.Generator, np.random.BitGenerator))
    workers = 1 if shared else min(_mc_worker_limit(), chunks)
    # Contiguous runs of whole chunks, one per worker; a short last chunk
    # falls to the last run.  The calling thread runs the first and a pool
    # made for this call the others.
    bounds = [min(samples, i * chunks // workers * MC_CHUNK) for i in range(workers + 1)]

    # Set by a run that raises, or by the caller leaving the block, so that
    # the other runs stop before their next chunk.
    stopped = threading.Event()

    def run(start, stop):
        try:
            return _mc_counts(a, b, seed, start, stop, (x0, y0, w, h), contains, stopped)
        except BaseException:
            stopped.set()
            raise

    # Leaving the block joins every worker; map raises the first failing run's error.
    with ThreadPoolExecutor(workers) as pool:
        try:
            rest = pool.map(run, bounds[1:-1], bounds[2:])
            results = [run(bounds[0], bounds[1]), *rest]
        finally:
            stopped.set()
    n_a, n_b, n_inter = (sum(counts) for counts in zip(*results))
    n_union = n_a + n_b - n_inter
    if n_union == 0:
        return 0.0, 0.0
    p = n_inter / n_union
    std_error = math.sqrt(p * (1.0 - p) / n_union)
    return p, std_error


def mc_ellipse_iou(a: OrientedBox, b: OrientedBox, samples: int, seed: int):
    """Monte-Carlo IoU of the two boxes' inscribed ellipses.

    Uniform points are drawn over the united bounding box of the two
    ellipses, MC_CHUNK rows at a time from one seeded stream, and tested
    in buffers allocated once per run.  The chunks are split into
    contiguous runs, one per CPU available to the process, at most
    MC_MAX_WORKERS and at most one per chunk.  The calling thread runs the
    first; a concurrent.futures thread pool made for the call runs the
    others, and is shut down, every worker joined, before the call returns
    or raises the first failing run's error; once a run fails, or the
    caller is interrupted, the other runs stop before their next chunk.
    Each run jumps the stream ahead to its first sample, so the result
    keeps the bits of one Generator.uniform draw of all samples and depends
    on neither MC_CHUNK nor the worker count.  A Generator or BitGenerator
    passed as seed is drawn from in order by the calling thread alone.
    Steps of the box-frame transform that are exact identities (a center
    coordinate or an angle of 0.0) are skipped, with the same bits; see
    _to_frame.  samples must be a
    whole number from MIN_MC_SAMPLES to MAX_MC_SAMPLES; a larger count
    raises ValueError before any sampling, as does a seed that
    numpy.random.default_rng refuses.
    Raises OverflowError when that box is wider than the largest float.
    Returns (estimate, standard_error); the standard error
    is the binomial deviation of the intersection fraction among union
    hits, so it is 0 exactly when every union hit is an intersection hit.
    """
    return _mc_iou(a, b, samples, seed, _ellipse_contains, _ellipse_aabb)


def mc_rect_iou(a: OrientedBox, b: OrientedBox, samples: int, seed: int):
    """Monte-Carlo IoU of the two rectangles themselves; see mc_ellipse_iou."""
    return _mc_iou(a, b, samples, seed, _rect_contains, _rect_aabb)


@dataclass(frozen=True, init=False)
class Detection:
    """A scored, categorized oriented box: InvalidBoxError unless the score is
    finite in [0, 1] and the category a whole number (2.0 and True count)."""

    box: OrientedBox
    score: float
    category: int

    def __init__(self, box: OrientedBox, score: float, category: int):
        # The values are checked as given, then the fields are set at once.
        try:
            score_ok = finite(score) and 0.0 <= score <= 1.0
        except TypeError:  # not a number
            score_ok = False
        if not score_ok:
            raise InvalidBoxError(f"score must be finite in [0, 1], got {short_int(score)}")
        try:
            whole = int(category)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole is None or whole != category:
            raise InvalidBoxError(f"category must be a whole number, got {category!r}")
        self.__dict__.update(box=box, score=float(score), category=whole)


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
        raise ValueError(f"iou_threshold must be in (0, 1), got {short_int(iou_threshold)}")
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
