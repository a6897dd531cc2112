"""Shared test fixtures: box strategies, finite-difference oracle, frozen suites."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from polarjiou import (
    OrientedBox,
    canonicalize,
    encode_offset,
    exact_rect_iou,
    gaussian_sigma,
    grid_angles,
    jiou_bar,
    jiou_gradient,
    radius_at,
    smooth_l1,
)
from polarjiou.fitting import (
    CONVERGED_IOU,
    DEFAULT_LR,
    DEFAULT_MAX_ITERS,
    MAX_HALVINGS,
    MIN_HALF_EXTENT,
    FitStep,
    FitTrace,
)
from polarjiou import polar
from polarjiou.boxes import corner_offsets
from polarjiou.loss import DEFAULT_N, RATIO_FLOOR
from polarjiou.oracle import (
    CLIP_ROUNDING,
    MIN_OVERLAP_FRACTION,
    _ellipse_aabb,
    _rect_aabb,
)

# Whole numbers just and far past the float range, with the texts that
# errors.short_int gives them.
PAST_FLOAT_RANGE = [pytest.param(2**1024, "1.79769e+308", id="2**1024"),
                    pytest.param(10**400, "1e+400", id="10**400")]
SIGNED_PAST_FLOAT_RANGE = [*PAST_FLOAT_RANGE, pytest.param(-(10**400), "-1e+400", id="-10**400")]


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, canonical=False, max_center=100.0, min_r=0.1, max_r=50.0):
    """Arbitrary valid boxes; canonical=True returns the canonical representative."""
    cx = draw(finite_floats(-max_center, max_center))
    cy = draw(finite_floats(-max_center, max_center))
    ra = draw(finite_floats(min_r, max_r))
    rb = draw(finite_floats(min_r, max_r))
    phi = draw(finite_floats(-7.0, 7.0))
    box = OrientedBox(cx, cy, ra, rb, phi)
    return canonicalize(box) if canonical else box


def kept_counts():
    """(hits, misses) of the profiles kept on the shared grid so far."""
    info = polar._kept_profile.cache_info()
    return info.hits, info.misses


def random_box(rng, max_center=100.0, min_r=0.5, max_r=30.0):
    ra = rng.uniform(min_r, max_r)
    rb = rng.uniform(min_r, max_r)
    return OrientedBox(
        rng.uniform(-max_center, max_center), rng.uniform(-max_center, max_center),
        max(ra, rb), min(ra, rb), rng.uniform(-math.pi / 2, math.pi / 2),
    )


def fd_gradient(pred, target, n=720, h=1e-5):
    """Central finite differences of the loss in (phi, r1, r2)."""
    def loss_at(phi, r1, r2):
        return jiou_bar(OrientedBox(pred.cx, pred.cy, r1, r2, phi), target, n).loss

    p, r1, r2 = pred.phi, pred.r1, pred.r2
    return np.array([
        (loss_at(p + h, r1, r2) - loss_at(p - h, r1, r2)) / (2 * h),
        (loss_at(p, r1 + h, r2) - loss_at(p, r1 - h, r2)) / (2 * h),
        (loss_at(p, r1, r2 + h) - loss_at(p, r1, r2 - h)) / (2 * h),
    ])


# Finite-difference pairs must stay away from two degeneracies: grid angles
# where the two radial profiles nearly tie (the min/max branch flips inside
# the h-window) and gradient components near zero (relative error is
# meaningless there, e.g. the phi-derivative of a profile that strictly
# contains the other).
FD_MARGIN_FLOOR = 2e-3
FD_GRAD_FLOOR = 1e-3


def fd_suite(count=100, seed=42, n=720):
    """Frozen random (pred, target) pairs suitable for finite-difference checks."""
    rng = np.random.default_rng(seed)
    thetas = grid_angles(n)
    pairs = []
    while len(pairs) < count:
        r2 = rng.uniform(4.0, 12.0)
        ar = rng.uniform(1.3, 4.0)
        tphi = rng.uniform(-1.2, 1.2)
        target = OrientedBox(0.0, 0.0, ar * r2, r2, tphi)
        dphi = rng.uniform(0.08, 1.0) * (1 if rng.uniform() < 0.5 else -1)
        s1 = rng.uniform(0.7, 1.4)
        s2 = rng.uniform(0.75, 1.3)
        pred = OrientedBox(0.0, 0.0, target.r1 * s1, target.r2 * s2, tphi + dphi)
        margin = np.min(np.abs(radius_at(pred, thetas) - radius_at(target, thetas)))
        if margin < FD_MARGIN_FLOOR:
            continue
        g = jiou_gradient(pred, target, n)
        if min(abs(g.d_phi), abs(g.d_r1), abs(g.d_r2)) < FD_GRAD_FLOOR:
            continue
        pairs.append((pred, target))
    return pairs


# Sliver overlaps (exact IoU below this, but nonzero) are excluded from the
# Monte-Carlo agreement suite: the hit-count estimate of a vanishing
# intersection has zero observed variance, so the 3-sigma band degenerates.
MC_SLIVER_IOU = 0.02
MC_SUITE_SEED = 4
MC_SUITE_SAMPLES = 20_000


def mc_agreement_pairs(count=200, seed=MC_SUITE_SEED):
    """Frozen random rectangle pairs plus their exact IoU, slivers excluded."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a = OrientedBox(rng.uniform(-4, 4), rng.uniform(-4, 4),
                        rng.uniform(2, 10), rng.uniform(1, 6), rng.uniform(-1.5, 1.5))
        b = OrientedBox(rng.uniform(-4, 4), rng.uniform(-4, 4),
                        rng.uniform(2, 10), rng.uniform(1, 6), rng.uniform(-1.5, 1.5))
        exact = exact_rect_iou(a, b)
        if 0.0 < exact < MC_SLIVER_IOU:
            continue
        pairs.append((a, b, exact))
    return pairs


def dyadic(x, bits=20):
    """Round onto a 2**-bits grid; such angles survive a +pi wrap bit-exactly."""
    scale = float(1 << bits)
    return round(x * scale) / scale


def reference_corner_offsets(box):
    """Corners relative to the center from numpy arithmetic over a sign
    table: the values corner_offsets must reproduce bit for bit."""
    signs = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    c, s = math.cos(box.phi), math.sin(box.phi)
    bx = signs[:, 0] * box.r1
    by = signs[:, 1] * box.r2
    return np.stack([c * bx - s * by, s * bx + c * by], axis=1)


def reference_corners(box):
    """reference_corner_offsets plus the center: the values decode_corners
    must reproduce bit for bit."""
    return reference_corner_offsets(box) + (box.cx, box.cy)


def reference_shoelace_abs(poly):
    """Absolute polygon area as oracle summed it before boxes.signed_area
    became the one shoelace: the same terms, negated, in the same order."""
    if len(poly) < 3:
        return 0.0
    acc = 0.0
    m = len(poly)
    for i in range(m):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % m]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def reference_canonicalize(box):
    """canonicalize with no early return for canonical boxes and an explicit
    branch that keeps an in-range angle: the values canonicalize must
    reproduce bit for bit, always in a new box."""
    r1, r2, phi = box.r1, box.r2, box.phi
    if r1 < r2:
        r1, r2 = r2, r1
        phi = phi + math.pi / 2
    if not -math.pi / 2 < phi <= math.pi / 2:
        phi = math.remainder(phi, math.pi)
        if phi <= -math.pi / 2:
            phi += math.pi
    return OrientedBox(box.cx, box.cy, r1, r2, phi)


def _cross(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _intersect(p, q, dp, dq):
    t = dp / (dp - dq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def reference_clip_halfplane(poly, a, b):
    """A frozen copy of the half-plane clipper that computed each vertex's
    side twice, once as p and once as q: the vertices, values and order
    oracle._clip_halfplane must reproduce bit for bit."""
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


def reference_rect_iou(a, b):
    """exact_rect_iou without the circumcircle early return: a's
    reference_corner_offsets clipped by reference_clip_halfplane against
    b's shifted by the center difference, with a frozen copy of the
    empty-overlap floor."""
    dx, dy = b.cx - a.cx, b.cy - a.cy
    poly = [tuple(p) for p in reference_corner_offsets(a)]
    clip = [(x + dx, y + dy) for x, y in reference_corner_offsets(b)]
    for i in range(4):
        if not poly:
            break
        poly = reference_clip_halfplane(poly, clip[i], clip[(i + 1) % 4])
    inter = reference_shoelace_abs(poly)
    area_a = 4.0 * a.r1 * a.r2
    area_b = 4.0 * b.r1 * b.r2
    reach = math.hypot(a.r1, a.r2) + math.hypot(b.r1, b.r2)
    extent = max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy)) + reach
    if inter < MIN_OVERLAP_FRACTION * (area_a + area_b) + CLIP_ROUNDING * extent * reach:
        return 0.0
    return min(1.0, float(inter / (area_a + area_b - inter)))


def _fraction_clip(poly, a, b):
    """Sutherland-Hodgman in exact rationals: the part of poly on the side
    of edge a->b where the cross product is >= 0, as _clip_halfplane keeps."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    sides = [ex * (y - a[1]) - ey * (x - a[0]) for x, y in poly]
    out = []
    for i, (p, dp) in enumerate(zip(poly, sides)):
        q, dq = poly[(i + 1) % len(poly)], sides[(i + 1) % len(poly)]
        if dp >= 0:
            out.append(p)
        if (dp >= 0) != (dq >= 0):
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _fraction_area(poly):
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(poly, poly[1:] + poly[:1]))) / 2


def fraction_rect_iou(a, b):
    """The exact IoU of the quads that corner_offsets gives a and b, b's
    shifted by the exact center difference, as a Fraction: every float
    corner converts exactly, a's quad is clipped by b's four edges with no
    rounding, and the three areas are exact shoelace sums.  It has no
    empty-overlap floor and no clamp, so it shows what the float corners
    themselves imply, whichever path exact_rect_iou takes."""
    dx, dy = Fraction(b.cx) - Fraction(a.cx), Fraction(b.cy) - Fraction(a.cy)
    quad_a = [(Fraction(x), Fraction(y)) for x, y in corner_offsets(a)]
    quad_b = [(Fraction(x) + dx, Fraction(y) + dy) for x, y in corner_offsets(b)]
    poly = quad_a
    for i in range(4):
        if not poly:
            return Fraction(0)
        poly = _fraction_clip(poly, quad_b[i], quad_b[(i + 1) % 4])
    inter = _fraction_area(poly)
    return inter / (_fraction_area(quad_a) + _fraction_area(quad_b) - inter)


def reference_mc_iou(a, b, samples, seed, ellipse):
    """mc_ellipse_iou (ellipse=True) or mc_rect_iou (ellipse=False) as one
    rng.uniform draw of every sample, before the oracle streamed them in
    chunks; the point tests are inlined on the (samples, 2) array."""
    aabb = _ellipse_aabb if ellipse else _rect_aabb

    def contains(box, pts):
        dx = pts[:, 0] - box.cx
        dy = pts[:, 1] - box.cy
        c, s = math.cos(box.phi), math.sin(box.phi)
        u, v = c * dx + s * dy, -s * dx + c * dy
        if ellipse:
            u /= box.r1
            v /= box.r2
            return u * u + v * v <= 1.0
        return (np.abs(u) <= box.r1) & (np.abs(v) <= box.r2)

    (ax0, ay0), (ax1, ay1) = aabb(a)
    (bx0, by0), (bx1, by1) = aabb(b)
    lo = (min(ax0, bx0), min(ay0, by0))
    hi = (max(ax1, bx1), max(ay1, by1))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, 2))
    in_a = contains(a, pts)
    in_b = contains(b, pts)
    n_union = int(np.count_nonzero(in_a | in_b))
    n_inter = int(np.count_nonzero(in_a & in_b))
    if n_union == 0:
        return 0.0, 0.0
    p = n_inter / n_union
    return p, math.sqrt(p * (1.0 - p) / n_union)


def reference_profile(box, thetas):
    """rho, cos, sin and denominator of the ellipse radius, derived inline as
    jiou_gradient did before polar owned the formula."""
    t = thetas - box.phi
    c = np.cos(t)
    s = np.sin(t)
    r1, r2 = box.r1, box.r2
    denom = (r2 * c) ** 2 + (r1 * s) ** 2
    rho = np.full(len(thetas), r1) if r1 == r2 else r1 * r2 / np.sqrt(denom)
    return rho, c, s, denom


def reference_jiou(pred, target, n):
    """(ratio, loss, (d_phi, d_r1, d_r2)) computed as jiou_bar and
    jiou_gradient did with their own min/max sums, on reference_profile."""
    thetas = grid_angles(n)
    rho_p, c, s, denom = reference_profile(pred, thetas)
    rho_t = reference_profile(target, thetas)[0]
    lo = np.minimum(rho_p, rho_t)
    hi = np.maximum(rho_p, rho_t)
    s_min = float(np.sum(lo * lo))
    s_max = float(np.sum(hi * hi))
    ratio = s_min / s_max
    if ratio == 1.0 and not np.array_equal(lo, hi):
        ratio = math.nextafter(1.0, 0.0)
    loss = -math.log(max(ratio, RATIO_FLOOR)) + 0.0

    r1, r2 = pred.r1, pred.r2
    in_min = rho_p <= rho_t
    in_max = rho_p >= rho_t
    weight = 2.0 * rho_p

    def d_loss(drho):
        contrib = weight * drho
        return float(np.sum(contrib[in_max])) / s_max - float(np.sum(contrib[in_min])) / s_min

    grad = (d_loss(rho_p * c * s * (r1 * r1 - r2 * r2) / denom),
            d_loss(rho_p * (r2 * c) ** 2 / (r1 * denom)),
            d_loss(rho_p * (r1 * s) ** 2 / (r2 * denom)))
    return ratio, loss, grad


def reference_weight_gradient(pred, target, n):
    """(d_phi, d_r1, d_r2) in the weight form, on reference_profile: one
    weight per angle, w = 2 rho_p^2 ([rho_p >= rho_t] / s_max - [rho_p <=
    rho_t] / s_min) / denom, then numpy's sums of w c s, w (r2 c)^2 and
    w (r1 s)^2, scaled by r1^2 - r2^2, 1 / r1 and 1 / r2."""
    thetas = grid_angles(n)
    rho_p, c, s, denom = reference_profile(pred, thetas)
    rho_t = reference_profile(target, thetas)[0]
    s_min = float(np.sum(np.minimum(rho_p, rho_t) ** 2))
    s_max = float(np.sum(np.maximum(rho_p, rho_t) ** 2))
    w = 2 * rho_p ** 2 * ((rho_p >= rho_t) / s_max - (rho_p <= rho_t) / s_min) / denom
    r1, r2 = pred.r1, pred.r2
    return ((r1 * r1 - r2 * r2) * float(np.sum(w * c * s)) + 0.0,
            float(np.sum(w * (r2 * c) ** 2)) / r1,
            float(np.sum(w * (r1 * s) ** 2)) / r2)


# pi to 50 digits: np.pi is a float64 and would cap the grid at double precision.
LONGDOUBLE_PI = np.longdouble("3.14159265358979323846264338327950288419716939937510")


def _longdouble_profile(box, n):
    """rho, cos, sin and denominator of the ellipse radius in np.longdouble,
    on the grid 2*pi*i/n computed in np.longdouble too."""
    t = np.arange(n, dtype=np.longdouble) * (2 * LONGDOUBLE_PI / n) - np.longdouble(box.phi)
    c, s = np.cos(t), np.sin(t)
    r1, r2 = np.longdouble(box.r1), np.longdouble(box.r2)
    denom = (r2 * c) ** 2 + (r1 * s) ** 2
    return r1 * r2 / np.sqrt(denom), c, s, denom


def longdouble_ratio(pred, target, n=DEFAULT_N):
    """jiou_bar's ratio sum(min^2) / sum(max^2) in np.longdouble: the
    extended-precision yardstick for the float64 ratio."""
    rho_p = _longdouble_profile(pred, n)[0]
    rho_t = _longdouble_profile(target, n)[0]
    return np.sum(np.minimum(rho_p, rho_t) ** 2) / np.sum(np.maximum(rho_p, rho_t) ** 2)


def longdouble_gradient(pred, target, n=DEFAULT_N):
    """jiou_gradient's (d_phi, d_r1, d_r2) in np.longdouble, as an array:
    the same rows, routed to the min and max sums by the same ties."""
    rho_p, c, s, denom = _longdouble_profile(pred, n)
    rho_t = _longdouble_profile(target, n)[0]
    s_min = np.sum(np.minimum(rho_p, rho_t) ** 2)
    s_max = np.sum(np.maximum(rho_p, rho_t) ** 2)
    r1, r2 = np.longdouble(pred.r1), np.longdouble(pred.r2)
    rows = np.stack([rho_p * c * s * (r1 * r1 - r2 * r2) / denom,
                     rho_p * (r2 * c) ** 2 / (r1 * denom),
                     rho_p * (r1 * s) ** 2 / (r2 * denom)]) * (2 * rho_p)
    return (rows[:, rho_p >= rho_t].sum(axis=1) / s_max
            - rows[:, rho_p <= rho_t].sum(axis=1) / s_min)


def reference_corner_set_distance(a, b):
    """corner_set_distance as a loop over the 8 np.roll shifts."""
    pa = np.asarray(a, dtype=np.float64).reshape(4, 2)
    pb = np.asarray(b, dtype=np.float64).reshape(4, 2)
    best = math.inf
    for seq in (pb, pb[::-1]):
        for k in range(4):
            best = min(best, float(np.abs(np.roll(seq, k, axis=0) - pa).max()))
    return best


def reference_corners_to_box(corners):
    """The box fit as numpy array arithmetic (corner mean, rolled edges,
    hypot lengths): the values corners_to_box must reproduce bit for bit.
    Assumes a non-degenerate quad and skips the skew warning."""
    pts = np.asarray(corners, dtype=np.float64).reshape(4, 2)
    center = pts.mean(axis=0)
    edges = np.roll(pts, -1, axis=0) - pts
    axis_a = (edges[0] - edges[2]) / 2.0
    axis_b = (edges[1] - edges[3]) / 2.0
    len_a = float(np.hypot(axis_a[0], axis_a[1]))
    len_b = float(np.hypot(axis_b[0], axis_b[1]))
    if len_a >= len_b:
        long_axis, r1, r2 = axis_a, len_a / 2.0, len_b / 2.0
    else:
        long_axis, r1, r2 = axis_b, len_b / 2.0, len_a / 2.0
    phi = math.atan2(float(long_axis[1]), float(long_axis[0]))
    return canonicalize(OrientedBox(float(center[0]), float(center[1]), r1, r2, phi))


def reference_nms(detections, iou_threshold):
    """Greedy NMS over all detections at once, skipping other categories
    inside the loop (rotated_nms partitions by category first)."""
    dets = list(detections)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    suppressed = [False] * len(dets)
    keep = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(i)
        for j in order[pos + 1:]:
            if suppressed[j] or dets[j].category != dets[i].category:
                continue
            if exact_rect_iou(dets[i].box, dets[j].box) > iou_threshold:
                suppressed[j] = True
    return [dets[i] for i in keep]


def reference_smooth_l1(pred_tuple, target_tuple):
    """smooth_l1 as numpy array arithmetic on all components and rows at once:
    the bits smooth_l1 must reproduce wherever its result is finite."""
    p = np.asarray(pred_tuple, dtype=np.float64)
    t = np.asarray(target_tuple, dtype=np.float64)
    d = np.abs(p - t)
    q = np.minimum(d, 1.0)  # equals d where the quadratic branch is kept; cannot overflow
    per_row = np.where(d < 1.0, 0.5 * q * q, d - 0.5).sum(axis=-1)
    return float(per_row.sum() / per_row.size)  # np.mean's sum and division


def reference_fit_box(init, target, loss_kind, n=DEFAULT_N, lr=DEFAULT_LR,
                      max_iters=DEFAULT_MAX_ITERS):
    """fit_box's descent as a while loop that records the initial state and
    each accepted step in two separate places, carrying the accepted
    candidate in a tuple."""
    target = canonicalize(target)

    def pinned(box):
        return (box.phi, box.r1, box.r2, 0.0, 0.0)

    def evaluate(box):
        if loss_kind == "jiou":
            value = jiou_bar(box, target, n)
            g = jiou_gradient(box, target, n)
            return value.loss, np.array([g.d_phi, g.d_r1, g.d_r2])
        loss = smooth_l1(pinned(box), pinned(target))
        diff = np.array([box.phi - target.phi, box.r1 - target.r1, box.r2 - target.r2])
        return loss, np.clip(diff, -1.0, 1.0)

    state = canonicalize(OrientedBox(target.cx, target.cy, init.r1, init.r2, init.phi))
    loss, grad = evaluate(state)
    iou = exact_rect_iou(state, target)
    steps = [FitStep(0, state.phi, state.r1, state.r2, loss, iou)]
    projected = []
    converged = iou >= CONVERGED_IOU

    it = 0
    while not converged and it < max_iters:
        it += 1
        params = np.array([state.phi, state.r1, state.r2])
        step_lr = lr
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            cand = params - step_lr * grad
            clamped = cand[1] < MIN_HALF_EXTENT or cand[2] < MIN_HALF_EXTENT
            cand_box = canonicalize(OrientedBox(
                target.cx, target.cy,
                max(cand[1], MIN_HALF_EXTENT), max(cand[2], MIN_HALF_EXTENT),
                cand[0],
            ))
            cand_loss, cand_grad = evaluate(cand_box)
            if cand_loss <= loss:
                accepted = (cand_box, cand_loss, cand_grad, clamped)
                break
            step_lr *= 0.5
        if accepted is None:
            break
        state, loss, grad, clamped = accepted
        if clamped:
            projected.append(it)
        iou = exact_rect_iou(state, target)
        steps.append(FitStep(it, state.phi, state.r1, state.r2, loss, iou))
        converged = iou >= CONVERGED_IOU

    return FitTrace(tuple(steps), tuple(projected), loss_kind)


def reference_heatmap(objects, num_classes, height, width, stride):
    """Heatmap values with every Gaussian evaluated over the full grid."""
    values = np.zeros((num_classes, height, width))
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    centers = []
    for box, cls in objects:
        cell_x, cell_y, _, _ = encode_offset(box.cx, box.cy, stride)
        sigma = gaussian_sigma(box, stride)
        g = np.exp(-((xs - cell_x) ** 2 + (ys - cell_y) ** 2) / (2.0 * sigma * sigma))
        np.maximum(values[cls], g, out=values[cls])
        centers.append((cls, cell_x, cell_y))
    for cls, cx, cy in centers:
        values[cls, cy, cx] = 1.0
    return values


def reference_extract_peaks(heatmap, k, threshold):
    """extract_peaks as a dense scan: the grid padded with -inf and compared
    whole against each of its 8 shifts."""
    heat = np.asarray(heatmap, dtype=np.float64)
    c, h, w = heat.shape
    padded = np.full((c, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heat

    def shifted(dy, dx):
        return padded[:, 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]

    is_peak = heat >= threshold
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        is_peak &= heat > shifted(dy, dx)
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        is_peak &= heat >= shifted(dy, dx)

    cats, ys, xs = np.nonzero(is_peak)
    peaks = [
        (int(ci), int(xi), int(yi), float(heat[ci, yi, xi]))
        for ci, yi, xi in zip(cats, ys, xs)
    ]
    peaks.sort(key=lambda p: (-p[3], p[0], p[2], p[1]))
    return peaks[:k]
