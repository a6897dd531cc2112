"""Training-target construction for anchor-free detection (center heatmaps,
sub-cell offsets, box parameters, each a read-only float64 array), the loss
terms defined on those targets, and the inverse decode from heatmap peaks
back to detections."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBox, canonicalize, phi_distance
from .errors import (
    GridAllocationError,
    InvalidBoxError,
    InvalidLossError,
    OutOfImageError,
    ShapeError,
    check_count,
    finite,
    float_array,
    short_int,
)
from .oracle import Detection

DEFAULT_MU = 5.0
DEFAULT_ALPHA = 4.0
DEFAULT_GAMMA = 2.0
DEFAULT_PEAK_K = 100
DEFAULT_PEAK_THRESHOLD = 0.3

# Predicted heatmap probabilities are clamped into [PT_CLAMP, 1 - PT_CLAMP]
# before any log.
PT_CLAMP = 1e-7

# exp(-x) is exactly 0.0 in float64 once x passes about 745.13, so a
# Gaussian stamp is zero wherever d^2 / (2 sigma^2) exceeds this bound.
EXP_UNDERFLOW_ARG = 750.0


def target_grid(shape) -> np.ndarray:
    """A zero float64 grid; GridAllocationError when it cannot be allocated."""
    # Past intp numpy raises ValueError, not MemoryError: for the byte count,
    # and for one size past intp even when another size is 0.
    limit = np.iinfo(np.intp).max
    if max(shape) > limit or math.prod(shape) > limit // 8:
        raise GridAllocationError(shape)
    try:
        return np.zeros(shape)
    except MemoryError as exc:
        raise GridAllocationError(shape) from exc


def _check_stride(stride) -> None:
    if not (finite(stride) and stride >= 1):
        raise ValueError(f"stride must be finite and >= 1, got {short_int(stride)}")


def gaussian_sigma(box: OrientedBox, stride: int) -> float:
    """Object-adaptive kernel width in grid cells: the short side spans about
    +-3 sigma at output stride, floored at one cell.  Raises ValueError unless
    the stride is finite and >= 1."""
    _check_stride(stride)
    # min(r1, r2) / (3 stride) has the bits of the short side over 6 strides,
    # and stays finite where twice the half-extent would overflow.
    return max(1.0, min(box.r1, box.r2) / (3.0 * stride))


def render_heatmap(objects, num_classes: int, height: int, width: int, stride: int) -> np.ndarray:
    """Render per-class center heatmaps for (box, class) pairs.

    Returns the read-only (C, H, W) grid the function allocated, with no
    copy; every value lies in [0, 1].  Each object stamps a Gaussian centered
    on its output-grid cell with the object-adaptive sigma; overlaps combine
    by pointwise max, so the result does not depend on object order.  Each
    center holds exactly 1 from its own stamp: its cell is inside the grid, so
    its window holds offset 0, where any sigma stamps exp(-0.0) = 1.
    Only the window where the Gaussian does not underflow to 0.0 is written.
    Objects are visited grouped by sigma: each group computes one stamp over
    the integer offsets its clipped windows span and writes a slice of it
    into each window, and only one stamp is alive at a time.  A single
    object's stamp is exactly its window.  num_classes, height and width
    must be whole numbers >= 0, else ValueError naming the argument, and the
    stride is checked as in gaussian_sigma even when there are no objects.
    """
    _check_stride(stride)
    num_classes = check_count("num_classes", num_classes, 0)
    height = check_count("height", height, 0)
    width = check_count("width", width, 0)
    values = target_grid((num_classes, height, width))
    by_sigma = {}
    for box, cls in objects:
        if not (0 <= cls < num_classes and cls == int(cls)):
            raise ShapeError(f"class {short_int(cls)} outside [0, {short_int(num_classes)}) "
                             "or not a whole number")
        cell_x, cell_y, _, _ = encode_offset(box.cx, box.cy, stride)
        if cell_x >= width or cell_y >= height:
            raise OutOfImageError(f"center cell ({short_int(cell_x)}, {short_int(cell_y)}) "
                                  f"outside {width}x{height} grid")
        by_sigma.setdefault(gaussian_sigma(box, stride), []).append((int(cls), cell_x, cell_y))
    for sigma, group in by_sigma.items():
        # Capped at the grid size, which also keeps a reach that overflows finite.
        reach = math.ceil(min(sigma * math.sqrt(2.0 * EXP_UNDERFLOW_ARG), max(height, width)))
        classes, cx, cy = np.array(group).T
        # Each window as offsets from its center, clipped to the grid.
        x0, x1 = np.maximum(-reach, -cx), np.minimum(reach + 1, width - cx)
        y0, y1 = np.maximum(-reach, -cy), np.minimum(reach + 1, height - cy)
        sx, sy = x0.min(), y0.min()
        dx = np.arange(sx, x1.max(), dtype=np.float64)
        dy = np.arange(sy, y1.max(), dtype=np.float64)
        stamp = dx[None, :] ** 2 + dy[:, None] ** 2
        # exp(-(dx^2 + dy^2) / (2 sigma^2)), computed in place.
        np.negative(stamp, out=stamp)
        np.divide(stamp, 2.0 * sigma * sigma, out=stamp)
        np.exp(stamp, out=stamp)
        for c, x, y, a, b, p, q in zip(*(v.tolist() for v in (classes, cx, cy, x0, x1, y0, y1))):
            window = values[c, y + p:y + q, x + a:x + b]
            np.maximum(window, stamp[p - sy:q - sy, a - sx:b - sx], out=window)
        del stamp
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class EncodedTargets:
    """Everything the decoder needs: heatmap plus dense offset/parameter maps.

    heatmap is the (C, H, W) grid from render_heatmap.  positives lists each
    object's center cell as (class, cell_x, cell_y), in input order, the
    layout extract_peaks' tuples start with; the heatmap holds exactly 1
    there.  offset_map is (2, H, W) holding (dx, dy) and param_map is
    (3, H, W) holding (phi, r1, r2), both written only at the positive
    cells; these two maps are the regression targets.  All three arrays are
    read-only.
    """

    heatmap: np.ndarray
    offset_map: np.ndarray
    param_map: np.ndarray
    positives: tuple


def encode_targets(objects, num_classes: int, height: int, width: int, stride: int) -> EncodedTargets:
    """Build all training targets for (box, class) pairs on one output grid."""
    objects = list(objects)
    heatmap = render_heatmap(objects, num_classes, height, width, stride)
    offset_map = target_grid((2, *heatmap.shape[1:]))
    param_map = target_grid((3, *heatmap.shape[1:]))
    positives = []
    for box, cls in objects:
        cell_x, cell_y, dx, dy = encode_offset(box.cx, box.cy, stride)
        offset_map[:, cell_y, cell_x] = (dx, dy)
        param_map[:, cell_y, cell_x] = (box.phi, box.r1, box.r2)
        positives.append((int(cls), cell_x, cell_y))
    offset_map.setflags(write=False)
    param_map.setflags(write=False)
    return EncodedTargets(heatmap, offset_map, param_map, tuple(positives))


def _first_non_finite(values: np.ndarray) -> float:
    """The first NaN or infinity of a float64 array that holds one."""
    return float(values[~np.isfinite(values)][0])


def focal_loss(pred, target, alpha: float = DEFAULT_ALPHA,
               gamma: float = DEFAULT_GAMMA) -> float:
    """Center-heatmap focal loss of a predicted (C, H, W) heatmap against
    the target heatmap of the same shape, such as `EncodedTargets.heatmap`.

    Positive cells (target exactly 1) contribute (1 - pt)^gamma * log(pt);
    every other cell contributes (1 - y)^alpha * pt^gamma * log(1 - pt),
    down-weighted near peaks by the soft target y.  The sum is negated and
    divided by the positive count, floored at one; a loss whose terms all
    underflow is +0.0.  Raises ValueError unless alpha and gamma are finite
    and >= 0 and every target value lies in [0, 1], and InvalidLossError
    when a prediction is not finite (NaN, an infinity or an int past the
    float range; the clip into [PT_CLAMP, 1 - PT_CLAMP] would hide an
    infinity) or the loss is not finite (a NaN target cell).
    """
    if not (finite(alpha, gamma) and alpha >= 0.0 and gamma >= 0.0):
        raise ValueError("alpha and gamma must be finite and >= 0, "
                         f"got {short_int(alpha)}, {short_int(gamma)}")
    pred = float_array(pred, InvalidLossError, "non-finite heatmap prediction {}")
    if not np.isfinite(pred).all():
        raise InvalidLossError(f"non-finite heatmap prediction {_first_non_finite(pred)}")
    y = float_array(target, ValueError, "target values must lie in [0, 1], got {}")
    if y.ndim != 3:
        raise ShapeError(f"target must be a (C, H, W) heatmap, got shape {y.shape}")
    if pred.shape != y.shape:
        raise ShapeError(f"pred shape {pred.shape} vs target shape {y.shape}")
    outside = y[(y < 0.0) | (y > 1.0)]
    if outside.size:
        raise ValueError(f"target values must lie in [0, 1], got {outside[0]}")
    pt = np.clip(pred, PT_CLAMP, 1.0 - PT_CLAMP)
    pos = y == 1.0
    n_pos = max(int(np.count_nonzero(pos)), 1)
    neg = ~pos
    # A term that is not finite raises InvalidLossError below, without a numpy warning first.
    with np.errstate(invalid="ignore", over="ignore"):
        pos_term = np.sum((1.0 - pt[pos]) ** gamma * np.log(pt[pos]))
        neg_term = np.sum((1.0 - y[neg]) ** alpha * pt[neg] ** gamma * np.log1p(-pt[neg]))
    loss = float(-(pos_term + neg_term) / n_pos) + 0.0
    if not finite(loss):
        raise InvalidLossError(f"non-finite focal loss {loss}")
    return loss


def _row_sum(p_row, t_row) -> float:
    # Python floats, so no warning where p - t overflows, added left to right
    # (numpy's order for five terms) so the sum keeps the frozen reference's bits.
    total = 0.0
    for a, b in zip(p_row, t_row):
        d = abs(a - b)
        total += 0.5 * d * d if d < 1.0 else d - 0.5
    return total


def smooth_l1(pred_tuple, target_tuple) -> float:
    """SmoothL1 between one pair of regression tuples (phi, r1, r2, dx, dy),
    each a tuple, list or 1-D array of five numbers: a component difference
    d costs 0.5*d^2 below 1 and |d| - 0.5 above, summed over the five.
    Raises ShapeError for anything else (a 2-D array, nested lists, four or
    six components) and InvalidLossError when a component is an int past
    the float range or the sum is not finite."""
    try:
        # A tuple (fit_box's form) is read as it is, anything else through
        # numpy: a str is one number there, and what is not 1-D becomes nested
        # lists, which float() refuses where a one-element array can pass.
        if type(pred_tuple) is not tuple:
            pred_tuple = np.asarray(pred_tuple, dtype=np.float64).tolist()
        if type(target_tuple) is not tuple:
            target_tuple = np.asarray(target_tuple, dtype=np.float64).tolist()
        p, t = [*map(float, pred_tuple)], [*map(float, target_tuple)]
    except (TypeError, ValueError):
        p = t = ()
    except OverflowError:  # an int past the float range
        raise InvalidLossError("non-finite SmoothL1 component") from None
    if len(p) != 5 or len(t) != 5:
        raise ShapeError("smooth_l1 takes two tuples of five numbers")
    total = _row_sum(p, t)
    if not finite(total):
        raise InvalidLossError(f"non-finite SmoothL1 loss {total}")
    return total


def total_loss(cla: float, jiou: float, reg: float, mu: float = DEFAULT_MU) -> float:
    """The training loss cla + mu * jiou + reg, as a float that is never -0.0.

    Raises InvalidLossError when any input is not finite, or when finite
    inputs overflow.
    """
    parts = (cla, jiou, reg, mu)
    if not finite(*parts):
        raise InvalidLossError(f"non-finite loss components ({', '.join(map(short_int, parts))})")
    with np.errstate(over="ignore"):  # numpy scalars would warn before the raise
        total = float(cla + mu * jiou + reg) + 0.0
    if not finite(total):
        raise InvalidLossError(f"loss components ({', '.join(map(short_int, parts))}) "
                               f"overflow to {total}")
    return total


def extract_peaks(heatmap, k: int = DEFAULT_PEAK_K,
                  threshold: float = DEFAULT_PEAK_THRESHOLD):
    """Cells that dominate their 3x3 neighborhood with score >= threshold, top-k,
    as (category, cell_x, cell_y, score) tuples of Python ints and floats:
    the layout of `EncodedTargets.positives` plus the score.

    On plateaus of equal values the row-major-first cell wins: a peak must
    strictly exceed the neighbors that precede it in row-major order and
    weakly exceed the rest.  Results are sorted by descending score with
    (category, cell_y, cell_x) as the deterministic tie-break.

    Only the cells at or above the threshold are tested, against their
    in-grid neighbors, so the cost grows with their number and the function
    is meant for sparse maps (targets, or predictions at a threshold few
    cells reach): on a 15x130x130 map of 60 Gaussians about 0.5 ms for the
    540 cells >= 0.3, against 3.7 ms for a dense scan of all 8 shifted
    grids.  A map where most cells pass is the worst case: 14 ms when all
    253 500 cells do (threshold 0), against 3.7 ms dense (Xeon VM core,
    numpy 2.4).

    Raises ShapeError when the heatmap is not (C, H, W) or holds a value
    that is not finite (NaN, an infinity or an int past the float range),
    and ValueError for a k below 1 or a threshold outside [0, 1).  The
    finiteness test reads the whole map: about 80 us on a 15x130x130
    map (Xeon VM core, numpy 2.4).
    """
    heat = float_array(heatmap, ShapeError, "heatmap value {} is past the float range")
    if not np.isfinite(heat).all():
        raise ShapeError(f"heatmap value {_first_non_finite(heat)} is not finite")
    if heat.ndim != 3:
        raise ShapeError(f"expected a (C, H, W) heatmap, got shape {heat.shape}")
    k = check_count("k", k, 1)
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {short_int(threshold)}")
    h, w = heat.shape[1:]
    flat = heat.reshape(-1)
    cells = np.flatnonzero(flat >= threshold)
    ys, xs = np.divmod(cells % (h * w), w)
    score = flat[cells]
    for dy, dx, strict in ((-1, -1, True), (-1, 0, True), (-1, 1, True), (0, -1, True),
                           (0, 1, False), (1, -1, False), (1, 0, False), (1, 1, False)):
        # Clipped flat indices are compared, then ignored outside the grid.
        other = flat.take(cells + (dy * w + dx), mode="clip")
        keep = score > other if strict else score >= other
        keep |= (ys + dy < 0) | (ys + dy >= h) | (xs + dx < 0) | (xs + dx >= w)
        cells, ys, xs, score = cells[keep], ys[keep], xs[keep], score[keep]
    cats = cells // (h * w)
    top = np.lexsort((xs, ys, cats, -score))[:k]
    return list(zip(cats[top].tolist(), xs[top].tolist(), ys[top].tolist(),
                    score[top].tolist()))


def encode_offset(cx: float, cy: float, stride: int):
    """Split a pixel-space center into its output-grid cell and the fractional
    offset within it: (cell_x, cell_y, dx, dy), with cx = (cell_x + dx) *
    stride.  decode_detections inverts it.

    Raises ValueError unless the stride is finite and >= 1.
    """
    _check_stride(stride)
    if not finite(cx, cy):
        raise InvalidBoxError(f"non-finite center ({short_int(cx)}, {short_int(cy)})")
    if cx < 0 or cy < 0:
        raise OutOfImageError(f"center ({short_int(cx)}, {short_int(cy)}) "
                              "has negative coordinates")
    gx, gy = cx / stride, cy / stride
    cell_x, cell_y = math.floor(gx), math.floor(gy)
    return cell_x, cell_y, gx - cell_x, gy - cell_y


def decode_detections(peaks, offset_map, param_map, stride: int):
    """Detections from (category, cell_x, cell_y, score) peaks plus the
    dense maps.

    The center is (cell + offset) * stride; (phi, r1, r2) are read at the
    peak cell and canonicalized.  Raises ValueError unless the stride is
    finite and >= 1, OutOfImageError when a peak cell is not a whole
    number inside the maps' H x W, and InvalidBoxError when a map value is
    an int past the float range or a decoded box is not finite.
    """
    _check_stride(stride)
    off = float_array(offset_map, InvalidBoxError, "non-finite offset map value {}")
    par = float_array(param_map, InvalidBoxError, "non-finite param map value {}")
    if off.ndim != 3 or off.shape[0] != 2:
        raise ShapeError(f"offset map must be (2, H, W), got shape {off.shape}")
    if par.ndim != 3 or par.shape[0] != 3 or par.shape[1:] != off.shape[1:]:
        raise ShapeError(
            f"param map must be (3, H, W) aligned with offsets, got shape {par.shape}"
        )
    h, w = off.shape[1:]
    detections = []
    for category, cell_x, cell_y, score in peaks:
        # The range test comes first: int() of a NaN or an infinity raises.
        if not (0 <= cell_x < w and 0 <= cell_y < h
                and cell_x == int(cell_x) and cell_y == int(cell_y)):
            raise OutOfImageError(
                f"peak cell ({short_int(cell_x)}, {short_int(cell_y)}) "
                f"is not a whole cell of the {w}x{h} maps"
            )
        x, y = int(cell_x), int(cell_y)
        dx, dy = off[:, y, x]
        phi, r1, r2 = par[:, y, x]
        box = canonicalize(OrientedBox(
            (cell_x + dx) * stride, (cell_y + dy) * stride, r1, r2, phi,
        ))
        detections.append(Detection(box=box, score=score, category=category))
    return detections


def encode_decode_roundtrip(objects, num_classes: int, height: int, width: int, stride: int):
    """Drive encode -> peak extraction -> decode on noiseless targets.

    Objects are canonicalized, encoded together, and matched back to decoded
    detections by center cell.  Returns (field_errors, matches), both aligned
    with `objects`: an (N, 5) array of absolute errors in (cx, cy, r1, r2,
    phi), and the detection decoded at each object's center cell.  Objects
    whose cell produced no detection get a NaN row and None.  Objects of one
    class that share a cell share its one detection, which carries the
    parameters of the last of them.
    """
    objects = [(canonicalize(box), cls) for box, cls in objects]
    enc = encode_targets(objects, num_classes, height, width, stride)
    peaks = extract_peaks(enc.heatmap, k=max(len(objects), 1))
    detections = decode_detections(peaks, enc.offset_map, enc.param_map, stride)
    by_cell = {peak[:3]: det for peak, det in zip(peaks, detections)}
    matches = [by_cell.get(cell) for cell in enc.positives]
    errors = np.full((len(objects), 5), np.nan)
    for i, ((box, _), det) in enumerate(zip(objects, matches)):
        if det is None:
            continue
        errors[i] = (
            abs(det.box.cx - box.cx),
            abs(det.box.cy - box.cy),
            abs(det.box.r1 - box.r1),
            abs(det.box.r2 - box.r2),
            phi_distance(det.box.phi, box.phi),
        )
    return errors, matches
