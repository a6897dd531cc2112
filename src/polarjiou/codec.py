"""Training-target construction for anchor-free detection (center heatmaps,
sub-cell offsets, box parameters), the loss terms defined on those targets,
and the inverse decode from heatmap peaks back to detections."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBox, canonicalize, encode_offset, phi_distance
from .errors import GridAllocationError, InvalidLossError, OutOfImageError, ShapeError
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


@dataclass(frozen=True)
class HeatmapTarget:
    """Per-class center heatmap at output stride.

    values[c, y, x] in [0, 1] is the pointwise max over per-object Gaussians;
    every positive (an object's center cell, listed in input order in
    `positives` as (class, cell_x, cell_y)) holds exactly 1.  `values` is
    stored read-only: a read-only float64 array that owns its data is kept
    as given, and anything else is copied, so no writeable alias remains.
    """

    values: np.ndarray
    positives: tuple

    def __post_init__(self):
        arr = self.values
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.base is None and not arr.flags.writeable):
            arr = np.array(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"heatmap must be (C, H, W), got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "positives", tuple(self.positives))


def target_grid(shape) -> np.ndarray:
    """A zero float64 grid; GridAllocationError when it cannot be allocated."""
    # Past intp's byte range numpy raises ValueError, not MemoryError.
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise GridAllocationError(shape)
    try:
        return np.zeros(shape)
    except MemoryError as exc:
        raise GridAllocationError(shape) from exc


def gaussian_sigma(box: OrientedBox, stride: int) -> float:
    """Object-adaptive kernel width in grid cells: the short side spans about
    +-3 sigma at output stride, floored at one cell."""
    return max(1.0, min(2.0 * box.r1, 2.0 * box.r2) / (6.0 * stride))


def render_heatmap(objects, num_classes: int, height: int, width: int, stride: int) -> HeatmapTarget:
    """Render per-class center heatmaps for (box, class) pairs.

    Each object stamps a Gaussian centered on its output-grid cell with the
    object-adaptive sigma; overlaps combine by pointwise max, so the result
    does not depend on object order, and center cells are set to exactly 1.
    Only the window where the Gaussian does not underflow to 0.0 is written.
    Objects are visited grouped by sigma: each group computes one stamp over
    the integer offsets its clipped windows span and writes a slice of it
    into each window, and only one stamp is alive at a time.  A single
    object's stamp is exactly its window.
    """
    values = target_grid((num_classes, height, width))
    positives = []
    by_sigma = {}
    for box, cls in objects:
        if not 0 <= cls < num_classes:
            raise ShapeError(f"class {cls} outside [0, {num_classes})")
        off = encode_offset(box.cx, box.cy, stride)
        if off.cell_x >= width or off.cell_y >= height:
            raise OutOfImageError(
                f"center cell ({off.cell_x}, {off.cell_y}) outside {width}x{height} grid"
            )
        positives.append((int(cls), off.cell_x, off.cell_y))
        by_sigma.setdefault(gaussian_sigma(box, stride), []).append(positives[-1])
    for sigma, group in by_sigma.items():
        # Capped at the grid size, which also keeps an infinite sigma finite.
        reach = math.ceil(min(sigma * math.sqrt(2.0 * EXP_UNDERFLOW_ARG), max(height, width)))
        classes, cx, cy = np.array(group).T
        # Each window as offsets from its center, clipped to the grid.
        x0, x1 = np.maximum(-reach, -cx), np.minimum(reach + 1, width - cx)
        y0, y1 = np.maximum(-reach, -cy), np.minimum(reach + 1, height - cy)
        dx = np.arange(x0.min(), x1.max(), dtype=np.float64)
        dy = np.arange(y0.min(), y1.max(), dtype=np.float64)
        stamp = dx[None, :] ** 2 + dy[:, None] ** 2
        # exp(-(dx^2 + dy^2) / (2 sigma^2)), computed in place.
        np.negative(stamp, out=stamp)
        np.divide(stamp, 2.0 * sigma * sigma, out=stamp)
        np.exp(stamp, out=stamp)
        sx, sy = x0.min(), y0.min()
        for c, x, y, a, b, p, q in zip(*(v.tolist() for v in (classes, cx, cy, x0, x1, y0, y1))):
            window = values[c, y + p:y + q, x + a:x + b]
            np.maximum(window, stamp[p - sy:q - sy, a - sx:b - sx], out=window)
        del stamp
    for cls, cx, cy in positives:
        values[cls, cy, cx] = 1.0
    values.setflags(write=False)  # so HeatmapTarget keeps it without a copy
    return HeatmapTarget(values=values, positives=tuple(positives))


@dataclass(frozen=True)
class EncodedTargets:
    """Everything the decoder needs: heatmap plus dense offset/parameter maps.

    offset_map is (2, H, W) holding (dx, dy) and param_map is (3, H, W)
    holding (phi, r1, r2), both written only at the cells listed in
    `heatmap.positives`; these two maps are the regression targets.
    """

    heatmap: HeatmapTarget
    offset_map: np.ndarray
    param_map: np.ndarray


def encode_targets(objects, num_classes: int, height: int, width: int, stride: int) -> EncodedTargets:
    """Build all training targets for (box, class) pairs on one output grid."""
    objects = list(objects)
    heatmap = render_heatmap(objects, num_classes, height, width, stride)
    offset_map = target_grid((2, height, width))
    param_map = target_grid((3, height, width))
    for box, _ in objects:
        off = encode_offset(box.cx, box.cy, stride)
        offset_map[:, off.cell_y, off.cell_x] = (off.dx, off.dy)
        param_map[:, off.cell_y, off.cell_x] = (box.phi, box.r1, box.r2)
    return EncodedTargets(heatmap, offset_map, param_map)


def focal_loss(pred, target, alpha: float = DEFAULT_ALPHA,
               gamma: float = DEFAULT_GAMMA) -> float:
    """Center-heatmap focal loss of a predicted (C, H, W) heatmap against
    the target heatmap of the same shape, such as `HeatmapTarget.values`.

    Positive cells (target exactly 1) contribute (1 - pt)^gamma * log(pt);
    every other cell contributes (1 - y)^alpha * pt^gamma * log(1 - pt),
    down-weighted near peaks by the soft target y.  The sum is negated and
    divided by the positive count, floored at one; a loss whose terms all
    underflow is +0.0.
    """
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if y.ndim != 3:
        raise ShapeError(f"target must be a (C, H, W) heatmap, got shape {y.shape}")
    if pred.shape != y.shape:
        raise ShapeError(f"pred shape {pred.shape} vs target shape {y.shape}")
    pt = np.clip(pred, PT_CLAMP, 1.0 - PT_CLAMP)
    pos = y == 1.0
    n_pos = max(int(np.count_nonzero(pos)), 1)
    pos_term = np.sum((1.0 - pt[pos]) ** gamma * np.log(pt[pos]))
    neg = ~pos
    neg_term = np.sum((1.0 - y[neg]) ** alpha * pt[neg] ** gamma * np.log1p(-pt[neg]))
    return float(-(pos_term + neg_term) / n_pos) + 0.0


def smooth_l1(pred_tuple, target_tuple) -> float:
    """SmoothL1 over 5-component regression tuples (phi, r1, r2, dx, dy).

    Each component difference d costs 0.5*d^2 below 1 and |d| - 0.5 above;
    components are summed and, for (N, 5) inputs, rows are averaged.
    """
    p = np.asarray(pred_tuple, dtype=np.float64)
    t = np.asarray(target_tuple, dtype=np.float64)
    if p.shape != t.shape or p.ndim not in (1, 2) or p.shape[-1] != 5:
        raise ShapeError(f"expected matching (..., 5) tuples, got {p.shape} vs {t.shape}")
    d = np.abs(p - t)
    per_row = np.where(d < 1.0, 0.5 * d * d, d - 0.5).sum(axis=-1)
    return float(np.mean(per_row))


def total_loss(cla: float, jiou: float, reg: float, mu: float = DEFAULT_MU) -> float:
    """The training loss cla + mu * jiou + reg, as a float that is never -0.0.

    Raises InvalidLossError when any input is not finite.
    """
    parts = (cla, jiou, reg, mu)
    if not all(math.isfinite(v) for v in parts):
        raise InvalidLossError(f"non-finite loss components {parts}")
    return float(cla + mu * jiou + reg) + 0.0


@dataclass(frozen=True)
class Peak:
    """A heatmap cell that dominates its 3x3 neighborhood."""

    category: int
    cell_x: int
    cell_y: int
    score: float


def extract_peaks(heatmap, k: int = DEFAULT_PEAK_K,
                  threshold: float = DEFAULT_PEAK_THRESHOLD):
    """Cells that dominate their 3x3 neighborhood with score >= threshold, top-k.

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
    """
    heat = np.asarray(heatmap, dtype=np.float64)
    if heat.ndim != 3:
        raise ShapeError(f"expected a (C, H, W) heatmap, got shape {heat.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
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
    peaks = [Peak(ci, xi, yi, si) for ci, yi, xi, si in zip(
        (cells // (h * w)).tolist(), ys.tolist(), xs.tolist(), score.tolist())]
    peaks.sort(key=lambda p: (-p.score, p.category, p.cell_y, p.cell_x))
    return peaks[:k]


def decode_detections(peaks, offset_map, param_map, stride: int):
    """Detections from peaks plus the dense maps.

    The center is (cell + offset) * stride; (phi, r1, r2) are read at the
    peak cell and canonicalized.
    """
    off = np.asarray(offset_map, dtype=np.float64)
    par = np.asarray(param_map, dtype=np.float64)
    if off.ndim != 3 or off.shape[0] != 2:
        raise ShapeError(f"offset map must be (2, H, W), got shape {off.shape}")
    if par.ndim != 3 or par.shape[0] != 3 or par.shape[1:] != off.shape[1:]:
        raise ShapeError(
            f"param map must be (3, H, W) aligned with offsets, got shape {par.shape}"
        )
    detections = []
    for p in peaks:
        dx, dy = off[:, p.cell_y, p.cell_x]
        phi, r1, r2 = par[:, p.cell_y, p.cell_x]
        box = canonicalize(OrientedBox(
            (p.cell_x + dx) * stride, (p.cell_y + dy) * stride, r1, r2, phi,
        ))
        detections.append(Detection(box=box, score=p.score, category=p.category))
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
    peaks = extract_peaks(enc.heatmap.values, k=max(len(objects), 1),
                          threshold=DEFAULT_PEAK_THRESHOLD)
    detections = decode_detections(peaks, enc.offset_map, enc.param_map, stride)
    by_cell = {}
    for det, peak in zip(detections, peaks):
        by_cell[(peak.category, peak.cell_x, peak.cell_y)] = det
    matches = [by_cell.get(cell) for cell in enc.heatmap.positives]
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
