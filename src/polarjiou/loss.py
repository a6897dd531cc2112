"""Discrete polar IoU between two boxes' inscribed ellipses, as a training loss.

Both boxes are reduced to radial profiles about a shared pole (centers do not
participate; they are regressed separately as offsets), and

    ratio = sum_i min(rho_pred_i, rho_tgt_i)^2 / sum_i max(rho_pred_i, rho_tgt_i)^2

approximates the concentric-ellipse IoU: the numerator and denominator are
discrete area integrals of the radial minimum (intersection) and maximum
(union).  The loss is -log(ratio), differentiable in the predicted
(phi, r1, r2) through the closed-form radius derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBox
from .errors import EmptyBatchError, ShapeError
from .polar import _profile_terms, grid_angles, radius_at

DEFAULT_N = 720

# The ratio is clamped here before the log so pathological inputs cannot
# produce an infinite loss.
RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class JiouValue:
    """Discrete radial IoU ratio in (0, 1] and its negative-log loss.

    Only ratio is stored; loss is derived from it.
    """

    ratio: float

    @property
    def loss(self) -> float:
        """-log(ratio), the ratio clamped at RATIO_FLOOR."""
        # +0.0 normalizes -log(1.0) == -0.0 to plain 0.0.
        return -math.log(max(self.ratio, RATIO_FLOOR)) + 0.0


@dataclass(frozen=True)
class JiouGradient:
    """d(loss)/d(phi, r1, r2) of the predicted box, radians and pixels."""

    d_phi: float
    d_r1: float
    d_r2: float


def _sums(rho_p, rho_t):
    """sum(min^2) and sum(max^2) of two profiles: the ratio's numerator and denominator."""
    lo = np.minimum(rho_p, rho_t)
    hi = np.maximum(rho_p, rho_t)
    lo *= lo
    hi *= hi
    return float(lo.sum()), float(hi.sum())


# The last pair's sums, as (key, s_min, s_max, ratio) with the key
# (pred.r1, pred.r2, pred.phi, target.r1, target.r2, target.phi, n) and the
# tie rule already applied to ratio.  A batch pair and a fit evaluation each
# ask jiou_bar and jiou_gradient for one pair: whichever comes first sums,
# and the other reads.  The tuple is swapped whole, so a thread never reads
# one pair's key with another pair's sums.
_kept_pair = (None, 0.0, 0.0, 0.0)


def _pair_sums(pred: OrientedBox, target: OrientedBox, n, thetas, rho_p=None, rho_t=None):
    """The kept (key, s_min, s_max, ratio) of the pair on the grid thetas of n,
    summed from the profiles rho_p and rho_t (radius_at's when not given)
    unless the last pair was this one."""
    global _kept_pair
    key = (pred.r1, pred.r2, pred.phi, target.r1, target.r2, target.phi, n)
    kept = _kept_pair
    if kept[0] == key:
        return kept
    if rho_p is None:
        rho_p = radius_at(pred, thetas)
        rho_t = radius_at(target, thetas)
    s_min, s_max = _sums(rho_p, rho_t)
    ratio = s_min / s_max
    if ratio == 1.0 and not np.array_equal(rho_p, rho_t):
        # Distinct profiles have a true ratio below 1 even when the two sums
        # round to the same float.
        ratio = math.nextafter(1.0, 0.0)
    _kept_pair = kept = (key, s_min, s_max, ratio)
    return kept


def jiou_bar(pred: OrientedBox, target: OrientedBox, n: int = DEFAULT_N) -> JiouValue:
    """Discrete radial IoU ratio of two boxes and its -log loss.

    Symmetric in the two arguments and independent of both centers; the
    ratio is 1 exactly when the two profiles coincide on the grid.

    The last pair's sums and ratio are kept, keyed on (pred.r1, pred.r2,
    pred.phi, target.r1, target.r2, target.phi, n) and swapped as one
    tuple, so a thread never reads one pair's key with another's sums.
    Right after jiou_gradient of the same pair, the ratio is read from
    there and no profile is asked for.
    """
    return JiouValue(_pair_sums(pred, target, n, grid_angles(n))[3])


def jiou_gradient(pred: OrientedBox, target: OrientedBox, n: int = DEFAULT_N) -> JiouGradient:
    """Analytic gradient of the loss with respect to the predicted (phi, r1, r2).

    The loss -log(s_min / s_max) moves with rho_p^2 at each grid angle, and
    the closed-form radius derivatives turn that into one weight per angle,

        w = 2 rho_p^2 ([rho_p >= rho_t] / s_max - [rho_p <= rho_t] / s_min) / denom,

    with the division by denom last, so that no product leaves the float
    range inside the supported extents (rho_p^2 / denom alone would, past
    aspect ratios near 1e154).  Then

        d_phi = (r1^2 - r2^2) * sum(w c s),  d_r1 = sum(w rc2) / r1,
        d_r2 = sum(w rs2) / r2,

    each sum numpy's own sum of a 1-D array, never a BLAS call, whose kernel
    and so whose bits would depend on the CPU.  An angle where the profiles
    tie exactly counts toward both sums, which makes identical profiles an
    exact stationary point: every weight is +0.0, and so is the gradient.
    d_phi is never -0.0, also for a circular prediction, where r1^2 - r2^2
    is 0.

    s_min and s_max come from the kept pair of jiou_bar when the last pair
    summed was this one (same key), and are summed and kept here otherwise.
    """
    thetas = grid_angles(n)
    rho_t = radius_at(target, thetas)
    rho_p, c, s, rc2, rs2, denom = _profile_terms(pred, thetas)
    _, s_min, s_max, _ = _pair_sums(pred, target, n, thetas, rho_p, rho_t)

    # 2 / s_max where rho_p is the larger, -2 / s_min where it is the
    # smaller, and both where the two tie.  The profile's arrays may be kept
    # ones, so every product goes into w or buf.
    to_max, to_min = 2.0 / s_max, 2.0 / s_min
    w = np.where(rho_p >= rho_t, to_max, -to_min)
    np.copyto(w, to_max - to_min, where=rho_p == rho_t)
    buf = np.multiply(rho_p, rho_p)
    w *= buf
    w /= denom
    r1, r2 = pred.r1, pred.r2
    np.multiply(w, c, out=buf)
    buf *= s
    # + 0.0 turns the -0.0 of a circle (r1^2 - r2^2 == 0) into 0.0.
    d_phi = (r1 * r1 - r2 * r2) * float(buf.sum()) + 0.0
    d_r1 = float(np.multiply(w, rc2, out=buf).sum()) / r1
    d_r2 = float(np.multiply(w, rs2, out=buf).sum()) / r2
    return JiouGradient(d_phi, d_r1, d_r2)


def batch_jiou(preds, targets, n: int = DEFAULT_N):
    """Values and gradients for paired boxes plus the batch-mean loss.

    Returns (mean_loss, [JiouValue, ...], [JiouGradient, ...]).  Each pair
    is summed once: its jiou_gradient reads the sums its jiou_bar kept.
    """
    preds = list(preds)
    targets = list(targets)
    if len(preds) != len(targets):
        raise ShapeError(f"{len(preds)} predictions vs {len(targets)} targets")
    if not preds:
        raise EmptyBatchError("batch_jiou needs at least one pair")
    # Each pair's value and gradient in turn, so the gradient finds both
    # profiles that jiou_bar just built among the PROFILE_SLOTS kept ones,
    # and the pair's sums in the kept pair.
    values, grads = [], []
    for p, t in zip(preds, targets):
        values.append(jiou_bar(p, t, n))
        grads.append(jiou_gradient(p, t, n))
    mean_loss = sum(v.loss for v in values) / len(values)
    return mean_loss, values, grads
