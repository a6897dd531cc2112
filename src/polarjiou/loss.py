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
    """Discrete radial IoU ratio in (0, 1] and its negative-log loss."""

    ratio: float
    loss: float


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
    return float(np.sum(lo * lo)), float(np.sum(hi * hi))


def jiou_bar(pred: OrientedBox, target: OrientedBox, n: int = DEFAULT_N) -> JiouValue:
    """Discrete radial IoU ratio of two boxes and its -log loss.

    Symmetric in the two arguments and independent of both centers; the
    ratio is 1 exactly when the two profiles coincide on the grid.
    """
    thetas = grid_angles(n)
    rho_p = radius_at(pred, thetas)
    rho_t = radius_at(target, thetas)
    s_min, s_max = _sums(rho_p, rho_t)
    ratio = s_min / s_max
    if ratio == 1.0 and not np.array_equal(rho_p, rho_t):
        # Distinct profiles have a true ratio below 1 even when the two sums
        # round to the same float.
        ratio = math.nextafter(1.0, 0.0)
    # +0.0 normalizes -log(1.0) == -0.0 to plain 0.0.
    loss = -math.log(max(ratio, RATIO_FLOOR)) + 0.0
    return JiouValue(ratio=ratio, loss=loss)


def jiou_gradient(pred: OrientedBox, target: OrientedBox, n: int = DEFAULT_N) -> JiouGradient:
    """Analytic gradient of the loss with respect to the predicted (phi, r1, r2).

    Each grid angle routes its derivative through whichever of the min/max
    sums the predicted radius lands in.  Where the profiles tie exactly, the
    angle contributes to both sums, which makes identical profiles an exact
    stationary point (zero gradient at the loss minimum).
    """
    thetas = grid_angles(n)
    rho_p, c, s, denom = _profile_terms(pred, thetas)
    rho_t = radius_at(target, thetas)
    s_min, s_max = _sums(rho_p, rho_t)

    # Closed-form derivatives of rho_p at each angle.
    r1, r2 = pred.r1, pred.r2
    drho_dr1 = rho_p * (r2 * c) ** 2 / (r1 * denom)
    drho_dr2 = rho_p * (r1 * s) ** 2 / (r2 * denom)
    drho_dphi = rho_p * c * s * (r1 * r1 - r2 * r2) / denom

    in_min = rho_p <= rho_t
    in_max = rho_p >= rho_t
    weight = 2.0 * rho_p

    def d_loss(drho):
        contrib = weight * drho
        ds_min = float(np.sum(contrib[in_min]))
        ds_max = float(np.sum(contrib[in_max]))
        return ds_max / s_max - ds_min / s_min

    return JiouGradient(
        d_phi=d_loss(drho_dphi),
        d_r1=d_loss(drho_dr1),
        d_r2=d_loss(drho_dr2),
    )


def batch_jiou(preds, targets, n: int = DEFAULT_N):
    """Values and gradients for paired boxes plus the batch-mean loss.

    Returns (mean_loss, [JiouValue, ...], [JiouGradient, ...]).
    """
    preds = list(preds)
    targets = list(targets)
    if len(preds) != len(targets):
        raise ShapeError(f"{len(preds)} predictions vs {len(targets)} targets")
    if not preds:
        raise EmptyBatchError("batch_jiou needs at least one pair")
    values = [jiou_bar(p, t, n) for p, t in zip(preds, targets)]
    grads = [jiou_gradient(p, t, n) for p, t in zip(preds, targets)]
    mean_loss = sum(v.loss for v in values) / len(values)
    return mean_loss, values, grads
