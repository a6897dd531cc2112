"""Grouped channel weighting for a multi-scale feature map.

Reference array math only.  The features are one (c, H, W) map whose
channels are m scale groups of c/m channels each, concatenated in order.
Pool the map globally, embed and rectify the pooled vector, map it to
per-group logits, softmax within each group, and rescale each channel by
its weight.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupingError, ShapeError


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"non-finite {what} values")
    return arr


def _features(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected (c, H, W) features, got shape {arr.shape}")
    return _finite(arr, "feature")


def global_pool_embed(features, embed) -> np.ndarray:
    """Spatial-mean pool the (c, H, W) features, then embed and rectify.

    embed must be a finite (c, c) matrix.  Returns the length-c descriptor
    relu(embed @ pooled).
    """
    features = _features(features)
    if 0 in features.shape[1:]:
        raise ShapeError(f"cannot pool an empty spatial map, got shape {features.shape}")
    pooled = features.mean(axis=(1, 2))
    embed = np.asarray(embed, dtype=np.float64)
    c = pooled.shape[0]
    if embed.shape != (c, c):
        raise ShapeError(f"embed matrix must be ({c}, {c}), got shape {embed.shape}")
    return np.maximum(_finite(embed, "embed") @ pooled, 0.0)


def group_softmax(w, per_group_maps) -> np.ndarray:
    """Map the descriptor to one softmax distribution per group.

    Each of the m maps is a finite (c/m, c) matrix producing that group's
    logits from the finite length-c descriptor; the softmax is taken within
    the group.  Returns the (m, c/m) weights, each row summing to 1; raises
    ShapeError when a logit overflows.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ShapeError(f"descriptor must be a vector, got shape {w.shape}")
    _finite(w, "descriptor")
    maps = [np.asarray(mp, dtype=np.float64) for mp in per_group_maps]
    m = len(maps)
    if m < 1:
        raise GroupingError("need at least one group map")
    c = w.shape[0]
    if c % m != 0:
        raise GroupingError(f"{c}-channel descriptor does not divide into {m} groups")
    g = c // m
    rows = []
    for mp in maps:
        if mp.shape != (g, c):
            raise ShapeError(f"group map must be ({g}, {c}), got shape {mp.shape}")
        _finite(mp, "group map")
        with np.errstate(over="ignore", invalid="ignore"):
            logits = _finite(mp @ w, "group logit")
            # Shift by the max so exp cannot overflow; a spread past the float
            # range shifts to -inf, whose exp is the exact 0.
            logits = logits - logits.max()
        e = np.exp(logits)
        rows.append(e / e.sum())
    return np.stack(rows)


def apply_weights(features, weights) -> np.ndarray:
    """Scale channel i * (c/m) + j of the (c, H, W) features by weights[i, j].

    weights is the (m, c/m) output of group_softmax; any finite 2-D array of
    c entries is read in row-major order.
    """
    features = _features(features)
    weights = np.asarray(weights, dtype=np.float64)
    c = features.shape[0]
    if weights.ndim != 2 or weights.size != c:
        raise ShapeError(f"weights must be 2-D with {c} entries, got shape {weights.shape}")
    return features * _finite(weights, "weight").reshape(c)[:, None, None]
