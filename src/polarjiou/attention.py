"""Per-group softmax weights for a channel descriptor.

Reference array math only.  A length-c descriptor is split into m groups of
c/m channels; each group's map turns the whole descriptor into that group's
logits, and the softmax is taken within the group.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupingError, ShapeError, finite_array


def group_softmax(w, per_group_maps) -> np.ndarray:
    """Map the descriptor to one softmax distribution per group.

    Each of the m maps is a finite (c/m, c) matrix producing that group's
    logits from the finite length-c descriptor, c >= 1; the softmax is taken
    within the group.  Returns the (m, c/m) weights, each row summing to 1;
    raises ShapeError when a value is not finite (an int past the float
    range included) or a logit overflows.
    """
    w = finite_array(w, ShapeError, "non-finite descriptor values")
    if w.ndim != 1:
        raise ShapeError(f"descriptor must be a vector, got shape {w.shape}")
    if w.size == 0:
        raise ShapeError("descriptor is empty: need at least one channel")
    maps = [finite_array(mp, ShapeError, "non-finite group map values") for mp in per_group_maps]
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
        with np.errstate(over="ignore", invalid="ignore"):
            logits = finite_array(mp @ w, ShapeError, "non-finite group logit values")
            # Shift by the max so exp cannot overflow; a spread past the float
            # range shifts to -inf, whose exp is the exact 0.
            logits = logits - logits.max()
        e = np.exp(logits)
        rows.append(e / e.sum())
    return np.stack(rows)
