"""Polar evaluation of a box's inscribed ellipse.

A box's discrete radial profile is radius_at(box, grid_angles(n)).
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import OrientedBox
from .errors import DiscretizationError, InvalidBoxError

MIN_GRID_ANGLES = 4
# Past intp's byte range numpy gives ValueError or an empty array, not MemoryError.
_MAX_GRID_ANGLES = np.iinfo(np.intp).max // 8

# Half-extents a profile, and a pair that exact_rect_iou clips, accept.
# Inside the range the gradient's products of three extents and clipping's
# products of two stay normal floats; past it jiou_gradient turns NaN or a
# silent 0.0, and clipping drifts, reads 0 or 1, or divides by zero.
MIN_EXTENT = 1e-100
MAX_EXTENT = 1e100


def check_extents(use: str, *boxes: OrientedBox) -> None:
    """InvalidBoxError naming use when a half-extent lies outside [MIN_EXTENT, MAX_EXTENT]."""
    for box in boxes:
        if not (MIN_EXTENT <= box.r1 <= MAX_EXTENT and MIN_EXTENT <= box.r2 <= MAX_EXTENT):
            raise InvalidBoxError(
                f"half-extents must lie in [{MIN_EXTENT:g}, {MAX_EXTENT:g}] for {use}, "
                f"got r1={box.r1}, r2={box.r2}")


def _profile_terms(box: OrientedBox, theta, trig: bool = True):
    """radius_at's rho, plus the cos(t), sin(t) and (r2 cos t)^2 + (r1 sin t)^2
    at t = theta - phi that the loss gradient reuses.

    With trig=False a circle skips the trig and gets None for all three.
    """
    check_extents("a radial profile", box)
    t = np.asarray(theta, dtype=np.float64) - box.phi
    # A circle's radius is the same at every angle; the trig form would add
    # phi-dependent rounding, so equal circles would get profiles that differ
    # in the last bit.
    circle = box.r1 == box.r2
    c = s = denom = None
    if trig or not circle:
        c = np.cos(t)
        s = np.sin(t)
        denom = (box.r2 * c) ** 2 + (box.r1 * s) ** 2
    rho = np.full(t.shape, box.r1) if circle else box.r1 * box.r2 / np.sqrt(denom)
    return rho, c, s, denom


def radius_at(box: OrientedBox, theta):
    """Polar radius of the box's inscribed ellipse at angle theta, about the center.

    rho(theta) = r1*r2 / sqrt(r2^2 cos^2(theta - phi) + r1^2 sin^2(theta - phi)),
    so the point (rho cos theta, rho sin theta) relative to the center lies on
    the ellipse with semi-axes (r1, r2) rotated by phi; a circle's radius is
    r1 exactly.  Accepts a scalar or an array of angles.  InvalidBoxError
    when a half-extent lies outside [MIN_EXTENT, MAX_EXTENT].
    """
    rho = _profile_terms(box, theta, trig=False)[0]
    return float(rho) if rho.ndim == 0 else rho


def grid_angles(n: int) -> np.ndarray:
    """The shared discretization grid theta_i = 2*pi*i/n for i in [0, n);
    DiscretizationError below MIN_GRID_ANGLES or when it cannot be allocated."""
    if n < MIN_GRID_ANGLES:
        raise DiscretizationError(f"need at least {MIN_GRID_ANGLES} grid angles, got n={n}")
    if n <= _MAX_GRID_ANGLES:
        try:
            return np.arange(n) * (2.0 * math.pi / n)
        except MemoryError:
            pass
    raise DiscretizationError(f"cannot allocate a grid of n={n} angles")
