"""Polar evaluation of a box's inscribed ellipse.

A box's discrete radial profile is radius_at(box, grid_angles(n)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .boxes import OrientedBox
from .errors import DiscretizationError, InvalidBoxError, finite_array, short_int

MIN_GRID_ANGLES = 4
# Past intp's byte range numpy gives ValueError or an empty array, not MemoryError.
_MAX_GRID_ANGLES = np.iinfo(np.intp).max // 8

# Half-extents a profile, and a pair whose overlap exact_rect_iou computes,
# accept.  Inside the range the gradient's products of three extents and the
# overlap's products of two stay normal floats; past it jiou_gradient turns
# NaN or a silent 0.0, and the overlap drifts, reads 0 or 1, or divides by zero.
MIN_EXTENT = 1e-100
MAX_EXTENT = 1e100


def check_extents(use: str, *boxes: OrientedBox) -> None:
    """InvalidBoxError naming use when a half-extent lies outside [MIN_EXTENT, MAX_EXTENT]."""
    for box in boxes:
        if not (MIN_EXTENT <= box.r1 <= MAX_EXTENT and MIN_EXTENT <= box.r2 <= MAX_EXTENT):
            raise InvalidBoxError(
                f"half-extents must lie in [{MIN_EXTENT:g}, {MAX_EXTENT:g}] for {use}, "
                f"got r1={box.r1}, r2={box.r2}")


# The last profiles built on the shared grid.  A batch pair needs its two
# boxes; a fit evaluation needs the fixed target and the new candidate, and
# never asks for an earlier state's profile again.
PROFILE_SLOTS = 2

# The grid that _grid built last, the one _profile_terms looks profiles up for;
# before the first grid, a placeholder that no caller can pass as theta.
_shared_grid = object()


def _profile_terms(box: OrientedBox, theta):
    """radius_at's rho, plus the cos(t), sin(t), (r2 cos t)^2, (r1 sin t)^2
    and their sum denom at t = theta - phi that the loss gradient reuses.

    theta is a float64 array with at least one dimension.  On the shared
    grid of grid_angles the profile comes from _kept_profile, as read-only
    arrays; for any other theta every returned array is new, so the caller
    may write into it.
    """
    check_extents("a radial profile", box)
    if theta is _shared_grid:
        return _kept_profile(box.r1, box.r2, box.phi, theta.size)
    return _build_profile(box.r1, box.r2, box.phi, theta)


# Keyed on n, not on the grid object: a profile is always built on a grid of
# its own n, with the same bits, so switching n needs no emptying.
@functools.lru_cache(maxsize=PROFILE_SLOTS)
def _kept_profile(r1: float, r2: float, phi: float, n: int):
    profile = _build_profile(r1, r2, phi, _grid(n))
    for array in profile:
        array.setflags(write=False)
    return profile


def _build_profile(r1: float, r2: float, phi: float, theta):
    t = theta - phi
    c = np.cos(t)
    s = np.sin(t)
    # Squared in place: (r2 c)^2 and (r1 s)^2 with no temporary.
    rc2 = np.multiply(c, r2)
    rc2 *= rc2
    rs2 = np.multiply(s, r1)
    rs2 *= rs2
    denom = rc2 + rs2
    if r1 == r2:
        rho = np.full(t.shape, r1)
    else:
        # r1 r2 / sqrt(denom), written over t, which is no longer needed.
        rho = np.sqrt(denom, out=t)
        np.divide(r1 * r2, rho, out=rho)
    return rho, c, s, rc2, rs2, denom


def radius_at(box: OrientedBox, theta):
    """Polar radius of the box's inscribed ellipse at angle theta, about the center.

    rho(theta) = r1*r2 / sqrt(r2^2 cos^2(theta - phi) + r1^2 sin^2(theta - phi)),
    so the point (rho cos theta, rho sin theta) relative to the center lies on
    the ellipse with semi-axes (r1, r2) rotated by phi.  A circle's radius is
    r1 exactly, with no trig: the trig form would add phi-dependent rounding,
    so equal circles would get profiles that differ in the last bit.
    Accepts a scalar, which gives a float, or an array of angles, which
    gives a new array.  ValueError naming the first angle that is NaN,
    infinite or an int past the float range (in short form); InvalidBoxError
    when a half-extent lies outside [MIN_EXTENT, MAX_EXTENT].
    """
    # The shared grid is float64 and finite by construction.
    if theta is not _shared_grid:
        theta = finite_array(theta, ValueError, "theta must be finite angles, got {}")
    if box.r1 == box.r2:
        check_extents("a radial profile", box)
        rho = np.full(theta.shape, box.r1)
    else:
        rho = _profile_terms(box, theta.reshape(1) if theta.ndim == 0 else theta)[0]
        # A kept profile is read-only and shared; the caller gets its own copy.
        if not rho.flags.writeable:
            rho = rho.copy()
    return rho.item() if theta.ndim == 0 else rho


def grid_angles(n: int) -> np.ndarray:
    """The shared discretization grid theta_i = 2*pi*i/n for i in [0, n);
    DiscretizationError when n is not a whole number, below MIN_GRID_ANGLES,
    or when the grid cannot be allocated.

    The grid is read-only and shared: the last one built is kept, and a
    call with the same n (720.0 counts as 720) returns that same array.
    Copy it to modify it.  The last PROFILE_SLOTS profiles built on it are
    kept until newer ones push them out (see _kept_profile).
    """
    # The range test comes first: int() of a NaN or an infinity raises.
    if not (MIN_GRID_ANGLES <= n < math.inf and n == int(n)):
        raise DiscretizationError(
            f"need a whole number of at least {MIN_GRID_ANGLES} grid angles, got n={short_int(n)}")
    return _grid(int(n))


# The last grid is kept: fits and batches ask for one n again and again.
# Keyed on a plain int, so a whole float n shares the int's entry.
@functools.lru_cache(maxsize=1)
def _grid(n: int) -> np.ndarray:
    global _shared_grid
    if n <= _MAX_GRID_ANGLES:
        try:
            grid = np.arange(n) * (2.0 * math.pi / n)
        except MemoryError:
            pass
        else:
            grid.setflags(write=False)
            _shared_grid = grid
            return grid
    raise DiscretizationError(f"cannot allocate a grid of n={short_int(n)} angles")
