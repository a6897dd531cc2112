"""Polar evaluation of a box's inscribed ellipse.

A box's discrete radial profile is radius_at(box, grid_angles(n)).
"""

from __future__ import annotations

import functools
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


# The last few profiles built on the shared grid.  A fit needs its fixed
# target plus the current and the candidate prediction; a batch pair needs
# its two boxes.
PROFILE_SLOTS = 3

# (grid, ((key, profile), ...)), most recently used first.  The grid and its
# entries are swapped in as one tuple, so an entry is only ever read beside
# the grid it was built on; _grid starts an empty one for each new grid.
# Threads swapping at once may drop each other's entries, which costs a
# rebuild, never a profile of the wrong grid.
_kept = (None, ())
# Requests served from _kept, and profiles built on the shared grid; counted
# without a lock, so concurrent threads may lose an increment.
_kept_hits = 0
_kept_misses = 0


def _profile_terms(box: OrientedBox, theta, trig: bool = True):
    """radius_at's rho, plus the cos(t), sin(t), (r2 cos t)^2, (r1 sin t)^2
    and their sum denom at t = theta - phi that the loss gradient reuses.

    theta is a float64 array with at least one dimension.  On the shared
    grid of grid_angles the last PROFILE_SLOTS profiles are kept, keyed on
    (r1, r2, phi), and returned again as read-only arrays; for any other
    theta every returned array is new, so the caller may write into it.
    With trig=False a circle skips the trig and gets None for all five.
    """
    global _kept, _kept_hits, _kept_misses
    check_extents("a radial profile", box)
    grid, entries = _kept
    if theta is not grid:
        return _build_profile(box, theta, trig)
    key = (box.r1, box.r2, box.phi)
    for i, entry in enumerate(entries):
        # An entry built without trig does not serve a request for it.
        if entry[0] == key and not (trig and entry[1][1] is None):
            _kept_hits += 1
            _kept = (grid, (entry,) + entries[:i] + entries[i + 1:])
            return entry[1]
    _kept_misses += 1
    profile = _build_profile(box, theta, trig)
    for array in profile:
        if array is not None:
            array.setflags(write=False)
    # A circle's entry with trig replaces the one without.
    rest = tuple(entry for entry in entries if entry[0] != key)
    _kept = (grid, ((key, profile),) + rest[:PROFILE_SLOTS - 1])
    return profile


def _build_profile(box: OrientedBox, theta, trig: bool):
    t = theta - box.phi
    # A circle's radius is the same at every angle; the trig form would add
    # phi-dependent rounding, so equal circles would get profiles that differ
    # in the last bit.
    circle = box.r1 == box.r2
    c = s = rc2 = rs2 = denom = None
    if trig or not circle:
        c = np.cos(t)
        s = np.sin(t)
        # Squared in place: (r2 c)^2 and (r1 s)^2 with no temporary.
        rc2 = np.multiply(c, box.r2)
        rc2 *= rc2
        rs2 = np.multiply(s, box.r1)
        rs2 *= rs2
        denom = rc2 + rs2
    if circle:
        rho = np.full(t.shape, box.r1)
    else:
        # r1 r2 / sqrt(denom), written over t, which is no longer needed.
        rho = np.sqrt(denom, out=t)
        np.divide(box.r1 * box.r2, rho, out=rho)
    return rho, c, s, rc2, rs2, denom


def radius_at(box: OrientedBox, theta):
    """Polar radius of the box's inscribed ellipse at angle theta, about the center.

    rho(theta) = r1*r2 / sqrt(r2^2 cos^2(theta - phi) + r1^2 sin^2(theta - phi)),
    so the point (rho cos theta, rho sin theta) relative to the center lies on
    the ellipse with semi-axes (r1, r2) rotated by phi; a circle's radius is
    r1 exactly.  Accepts a scalar, which gives a float, or an array of
    angles, which gives a new array.  InvalidBoxError when a half-extent
    lies outside [MIN_EXTENT, MAX_EXTENT].
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 0:
        return float(_profile_terms(box, theta.reshape(1), trig=False)[0][0])
    rho = _profile_terms(box, theta, trig=False)[0]
    # A kept profile is read-only and shared; the caller gets its own copy.
    return rho if rho.flags.writeable else rho.copy()


def grid_angles(n: int) -> np.ndarray:
    """The shared discretization grid theta_i = 2*pi*i/n for i in [0, n);
    DiscretizationError when n is not a whole number, below MIN_GRID_ANGLES,
    or when the grid cannot be allocated.

    The grid is read-only and shared: the last one built is kept, and a
    call with the same n (720.0 counts as 720) returns that same array.
    Copy it to modify it.  Profiles built on it are kept until another n
    replaces it (see _profile_terms).
    """
    # The range test comes first: int() of a NaN or an infinity raises.
    if not (MIN_GRID_ANGLES <= n < math.inf and n == int(n)):
        raise DiscretizationError(
            f"need a whole number of at least {MIN_GRID_ANGLES} grid angles, got n={n}")
    return _grid(int(n))


# The last grid is kept: fits and batches ask for one n again and again.
# Keyed on a plain int, so a whole float n shares the int's entry.
@functools.lru_cache(maxsize=1)
def _grid(n: int) -> np.ndarray:
    global _kept
    if n <= _MAX_GRID_ANGLES:
        try:
            grid = np.arange(n) * (2.0 * math.pi / n)
        except MemoryError:
            pass
        else:
            grid.setflags(write=False)
            # The profiles kept for the previous grid go with it.
            _kept = (grid, ())
            return grid
    raise DiscretizationError(f"cannot allocate a grid of n={n} angles")
