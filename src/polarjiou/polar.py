"""Polar evaluation of a box's inscribed ellipse and its discrete radial profile."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBox
from .errors import DiscretizationError

MIN_GRID_ANGLES = 4


def _profile_terms(box: OrientedBox, theta, trig: bool = True):
    """radius_at's rho, plus the cos(t), sin(t) and (r2 cos t)^2 + (r1 sin t)^2
    at t = theta - phi that the loss gradient reuses.

    With trig=False a circle skips the trig and gets None for all three.
    """
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
    r1 exactly.  Accepts a scalar or an array of angles.
    """
    rho = _profile_terms(box, theta, trig=False)[0]
    return float(rho) if rho.ndim == 0 else rho


def grid_angles(n: int) -> np.ndarray:
    """The shared discretization grid theta_i = 2*pi*i/n for i in [0, n)."""
    if n < MIN_GRID_ANGLES:
        raise DiscretizationError(f"need at least {MIN_GRID_ANGLES} grid angles, got n={n}")
    return np.arange(n) * (2.0 * math.pi / n)


@dataclass(frozen=True)
class RadialProfile:
    """Inscribed-ellipse radii sampled on the even angle grid theta_i = 2*pi*i/n."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        if self.n < MIN_GRID_ANGLES:
            raise DiscretizationError(
                f"need at least {MIN_GRID_ANGLES} grid angles, got n={self.n}")
        arr = np.array(self.rho, dtype=np.float64)
        if arr.shape != (self.n,):
            raise DiscretizationError(
                f"profile shape {arr.shape} does not match n={self.n}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)

    @property
    def theta(self) -> np.ndarray:
        return grid_angles(self.n)


def discretize(box: OrientedBox, n: int) -> RadialProfile:
    """Sample the inscribed ellipse's polar radius at each of the n grid angles."""
    return RadialProfile(n, radius_at(box, grid_angles(n)))
