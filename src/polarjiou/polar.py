"""Polar evaluation of a box's inscribed ellipse.

A box's discrete radial profile is radius_at(box, grid_angles(n)).

On the grid, and on any array equal to it, a profile takes no array trig:
cos and sin of theta_i - phi come from a table of cos theta_i and sin
theta_i, built once per n, turned by phi,

    cos(theta - phi) = cos theta cos phi + sin theta sin phi,
    sin(theta - phi) = sin theta cos phi - cos theta sin phi,

with math.cos and math.sin of phi taken once per box.  Each table entry is
the cos and sin of an angle in the first octant, placed by the exact
symmetries of the circle, so the table is exactly symmetric and within
about an ulp of the true values.  A phi with |sin phi| < TINY_SIN turns
nothing (sin phi reads as 0): a subnormal turn of the table's exact zeros
would put subnormal products into the gradient, where scaling a pair by
2^k no longer scales them exactly.  Any other theta takes np.cos and np.sin
of theta - phi.  Either way rho = r1 * (r2 / sqrt(denom)): the product
r1 * r2 would round once for the whole profile, a systematic error.
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


# Below this |sin phi| reads as 0 (see the module docstring): a turn's
# products with the table's exact zeros stay 0 rather than go subnormal.
TINY_SIN = 2.0 ** -511

# The float nearest pi - math.pi: math.pi + _PI_LO is pi to about 106 bits,
# which the table's first-octant angles are read from.
_PI_LO = 1.2246467991473532e-16

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
    may write into it.  cos(t) and sin(t) are the grid's table turned by
    phi on the grid and on any array equal to it, with the tiny-phi rule of
    the module docstring, and np.cos and np.sin of theta - phi elsewhere;
    rho is r1 * (r2 / sqrt(denom)).
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
    table = _grid_table(theta)
    if table is None:
        buf = theta - phi
        c = np.cos(buf)
        s = np.sin(buf)
    else:
        cos_t, sin_t = table
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        if abs(sin_phi) < TINY_SIN:
            sin_phi = 0.0
        c = np.multiply(cos_t, cos_phi)
        buf = np.multiply(sin_t, sin_phi)
        c += buf
        s = np.multiply(sin_t, cos_phi)
        s -= np.multiply(cos_t, sin_phi, out=buf)
    # Squared in place: (r2 c)^2 and (r1 s)^2 with no temporary.
    rc2 = np.multiply(c, r2)
    rc2 *= rc2
    rs2 = np.multiply(s, r1)
    rs2 *= rs2
    denom = rc2 + rs2
    if r1 == r2:
        rho = np.full(c.shape, r1)
    else:
        # r1 (r2 / sqrt(denom)), written over buf, which is no longer needed.
        rho = np.sqrt(denom, out=buf)
        np.divide(r2, rho, out=rho)
        rho *= r1
    return rho, c, s, rc2, rs2, denom


def radius_at(box: OrientedBox, theta):
    """Polar radius of the box's inscribed ellipse at angle theta, about the center.

    rho(theta) = r1*r2 / sqrt(r2^2 cos^2(theta - phi) + r1^2 sin^2(theta - phi)),
    so the point (rho cos theta, rho sin theta) relative to the center lies on
    the ellipse with semi-axes (r1, r2) rotated by phi.  It is computed as
    r1 * (r2 / sqrt(...)).  On the grid of grid_angles, and on an array
    equal to it, cos and sin of theta - phi come from the grid's cos/sin
    table turned by phi, with no array trig; a phi with |sin phi| <
    TINY_SIN turns nothing.  Other angles take np.cos and np.sin of
    theta - phi.  A circle's radius is r1 exactly, with no trig: the trig
    form would add phi-dependent rounding, so equal circles would get
    profiles that differ in the last bit.
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
    kept until newer ones push them out (see _kept_profile).  Its cos/sin
    table is built at the first profile on it, and kept likewise.
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


def _grid_table(theta):
    """_table(n) when theta is or equals grid_angles(n) for n = theta.size,
    else None.  An equal array is told by its values: no grid is looked up,
    built or dropped for it."""
    n = theta.size
    if theta is not _shared_grid:
        if theta.ndim != 1 or n < MIN_GRID_ANGLES:
            return None
        step = 2.0 * math.pi / n
        # The last angle rules out almost any other array before a full compare.
        if theta[-1] != (n - 1) * step or not np.array_equal(theta, np.arange(n) * step):
            return None
    return _table(n)


# The table of the last n, as the grid of the last n is kept.
@functools.lru_cache(maxsize=1)
def _table(n: int):
    """Read-only cos and sin of the grid angles 2 pi i / n.

    Each angle is (pi/4) (o + r/n) for its octant o and 8 i = o n + r; it
    is read from the first-octant angle (pi/4) k/n, with k = r in even
    octants and n - r in odd ones, and placed by the exact symmetries of
    the circle.  So cos and sin are exactly 0 and +-1 at the quarter turns
    and exactly symmetric elsewhere, and np.cos and np.sin run on the
    n/g + 1 first-octant angles only, g = gcd(8, n): about n/8 of them when
    8 divides n.  Those angles are j * step, step = g pi / (4 n), split as
    j * hi + j * lo, and each cos and sin is that of j * hi corrected to
    first order in j * lo.  Taken from the rounded angle j * step they would
    be off by up to about 2 ulp; corrected, they are within about one.
    """
    octant, r = np.divmod(8 * np.arange(n), n)
    g = math.gcd(8, n)
    k = np.where(octant & 1, n - r, r) // g
    # hi keeps few enough bits that j * hi is exact; lo = step - hi is
    # (arc - hi n) / n, from an exact integer ratio that Python's int
    # division rounds once, plus g _PI_LO / (4 n).
    arc = g * math.pi / 4
    mantissa, exponent = math.frexp(arc / n)
    bits = 53 - (n // g).bit_length()
    hi = math.ldexp(round(math.ldexp(mantissa, bits)), exponent - bits)
    p, q = arc.as_integer_ratio()
    u, v = hi.as_integer_ratio()
    lo = ((p * v - u * n * q) / (q * v) + g * _PI_LO / 4) / n
    j = np.arange(n // g + 1)
    a_hi, a_lo = j * hi, j * lo
    cos_a, sin_a = np.cos(a_hi), np.sin(a_hi)
    cos_a, sin_a = cos_a - a_lo * sin_a, sin_a + a_lo * cos_a
    # The last angle is pi/4, where cos and sin are equal.
    cos_a[-1] = sin_a[-1] = math.sqrt(0.5)
    cos_a, sin_a = cos_a[k], sin_a[k]
    # Octants 1, 2, 5 and 6 swap cos and sin; 2 to 5 negate cos, 4 to 7 sin.
    swap = (octant + 1) & 2 != 0
    cos = np.where(swap, sin_a, cos_a)
    sin = np.where(swap, cos_a, sin_a)
    np.negative(cos, out=cos, where=(octant + 2) & 4 != 0)
    np.negative(sin, out=sin, where=octant & 4 != 0)
    for array in (cos, sin):
        # + 0.0 turns the -0.0 of a negated zero into 0.0.
        array += 0.0
        array.setflags(write=False)
    return cos, sin
