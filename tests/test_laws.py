"""Laws of the discrete polar ratio that hold at every grid size n and do
not depend on how the kernel rounds: the accuracy gate for any change of the
ratio's or the gradient's low bits.

- 1 - ratio is the weighted Jaccard (Ruzicka) distance between the two
  profiles' rho^2 vectors, a metric (Kosub, arXiv:1612.02696), so it obeys
  the triangle inequality up to a stated rounding slack.
- Scaling both boxes' extents by 2^k scales every rho by exactly 2^k, so
  the ratio and d_phi keep their bits, and d_r1 and d_r2 are divided by
  exactly 2^k.
- Identical profiles give ratio 1.0 and the gradient (+0.0, +0.0, +0.0):
  every angle ties and counts toward both sums.
- corners_to_box commutes with scaling a quad by 2^k: it gives the same
  verdict, and a fitted box whose center and extents scale exactly and
  whose angle keeps its bits.  So it recovers a box decoded at any scale
  in the extent range, within bounds set by the aspect ratio alone.

Not a law at finite n: monotonicity of the ratio in the angle between two
boxes.  On the sampled grid the ratio ripples as the profiles' crossings
move between grid angles, and it does rise over some angle steps at n = 16,
64 and 720, so it must not be added here as a test.
"""

import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import boxes, finite_floats
from polarjiou import (OrientedBox, batch_jiou, canonicalize, corners_to_box, decode_corners,
                       jiou_bar, jiou_gradient, phi_distance)
from polarjiou.boxes import HALF_PI
from polarjiou.errors import DegenerateQuadError
from polarjiou.polar import MAX_EXTENT, MIN_EXTENT

EPS = np.finfo(np.float64).eps

# Rounding slack of the triangle inequality on distances in [0, 1]: each
# distance is 1 - s_min / s_max, whose two sums and division round to a
# few ulps of 1.
TRIANGLE_SLACK = 8 * EPS

GRID_SIZES = st.sampled_from([4, 16, 64, 720])


def distance(a, b, n):
    return 1.0 - jiou_bar(a, b, n).ratio


def between(a, c, t):
    """The box whose extents and angle lie the fraction t of the way from a to c."""
    return OrientedBox(0.0, 0.0, a.r1 + t * (c.r1 - a.r1), a.r2 + t * (c.r2 - a.r2),
                       a.phi + t * (c.phi - a.phi))


def scaled(box, k):
    return OrientedBox(box.cx, box.cy, math.ldexp(box.r1, k), math.ldexp(box.r2, k), box.phi)


def is_plus_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


@given(boxes(), boxes(), boxes(), GRID_SIZES)
@settings(max_examples=300)
def test_triangle_inequality(a, b, c, n):
    assert distance(a, c, n) <= distance(a, b, n) + distance(b, c, n) + TRIANGLE_SLACK


@given(boxes(), boxes(), finite_floats(0.0, 1.0), GRID_SIZES)
@settings(max_examples=300)
# The middle box equal to an end, so one distance is exactly 0.
@example(OrientedBox(0, 0, 5, 2, 0.3), OrientedBox(0, 0, 4, 3, 1.2), 0.0, 720)
def test_triangle_inequality_near_collinear(a, c, t, n):
    """The middle box lies between the other two in extent and angle, where
    the inequality is closest to an equality."""
    b = between(a, c, t)
    assert distance(a, c, n) <= distance(a, b, n) + distance(b, c, n) + TRIANGLE_SLACK


@given(boxes(), boxes(), st.integers(-20, 19), GRID_SIZES)
@settings(max_examples=200)
# A subnormal phi: its turn of the grid table's exact zeros would be a
# subnormal cos, whose products with the gradient's weights round
# differently at each scale.
@example(OrientedBox(0, 0, 1, 2, 2.225073858507203e-309), OrientedBox(0, 0, 1, 1, 0), 1, 4)
def test_power_of_two_scale_invariance(a, b, k, n):
    value, g = jiou_bar(a, b, n), jiou_gradient(a, b, n)
    sa, sb = scaled(a, k), scaled(b, k)
    scaled_value, gs = jiou_bar(sa, sb, n), jiou_gradient(sa, sb, n)
    assert scaled_value.ratio == value.ratio
    assert gs.d_phi == g.d_phi
    assert (gs.d_r1, gs.d_r2) == (math.ldexp(g.d_r1, -k), math.ldexp(g.d_r2, -k))


@given(boxes(), finite_floats(-100.0, 100.0), finite_floats(-100.0, 100.0), GRID_SIZES)
# A circle, and a box whose r1 - r2 rounds to a tiny difference.
@example(OrientedBox(0, 0, 3, 3, 0.7), 1.0, -2.0, 720)
@example(OrientedBox(0, 0, 0.1, 0.10000000000000002, -2.0), 0.0, 0.0, 64)
def test_identical_profiles_are_an_exact_stationary_point(box, dx, dy, n):
    """A box against itself or a translated copy (centers do not enter the
    profile): ratio 1.0, loss 0.0 and each gradient component +0.0."""
    for other in (box, OrientedBox(box.cx + dx, box.cy + dy, box.r1, box.r2, box.phi)):
        value = jiou_bar(box, other, n)
        g = jiou_gradient(box, other, n)
        assert value.ratio == 1.0 and is_plus_zero(value.loss)
        assert all(map(is_plus_zero, (g.d_phi, g.d_r1, g.d_r2))), g
        mean, values, grads = batch_jiou([box, other], [other, box], n)
        assert is_plus_zero(mean) and values == [value, value]
        assert all(is_plus_zero(x) for grad in grads for x in (grad.d_phi, grad.d_r1, grad.d_r2))


# Binary exponents every nonzero corner coordinate keeps at both scales of
# the quad scaling law: from 2**-960 every difference of two coordinates is
# a normal float or 0, and below 2**1020 the sum of four does not overflow.
QUAD_EXPONENTS = (-959, 1020)


@st.composite
def scaled_quads(draw):
    """(quad, k): a box's decoded corners plus jitter, at any scale and
    aspect ratio up to 1e14, and a power of two that keeps every nonzero
    coordinate within QUAD_EXPONENTS."""
    r1 = math.ldexp(draw(finite_floats(1.0, 2.0)), draw(st.integers(-900, 900)))
    r2 = r1 / 10.0 ** draw(finite_floats(0.0, 14.0))
    cx, cy = (r1 * draw(finite_floats(-8.0, 8.0)) for _ in range(2))
    box = OrientedBox(cx, cy, r1, r2, draw(finite_floats(-4.0, 4.0)))
    jitter = r2 * draw(st.sampled_from([0.0, 1e-6, 0.05, 0.5, 2.0]))
    quad = decode_corners(box) + jitter * np.array(
        draw(st.lists(finite_floats(-1.0, 1.0), min_size=8, max_size=8))).reshape(4, 2)
    exponents = [math.frexp(v)[1] for v in quad.ravel().tolist() if v != 0.0]
    lo, hi = QUAD_EXPONENTS
    assume(lo <= min(exponents) and max(exponents) <= hi)
    return quad, draw(st.integers(lo - min(exponents), hi - max(exponents)))


def fit_verdict(quad):
    """corners_to_box's fitted box and its warning count, or its error text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.simplefilter("always", UserWarning)
        try:
            return corners_to_box(quad), len(caught)
        except DegenerateQuadError as exc:
            return str(exc), None


@given(scaled_quads())
@settings(max_examples=500)
# A 2e-7 square, which an absolute area floor of 1e-12 rejects at scale 1,
# and two quads of (near-)zero area: collinear, and axes 1e-13 rad apart.
@example((np.array([(0.0, 0.0), (2e-7, 0.0), (2e-7, 2e-7), (0.0, 2e-7)]), 40))
@example((np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (1.0, 1.0)]) * 1e-250, 1500))
@example((np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-13), (1.0, 1e-13)]), 40))
def test_corners_to_box_commutes_with_power_of_two_scaling(case):
    quad, k = case
    box, warned = fit_verdict(quad)
    scaled_box, scaled_warned = fit_verdict(np.ldexp(quad, k))
    if isinstance(box, str):
        assert scaled_box == box
        return
    assert scaled_warned == warned
    assert (scaled_box.cx, scaled_box.cy, scaled_box.r1, scaled_box.r2) == tuple(
        math.ldexp(v, k) for v in (box.cx, box.cy, box.r1, box.r2))
    assert scaled_box.phi == box.phi


# Bounds of the decoded-box recovery below, in units of EPS: the center
# against r1, r1 against itself, r2 against r1 (eps times the aspect ratio
# of r2) and the angle.  The largest errors seen over 2e5 seeded boxes were
# 0.31, 1.39, 1.38 and 1.5.
RECOVERY_BOUNDS = (1.0, 2.0, 2.0, 2.0)


def assert_recovered(box):
    """corners_to_box(decode_corners(box)) is box's canonical form within
    RECOVERY_BOUNDS; a box whose extents round alike may come back with its
    axes swapped, its angle a quarter turn off."""
    want = canonicalize(box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = corners_to_box(decode_corners(box))
    center, r1, r2, phi = (bound * EPS for bound in RECOVERY_BOUNDS)
    assert max(abs(got.cx - want.cx), abs(got.cy - want.cy)) <= center * want.r1
    assert abs(got.r1 - want.r1) <= r1 * want.r1
    assert abs(got.r2 - want.r2) <= r2 * want.r1
    turns = [want.phi, want.phi + HALF_PI] if want.r1 - want.r2 <= r1 * want.r1 else [want.phi]
    assert min(phi_distance(got.phi, turn) for turn in turns) <= phi


@given(finite_floats(0.0, 11.0), finite_floats(0.0, 1.0), finite_floats(-4.0, 4.0))
@settings(max_examples=500)
@example(11.0, 0.0, 0.3)
@example(11.0, 1.0, 0.3)
def test_decoded_boxes_are_recovered_at_every_scale(log_ar, place, phi):
    """Origin-centred boxes with extents in [MIN_EXTENT, MAX_EXTENT] and
    aspect ratio up to 1e11 (10**log_ar), r2 placed at the fraction place
    of the exponent range the ratio leaves."""
    lo, hi = math.log10(MIN_EXTENT), math.log10(MAX_EXTENT) - log_ar
    r2 = max(10.0 ** (lo + place * (hi - lo)), MIN_EXTENT)
    assert_recovered(OrientedBox(0.0, 0.0, min(r2 * 10.0 ** log_ar, MAX_EXTENT), r2, phi))


def test_small_boxes_fit():
    """Decoded corners of small valid boxes fit: their areas, 4e-14 and
    4e-13, lie below an absolute floor of 1e-12."""
    assert_recovered(OrientedBox(0, 0, 1e-7, 1e-7, 0))
    assert_recovered(OrientedBox(0, 0, 1e-5, 1e-8, 0.3))
