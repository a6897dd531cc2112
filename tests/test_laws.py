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

Not a law at finite n: monotonicity of the ratio in the angle between two
boxes.  On the sampled grid the ratio ripples as the profiles' crossings
move between grid angles, and it does rise over some angle steps at n = 16,
64 and 720, so it must not be added here as a test.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import boxes, finite_floats
from polarjiou import OrientedBox, batch_jiou, jiou_bar, jiou_gradient

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
