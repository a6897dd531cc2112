"""Discrete polar IoU ratio, its negative-log loss, and analytic gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import boxes, fd_gradient, fd_suite, finite_floats, random_box, reference_jiou
from polarjiou import (
    OrientedBox,
    batch_jiou,
    grid_angles,
    jiou_bar,
    jiou_gradient,
    mc_ellipse_iou,
    radius_at,
)
from polarjiou.errors import DiscretizationError, EmptyBatchError, InvalidBoxError, ShapeError


class TestJiouBar:
    def test_identical_boxes(self):
        box = OrientedBox(3, 4, 5, 2, 0.3)
        value = jiou_bar(box, box, 720)
        assert value.ratio == 1.0
        assert value.loss == 0.0
        assert math.copysign(1.0, value.loss) == 1.0  # plain zero, not -0.0

    def test_concentric_circles(self):
        """Constant profiles give ratio = (1/2)^2 exactly, loss = ln 4."""
        a = OrientedBox(0, 0, 1, 1, 0)
        b = OrientedBox(0, 0, 2, 2, 0)
        value = jiou_bar(a, b, 64)
        assert value.ratio == 0.25
        assert value.loss == pytest.approx(math.log(4), abs=1e-12)

    def test_cross_pair_matches_monte_carlo(self):
        """The n=720 ratio of a 2:1 cross agrees with a 10^6-sample
        concentric-ellipse estimate within 0.01."""
        a = OrientedBox(0, 0, 2, 1, 0)
        b = OrientedBox(0, 0, 2, 1, math.pi / 2)
        ratio = jiou_bar(a, b, 720).ratio
        estimate, _ = mc_ellipse_iou(a, b, 1_000_000, seed=0)
        assert abs(ratio - estimate) <= 0.01

    @given(boxes(), boxes(), st.sampled_from([4, 16, 720]))
    def test_symmetric(self, a, b, n):
        assert jiou_bar(a, b, n) == jiou_bar(b, a, n)

    @given(boxes(), boxes())
    def test_center_independence(self, a, b):
        """Translating either box changes nothing: only (phi, r1, r2) enter."""
        a0 = OrientedBox(0, 0, a.r1, a.r2, a.phi)
        b0 = OrientedBox(0, 0, b.r1, b.r2, b.phi)
        assert jiou_bar(a, b, 64) == jiou_bar(a0, b0, 64)

    @given(boxes(), boxes(), finite_floats(0.1, 8.0))
    def test_scale_invariance(self, a, b, s):
        base = jiou_bar(a, b, 64).ratio
        sa = OrientedBox(a.cx, a.cy, a.r1 * s, a.r2 * s, a.phi)
        sb = OrientedBox(b.cx, b.cy, b.r1 * s, b.r2 * s, b.phi)
        assert jiou_bar(sa, sb, 64).ratio == pytest.approx(base, abs=1e-12)

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_ratio_range(self, a, b):
        value = jiou_bar(a, b, 64)
        assert 0.0 < value.ratio <= 1.0
        assert value.loss >= 0.0

    @given(boxes(), boxes())
    # Equal circles that differ only in phi; a circle against an ellipse one
    # ulp away, whose squared sums round to the same float.
    @example(OrientedBox(0, 0, 1, 1, 0.0), OrientedBox(0, 0, 1, 1, 1.0))
    @example(OrientedBox(0, 0, 0.1, 0.1, 0.0), OrientedBox(0, 0, 0.1, 0.10000000000000002, 0.0))
    def test_ratio_one_iff_profiles_match(self, a, b):
        value = jiou_bar(a, b, 64)
        thetas = grid_angles(64)
        same = np.array_equal(radius_at(a, thetas), radius_at(b, thetas))
        assert (value.ratio == 1.0) == same

    @given(boxes(), boxes(), st.sampled_from([-2, -1, 1, 2]))
    def test_angle_pi_periodicity(self, a, b, k):
        """Shifting the predicted angle by k*pi leaves the loss unchanged."""
        shifted = OrientedBox(a.cx, a.cy, a.r1, a.r2, a.phi + k * math.pi)
        base = jiou_bar(a, b, 720).loss
        assert jiou_bar(shifted, b, 720).loss == pytest.approx(base, abs=1e-12)

    @given(boxes(), boxes())
    def test_swap_equivalence(self, a, b):
        """(r1, r2, phi) and (r2, r1, phi + pi/2) describe the same profile."""
        swapped = OrientedBox(a.cx, a.cy, a.r2, a.r1, a.phi + math.pi / 2)
        base = jiou_bar(a, b, 720).loss
        assert jiou_bar(swapped, b, 720).loss == pytest.approx(base, abs=1e-12)

    def test_discretization_converges_on_fixed_pair(self):
        """|ratio(n) - ratio(8192)| shrinks monotonically for the 2:1 cross."""
        a = OrientedBox(0, 0, 2, 1, 0)
        b = OrientedBox(0, 0, 2, 1, math.pi / 2)
        ref = jiou_bar(a, b, 8192).ratio
        devs = [abs(jiou_bar(a, b, n).ratio - ref) for n in (16, 64, 256, 1024)]
        assert all(d1 >= d2 for d1, d2 in zip(devs, devs[1:]))

    def test_rejects_small_n(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        with pytest.raises(DiscretizationError):
            jiou_bar(box, box, 3)


class TestJiouGradient:
    def test_identical_boxes_are_stationary(self):
        """Ties route into both sums, so identical profiles give an exactly
        zero gradient at the loss minimum."""
        box = OrientedBox(0, 0, 5, 2, 0.3)
        g = jiou_gradient(box, box, 720)
        assert abs(g.d_phi) <= 1e-9
        assert abs(g.d_r1) <= 1e-9
        assert abs(g.d_r2) <= 1e-9

    def test_small_circle_wants_to_grow(self):
        """Predicting a circle inside a bigger target, the radius gradients
        are negative (descent grows the prediction)."""
        g = jiou_gradient(OrientedBox(0, 0, 1, 1, 0), OrientedBox(0, 0, 2, 2, 0), 64)
        assert g.d_r1 < 0 and g.d_r2 < 0
        assert abs(g.d_phi) <= 1e-12

    def test_finite_difference_sample(self):
        """Analytic partials match central differences on a frozen non-tie
        sample (the full 100-pair suite runs in the acceptance gate)."""
        for pred, target in fd_suite(count=20, seed=42):
            g = jiou_gradient(pred, target, 720)
            analytic = np.array([g.d_phi, g.d_r1, g.d_r2])
            numeric = fd_gradient(pred, target, 720, h=1e-5)
            rel = np.abs(analytic - numeric) / np.abs(numeric)
            assert rel.max() <= 1e-4

    @given(boxes(), boxes())
    def test_gradient_finite(self, a, b):
        g = jiou_gradient(a, b, 64)
        assert all(math.isfinite(v) for v in (g.d_phi, g.d_r1, g.d_r2))

    @pytest.mark.parametrize("k", [1e103, 1e-120])
    def test_pair_off_the_extent_range_rejected(self, k):
        """Past the supported extents the gradient overflows to NaN (1e103)
        or underflows to a silent 0.0 (1e-120) while the ratio is still
        finite, so either box out of range raises instead."""
        off_a = OrientedBox(0, 0, 2 * k, k, 0.3)
        off_b = OrientedBox(0, 0, 1.5 * k, k, -0.2)
        inside = OrientedBox(0, 0, 2, 1, 0.3)
        for pred, target in ((off_a, off_b), (off_a, inside), (inside, off_b)):
            with pytest.raises(InvalidBoxError, match="half-extents must lie in"):
                jiou_bar(pred, target, 720)
            with pytest.raises(InvalidBoxError, match="half-extents must lie in"):
                jiou_gradient(pred, target, 720)

    def test_power_of_two_scaling_is_exact(self):
        """Scaling both boxes by 2^+-330 keeps the ratio and d_phi bit for bit
        and scales d_r1, d_r2 by exactly 2^-+330.  Extents in [0.25, 0.45]
        keep both scalings inside the supported range."""
        rng = np.random.default_rng(3)
        for i in range(300):
            a = random_box(rng, min_r=0.25, max_r=0.45)
            b = random_box(rng, min_r=0.25, max_r=0.45)
            n = (16, 64, 720)[i % 3]
            value, g = jiou_bar(a, b, n), jiou_gradient(a, b, n)
            for e in (330, -330):
                sa, sb = (OrientedBox(x.cx, x.cy, math.ldexp(x.r1, e), math.ldexp(x.r2, e), x.phi)
                          for x in (a, b))
                scaled, gs = jiou_bar(sa, sb, n), jiou_gradient(sa, sb, n)
                assert (scaled.ratio, gs.d_phi) == (value.ratio, g.d_phi), (a, b, n, e)
                assert (gs.d_r1, gs.d_r2) == (math.ldexp(g.d_r1, -e),
                                              math.ldexp(g.d_r2, -e)), (a, b, n, e)


def test_matches_frozen_reference():
    """jiou_bar and jiou_gradient keep the bits of the inline profile and the
    per-function min/max sums they replaced, on seeded pairs of every kind the
    profile code branches on: ellipses, equal and unequal circles, a circle
    against an ellipse, identical boxes (every angle a tie), and a copy turned
    by pi (profiles equal up to rounding)."""
    rng = np.random.default_rng(11)
    for i in range(600):
        a = random_box(rng)
        kind = i % 6
        if kind == 0:
            b = random_box(rng)
        elif kind in (1, 2):
            a = OrientedBox(a.cx, a.cy, a.r1, a.r1, a.phi)
            r = a.r1 if kind == 1 else rng.uniform(0.5, 30.0)
            b = OrientedBox(a.cx, a.cy, r, r, rng.uniform(-7.0, 7.0))
        elif kind == 3:
            b = OrientedBox(a.cx, a.cy, a.r2, a.r2, a.phi)
        elif kind == 4:
            b = OrientedBox(a.cx + 1.0, a.cy, a.r1, a.r2, a.phi)
        else:
            b = OrientedBox(a.cx, a.cy, a.r1, a.r2, a.phi + math.pi)
        n = (16, 64, 720)[i % 3]
        ratio, loss, grad = reference_jiou(a, b, n)
        value = jiou_bar(a, b, n)
        g = jiou_gradient(a, b, n)
        assert (value.ratio, value.loss) == (ratio, loss), (a, b, n)
        assert (g.d_phi, g.d_r1, g.d_r2) == grad, (a, b, n)


class TestBatchJiou:
    def test_identical_pairs_mean_zero(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        mean, values, grads = batch_jiou([box, box], [box, box], 64)
        assert mean == 0.0
        assert len(values) == len(grads) == 2

    def test_singleton_equals_pairwise_call(self):
        a = OrientedBox(0, 0, 2, 1, 0.2)
        b = OrientedBox(0, 0, 3, 1, -0.4)
        mean, values, _ = batch_jiou([a], [b], 720)
        assert mean == jiou_bar(a, b, 720).loss
        assert values[0] == jiou_bar(a, b, 720)

    def test_mean_of_mixed_pairs(self):
        """Identical pair plus the 1-vs-2 circles pair averages to ln(4)/2."""
        box = OrientedBox(0, 0, 2, 1, 0)
        c1 = OrientedBox(0, 0, 1, 1, 0)
        c2 = OrientedBox(0, 0, 2, 2, 0)
        mean, _, _ = batch_jiou([box, c1], [box, c2], 64)
        assert mean == pytest.approx(math.log(4) / 2, abs=1e-12)

    def test_mean_matches_elementwise(self):
        rng = np.random.default_rng(9)
        preds = [random_box(rng) for _ in range(5)]
        targets = [random_box(rng) for _ in range(5)]
        mean, values, _ = batch_jiou(preds, targets, 64)
        assert mean == pytest.approx(
            sum(v.loss for v in values) / 5, abs=1e-15)

    def test_length_mismatch(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        with pytest.raises(ShapeError):
            batch_jiou([box, box], [box], 64)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            batch_jiou([], [], 64)
