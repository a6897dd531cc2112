"""Discrete polar IoU ratio, its negative-log loss, and analytic gradients."""

import math
import platform
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    boxes,
    fd_gradient,
    fd_suite,
    finite_floats,
    kept_counts,
    longdouble_gradient,
    longdouble_radius,
    longdouble_ratio,
    random_box,
    reference_jiou,
    reference_weight_gradient,
)
from polarjiou import (
    OrientedBox,
    batch_jiou,
    grid_angles,
    jiou_bar,
    jiou_gradient,
    mc_ellipse_iou,
    radius_at,
)
import polarjiou.fitting
from polarjiou import fit_box, loss, polar
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

    def test_circle_prediction_has_plus_zero_d_phi(self):
        """Turning a circle changes nothing, so d_phi is exactly +0.0, never
        the -0.0 that (r1^2 - r2^2) = 0 times a negative sum gives (which
        the CLI would print as d_phi -0), on seeded targets of every shape."""
        rng = np.random.default_rng(37)
        for i in range(2000):
            r = rng.uniform(0.5, 30.0)
            pred = OrientedBox(0.0, 0.0, r, r, rng.uniform(-7.0, 7.0))
            g = jiou_gradient(pred, random_box(rng), (16, 64, 720)[i % 3])
            assert g.d_phi == 0.0 and math.copysign(1.0, g.d_phi) == 1.0, (pred, i)

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

    @pytest.mark.parametrize("pred, target", [
        (OrientedBox(0, 0, 1e100, 1e-100, 0.3), OrientedBox(0, 0, 2, 1, 1.0)),
        (OrientedBox(0, 0, 1e100, 1e-100, 0.3), OrientedBox(0, 0, 1e-100, 1e100, 1.0)),
        (OrientedBox(0, 0, 1e60, 1e-60, 0.3), OrientedBox(0, 0, 1e60, 1e-60, 1.0)),
    ])
    def test_extreme_aspect_ratio_stays_in_range(self, pred, target):
        """At the extent range's largest aspect ratios rho_p^2 / denom leaves
        the float range, but the weight, which divides by denom last, does
        not: the gradient keeps the row form's values instead of a silent
        zero."""
        g = jiou_gradient(pred, target, 720)
        rows = reference_jiou(pred, target, 720)[2]
        err = max(abs(x - y) for x, y in zip((g.d_phi, g.d_r1, g.d_r2), rows))
        assert err <= 1e-12 * max(map(abs, rows))

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


# Bound on the weight-form gradient's distance from the row-form one of
# reference_jiou, in units of EPS times the row form's max-norm, measured on
# the pairs below at numpy 2.4 with the table-form profile: at most 19.7, on
# an ellipse against its inscribed circle at n = 16, and 8.7 on the copies
# turned by pi, whose gradient is rounding noise around zero.  (With the
# profile from np.cos and np.sin of theta - phi it read 13.5 and 82.)
ROW_FORM_BOUND = 24.0


def test_matches_frozen_reference():
    """jiou_bar keeps the bits of the inline table-form profile and the
    per-function min/max sums it replaced, and jiou_gradient those of the
    weight form, on seeded pairs of every kind the profile code branches on:
    ellipses, equal and unequal circles, a circle against an ellipse,
    identical boxes (every angle a tie), and a copy turned by pi (profiles
    equal up to rounding).
    The gradient is numpy's 1-D sums, so it keeps these bits only while
    numpy's reduction order matches the reference's; it also stays within a
    few EPS of the row form it replaced, relative to that gradient's max-norm."""
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
        # Each pair also runs at one grid size past the reductions' blocking.
        for n in ((16, 64, 720)[i % 3], (1001, 8192)[i // 6 % 2]):
            ratio, loss, rows = reference_jiou(a, b, n)
            value = jiou_bar(a, b, n)
            g = jiou_gradient(a, b, n)
            grad = (g.d_phi, g.d_r1, g.d_r2)
            assert (value.ratio, value.loss) == (ratio, loss), (a, b, n)
            assert grad == reference_weight_gradient(a, b, n), (a, b, n)
            err = max(abs(x - y) for x, y in zip(grad, rows))
            assert err <= ROW_FORM_BOUND * EPS * max(map(abs, rows)), (a, b, n)


EPS = np.finfo(np.float64).eps

# Aspect-ratio bands of the yardstick pairs, each with the seed of its pairs.
LONGDOUBLE_BANDS = [((1.0, 20.0), 51), ((20.0, 100.0), 52)]

# Bounds on today's float64 error against the np.longdouble yardstick,
# measured on the seeded pairs below at n = 720 (x86-64 Linux, numpy 2.4):
# the largest relative ratio error is 0.66 * EPS * ar at 1-20 and 0.45 *
# EPS * ar at 20-100.  The largest gradient error, relative to the
# reference's max-norm, is 29 * EPS * ar at 1-20 but 363 * EPS * ar at
# 20-100: it grows with the square of the aspect ratio, 1.7 and 6.9 times
# EPS * ar^2.  ar is the pair's larger aspect ratio.  The gradient's
# largest errors come from small gradients summed from large per-angle
# terms of both signs (at 20-100 the worst is 0.011 from terms whose
# magnitudes add up to 4400), so its bound keeps about 3x headroom for
# numpy builds whose trig rounds differently.
LONGDOUBLE_RATIO_BOUND = 1.0
LONGDOUBLE_GRADIENT_BOUND = 20.0

# The off-grid radius, relative to the np.longdouble one, over 222 seeded
# angles in (-1e3, 1e3) for each box of the pairs below: at most 1.40,
# 0.33 and 0.23 times EPS * ar at aspect ratios 1-20, 20-100 and 100-1e4
# (the box's own ar; x86-64 Linux, numpy 2.4), and within 1.53 at other
# seeds.  Taken from np.cos and np.sin of theta - phi, as polar did before
# its one table form, it read about 125 times EPS * ar in every band: a
# rounded theta - phi at |theta| near 1e3 is off by about 1e3 EPS.
LONGDOUBLE_RADIUS_BOUND = 2.5


def longdouble_pairs(band, seed, count=200):
    """Seeded (pred, target, ar) triples: both boxes' aspect ratios drawn
    from band, any orientation; ar is the larger of the two."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            r2 = rng.uniform(1.0, 10.0)
            pair.append(OrientedBox(0.0, 0.0, r2 * rng.uniform(*band), r2,
                                    rng.uniform(-math.pi / 2, math.pi / 2)))
        triples.append((*pair, max(b.r1 / b.r2 for b in pair)))
    return triples


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason=f"np.longdouble is no wider than float64 on {platform.system()} {platform.machine()}")
class TestLongdoubleYardstick:
    """Today's float64 ratio and gradient against the same formulas in
    np.longdouble (a 64-bit mantissa on x86-64 Linux): the accuracy check
    for any change of their low bits.  The bounds were measured at numpy
    2.4 and must hold at every numpy that pyproject.toml allows, whose
    float64 trig may round differently."""

    def test_longdouble_closed_forms(self):
        """Concentric circles of radii r < R: ratio (r/R)^2, and the loss
        -2 log(r/R) falls by 1/r along each half-extent of the smaller."""
        small, large = OrientedBox(0, 0, 1.5, 1.5, 0.3), OrientedBox(0, 0, 4.0, 4.0, -1.0)
        assert abs(longdouble_ratio(small, large) - np.longdouble(0.140625)) < 1e-18
        d_r = -1 / np.longdouble(1.5)
        assert np.max(np.abs(longdouble_gradient(small, large) - [0.0, d_r, d_r])) < 1e-18

    @pytest.mark.parametrize("band, seed", LONGDOUBLE_BANDS)
    def test_longdouble_ratio_error(self, band, seed):
        for pred, target, ar in longdouble_pairs(band, seed):
            ref = longdouble_ratio(pred, target)
            err = float(abs(np.longdouble(jiou_bar(pred, target).ratio) - ref) / ref)
            assert err <= LONGDOUBLE_RATIO_BOUND * EPS * ar, (pred, target)

    @pytest.mark.parametrize("band, seed", LONGDOUBLE_BANDS + [((100.0, 1e4), 53)])
    def test_longdouble_off_grid_radius_error(self, band, seed):
        """radius_at at angles off the grid: the box turned over np.cos and
        np.sin of theta keeps its accuracy at large angles."""
        rng = np.random.default_rng(seed)
        for pred, target, _ in longdouble_pairs(band, seed):
            for box in (pred, target):
                thetas = rng.uniform(-1e3, 1e3, 222)
                ref = longdouble_radius(box, thetas)
                err = float(np.max(np.abs(radius_at(box, thetas) - ref) / ref))
                assert err <= LONGDOUBLE_RADIUS_BOUND * EPS * box.r1 / box.r2, box

    @pytest.mark.parametrize("band, seed", LONGDOUBLE_BANDS)
    def test_longdouble_gradient_error(self, band, seed):
        for pred, target, ar in longdouble_pairs(band, seed):
            ref = longdouble_gradient(pred, target)
            g = jiou_gradient(pred, target)
            diff = np.array([g.d_phi, g.d_r1, g.d_r2], dtype=np.longdouble) - ref
            err = float(np.max(np.abs(diff)) / np.max(np.abs(ref)))
            assert err <= LONGDOUBLE_GRADIENT_BOUND * EPS * ar * ar, (pred, target)


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

    def test_first_bad_pair_raises_its_error(self):
        """Pairs are scored one after the other, and the first pair with an
        extent off the range raises the error that names its box, as when
        every value was taken before any gradient."""
        good = OrientedBox(0, 0, 2, 1, 0.3)
        tiny = OrientedBox(0, 0, 2e-120, 1e-120, 0.1)
        huge = OrientedBox(0, 0, 3e103, 1e103, 0.2)
        want = re.escape("half-extents must lie in [1e-100, 1e+100] for a radial profile, "
                         f"got r1={tiny.r1}, r2={tiny.r2}")
        for preds, targets in (([good, tiny, huge], [good, good, good]),
                               ([good, good, good], [good, tiny, huge])):
            with pytest.raises(InvalidBoxError, match=f"^{want}$"):
                batch_jiou(preds, targets, 720)


class TestProfileCache:
    """Each box's profile is built once per pair and once per fit evaluation,
    from the read-only profiles kept in polar's lru_cache."""

    def test_batch_builds_each_box_once(self):
        rng = np.random.default_rng(26)
        k = 12
        preds = [random_box(rng) for _ in range(k)]
        targets = [random_box(rng) for _ in range(k)]
        polar._grid.cache_clear()
        hits, misses = kept_counts()
        batch_jiou(preds, targets, 720)
        # jiou_bar builds both profiles; jiou_gradient finds both kept.
        assert kept_counts() == (hits + 2 * k, misses + 2 * k)

    def test_fit_builds_each_box_once(self, monkeypatch):
        """A JIoU fit of E evaluations builds E + 1 profiles: the target's
        once, and each evaluated box's once.  jiou_bar reads the pair that
        jiou_gradient just summed and asks for no profile."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return jiou_bar(*args, **kwargs)

        monkeypatch.setattr(polarjiou.fitting, "jiou_bar", counted)
        polar._grid.cache_clear()
        hits, misses = kept_counts()
        trace = fit_box(OrientedBox(0, 0, 12, 3, 0.9), OrientedBox(0, 0, 10, 4, 0.2), "jiou",
                        lr=5.0)
        evaluations = len(calls)
        assert evaluations > len(trace.steps) > 2
        # Each evaluation's jiou_gradient asks for the target once and its box once.
        assert kept_counts() == (hits + evaluations - 1, misses + evaluations + 1)


NO_PAIR = (None, 0.0, 0.0, 0.0)


class TestKeptPair:
    """jiou_bar and jiou_gradient share the sums of the last pair."""

    @pytest.fixture
    def sums_calls(self, monkeypatch):
        """Starts with no pair kept; lists the pairs of profiles that loss._sums gets."""
        calls = []

        def counted(rho_p, rho_t):
            calls.append((rho_p, rho_t))
            return sums(rho_p, rho_t)

        sums = loss._sums
        monkeypatch.setattr(loss, "_sums", counted)
        monkeypatch.setattr(loss, "_kept_pair", NO_PAIR)
        return calls

    def test_batch_sums_each_pair_once(self, sums_calls):
        rng = np.random.default_rng(41)
        k = 12
        preds = [random_box(rng) for _ in range(k)]
        targets = [random_box(rng) for _ in range(k)]
        batch_jiou(preds, targets, 720)
        assert len(sums_calls) == k

    def test_fit_sums_each_evaluation_once(self, sums_calls, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return jiou_bar(*args, **kwargs)

        monkeypatch.setattr(polarjiou.fitting, "jiou_bar", counted)
        trace = fit_box(OrientedBox(0, 0, 12, 3, 0.9), OrientedBox(0, 0, 10, 4, 0.2), "jiou",
                        lr=5.0)
        assert len(calls) > len(trace.steps) > 2
        assert len(sums_calls) == len(calls)

    @pytest.mark.parametrize("changed", [
        "pred r1", "pred r2", "pred phi", "target r1", "target r2", "target phi", "n"])
    def test_pair_differing_in_one_key_field_is_summed_again(
            self, sums_calls, monkeypatch, changed):
        """Each of the seven key fields tells two pairs apart, and what the
        new pair reads equals what it reads with no pair kept."""
        fields = {"pred": [5.0, 2.0, 0.3], "target": [4.0, 3.0, -0.2]}
        n = 64

        def pair():
            return OrientedBox(0, 0, *fields["pred"]), OrientedBox(0, 0, *fields["target"])

        first = jiou_bar(*pair(), n)
        jiou_gradient(*pair(), n)
        assert len(sums_calls) == 1
        if changed == "n":
            n = 128
        else:
            box, name = changed.split()
            fields[box][("r1", "r2", "phi").index(name)] += 0.5
        value, grad = jiou_bar(*pair(), n), jiou_gradient(*pair(), n)
        assert len(sums_calls) == 2 and value != first
        monkeypatch.setattr(loss, "_kept_pair", NO_PAIR)
        assert jiou_gradient(*pair(), n) == grad and jiou_bar(*pair(), n) == value

    def test_threads_read_only_their_own_pairs_sums(self):
        """Four threads alternate their own pairs, an identical pair among
        them, through jiou_bar and jiou_gradient in both orders; each gets
        the bits of a single-threaded run.

        Threads take turns often only while the host runs them side by
        side, so each goes on past 600 rounds, up to 6000, until the pairs
        have changed hands 2000 times."""
        rng = np.random.default_rng(41)
        same = OrientedBox(0, 0, 5, 2, 0.3)
        pairs = [[(random_box(rng), random_box(rng)) for _ in range(2)] for _ in range(4)]
        pairs[0][0] = (same, same)
        want = {(p, t): (jiou_bar(p, t), jiou_gradient(p, t)) for own in pairs for p, t in own}
        failures, finished = [], []
        turns = {"count": 0, "last": None}
        start = threading.Barrier(len(pairs))

        def work(own):
            start.wait(timeout=60)
            for i in range(6000):
                if i >= 600 and turns["count"] >= 2000:
                    break
                for p, t in own:
                    if turns["last"] is not own:
                        turns["count"] += 1
                        turns["last"] = own
                    if i % 2:
                        grad = jiou_gradient(p, t)
                        got = jiou_bar(p, t), grad
                    else:
                        got = jiou_bar(p, t), jiou_gradient(p, t)
                    if got != want[p, t]:
                        failures.append((p, t))
            finished.append(own)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(own,)) for own in pairs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == len(pairs) and not failures
