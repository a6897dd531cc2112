"""Ground-truth IoU oracles (exact overlap, Monte-Carlo) and rotated NMS."""

import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarjiou.fitting
import polarjiou.oracle
from helpers import (
    SIGNED_PAST_FLOAT_RANGE,
    dyadic,
    finite_floats,
    fraction_rect_iou,
    mc_agreement_pairs,
    random_box,
    reference_concentric_overlap,
    reference_corner_offsets,
    reference_corners,
    reference_mc_iou,
    reference_nms,
    reference_rect_iou,
)
from polarjiou import (
    Detection,
    OrientedBox,
    decode_corners,
    default_fit_suite,
    deviation_sweep,
    exact_rect_iou,
    fit_box,
    jiou_bar,
    mc_ellipse_iou,
    mc_rect_iou,
    rotated_nms,
)
from polarjiou.boxes import HALF_PI, corner_offsets
from polarjiou.errors import InsufficientSamplesError, InvalidBoxError
from polarjiou.fitting import DEFAULT_ASPECT_RATIOS, default_angle_diffs
from polarjiou.oracle import (
    CLIP_ROUNDING,
    MAX_MC_SAMPLES,
    MC_CHUNK,
    MIN_MC_SAMPLES,
    MIN_OVERLAP_FRACTION,
    PRUNE_EXTENT_LIMIT,
    PRUNE_REACH_SLACK,
    _overlap,
)
from polarjiou.polar import MAX_EXTENT, MIN_EXTENT


EPS = sys.float_info.epsilon


def unit_square(cx=0.0, cy=0.0, phi=0.0):
    return OrientedBox(cx, cy, 0.5, 0.5, phi)


class TestExactRectIou:
    def test_identical_boxes(self):
        box = OrientedBox(3, -1, 4, 2, 0.7)
        assert exact_rect_iou(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_identical_boxes_clamped_to_one(self):
        """Rounding in the clip once read 1.000000000001 for this pair."""
        box = OrientedBox(80, 2, 1, 0.01, 1.0)
        assert exact_rect_iou(box, box) == 1.0

    def test_half_shifted_unit_squares(self):
        """Shift by half a side: intersection 0.5, union 1.5, IoU = 1/3."""
        iou = exact_rect_iou(unit_square(), unit_square(cx=0.5))
        assert iou == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rotated_square_octagon(self):
        """Unit square vs itself rotated 45 degrees: the octagon intersection
        2(sqrt(2)-1) over union 2 - 2(sqrt(2)-1) reduces to 1/sqrt(2)."""
        iou = exact_rect_iou(unit_square(), unit_square(phi=math.pi / 4))
        inter = 2 * (math.sqrt(2) - 1)
        assert iou == pytest.approx(inter / (2 - inter), abs=1e-12)
        assert iou == pytest.approx(0.70711, abs=1e-4)

    def test_disjoint_boxes(self):
        assert exact_rect_iou(unit_square(), unit_square(cx=5.0)) == 0.0

    def test_symmetric(self):
        a = OrientedBox(0, 0, 3, 1, 0.2)
        b = OrientedBox(1, 0.5, 2, 1.5, -0.6)
        assert exact_rect_iou(a, b) == pytest.approx(exact_rect_iou(b, a), abs=1e-15)

    def test_containment(self):
        outer = OrientedBox(0, 0, 4, 2, 0.3)
        inner = OrientedBox(0, 0, 2, 1, 0.3)
        assert exact_rect_iou(outer, inner) == pytest.approx(0.25, abs=1e-12)

    def test_rigid_motion_invariance(self):
        """Translating and rotating both boxes together preserves the IoU."""
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            base = exact_rect_iou(a, b)
            dx, dy, rot = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-3, 3)
            c, s = math.cos(rot), math.sin(rot)

            def move(box):
                x = c * box.cx - s * box.cy + dx
                y = s * box.cx + c * box.cy + dy
                return OrientedBox(x, y, box.r1, box.r2, box.phi + rot)

            assert exact_rect_iou(move(a), move(b)) == pytest.approx(base, abs=1e-9)

    def test_translation_far_from_origin(self):
        """Moving both boxes by +-1e3, +-1e6 or +-1e9 moves the IoU by at
        most 1e-6: clipping follows the boxes' size, and the centers' own
        rounding at 1e9 is about 1e-7."""
        rng = np.random.default_rng(61)
        overlapping = 0
        for _ in range(2000):
            a, b = random_box(rng, max_center=20.0), random_box(rng, max_center=20.0)
            base = exact_rect_iou(a, b)
            overlapping += base > 0.0
            for shift in (1e3, 1e6, 1e9):
                tx, ty = shift * rng.choice((-1.0, 1.0)), shift * rng.choice((-1.0, 1.0))
                moved = exact_rect_iou(
                    OrientedBox(a.cx + tx, a.cy + ty, a.r1, a.r2, a.phi),
                    OrientedBox(b.cx + tx, b.cy + ty, b.r1, b.r2, b.phi))
                assert moved == pytest.approx(base, abs=1e-6), (a, b, tx, ty)
        assert overlapping > 1000

    def test_monte_carlo_agreement_sample(self):
        """Exact IoU sits within 3 standard errors of point sampling (the
        frozen 200-pair suite runs in the acceptance gate)."""
        for i, (a, b, exact) in enumerate(mc_agreement_pairs(count=20)):
            estimate, se = mc_rect_iou(a, b, 20_000, seed=400_012 + i)
            if se == 0.0:
                assert estimate == pytest.approx(exact, abs=1e-12)
            else:
                assert abs(estimate - exact) <= 3 * se


def placed(anchor, u, v, r1, r2, dphi):
    """A box whose center sits at (u, v) in the anchor's frame, rotated dphi
    relative to the anchor."""
    c, s = math.cos(anchor.phi), math.sin(anchor.phi)
    return OrientedBox(anchor.cx + c * u - s * v, anchor.cy + s * u + c * v,
                       r1, r2, anchor.phi + dphi)


def circumradius(box):
    return math.hypot(box.r1, box.r2)


def aspect_ratio(*boxes):
    """The largest aspect ratio among the boxes."""
    return max(max(box.r1 / box.r2, box.r2 / box.r1) for box in boxes)


def no_overlap(*args):
    raise AssertionError("computed the overlap of a pair with disjoint circumcircles")


def pruning_pairs(count, seed):
    """Seeded pairs around the pruning boundary and the clipping's hard cases:
    circumcircle contact x (1 +- 1e-3) in random orientations and corner to
    corner, aspect ratios up to 1e3, centers up to 1e15 with half-extents
    down to 1e-4, and random near pairs."""
    rng = np.random.default_rng(seed)

    def box_at(cx, cy, min_r, max_r, max_ar):
        r1 = 10.0 ** rng.uniform(math.log10(min_r), math.log10(max_r))
        return OrientedBox(cx, cy, r1, r1 / 10.0 ** rng.uniform(0.0, math.log10(max_ar)),
                           rng.uniform(-7.0, 7.0))

    pairs = []
    for k in range(count):
        kind = k % 5
        scale = 10.0 ** rng.uniform(-2.0, 15.0) if kind == 2 else 100.0
        min_r, max_r = (1e-4, 10.0) if kind == 2 else (0.1, 50.0)
        max_ar = 1e3 if kind == 1 else 4.0
        a = box_at(rng.uniform(-scale, scale), rng.uniform(-scale, scale), min_r, max_r, max_ar)
        b = box_at(0.0, 0.0, min_r, max_r, max_ar)
        reach = circumradius(a) + circumradius(b)
        if kind == 4:
            d, t = rng.uniform(0.0, 1.5) * reach, rng.uniform(0.0, 2.0 * math.pi)
        else:
            d = reach * (1.0 + rng.uniform(-1e-3, 1e-3))
            t = rng.uniform(0.0, 2.0 * math.pi)
        phi = b.phi
        if kind == 3:
            # a's (r1, r2) corner faces b's (-r1, -r2) corner along the center line.
            t = a.phi + math.atan2(a.r2, a.r1)
            phi = t - math.atan2(b.r2, b.r1)
        pairs.append((a, OrientedBox(a.cx + d * math.cos(t), a.cy + d * math.sin(t),
                                     b.r1, b.r2, phi)))
    return pairs


class TestPruningEquivalence:
    def test_pruning_and_scalar_corners_change_no_bit(self):
        """On both sides of the circumcircle test, the early return and the
        closed form read exactly 0.0 where the frozen clipper of the
        decode_corners quads reads 0.0, and within 4 EPS times the larger
        aspect ratio of the two boxes of it elsewhere (about 0.8 measured)."""
        far = 0
        for a, b in pruning_pairs(4000, seed=31):
            expected, iou = reference_rect_iou(a, b), exact_rect_iou(a, b)
            if expected == 0.0:
                assert iou == 0.0, (a, b)
            else:
                assert abs(iou - expected) <= 4 * EPS * aspect_ratio(a, b), (a, b)
            far += math.hypot(b.cx - a.cx, b.cy - a.cy) > circumradius(a) + circumradius(b)
        assert 1000 < far < 3000

    def test_scalar_corners_match_numpy_arithmetic(self):
        for pair in pruning_pairs(500, seed=32):
            for box in pair:
                ref = reference_corners(box)
                assert np.array_equal(np.array(corner_offsets(box)),
                                      reference_corner_offsets(box)), box
                assert np.array_equal(decode_corners(box), ref), box

    @pytest.mark.parametrize("other", [
        OrientedBox(-7e307, 0.0, 1.0, 1.0, 0.0),  # circumcircles disjoint
        OrientedBox(0.0, 0.0, 1.0, 1.0, 0.0),     # clipped
    ])
    def test_overflowing_corner_rejected(self, other):
        """A corner overflowing toward +x, -x, +y or -y raises, each checked
        on its own: the pair is mirrored about the y axis and turned onto
        the y axis."""
        huge = OrientedBox(1e308, 0.0, 1e308, 1.0, 0.0)
        turns = (
            lambda b: b,                                            # +x
            lambda b: OrientedBox(-b.cx, b.cy, b.r1, b.r2, b.phi),  # -x
            lambda b: OrientedBox(b.cy, b.cx, b.r2, b.r1, b.phi),   # +y
            lambda b: OrientedBox(b.cy, -b.cx, b.r2, b.r1, b.phi),  # -y
        )
        for turn in turns:
            h, o = turn(huge), turn(other)
            for a, b in ((h, o), (o, h)):
                with pytest.raises(InvalidBoxError, match="non-finite corner"):
                    exact_rect_iou(a, b)
            with pytest.raises(InvalidBoxError, match="non-finite corner"):
                decode_corners(h)
            decode_corners(o)

    def test_finite_corners_whose_sum_overflows_accepted(self):
        """Every corner is finite although the sum of the coordinates is not:
        the check must look at each corner coordinate on its own."""
        box = OrientedBox(1.6e308, 1.6e308, 1e307, 1e307, 0.0)
        offsets = corner_offsets(box)
        assert all(math.isfinite(x + box.cx) and math.isfinite(y + box.cy) for x, y in offsets)
        assert not math.isfinite(sum(x + box.cx + y + box.cy for x, y in offsets))
        assert np.isfinite(decode_corners(box)).all()

    def test_far_pairs_skip_corner_building(self, monkeypatch):
        far = [(a, b) for a, b in pruning_pairs(2000, seed=33)
               if math.hypot(b.cx - a.cx, b.cy - a.cy)
               > (circumradius(a) + circumradius(b)) * (1.0 + PRUNE_REACH_SLACK)]
        assert len(far) > 500
        monkeypatch.setattr(polarjiou.oracle, "_overlap", no_overlap)
        for a, b in far:
            assert exact_rect_iou(a, b) == 0.0, (a, b)

    @pytest.mark.parametrize("cx, corners_checked", [
        (math.nextafter(PRUNE_EXTENT_LIMIT, 0.0), 0),
        (PRUNE_EXTENT_LIMIT, 4),
        (math.nextafter(PRUNE_EXTENT_LIMIT, math.inf), 4),
    ])
    def test_pruned_pair_at_the_extent_limit(self, monkeypatch, cx, corners_checked):
        """From PRUNE_EXTENT_LIMIT on a pruned pair checks its corners with
        decode_corners, which finds them finite here, and still reads 0.0;
        just below the limit it checks none.  At any extent a pruned pair
        computes no overlap."""
        checked = []

        def counted(box):
            checked.append(box)
            return decode_corners(box)

        monkeypatch.setattr(polarjiou.oracle, "decode_corners", counted)
        monkeypatch.setattr(polarjiou.oracle, "_overlap", no_overlap)
        a, b = OrientedBox(cx, 0.0, 2.0, 1.0, 0.3), OrientedBox(0.0, 0.0, 2.0, 1.0, 0.3)
        assert exact_rect_iou(a, b) == 0.0
        assert exact_rect_iou(b, a) == 0.0
        assert len(checked) == corners_checked

    def test_disjoint_circumcircles_skip_clipping(self, monkeypatch):
        monkeypatch.setattr(polarjiou.oracle, "_overlap", no_overlap)
        a = OrientedBox(0, 0, 3, 1, 0.4)
        reach = circumradius(a) * 2
        for t in np.linspace(0.0, 2.0 * math.pi, 12):
            b = OrientedBox(reach * 1.01 * math.cos(t), reach * 1.01 * math.sin(t), 3, 1, -0.7)
            assert exact_rect_iou(a, b) == 0.0


class TestTinyBoxes:
    @pytest.mark.parametrize("exponent", range(-8, 7))
    def test_self_iou_is_one_at_every_scale(self, exponent):
        r = 10.0 ** exponent
        for cx, cy in ((0.0, 0.0), (3.0 * r, -r)):
            box = OrientedBox(cx, cy, r, 0.5 * r, 0.3)
            assert exact_rect_iou(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_tiny_boxes_match_monte_carlo(self):
        """Two 4e-7 x 1e-7 boxes overlap by most of their area."""
        a = OrientedBox(0.0, 0.0, 2e-7, 5e-8, 0.0)
        b = OrientedBox(1e-8, 5e-9, 2e-7, 5e-8, 0.05)
        exact = exact_rect_iou(a, b)
        estimate, se = mc_rect_iou(a, b, 100_000, seed=5)
        assert exact > 0.8
        assert abs(exact - estimate) <= 3 * se

    def test_touching_tiny_boxes_are_disjoint(self):
        a = OrientedBox(0.0, 0.0, 2e-7, 5e-8, 0.0)
        assert exact_rect_iou(a, OrientedBox(4e-7, 0.0, 2e-7, 5e-8, 0.0)) == 0.0
        assert exact_rect_iou(a, OrientedBox(4e-7, 1e-7, 2e-7, 5e-8, 0.0)) == 0.0


def scaled(box, j):
    return OrientedBox(math.ldexp(box.cx, j), math.ldexp(box.cy, j),
                       math.ldexp(box.r1, j), math.ldexp(box.r2, j), box.phi)


def near_pairs(count=200, seed=41):
    """Pairs with half-extents in [0.5, 3] and centers within +-2, most of
    which overlap."""
    rng = np.random.default_rng(seed)
    return [(random_box(rng, max_center=2.0, min_r=0.5, max_r=3.0),
             random_box(rng, max_center=2.0, min_r=0.5, max_r=3.0)) for _ in range(count)]


class TestExtentRange:
    """Clipping is exact under power-of-two scaling while every half-extent
    lies in [MIN_EXTENT, MAX_EXTENT]; a pair that reaches clipping outside
    it raises."""

    def test_power_of_two_scaling_changes_no_bit(self):
        pairs = near_pairs()
        radii = [r for pair in pairs for box in pair for r in (box.r1, box.r2)]
        lo = math.ceil(math.log2(MIN_EXTENT / min(radii)))
        hi = math.floor(math.log2(MAX_EXTENT / max(radii)))
        assert lo < -320 and hi > 320
        values = [exact_rect_iou(a, b) for a, b in pairs]
        assert sum(v > 0.0 for v in values) > 150
        for j in sorted({lo, hi, *range(lo, hi + 1, 3)}):
            assert [exact_rect_iou(scaled(a, j), scaled(b, j)) for a, b in pairs] == values, j

    @pytest.mark.parametrize("j", [-539, -509, -400, 400, 511])
    def test_overlapping_pairs_out_of_range_raise(self, j):
        for a, b in near_pairs(20):
            if exact_rect_iou(a, b) > 0.0:
                with pytest.raises(InvalidBoxError, match="for an exact overlap"):
                    exact_rect_iou(scaled(a, j), scaled(b, j))

    @pytest.mark.parametrize("inside, outside", [
        ((MAX_EXTENT, 0.5 * MAX_EXTENT), (math.nextafter(MAX_EXTENT, math.inf), 0.5 * MAX_EXTENT)),
        ((2.0 * MIN_EXTENT, MIN_EXTENT), (2.0 * MIN_EXTENT, math.nextafter(MIN_EXTENT, 0.0))),
    ])
    def test_range_edges(self, inside, outside):
        inside = OrientedBox(0.0, 0.0, *inside, 0.3)
        assert exact_rect_iou(inside, inside) == 1.0
        outside = OrientedBox(0.0, 0.0, *outside, 0.3)
        for a, b in ((outside, inside), (inside, outside)):
            with pytest.raises(InvalidBoxError, match="for an exact overlap"):
                exact_rect_iou(a, b)

    def test_disjoint_pairs_out_of_range_read_zero(self):
        """Pruning needs no clipping, so it stays valid at any scale."""
        a = OrientedBox(0.0, 0.0, 1e-150, 1e-150, 0.0)
        assert exact_rect_iou(a, OrientedBox(1e-140, 0.0, 1e-150, 1e-150, 0.0)) == 0.0
        b = OrientedBox(0.0, 0.0, 1e150, 1e150, 0.0)
        assert exact_rect_iou(b, OrientedBox(1e160, 0.0, 1e150, 1e150, 0.0)) == 0.0


class TestRoundingFloor:
    def test_overlaps_vanish_past_the_extent_limit(self):
        """Two identical 2x2 boxes overlap by exactly 4 (the concentric
        closed form at angle 0), which reads as empty once CLIP_ROUNDING *
        extent * reach exceeds it: reach is 2 sqrt(2) and extent = |cx| +
        reach, so the limit is |cx| = 4 / (CLIP_ROUNDING * 2 sqrt(2)) - 2 sqrt(2), about
        7.0711e14.  Below it the ratio reads exactly 1."""
        reach = 2.0 * math.sqrt(2.0)
        limit = 4.0 / (CLIP_ROUNDING * reach) - reach
        assert 7.07e14 < limit < 7.08e14
        for cx, expected in ((4.48e7, 1.0), (1e12, 1.0), (7.07e14, 1.0), (7.08e14, 0.0)):
            for sign in (1.0, -1.0):
                for box in (OrientedBox(sign * cx, 0.0, 1.0, 1.0, 0.0),
                            OrientedBox(0.0, sign * cx, 1.0, 1.0, 0.0)):
                    assert exact_rect_iou(box, box) == expected, box


# Anchor boxes for the degenerate-geometry properties: centers up to 1e3,
# half-extents from 1e-3 to 1e3.
anchors = st.builds(
    OrientedBox,
    finite_floats(-1e3, 1e3), finite_floats(-1e3, 1e3),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    finite_floats(-4.0, 4.0),
)
unit_fractions = st.floats(-1.0, 1.0)
ratios = st.floats(0.1, 10.0)


def rounding_tol(a, b):
    """IoU tolerance for boxes clipped in the first box's frame: the centers
    carry rounding of order eps * extent, which moves an edge of length up
    to reach by that much, and the area it sweeps is divided by the smaller
    box's area."""
    reach = circumradius(a) + circumradius(b)
    extent = max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy)) + reach
    return 1e-12 + 1e-14 * extent * reach / (4.0 * min(a.r1 * a.r2, b.r1 * b.r2))


class TestDegenerateGeometry:
    @settings(max_examples=300, deadline=None)
    @given(anchors, st.integers(0, 3), unit_fractions, ratios, ratios)
    @example(a=OrientedBox(129.0, 0.0, 1.0, 0.001, 1.0), side=1, slide=0.0, k1=1.0, k2=0.25)
    def test_edges_touching(self, a, side, slide, k1, k2):
        """b shares part of one of a's edges, from outside."""
        r1, r2 = k1 * a.r1, k2 * a.r2
        if side % 2 == 0:
            u, v = a.r1 + r1, slide * (a.r2 + r2)
        else:
            u, v = slide * (a.r1 + r1), a.r2 + r2
        if side >= 2:
            u, v = -u, -v
        assert exact_rect_iou(a, placed(a, u, v, r1, r2, 0.0)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(anchors, st.integers(0, 3), ratios, ratios)
    def test_corners_touching(self, a, corner, k1, k2):
        r1, r2 = k1 * a.r1, k2 * a.r2
        su, sv = (1, 1, -1, -1)[corner], (1, -1, 1, -1)[corner]
        b = placed(a, su * (a.r1 + r1), sv * (a.r2 + r2), r1, r2, 0.0)
        assert exact_rect_iou(a, b) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(anchors, unit_fractions, ratios, ratios, st.floats(0.05, 1.5))
    def test_rotated_corner_touching_edge(self, a, slide, k1, k2, dphi):
        """b, rotated by dphi, rests one corner on a's +r1 edge."""
        r1, r2 = k1 * a.r1, k2 * a.r2
        c, s = math.cos(dphi), math.sin(dphi)
        low_u, low_v = min((c * p * r1 - s * q * r2, s * p * r1 + c * q * r2)
                           for p in (-1, 1) for q in (-1, 1))
        b = placed(a, a.r1 - low_u, slide * a.r2 - low_v, r1, r2, dphi)
        assert exact_rect_iou(a, b) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(anchors)
    def test_identical(self, a):
        iou = exact_rect_iou(a, a)
        assert iou <= 1.0
        assert iou == pytest.approx(1.0, abs=rounding_tol(a, a))

    @settings(max_examples=200, deadline=None)
    @given(anchors, st.floats(0.05, 0.95), st.floats(0.05, 0.95), unit_fractions, unit_fractions)
    def test_nested(self, a, k1, k2, fu, fv):
        """An inner box anywhere inside a: IoU is the area ratio."""
        r1, r2 = k1 * a.r1, k2 * a.r2
        inner = placed(a, fu * (a.r1 - r1), fv * (a.r2 - r2), r1, r2, 0.0)
        tol = rounding_tol(a, inner)
        for iou in (exact_rect_iou(a, inner), exact_rect_iou(inner, a)):
            assert iou <= 1.0
            assert iou == pytest.approx(k1 * k2, abs=tol)

    @settings(max_examples=200, deadline=None)
    @given(anchors, st.floats(-1e-12, 1e-12), st.floats(0.1, 1.9), unit_fractions)
    def test_near_parallel_edges(self, a, dphi, shift, slide):
        """Tilting b by at most 1e-12 rad moves the IoU of an edge-sharing
        overlap by no more than the tilt itself does: the tilted box sweeps
        an area of at most |dphi| (r1^2 + r2^2) out of 4 r1 r2."""
        v = slide * a.r2 * 0.5
        aligned = exact_rect_iou(a, placed(a, shift * a.r1, v, a.r1, a.r2, 0.0))
        tilted = exact_rect_iou(a, placed(a, shift * a.r1, v, a.r1, a.r2, dphi))
        sweep = abs(dphi) * (a.r1 / a.r2 + a.r2 / a.r1)
        assert 0.0 < tilted <= 1.0
        assert tilted == pytest.approx(aligned, abs=sweep + rounding_tol(a, a))

    @settings(max_examples=300, deadline=None)
    @given(anchors, anchors)
    def test_symmetric(self, a, b):
        assert exact_rect_iou(a, b) == pytest.approx(exact_rect_iou(b, a), abs=rounding_tol(a, b))

    def test_extreme_aspect_ratio_matches_monte_carlo(self):
        """Boxes with aspect ratio >= 100: exact IoU within 3 standard errors
        of point sampling."""
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 12:
            a = OrientedBox(0.0, 0.0, 50.0, 50.0 / rng.uniform(100, 400), rng.uniform(-1.5, 1.5))
            b = placed(a, rng.uniform(-20, 20), rng.uniform(-0.2, 0.2),
                       rng.uniform(20, 50), 50.0 / rng.uniform(100, 400), rng.uniform(-0.01, 0.01))
            exact = exact_rect_iou(a, b)
            if exact < 0.02:
                continue
            estimate, se = mc_rect_iou(a, b, 100_000, seed=700 + checked)
            assert se > 0.0
            assert abs(estimate - exact) <= 3 * se, (a, b, exact, estimate, se)
            checked += 1


def test_concentric_fit_and_sweep_pairs_match_reference(monkeypatch):
    """The concentric pairs that fit runs and the sweep send to
    exact_rect_iou read within 16 EPS of the frozen clipper reference:
    every (state, target) pair that fit_box checks on the default 50-case
    suite under both losses, and the 95 default sweep cells (ar, 1, 0)
    against (ar, 1, dphi).  They take the closed form, not the clipper, so
    the bits may differ; the largest difference measured over the
    fit-suite benchmark's 8000 traces at seeds 42 and 7 was 8.5 EPS.
    pruning_pairs always offsets the centers, so it covers none of them."""
    pairs = []

    def recorded(a, b):
        pairs.append((a, b))
        return exact_rect_iou(a, b)

    monkeypatch.setattr(polarjiou.fitting, "exact_rect_iou", recorded)
    for loss_kind in ("jiou", "smooth_l1"):
        for init, target in default_fit_suite(50, 42):
            fit_box(init, target, loss_kind)
    assert len(pairs) > 4000
    for ar in DEFAULT_ASPECT_RATIOS:
        for dphi in default_angle_diffs():
            pairs.append((OrientedBox(0.0, 0.0, ar, 1.0, 0.0),
                          OrientedBox(0.0, 0.0, ar, 1.0, dphi)))
    for a, b in pairs:
        assert (a.cx, a.cy) == (b.cx, b.cy), (a, b)
        assert abs(exact_rect_iou(a, b) - reference_rect_iou(a, b)) <= 16 * EPS, (a, b)


def concentric_pairs(count, seed):
    """Seeded pairs that share a center anywhere within +-100, with
    half-extents from 0.1 to 30 and angles in [-7, 7]."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        cx, cy = rng.uniform(-100.0, 100.0, 2)
        a, b = (OrientedBox(cx, cy, *10.0 ** rng.uniform(-1.0, 1.5, 2), rng.uniform(-7.0, 7.0))
                for _ in range(2))
        pairs.append((a, b))
    return pairs


def replaced(box, **fields):
    """box with some of its five fields replaced."""
    return OrientedBox(**{"cx": box.cx, "cy": box.cy, "r1": box.r1, "r2": box.r2,
                          "phi": box.phi, **fields})


class TestConcentricOverlap:
    """Laws of exact_rect_iou's closed form for pairs that share a center,
    each asserted with ==."""

    def test_symmetric(self):
        """The clipper reference is not symmetric on most of these pairs;
        the closed form is, bit for bit."""
        pairs = concentric_pairs(5000, seed=71)
        assert sum(reference_rect_iou(a, b) != reference_rect_iou(b, a) for a, b in pairs) > 1000
        for a, b in pairs:
            assert exact_rect_iou(a, b) == exact_rect_iou(b, a), (a, b)

    @pytest.mark.parametrize("r1, r2", [(2.0, 1.0), (1.0, 2.0), (1.5, 1.5), (1e-5, 1e5),
                                        (7.25, 1e-6)])
    def test_exactly_one(self, r1, r2):
        """A box against itself at any angle, and at angle 0 against itself
        turned by pi and against its axis swap turned by pi/2 (for a square,
        itself turned by pi/2): the relative angle reduces to exactly 0."""
        for phi in (0.0, 0.3, -2.5, 1e6):
            box = OrientedBox(5.0, -3.0, r1, r2, phi)
            assert exact_rect_iou(box, box) == 1.0, box
        box = OrientedBox(5.0, -3.0, r1, r2, 0.0)
        for twin in (OrientedBox(5.0, -3.0, r1, r2, math.pi),
                     OrientedBox(5.0, -3.0, r2, r1, HALF_PI)):
            assert exact_rect_iou(box, twin) == 1.0, twin
            assert exact_rect_iou(twin, box) == 1.0, twin

    def test_angles_whose_difference_overflows(self):
        """phi_b - phi_a is infinite here, so each angle is reduced by pi first."""
        a, b = OrientedBox(1.0, 2.0, 3.0, 1.0, 1.5e308), OrientedBox(1.0, 2.0, 2.0, 1.5, -1.7e308)
        reduced = [replaced(box, phi=math.remainder(box.phi, math.pi)) for box in (a, b)]
        assert 0.0 < exact_rect_iou(a, b) == exact_rect_iou(b, a) == exact_rect_iou(*reduced) < 1.0

    def test_power_of_two_scaling_changes_no_bit(self):
        pairs = concentric_pairs(300, seed=72)
        values = [exact_rect_iou(a, b) for a, b in pairs]
        for k in range(-20, 20):
            assert [exact_rect_iou(scaled(a, k), scaled(b, k)) for a, b in pairs] == values, k

    def test_joint_dyadic_rotation_changes_no_bit(self):
        """Angles on a 2**-20 grid stay exact when both turn by such an angle."""
        rng = np.random.default_rng(73)
        for a, b in concentric_pairs(500, seed=74):
            a, b = replaced(a, phi=dyadic(a.phi)), replaced(b, phi=dyadic(b.phi))
            value = exact_rect_iou(a, b)
            for t in (dyadic(x) for x in rng.uniform(-7.0, 7.0, 4)):
                turned = replaced(a, phi=a.phi + t), replaced(b, phi=b.phi + t)
                assert exact_rect_iou(*turned) == value, (a, b, t)

    def test_keeps_the_frozen_closed_form_bits(self):
        """A concentric pair sums one half of the closed form and keeps the
        bits of the frozen concentric-only form, on random angles, equal
        angles and turns by pi/2, pi and +-1e-13."""
        rng = np.random.default_rng(76)
        turns = (None, 0.0, HALF_PI, -HALF_PI, math.pi, 1e-13, -1e-13)
        for k in range(50_000):
            a1, a2, b1, b2 = 10.0 ** rng.uniform(-1.0, 1.5, 4)
            phi_a, phi_b = rng.uniform(-7.0, 7.0, 2)
            if turns[k % 7] is not None:
                phi_b = phi_a + turns[k % 7]
            assert _overlap(a1, a2, b1, b2, phi_a, phi_b, 0.0, 0.0) == \
                reference_concentric_overlap(a1, a2, b1, b2, phi_a, phi_b), (a1, a2, b1, b2, k)

    @settings(max_examples=300, deadline=None)
    @given(finite_floats(-100.0, 100.0), finite_floats(-100.0, 100.0),
           st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           finite_floats(-7.0, 7.0), finite_floats(-7.0, 7.0))
    @example(cx=0.0, cy=0.0, exponents=[0.5, 0.0, 0.5, 0.0], phi_a=0.0, phi_b=1e-300)
    @example(cx=1.0, cy=2.0, exponents=[2.0, -2.0, 2.0, -2.0], phi_a=0.5, phi_b=0.5 + 1e-12)
    @example(cx=0.0, cy=0.0, exponents=[1.0, 0.0, 0.0, 1.0], phi_a=0.0, phi_b=math.pi / 4)
    @example(cx=0.0, cy=0.0, exponents=[2.0, -2.0, 2.0, -2.0], phi_a=0.0,
             phi_b=HALF_PI - 1e-9)
    def test_matches_rational_reference(self, cx, cy, exponents, phi_a, phi_b):
        """Within 8 EPS times the larger aspect ratio of the exact IoU of
        corner_offsets' float corners."""
        r = [10.0 ** e for e in exponents]
        a, b = OrientedBox(cx, cy, r[0], r[1], phi_a), OrientedBox(cx, cy, r[2], r[3], phi_b)
        ar = max(r[0] / r[1], r[1] / r[0], r[2] / r[3], r[3] / r[2])
        assert abs(exact_rect_iou(a, b) - float(fraction_rect_iou(a, b))) <= 8 * EPS * ar

    @pytest.mark.parametrize("box, expected", [
        (OrientedBox(0.0, 0.0, 1.0, 1e-13, 0.3), 1.0),
        (OrientedBox(0.0, 0.0, 1.0, 1e-14, 0.3), 1.0),
        (OrientedBox(0.0, 0.0, 1.0, 1.0 / 4.9e14, 0.3), 1.0),
        (OrientedBox(0.0, 0.0, 1.0, 1.0 / 5e14, 0.3), 0.0),
        (OrientedBox(0.0, 0.0, 1e100, 1.0, 0.3), 0.0),
    ])
    def test_thin_box_against_itself(self, box, expected):
        """The overlap is exact, so only the shared empty-overlap floor,
        which grows with the square of the long side, ends the run of 1.0."""
        assert exact_rect_iou(box, box) == expected


def floor_iou(a, b):
    """The IoU that an overlap of exactly the empty-overlap floor would read."""
    area = 4.0 * (a.r1 * a.r2 + b.r1 * b.r2)
    reach = circumradius(a) + circumradius(b)
    extent = max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy)) + reach
    floor = MIN_OVERLAP_FRACTION * area + CLIP_ROUNDING * extent * reach
    return floor / (area - floor)


def on_grid(box, bits=6):
    """box with its center and half-extents rounded onto a 2**-bits grid,
    each half-extent at least one step."""
    step = 2.0 ** -bits
    return replaced(box, cx=dyadic(box.cx, bits), cy=dyadic(box.cy, bits),
                    r1=max(dyadic(box.r1, bits), step), r2=max(dyadic(box.r2, bits), step))


# Angles of b relative to a: any, or parallel, near-parallel, a quarter or
# a half turn.
relative_angles = st.one_of(
    st.sampled_from([0.0, 1e-12, -1e-12, HALF_PI, -HALF_PI, math.pi, HALF_PI + 1e-12]),
    st.floats(-3.5, 3.5),
)


class TestOffCenterOverlap:
    """The same closed form for pairs whose centers differ."""

    @settings(max_examples=300, deadline=None)
    @given(finite_floats(-1e3, 1e3), finite_floats(-1e3, 1e3),
           st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           st.floats(-3.5, 3.5), relative_angles, unit_fractions, unit_fractions)
    @example(cx=3.0, cy=-1.0, exponents=[1.0, 0.0, 0.5, 0.0], phi_a=0.3, dphi=0.0,
             fu=0.2, fv=-0.1)
    @example(cx=0.0, cy=0.0, exponents=[2.0, -2.0, 2.0, -2.0], phi_a=-1.2, dphi=1e-12,
             fu=0.3, fv=0.0)
    @example(cx=0.0, cy=0.0, exponents=[1.0, -1.0, 1.0, -1.0], phi_a=0.7, dphi=HALF_PI,
             fu=0.05, fv=0.02)
    def test_matches_rational_reference(self, cx, cy, exponents, phi_a, dphi, fu, fv):
        """Within 8 EPS times the larger aspect ratio of the exact IoU of
        corner_offsets' float corners, or 0.0 for an overlap that the
        empty-overlap floor covers.  The centers lie on a 2**-20 grid, so
        that b.cx - a.cx is exact, and every angle within +-7."""
        r = [10.0 ** e for e in exponents]
        reach = math.hypot(r[0], r[1]) + math.hypot(r[2], r[3])
        a = OrientedBox(dyadic(cx), dyadic(cy), r[0], r[1], phi_a)
        du, dv = dyadic(0.5 * fu * reach), dyadic(0.5 * fv * reach)
        b = OrientedBox(a.cx + du, a.cy + dv, r[2], r[3], phi_a + dphi)
        iou, exact = exact_rect_iou(a, b), float(fraction_rect_iou(a, b))
        tol = 8 * EPS * aspect_ratio(a, b)
        if iou == 0.0:
            assert exact <= floor_iou(a, b) + tol
        else:
            assert abs(iou - exact) <= tol

    @pytest.mark.parametrize("ar, expected", [(1e4, 0.6), (1e6, 0.6), (1e8, 0.6), (1e10, 0.6),
                                              (1e11, 0.6), (1e12, 0.6), (1e13, 0.6),
                                              (1e14, 0.6), (1e15, 0.0)])
    def test_thin_box_moved_along_its_axis(self, ar, expected):
        """A box moved by half its half-length along its long axis keeps
        three quarters of its length in the overlap: IoU 1.5 / 2.5 = 0.6,
        read within 2 ulp however thin the box, where the clipper drifted
        by 3.9e-14 at ar = 1e4 and by 3.2e-4 at 1e14.  At 1e15 the overlap
        of 3e-15 lies under the shared empty-overlap floor."""
        a = OrientedBox(0.0, 0.0, 1.0, 1.0 / ar, 0.3)
        b = OrientedBox(0.5 * math.cos(0.3), 0.5 * math.sin(0.3), 1.0, 1.0 / ar, 0.3)
        for iou in (exact_rect_iou(a, b), exact_rect_iou(b, a)):
            assert abs(iou - expected) <= 2 * math.ulp(expected), iou

    @pytest.mark.parametrize("turn", [5e-324, -5e-324, 1e-300, -1e-300])
    def test_relative_angle_near_zero_reads_as_parallel(self, turn):
        """Dividing by the sine of such an angle sends crossings to +-inf
        (5e-324) or near it (1e-300); the pair still reads as the parallel
        pair, with warnings as errors: the same value for pairs on a 2**-6
        grid, whose overlap is exact either way, and within 4 EPS for any
        pair (2 EPS measured)."""
        rng = np.random.default_rng(77)
        overlapping = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(400):
                a, b = (random_box(rng, max_center=3.0) for _ in range(2))
                if k % 2:
                    a, b = on_grid(a), on_grid(b)
                parallel = exact_rect_iou(replaced(a, phi=0.0), replaced(b, phi=0.0))
                for pair in ((replaced(a, phi=0.0), replaced(b, phi=turn)),
                             (replaced(a, phi=turn), replaced(b, phi=0.0))):
                    iou = exact_rect_iou(*pair)
                    if k % 2:
                        overlapping += parallel > 0.0
                        assert iou == parallel, pair
                    else:
                        assert abs(iou - parallel) <= 4 * EPS, pair
        assert overlapping > 100

    @pytest.mark.parametrize("phi_a, phi_b", [(1e308, -1e308), (-1e308, 1e308),
                                              (1.5e308, -1.7e308)])
    def test_angles_whose_difference_overflows(self, phi_a, phi_b):
        """phi_b - phi_a is infinite, so each angle is reduced by pi first:
        the pair reads as b's pose in a's frame, a's own angle turning the
        center difference and the reduced angle turning b."""
        a = OrientedBox(1.0, 2.0, 3.0, 1.0, phi_a)
        b = OrientedBox(1.5, 2.5, 2.0, 1.5, phi_b)
        c, s = math.cos(a.phi), math.sin(a.phi)
        dx, dy = b.cx - a.cx, b.cy - a.cy
        r = math.remainder(math.remainder(b.phi, math.pi) - math.remainder(a.phi, math.pi),
                           math.pi)
        in_frame = (OrientedBox(0.0, 0.0, a.r1, a.r2, 0.0),
                    OrientedBox(c * dx + s * dy, c * dy - s * dx, b.r1, b.r2, r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < exact_rect_iou(a, b) == exact_rect_iou(*in_frame) < 1.0

    def test_mirrored_pair_keeps_its_bits(self):
        """b mirrored through a's center swaps the two halves of the sum."""
        for a, b in near_pairs(300, seed=78):
            a, b = replaced(a, cx=0.0, cy=0.0), replaced(b, cx=b.cx - a.cx, cy=b.cy - a.cy)
            assert exact_rect_iou(a, b) == exact_rect_iou(a, replaced(b, cx=-b.cx, cy=-b.cy))


class TestMonteCarloEllipse:
    def test_identical_ellipses_exact_one(self):
        """Every union hit is an intersection hit, so the estimate is exactly
        1 with zero standard error."""
        box = OrientedBox(0, 0, 3, 1, 0.4)
        estimate, se = mc_ellipse_iou(box, box, 10_000, seed=1)
        assert estimate == 1.0
        assert se == 0.0

    def test_concentric_circles(self):
        a = OrientedBox(0, 0, 1, 1, 0)
        b = OrientedBox(0, 0, 2, 2, 0)
        estimate, se = mc_ellipse_iou(a, b, 1_000_000, seed=3)
        assert abs(estimate - 0.25) <= 3 * se

    def test_cross_oracle_consistency(self):
        """jiou_bar(n=720) of the 2:1 cross matches the ellipse sampler."""
        a = OrientedBox(0, 0, 2, 1, 0)
        b = OrientedBox(0, 0, 2, 1, math.pi / 2)
        estimate, _ = mc_ellipse_iou(a, b, 1_000_000, seed=8)
        assert abs(jiou_bar(a, b, 720).ratio - estimate) <= 0.01

    def test_dense_grid_tracks_sampler(self):
        """At n=8192 the discrete ratio agrees with the sampler within
        max(0.005, 3*se) on concentric pairs."""
        rng = np.random.default_rng(17)
        for i in range(5):
            ar = rng.uniform(1.0, 5.0)
            dphi = rng.uniform(0.0, math.pi / 2)
            a = OrientedBox(0, 0, ar, 1, 0)
            b = OrientedBox(0, 0, ar, 1, dphi)
            estimate, se = mc_ellipse_iou(a, b, 1_000_000, seed=900 + i)
            ratio = jiou_bar(a, b, 8192).ratio
            assert abs(ratio - estimate) <= max(0.005, 3 * se)

    def test_deterministic_for_fixed_seed(self):
        a = OrientedBox(0, 0, 2, 1, 0)
        b = OrientedBox(0.5, 0, 2, 1, 0.7)
        assert mc_ellipse_iou(a, b, 10_000, seed=6) == mc_ellipse_iou(a, b, 10_000, seed=6)

    def test_too_few_samples_rejected(self):
        box = OrientedBox(0, 0, 1, 1, 0)
        with pytest.raises(InsufficientSamplesError):
            mc_ellipse_iou(box, box, 9_999, seed=0)
        with pytest.raises(InsufficientSamplesError):
            mc_rect_iou(box, box, 100, seed=0)

    @pytest.mark.parametrize("oracle", [mc_ellipse_iou, mc_rect_iou])
    def test_samples_must_be_a_whole_number(self, oracle):
        """A fractional or non-finite count names the argument; a whole
        float counts as the int."""
        a, b = OrientedBox(0, 0, 2, 1, 0), OrientedBox(0.5, 0, 2, 1, 0.7)
        for samples in (20000.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="samples must be a whole number"):
                oracle(a, b, samples, seed=0)
        assert oracle(a, b, 20000.0, seed=3) == oracle(a, b, 20000, seed=3)


MC_SAMPLE_COUNTS = (10_000, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7, 1_000_000)
MC_ORACLES = [pytest.param(mc_ellipse_iou, True, id="ellipse"),
              pytest.param(mc_rect_iou, False, id="rect")]
MC_STREAM_CASES = {
    "identical": (OrientedBox(2, -1, 5, 2, 0.4), OrientedBox(2, -1, 5, 2, 0.4)),
    "nested": (OrientedBox(0, 0, 6, 3, 0.3), OrientedBox(0.5, 0.2, 2, 1, -0.7)),
    "disjoint": (OrientedBox(0, 0, 2, 1, 0.2), OrientedBox(10, 3, 2, 1, 1.0)),
    "thin": (OrientedBox(0, 0, 50, 0.4, 0.1), OrientedBox(1, 0.5, 40, 0.3, 0.12)),
    "far": (OrientedBox(1e6 + 0.3, -1e6, 4, 2, 0.5),
            OrientedBox(1e6 + 1.1, -1e6 + 0.4, 3, 2.5, -0.2)),
    # The frame steps that are identities (a center coordinate of 0.0, an
    # angle of 0.0) are skipped: a deviation_sweep cell, signed zeros, and
    # an axis-aligned box away from the origin.
    "sweep": (OrientedBox(0, 0, 3, 1, 0), OrientedBox(0, 0, 3, 1, 0.5)),
    "signed_zeros": (OrientedBox(-0.0, -0.0, 4, 2, -0.0), OrientedBox(0.0, 0.0, 2, 3, 0.0)),
    "axis_aligned": (OrientedBox(3, -2, 4, 1.5, 0.0), OrientedBox(2, -1, 3, 2, 0.6)),
}


class TestMcChunkedStream:
    """The oracles stream their samples in MC_CHUNK rows; every estimate must
    equal the one rng.uniform draw of all samples, bit for bit.  Each chunk
    is drawn with Generator.random(out=) and scaled as lo + span * u, which
    must give Generator.uniform's bits at every numpy that pyproject.toml
    allows (out= exists since numpy 1.17)."""

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    @pytest.mark.parametrize("case", sorted(MC_STREAM_CASES))
    @pytest.mark.parametrize("samples", MC_SAMPLE_COUNTS)
    def test_mc_matches_single_draw(self, oracle, ellipse, case, samples):
        a, b = MC_STREAM_CASES[case]
        got = oracle(a, b, samples, seed=samples)
        want = reference_mc_iou(a, b, samples, samples, ellipse)
        assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    def test_mc_matches_single_draw_random_pairs(self, oracle, ellipse):
        rng = np.random.default_rng(31)
        for i in range(60):
            a, b = random_box(rng, max_center=10.0), random_box(rng, max_center=10.0)
            samples = int(rng.choice(MC_SAMPLE_COUNTS[:-1]))
            got = oracle(a, b, samples, seed=i)
            want = reference_mc_iou(a, b, samples, i, ellipse)
            assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    @pytest.mark.parametrize("chunk", (1000, 4099, 10_000))
    def test_mc_estimate_does_not_depend_on_chunk(self, monkeypatch, oracle, ellipse, chunk):
        """Other chunk sizes reuse the buffers for short last chunks of other
        lengths; the estimate keeps the single draw's bits.  Below
        MIN_MC_SAMPLES, 3 * chunk + 7 becomes MIN_MC_SAMPLES + 7."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", chunk)
        for case in sorted(MC_STREAM_CASES):
            a, b = MC_STREAM_CASES[case]
            for samples in (10_000, max(3 * chunk, MIN_MC_SAMPLES) + 7):
                got = oracle(a, b, samples, seed=samples)
                want = reference_mc_iou(a, b, samples, samples, ellipse)
                assert got[0] == want[0] and got[1] == want[1], (case, samples)

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    def test_mc_overflowing_range_rejected(self, oracle, ellipse):
        """A sampling range wider than the largest float raises, as
        Generator.uniform does for the single draw."""
        a = OrientedBox(-1.5e308, 0, 1, 1, 0)
        b = OrientedBox(1.5e308, 0, 1, 1, 0)
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            reference_mc_iou(a, b, 10_000, 0, ellipse)
        with pytest.raises(OverflowError):
            oracle(a, b, 10_000, seed=0)

    def test_mc_extreme_extents_do_not_warn(self):
        """Extents at the ends of the accepted range overflow some samples'
        box-frame coordinates; those samples count as outside without a
        numpy warning, and the estimate keeps the single draw's bits, at an
        angle of 0.0 too, where the frame's rotation is skipped."""
        for phi in (0.3, 0.0):
            a = OrientedBox(0, 0, 1e100, 1e-100, phi)
            b = OrientedBox(1, 1, 1e-100, 1e100, 1.0 if phi else 0.0)
            with np.errstate(all="ignore"):
                want = reference_mc_iou(a, b, 10_000, 0, True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mc_ellipse_iou(a, b, 10_000, 0)
            assert got[0] == want[0] and got[1] == want[1], phi

    @pytest.mark.parametrize("a, b", [
        (OrientedBox(0, 0, 1e100, 1e-100, 0.3), OrientedBox(1, 1, 1e-100, 1e100, 1.0)),
        (OrientedBox(1e300, -1e300, 1e100, 3, 0.3), OrientedBox(1e300, -1e300, 2, 1e99, 1.0)),
        (OrientedBox(0, 0, 1e150, 1e150, 0.7), OrientedBox(1e150, 0, 1e150, 1, 0.1)),
        (OrientedBox(0, 0, 1e100, 1e-100, 0.0), OrientedBox(1, 1, 1e-100, 1e100, 0.0)),
    ])
    def test_mc_rect_extreme_extents_do_not_warn(self, a, b):
        """mc_rect_iou's twin of the test above: the absolute values and
        comparisons raise no numpy warning either."""
        with np.errstate(all="ignore"):
            want = reference_mc_iou(a, b, 10_000, 0, False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc_rect_iou(a, b, 10_000, 0)
        assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    @pytest.mark.parametrize("chunk", (1000, 4099))
    @pytest.mark.parametrize("workers", (1, 2, 3, 7))
    def test_mc_estimate_does_not_depend_on_worker_count(self, monkeypatch, oracle, ellipse,
                                                         chunk, workers):
        """Each worker draws its own contiguous run of whole chunks from the
        one seeded stream, its generator jumped ahead to the run's first
        sample with PCG64.advance, so any worker count keeps the single
        draw's bits; the calling thread runs the first run and pool threads
        the others, and no thread is left alive."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", chunk)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: workers)
        runs = []
        counts = polarjiou.oracle._mc_counts

        def recorded(a, b, seed, start, stop, frame_box, contains, stopped):
            runs.append((start, stop, threading.current_thread()))
            return counts(a, b, seed, start, stop, frame_box, contains, stopped)

        monkeypatch.setattr(polarjiou.oracle, "_mc_counts", recorded)
        caller = threading.current_thread()
        alive = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for case in sorted(MC_STREAM_CASES):
                a, b = MC_STREAM_CASES[case]
                for samples in (10_000, max(3 * chunk, MIN_MC_SAMPLES) + 7):
                    runs.clear()
                    got = oracle(a, b, samples, seed=samples)
                    assert threading.active_count() == alive
                    want = reference_mc_iou(a, b, samples, samples, ellipse)
                    assert got[0] == want[0] and got[1] == want[1], (case, samples)
                    runs.sort(key=lambda run: run[0])
                    assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
                    assert runs[-1][1] == samples
                    assert all(start % chunk == 0 for start, _, _ in runs)
                    threads = [thread for _, _, thread in runs]
                    assert threads[0] is caller and caller not in threads[1:]
                    assert len(set(threads[1:])) <= workers - 1
                    assert len(runs) == min(workers, -(-samples // chunk))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ("caller", "worker"))
    def test_mc_error_in_any_run_raised_in_caller(self, monkeypatch, failing):
        """A run that raises, in the calling thread or in a worker, raises in
        the caller once every worker is joined."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", 1000)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        caller = threading.get_ident()
        contains = polarjiou.oracle._ellipse_contains

        def failing_contains(box, x, y, frame, out):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} run failed")
            return contains(box, x, y, frame, out)

        monkeypatch.setattr(polarjiou.oracle, "_ellipse_contains", failing_contains)
        a, b = MC_STREAM_CASES["nested"]
        alive = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} run failed"):
            mc_ellipse_iou(a, b, 10_000, seed=0)
        assert threading.active_count() == alive

    @pytest.mark.parametrize("failing", ("caller", "worker"))
    def test_mc_error_in_any_run_stops_the_others(self, monkeypatch, failing):
        """Once a run raises on its first chunk, the other runs stop before
        their next chunk instead of testing their whole share."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", 1000)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        caller = threading.get_ident()
        contains = polarjiou.oracle._ellipse_contains
        tested = []

        def failing_contains(box, x, y, frame, out):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} run failed")
            tested.append(box)
            return contains(box, x, y, frame, out)

        monkeypatch.setattr(polarjiou.oracle, "_ellipse_contains", failing_contains)
        a, b = MC_STREAM_CASES["nested"]
        samples = 2_000_000
        with pytest.raises(RuntimeError, match=f"{failing} run failed"):
            mc_ellipse_iou(a, b, samples, seed=0)
        # Two containment tests per chunk.  The runs that did not fail hold a
        # third (the caller's run) or two thirds (the workers') of the chunks;
        # they test a few chunks while the failing run starts, never a
        # quarter of their share.
        share = samples // 1000 // 3 * (1 if failing == "worker" else 2)
        assert len(tested) // 2 < share // 4

    def test_mc_pool_that_cannot_start_a_thread_raises_in_caller(self, monkeypatch):
        """When the pool cannot start its second thread, the error reaches the
        caller once the thread it did start is joined."""
        submitted = []

        class OneThreadPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                if submitted:
                    raise RuntimeError("can't start new thread")
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", 1000)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        monkeypatch.setattr(polarjiou.oracle, "ThreadPoolExecutor", OneThreadPool)
        a, b = MC_STREAM_CASES["nested"]
        alive = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            mc_ellipse_iou(a, b, 10_000, seed=0)
        assert len(submitted) == 1
        assert threading.active_count() == alive

    def test_mc_extreme_extents_do_not_warn_on_workers(self, monkeypatch):
        """numpy's error state is per thread, so each worker ignores the
        overflow of its own samples' box-frame coordinates."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", 2500)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 2)
        a = OrientedBox(0, 0, 1e100, 1e-100, 0.3)
        b = OrientedBox(1, 1, 1e-100, 1e100, 1.0)
        with np.errstate(all="ignore"):
            want = reference_mc_iou(a, b, 10_000, 0, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc_ellipse_iou(a, b, 10_000, 0)
        assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    @pytest.mark.parametrize("make", (np.random.default_rng, np.random.MT19937),
                             ids=("generator", "mt19937"))
    def test_mc_shared_generator_seed_drawn_in_order(self, monkeypatch, oracle, ellipse, make):
        """A generator passed as the seed cannot be split into runs: the
        estimate and the generator's next draw match one draw from it."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", 1000)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        a, b = MC_STREAM_CASES["nested"]
        got_seed, want_seed = make(3), make(3)
        got = oracle(a, b, 10_007, seed=got_seed)
        want = reference_mc_iou(a, b, 10_007, want_seed, ellipse)
        assert got[0] == want[0] and got[1] == want[1]
        assert (np.random.default_rng(got_seed).random()
                == np.random.default_rng(want_seed).random())

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    @pytest.mark.parametrize("make", (
        lambda: np.int64(5), lambda: np.uint32(5), lambda: True, lambda: 10**400,
        lambda: [5, 11], lambda: (5, 11), lambda: np.array([5, 11]),
        lambda: np.random.SeedSequence(5),
    ), ids=("int64", "uint32", "bool", "huge_int", "list", "tuple", "array", "seed_sequence"))
    def test_mc_accepted_seed_keeps_its_bits(self, monkeypatch, oracle, ellipse, make):
        """Every seed numpy.random.default_rng takes passes the caller's check
        and gives the single draw's bits; generators are checked above."""
        monkeypatch.setattr(polarjiou.oracle, "MC_CHUNK", 1000)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        a, b = MC_STREAM_CASES["nested"]
        got = oracle(a, b, 10_007, seed=make())
        want = reference_mc_iou(a, b, 10_007, make(), ellipse)
        assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("oracle", [mc_ellipse_iou, mc_rect_iou])
    def test_mc_none_seed_accepted(self, monkeypatch, oracle):
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        estimate, se = oracle(*MC_STREAM_CASES["nested"], 100_000, seed=None)
        assert 0.0 < estimate < 1.0 and 0.0 < se < 0.01

    @pytest.mark.parametrize("oracle", [mc_ellipse_iou, mc_rect_iou])
    @pytest.mark.parametrize("seed, text", [
        (1.5, "1.5"), (np.float64(3.0), "3.0"), ("7", "7"), (-1, "-1"), ([3, -1], "[3, -1]"),
        ([1.5], "[1.5]"), (-(10**400), "-1e+400"),
    ], ids=("float", "float64", "str", "negative", "negative_entry", "float_entry", "huge_negative"))
    def test_mc_bad_seed_rejected_before_any_run(self, monkeypatch, oracle, seed, text):
        """A seed numpy.random.default_rng refuses raises ValueError naming
        seed on the calling thread, before any run or thread starts; numpy's
        reason follows the seed."""
        def fail(*args, **kwargs):
            raise AssertionError("started sampling")

        monkeypatch.setattr(polarjiou.oracle, "_mc_counts", fail)
        monkeypatch.setattr(polarjiou.oracle, "ThreadPoolExecutor", fail)
        a, b = MC_STREAM_CASES["nested"]
        prefix = f"seed must be a numpy.random.default_rng seed, got {text}: "
        with pytest.raises(ValueError) as info:
            oracle(a, b, 100_000, seed)
        assert str(info.value).startswith(prefix) and len(str(info.value)) > len(prefix)

    def test_mc_huge_sample_count_text_is_short(self):
        """The refused count prints in short form, however many digits it has."""
        a, b = MC_STREAM_CASES["nested"]
        for samples, text in ((1e300, "1e+300"), (10**400, "1e+400")):
            with pytest.raises(ValueError) as info:
                mc_ellipse_iou(a, b, samples, 0)
            assert str(info.value) == f"samples must be at most {MAX_MC_SAMPLES}, got {text}"

    @pytest.mark.parametrize("oracle", [mc_ellipse_iou, mc_rect_iou])
    @pytest.mark.parametrize("samples", (1e300, MAX_MC_SAMPLES + 1))
    def test_mc_huge_sample_count_rejected(self, monkeypatch, oracle, samples):
        """Counts above MAX_MC_SAMPLES raise before any run or thread starts;
        deviation_sweep reaches the same error through the oracle."""
        def fail(*args, **kwargs):
            raise AssertionError("started sampling")

        monkeypatch.setattr(polarjiou.oracle, "_mc_counts", fail)
        monkeypatch.setattr(polarjiou.oracle, "ThreadPoolExecutor", fail)
        a, b = MC_STREAM_CASES["nested"]
        with pytest.raises(ValueError, match="samples must be at most"):
            oracle(a, b, samples, seed=0)
        with pytest.raises(ValueError, match="samples must be at most"):
            deviation_sweep([2.0], [0.1], [16], mc_samples=samples)

    def test_mc_sample_limit_is_inclusive(self, monkeypatch):
        """MAX_MC_SAMPLES itself is split into runs like any other count."""
        runs = []

        def counted(a, b, seed, start, stop, frame_box, contains, stopped):
            runs.append((start, stop))
            return 1, 1, 1

        monkeypatch.setattr(polarjiou.oracle, "_mc_counts", counted)
        monkeypatch.setattr(polarjiou.oracle, "_mc_worker_limit", lambda: 3)
        a, b = MC_STREAM_CASES["nested"]
        assert mc_ellipse_iou(a, b, float(MAX_MC_SAMPLES), seed=0) == (1.0, 0.0)
        assert sorted(runs)[0][0] == 0 and sorted(runs)[-1][1] == MAX_MC_SAMPLES
        assert len(runs) == 3

    @pytest.mark.parametrize("oracle, ellipse", MC_ORACLES)
    def test_mc_peak_memory_bounded(self, oracle, ellipse):
        """One 1e6-sample call stays far below the 54 MiB a single draw takes."""
        a, b = MC_STREAM_CASES["nested"]
        tracemalloc.start()
        try:
            oracle(a, b, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDetection:
    def test_score_range_enforced(self):
        box = OrientedBox(0, 0, 1, 1, 0)
        with pytest.raises(InvalidBoxError):
            Detection(box, 1.5, 0)
        with pytest.raises(InvalidBoxError):
            Detection(box, math.nan, 0)

    def test_score_must_be_a_number(self):
        """A score math.isfinite cannot take is a typed error too."""
        box = OrientedBox(0, 0, 1, 1, 0)
        for score in ("0.5", None, 1j):
            with pytest.raises(InvalidBoxError, match=r"score must be finite in \[0, 1\]"):
                Detection(box, score, 0)
        det = Detection(box, np.float32(0.5), 0)
        assert type(det.score) is float and det.score == 0.5

    @pytest.mark.parametrize("score, text", SIGNED_PAST_FLOAT_RANGE)
    def test_score_past_the_float_range(self, score, text):
        """A whole number math.isfinite cannot convert is refused like inf."""
        with pytest.raises(InvalidBoxError) as info:
            Detection(OrientedBox(0, 0, 1, 1, 0), score, 0)
        assert str(info.value) == f"score must be finite in [0, 1], got {text}"

    def test_category_must_be_a_whole_number(self):
        """1.5 and -0.5 are not truncated to 1 and 0, so a category-1.5
        detection never meets a category-1.2 one in rotated_nms."""
        box = OrientedBox(0, 0, 2, 1, 0.3)
        for category in (1.5, -0.5, 1.2, math.nan, math.inf, -math.inf, np.float64(0.5),
                         "3", None, 1j):
            with pytest.raises(InvalidBoxError, match="category must be a whole number"):
                Detection(box, 0.5, category)
        for category in (2, 2.0, -3.0, True, np.int64(4), np.uint8(5), np.float32(6.0)):
            det = Detection(box, 0.5, category)
            assert type(det.category) is int and det.category == category


class TestRotatedNms:
    def test_duplicate_suppressed(self):
        box = OrientedBox(0, 0, 2, 1, 0.3)
        kept = rotated_nms([Detection(box, 0.9, 0), Detection(box, 0.8, 0)], 0.5)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_disjoint_all_survive(self):
        dets = [Detection(unit_square(cx=4.0 * i), 0.9 - 0.1 * i, 0) for i in range(4)]
        assert rotated_nms(dets, 0.5) == dets

    def test_chain_keeps_ends(self):
        """Greedy, enumerated by hand: A (0.9) is kept and suppresses B
        (IoU 0.6 > 0.5); C (0.7) clears A (IoU 1/3) and is kept.  Note two
        0.6 overlaps force the chain ends to overlap somewhat, so "below
        threshold" is the strongest separation the geometry allows."""
        a = Detection(OrientedBox(0.0, 0, 1, 1, 0), 0.9, 0)
        b = Detection(OrientedBox(0.5, 0, 1, 1, 0), 0.8, 0)
        c = Detection(OrientedBox(1.0, 0, 1, 1, 0), 0.7, 0)
        assert exact_rect_iou(a.box, b.box) == pytest.approx(0.6, abs=1e-12)
        assert exact_rect_iou(b.box, c.box) == pytest.approx(0.6, abs=1e-12)
        assert exact_rect_iou(a.box, c.box) == pytest.approx(1 / 3, abs=1e-12)
        assert rotated_nms([a, b, c], 0.5) == [a, c]

    def test_categories_do_not_interact(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        dets = [Detection(box, 0.9, 0), Detection(box, 0.8, 1)]
        assert rotated_nms(dets, 0.5) == dets

    def test_equal_scores_keep_input_order(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        far = Detection(OrientedBox(100, 0, 2, 1, 0), 0.9, 0)
        first = Detection(box, 0.9, 0)
        second = Detection(box, 0.9, 0)
        kept = rotated_nms([far, second, first], 0.5)
        assert kept == [far, second]

    def test_survivors_below_threshold_pairwise(self):
        """No two kept detections of one category exceed the threshold, and
        the output is a subset of the input in descending-score order."""
        rng = np.random.default_rng(21)
        dets = [
            Detection(random_box(rng, max_center=15.0, min_r=1.0, max_r=8.0),
                      float(rng.uniform(0, 1)), int(rng.integers(0, 2)))
            for _ in range(40)
        ]
        kept = rotated_nms(dets, 0.3)
        assert all(d in dets for d in kept)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.category == b.category:
                    assert exact_rect_iou(a.box, b.box) <= 0.3

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unpartitioned_greedy_loop(self, seed):
        """Many categories, tied scores and duplicate boxes: the per-category
        loop keeps exactly what the loop over all detections keeps."""
        rng = np.random.default_rng(100 + seed)
        protos = [random_box(rng, max_center=20.0, min_r=1.0, max_r=8.0) for _ in range(30)]
        scores = rng.choice([0.2, 0.5, 0.5, 0.9], size=120)
        dets = []
        for k in range(120):
            box = protos[int(rng.integers(len(protos)))]
            if rng.uniform() < 0.5:
                box = OrientedBox(box.cx + rng.uniform(-1, 1), box.cy + rng.uniform(-1, 1),
                                  box.r1, box.r2, box.phi + rng.uniform(-0.2, 0.2))
            dets.append(Detection(box, float(scores[k]), int(rng.integers(0, 7))))
        for thr in (0.1, 0.5, 0.9):
            assert rotated_nms(dets, thr) == reference_nms(dets, thr)

    def test_one_iou_call_per_unsuppressed_same_category_pair(self, monkeypatch):
        calls = []
        original = polarjiou.oracle.exact_rect_iou

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(polarjiou.oracle, "exact_rect_iou", counted)
        box = OrientedBox(0, 0, 2, 1, 0)
        far = OrientedBox(50, 50, 2, 1, 0)
        dets = [Detection(box, 0.9, 0), Detection(box, 0.8, 0), Detection(far, 0.7, 0),
                Detection(box, 0.6, 1)]
        assert rotated_nms(dets, 0.5) == [dets[0], dets[2], dets[3]]
        assert calls == [(box, box), (box, far)]

    def test_threshold_validated(self):
        box = OrientedBox(0, 0, 1, 1, 0)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                rotated_nms([Detection(box, 0.5, 0)], bad)

    def test_huge_threshold_text_is_short(self):
        with pytest.raises(ValueError) as info:
            rotated_nms([], 10**400)
        assert str(info.value) == "iou_threshold must be in (0, 1), got 1e+400"
