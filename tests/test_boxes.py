"""Oriented-box types, canonical form, corner codecs, annotation parsing."""

import math
import pickle
import re
import sys
import warnings
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import (
    SIGNED_PAST_FLOAT_RANGE,
    boxes,
    random_box,
    reference_canonicalize,
    reference_corner_set_distance,
    reference_corners_to_box,
)
from polarjiou import (
    OrientedBox,
    canonicalize,
    corner_set_distance,
    corners_to_box,
    decode_corners,
    load_dota_annotations,
    parse_dota_record,
    phi_distance,
    signed_area,
)
from polarjiou.boxes import iter_dota_object_lines, iter_text_lines
from polarjiou.errors import AnnotationError, DegenerateQuadError, InvalidBoxError


class TestOrientedBox:
    def test_rejects_non_positive_extents(self):
        with pytest.raises(InvalidBoxError):
            OrientedBox(0, 0, 0.0, 1, 0)
        with pytest.raises(InvalidBoxError):
            OrientedBox(0, 0, 1, -2, 0)

    def test_rejects_non_finite_values(self):
        """NaN, inf and -inf in each of the five fields raise, naming every value."""
        for k in range(5):
            for bad in (math.nan, math.inf, -math.inf):
                vals = [1.0, 2.0, 3.0, 1.5, 0.5]
                vals[k] = bad
                with pytest.raises(InvalidBoxError) as exc:
                    OrientedBox(*vals)
                assert str(exc.value) == \
                    f"non-finite box parameters ({', '.join(map(str, vals))})"

    def test_non_finite_message_prints_plain_numbers(self):
        """numpy scalars print as 1e+308 and inf, not as np.float64 reprs."""
        with pytest.raises(InvalidBoxError) as exc:
            OrientedBox(0.0, np.float64(0.5), np.float64(1e308), np.float64(np.inf), 0.9)
        assert str(exc.value) == "non-finite box parameters (0.0, 0.5, 1e+308, inf, 0.9)"

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("value, text", SIGNED_PAST_FLOAT_RANGE)
    def test_rejects_whole_numbers_past_the_float_range(self, field, value, text):
        """A whole number math.isfinite cannot convert is refused like inf,
        printed in short form."""
        vals = [1, 2, 3, 1.5, 0.5]
        vals[field] = value
        with pytest.raises(InvalidBoxError) as exc:
            OrientedBox(*vals)
        shown = ", ".join(text if k == field else str(v) for k, v in enumerate(vals))
        assert str(exc.value) == f"non-finite box parameters ({shown})"

    def test_huge_negative_extent_text_is_short(self):
        with pytest.raises(InvalidBoxError) as exc:
            OrientedBox(0, 0, 2, -(10**30), 0)
        assert str(exc.value) == "half-extents must be positive, got r1=2, r2=-1e+30"

    def test_coerces_to_float(self):
        """int, np.float32 and np.float64 in each field are stored as Python
        floats of the same value; a str raises TypeError."""
        names = ("cx", "cy", "r1", "r2", "phi")
        for k, name in enumerate(names):
            for v in (3, np.float32(2.5), np.float64(1.25)):
                vals = [1.0, 2.0, 3.0, 1.5, 0.5]
                vals[k] = v
                box = OrientedBox(*vals)
                assert [type(getattr(box, n)) for n in names] == [float] * 5
                assert getattr(box, name) == float(v)
            vals = [1.0, 2.0, 3.0, 1.5, 0.5]
            vals[k] = "1.0"
            with pytest.raises(TypeError):
                OrientedBox(*vals)


    def test_pickle_replace_equality_and_hash(self):
        box = OrientedBox(1, 2.5, np.float32(3.5), 1.5, -0.25)
        again = pickle.loads(pickle.dumps(box))
        assert again == box and hash(again) == hash(box)
        assert astuple(again) == astuple(box) == (1.0, 2.5, 3.5, 1.5, -0.25)
        assert {box, again, OrientedBox(cx=1.0, cy=2.5, r1=3.5, r2=1.5, phi=-0.25)} == {box}
        moved = replace(box, cx=4)
        assert moved == OrientedBox(4.0, 2.5, 3.5, 1.5, -0.25) and moved != box
        assert type(moved.cx) is float
        with pytest.raises(InvalidBoxError, match="half-extents must be positive"):
            replace(box, r1=-1.0)
        with pytest.raises(FrozenInstanceError):
            box.cx = 0.0


class TestCanonicalize:
    def test_axis_swap(self):
        """Swapping r1 < r2 rotates the angle by pi/2."""
        box = canonicalize(OrientedBox(0, 0, 1, 2, 0))
        assert (box.r1, box.r2) == (2.0, 1.0)
        assert box.phi == pytest.approx(math.pi / 2, abs=1e-15)

    def test_pi_periodicity(self):
        """A rectangle's orientation is pi-periodic."""
        box = canonicalize(OrientedBox(0, 0, 2, 1, math.pi))
        assert (box.r1, box.r2) == (2.0, 1.0)
        assert abs(box.phi) <= 1e-15

    def test_out_of_range_angle_keeps_point_set(self):
        """phi=2.0 wraps to 2.0 - pi; the corner sets must coincide."""
        raw = OrientedBox(0, 0, 3, 1, 2.0)
        box = canonicalize(raw)
        assert box.phi == pytest.approx(2.0 - math.pi, abs=1e-12)
        d = corner_set_distance(decode_corners(raw), decode_corners(box))
        assert d <= 1e-9

    def test_square_angle_unchanged(self):
        # squares have no long axis; the given angle is only wrapped
        box = canonicalize(OrientedBox(0, 0, 1, 1, 0.3))
        assert box.phi == 0.3

    @given(boxes())
    def test_idempotent(self, box):
        """canonicalize(canonicalize(b)) is bit-identical to canonicalize(b)."""
        once = canonicalize(box)
        twice = canonicalize(once)
        assert once == twice

    @given(boxes())
    @settings(max_examples=300)
    @example(OrientedBox(1, 2, 3, 1, math.pi / 2))
    @example(OrientedBox(1, 2, 3, 1, -math.pi / 2))
    @example(OrientedBox(1, 2, 3, 3, -math.pi / 2))
    @example(OrientedBox(1, 2, 1, 3, 0.0))
    def test_canonical_box_returned_unchanged(self, box):
        """A canonical box comes back as the same object; any other box as a
        new box with the bits of reference_canonicalize."""
        c = canonicalize(box)
        ref = reference_canonicalize(box)
        assert [v.hex() for v in astuple(c)] == [v.hex() for v in astuple(ref)]
        if box.r1 >= box.r2 and -math.pi / 2 < box.phi <= math.pi / 2:
            assert c is box
        else:
            assert c is not box
        assert canonicalize(c) is c

    @given(boxes())
    @settings(max_examples=200)
    def test_canonical_invariants(self, box):
        """The result has r1 >= r2 and phi in (-pi/2, pi/2]."""
        c = canonicalize(box)
        assert c.r1 >= c.r2
        assert -math.pi / 2 < c.phi <= math.pi / 2

    @given(boxes())
    def test_point_set_preserved(self, box):
        c = canonicalize(box)
        d = corner_set_distance(decode_corners(box), decode_corners(c))
        assert d <= 1e-9 * max(1.0, box.r1, box.r2, abs(box.cx), abs(box.cy))


class TestDecodeCorners:
    def test_returns_read_only_float_array(self):
        quad = decode_corners(OrientedBox(10, 10, 2, 1, 0.3))
        assert quad.shape == (4, 2) and quad.dtype == np.float64
        with pytest.raises(ValueError):
            quad[0, 0] = 1.0

    def test_no_rotation(self):
        quad = decode_corners(OrientedBox(10, 10, 2, 1, 0))
        expected = [(8, 9), (12, 9), (12, 11), (8, 11)]
        assert np.allclose(quad, expected, atol=1e-12)

    def test_quarter_turn(self):
        quad = decode_corners(OrientedBox(0, 0, 2, 1, math.pi / 2))
        expected = [(1, -2), (1, 2), (-1, 2), (-1, -2)]
        assert np.allclose(quad, expected, atol=1e-12)

    def test_matrix_multiply_oracle(self):
        """Each corner equals the hand-applied 2x2 rotation of the base corner."""
        phi = math.pi / 4
        quad = decode_corners(OrientedBox(0, 0, 2, 1, phi))
        c, s = math.cos(phi), math.sin(phi)
        base = [(-2, -1), (2, -1), (2, 1), (-2, 1)]
        for (bx, by), row in zip(base, quad):
            assert row[0] == pytest.approx(c * bx - s * by, abs=1e-12)
            assert row[1] == pytest.approx(s * bx + c * by, abs=1e-12)

    @given(boxes())
    @settings(max_examples=200)
    def test_clockwise_on_screen(self, box):
        """Decoded quads run clockwise in image coordinates: signed area < 0."""
        assert signed_area(decode_corners(box)) < 0

    @given(boxes())
    def test_edge_lengths(self, box):
        """Edges measure 2*r1, 2*r2, 2*r1, 2*r2 in order."""
        pts = decode_corners(box)
        edges = np.roll(pts, -1, axis=0) - pts
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        expect = [2 * box.r1, 2 * box.r2, 2 * box.r1, 2 * box.r2]
        assert np.allclose(lengths, expect, rtol=0, atol=1e-9 * max(1.0, box.r1))

    @given(boxes())
    def test_adjacent_edges_orthogonal(self, box):
        pts = decode_corners(box)
        edges = np.roll(pts, -1, axis=0) - pts
        for i in range(4):
            dot = float(np.dot(edges[i], edges[(i + 1) % 4]))
            assert abs(dot) <= 1e-9 * (4 * box.r1 * box.r2) + 1e-9


class TestSignedArea:
    def test_clockwise_rectangle_negative(self):
        assert signed_area([(8, 9), (12, 9), (12, 11), (8, 11)]) == -8.0

    def test_reversed_is_positive(self):
        assert signed_area([(8, 11), (12, 11), (12, 9), (8, 9)]) == 8.0

    def test_any_iterable_of_pairs_keeps_float_bits(self):
        """A generator or an array of pairs reads like the list, and float
        coordinates keep their bits through the check."""
        pts = [(0.1, 0.7), (3.3, 0.2), (2.9, 5.1), (-0.4, 4.4), (0.3, 2.0)]
        acc = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            acc += x1 * y0 - x0 * y1
        for corners in (pts, (p for p in pts), np.array(pts)):
            assert signed_area(corners) == 0.5 * acc

    @pytest.mark.parametrize("pts", [[], [(3.5, -2.0)], [(1e8, 3.3), (-7.1, 2e-5)]])
    def test_fewer_than_three_points_is_zero(self, pts):
        # Clipping can leave such polygons; their terms cancel exactly.
        assert signed_area(pts) == 0.0

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1e308, 0), (1e308, 1e308), (0, 1e308)],
        [(1e200, 1e200), (1e200, 1e200), (0, 1e200)],
    ], ids=["inf", "nan"])
    def test_area_past_the_float_range_raises(self, pts):
        """Finite corners whose sum overflows, to -inf or to inf - inf, raise
        rather than return an area that is not finite."""
        with pytest.raises(OverflowError, match="polygon area exceeds the float64 range"):
            signed_area(pts)


class TestCornersToBox:
    def test_axis_aligned_example(self):
        quad = np.array([(0, 0), (4, 0), (4, 2), (0, 2)], dtype=float)
        box = corners_to_box(quad)
        assert (box.cx, box.cy, box.r1, box.r2, box.phi) == (2.0, 1.0, 2.0, 1.0, 0.0)

    def test_roundtrip_identity(self):
        """corners_to_box(decode_corners(b)) reproduces canonicalize(b)."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            box = random_box(rng)
            back = corners_to_box(decode_corners(box))
            ref = canonicalize(box)
            assert back.cx == pytest.approx(ref.cx, abs=1e-6)
            assert back.cy == pytest.approx(ref.cy, abs=1e-6)
            assert back.r1 == pytest.approx(ref.r1, abs=1e-6)
            assert back.r2 == pytest.approx(ref.r2, abs=1e-6)
            assert phi_distance(back.phi, ref.phi) <= 1e-6

    def test_jittered_quad_recovered(self):
        """Corners jittered by <= 0.01 re-decode within 0.05 of the input."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            box = random_box(rng, min_r=2.0, max_r=20.0)
            pts = decode_corners(box) + rng.uniform(-0.01, 0.01, size=(4, 2))
            fitted = corners_to_box(pts)
            assert corner_set_distance(decode_corners(fitted), pts) <= 0.05

    def test_matches_numpy_reference_bit_for_bit(self):
        """Seeded quads in both windings, jittered or exact, with centers up
        to 1e9: the fit equals the numpy-array reference exactly.  Extents
        grow with the center, so corner rounding stays small against the
        box."""
        rng = np.random.default_rng(37)
        for i in range(10_000):
            scale = 10.0 ** rng.uniform(0, 9)
            min_r = max(0.5, 1e-6 * scale)
            box = random_box(rng, max_center=scale, min_r=min_r, max_r=60.0 * min_r)
            pts = decode_corners(box)
            if i % 2:
                pts = pts[::-1]
            if i % 4 >= 2:
                pts = pts + rng.normal(0.0, 0.05 * box.r2, size=(4, 2))
            pts = np.roll(pts, int(rng.integers(4)), axis=0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fitted = corners_to_box(pts)
            assert fitted == reference_corners_to_box(pts)

    @pytest.mark.parametrize("coords", [
        (1e308, 0, -1e308, 0, -1e308, 1e308, 1e308, 1e308),
        (-1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308, 1e308),
        (0, 0, 1.5e308, 0, 1.5e308, 1.5e308, 0, 1.5e308),
        (-1e308, 0, 1e308, 0, 1e308, 1, -1e308, 1),
    ], ids=["wide", "centered", "corner", "one-infinite-axis"])
    def test_overflow_raises_without_numpy_warning(self, coords):
        """A quad whose fit overflows is rejected as a non-finite box, with
        no floating-point warning printed on the way."""
        quad = np.array(coords, dtype=float).reshape(4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBoxError, match="non-finite box parameters"):
                corners_to_box(quad)

    def test_small_quad_far_from_origin(self):
        """The zero-area test uses edge differences, so a 2x1 box at 1e9,
        whose absolute-coordinate shoelace sum rounds to 0, still fits."""
        box = OrientedBox(1e9, 1e9, 1.0, 0.5, 0.3)
        back = corners_to_box(decode_corners(box))
        for got, want in zip((back.cx, back.cy, back.r1, back.r2, back.phi),
                             (box.cx, box.cy, box.r1, box.r2, box.phi)):
            assert got == pytest.approx(want, abs=1e-6)

    def test_degenerate_quad_rejected(self):
        collinear = np.array([(0, 0), (1, 0), (2, 0), (3, 0)], dtype=float)
        with pytest.raises(DegenerateQuadError):
            corners_to_box(collinear)

    def test_quad_collapsing_to_a_segment_rejected(self):
        """A nonzero area (1e-11) whose short side (1e-13) is below the floor."""
        with pytest.raises(DegenerateQuadError, match="quad collapses to a segment"):
            corners_to_box([(0, 0), (1e-13, 0), (1e-13, 100), (0, 100)])

    def test_skewed_quad_warns(self):
        skew = np.array([(0, 0), (4, 0), (5.0, 2), (1.0, 2)], dtype=float)
        with pytest.warns(UserWarning):
            corners_to_box(skew)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_collinear_quad_rejected_at_any_scale(self, scale):
        """At 1e200 the axes' cross product is inf - inf; the test takes it
        of the scaled axes, where it is exactly 0."""
        quad = np.array([(0, 0), (1, 1), (2, 2), (1, 1)]) * scale
        with pytest.raises(DegenerateQuadError, match="near-"):
            corners_to_box(quad)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_skewed_quad_warns_at_any_scale(self, scale):
        """At 1e200 the skew's dot product and the lengths' product are inf."""
        quad = np.array([(0, 0), (1, 0), (1.5, 1), (0.5, 1)]) * scale
        with pytest.warns(UserWarning, match="by 0.464 rad"):
            corners_to_box(quad)

    def test_large_square_fits(self):
        quad = np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert corners_to_box(quad) == OrientedBox(5e199, 5e199, 5e199, 5e199, 0.0)

    @pytest.mark.parametrize("quad", [
        np.array([(0, 0), (4, 0), (4, 2), (0, 2)]),
        [[0, 0], [4, 0], [4, 2], [0, 2]],
    ], ids=["int-array", "nested-list"])
    def test_accepts_any_four_by_two_array_like(self, quad):
        assert corners_to_box(quad) == OrientedBox(2.0, 1.0, 2.0, 1.0, 0.0)

    @pytest.mark.parametrize("quad", [np.zeros((3, 2)), np.zeros(8)], ids=["3x2", "flat"])
    def test_wrong_shape_rejected(self, quad):
        with pytest.raises(InvalidBoxError, match=r"corner array must have shape \(4, 2\)"):
            corners_to_box(quad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_corner_rejected(self, bad):
        quad = [[0, 0], [4, 0], [4, bad], [0, 2]]
        with pytest.raises(InvalidBoxError, match="non-finite corner coordinates"):
            corners_to_box(quad)


class TestCornerSetDistance:
    def test_cyclic_shift_is_zero(self):
        pts = decode_corners(OrientedBox(1, 2, 3, 1, 0.4))
        assert corner_set_distance(pts, np.roll(pts, 2, axis=0)) == 0.0

    def test_reversed_winding_is_zero(self):
        pts = decode_corners(OrientedBox(1, 2, 3, 1, 0.4))
        assert corner_set_distance(pts, pts[::-1]) == 0.0

    def test_translation_detected(self):
        pts = decode_corners(OrientedBox(0, 0, 3, 1, 0.4))
        assert corner_set_distance(pts, pts + 0.5) == pytest.approx(0.5)

    def test_matches_roll_loop(self):
        """The index-table gather gives the roll loop's bits on exact,
        shifted, reversed and jittered quads."""
        rng = np.random.default_rng(5)
        for i in range(400):
            pa = decode_corners(random_box(rng))
            pb = np.roll(pa, int(rng.integers(4)), axis=0)
            if i % 2:
                pb = pb[::-1]
            if i % 4 > 1:
                pb = pb + rng.normal(0.0, 10.0 ** -rng.uniform(1, 9), size=(4, 2))
            if i % 8 == 7:
                pb = decode_corners(random_box(rng))
            assert corner_set_distance(pa, pb) == reference_corner_set_distance(pa, pb)

    def test_wrong_shape_rejected(self):
        pts = decode_corners(OrientedBox(0, 0, 3, 1, 0.4))
        with pytest.raises(InvalidBoxError, match=re.escape(
                "corner array must have shape (4, 2), got (3, 2)")):
            corner_set_distance(pts, pts[:3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_corner_rejected(self, bad, side):
        pts = decode_corners(OrientedBox(0, 0, 3, 1, 0.4))
        other = np.array(pts)
        other[2, 1] = bad
        args = (other, pts) if side == "a" else (pts, other)
        with pytest.raises(InvalidBoxError, match="non-finite corner coordinates"):
            corner_set_distance(*args)

    def test_overflowing_deviation_raises_without_warning(self):
        """Finite quads near +1e308 and -1e308 differ by more than the
        largest float under every shift."""
        quad = np.array([[1.0, 1.0], [1.5, 1.0], [1.5, 1.5], [1.0, 1.5]]) * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="corner deviation exceeds the float64 range"):
                corner_set_distance(quad, -quad)


class TestPhiDistance:
    def test_modulo_pi(self):
        assert phi_distance(0.3, 0.3 + math.pi) <= 1e-15
        assert phi_distance(-1.5, 1.6416) == pytest.approx(3.1416 - math.pi, abs=1e-12)

    def test_symmetric(self):
        assert phi_distance(0.2, 1.0) == phi_distance(1.0, 0.2)

    def test_finite_for_huge_angles(self):
        """a - b overflows here, but each angle reduced modulo pi does not."""
        huge = sys.float_info.max
        for a, b in ((1e308, -1e308), (-1.7e308, 1.7e308), (huge, -huge)):
            got = phi_distance(a, b)
            assert 0.0 <= got <= math.pi / 2
            assert got == phi_distance(b, a)
            ra, rb = math.remainder(a, math.pi), math.remainder(b, math.pi)
            assert got == abs(math.remainder(ra - rb, math.pi))

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.3),
                                      (math.nan, math.nan)])
    def test_non_finite_angle_rejected(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"got a={a} and b={b}")):
            phi_distance(a, b)

    def test_canonical_angles_keep_their_bits(self):
        """Angles in [-pi/2, pi/2] are not moved by the reduction."""
        rng = np.random.default_rng(3)
        half = math.pi / 2
        angles = [-half, half, 0.0, -0.0, *rng.uniform(-half, half, 200)]
        for a, b in zip(angles, angles[::-1]):
            assert phi_distance(a, b) == abs(math.remainder(a - b, math.pi))


class TestDotaParsing:
    def test_basic_record(self):
        quad, cat, diff = parse_dota_record("0 0 4 0 4 2 0 2 plane 0")
        assert cat == "plane" and diff == 0
        assert np.array_equal(quad, [[0, 0], [4, 0], [4, 2], [0, 2]])

    def test_returns_read_only_float_array(self):
        quad, _, _ = parse_dota_record("0 0 4 0 4 2 0 2 plane 0")
        assert quad.shape == (4, 2) and quad.dtype == np.float64
        with pytest.raises(ValueError):
            quad[0, 0] = 1.0

    def test_coordinates_lossless(self):
        """Decimal coordinates survive parsing bit-exactly."""
        line = "1.5 2.25 100.125 2.25 100.125 50.0625 1.5 50.0625 harbor 1"
        quad, cat, diff = parse_dota_record(line)
        assert quad[0, 0] == 1.5
        assert quad[1, 0] == 100.125
        assert quad[3, 1] == 50.0625
        assert (cat, diff) == ("harbor", 1)

    def test_malformed_line_names_lineno(self):
        with pytest.raises(AnnotationError, match="line 7"):
            parse_dota_record("0 0 4 0 plane", lineno=7)

    def test_non_numeric_coordinate(self):
        with pytest.raises(AnnotationError):
            parse_dota_record("0 0 x 0 4 2 0 2 plane 0", lineno=1)

    def test_non_integer_difficulty_names_lineno(self):
        with pytest.raises(AnnotationError, match="line 3: non-integer difficulty 'x'"):
            parse_dota_record("0 0 1 0 1 1 0 1 plane x", 3)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_coordinate_names_lineno(self, token):
        with pytest.raises(AnnotationError, match="line 4: non-finite corner coordinate"):
            parse_dota_record(f"0 0 4 0 4 {token} 0 2 plane 0", lineno=4)

    def test_non_finite_record_in_file_names_its_line(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("gsd:1.0\n0 0 4 0 4 2 0 2 plane 0\n\n0 nan 4 0 4 2 0 2 ship 0\n")
        with pytest.raises(AnnotationError, match="line 4: non-finite"):
            load_dota_annotations(path)

    def test_file_skips_metadata(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text(
            "imagesource:GoogleEarth\ngsd:0.146\n\n"
            "0 0 4 0 4 2 0 2 plane 0\n"
            "10 10 14 10 14 12 10 12 ship 1\n"
        )
        records = load_dota_annotations(path)
        assert [cat for _, cat, _ in records] == ["plane", "ship"]

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_file(self, tmp_path, name):
        with pytest.raises(AnnotationError, match="cannot read"):
            load_dota_annotations(tmp_path / name)


class TestTextLines:
    def test_true_line_numbers_over_blank_lines(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("a\n\n   \n  b  \r\n\tc\n\n")
        assert list(iter_text_lines(path)) == [(1, "a"), (4, "b"), (5, "c")]

    def test_dota_lines_drop_metadata_keep_numbers(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("imagesource:x\n\ngsd:1.0\n0 0 4 0 4 2 0 2 plane 0\n\n"
                        "1 1 5 1 5 3 1 3 ship 0\n")
        assert list(iter_dota_object_lines(path)) == [
            (4, "0 0 4 0 4 2 0 2 plane 0"), (6, "1 1 5 1 5 3 1 3 ship 0")]
