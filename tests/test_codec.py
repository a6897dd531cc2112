"""Heatmap/offset/parameter target encoding, the losses on those targets,
and the peak-extraction decode path."""

import itertools
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarjiou import (
    OrientedBox,
    canonicalize,
    decode_detections,
    encode_decode_roundtrip,
    encode_offset,
    encode_targets,
    extract_peaks,
    focal_loss,
    gaussian_sigma,
    render_heatmap,
    smooth_l1,
    total_loss,
)
from helpers import (
    PAST_FLOAT_RANGE,
    boxes,
    reference_extract_peaks,
    reference_heatmap,
    reference_smooth_l1,
)
from polarjiou.codec import DEFAULT_MU, EXP_UNDERFLOW_ARG, target_grid
from polarjiou.errors import (
    GridAllocationError,
    InvalidBoxError,
    InvalidLossError,
    OutOfImageError,
    ShapeError,
)


def lattice_objects(rng, count, num_classes, height, width, stride,
                    min_r=1.0, max_r=6.0, max_ar=4.0):
    """Random boxes on distinct cells spaced 3 apart, 2 cells off the border,
    so every center survives 3x3 peak extraction."""
    lat_h = (height - 4) // 3
    lat_w = (width - 4) // 3
    slots = rng.choice(lat_h * lat_w, size=count, replace=False)
    objects = []
    for slot in slots:
        cell_y = 2 + 3 * (int(slot) // lat_w)
        cell_x = 2 + 3 * (int(slot) % lat_w)
        cx = (cell_x + rng.uniform(0.0, 1.0)) * stride
        cy = (cell_y + rng.uniform(0.0, 1.0)) * stride
        r2 = rng.uniform(min_r, max_r)
        r1 = r2 * rng.uniform(1.0, max_ar)
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        cls = int(rng.integers(0, num_classes))
        objects.append((canonicalize(OrientedBox(cx, cy, r1, r2, phi)), cls))
    return objects


class TestGaussianSigma:
    def test_short_side_spans_three_sigma(self):
        box = OrientedBox(0, 0, 48, 24, 0)
        assert gaussian_sigma(box, 4) == 48 / 24.0

    def test_floored_at_one_cell(self):
        assert gaussian_sigma(OrientedBox(0, 0, 2, 1, 0), 4) == 1.0

    @pytest.mark.parametrize("stride", [0, math.nan, -4, math.inf])
    def test_bad_stride_rejected(self, stride):
        """A stride that is not finite and >= 1 is refused, as encode_offset
        refuses it, instead of dividing by zero or flooring to one cell."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="stride must be finite and >= 1"):
                gaussian_sigma(OrientedBox(0, 0, 48, 24, 0), stride)

    def test_finite_for_the_largest_boxes(self):
        """Twice a short side past about 9e307 would overflow; the sigma
        does not."""
        box = OrientedBox(0, 0, 1.7e308, 1.6e308, 0)
        assert gaussian_sigma(box, 4) == 1.6e308 / 12.0

    def test_bits_of_the_short_side_over_six_strides(self):
        """Doubling both operands of the division keeps its rounding, so the
        sigma has the bits of min(2 r1, 2 r2) / (6 stride) wherever those
        stay finite."""
        rng = np.random.default_rng(35)
        for _ in range(2000):
            r1, r2 = 10.0 ** rng.uniform(-100.0, 300.0, size=2)
            stride = 10.0 ** rng.uniform(0, 300) if rng.random() < 0.5 else int(rng.integers(1, 64))
            expected = max(1.0, min(2.0 * r1, 2.0 * r2) / (6.0 * stride))
            assert gaussian_sigma(OrientedBox(0, 0, r1, r2, 0.3), stride) == expected


@pytest.mark.parametrize("call", [
    lambda stride: encode_offset(1.0, 1.0, stride),
    lambda stride: gaussian_sigma(OrientedBox(0, 0, 48, 24, 0), stride),
    lambda stride: render_heatmap([(OrientedBox(5, 5, 2, 1, 0), 0)], 1, 4, 4, stride),
    lambda stride: decode_detections([(0, 1, 1, 0.9)], np.zeros((2, 4, 4)),
                                     np.ones((3, 4, 4)), stride),
], ids=["encode_offset", "gaussian_sigma", "render_heatmap", "decode_detections"])
@pytest.mark.parametrize("stride, text", PAST_FLOAT_RANGE)
def test_stride_past_the_float_range_rejected(call, stride, text):
    """A whole-number stride past the largest float is refused with the
    stride's ValueError, not an OverflowError from the first division."""
    with pytest.raises(ValueError) as info:
        call(stride)
    assert str(info.value) == f"stride must be finite and >= 1, got {text}"


def test_largest_float_stride_accepted():
    assert gaussian_sigma(OrientedBox(0, 0, 48, 24, 0), int(sys.float_info.max)) == 1.0


class TestRenderHeatmap:
    def test_center_cell_is_one(self):
        box = OrientedBox(40, 40, 8, 4, 0)
        target = render_heatmap([(box, 0)], 1, 32, 32, 4)
        assert target[0, 10, 10] == 1.0
        assert encode_targets([(box, 0)], 1, 32, 32, 4).positives == ((0, 10, 10),)

    def test_half_maximum_radius(self):
        """A cell at grid distance sigma*sqrt(2 ln 2) reads 0.5; the box is
        sized so that distance is exactly 3 cells."""
        d = 3
        sigma = d / math.sqrt(2.0 * math.log(2.0))
        r2 = 6.0 * 4 * sigma / 2.0
        box = OrientedBox(10 * 4, 10 * 4, 2 * r2, r2, 0.0)
        assert gaussian_sigma(box, 4) == pytest.approx(sigma, abs=1e-12)
        target = render_heatmap([(box, 0)], 1, 32, 32, 4)
        assert target[0, 10, 10 + d] == pytest.approx(0.5, abs=1e-9)

    def test_overlap_is_pointwise_max(self):
        """Joint render equals the elementwise max of per-object renders."""
        a = OrientedBox(40, 40, 20, 15, 0.3)
        b = OrientedBox(52, 44, 18, 12, -0.5)
        joint = render_heatmap([(a, 0), (b, 0)], 1, 32, 32, 4)
        alone_a = render_heatmap([(a, 0)], 1, 32, 32, 4)
        alone_b = render_heatmap([(b, 0)], 1, 32, 32, 4)
        assert np.array_equal(joint, np.maximum(alone_a, alone_b))

    def test_order_independent(self):
        objs = [
            (OrientedBox(40, 40, 20, 15, 0.3), 0),
            (OrientedBox(52, 44, 18, 12, -0.5), 0),
            (OrientedBox(80, 80, 10, 5, 1.0), 1),
        ]
        for perm in itertools.permutations(objs):
            assert np.array_equal(
                render_heatmap(list(perm), 2, 32, 32, 4),
                render_heatmap(objs, 2, 32, 32, 4),
            )

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(13)
        objs = lattice_objects(rng, 10, 3, 40, 40, 4)
        enc = encode_targets(objs, 3, 40, 40, 4)
        target = enc.heatmap
        assert np.all(target >= 0.0) and np.all(target <= 1.0)
        for cls, cx, cy in enc.positives:
            assert target[cls, cy, cx] == 1.0

    def test_center_outside_grid_rejected(self):
        box = OrientedBox(400, 40, 8, 4, 0)
        with pytest.raises(OutOfImageError):
            render_heatmap([(box, 0)], 1, 32, 32, 4)

    @pytest.mark.parametrize("encode", [render_heatmap, encode_targets, encode_decode_roundtrip])
    def test_far_center_cell_text_is_short(self, encode):
        """A cell index past 24 digits prints in short form, not 301 digits."""
        box = OrientedBox(1e300, 5.5, 8, 4, 0)
        with pytest.raises(OutOfImageError) as info:
            encode([(box, 0)], 1, 4, 4, 1)
        assert str(info.value) == "center cell (1e+300, 5) outside 4x4 grid"

    def test_class_out_of_range_rejected(self):
        box = OrientedBox(40, 40, 8, 4, 0)
        with pytest.raises(ShapeError):
            render_heatmap([(box, 5)], 2, 32, 32, 4)

    def test_huge_class_text_is_short(self):
        with pytest.raises(ShapeError) as info:
            render_heatmap([(OrientedBox(1, 1, 2, 1, 0), 10**400)], 2, 4, 4, 1)
        assert str(info.value) == "class 1e+400 outside [0, 2) or not a whole number"

    @pytest.mark.parametrize("encode", [render_heatmap, encode_targets])
    @pytest.mark.parametrize("stride", [0, -3, math.nan, math.inf])
    def test_bad_stride_rejected_without_objects(self, encode, stride):
        """The stride is checked even when no object would use it, as
        encode_decode_roundtrip checks it."""
        with pytest.raises(ValueError, match="stride must be finite and >= 1"):
            encode([], 1, 4, 4, stride)

    def test_fractional_class_rejected(self):
        """A class that is not a whole number is refused, not truncated
        into the class below it; whole ints, numpy ints and floats pass."""
        box = OrientedBox(10, 10, 4, 2, 0.3)
        with pytest.raises(ShapeError):
            render_heatmap([(box, 1.5)], 3, 8, 8, 4)
        with pytest.raises(ShapeError):
            encode_targets([(box, 1.5)], 3, 8, 8, 4)
        with pytest.raises(ShapeError):
            render_heatmap([(box, math.nan)], 3, 8, 8, 4)
        for cls in (1, np.int64(1), 1.0):
            enc = encode_targets([(box, cls)], 3, 8, 8, 4)
            assert enc.positives == ((1, 2, 2),) and enc.heatmap[1, 2, 2] == 1.0

    @pytest.mark.parametrize("arg", ["num_classes", "height", "width"])
    @pytest.mark.parametrize("value", [-1, 2.5, math.nan])
    def test_grid_size_not_a_count_rejected(self, arg, value):
        """Each grid size must be a whole number >= 0; the error names it,
        in encode_targets too, which renders the heatmap first."""
        sizes = {"num_classes": 2, "height": 8, "width": 8, arg: value}
        for build in (render_heatmap, encode_targets):
            with pytest.raises(ValueError, match=f"{arg} must be a whole number >= 0"):
                build([], stride=4, **sizes)

    def test_whole_grid_sizes_accepted(self):
        """Zero classes with no objects is an empty grid; numpy integers and
        whole floats count as their integer value."""
        assert render_heatmap([], 0, 3, 5, 4).shape == (0, 3, 5)
        enc = encode_targets([], np.int64(2), 3.0, np.int32(5), 4)
        assert enc.heatmap.shape == (2, 3, 5)
        assert enc.offset_map.shape == (2, 3, 5) and enc.param_map.shape == (3, 3, 5)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestTargetGrid:
    @pytest.mark.parametrize("shape", [(1, 250000002, 250000002), (1, 25000000002, 25000000002)])
    def test_unallocatable_grid_names_its_shape(self, shape):
        """About 5e17 bytes fails before memory is touched; the second shape
        is past numpy's intp byte range, where numpy raises ValueError."""
        with pytest.raises(GridAllocationError, match="x".join(map(str, shape))) as info:
            target_grid(shape)
        assert info.value.shape == shape

    def test_huge_grid_text_is_short(self):
        with pytest.raises(GridAllocationError) as info:
            render_heatmap([], 1, 1e300, 1, 4)
        assert str(info.value) == "cannot allocate the 1x1e+300x1 target grid"
        assert info.value.shape == (1, int(1e300), 1)

    def test_negative_sizes_stay_value_errors(self):
        with pytest.raises(ValueError) as info:
            target_grid((1, -2, 3))
        assert not isinstance(info.value, GridAllocationError)

    def test_zero_grid(self):
        grid = target_grid((2, 3, 4))
        assert grid.shape == (2, 3, 4) and grid.dtype == np.float64 and not grid.any()


class TestWindowedHeatmap:
    """render_heatmap stamps only where the Gaussian is non-zero; the values
    must equal the full-grid evaluation bit for bit, centers included."""

    def test_exp_is_zero_past_the_bound(self):
        assert math.exp(-EXP_UNDERFLOW_ARG) == 0.0

    def test_one_cell_sigma_on_a_large_grid(self):
        box = OrientedBox(200, 200, 2, 1, 0.3)
        assert gaussian_sigma(box, 4) == 1.0
        objs = [(box, 0)]
        assert same_bits(render_heatmap(objs, 1, 128, 128, 4),
                         reference_heatmap(objs, 1, 128, 128, 4))

    def test_window_covering_the_whole_grid(self):
        box = OrientedBox(60, 70, 400, 300, 0.2)
        assert gaussian_sigma(box, 4) * math.sqrt(2 * EXP_UNDERFLOW_ARG) > 40
        # The last box's sigma overflows to inf, which stamps 1.0 everywhere.
        objs = [(box, 1), (OrientedBox(10, 150, 2, 1, 0), 1),
                (OrientedBox(100, 20, 1e308, 1e308, 0), 0)]
        assert same_bits(render_heatmap(objs, 2, 40, 40, 4),
                         reference_heatmap(objs, 2, 40, 40, 4))

    def test_objects_on_grid_corners(self):
        size, stride = 96, 4
        far = size * stride - 0.5
        objs = [(OrientedBox(x, y, r, r / 2, 0.0), k % 3)
                for k, ((x, y), r) in enumerate(zip(
                    [(0.0, 0.0), (far, 0.0), (0.0, far), (far, far)], (2.0, 30.0, 90.0, 400.0)))]
        assert same_bits(render_heatmap(objs, 3, size, size, stride),
                         reference_heatmap(objs, 3, size, size, stride))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenes_many_classes(self, seed):
        rng = np.random.default_rng(60 + seed)
        height, width, stride = 150, 110, 4
        objs = []
        for _ in range(40):
            r2 = 10.0 ** rng.uniform(0.0, 2.5)
            box = OrientedBox(rng.uniform(0, width * stride), rng.uniform(0, height * stride),
                              r2 * rng.uniform(1.0, 4.0), r2, rng.uniform(-1.5, 1.5))
            objs.append((box, int(rng.integers(0, 5))))
        assert same_bits(render_heatmap(objs, 5, height, width, stride),
                         reference_heatmap(objs, 5, height, width, stride))

    def test_stamps_shared_across_sigmas(self, monkeypatch):
        """One call mixing repeated sigmas, distinct sigmas, a sigma whose
        reach overflows to inf and objects on every grid corner: each stamp
        is computed once per sigma and sliced per object, and the values are
        the full-grid evaluation bit for bit."""
        height, width, stride = 50, 70, 4
        fx, fy = width * stride - 0.5, height * stride - 0.5
        corners = [(0.0, 0.0), (fx, 0.0), (0.0, fy), (fx, fy)]
        objs = [(OrientedBox(x, y, 6.0, 3.0, 0.4), k % 2) for k, (x, y) in enumerate(corners)]
        objs += [(OrientedBox(x, y, 90.0, 60.0, -0.3), 2) for x, y in corners]
        objs += [(OrientedBox(100.0 + 9 * k, 80.0 + 5 * k, 5.0 * k, 4.0 * k, 0.1), k % 3)
                 for k in range(1, 12)]
        # The largest sigma on a corner: its stamp must reach the far side.
        objs.append((OrientedBox(0.5, fy, 1e308, 1e308, 0.0), 3))
        sigmas = [gaussian_sigma(box, stride) for box, _ in objs]
        assert sigmas.count(1.0) >= 4 and sigmas.count(sigmas[4]) == 4
        assert sigmas[-1] == 1e308 / 12.0 and len(set(sigmas)) > 8
        assert math.isinf(sigmas[-1] * math.sqrt(2.0 * EXP_UNDERFLOW_ARG))
        exp_calls = []

        def counted_exp(x, *args, **kwargs):
            exp_calls.append(np.shape(x))
            return np_exp(x, *args, **kwargs)

        np_exp = np.exp
        monkeypatch.setattr(np, "exp", counted_exp)
        values = render_heatmap(objs, 4, height, width, stride)
        monkeypatch.undo()
        assert len(exp_calls) == len(set(sigmas))
        assert same_bits(values, reference_heatmap(objs, 4, height, width, stride))

    @pytest.mark.parametrize("centers, stamp_shape", [
        ([(2.0, 2.0)], (2, 1500)),
        ([(2.0, 2.0), (5990.0, 6.0)], (3, 2997)),
    ])
    def test_stamp_spans_only_the_clipped_windows(self, monkeypatch, centers, stamp_shape):
        """A huge sigma on an elongated grid reaches past the long side, but
        its stamp spans only the offsets the clipped windows need, not a
        square of the long side; the call's traced peak stays below the grid
        plus three stamps (the stamp and its offset vectors)."""
        height, width, stride = 2, 1500, 4
        objs = [(OrientedBox(x, y, 1e6, 1e6, 0.0), 0) for x, y in centers]
        assert gaussian_sigma(objs[0][0], stride) > width
        exp_calls = []

        def counted_exp(x, *args, **kwargs):
            exp_calls.append(np.shape(x))
            return np_exp(x, *args, **kwargs)

        np_exp = np.exp
        monkeypatch.setattr(np, "exp", counted_exp)
        tracemalloc.start()
        try:
            values = render_heatmap(objs, 1, height, width, stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert exp_calls == [stamp_shape]
        assert peak < values.nbytes + 3 * 8 * math.prod(stamp_shape)
        assert same_bits(values, reference_heatmap(objs, 1, height, width, stride))

    def test_one_stamp_alive_for_distinct_sigmas(self):
        """Forty objects with forty sigmas, most windows covering the whole
        grid: one stamp is alive at a time, so the traced peak stays below
        five grid sizes."""
        size, stride = 100, 4
        objs = [(OrientedBox(4.0 + 9.7 * k, 390.0 - 9.3 * k, 40.0 + 30.0 * k, 30.0 + 25.0 * k,
                             0.1 * k), 0) for k in range(40)]
        assert len({gaussian_sigma(box, stride) for box, _ in objs}) == 40
        tracemalloc.start()
        try:
            values = render_heatmap(objs, 1, size, size, stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * values.nbytes
        assert same_bits(values, reference_heatmap(objs, 1, size, size, stride))


class TestHeatmapTargetStorage:
    """Target arrays are read-only with no writeable alias."""

    def test_render_keeps_its_grid(self):
        """One small object on a large grid: the grid is allocated once and
        returned without a copy."""
        objs = [(OrientedBox(800.0, 800.0, 4.0, 2.0, 0.0), 0)]
        tracemalloc.start()
        try:
            values = render_heatmap(objs, 1, 400, 400, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not values.flags.writeable and values.base is None
        assert peak < 1.25 * values.nbytes

    @pytest.mark.parametrize("field", ["offset_map", "param_map"])
    def test_regression_maps_read_only(self, field):
        enc = encode_targets([(OrientedBox(41.0, 37.0, 10.0, 4.0, 0.6), 0)], 1, 16, 16, 4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(enc, field)[:, 9, 10] = 0.0


class TestFocalLoss:
    def single_cell_target(self):
        return np.ones((1, 1, 1))

    def test_perfect_prediction_near_zero(self):
        """Predicting 1 at positives and 0 elsewhere (clamped inward) leaves
        only clamp residue."""
        rng = np.random.default_rng(1)
        objs = lattice_objects(rng, 4, 2, 32, 32, 4)
        target = render_heatmap(objs, 2, 32, 32, 4)
        pred = np.where(target == 1.0, 1.0, 0.0)
        assert 0.0 <= focal_loss(pred, target) <= 1e-5

    def test_half_confidence_positive(self):
        """One positive cell predicted at 0.5 costs (1-0.5)^2 * ln 2."""
        loss = focal_loss(np.full((1, 1, 1), 0.5), self.single_cell_target())
        assert loss == pytest.approx(0.25 * math.log(2), abs=1e-12)

    def test_cellwise_transcription_oracle(self):
        """A 2x2 map with one positive matches the formula transcribed
        literally cell by cell."""
        y = np.array([[[1.0, 0.6], [0.2, 0.0]]])
        pred = np.array([[[0.7, 0.4], [0.3, 0.1]]])
        alpha, gamma = 4.0, 2.0
        acc = 0.0
        for cy in range(2):
            for cx in range(2):
                pt = min(max(pred[0, cy, cx], 1e-7), 1 - 1e-7)
                if y[0, cy, cx] == 1.0:
                    acc += (1 - pt) ** gamma * math.log(pt)
                else:
                    acc += (1 - y[0, cy, cx]) ** alpha * pt ** gamma * math.log(1 - pt)
        expected = -acc / 1
        assert focal_loss(pred, y, alpha, gamma) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0, 1, size=(1, 3, 3))
        y[0, 1, 1] = 1.0
        pred = rng.uniform(0, 1, size=(1, 3, 3))
        assert focal_loss(pred, y) >= 0.0

    def test_monotone_in_positive_confidence(self):
        target = self.single_cell_target()
        losses = [focal_loss(np.full((1, 1, 1), pt), target)
                  for pt in (0.1, 0.3, 0.5, 0.7, 0.9, 0.999)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_no_positives_floors_count(self):
        loss = focal_loss(np.full((1, 2, 2), 0.4), np.zeros((1, 2, 2)))
        assert math.isfinite(loss) and loss > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            focal_loss(np.zeros((1, 2, 3)), self.single_cell_target())

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2)])
    def test_target_not_three_dimensional(self, shape):
        """A target of matching shape but not (C, H, W) is rejected too."""
        with pytest.raises(ShapeError):
            focal_loss(np.zeros(shape), np.zeros(shape))

    def test_all_terms_underflow_to_positive_zero(self):
        """At gamma 5000 every term underflows to a signed zero, and the
        loss is +0.0, not its negation."""
        loss = focal_loss(np.full((1, 1, 1), 0.5), self.single_cell_target(), gamma=5000.0)
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0

    @pytest.mark.parametrize("where, value", [("pred", math.nan), ("target", math.nan)])
    def test_non_finite_focal_loss_rejected_without_warning(self, where, value):
        """A NaN prediction or target cell is refused before the loss is
        computed, the target as a value outside [0, 1].  Any warning fails,
        whatever its wording, which differs between numpy versions."""
        pred = np.full((1, 4, 4), 0.2)
        target = np.zeros((1, 4, 4))
        target[0, 1, 1] = 1.0
        (pred if where == "pred" else target)[0, 0, 0] = value
        error, message = ((InvalidLossError, "non-finite heatmap prediction nan") if where == "pred"
                          else (ValueError, r"target values must lie in \[0, 1\], got nan"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message) as info:
                focal_loss(pred, target, alpha=2.5)
        assert type(info.value) is error

    @pytest.mark.parametrize("pred", [0.0, 1.0, 1e308, -1e308, 0.5])
    def test_finite_maps_give_a_finite_loss_without_warning(self, pred):
        """The clip bounds every power's base by 1 and every log below, so
        any finite prediction and exponents give a finite loss."""
        rng = np.random.default_rng(40)
        target = render_heatmap(lattice_objects(rng, 6, 2, 50, 50, 4), 2, 50, 50, 4)
        assert 0.0 < target.max() and np.any((0.0 < target) & (target < 1.0))
        exponents = [0.0, 0.5, 4.0, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, gamma in itertools.product(exponents, exponents):
                loss = focal_loss(np.full(target.shape, pred), target, alpha, gamma)
                assert math.isfinite(loss) and loss >= 0.0

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    @pytest.mark.parametrize("value", [math.inf, 3.0, -2.0])
    def test_focal_target_outside_unit_interval_rejected(self, value, alpha):
        """(1 - y)^alpha grows past 1 off [0, 1]: with an integer alpha the
        loss would stay finite and silently wrong (1.0568 reads 1.1907 at
        y = 3 and 1.7709 at y = -2 on a (1, 2, 2) map)."""
        pred = np.full((1, 4, 4), 0.2)
        target = np.zeros((1, 4, 4))
        target[0, 1, 1] = 1.0
        target[0, 0, 0] = value
        with pytest.raises(ValueError, match=r"target values must lie in \[0, 1\]"):
            focal_loss(pred, target, alpha=alpha)

    def test_focal_exponents_must_be_finite_and_non_negative(self):
        """The rule of the CLI's --alpha and --gamma; zero is allowed and
        drops the weights, so a lone positive costs -ln(pt)."""
        pred, target = np.full((1, 1, 1), 0.5), self.single_cell_target()
        for name in ("alpha", "gamma"):
            for value in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
                with pytest.raises(ValueError, match="alpha and gamma must be finite and >= 0"):
                    focal_loss(pred, target, **{name: value})
        assert focal_loss(pred, target, 0.0, 0.0) == pytest.approx(math.log(2), abs=1e-15)

    @pytest.mark.parametrize("name", ["alpha", "gamma"])
    @pytest.mark.parametrize("value, text", PAST_FLOAT_RANGE)
    def test_focal_exponents_past_the_float_range(self, name, value, text):
        """A whole number past the largest float is refused, not raised to."""
        pred, target = np.full((1, 1, 1), 0.5), self.single_cell_target()
        exponents = {"alpha": 4.0, "gamma": 2.0, name: value}
        with pytest.raises(ValueError) as info:
            focal_loss(pred, target, **exponents)
        shown = ", ".join(text if k == name else str(v) for k, v in exponents.items())
        assert str(info.value) == f"alpha and gamma must be finite and >= 0, got {shown}"


class TestSmoothL1:
    def test_identical_tuples(self):
        t = (0.3, 2.0, 1.0, 0.25, 0.75)
        assert smooth_l1(t, t) == 0.0

    def test_quadratic_region(self):
        """A single component off by 0.5 costs 0.5 * 0.5^2 = 0.125."""
        assert smooth_l1((0.5, 0, 0, 0, 0), (0.0, 0, 0, 0, 0)) == 0.125

    def test_linear_region(self):
        """A single component off by 2 costs 2 - 0.5 = 1.5."""
        assert smooth_l1((2.0, 0, 0, 0, 0), (0.0, 0, 0, 0, 0)) == 1.5

    def test_components_summed(self):
        pred = (0.5, 2.0, 0, 0, 0)
        assert smooth_l1(pred, (0, 0, 0, 0, 0)) == pytest.approx(0.125 + 1.5)

    def test_huge_difference_is_linear_without_warning(self):
        """The quadratic branch is not squared where it is discarded, so a
        difference of 2e200 costs 2e200 - 0.5 with no overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert smooth_l1((0, 1e200, 0, 0, 0), (0, -1e200, 0, 0, 0)) == 2e200

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            smooth_l1((1, 2, 3), (1, 2, 3))
        with pytest.raises(ShapeError):
            smooth_l1(np.zeros((2, 5)), np.zeros((3, 5)))

    def test_smooth_l1_rejects_anything_but_five_numbers(self):
        """One pair of 5-component tuples only: any 2-D array, a (1, 5) row
        and a (5, 1) column included, nested or ragged lists, four or six
        components, strings and bytes raise ShapeError, with no warning.
        The (5, 1) column is refused by its shape: at numpy 1.24, float() of
        a one-element array does not raise."""
        five = [0.5, 1.0, 2.0, 0.0, 0.25]
        bad = [np.zeros((0, 5)), np.zeros((1, 5)), np.zeros((2, 5)), np.zeros((5, 1)),
               [five], [[v] for v in five], [five, five], five[:4], five + [0.0],
               tuple(five[:4]), np.zeros(4), np.zeros(6), (five,) * 5, "12345", b"12345",
               [five, 0.0], ["a"] * 5, ("a",) * 5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in bad:
                for pred, target in ((arg, five), (five, arg), (arg, arg)):
                    with pytest.raises(ShapeError, match="five numbers"):
                        smooth_l1(pred, target)

    @staticmethod
    def assert_same_bits(pred, target):
        got, want = smooth_l1(pred, target), reference_smooth_l1(pred, target)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (pred, target)

    @pytest.mark.parametrize("rows", [None])
    def test_smooth_l1_bits_match_frozen_reference(self, rows):
        """The bits of the numpy form, with component differences from 1e-6
        to 1e6 on both sides of 1.  smooth_l1 sums five Python floats left to
        right and reference_smooth_l1 sums them with numpy, so the bits hold
        only while numpy sums five terms in the same order."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            pred = rng.normal(size=5) * 10.0 ** rng.uniform(-6, 6, 5)
            target = rng.normal(size=5) * 10.0 ** rng.uniform(-6, 6, 5)
            self.assert_same_bits(pred, target)

    def test_smooth_l1_bits_on_other_input_types(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            ints = rng.integers(-5, 6, size=(2, 5))
            self.assert_same_bits(ints[0], ints[1])
            self.assert_same_bits(ints[0].tolist(), ints[1].tolist())
            floats = (rng.normal(size=(3, 5)) * 3.0).astype(np.float32)
            self.assert_same_bits(floats[0], floats[1])
            self.assert_same_bits(floats[0].tolist(), floats[1].tolist())
            self.assert_same_bits(tuple(floats[0]), tuple(floats[1]))
            self.assert_same_bits(tuple(ints[0].tolist()), tuple(ints[1].tolist()))
            pred, target = rng.normal(size=(2, 5)) * 10.0 ** rng.uniform(-6, 6, (2, 5))
            # Tuples of Python floats, as a fit passes them; lists; tuples of
            # numpy scalars.
            self.assert_same_bits(tuple(pred.tolist()), tuple(target.tolist()))
            self.assert_same_bits(pred.tolist(), target.tolist())
            self.assert_same_bits(tuple(pred), tuple(target))

    def test_smooth_l1_bits_at_the_branch_point(self):
        """Differences of exactly 1.0 and one ulp either side of it."""
        for d in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)):
            for k in range(5):
                pred = [0.25] * 5
                pred[k] += d
                self.assert_same_bits(pred, [0.25] * 5)

    @pytest.mark.parametrize("pred, target", [
        ((0.0, math.nan, 0.0, 0.0, 0.0), (0.0,) * 5),
        ((0.0, 1e308, 0.0, 0.0, 0.0), (0.0, -1e308, 0.0, 0.0, 0.0)),
    ], ids=["nan-component", "difference-overflows"])
    def test_non_finite_smooth_l1_rejected_without_warning(self, pred, target):
        """Any warning fails, whatever its wording, which differs between
        numpy versions."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidLossError, match="non-finite"):
                smooth_l1(pred, target)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0, 0, 0, 5) == 0.0

    def test_weighted_sum(self):
        assert total_loss(0.2, 0.1, 0.3, 5) == 1.0

    def test_default_weight(self):
        assert DEFAULT_MU == 5.0
        assert total_loss(0.0, 1.0, 0.0) == 5.0

    @given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
    def test_linear_in_each_component(self, u, v):
        base = total_loss(u, v, u, 2.0)
        assert total_loss(u + 1, v, u, 2.0) == pytest.approx(base + 1, abs=1e-9)
        assert total_loss(u, v + 1, u, 2.0) == pytest.approx(base + 2, abs=1e-9)
        assert total_loss(u, v, u + 1, 2.0) == pytest.approx(base + 1, abs=1e-9)

    def test_negative_zero_components_sum_to_positive_zero(self):
        assert math.copysign(1.0, total_loss(-0.0, -0.0, -0.0)) == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidLossError):
            total_loss(math.nan, 0, 0, 5)
        with pytest.raises(InvalidLossError):
            total_loss(0, math.inf, 0, 5)
        # Finite components whose weighted sum overflows, also as numpy
        # scalars, which must not warn first.
        with pytest.raises(InvalidLossError):
            total_loss(1e308, 1e308, 0.0, 1e308)
        with pytest.raises(InvalidLossError, match="overflow"):
            total_loss(np.float64(1e308), np.float64(1e308), 0.0, 1e308)


class TestExtractPeaks:
    def test_single_gaussian_center(self):
        box = OrientedBox(41, 43, 20, 10, 0.2)
        target = render_heatmap([(box, 0)], 1, 32, 32, 4)
        peaks = extract_peaks(target)
        assert peaks == [(0, 10, 10, 1.0)]

    def test_peaks_are_python_scalars(self):
        heat = np.zeros((2, 5, 5), dtype=np.float32)
        heat[1, 3, 2] = 0.5
        (peak,) = extract_peaks(heat)
        assert peak == (1, 2, 3, 0.5)
        assert [type(v) for v in peak] == [int, int, int, float]

    def test_two_separated_gaussians(self):
        objs = [(OrientedBox(40, 40, 20, 10, 0), 0), (OrientedBox(100, 100, 20, 10, 0), 0)]
        target = render_heatmap(objs, 1, 40, 40, 4)
        peaks = extract_peaks(target, k=10)
        assert {(x, y) for _, x, y, _ in peaks} == {(10, 10), (25, 25)}

    def test_plateau_row_major_first_wins(self):
        """On a plateau of equal values only the earliest cell in row-major
        order is a peak."""
        heat = np.zeros((1, 5, 5))
        heat[0, 2:4, 2:4] = 0.8
        peaks = extract_peaks(heat)
        assert peaks == [(0, 2, 2, 0.8)]

    def test_threshold_inclusive(self):
        heat = np.zeros((1, 5, 5))
        heat[0, 2, 2] = 0.3
        assert extract_peaks(heat, threshold=0.3) == [(0, 2, 2, 0.3)]
        assert extract_peaks(heat, threshold=0.31) == []

    def test_top_k_by_score(self):
        heat = np.zeros((1, 3, 12))
        for i, v in enumerate((0.9, 0.5, 0.7, 0.4)):
            heat[0, 1, 3 * i + 1] = v
        peaks = extract_peaks(heat, k=2)
        assert [score for *_, score in peaks] == [0.9, 0.7]

    def test_deterministic_sort_on_ties(self):
        heat = np.zeros((2, 5, 5))
        heat[1, 3, 1] = 0.6
        heat[0, 1, 3] = 0.6
        peaks = extract_peaks(heat)
        assert [(c, y, x) for c, x, y, _ in peaks] == [(0, 1, 3), (1, 3, 1)]

    def test_parameters_validated(self):
        heat = np.zeros((1, 3, 3))
        with pytest.raises(ValueError):
            extract_peaks(heat, k=0)
        for k in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="k must be a whole number"):
                extract_peaks(heat, k=k)
        with pytest.raises(ValueError):
            extract_peaks(heat, threshold=1.0)
        with pytest.raises(ShapeError):
            extract_peaks(np.zeros((3, 3)))

    def test_huge_threshold_text_is_short(self):
        with pytest.raises(ValueError) as info:
            extract_peaks(np.zeros((1, 3, 3)), threshold=10**400)
        assert str(info.value) == "threshold must be in [0, 1), got 1e+400"

    def test_whole_float_k(self):
        heat = render_heatmap([(OrientedBox(9.0 + 20 * i, 9.0, 4.0, 2.0, 0.0), 0)
                               for i in range(4)], 1, 8, 24, 4)
        assert extract_peaks(heat, k=3.0) == extract_peaks(heat, k=3)
        assert len(extract_peaks(heat, k=3)) == 3


class TestSparsePeaks:
    """extract_peaks tests only the cells at or above the threshold; its
    peaks must equal the dense padded scan's, in order, by ==."""

    @staticmethod
    def agree(heat, k=10**6, thresholds=(0.0, 0.3, 0.99)):
        for threshold in thresholds:
            assert (extract_peaks(heat, k=k, threshold=threshold)
                    == reference_extract_peaks(heat, k, threshold)), threshold

    @pytest.mark.parametrize("seed", range(4))
    def test_rendered_scenes(self, seed):
        rng = np.random.default_rng(80 + seed)
        height, width, stride = 60, 50, 4
        objs = lattice_objects(rng, 40, 4, height, width, stride, max_r=12.0)
        heat = render_heatmap(objs, 4, height, width, stride)
        self.agree(heat)
        self.agree(heat * rng.uniform(0.9, 1.0, heat.shape))
        self.agree(heat, k=7)

    def test_plateaus_and_threshold_ties(self):
        rng = np.random.default_rng(7)
        heat = rng.choice([0.0, 0.3, 0.5, 0.99], size=(3, 17, 13))
        heat[1, 4:9, 2:7] = 0.3
        heat[2] = 0.99
        self.agree(heat)
        self.agree(heat, k=3)

    def test_nan_and_infinite_cells(self):
        """A map holding a NaN or an infinity is refused at every threshold
        and k, whether or not the cell could be a peak."""
        rng = np.random.default_rng(8)
        clean = rng.uniform(0.0, 1.0, (3, 12, 15))
        self.agree(clean)
        for value in (np.nan, np.inf, -np.inf):
            heat = clean.copy()
            heat[rng.integers(0, 3, 12), rng.integers(0, 12, 12), rng.integers(0, 15, 12)] = value
            for threshold, k in ((0.0, 10**6), (0.3, 5), (0.99, 1)):
                with pytest.raises(ShapeError, match=f"heatmap value {value} is not finite"):
                    extract_peaks(heat, k=k, threshold=threshold)

    def test_peaks_on_every_border(self):
        heat = np.zeros((2, 6, 9))
        for y, x in itertools.product((0, 2, 5), (0, 4, 8)):
            heat[0, y, x] = 0.5 + 0.01 * (y + x)
        heat[1, :, 0] = 0.7
        heat[1, 5, :] = 0.7
        heat[1, 0, 8] = 0.8
        self.agree(heat)
        self.agree(heat, k=2)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 7), (1, 7, 1), (3, 2, 2)])
    def test_thin_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.agree(rng.choice([0.2, 0.3, 0.6], size=shape))

    def test_k_below_peak_count(self):
        rng = np.random.default_rng(9)
        heat = rng.uniform(0.0, 1.0, (2, 20, 20))
        peaks = extract_peaks(heat, k=10**6, threshold=0.0)
        assert len(peaks) > 20
        for k in (1, 5, 20):
            self.agree(heat, k=k)


class TestEncodeOffset:
    def test_fractional_center(self):
        assert encode_offset(101, 53, 4) == (25, 13, 0.25, 0.25)

    def test_exact_grid_point(self):
        assert encode_offset(8, 8, 4) == (2, 2, 0.0, 0.0)

    def test_near_cell_edge(self):
        cell_x, cell_y, dx, dy = encode_offset(607.9, 0.1, 4)
        assert (cell_x, cell_y) == (151, 0)
        assert dx == pytest.approx(0.975, abs=1e-12)
        assert dy == pytest.approx(0.025, abs=1e-12)

    @given(boxes(canonical=True, max_center=500.0))
    def test_reconstructs_center(self, box):
        """(cell + d) * stride reproduces the coordinate within 1e-9."""
        cx, cy = abs(box.cx), abs(box.cy)
        cell_x, cell_y, dx, dy = encode_offset(cx, cy, 4)
        assert (cell_x + dx) * 4 == pytest.approx(cx, abs=1e-9)
        assert (cell_y + dy) * 4 == pytest.approx(cy, abs=1e-9)
        assert 0 <= dx < 1 and 0 <= dy < 1

    def test_rejects_negative_coordinates(self):
        with pytest.raises(OutOfImageError):
            encode_offset(-1, 3, 4)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            encode_offset(1, 1, 0)

    def test_rejects_non_finite_center(self):
        with pytest.raises(InvalidBoxError, match="non-finite center"):
            encode_offset(math.nan, 1.0, 4)

    @pytest.mark.parametrize("stride", [math.inf, math.nan])
    def test_rejects_non_finite_stride(self, stride):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="stride"):
                encode_offset(10, 10, stride)


class TestDecodeDetections:
    def test_offset_example(self):
        """Cell (25, 13) with offset (0.25, 0.25) at stride 4 is (101, 53)."""
        offset = np.zeros((2, 20, 30))
        params = np.zeros((3, 20, 30))
        offset[:, 13, 25] = (0.25, 0.25)
        params[:, 13, 25] = (0.1, 8.0, 4.0)
        dets = decode_detections([(0, 25, 13, 0.9)], offset, params, 4)
        assert (dets[0].box.cx, dets[0].box.cy) == (101.0, 53.0)
        assert (dets[0].box.r1, dets[0].box.r2, dets[0].box.phi) == (8.0, 4.0, 0.1)

    def test_map_shapes_validated(self):
        with pytest.raises(ShapeError):
            decode_detections([], np.zeros((3, 4, 4)), np.zeros((3, 4, 4)), 4)
        with pytest.raises(ShapeError):
            decode_detections([], np.zeros((2, 4, 4)), np.zeros((3, 4, 5)), 4)

    @pytest.mark.parametrize("stride", [0, -4, math.inf, math.nan])
    def test_bad_stride_rejected(self, stride):
        """A stride that is not finite and >= 1 is refused instead of
        placing every box at or below the origin."""
        offset, params = np.zeros((2, 4, 4)), np.ones((3, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="stride"):
                decode_detections([(0, 1, 1, 0.9)], offset, params, stride)

    @pytest.mark.parametrize("cell", [
        (-1, 2), (5, 2), (2, -1), (2, 4), (2.5, 2), (2, 1.5), (math.nan, 2), (2, math.inf),
    ])
    def test_peak_cell_outside_the_maps_rejected(self, cell):
        """A peak cell must be a whole number inside the H x W maps; Python's
        negative indices would read a cell from the other side."""
        offset, params = np.zeros((2, 4, 5)), np.ones((3, 4, 5))
        with pytest.raises(OutOfImageError, match=r"peak cell .* of the 5x4 maps"):
            decode_detections([(0, *cell, 0.9)], offset, params, 4)

    def test_huge_peak_cell_text_is_short(self):
        offset, params = np.zeros((2, 4, 5)), np.ones((3, 4, 5))
        with pytest.raises(OutOfImageError) as info:
            decode_detections([(0, 2, -(10**400), 0.9)], offset, params, 4)
        assert str(info.value) == "peak cell (2, -1e+400) is not a whole cell of the 5x4 maps"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("channel", range(5))
    def test_non_finite_value_read_only_at_a_peak_cell(self, channel, value):
        """A NaN or an infinity off the peak cells passes unread, and the
        same value at a peak cell raises InvalidBoxError."""
        offset, params = np.zeros((2, 4, 5)), np.ones((3, 4, 5))
        params[:, 3, 4] = (0.1, 8.0, 4.0)
        # Channels 0-1 are the offset map's dx, dy; 2-4 the param map's phi, r1, r2.
        channels = np.concatenate([offset, params])
        channels[channel, 1, 2] = value
        offset, params = channels[:2], channels[2:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (det,) = decode_detections([(0, 4, 3, 0.9)], offset, params, 4)
            assert (det.box.cx, det.box.cy, det.box.r1, det.box.r2, det.box.phi) == (
                16.0, 12.0, 8.0, 4.0, 0.1)
            with pytest.raises(InvalidBoxError, match="^non-finite box parameters "):
                decode_detections([(0, 4, 3, 0.9), (0, 2, 1, 0.8)], offset, params, 4)

    @pytest.mark.parametrize("cell, stride", [
        ((4, 3), 4), ((np.int64(4), np.int64(3)), 4), ((4.0, 3.0), np.float64(4.0))])
    def test_overflowing_center_rejected_without_warning(self, cell, stride):
        """A finite offset whose center overflows at the stride raises
        InvalidBoxError, with no numpy overflow warning before it, also for
        numpy scalar cells and strides."""
        offset, params = np.zeros((2, 4, 5)), np.ones((3, 4, 5))
        offset[0, 3, 4] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBoxError, match="^non-finite box parameters "):
                decode_detections([(0, *cell, 0.9)], offset, params, stride)

    def test_whole_float_peak_cell_reads_that_cell(self):
        offset, params = np.zeros((2, 4, 5)), np.ones((3, 4, 5))
        params[:, 3, 4] = (0.1, 8.0, 4.0)
        (det,) = decode_detections([(0, 4.0, 3.0, 0.9)], offset, params, 4)
        assert (det.box.cx, det.box.cy, det.box.r1, det.box.r2, det.box.phi) == (
            16.0, 12.0, 8.0, 4.0, 0.1)


class TestRoundtrip:
    def test_single_known_box(self):
        box = canonicalize(OrientedBox(41.5, 37.25, 10.0, 4.0, 0.6))
        errors, dets = encode_decode_roundtrip([(box, 0)], 1, 32, 32, 4)
        assert len(dets) == 1
        assert np.all(errors <= 1e-6)

    def test_fifty_random_boxes_full_recall(self):
        """All 50 synthetic boxes come back, every field within 1e-6."""
        rng = np.random.default_rng(29)
        objs = lattice_objects(rng, 50, 3, 64, 64, 4)
        errors, dets = encode_decode_roundtrip(objs, 3, 64, 64, 4)
        assert not np.isnan(errors).any()
        assert errors.max() <= 1e-6

    def test_matches_aligned_with_objects(self):
        """One match per object: None exactly where the errors row is NaN,
        otherwise a detection of the object's category."""
        rng = np.random.default_rng(33)
        objs = lattice_objects(rng, 12, 3, 64, 64, 4)
        box, cls = objs[0]
        # Same class one cell to the right: the row-major-first cell of the
        # plateau keeps the peak, so this object goes unmatched.
        objs.append((replace(box, cx=box.cx + 4.0), cls))
        # Same cell, other class: its own channel, its own detection.
        objs.append((box, (cls + 1) % 3))
        # Same cell, same class: both share the cell's one detection.  Every
        # detection at the cell, of either class, carries the parameters
        # written last.
        objs.append((replace(box, r1=box.r1 + 1.0), cls))
        errors, matches = encode_decode_roundtrip(objs, 3, 64, 64, 4)
        assert len(matches) == len(objs)
        assert [m is None for m in matches] == list(np.isnan(errors).any(axis=1))
        assert matches[-3] is None and matches[-2] is not None
        assert matches[0] is matches[-1]
        assert errors[0, 2] == pytest.approx(1.0) and errors[-1].max() <= 1e-9
        assert errors[-2, 2] == pytest.approx(1.0)
        for (_, obj_cls), det in zip(objs, matches):
            assert det is None or det.category == obj_cls

    def test_encode_targets_aligned(self):
        rng = np.random.default_rng(31)
        objs = lattice_objects(rng, 5, 2, 32, 32, 4)
        enc = encode_targets(objs, 2, 32, 32, 4)
        assert enc.offset_map.shape == (2, 32, 32)
        assert enc.param_map.shape == (3, 32, 32)
        assert len(enc.positives) == 5
        for (box, cls), (pos_cls, cell_x, cell_y) in zip(objs, enc.positives):
            off_x, off_y, dx, dy = encode_offset(box.cx, box.cy, 4)
            assert (pos_cls, cell_x, cell_y) == (cls, off_x, off_y)
            assert tuple(enc.param_map[:, cell_y, cell_x]) == (box.phi, box.r1, box.r2)
            assert tuple(enc.offset_map[:, cell_y, cell_x]) == (dx, dy)
