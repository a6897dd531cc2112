"""Heatmap/offset/parameter target encoding, the losses on those targets,
and the peak-extraction decode path."""

import itertools
import math
import tracemalloc
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
from helpers import reference_extract_peaks, reference_heatmap
from polarjiou.codec import DEFAULT_MU, EXP_UNDERFLOW_ARG, HeatmapTarget, Peak, target_grid
from polarjiou.errors import GridAllocationError, InvalidLossError, OutOfImageError, ShapeError


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


class TestRenderHeatmap:
    def test_center_cell_is_one(self):
        box = OrientedBox(40, 40, 8, 4, 0)
        target = render_heatmap([(box, 0)], 1, 32, 32, 4)
        assert target.values[0, 10, 10] == 1.0
        assert target.positives == ((0, 10, 10),)

    def test_half_maximum_radius(self):
        """A cell at grid distance sigma*sqrt(2 ln 2) reads 0.5; the box is
        sized so that distance is exactly 3 cells."""
        d = 3
        sigma = d / math.sqrt(2.0 * math.log(2.0))
        r2 = 6.0 * 4 * sigma / 2.0
        box = OrientedBox(10 * 4, 10 * 4, 2 * r2, r2, 0.0)
        assert gaussian_sigma(box, 4) == pytest.approx(sigma, abs=1e-12)
        target = render_heatmap([(box, 0)], 1, 32, 32, 4)
        assert target.values[0, 10, 10 + d] == pytest.approx(0.5, abs=1e-9)

    def test_overlap_is_pointwise_max(self):
        """Joint render equals the elementwise max of per-object renders."""
        a = OrientedBox(40, 40, 20, 15, 0.3)
        b = OrientedBox(52, 44, 18, 12, -0.5)
        joint = render_heatmap([(a, 0), (b, 0)], 1, 32, 32, 4)
        alone_a = render_heatmap([(a, 0)], 1, 32, 32, 4)
        alone_b = render_heatmap([(b, 0)], 1, 32, 32, 4)
        assert np.array_equal(joint.values, np.maximum(alone_a.values, alone_b.values))

    def test_order_independent(self):
        objs = [
            (OrientedBox(40, 40, 20, 15, 0.3), 0),
            (OrientedBox(52, 44, 18, 12, -0.5), 0),
            (OrientedBox(80, 80, 10, 5, 1.0), 1),
        ]
        for perm in itertools.permutations(objs):
            assert np.array_equal(
                render_heatmap(list(perm), 2, 32, 32, 4).values,
                render_heatmap(objs, 2, 32, 32, 4).values,
            )

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(13)
        objs = lattice_objects(rng, 10, 3, 40, 40, 4)
        target = render_heatmap(objs, 3, 40, 40, 4)
        assert np.all(target.values >= 0.0) and np.all(target.values <= 1.0)
        for cls, cx, cy in target.positives:
            assert target.values[cls, cy, cx] == 1.0

    def test_center_outside_grid_rejected(self):
        box = OrientedBox(400, 40, 8, 4, 0)
        with pytest.raises(OutOfImageError):
            render_heatmap([(box, 0)], 1, 32, 32, 4)

    def test_class_out_of_range_rejected(self):
        box = OrientedBox(40, 40, 8, 4, 0)
        with pytest.raises(ShapeError):
            render_heatmap([(box, 5)], 2, 32, 32, 4)


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

    def test_negative_sizes_stay_value_errors(self):
        with pytest.raises(ValueError) as info:
            target_grid((1, -2, 3))
        assert not isinstance(info.value, GridAllocationError)

    def test_zero_grid(self):
        grid = target_grid((2, 3, 4))
        assert grid.shape == (2, 3, 4) and grid.dtype == np.float64 and not grid.any()


class TestWindowedHeatmap:
    """render_heatmap stamps only where the Gaussian is non-zero; the values
    must equal the full-grid evaluation bit for bit."""

    def test_exp_is_zero_past_the_bound(self):
        assert math.exp(-EXP_UNDERFLOW_ARG) == 0.0

    def test_one_cell_sigma_on_a_large_grid(self):
        box = OrientedBox(200, 200, 2, 1, 0.3)
        assert gaussian_sigma(box, 4) == 1.0
        objs = [(box, 0)]
        assert same_bits(render_heatmap(objs, 1, 128, 128, 4).values,
                         reference_heatmap(objs, 1, 128, 128, 4))

    def test_window_covering_the_whole_grid(self):
        box = OrientedBox(60, 70, 400, 300, 0.2)
        assert gaussian_sigma(box, 4) * math.sqrt(2 * EXP_UNDERFLOW_ARG) > 40
        # The last box's sigma overflows to inf, which stamps 1.0 everywhere.
        objs = [(box, 1), (OrientedBox(10, 150, 2, 1, 0), 1),
                (OrientedBox(100, 20, 1e308, 1e308, 0), 0)]
        assert same_bits(render_heatmap(objs, 2, 40, 40, 4).values,
                         reference_heatmap(objs, 2, 40, 40, 4))

    def test_objects_on_grid_corners(self):
        size, stride = 96, 4
        far = size * stride - 0.5
        objs = [(OrientedBox(x, y, r, r / 2, 0.0), k % 3)
                for k, ((x, y), r) in enumerate(zip(
                    [(0.0, 0.0), (far, 0.0), (0.0, far), (far, far)], (2.0, 30.0, 90.0, 400.0)))]
        assert same_bits(render_heatmap(objs, 3, size, size, stride).values,
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
        assert same_bits(render_heatmap(objs, 5, height, width, stride).values,
                         reference_heatmap(objs, 5, height, width, stride))

    def test_stamps_shared_across_sigmas(self, monkeypatch):
        """One call mixing repeated sigmas, distinct sigmas, an infinite
        sigma and objects on every grid corner: each stamp is computed once
        per sigma and sliced per object, and the values are the full-grid
        evaluation bit for bit."""
        height, width, stride = 50, 70, 4
        fx, fy = width * stride - 0.5, height * stride - 0.5
        corners = [(0.0, 0.0), (fx, 0.0), (0.0, fy), (fx, fy)]
        objs = [(OrientedBox(x, y, 6.0, 3.0, 0.4), k % 2) for k, (x, y) in enumerate(corners)]
        objs += [(OrientedBox(x, y, 90.0, 60.0, -0.3), 2) for x, y in corners]
        objs += [(OrientedBox(100.0 + 9 * k, 80.0 + 5 * k, 5.0 * k, 4.0 * k, 0.1), k % 3)
                 for k in range(1, 12)]
        # Infinite sigma on a corner: its stamp must reach the far side.
        objs.append((OrientedBox(0.5, fy, 1e308, 1e308, 0.0), 3))
        sigmas = [gaussian_sigma(box, stride) for box, _ in objs]
        assert sigmas.count(1.0) >= 4 and sigmas.count(sigmas[4]) == 4
        assert math.isinf(sigmas[-1]) and len(set(sigmas)) > 8
        exp_calls = []

        def counted_exp(x, *args, **kwargs):
            exp_calls.append(np.shape(x))
            return np_exp(x, *args, **kwargs)

        np_exp = np.exp
        monkeypatch.setattr(np, "exp", counted_exp)
        values = render_heatmap(objs, 4, height, width, stride).values
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
            values = render_heatmap(objs, 1, height, width, stride).values
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
        the grid, its copy in HeatmapTarget and three grid-sized arrays."""
        size, stride = 100, 4
        objs = [(OrientedBox(4.0 + 9.7 * k, 390.0 - 9.3 * k, 40.0 + 30.0 * k, 30.0 + 25.0 * k,
                             0.1 * k), 0) for k in range(40)]
        assert len({gaussian_sigma(box, stride) for box, _ in objs}) == 40
        tracemalloc.start()
        try:
            values = render_heatmap(objs, 1, size, size, stride).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * values.nbytes
        assert same_bits(values, reference_heatmap(objs, 1, size, size, stride))


class TestHeatmapTargetStorage:
    """values is read-only with no writeable alias; only an array that is
    already read-only, float64 and owns its data is kept uncopied."""

    def test_render_keeps_its_grid(self):
        """One small object on a large grid: the grid is allocated once and
        not copied again into the HeatmapTarget."""
        objs = [(OrientedBox(800.0, 800.0, 4.0, 2.0, 0.0), 0)]
        tracemalloc.start()
        try:
            values = render_heatmap(objs, 1, 400, 400, 4).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not values.flags.writeable and values.base is None
        assert peak < 1.25 * values.nbytes

    def test_read_only_owned_array_kept(self):
        arr = np.zeros((1, 2, 2))
        arr.setflags(write=False)
        assert HeatmapTarget(values=arr, positives=()).values is arr

    @pytest.mark.parametrize("read_only, dtype", [
        (False, np.float64), (True, np.float64), (True, np.float32)])
    def test_other_arrays_copied(self, read_only, dtype):
        """A writeable view, a read-only view of a writeable base, and a
        read-only array of another dtype: writes to the base stay out of
        the target."""
        base = np.zeros((1, 2, 4), dtype=dtype)
        arr = base[:, :, :2]
        arr.setflags(write=not read_only)
        target = HeatmapTarget(values=arr, positives=())
        base[...] = 5.0
        assert target.values.dtype == np.float64 and not target.values.flags.writeable
        assert not target.values.any()


class TestFocalLoss:
    def single_cell_target(self):
        return np.ones((1, 1, 1))

    def test_perfect_prediction_near_zero(self):
        """Predicting 1 at positives and 0 elsewhere (clamped inward) leaves
        only clamp residue."""
        rng = np.random.default_rng(1)
        objs = lattice_objects(rng, 4, 2, 32, 32, 4)
        target = render_heatmap(objs, 2, 32, 32, 4)
        pred = np.where(target.values == 1.0, 1.0, 0.0)
        assert 0.0 <= focal_loss(pred, target.values) <= 1e-5

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

    def test_rows_averaged(self):
        pred = np.array([[0.5, 0, 0, 0, 0], [2.0, 0, 0, 0, 0]])
        target = np.zeros((2, 5))
        assert smooth_l1(pred, target) == pytest.approx((0.125 + 1.5) / 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            smooth_l1((1, 2, 3), (1, 2, 3))
        with pytest.raises(ShapeError):
            smooth_l1(np.zeros((2, 5)), np.zeros((3, 5)))


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


class TestExtractPeaks:
    def test_single_gaussian_center(self):
        box = OrientedBox(41, 43, 20, 10, 0.2)
        target = render_heatmap([(box, 0)], 1, 32, 32, 4)
        peaks = extract_peaks(target.values)
        assert peaks == [Peak(0, 10, 10, 1.0)]

    def test_two_separated_gaussians(self):
        objs = [(OrientedBox(40, 40, 20, 10, 0), 0), (OrientedBox(100, 100, 20, 10, 0), 0)]
        target = render_heatmap(objs, 1, 40, 40, 4)
        peaks = extract_peaks(target.values, k=10)
        assert {(p.cell_x, p.cell_y) for p in peaks} == {(10, 10), (25, 25)}

    def test_plateau_row_major_first_wins(self):
        """On a plateau of equal values only the earliest cell in row-major
        order is a peak."""
        heat = np.zeros((1, 5, 5))
        heat[0, 2:4, 2:4] = 0.8
        peaks = extract_peaks(heat)
        assert peaks == [Peak(0, 2, 2, 0.8)]

    def test_threshold_inclusive(self):
        heat = np.zeros((1, 5, 5))
        heat[0, 2, 2] = 0.3
        assert extract_peaks(heat, threshold=0.3) == [Peak(0, 2, 2, 0.3)]
        assert extract_peaks(heat, threshold=0.31) == []

    def test_top_k_by_score(self):
        heat = np.zeros((1, 3, 12))
        for i, v in enumerate((0.9, 0.5, 0.7, 0.4)):
            heat[0, 1, 3 * i + 1] = v
        peaks = extract_peaks(heat, k=2)
        assert [p.score for p in peaks] == [0.9, 0.7]

    def test_deterministic_sort_on_ties(self):
        heat = np.zeros((2, 5, 5))
        heat[1, 3, 1] = 0.6
        heat[0, 1, 3] = 0.6
        peaks = extract_peaks(heat)
        assert [(p.category, p.cell_y, p.cell_x) for p in peaks] == [(0, 1, 3), (1, 3, 1)]

    def test_parameters_validated(self):
        heat = np.zeros((1, 3, 3))
        with pytest.raises(ValueError):
            extract_peaks(heat, k=0)
        with pytest.raises(ValueError):
            extract_peaks(heat, threshold=1.0)
        with pytest.raises(ShapeError):
            extract_peaks(np.zeros((3, 3)))


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
        heat = render_heatmap(objs, 4, height, width, stride).values
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
        rng = np.random.default_rng(8)
        heat = rng.uniform(0.0, 1.0, (3, 12, 15))
        for value in (np.nan, np.inf, -np.inf):
            heat[rng.integers(0, 3, 12), rng.integers(0, 12, 12), rng.integers(0, 15, 12)] = value
        heat[0, 0, :] = np.inf
        heat[2, 5, 5] = np.nan
        heat[2, 4:7, 4:7] = np.where(np.isnan(heat[2, 4:7, 4:7]), np.nan, 0.9)
        self.agree(heat)
        self.agree(heat, k=5)

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


class TestDecodeDetections:
    def test_offset_example(self):
        """Cell (25, 13) with offset (0.25, 0.25) at stride 4 is (101, 53)."""
        offset = np.zeros((2, 20, 30))
        params = np.zeros((3, 20, 30))
        offset[:, 13, 25] = (0.25, 0.25)
        params[:, 13, 25] = (0.1, 8.0, 4.0)
        dets = decode_detections([Peak(0, 25, 13, 0.9)], offset, params, 4)
        assert (dets[0].box.cx, dets[0].box.cy) == (101.0, 53.0)
        assert (dets[0].box.r1, dets[0].box.r2, dets[0].box.phi) == (8.0, 4.0, 0.1)

    def test_map_shapes_validated(self):
        with pytest.raises(ShapeError):
            decode_detections([], np.zeros((3, 4, 4)), np.zeros((3, 4, 4)), 4)
        with pytest.raises(ShapeError):
            decode_detections([], np.zeros((2, 4, 4)), np.zeros((3, 4, 5)), 4)


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
        # Same cell, same class: both share the cell's one detection, which
        # carries the parameters written last.
        objs.append((replace(box, r1=box.r1 + 1.0), cls))
        errors, matches = encode_decode_roundtrip(objs, 3, 64, 64, 4)
        assert len(matches) == len(objs)
        assert [m is None for m in matches] == list(np.isnan(errors).any(axis=1))
        assert matches[-3] is None and matches[-2] is not None
        assert matches[0] is matches[-1]
        assert errors[0, 2] == pytest.approx(1.0) and errors[-1].max() <= 1e-9
        for (_, obj_cls), det in zip(objs, matches):
            assert det is None or det.category == obj_cls

    def test_encode_targets_aligned(self):
        rng = np.random.default_rng(31)
        objs = lattice_objects(rng, 5, 2, 32, 32, 4)
        enc = encode_targets(objs, 2, 32, 32, 4)
        assert enc.offset_map.shape == (2, 32, 32)
        assert enc.param_map.shape == (3, 32, 32)
        assert len(enc.heatmap.positives) == 5
        for (box, cls), (pos_cls, cell_x, cell_y) in zip(objs, enc.heatmap.positives):
            off = encode_offset(box.cx, box.cy, 4)
            assert (pos_cls, cell_x, cell_y) == (cls, off.cell_x, off.cell_y)
            assert tuple(enc.param_map[:, cell_y, cell_x]) == (box.phi, box.r1, box.r2)
            assert tuple(enc.offset_map[:, cell_y, cell_x]) == (off.dx, off.dy)
