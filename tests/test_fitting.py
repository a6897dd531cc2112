"""Gradient-descent box fitting and the discretization deviation sweep."""

import dataclasses
import math
import sys

import numpy as np
import pytest

import helpers
import polarjiou.fitting
from helpers import dyadic, reference_fit_box
from polarjiou import OrientedBox, fit_box, jiou_bar, smooth_l1
from polarjiou.errors import EmptyBatchError, InvalidBoxError, short_int
from polarjiou.loss import RATIO_FLOOR, JiouValue
from polarjiou.fitting import (
    CONVERGED_IOU,
    FitStep,
    FitTrace,
    SweepRecord,
    default_angle_diffs,
    default_fit_suite,
    deviation_sweep,
    run_fit_suite,
)


class TestFitBox:
    def test_init_equals_target(self):
        box = OrientedBox(0, 0, 3, 1, 0.4)
        trace = fit_box(box, box, "jiou")
        assert trace.converged
        assert len(trace.steps) == 1
        assert trace.steps[0].exact_iou == 1.0
        assert trace.final_exact_iou == 1.0

    def test_pi_offset_init_converges_immediately(self):
        """An angle error of exactly pi is invisible to the polar loss, so
        the run converges at step 0 with loss 0."""
        target = OrientedBox(1, 2, 3, 1, 0.5)
        init = OrientedBox(5, 5, 3, 1, 0.5 + math.pi)
        trace = fit_box(init, target, "jiou")
        assert trace.converged
        assert len(trace.steps) == 1
        assert trace.steps[0].loss == 0.0
        assert trace.final_exact_iou == 1.0

    def test_loss_non_increasing_under_step_control(self):
        """Halve-on-increase only ever accepts non-increasing losses."""
        rng = np.random.default_rng(6)
        for _ in range(5):
            r2 = rng.uniform(4, 15)
            target = OrientedBox(0, 0, r2 * rng.uniform(1.5, 4), r2,
                                 rng.uniform(-1.5, 1.5))
            init = OrientedBox(0, 0, target.r1 * 1.4, target.r2 * 0.8,
                               target.phi + rng.uniform(-1.2, 1.2))
            for kind in ("jiou", "smooth_l1"):
                trace = fit_box(init, target, kind)
                losses = [s.loss for s in trace.steps]
                assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_projection_recorded(self):
        """Shrinking past the r >= 0.1 floor clamps and logs the step."""
        trace = fit_box(OrientedBox(0, 0, 0.5, 0.5, 0), OrientedBox(0, 0, 0.12, 0.12, 0), "jiou")
        assert trace.converged
        assert len(trace.projected_steps) >= 1
        for s in trace.steps:
            assert s.r1 >= 0.1 and s.r2 >= 0.1

    def test_deterministic(self):
        init = OrientedBox(0, 0, 8, 3, 1.1)
        target = OrientedBox(0, 0, 9, 4, 0.2)
        assert fit_box(init, target, "jiou") == fit_box(init, target, "jiou")

    def test_centers_pinned_to_target(self):
        trace = fit_box(OrientedBox(50, 50, 8, 3, 1.1), OrientedBox(0, 0, 9, 4, 0.2), "jiou")
        # exact_iou at step 0 would be ~0 if the 50-pixel offset survived
        assert trace.steps[0].exact_iou > 0.1

    def test_smooth_l1_descends_angle(self):
        target = OrientedBox(0, 0, 6, 2, 0.0)
        init = OrientedBox(0, 0, 6, 2, 0.8)
        trace = fit_box(init, target, "smooth_l1")
        assert trace.converged
        assert abs(trace.steps[-1].phi) < 0.1

    def test_pi_periodicity_immunity_is_jiou_specific(self):
        """A half-turn angle offset is invisible to the polar loss but costs
        the raw tuple-space loss more than a full unit.  (The descent harness
        itself canonicalizes its start, so the contrast lives at the loss
        level, not in the traces.)"""
        target = OrientedBox(0, 0, 6, 2, 0.25)
        shifted = OrientedBox(0, 0, 6, 2, 0.25 + math.pi)
        assert jiou_bar(shifted, target).loss <= 1e-12
        raw_cost = smooth_l1([shifted.phi, 6, 2, 0, 0], [target.phi, 6, 2, 0, 0])
        assert raw_cost > 1.0
        assert fit_box(shifted, target, "smooth_l1").steps[0].loss == 0.0

    def test_bit_identical_traces_for_pi_shifted_init(self):
        """theta and theta + pi inits produce the same trace, field for
        field (angles on a dyadic grid keep the wrap exact)."""
        phi0 = dyadic(0.25 + 1.0)
        target = OrientedBox(0, 0, 12, 4, 0.25)
        one = fit_box(OrientedBox(0, 0, 12, 4, phi0), target, "jiou")
        two = fit_box(OrientedBox(0, 0, 12, 4, phi0 + math.pi), target, "jiou")
        assert one.steps == two.steps
        assert one.converged and one.final_exact_iou == two.final_exact_iou

    def test_parameters_validated(self):
        box = OrientedBox(0, 0, 2, 1, 0)
        with pytest.raises(ValueError):
            fit_box(box, box, "l2")
        with pytest.raises(ValueError):
            fit_box(box, box, "jiou", lr=0.0)
        with pytest.raises(ValueError):
            fit_box(box, box, "jiou", max_iters=0)
        for max_iters in (2.5, math.nan):
            with pytest.raises(ValueError, match="max_iters must be a whole number"):
                fit_box(box, box, "jiou", max_iters=max_iters)
        for num_cases in (2.5, math.nan, -1):
            with pytest.raises(ValueError, match="num_cases must be a whole number"):
                default_fit_suite(num_cases)
        with pytest.raises(ValueError, match="mc_samples must be a whole number"):
            deviation_sweep(n_values=[16], mc_samples=math.nan)
        # This pair takes a step, so an unchecked lr would reach the box.
        for lr in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lr"):
                fit_box(OrientedBox(0, 0, 6, 2, 0.9), OrientedBox(0, 0, 6, 2, 0.1), "jiou",
                        lr=lr)

    def test_whole_float_max_iters(self):
        init, target = OrientedBox(0, 0, 6, 2, 0.9), OrientedBox(0, 0, 6, 2, 0.1)
        trace = fit_box(init, target, "jiou", max_iters=3)
        assert len(trace.steps) == 4
        assert fit_box(init, target, "jiou", max_iters=3.0) == trace

    def test_overflowing_step_rejected_as_invalid_box(self):
        """A step that overflows to inf is rejected by OrientedBox, with no
        floating-point warning on the way."""
        with pytest.raises(InvalidBoxError, match="non-finite box parameters"):
            fit_box(OrientedBox(0, 0, 1, 0.5, 0.9), OrientedBox(0, 0, 60, 2, 0.1),
                    "jiou", lr=1e308)


class TestFitLoopMatchesReference:
    """fit_box traces equal, field for field, those of the frozen loop in
    helpers.reference_fit_box."""

    @pytest.mark.parametrize("kind", ["jiou", "smooth_l1"])
    def test_default_suite(self, kind):
        for init, target in default_fit_suite():
            assert fit_box(init, target, kind) == reference_fit_box(init, target, kind)

    def test_projected_steps(self):
        init, target = OrientedBox(0, 0, 0.5, 0.5, 0), OrientedBox(0, 0, 0.12, 0.12, 0)
        trace = fit_box(init, target, "jiou")
        assert trace.projected_steps
        assert trace == reference_fit_box(init, target, "jiou")

    @pytest.mark.parametrize("kind", ["jiou", "smooth_l1"])
    def test_one_iteration(self, kind):
        traces = []
        for init, target in default_fit_suite(num_cases=10):
            trace = fit_box(init, target, kind, max_iters=1)
            assert trace == reference_fit_box(init, target, kind, max_iters=1)
            traces.append(trace)
        assert any(len(t.steps) == 2 and not t.converged for t in traces)

    def test_stop_without_descent(self):
        """At lr=20 the run reaches a state from which no halved rate
        lowers the loss, and stops there before the iteration budget."""
        init, target = OrientedBox(0, 0, 70, 8, 0), OrientedBox(0, 0, 60, 12, -0.3)
        trace = fit_box(init, target, "jiou", lr=20.0)
        assert not trace.converged and 1 < len(trace.steps) < 501
        assert trace == reference_fit_box(init, target, "jiou", lr=20.0)

    @staticmethod
    def log_calls(monkeypatch, module):
        """Patch module's loss and exact-IoU functions to log their names."""
        log = []
        for name in ("jiou_bar", "smooth_l1", "exact_rect_iou"):
            def logged(*args, _name=name, _f=getattr(module, name), **kwargs):
                log.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, logged)
        return log

    @pytest.mark.parametrize("kind", ["jiou", "smooth_l1"])
    def test_call_order(self, monkeypatch, kind):
        """Loss evaluations and exact IoUs interleave as in the reference,
        up to a stop at the iteration budget."""
        init, target = OrientedBox(0, 0, 12, 3, 0.9), OrientedBox(0, 0, 10, 4, 0.2)
        got = self.log_calls(monkeypatch, polarjiou.fitting)
        want = self.log_calls(monkeypatch, helpers)
        trace = fit_box(init, target, kind, lr=5.0, max_iters=3)
        assert trace == reference_fit_box(init, target, kind, lr=5.0, max_iters=3)
        assert len(trace.steps) == 4 and not trace.converged
        assert got == want
        # Some step needed a halving, so evaluations outnumber exact IoUs.
        assert len(got) > 2 * got.count("exact_rect_iou")


class TestFitSuite:
    def test_suite_reproducible(self):
        a = default_fit_suite(seed=42)
        b = default_fit_suite(seed=42)
        assert len(a) == 50
        assert a == b

    def test_whole_float_num_cases(self):
        assert default_fit_suite(3.0) == default_fit_suite(3)
        assert default_fit_suite(0) == []

    @pytest.mark.parametrize("num_cases", (1e300, 2**63))
    def test_count_no_list_can_hold_raises_before_drawing(self, monkeypatch, num_cases):
        """A count above sys.maxsize, the longest list CPython can hold,
        raises before any case is drawn."""
        def drawn(seed):
            raise AssertionError("drew cases for a count no list can hold")

        monkeypatch.setattr(np.random, "default_rng", drawn)
        with pytest.raises(ValueError) as info:
            default_fit_suite(num_cases)
        assert str(info.value) == (
            f"num_cases must be at most {sys.maxsize}, got {short_int(int(num_cases))}")

    def test_count_of_sys_maxsize_reaches_drawing(self, monkeypatch):
        class Drawn(Exception):
            pass

        def drawn(seed):
            raise Drawn

        monkeypatch.setattr(np.random, "default_rng", drawn)
        with pytest.raises(Drawn):
            default_fit_suite(sys.maxsize)

    def test_suite_shape(self):
        for init, target in default_fit_suite(num_cases=10):
            assert 1.5 - 1e-9 <= target.r1 / target.r2 <= 5.0 + 1e-9
            assert (init.r1, init.r2) == (target.r1, target.r2)
            assert abs(init.phi - target.phi) <= math.radians(80.0)

    def test_small_suite_converges(self):
        cases = default_fit_suite(num_cases=5, seed=1)
        traces = run_fit_suite("jiou", cases)
        assert sum(t.converged for t in traces) == 5


class TestDeviationSweep:
    def test_small_grid_layout(self):
        records = deviation_sweep(aspect_ratios=[1.0, 2.0], angle_diffs=[0.0, 0.5],
                                  n_values=[16, 720], mc_samples=10_000, seed=0)
        assert len(records) == 8
        assert [r.n for r in records[:2]] == [16, 720]

    def test_circle_rows_are_one(self):
        """Rotating a circle changes nothing: ratio 1 at every angle."""
        records = deviation_sweep(aspect_ratios=[1.0], angle_diffs=[0.0, 0.3, 1.2],
                                  n_values=[16, 720], mc_samples=10_000, seed=0)
        for r in records:
            assert r.jiou_bar == pytest.approx(1.0, abs=1e-12)
            assert abs(r.dev_ellipse) <= 1e-12

    def test_zero_angle_rows_exact(self):
        records = deviation_sweep(aspect_ratios=[3.0], angle_diffs=[0.0],
                                  n_values=[64], mc_samples=10_000, seed=0)
        r = records[0]
        assert r.jiou_bar == 1.0 and r.rect_iou == 1.0 and r.ellipse_mc == 1.0
        assert r.dev_rect == 0.0 and r.dev_ellipse == 0.0

    def test_references_shared_across_n(self):
        records = deviation_sweep(aspect_ratios=[2.0], angle_diffs=[0.4],
                                  n_values=[16, 64, 720], mc_samples=10_000, seed=3)
        assert len({r.rect_iou for r in records}) == 1
        assert len({r.ellipse_mc for r in records}) == 1

    def test_deterministic(self):
        kw = dict(aspect_ratios=[1.5], angle_diffs=[0.7], n_values=[64],
                  mc_samples=10_000, seed=5)
        assert deviation_sweep(**kw) == deviation_sweep(**kw)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyBatchError):
            deviation_sweep(aspect_ratios=[], angle_diffs=[0.1], n_values=[16])

    def test_default_angle_grid(self):
        diffs = default_angle_diffs()
        assert len(diffs) == 19
        assert diffs[0] == 0.0
        assert diffs[-1] == pytest.approx(math.pi / 2, abs=1e-15)


class TestResultRecords:
    """Each record stores what was measured; what follows from it is derived."""

    @pytest.mark.parametrize("record, stored", [
        (JiouValue, ("ratio",)),
        (FitTrace, ("steps", "projected_steps", "loss_kind")),
        (SweepRecord, ("aspect_ratio", "angle_diff", "n", "jiou_bar", "rect_iou",
                       "ellipse_mc")),
    ])
    def test_stored_fields(self, record, stored):
        assert tuple(f.name for f in dataclasses.fields(record)) == stored

    @pytest.mark.parametrize("record, kwargs", [
        (JiouValue, dict(ratio=0.5, loss=0.0)),
        (FitTrace, dict(steps=(FitStep(0, 0.0, 3.0, 1.0, 0.0, 1.0),), final_exact_iou=0.2,
                        converged=False, projected_steps=(), loss_kind="jiou")),
        (SweepRecord, dict(aspect_ratio=2.0, angle_diff=0.5, n=64, jiou_bar=0.8,
                           rect_iou=0.7, ellipse_mc=0.75, dev_rect=0.0, dev_ellipse=0.0)),
    ])
    def test_derived_value_cannot_be_passed(self, record, kwargs):
        """Derived values that contradict the stored ones cannot be passed in."""
        with pytest.raises(TypeError):
            record(**kwargs)

    def test_jiou_loss_follows_ratio(self):
        assert JiouValue(0.25).loss == -math.log(0.25)
        assert JiouValue(0.0).loss == -math.log(RATIO_FLOOR)
        loss = JiouValue(1.0).loss
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0

    def test_fit_verdict_follows_last_step(self):
        below = math.nextafter(CONVERGED_IOU, 0.0)
        first = FitStep(0, 0.0, 3.0, 1.0, 0.5, 0.2)
        for last_iou, converged in ((CONVERGED_IOU, True), (below, False)):
            trace = FitTrace((first, FitStep(1, 0.1, 3.0, 1.0, 0.1, last_iou)), (), "jiou")
            assert trace.final_exact_iou == last_iou
            assert trace.converged is converged

    def test_sweep_deviations_follow_measurements(self):
        r = SweepRecord(2.0, 0.5, 64, jiou_bar=0.8, rect_iou=0.7, ellipse_mc=0.75)
        assert r.dev_rect == 0.8 - 0.7 and r.dev_ellipse == 0.8 - 0.75


class TestCsvOutput:
    def test_sweep_matches_loss_library(self):
        """Sweep cells recompute jiou_bar faithfully."""
        records = deviation_sweep(aspect_ratios=[2.5], angle_diffs=[0.6],
                                  n_values=[64], mc_samples=10_000, seed=0)
        expect = jiou_bar(OrientedBox(0, 0, 2.5, 1, 0), OrientedBox(0, 0, 2.5, 1, 0.6), 64)
        assert records[0].jiou_bar == expect.ratio
