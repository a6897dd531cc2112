"""Desk-scale regression experiments: gradient-descent box fitting under the
polar IoU loss or SmoothL1, and deviation sweeps of the discrete ratio
against exact-rectangle and Monte-Carlo-ellipse references."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .boxes import HALF_PI, OrientedBox, canonicalize
from .codec import smooth_l1
from .errors import EmptyBatchError, check_count, finite, short_int
from .loss import DEFAULT_N, jiou_bar, jiou_gradient
from .oracle import exact_rect_iou, mc_ellipse_iou

CONVERGED_IOU = 0.95
MIN_HALF_EXTENT = 0.1
MAX_HALVINGS = 10
DEFAULT_LR = 0.05
DEFAULT_MAX_ITERS = 500
DEFAULT_SEED = 42

DEFAULT_ASPECT_RATIOS = (1.0, 1.5, 2.0, 3.0, 5.0)
DEFAULT_N_VALUES = (16, 64, 256, 720, 1024, 8192)
SWEEP_MC_SAMPLES = 1_000_000


@dataclass(frozen=True)
class FitStep:
    step: int
    phi: float
    r1: float
    r2: float
    loss: float
    exact_iou: float


@dataclass(frozen=True)
class FitTrace:
    """One gradient-descent run: per-step states plus the convergence verdict.

    Stored: steps, projected_steps (the steps whose half-extents had to be
    clamped back to the validity floor) and loss_kind.  final_exact_iou
    and converged are derived from the last step.
    """

    steps: tuple
    projected_steps: tuple
    loss_kind: str

    @property
    def final_exact_iou(self) -> float:
        return self.steps[-1].exact_iou

    @property
    def converged(self) -> bool:
        return self.final_exact_iou >= CONVERGED_IOU


def _pinned_tuple(box: OrientedBox):
    # Centers are pinned to the target during fitting, so the offset
    # components of the regression tuple are identically zero.
    return (box.phi, box.r1, box.r2, 0.0, 0.0)


def fit_box(init: OrientedBox, target: OrientedBox, loss_kind: str,
            n: int = DEFAULT_N, lr: float = DEFAULT_LR,
            max_iters: int = DEFAULT_MAX_ITERS) -> FitTrace:
    """Gradient descent on (phi, r1, r2) with both centers pinned together.

    The state is re-canonicalized after every update.  A step that would
    raise the loss retries at halved rates (up to 10 halvings); if no rate
    helps, the run stops where it stands.  Half-extents that leave validity
    are clamped back to 0.1 and the step is recorded as projected.
    Convergence means exact rectangle IoU >= 0.95, checked at every
    recorded step including the initial state.  Fully deterministic.
    The SmoothL1 target tuple is built once per run.  A JIoU evaluation
    asks only for the target's and the candidate's profiles, so with
    polar.PROFILE_SLOTS kept the target's is built once per run.  It sums
    the pair once: jiou_gradient keeps the pair's sums and ratio, keyed on
    both boxes' (r1, r2, phi) and n and swapped as one tuple, and the
    jiou_bar after it reads the ratio from there and builds no profile.
    """
    if loss_kind not in ("jiou", "smooth_l1"):
        raise ValueError(f"loss_kind must be 'jiou' or 'smooth_l1', got {loss_kind!r}")
    if not (finite(lr) and lr > 0.0):
        raise ValueError(f"lr must be finite and positive, got {short_int(lr)}")
    max_iters = check_count("max_iters", max_iters, 1)
    target = canonicalize(target)
    pinned_target = _pinned_tuple(target)

    def evaluate(box):
        if loss_kind == "jiou":
            g = jiou_gradient(box, target, n)
            return jiou_bar(box, target, n).loss, (g.d_phi, g.d_r1, g.d_r2)
        loss = smooth_l1(_pinned_tuple(box), pinned_target)
        return loss, (min(max(box.phi - target.phi, -1.0), 1.0),
                      min(max(box.r1 - target.r1, -1.0), 1.0),
                      min(max(box.r2 - target.r2, -1.0), 1.0))

    state = canonicalize(OrientedBox(target.cx, target.cy, init.r1, init.r2, init.phi))
    loss, grad = evaluate(state)
    steps = []
    projected = []
    for it in range(max_iters + 1):
        iou = exact_rect_iou(state, target)
        steps.append(FitStep(it, state.phi, state.r1, state.r2, loss, iou))
        if iou >= CONVERGED_IOU or it == max_iters:
            break
        g_phi, g_r1, g_r2 = grad
        for halvings in range(MAX_HALVINGS + 1):
            # Plain floats overflow to inf without a warning; OrientedBox rejects inf.
            step = math.ldexp(lr, -halvings)
            phi, r1, r2 = state.phi - step * g_phi, state.r1 - step * g_r1, state.r2 - step * g_r2
            cand_box = canonicalize(OrientedBox(
                target.cx, target.cy,
                max(r1, MIN_HALF_EXTENT), max(r2, MIN_HALF_EXTENT), phi,
            ))
            cand_loss, cand_grad = evaluate(cand_box)
            if cand_loss <= loss:
                break
        else:
            break  # no learning rate in the halving budget descends from here
        state, loss, grad = cand_box, cand_loss, cand_grad
        if r1 < MIN_HALF_EXTENT or r2 < MIN_HALF_EXTENT:
            projected.append(it + 1)

    return FitTrace(tuple(steps), tuple(projected), loss_kind)


def default_fit_suite(num_cases: int = 50, seed: int = DEFAULT_SEED):
    """The seeded random fit suite: (init, target) pairs.

    Targets have aspect ratio in [1.5, 5] and arbitrary orientation; the
    initial guess keeps the target's extents but is off in angle by up to
    80 degrees either way.  num_cases is a whole number from 0 to
    sys.maxsize, the longest list CPython can hold; a larger count raises
    ValueError before any case is drawn.
    """
    num_cases = check_count("num_cases", num_cases, 0)
    if num_cases > sys.maxsize:
        raise ValueError(f"num_cases must be at most {sys.maxsize}, got {short_int(num_cases)}")
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(num_cases):
        r2 = rng.uniform(5.0, 20.0)
        ar = rng.uniform(1.5, 5.0)
        phi = rng.uniform(-HALF_PI, HALF_PI)
        target = canonicalize(OrientedBox(0.0, 0.0, ar * r2, r2, phi))
        angle_err = math.radians(rng.uniform(-80.0, 80.0))
        init = OrientedBox(0.0, 0.0, target.r1, target.r2, target.phi + angle_err)
        cases.append((init, target))
    return cases


def run_fit_suite(loss_kind: str, cases, n: int = DEFAULT_N,
                  lr: float = DEFAULT_LR, max_iters: int = DEFAULT_MAX_ITERS):
    """fit_box over a list of (init, target) cases."""
    return [fit_box(init, target, loss_kind, n=n, lr=lr, max_iters=max_iters)
            for init, target in cases]


def default_angle_diffs():
    """0 .. pi/2 in steps of pi/36 (19 values)."""
    return tuple(k * (math.pi / 36.0) for k in range(19))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep cell: the discrete ratio against both references.

    Stored: the cell's inputs and the three measurements.  The deviations
    dev_rect and dev_ellipse are derived, signed (ratio minus reference).
    """

    aspect_ratio: float
    angle_diff: float
    n: int
    jiou_bar: float
    rect_iou: float
    ellipse_mc: float

    @property
    def dev_rect(self) -> float:
        return self.jiou_bar - self.rect_iou

    @property
    def dev_ellipse(self) -> float:
        return self.jiou_bar - self.ellipse_mc


def _cell_seed(seed: int, i: int, j: int) -> int:
    return seed * 1_000_003 + i * 1_009 + j


def deviation_sweep(aspect_ratios=None, angle_diffs=None, n_values=None,
                    mc_samples: int = SWEEP_MC_SAMPLES, seed: int = DEFAULT_SEED):
    """Ratio-vs-oracle records over concentric pairs (ar, 1, 0) vs (ar, 1, dphi).

    The exact-rectangle IoU and the Monte-Carlo ellipse IoU are computed once
    per (aspect ratio, angle) pair and shared across the n grid.  The Monte-
    Carlo seed is derived deterministically per pair, so a fixed seed yields
    byte-identical sweeps.
    """
    ars = DEFAULT_ASPECT_RATIOS if aspect_ratios is None else tuple(aspect_ratios)
    dphis = default_angle_diffs() if angle_diffs is None else tuple(angle_diffs)
    ns = DEFAULT_N_VALUES if n_values is None else tuple(n_values)
    if not ars or not dphis or not ns:
        raise EmptyBatchError("sweep grids must be non-empty")
    # Fewer than MIN_MC_SAMPLES is the oracle's InsufficientSamplesError.
    mc_samples = check_count("mc_samples", mc_samples, 1)
    records = []
    for i, ar in enumerate(ars):
        base = OrientedBox(0.0, 0.0, ar, 1.0, 0.0)
        for j, dphi in enumerate(dphis):
            rotated = OrientedBox(0.0, 0.0, ar, 1.0, dphi)
            rect = exact_rect_iou(base, rotated)
            mc, _ = mc_ellipse_iou(base, rotated, mc_samples, _cell_seed(seed, i, j))
            for n in ns:
                value = jiou_bar(base, rotated, n)
                records.append(SweepRecord(
                    aspect_ratio=float(ar), angle_diff=float(dphi), n=int(n),
                    jiou_bar=value.ratio, rect_iou=rect, ellipse_mc=mc))
    return records

