"""Package acceptance gate: nine numbered behavior checks at fixed tolerances.

Each test prints one "criterion N: PASS/FAIL" verdict straight to the
terminal (bypassing capture) before asserting, so a full `pytest -v` run
always shows the scorecard.
"""

import math

import numpy as np

from conftest import run_cli
from helpers import (
    MC_SUITE_SAMPLES,
    MC_SUITE_SEED,
    dyadic,
    fd_gradient,
    fd_suite,
    mc_agreement_pairs,
    random_box,
)
from test_codec import lattice_objects
from polarjiou import (
    OrientedBox,
    exact_rect_iou,
    fit_box,
    jiou_bar,
    mc_rect_iou,
)
from polarjiou.attention import group_softmax
from polarjiou.codec import encode_decode_roundtrip, focal_loss, total_loss
from polarjiou.fitting import default_fit_suite, run_fit_suite
from polarjiou.loss import jiou_gradient

CONVERGENCE_NS = (16, 64, 256, 1024)


def verdict(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def test_criterion_1_sweep_agrees_with_ellipse_monte_carlo(sweep_records, capsys):
    """At n=720 every sweep cell sits within 0.01 of the sampled ellipse IoU,
    and the whole sweep finishes within the two-minute budget."""
    records, elapsed = sweep_records
    rows = [r for r in records if r.n == 720]
    worst = max(abs(r.dev_ellipse) for r in rows)
    ok = len(records) == 570 and len(rows) == 95 and worst <= 0.01 and elapsed <= 120.0
    line = verdict(capsys, 1, ok,
                   f"max |jiou_bar - mc| {worst:.2e} over {len(rows)} cells, "
                   f"sweep took {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_discretization_error_non_increasing(sweep_records, capsys):
    """|jiou_bar(n) - jiou_bar(8192)| must not grow along n in {16,64,256,1024}
    for any (aspect ratio, angle) cell, and circle cells must stay at ratio 1."""
    records, _ = sweep_records
    by_cell = {}
    for r in records:
        by_cell.setdefault((r.aspect_ratio, r.angle_diff), {})[r.n] = r.jiou_bar
    violations = []
    for (ar, dphi), cell in sorted(by_cell.items()):
        devs = [abs(cell[n] - cell[8192]) for n in CONVERGENCE_NS]
        if any(b > a for a, b in zip(devs, devs[1:])):
            violations.append(f"ar={ar:g} dphi={dphi:.4f} devs="
                              + ",".join(f"{d:.2e}" for d in devs))
    circle_off = max(abs(r.jiou_bar - 1.0) for r in records if r.aspect_ratio == 1.0)
    ok = not violations and circle_off <= 1e-12
    detail = (f"all {len(by_cell)} cells monotone, circle off by {circle_off:.1e}"
              if ok else f"{len(violations)} non-monotone cells: "
              + "; ".join(violations))
    line = verdict(capsys, 2, ok, detail)
    assert ok, line


def test_criterion_3_gradient_matches_finite_differences(capsys):
    """Analytic gradients track central differences (h=1e-5) to 1e-4 relative
    error on the frozen 100-pair suite."""
    worst = 0.0
    for pred, target in fd_suite(count=100, seed=42):
        g = jiou_gradient(pred, target, 720)
        analytic = np.array([g.d_phi, g.d_r1, g.d_r2])
        fd = fd_gradient(pred, target, n=720, h=1e-5)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / np.abs(fd))))
    ok = worst <= 1e-4
    line = verdict(capsys, 3, ok, f"max relative error {worst:.2e} on 100 pairs")
    assert ok, line


def test_criterion_4_angle_periodicity_and_axis_swap(capsys):
    """Shifting the predicted angle by any multiple of pi, or swapping the
    axes with a quarter-turn, leaves the loss unchanged to 1e-12."""
    rng = np.random.default_rng(1234)
    worst_period = 0.0
    worst_swap = 0.0
    for _ in range(100):
        target = random_box(rng, max_center=0.0, min_r=1.0, max_r=20.0)
        pred = random_box(rng, max_center=0.0, min_r=1.0, max_r=20.0)
        base = jiou_bar(pred, target, 720).loss
        for k in (-2, -1, 1, 2):
            shifted = OrientedBox(pred.cx, pred.cy, pred.r1, pred.r2,
                                  pred.phi + k * math.pi)
            worst_period = max(worst_period,
                               abs(jiou_bar(shifted, target, 720).loss - base))
        swapped = OrientedBox(pred.cx, pred.cy, pred.r2, pred.r1,
                              pred.phi + math.pi / 2)
        worst_swap = max(worst_swap,
                         abs(jiou_bar(swapped, target, 720).loss - base))
    ok = worst_period <= 1e-12 and worst_swap <= 1e-12
    line = verdict(capsys, 4, ok,
                   f"period drift {worst_period:.1e}, swap drift {worst_swap:.1e}")
    assert ok, line


def test_criterion_5_codec_roundtrip_thousand_boxes(capsys):
    """1000 random boxes encode to targets and decode back within 1e-6 per
    field with every object recovered."""
    rng = np.random.default_rng(7)
    objects = lattice_objects(rng, 1000, num_classes=4, height=128, width=128,
                              stride=4)
    errors, matches = encode_decode_roundtrip(objects, 4, 128, 128, 4)
    recalled = int(np.count_nonzero(~np.isnan(errors).any(axis=1)))
    worst = float(np.nanmax(errors)) if recalled else math.inf
    distinct = len({id(m) for m in matches if m is not None})
    ok = recalled == 1000 and worst <= 1e-6
    line = verdict(capsys, 5, ok,
                   f"recall {recalled}/1000, max field error {worst:.2e}, "
                   f"{distinct} distinct detections")
    assert ok, line


def test_criterion_6_exact_iou_oracle(capsys):
    """Exact rectangle IoU hits the closed-form shift and 45-degree values and
    agrees with Monte-Carlo sampling within 3 standard errors on 200 pairs."""
    shift = exact_rect_iou(OrientedBox(0, 0, 0.5, 0.5, 0),
                           OrientedBox(0.5, 0, 0.5, 0.5, 0))
    rot = exact_rect_iou(OrientedBox(0, 0, 0.5, 0.5, 0),
                         OrientedBox(0, 0, 0.5, 0.5, math.pi / 4))
    shift_ok = abs(shift - 1.0 / 3.0) <= 1e-12
    rot_ok = abs(rot - 0.70711) <= 1e-4
    mc_fail = 0
    worst_z = 0.0
    for i, (a, b, exact) in enumerate(mc_agreement_pairs(200)):
        est, se = mc_rect_iou(a, b, MC_SUITE_SAMPLES,
                              seed=MC_SUITE_SEED * 100_003 + i)
        if se == 0.0:
            mc_fail += est != exact
            continue
        z = abs(exact - est) / se
        worst_z = max(worst_z, z)
        mc_fail += z > 3.0
    ok = shift_ok and rot_ok and mc_fail == 0
    line = verdict(capsys, 6, ok,
                   f"shift {shift:.15f}, rot {rot:.6f}, "
                   f"{mc_fail} of 200 MC pairs outside 3 SE (worst z {worst_z:.2f})")
    assert ok, line


def test_criterion_7_fit_convergence_and_pi_immunity(capsys):
    """The seeded 50-case suite converges to exact IoU >= 0.95 in at least 45
    cases, and fits started at angle error theta and theta+pi trace
    identically."""
    traces = run_fit_suite("jiou", default_fit_suite())
    converged = sum(t.converged for t in traces)
    raws = (0.25, -0.5, 0.8125, 1.2, -1.4, 0.3, 0.6875, -0.9375, 1.0625, -0.125)
    mismatches = 0
    for k, raw in enumerate(raws):
        theta = dyadic(raw)
        r1 = 6.0 + k
        r2 = 2.0 + 0.25 * k
        target = OrientedBox(0, 0, r1, r2, 0.0)
        one = fit_box(OrientedBox(0, 0, r1, r2, theta), target, "jiou")
        two = fit_box(OrientedBox(0, 0, r1, r2, theta + math.pi), target, "jiou")
        mismatches += one.steps != two.steps
    ok = converged >= 45 and mismatches == 0
    line = verdict(capsys, 7, ok,
                   f"{converged}/50 converged, {mismatches}/10 pi-shifted "
                   f"trace pairs differ")
    assert ok, line


def test_criterion_8_loss_formula_spot_values(capsys):
    """Focal loss hits 0.25*ln(2) on a single half-confidence positive, the
    total combines as cla + 5*jiou + reg exactly, and group softmax rows
    always sum to 1."""
    values = np.zeros((1, 5, 5))
    values[0, 2, 2] = 1.0
    pred = np.zeros((1, 5, 5))
    pred[0, 2, 2] = 0.5
    focal = focal_loss(pred, values)
    focal_ok = abs(focal - 0.25 * math.log(2)) <= 1e-9
    total = total_loss(0.2, 0.1, 0.3, 5)
    total_ok = total == 1.0
    rng = np.random.default_rng(88)
    worst_sum = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        per = int(rng.integers(1, 5))
        c = m * per
        w = rng.normal(0.0, 3.0, size=c)
        maps = rng.normal(0.0, 2.0, size=(m, per, c))
        weights = group_softmax(w, maps).weights
        worst_sum = max(worst_sum, float(np.abs(weights.sum(axis=1) - 1.0).max()))
    softmax_ok = worst_sum <= 1e-9
    ok = focal_ok and total_ok and softmax_ok
    line = verdict(capsys, 8, ok,
                   f"focal {focal:.12f}, total {total!r}, "
                   f"worst softmax row-sum drift {worst_sum:.1e}")
    assert ok, line


def test_criterion_9_cli_byte_determinism(cli_sweep, tmp_path, capsys):
    """Every subcommand run twice with identical flags writes byte-identical
    stdout and output files."""
    ann = tmp_path / "ann.txt"
    ann.write_text(
        "imagesource:synthetic\ngsd:1.0\n"
        "32.0 36.0 48.0 36.0 48.0 44.0 32.0 44.0 plane 0\n"
        "74.0 82.0 86.0 82.0 86.0 94.0 74.0 94.0 ship 0\n")
    dets = tmp_path / "dets.csv"
    dets.write_text("cx,cy,r1,r2,phi,score,category\n"
                    "0,0,1,1,0,0.9,0\n0.5,0,1,1,0,0.8,0\n1,0,1,1,0,0.7,0\n")

    def double_run(name, argv_of):
        runs = []
        for tag in ("a", "b"):
            out_file = tmp_path / f"{name}_{tag}.csv"
            argv = argv_of(out_file)
            code, out, err = run_cli(argv)
            assert code == 0, (name, code, err)
            blob = out_file.read_bytes() if "--out" in argv else b""
            runs.append((out.encode(), blob))
        return runs[0] == runs[1]

    results = {
        "jiou": double_run("jiou", lambda _: [
            "jiou", "--pred", "1,2,6,2.5,0.7", "--target", "1,2,5,3,-0.2"]),
        "roundtrip": double_run("roundtrip", lambda _: ["roundtrip", str(ann)]),
        "fit": double_run("fit", lambda f: [
            "fit", "--init", "0,0,6,2,0.9", "--target", "0,0,6,2,0.1",
            "--out", str(f)]),
        "nms": double_run("nms", lambda f: [
            "nms", str(dets), "--nms-iou", "0.5", "--out", str(f)]),
        "heatmap-demo": double_run("heatmap-demo", lambda f: [
            "heatmap-demo", "--num-objects", "4", "--height", "32",
            "--width", "32", "--out", str(f)]),
    }
    sweep_path, sweep_code, _ = cli_sweep
    assert sweep_code == 0
    second_sweep = tmp_path / "sweep_b.csv"
    code, _, _ = run_cli(["sweep", "--out", str(second_sweep)])
    assert code == 0
    results["sweep"] = sweep_path.read_bytes() == second_sweep.read_bytes()

    unstable = sorted(name for name, same in results.items() if not same)
    ok = not unstable
    line = verdict(capsys, 9, ok,
                   f"{len(results)} commands replayed byte-identically"
                   if ok else f"unstable commands: {', '.join(unstable)}")
    assert ok, line
