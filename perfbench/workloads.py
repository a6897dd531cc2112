"""The four seeded benchmark workloads.

Each workload turns a seed into inputs (`setup`), runs one operation on
them (`op`) and checks that operation's output (`check`).  Inputs depend
only on the seed, so the same seed gives byte-identical inputs.  The
library under test sees only those generated inputs, and every call into
it goes through a module attribute of `polarjiou`, so the tracer in
`spans.py` can wrap it.

Reference outputs captured from the library for the default seed live in
`reference.json` (see `make_reference.py`); the checks that work for any
seed are derived from the generators themselves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import polarjiou
import polarjiou.cli
from polarjiou.fitting import DEFAULT_ASPECT_RATIOS, default_angle_diffs

DEFAULT_SEED = 42
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances for outputs whose floating-point summation order a faster
# kernel may change.
RATIO_TOL = 1e-9
GRAD_ABS_TOL = 1e-9
GRAD_REL_TOL = 1e-7
FIT_IOU_TOL = 1e-6
# Criterion 1 of the acceptance scorecard: the n=720 ratio sits within this
# distance of the Monte-Carlo ellipse IoU.
SWEEP_MC_BOUND = 0.01


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit integer seed derived from (seed, *keys)."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def box_tuple(box):
    return (box.cx, box.cy, box.r1, box.r2, box.phi)


# --------------------------------------------------------------------------
# loss-batch


def reference_jiou(preds, targets, n):
    """Ratio, loss and (d_phi, d_r1, d_r2) for paired boxes, all pairs at once.

    An independent numpy statement of the discrete polar ratio and its
    gradient, with ties routed into both the min and the max sums.  It is
    the oracle for `batch_jiou`; it shares no code with the library.
    """
    p = np.array([box_tuple(b) for b in preds])
    t = np.array([box_tuple(b) for b in targets])
    theta = np.arange(n) * (2.0 * math.pi / n)

    def profile(params):
        r1 = params[:, 2:3]
        r2 = params[:, 3:4]
        a = theta[None, :] - params[:, 4:5]
        c, s = np.cos(a), np.sin(a)
        denom = (r2 * c) ** 2 + (r1 * s) ** 2
        return r1 * r2 / np.sqrt(denom), r1, r2, c, s, denom

    rho_p, r1, r2, c, s, denom = profile(p)
    rho_t = profile(t)[0]
    lo = np.minimum(rho_p, rho_t)
    hi = np.maximum(rho_p, rho_t)
    s_min = np.sum(lo * lo, axis=1)
    s_max = np.sum(hi * hi, axis=1)
    ratio = s_min / s_max
    loss = -np.log(np.maximum(ratio, 1e-12)) + 0.0
    in_min = rho_p <= rho_t
    in_max = rho_p >= rho_t
    weight = 2.0 * rho_p
    drho = (
        rho_p * c * s * (r1 * r1 - r2 * r2) / denom,
        rho_p * (r2 * c) ** 2 / (r1 * denom),
        rho_p * (r1 * s) ** 2 / (r2 * denom),
    )
    grads = [
        np.sum(np.where(in_max, weight * d, 0.0), axis=1) / s_max
        - np.sum(np.where(in_min, weight * d, 0.0), axis=1) / s_min
        for d in drho
    ]
    return np.column_stack([ratio, loss, *grads])


def jiou_rows(values, grads):
    return np.array([(v.ratio, v.loss, g.d_phi, g.d_r1, g.d_r2)
                     for v, g in zip(values, grads)])


def rows_match(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    ratio_ok = np.abs(got[:, :2] - want[:, :2]) <= RATIO_TOL
    grad_ok = np.abs(got[:, 2:] - want[:, 2:]) <= GRAD_ABS_TOL + GRAD_REL_TOL * np.abs(want[:, 2:])
    return bool(ratio_ok.all() and grad_ok.all())


class LossBatch:
    """One op is one batch_jiou call on 256 seeded pairs at n=720."""

    name = "loss-batch"
    why = ("The training-loss hot path: loss and polar do almost all the work "
           "and oracle/codec none, so a batched polar kernel shows at full size "
           "while an NMS or codec change should show no change.")
    pairs = 256
    n = 720
    ties = 8          # identical pairs per batch, so the tie path runs
    batches = 8       # distinct batches, used in turn
    items_per_op = pairs
    trace_ops = 24
    streams_memory = False

    def setup(self, seed, workdir, reference):
        rng = np.random.default_rng(seed)
        batches = []
        for _ in range(self.batches):
            targets, preds = [], []
            for k in range(self.pairs):
                target = self._random_box(rng)
                pred = target if k < self.ties else self._random_box(rng)
                targets.append(target)
                preds.append(pred)
            order = rng.permutation(self.pairs)
            preds = [preds[k] for k in order]
            targets = [targets[k] for k in order]
            batches.append((preds, targets, reference_jiou(preds, targets, self.n)))
        state = {"batches": batches, "reference": None}
        if seed == DEFAULT_SEED and reference:
            state["reference"] = reference["loss-batch"]
        return state

    @staticmethod
    def _random_box(rng):
        r2 = rng.uniform(2.0, 30.0)
        ar = rng.uniform(1.0, 6.0)
        return polarjiou.OrientedBox(rng.uniform(0.0, 512.0), rng.uniform(0.0, 512.0),
                                     ar * r2, r2, rng.uniform(-math.pi, math.pi))

    def op(self, state, i):
        preds, targets, _ = state["batches"][i % self.batches]
        return polarjiou.batch_jiou(preds, targets, n=self.n)

    def check(self, state, i, out):
        b = i % self.batches
        _, _, want = state["batches"][b]
        mean_loss, values, grads = out
        got = jiou_rows(values, grads)
        if not rows_match(got, want):
            return False
        if abs(mean_loss - float(np.mean(want[:, 1]))) > RATIO_TOL:
            return False
        ref = state["reference"]
        if ref is not None:
            if abs(mean_loss - ref["mean_loss"][b]) > RATIO_TOL:
                return False
            if b == 0 and not rows_match(got, ref["batch0_rows"]):
                return False
        return True


# --------------------------------------------------------------------------
# fit-suite


class FitSuite:
    """One op is one fit_box case; a pass is a 50-case suite under both losses."""

    name = "fit-suite"
    why = ("The paper's convergence experiment: one pair per loss call and an "
           "exact rectangle IoU per accepted step, so per-call overhead in loss "
           "or oracle shows here where a batch-only speed-up does not.")
    cases_per_suite = 50
    kinds = ("jiou", "smooth_l1")
    suites = 40       # passes generated up front; ops cycle through them
    items_per_op = 1
    trace_ops = 200
    streams_memory = False

    def setup(self, seed, workdir, reference):
        ops = []
        for p in range(self.suites):
            suite_seed = seed if p == 0 else _sub_seed(seed, p)
            cases = polarjiou.default_fit_suite(self.cases_per_suite, suite_seed)
            for kind in self.kinds:
                ops.extend((init, target, kind) for init, target in cases)
        state = {"ops": ops, "reference": None}
        if seed == DEFAULT_SEED and reference:
            state["reference"] = reference["fit-suite"]
        return state

    def op(self, state, i):
        init, target, kind = state["ops"][i % len(state["ops"])]
        return polarjiou.fit_box(init, target, kind)

    def check(self, state, i, trace):
        _, _, kind = state["ops"][i % len(state["ops"])]
        if trace.loss_kind != kind or not trace.steps:
            return False
        if [s.step for s in trace.steps] != list(range(len(trace.steps))):
            return False
        losses = [s.loss for s in trace.steps]
        if any(b > a for a, b in zip(losses, losses[1:])):
            return False
        iou = trace.final_exact_iou
        if not 0.0 <= iou <= 1.0 or iou != trace.steps[-1].exact_iou:
            return False
        if trace.converged != (iou >= 0.95):
            return False
        ref = state["reference"]
        k = i % len(state["ops"])
        if ref is not None and k < len(ref["converged"]):
            if trace.converged != ref["converged"][k]:
                return False
            if abs(iou - ref["final_exact_iou"][k]) > FIT_IOU_TOL:
                return False
        return True


# --------------------------------------------------------------------------
# detect


def fmt9(x) -> str:
    return f"{float(x):.9g}"


DETECTIONS_HEADER = "cx,cy,r1,r2,phi,score,category"


def _corners(box):
    """x1 y1 ... x4 y4 of a box's corners, computed here so that the input
    files do not depend on the library's own corner decoding."""
    c, s = math.cos(box.phi), math.sin(box.phi)
    out = []
    for u, v in ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)):
        x, y = u * box.r1, v * box.r2
        out += [box.cx + c * x - s * y, box.cy + s * x + c * y]
    return out


class Detect:
    """One op is one synthetic image through the in-process CLI:
    `roundtrip` on its annotation file, then `nms` on its detections CSV."""

    name = "detect"
    why = ("The only workload that runs annotation parsing, the codec, CSV I/O "
           "and rotated_nms; duplicate clusters overlap while same-category "
           "clusters lie far apart, so exact pruning and faster clipping show.")
    size = 512
    stride = 4
    objects = 60
    categories = 15
    duplicates = 4
    images = 12       # distinct images, used in turn
    items_per_op = 1
    nms_iou = 0.1
    trace_ops = 12
    streams_memory = False

    def setup(self, seed, workdir, reference):
        rng = np.random.default_rng(seed)
        images = [self._write_image(rng, workdir, k) for k in range(self.images)]
        state = {"images": images, "reference": None}
        if seed == DEFAULT_SEED and reference:
            state["reference"] = reference["detect"]
        return state

    def _scene(self, rng):
        """60 boxes on pairwise non-adjacent stride cells; boxes of one
        category lie so far apart that their jittered duplicates never meet."""
        lattice = (self.size // self.stride - 2) // 3
        cats = rng.permutation(np.repeat(np.arange(self.categories),
                                         self.objects // self.categories))
        used, placed = set(), []
        for cat in cats:
            r2 = rng.uniform(2.0, 10.0)
            r1 = r2 * rng.uniform(1.2, 4.0)
            phi = rng.uniform(-math.pi / 2, math.pi / 2)
            reach = 1.2 * math.hypot(r1, r2)
            while True:
                slot = int(rng.integers(lattice * lattice))
                cx = (1 + 3 * (slot % lattice) + rng.uniform(0.05, 0.95)) * self.stride
                cy = (1 + 3 * (slot // lattice) + rng.uniform(0.05, 0.95)) * self.stride
                if slot in used:
                    continue
                if all(c != cat or math.hypot(cx - x, cy - y) > reach + rch + 4.0
                       for x, y, rch, c in placed):
                    break
            used.add(slot)
            placed.append((cx, cy, reach, cat))
            yield polarjiou.OrientedBox(cx, cy, r1, r2, phi), int(cat)

    def _write_image(self, rng, workdir, k):
        objects = list(self._scene(rng))
        ann = os.path.join(workdir, f"ann_{k}.txt")
        with open(ann, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("imagesource:synthetic\ngsd:1.0\n")
            for box, cat in objects:
                fh.write(" ".join(repr(v) for v in _corners(box)) + f" cat{cat:02d} 0\n")
        rows = []
        for cluster, (box, cat) in enumerate(objects):
            for d in range(self.duplicates + 1):
                if d:
                    box_d = polarjiou.OrientedBox(
                        box.cx + rng.uniform(-0.1, 0.1) * box.r2,
                        box.cy + rng.uniform(-0.1, 0.1) * box.r2,
                        box.r1 * rng.uniform(0.95, 1.05),
                        box.r2 * rng.uniform(0.95, 1.05),
                        box.phi + rng.uniform(-0.05, 0.05))
                else:
                    box_d = box
                rows.append((box_tuple(box_d), float(rng.uniform(0.05, 1.0)), cat, cluster))
        rows = [rows[j] for j in rng.permutation(len(rows))]
        dets = os.path.join(workdir, f"dets_{k}.csv")
        with open(dets, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(DETECTIONS_HEADER + "\n")
            for params, score, cat, _ in rows:
                fh.write(",".join(repr(v) for v in (*params, score)) + f",{cat}\n")
        # Greedy NMS keeps exactly the best-scoring row of every cluster.
        best = {}
        for j, (_, score, _, cluster) in enumerate(rows):
            if cluster not in best or score > rows[best[cluster]][1]:
                best[cluster] = j
        keep = sorted(best.values(), key=lambda j: (-rows[j][1], j))
        expected = [DETECTIONS_HEADER] + [
            ",".join(fmt9(v) for v in (*rows[j][0], rows[j][1])) + f",{rows[j][2]}"
            for j in keep
        ]
        kept = os.path.join(workdir, f"kept_{k}.csv")
        return {"ann": ann, "dets": dets, "kept": kept, "keep": keep,
                "expected": "\n".join(expected) + "\n", "rows": len(rows)}

    def op(self, state, i):
        img = state["images"][i % self.images]
        rt_out, nms_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(rt_out):
            rt_code = polarjiou.cli.main(["roundtrip", img["ann"]])
        with contextlib.redirect_stdout(nms_out):
            nms_code = polarjiou.cli.main(["nms", img["dets"], "--nms-iou", str(self.nms_iou),
                                           "--out", img["kept"]])
        return rt_code, rt_out.getvalue(), nms_code, nms_out.getvalue()

    def check(self, state, i, out):
        k = i % self.images
        img = state["images"][k]
        rt_code, rt_text, nms_code, nms_text = out
        if rt_code != 0 or nms_code != 0:
            return False
        lines = rt_text.splitlines()
        if (f"records {self.objects}" not in lines or "parse_errors 0" not in lines
                or "failures 0" not in lines):
            return False
        if nms_text != f"kept {len(img['keep'])} of {img['rows']}\n":
            return False
        with open(img["kept"], "r", encoding="utf-8") as fh:
            if fh.read() != img["expected"]:
                return False
        ref = state["reference"]
        if ref is not None and img["keep"] != ref["keep"][k]:
            return False
        return True


# --------------------------------------------------------------------------
# sweep


class Sweep:
    """One op is one (aspect ratio, angle) cell of the default deviation sweep."""

    name = "sweep"
    why = ("The README's headline experiment and the only workload running "
           "mc_ellipse_iou and jiou_bar at large n; NMS, codec or small-n "
           "loss changes should leave it unchanged.")
    passes = 4        # seeded orders of the 95 default cells, used in turn
    items_per_op = 1
    trace_ops = 24
    streams_memory = True  # each Monte-Carlo estimate passes over 16 MB of samples

    def setup(self, seed, workdir, reference):
        ars = DEFAULT_ASPECT_RATIOS
        dphis = default_angle_diffs()
        cells = [(a, d) for a in range(len(ars)) for d in range(len(dphis))]
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(self.passes):
            for c in rng.permutation(len(cells)):
                a, d = cells[c]
                ops.append((ars[a], dphis[d], a * len(dphis) + d,
                            int(rng.integers(2**31))))
        return {"ops": ops, "reference": reference["sweep"]}

    def op(self, state, i):
        ar, dphi, _, mc_seed = state["ops"][i % len(state["ops"])]
        return polarjiou.deviation_sweep(aspect_ratios=(ar,), angle_diffs=(dphi,),
                                         seed=mc_seed)

    def check(self, state, i, records):
        _, _, cell, _ = state["ops"][i % len(state["ops"])]
        ref = state["reference"]
        if [r.n for r in records] != ref["n_values"]:
            return False
        want = ref["ratios"][cell]
        for r, w in zip(records, want):
            if abs(r.jiou_bar - w) > RATIO_TOL:
                return False
            if abs(r.rect_iou - ref["rect_iou"][cell]) > RATIO_TOL:
                return False
            if abs(r.dev_ellipse - (r.jiou_bar - r.ellipse_mc)) > RATIO_TOL:
                return False
        at_720 = [r for r in records if r.n == 720]
        return len(at_720) == 1 and abs(at_720[0].dev_ellipse) <= SWEEP_MC_BOUND


WORKLOADS = {w.name: w for w in (LossBatch(), FitSuite(), Detect(), Sweep())}
