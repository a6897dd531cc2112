"""Capture the library's outputs for the default seed into reference.json.

    python3 perfbench/make_reference.py

Run it from the repository root at the commit whose behaviour the
references pin; the workload checks then compare every later commit with
that one.  Inputs come from the same generators the benchmark uses.
"""

import json
import os
import sys
import tempfile

import run


def capture():
    numpy, _, workloads = run.import_library()
    import polarjiou
    import polarjiou.cli

    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed}

    loss = workloads.LossBatch()
    state = loss.setup(seed, None, None)
    means, rows0 = [], None
    for b, (preds, targets, _) in enumerate(state["batches"]):
        mean_loss, values, grads = polarjiou.batch_jiou(preds, targets, n=loss.n)
        means.append(mean_loss)
        if b == 0:
            rows0 = workloads.jiou_rows(values, grads).tolist()
    ref["loss-batch"] = {"mean_loss": means, "batch0_rows": rows0}

    fit = workloads.FitSuite()
    ops = fit.setup(seed, None, None)["ops"][: fit.cases_per_suite * len(fit.kinds)]
    traces = [polarjiou.fit_box(init, target, kind) for init, target, kind in ops]
    ref["fit-suite"] = {"converged": [t.converged for t in traces],
                        "final_exact_iou": [t.final_exact_iou for t in traces]}

    detect = workloads.Detect()
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        keeps = []
        for img in detect.setup(seed, workdir, None)["images"]:
            dets = polarjiou.cli.parse_detections_csv(img["dets"])
            index = {id(d): j for j, d in enumerate(dets)}
            keeps.append([index[id(d)] for d in polarjiou.rotated_nms(dets, detect.nms_iou)])
    ref["detect"] = {"keep": keeps}

    records = polarjiou.deviation_sweep(seed=seed)
    n_values = sorted({r.n for r in records}, key=[r.n for r in records].index)
    cells = [records[k:k + len(n_values)] for k in range(0, len(records), len(n_values))]
    ref["sweep"] = {"n_values": n_values,
                    "ratios": [[r.jiou_bar for r in cell] for cell in cells],
                    "rect_iou": [cell[0].rect_iou for cell in cells]}
    return ref


def main():
    ref = capture()
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
