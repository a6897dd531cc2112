"""Span bookkeeping and seeded inputs of the benchmark."""

import json
import os
import sys

import numpy
import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(PERFBENCH), "src"))
sys.path.insert(0, PERFBENCH)

import polarjiou  # noqa: E402
import polarjiou.cli  # noqa: E402
import polarjiou.oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=fake_clock())
    inner = tracer.wrap("inner", lambda: None)
    mid = tracer.wrap("mid", lambda: inner())
    outer = tracer.wrap("outer", lambda: (mid(), inner()))
    outer()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "mid", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    # outer 0..7, mid 1..4, inner 2..3, inner 5..6
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 1.0]


def test_span_is_closed_when_the_call_raises():
    tracer = spans.Tracer(clock=fake_clock())

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert tracer.spans[0].end > tracer.spans[0].start
    assert tracer.wrap("ok", lambda: 1)() == 1
    assert tracer.spans[1].parent == -1


def test_nested_nms_spans_inside_cli_main(tmp_path):
    dets = tmp_path / "dets.csv"
    dets.write_text("cx,cy,r1,r2,phi,score,category\n"
                    "0,0,2,1,0,0.9,0\n0.2,0,2,1,0,0.8,0\n50,50,2,1,0,0.7,0\n")
    original = polarjiou.oracle.exact_rect_iou
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert polarjiou.cli.main(["nms", str(dets), "--out", str(tmp_path / "kept.csv")]) == 0
    assert polarjiou.oracle.exact_rect_iou is original

    sp = tracer.spans
    by_name = {}
    for k, s in enumerate(sp):
        by_name.setdefault(s.name, []).append(k)
    (main,) = by_name["cli.main"]
    (nms,) = by_name["oracle.rotated_nms"]
    assert sp[nms].parent == main
    assert len(by_name["oracle.exact_rect_iou"]) == 2
    assert all(sp[k].parent == nms for k in by_name["oracle.exact_rect_iou"])

    self_s = spans.self_times(sp)
    for k in (main, nms, *by_name["oracle.exact_rect_iou"]):
        children = sum(s.end - s.start for s in sp if s.parent == k)
        assert self_s[k] == pytest.approx(sp[k].end - sp[k].start - children, abs=1e-12)
    assert sum(self_s) == pytest.approx(sp[main].end - sp[main].start, abs=1e-9)

    metrics = spans.layer_metrics(sp, 1.0)
    assert metrics["cli.main.self_ms"]["value"] == pytest.approx(self_s[main] * 1e3)
    assert metrics["oracle.rotated_nms.self_ms"]["value"] == pytest.approx(self_s[nms] * 1e3)
    assert metrics["oracle.nms.pairs_clipped"]["value"] == 2
    assert metrics["oracle.nms.pairs_overlapping"]["value"] == 1
    assert metrics["oracle.nms.overlap_ratio"]["value"] == 0.5


COUNTERS = ("loss.angles_per_pair", "oracle.nms.pairs_clipped", "fitting.evaluations",
            "fitting.steps_accepted", "codec.heatmap_cells", "oracle.mc.samples")


def traced_counts(name, seed, ops, workdir):
    workload = type(workloads.WORKLOADS[name])()
    workload.trace_ops = ops
    os.makedirs(workdir)
    state = workload.setup(seed, str(workdir), workloads.load_reference())
    result = run.traced_run(workload, state, spans, run.SpeedGauge(numpy, workload.streams_memory))
    assert result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items()
            if k.endswith(".calls") or k in COUNTERS}


@pytest.mark.parametrize("name, ops", [("loss-batch", 2), ("fit-suite", 12),
                                       ("detect", 1), ("sweep", 2)])
def test_counters_repeat_exactly_for_one_seed(name, ops, tmp_path):
    first = traced_counts(name, 7, ops, tmp_path / "a")
    second = traced_counts(name, 7, ops, tmp_path / "b")
    assert first == second
    if name == "loss-batch":
        assert first["loss.angles_per_pair"] == 4 * workloads.LossBatch.n
        assert first["polar.radius_at.calls"] == 3 * ops * workloads.LossBatch.pairs
    if name == "fit-suite":
        assert first["fitting.evaluations"] > 0
    if name == "detect":
        assert first["oracle.nms.pairs_clipped"] > 0


@pytest.fixture
def dirs(tmp_path):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    return [str(tmp_path / sub) for sub in ("a", "b", "c")]


def test_detect_inputs_are_byte_identical_per_seed(dirs):
    detect = workloads.Detect()
    for d, seed in zip(dirs, (3, 3, 4)):
        detect.setup(seed, d, None)

    def read(d):
        return {f: open(os.path.join(d, f), "rb").read() for f in sorted(os.listdir(d))}

    a, b, c = (read(d) for d in dirs)
    assert a == b
    assert a.keys() == c.keys() and all(a[f] != c[f] for f in a)


@pytest.mark.parametrize("name", ["loss-batch", "fit-suite", "sweep"])
def test_generated_inputs_follow_the_seed(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()

    def inputs(seed):
        state = workload.setup(seed, None, reference)
        if name == "loss-batch":
            return [[workloads.box_tuple(b) for b in preds + targets]
                    for preds, targets, _ in state["batches"]]
        if name == "fit-suite":
            return [(workloads.box_tuple(i), workloads.box_tuple(t), k)
                    for i, t, k in state["ops"]]
        return state["ops"]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_matches_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workloads.DEFAULT_SEED, str(tmp_path), workloads.load_reference())
    assert workload.check(state, 0, workload.op(state, 0))


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOAD_NAMES
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS.items())
    assert tuple((m["name"], m["unit"]) for m in bench["per_layer"]) == spans.LAYER_METRICS
