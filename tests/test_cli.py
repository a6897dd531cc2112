"""Command-line front end: parsing, outputs, exit codes, golden agreement."""

import math
from pathlib import Path

import numpy as np
import pytest

import polarjiou.cli
import polarjiou.codec
from conftest import run_cli
from polarjiou import (
    OrientedBox,
    canonicalize,
    corner_set_distance,
    corners_to_box,
    decode_corners,
    jiou_bar,
    jiou_gradient,
)
from polarjiou.cli import (
    DEFAULT_NMS_IOU,
    DEFAULT_STRIDE,
    DETECTIONS_CSV_HEADER,
    HEATMAP_CSV_HEADER,
    ROUNDTRIP_CORNER_TOL,
    SWEEP_CSV_HEADER,
    TRACE_CSV_HEADER,
    SpecError,
    build_parser,
    fmt9,
    format_row,
    main,
    parse_box_spec,
    parse_detections_csv,
)
from polarjiou.codec import DEFAULT_ALPHA, DEFAULT_GAMMA
from polarjiou.errors import AnnotationError
from polarjiou.fitting import (
    DEFAULT_LR,
    DEFAULT_MAX_ITERS,
    DEFAULT_SEED,
    fit_box,
)
from polarjiou.loss import DEFAULT_N

GOLDEN_DETECTIONS = Path(__file__).parent / "golden" / "detections.csv"


def write_rect_file(path, boxes_and_cats, jitter=None, rng=None):
    """Write annotation lines from exact box corners, optionally jittered."""
    lines = ["imagesource:synthetic", "gsd:1.0"]
    quads = []
    for box, cat in boxes_and_cats:
        pts = decode_corners(box)
        if jitter is not None:
            pts = pts + rng.uniform(-jitter, jitter, size=(4, 2))
        quads.append(pts)
        flat = " ".join(repr(float(v)) for v in pts.reshape(-1))
        lines.append(f"{flat} {cat} 0")
    path.write_text("\n".join(lines) + "\n")
    return quads


def lattice_boxes(rng, count, spacing_cells=3, stride=4, base_cell=2):
    """Boxes whose center cells sit on a sparse lattice (no peak collisions)."""
    side = math.ceil(math.sqrt(count))
    boxes = []
    for i in range(count):
        cell_x = base_cell + spacing_cells * (i % side)
        cell_y = base_cell + spacing_cells * (i // side)
        cx = (cell_x + rng.uniform(0.1, 0.9)) * stride
        cy = (cell_y + rng.uniform(0.1, 0.9)) * stride
        r2 = rng.uniform(3.0, 8.0)
        r1 = r2 * rng.uniform(1.0, 2.5)
        boxes.append(canonicalize(OrientedBox(cx, cy, r1, r2, rng.uniform(-1.5, 1.5))))
    return boxes


class TestOutputFormat:
    def test_fmt9(self):
        assert fmt9(1.0) == "1"
        assert fmt9(0.0) == "0"
        assert fmt9(1 / 3) == "0.333333333"
        assert fmt9(math.log(4)) == "1.38629436"

    def test_format_row(self):
        """Ints print as integers, floats with 9 significant digits, numpy
        scalars like their Python counterparts."""
        row = (1234567890, np.int64(-3), 2.0, 1 / 3, np.float64(1 / 3), np.float64(1e308))
        assert format_row(row) == "1234567890,-3,2,0.333333333,0.333333333,1e+308"
        assert format_row(()) == ""


class TestParseBoxSpec:
    def test_valid_spec(self):
        assert parse_box_spec("1,2,3,1,0.5") == OrientedBox(1, 2, 3, 1, 0.5)

    def test_degrees(self):
        box = parse_box_spec("0,0,2,1,90", degrees=True)
        assert box.phi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_wrong_field_count(self):
        with pytest.raises(SpecError):
            parse_box_spec("1,2,3,1")

    def test_non_numeric(self):
        with pytest.raises(SpecError):
            parse_box_spec("1,2,x,1,0")

    def test_invalid_box(self):
        with pytest.raises(SpecError):
            parse_box_spec("1,2,0,1,0")


PAIR = ["--pred", "0,0,1,1,0", "--target", "0,0,1,1,0"]

# argv -> every parsed value of that subcommand; a flag a subcommand does not
# read is absent, so adding one to the wrong subcommand fails here.
DEFAULTS = [
    (["jiou", *PAIR], dict(n=DEFAULT_N, degrees=False,
                           pred="0,0,1,1,0", target="0,0,1,1,0")),
    (["sweep"], dict(seed=DEFAULT_SEED, out="sweep.csv")),
    (["roundtrip", "a.txt"], dict(stride=DEFAULT_STRIDE, annotations="a.txt")),
    (["fit"], dict(n=DEFAULT_N, seed=DEFAULT_SEED, degrees=False, init=None, target=None,
                   loss="jiou", lr=DEFAULT_LR, iters=DEFAULT_MAX_ITERS, suite=False,
                   out=None)),
    (["nms", "d.csv"], dict(nms_iou=DEFAULT_NMS_IOU, degrees=False, detections="d.csv",
                            out=None)),
    (["heatmap-demo"], dict(stride=DEFAULT_STRIDE, alpha=DEFAULT_ALPHA, gamma=DEFAULT_GAMMA,
                            seed=DEFAULT_SEED, num_objects=5, classes=3, height=64,
                            width=64, out=None)),
]


@pytest.mark.parametrize("argv,expected", DEFAULTS, ids=[a[0] for a, _ in DEFAULTS])
def test_subcommand_defaults(argv, expected):
    args = vars(build_parser().parse_args(argv))
    del args["command"], args["func"]
    assert args == expected


class TestJiouCommand:
    def test_identical_boxes(self):
        code, out, _ = run_cli(["jiou", "--pred", "5,5,2,1,0.3",
                                "--target", "5,5,2,1,0.3"])
        assert code == 0
        lines = dict(ln.split() for ln in out.splitlines())
        assert float(lines["ratio"]) == 1.0
        assert float(lines["loss"]) == 0.0

    def test_circles_log_four(self):
        code, out, _ = run_cli(["jiou", "--pred", "0,0,1,1,0", "--target", "0,0,2,2,0"])
        assert code == 0
        assert f"loss {fmt9(math.log(4))}" in out.splitlines()

    def test_golden_against_library(self):
        """CLI output is the library result, digit for digit."""
        pred = OrientedBox(1, 2, 6, 2.5, 0.7)
        target = OrientedBox(1, 2, 5, 3, -0.2)
        code, out, _ = run_cli(["jiou", "--pred", "1,2,6,2.5,0.7",
                                "--target", "1,2,5,3,-0.2"])
        v = jiou_bar(pred, target, 720)
        g = jiou_gradient(pred, target, 720)
        expected = (f"ratio {fmt9(v.ratio)}\nloss {fmt9(v.loss)}\n"
                    f"d_phi {fmt9(g.d_phi)}\nd_r1 {fmt9(g.d_r1)}\nd_r2 {fmt9(g.d_r2)}\n")
        assert code == 0 and out == expected

    def test_malformed_spec_exits_two(self):
        code, _, err = run_cli(["jiou", "--pred", "1,2,3", "--target", "0,0,1,1,0"])
        assert code == 2
        assert "error:" in err and "usage" in err.lower()

    @pytest.mark.parametrize("command", [["jiou", "--pred"], ["fit", "--init"]])
    def test_extents_off_the_supported_range_exit_two(self, command):
        """Boxes this large would print a NaN gradient (jiou) or blame a
        non-finite box mid-descent (fit); both name the extent range instead."""
        code, out, err = run_cli([*command, "0,0,2e110,1e110,0.9",
                                  "--target", "0,0,2e110,1e110,0.1"])
        assert code == 2 and out == ""
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            "error: half-extents must lie in [1e-100, 1e+100] for a radial profile, "
            "got r1=2e+110, r2=1e+110"]


class TestSweepCommand:
    def test_full_grid(self, cli_sweep):
        path, code, out = cli_sweep
        assert code == 0
        assert f"wrote 570 records to {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 571
        # circle rows keep ratio exactly 1
        for line in lines[1:]:
            cols = line.split(",")
            if cols[0] == "1":
                assert cols[3] == "1"

    def test_unwritable_path_exits_three(self):
        code, _, err = run_cli(["sweep", "--out", "/nonexistent-dir-xyz/s.csv"])
        assert code == 3
        assert "error:" in err


class TestRoundtripCommand:
    def test_exact_rectangles_pass(self, tmp_path):
        rng = np.random.default_rng(20)
        boxes = lattice_boxes(rng, 9)
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(b, "plane") for b in boxes])
        code, out, err = run_cli(["roundtrip", str(path)])
        assert code == 0 and err == ""
        report = dict(ln.split() for ln in out.splitlines())
        assert report["records"] == "9"
        assert report["parse_errors"] == "0"
        assert report["failures"] == "0"
        assert float(report["max_corner_error"]) <= 1e-6

    def test_malformed_line_reported(self, tmp_path):
        rng = np.random.default_rng(21)
        boxes = lattice_boxes(rng, 2)
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(b, "ship") for b in boxes])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("1 2 3 nope ship 0\n")
        code, out, err = run_cli(["roundtrip", str(path)])
        assert code == 1
        assert "line 5" in err
        report = dict(ln.split() for ln in out.splitlines())
        assert report["parse_errors"] == "1"
        assert report["failures"] == "0"

    @pytest.mark.parametrize("bad,message", [
        ("0 0 0 0 0 0 0 0 plane 0", "quad has (near-)zero area"),
        ("0 nan 4 0 4 2 0 2 plane 0", "non-finite corner coordinate"),
        ("0 0 4 0 inf 2 0 2 plane 0", "non-finite corner coordinate"),
        ("1e308 0 -1e308 0 -1e308 1e308 1e308 1e308 plane 0", "non-finite box parameters"),
        ("-10 -10 -6 -10 -6 -8 -10 -8 plane 0", "center (-8.0, -9.0) has negative coordinates"),
    ], ids=["zero-area", "nan", "inf", "overflow", "negative-center"])
    def test_bad_record_counted_and_skipped(self, tmp_path, bad, message):
        """A record the parser or the box fit rejects is one parse error
        naming its line; the records around it are still checked."""
        rng = np.random.default_rng(24)
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(b, "plane") for b in lattice_boxes(rng, 2)])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [bad] + lines[3:]) + "\n")
        with np.errstate(all="ignore"):
            code, out, err = run_cli(["roundtrip", str(path)])
        assert code == 1
        assert f"line 4: {message}" in err and "Traceback" not in err
        report = dict(ln.split() for ln in out.splitlines())
        assert report["records"] == "3"
        assert report["parse_errors"] == "1"
        assert report["failures"] == "0"
        assert float(report["max_corner_error"]) <= 1e-6

    def test_each_skewed_record_warned_with_its_line(self, tmp_path):
        """Two skewed quads get one stderr line each, numbered like parse
        errors; stdout and the exit code are unchanged."""
        path = tmp_path / "ann.txt"
        path.write_text("imagesource:synthetic\ngsd:0.5\n"
                        "60 10 70 11 69 16 59 15 car 1\n"
                        "160 10 170 11 169 16 159 15 car 1\n")
        code, out, err = run_cli(["roundtrip", str(path)])
        assert code == 0
        assert out == ("records 2\nparse_errors 0\nmax_box_field_error 0\n"
                       "max_corner_error 0.246314298\nfailures 2\n")
        assert err == ("line 3: quad edges deviate from orthogonal by 0.098 rad\n"
                       "line 4: quad edges deviate from orthogonal by 0.098 rad\n")

    @pytest.mark.parametrize("center, grid", [
        (1e9, "1x250000002x250000002"),        # about 5e17 bytes: MemoryError
        (1e11, "1x25000000002x25000000002"),   # past numpy's intp byte range
    ])
    def test_unallocatable_grid_exits_two(self, tmp_path, center, grid):
        """A valid record far from the origin asks for a C x H x W target
        grid that no 64-bit host can allocate; the allocation fails before
        any memory is touched."""
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(OrientedBox(center, center, 10.0, 5.0, 0.0), "plane")])
        code, out, err = run_cli(["roundtrip", str(path)])
        assert code == 2
        assert out == "records 1\nparse_errors 0\n"
        assert err == f"error: cannot allocate the {grid} target grid\n"

    def test_huge_grid_text_is_short(self, tmp_path):
        """A record centred at 1e300 asks for a grid whose two sizes print
        in short form."""
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(OrientedBox(1e300, 1e300, 1e290, 5e289, 0.0), "plane")])
        code, out, err = run_cli(["roundtrip", str(path)])
        assert code == 2
        assert out == "records 1\nparse_errors 0\n"
        assert err == "error: cannot allocate the 1x2.5e+299x2.5e+299 target grid\n"

    def test_other_memory_errors_propagate(self, tmp_path, monkeypatch):
        """Only a failed target-grid allocation becomes exit 2; a MemoryError
        raised after the grids exist is not reported as one."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(polarjiou.codec, "extract_peaks", exhausted)
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(OrientedBox(100.0, 100.0, 10.0, 5.0, 0.0), "plane")])
        with pytest.raises(MemoryError):
            run_cli(["roundtrip", str(path)])

    def test_shared_cell_shares_one_detection(self, tmp_path):
        """Two same-category centers in one stride cell decode to a single
        detection, which both objects match; it carries the parameters of
        the later object, so the earlier one is counted in failures."""
        shared = [canonicalize(OrientedBox(41.2, 37.3, 10.0, 4.0, 0.6)),
                  canonicalize(OrientedBox(42.7, 38.9, 8.0, 3.0, -0.4))]
        apart = lattice_boxes(np.random.default_rng(25), 2, base_cell=20)
        path = tmp_path / "ann.txt"
        write_rect_file(path, [(b, "ship") for b in shared + apart])
        code, out, _ = run_cli(["roundtrip", str(path)])
        assert code == 0
        report = dict(ln.split() for ln in out.splitlines())
        assert report["records"] == "4"
        assert report["failures"] == "1"
        # Matched, not missing: the earlier object's field errors are reported.
        assert float(report["max_box_field_error"]) == 2.0

    def test_jittered_failures_match_harness(self, tmp_path):
        """The failure count equals an independent recount: jittered quads
        whose fitted-box corners moved beyond ROUNDTRIP_CORNER_TOL (1e-6)."""
        rng = np.random.default_rng(22)
        jittered = lattice_boxes(rng, 80)
        exact = lattice_boxes(np.random.default_rng(23), 20, base_cell=40)
        path = tmp_path / "ann.txt"
        quads = write_rect_file(path, [(b, "car") for b in jittered],
                                jitter=0.01, rng=rng)
        quads += write_rect_file(tmp_path / "tail.txt", [(b, "car") for b in exact])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write((tmp_path / "tail.txt").read_text().split("\n", 2)[2])
        expected = 0
        for pts in quads:
            fitted = corners_to_box(pts)
            if corner_set_distance(decode_corners(fitted), pts) > ROUNDTRIP_CORNER_TOL:
                expected += 1
        code, out, _ = run_cli(["roundtrip", str(path)])
        assert code == 0
        report = dict(ln.split() for ln in out.splitlines())
        assert report["records"] == "100"
        assert int(report["failures"]) == expected
        assert expected >= 70  # jitter moves essentially every quad


class TestFitCommand:
    def test_init_equals_target(self, tmp_path):
        out_csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(["fit", "--init", "0,0,3,1,0.4",
                                "--target", "0,0,3,1,0.4", "--out", str(out_csv)])
        assert code == 0
        report = dict(ln.split() for ln in out.splitlines())
        assert report["converged"] == "true"
        assert report["steps"] == "0"
        assert report["final_exact_iou"] == "1"
        lines = out_csv.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER and len(lines) == 2

    def test_pi_offset_converges_at_step_zero(self):
        phi = 0.5 + math.pi
        code, out, _ = run_cli(["fit", "--init", f"0,0,3,1,{phi}",
                                "--target", "0,0,3,1,0.5"])
        assert code == 0
        report = dict(ln.split() for ln in out.splitlines())
        assert report["converged"] == "true" and report["steps"] == "0"

    def test_trace_matches_library(self, tmp_path):
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run_cli(["fit", "--init", "0,0,6,2,0.9",
                              "--target", "0,0,6,2,0.1", "--out", str(out_csv)])
        assert code == 0
        trace = fit_box(OrientedBox(0, 0, 6, 2, 0.9), OrientedBox(0, 0, 6, 2, 0.1), "jiou")
        lines = out_csv.read_text().splitlines()[1:]
        assert len(lines) == len(trace.steps)
        for line, step in zip(lines, trace.steps):
            cols = line.split(",")
            assert cols == [str(step.step), fmt9(step.phi), fmt9(step.r1),
                            fmt9(step.r2), fmt9(step.loss), fmt9(step.exact_iou)]

    def test_degrees_flag_converts_trace_angles(self, tmp_path):
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run_cli(["fit", "--degrees", "--init", "0,0,3,1,30",
                              "--target", "0,0,3,1,30", "--out", str(out_csv)])
        assert code == 0
        row = out_csv.read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(30.0, abs=1e-9)

    def test_suite_summary(self, tmp_path):
        out_csv = tmp_path / "suite.csv"
        code, out, _ = run_cli(["fit", "--suite", "--out", str(out_csv)])
        assert code == 0
        report = dict(ln.split() for ln in out.splitlines())
        assert report["suite_cases"] == "50"
        assert int(report["converged"]) >= 45
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "case,converged,steps,final_exact_iou"
        assert len(lines) == 51

    def test_missing_specs_exit_two(self):
        code, _, err = run_cli(["fit", "--init", "0,0,3,1,0"])
        assert code == 2 and "error:" in err

    def test_overflowing_step_exits_two_without_warning(self):
        """A learning rate that overflows the first step reports the
        rejected box and nothing else.  Its phi field is 0.9 - 1e308 * d_phi,
        and d_phi is rounding noise about 1e-16 (the target holds the whole
        prediction, so turning it changes nothing), so that field moves
        whenever the gradient's low bits do."""
        code, out, err = run_cli(["fit", "--init", "0,0,1,0.5,0.9",
                                  "--target", "0,0,60,2,0.1", "--lr", "1e308"])
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: non-finite box parameters (0.0, 0.0, 1e+308, inf, -6.245004513516506e+291)",
            "usage: polarjiou [-h] {jiou,sweep,roundtrip,fit,nms,heatmap-demo} ...",
        ]

    def test_overflowing_smooth_l1_loss_exits_two(self):
        """Extents near the float limit overflow the SmoothL1 loss of the
        starting box; the fit reports it as an input error."""
        code, out, err = run_cli(["fit", "--loss", "smooth_l1", "--init", "0,0,1e308,1e308,0",
                                  "--target", "0,0,1,1,0"])
        assert code == 2 and out == ""
        assert err.startswith("error: non-finite SmoothL1 loss inf\n")


class TestNmsCommand:
    def detections_file(self, path):
        rows = [
            DETECTIONS_CSV_HEADER,
            "0,0,1,1,0,0.9,0",
            "0.5,0,1,1,0,0.8,0",
            "1,0,1,1,0,0.7,0",
        ]
        path.write_text("\n".join(rows) + "\n")

    def test_chain_scene(self, tmp_path):
        src = tmp_path / "dets.csv"
        out_csv = tmp_path / "kept.csv"
        self.detections_file(src)
        code, out, _ = run_cli(["nms", str(src), "--nms-iou", "0.5",
                                "--out", str(out_csv)])
        assert code == 0
        assert "kept 2 of 3" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == DETECTIONS_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0,0,") and lines[2].startswith("1,0,")

    def test_stdout_when_no_out(self, tmp_path):
        src = tmp_path / "dets.csv"
        self.detections_file(src)
        code, out, _ = run_cli(["nms", str(src), "--nms-iou", "0.5"])
        assert code == 0
        assert DETECTIONS_CSV_HEADER in out

    def test_default_threshold_suppresses_chain(self, tmp_path):
        # at the 0.1 default even the 1/3-overlap pair is suppressed
        src = tmp_path / "dets.csv"
        self.detections_file(src)
        code, out, _ = run_cli(["nms", str(src)])
        assert code == 0 and "kept 1 of 3" in out

    def test_translated_golden_scene_keeps_the_same_detections(self, tmp_path):
        """The golden detections moved by (+1e8, -1e8) keep the same five
        boxes at --nms-iou 0.5; only the centers change."""
        header, *rows = GOLDEN_DETECTIONS.read_text().splitlines()
        moved = [f"{float(cx) + 1e8!r},{float(cy) - 1e8!r},{rest}"
                 for cx, cy, rest in (row.split(",", 2) for row in rows)]
        src, out_csv = tmp_path / "dets.csv", tmp_path / "kept.csv"
        src.write_text("\n".join([header] + moved) + "\n")
        code, out, _ = run_cli(["nms", str(src), "--nms-iou", "0.5", "--out", str(out_csv)])
        assert (code, out) == (0, "kept 5 of 8\n")
        golden = (GOLDEN_DETECTIONS.parent / "nms.csv").read_text().splitlines()
        kept = out_csv.read_text().splitlines()
        assert [row.split(",", 2)[2] for row in kept[1:]] == [
            row.split(",", 2)[2] for row in golden[1:]]

    def test_bad_header_exits_two(self, tmp_path):
        src = tmp_path / "dets.csv"
        src.write_text("cx,cy\n1,2\n")
        code, _, err = run_cli(["nms", str(src)])
        assert code == 2 and "error:" in err

    def test_overflowing_box_exits_two(self, tmp_path):
        src = tmp_path / "dets.csv"
        src.write_text(DETECTIONS_CSV_HEADER + "\n1e308,0,1e308,1,0,0.9,0\n"
                       "1e308,0,1e308,1,0,0.8,0\n")
        code, _, err = run_cli(["nms", str(src)])
        assert code == 2 and "non-finite corner" in err

    @pytest.mark.parametrize("rows", [
        # true IoU 1/3, which clipping at this scale read as 0.0
        ["0,0,1e160,1e160,0,0.9,0", "1e160,0,1e160,1e160,0,0.8,0"],
        # identical boxes, which clipping at this scale divided by zero on
        ["0,0,1e-165,1e-165,0,0.9,0", "0,0,1e-165,1e-165,0,0.8,0"],
    ])
    def test_extents_past_the_clipping_range_exit_two(self, tmp_path, rows):
        src = tmp_path / "dets.csv"
        src.write_text("\n".join([DETECTIONS_CSV_HEADER, *rows]) + "\n")
        code, out, err = run_cli(["nms", str(src), "--nms-iou", "0.5"])
        assert code == 2 and out == ""
        assert err.startswith(
            "error: half-extents must lie in [1e-100, 1e+100] for an exact overlap, got ")

    @pytest.mark.parametrize("rows, message", [
        (["0,0,1,1,0,0.9"], "error: line 2: expected 7 fields, got 6"),
        (["0,0,1,1,0,0.9,0", "0,0,-2,1,0,0.8,0"],
         "error: line 3: half-extents must be positive, got r1=-2.0, r2=1.0"),
    ])
    def test_malformed_row_exits_two(self, tmp_path, rows, message):
        src = tmp_path / "dets.csv"
        src.write_text("\n".join([DETECTIONS_CSV_HEADER, *rows]) + "\n")
        code, out, err = run_cli(["nms", str(src)])
        assert code == 2 and out == ""
        assert err.splitlines()[0] == message

    def test_parse_detections_line_numbers(self, tmp_path):
        src = tmp_path / "dets.csv"
        src.write_text(DETECTIONS_CSV_HEADER + "\n0,0,1,1,0,0.9,0\n0,0,1,1,0,zz,0\n")
        with pytest.raises(AnnotationError, match="line 3"):
            parse_detections_csv(src)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        src = tmp_path / "dets.csv"
        src.write_text(DETECTIONS_CSV_HEADER + "\n0,0,1,1,0,0.9,0\n\n  \n0,0,1,1,0,zz,0\n")
        code, _, err = run_cli(["nms", str(src)])
        assert code == 2
        assert "error: line 5: non-numeric field" in err


class TestHeatmapDemo:
    def test_scene_report(self, tmp_path):
        out_csv = tmp_path / "heat.csv"
        code, out, _ = run_cli(["heatmap-demo", "--num-objects", "4",
                                "--height", "32", "--width", "32",
                                "--out", str(out_csv)])
        assert code == 0
        report = dict(ln.split() for ln in out.splitlines() if not ln.startswith("peak "))
        assert report["objects"] == "4"
        assert report["peaks"] == "4"
        assert float(report["max_field_error"]) <= 1e-6
        assert float(report["focal_self"]) >= 0.0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == HEATMAP_CSV_HEADER
        assert len(lines) > 4

    def test_scene_is_encoded_once(self, monkeypatch):
        """One run encodes its scene and extracts its peaks once each, and
        decodes from those; calls through either module's name count."""
        calls = {"encode_targets": 0, "extract_peaks": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for module in (polarjiou.cli, polarjiou.codec):
            for name in calls:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, _, _ = run_cli(["heatmap-demo"])
        assert code == 0
        assert calls == {"encode_targets": 1, "extract_peaks": 1}

    def test_underflowing_focal_loss_prints_zero(self):
        """At gamma 5000 every focal term underflows; the report reads 0,
        not -0."""
        code, out, _ = run_cli(["heatmap-demo", "--gamma", "5000"])
        assert code == 0
        assert out.splitlines()[-2:] == ["focal_self 0", "total 0"]

    def test_too_many_objects_exit_two(self):
        """A 1x1 grid has no lattice slot on either axis, not (-1)*(-1) = 1."""
        for objects, side in (("500", "16"), ("1", "1")):
            code, _, err = run_cli(["heatmap-demo", "--num-objects", objects,
                                    "--height", side, "--width", side])
            assert code == 2
            assert err.splitlines()[0] == (
                f"error: {objects} objects do not fit a {side}x{side} grid")

    def test_unallocatable_grid_exits_two(self):
        """The target grid is rejected by size before anything is allocated."""
        code, out, err = run_cli(["heatmap-demo", "--classes", "100000", "--height",
                                  "10000000", "--width", "10000000", "--num-objects", "1"])
        assert code == 2 and out == ""
        assert err == "error: cannot allocate the 100000x10000000x10000000 target grid\n"


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ["nms", "{missing}"],
        ["roundtrip", "{missing}"],
        ["nms", "{dir}"],
        ["nms", "{binary}"],
        ["roundtrip", "{binary}"],
    ])
    def test_unreadable_input_exits_two(self, tmp_path, argv):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"imagesource:x\n\xff\xfe\xd0 not utf-8\n")
        argv = [a.format(missing=tmp_path / "missing.csv", dir=tmp_path, binary=binary)
                for a in argv]
        code, _, err = run_cli(argv)
        assert code == 2
        assert f"error: cannot read {argv[1]}" in err and "usage" in err.lower()

    @pytest.mark.parametrize("argv", [
        ["nms", str(GOLDEN_DETECTIONS)],
        ["fit", "--suite", "--iters", "1"],
        ["heatmap-demo"],
    ])
    def test_unwritable_output_exits_three(self, argv):
        out = "/nonexistent-dir-xyz/out.csv"
        code, _, err = run_cli(argv + ["--out", out])
        assert code == 3
        assert f"error: cannot write {out}" in err


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["jiou", *PAIR, "--n", "3"],
        ["fit", "--suite", "--iters", "0"],
        ["fit", "--init", "0,0,3,1,0", "--target", "0,0,3,1,0", "--lr", "0"],
        ["nms", "d.csv", "--nms-iou", "1.5"],
        ["heatmap-demo", "--num-objects", "0"],
        ["heatmap-demo", "--classes", "0"],
        ["roundtrip", "a.txt", "--stride", "0"],
        ["heatmap-demo", "--height", "-10", "--width", "-10"],
        ["sweep", "--seed", "-1", "--out", "{tmp}/s.csv"],
        ["fit", "--suite", "--seed", "-1"],
        ["heatmap-demo", "--seed", "-1"],
    ])
    def test_out_of_range_value_exits_two(self, argv, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["heatmap-demo", "--alpha", "nan"], "--alpha: must be finite and >= 0, got nan"),
        (["heatmap-demo", "--alpha", "-1000"], "--alpha: must be finite and >= 0, got -1000"),
        (["heatmap-demo", "--gamma", "-1000"], "--gamma: must be finite and >= 0, got -1000"),
        (["heatmap-demo", "--gamma", "inf"], "--gamma: must be finite and >= 0, got inf"),
        (["fit", "--suite", "--lr", "inf"], "--lr: must be finite and > 0, got inf"),
    ])
    def test_non_finite_or_negative_value_exits_two(self, argv, message, capsys):
        """Focal-loss exponents and the learning rate are checked when parsed,
        not left to fail (or print -0) inside the run."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")
        assert err.endswith(f"error: argument {message}\n")

    @pytest.mark.parametrize("argv", [
        ["jiou", *PAIR],
        ["fit", "--init", "0,0,3,1,0", "--target", "0,0,3,1,0.5"],
        ["fit", "--suite"],
    ])
    def test_unallocatable_grid_exits_two(self, argv):
        """An angle grid of 1e15 float64s (7.1 PiB) fails to allocate at
        once, without touching memory."""
        code, out, err = run_cli([*argv, "--n", "1000000000000000"])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot allocate a grid of n=1000000000000000 angles\n")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "64"],
        ["heatmap-demo", "--mu", "3"],
        ["jiou", *PAIR, "--stride", "8"],
    ])
    def test_unread_flag_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["jiou", "--pred", "0,0,1,1,0"])
        assert exc.value.code == 2
