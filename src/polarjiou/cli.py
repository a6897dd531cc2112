"""Command-line analysis front end.

Subcommands: jiou (single-pair ratio/loss/gradient), sweep (deviation-grid
CSV), roundtrip (annotation encode/decode check), fit (descent traces and
the seeded suite), nms (suppress a detection CSV), heatmap-demo (render a
seeded synthetic scene).

Exit codes: 0 success, 1 bad annotation records in roundtrip (malformed,
non-finite, zero-area or with a negative fitted center), 2 malformed inputs,
half-extents out of range, or an angle grid (jiou, fit) or target grid
(roundtrip, heatmap-demo) too large to allocate, 3 unwritable output path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .boxes import (
    HALF_PI,
    OrientedBox,
    canonicalize,
    corner_set_distance,
    corners_to_box,
    decode_corners,
    encode_offset,
    iter_dota_object_lines,
    iter_text_lines,
    parse_dota_record,
)
from .codec import (
    DEFAULT_ALPHA,
    DEFAULT_GAMMA,
    encode_decode_roundtrip,
    encode_targets,
    extract_peaks,
    focal_loss,
    total_loss,
)
from .errors import (
    AnnotationError,
    DegenerateQuadError,
    DiscretizationError,
    GridAllocationError,
    InvalidBoxError,
    OutOfImageError,
)
from .fitting import (
    DEFAULT_LR,
    DEFAULT_MAX_ITERS,
    DEFAULT_SEED,
    default_fit_suite,
    deviation_sweep,
    fit_box,
    run_fit_suite,
)
from .loss import DEFAULT_N, jiou_bar, jiou_gradient
from .oracle import Detection, rotated_nms
from .polar import MIN_GRID_ANGLES

DETECTIONS_CSV_HEADER = "cx,cy,r1,r2,phi,score,category"
HEATMAP_CSV_HEADER = "class,cell_y,cell_x,value"
SWEEP_CSV_HEADER = "aspect_ratio,angle_diff,n,jiou_bar,rect_iou,ellipse_mc,dev_rect,dev_ellipse"
SUITE_CSV_HEADER = "case,converged,steps,final_exact_iou"
TRACE_CSV_HEADER = "step,phi,r1,r2,loss,exact_iou"

# The library has no default output stride or NMS threshold; these are the CLI's.
DEFAULT_STRIDE = 4
DEFAULT_NMS_IOU = 0.1


class SpecError(ValueError):
    """A command-line value that failed to parse."""


def fmt9(x) -> str:
    """Fixed 9-significant-digit decimal formatting for reports and CSVs."""
    return f"{float(x):.9g}"


def format_row(values) -> str:
    """One CSV line: floats (numpy float64 included) through fmt9, any
    other value (ints, numpy ints) through str."""
    return ",".join([fmt9(v) if isinstance(v, float) else str(v) for v in values])


def write_csv(path, header, rows) -> None:
    """Write a header line and one format_row line per row of values.

    The only writer of CSV output: to the file at path (UTF-8, LF line
    endings), or to stdout when path is None.  Rows may be a generator; the
    header is written before the first row is drawn.
    """
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def parse_box_spec(spec: str, degrees: bool = False) -> OrientedBox:
    """Parse "cx,cy,r1,r2,phi" into a box; phi in radians unless degrees."""
    parts = spec.split(",")
    if len(parts) != 5:
        raise SpecError(f"box spec needs 5 comma-separated values, got {spec!r}")
    try:
        cx, cy, r1, r2, phi = (float(p) for p in parts)
    except ValueError:
        raise SpecError(f"non-numeric value in box spec {spec!r}") from None
    if degrees:
        phi = math.radians(phi)
    try:
        return OrientedBox(cx, cy, r1, r2, phi)
    except InvalidBoxError as exc:
        raise SpecError(str(exc)) from None


def _checked(kind, ok, rule):
    """An argparse type: parse with kind, then reject values that fail ok."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in parse errors
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_exponent = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")

# The library-facing flags, each declared once with its default and valid
# range; every subcommand opts into the ones it reads.
FLAGS = {
    "n": dict(type=_checked(int, lambda v: v >= MIN_GRID_ANGLES, f">= {MIN_GRID_ANGLES}"),
              default=DEFAULT_N, help="discretization angles (default %(default)s)"),
    "seed": dict(type=int, default=DEFAULT_SEED, help="random seed (default %(default)s)"),
    "stride": dict(type=_positive_int, default=DEFAULT_STRIDE,
                   help="output stride (default %(default)s)"),
    "alpha": dict(type=_exponent, default=DEFAULT_ALPHA,
                  help="focal-loss negative-weight exponent (default %(default)s)"),
    "gamma": dict(type=_exponent, default=DEFAULT_GAMMA,
                  help="focal-loss focusing exponent (default %(default)s)"),
    "nms-iou": dict(type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
                    default=DEFAULT_NMS_IOU,
                    help="NMS suppression threshold (default %(default)s)"),
    "degrees": dict(action="store_true",
                    help="accept and emit box angles in degrees (gradients stay per-radian)"),
}


def cmd_jiou(args) -> int:
    pred = parse_box_spec(args.pred, args.degrees)
    target = parse_box_spec(args.target, args.degrees)
    value = jiou_bar(pred, target, args.n)
    grad = jiou_gradient(pred, target, args.n)
    print(f"ratio {fmt9(value.ratio)}")
    print(f"loss {fmt9(value.loss)}")
    print(f"d_phi {fmt9(grad.d_phi)}")
    print(f"d_r1 {fmt9(grad.d_r1)}")
    print(f"d_r2 {fmt9(grad.d_r2)}")
    return 0


def cmd_sweep(args) -> int:
    write_csv(args.out, SWEEP_CSV_HEADER, ())  # fail fast before the sweep runs
    records = deviation_sweep(seed=args.seed)
    write_csv(args.out, SWEEP_CSV_HEADER, (
        (r.aspect_ratio, r.angle_diff, r.n, r.jiou_bar, r.rect_iou, r.ellipse_mc,
         r.dev_rect, r.dev_ellipse) for r in records))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    records = []
    parse_errors = 0
    for lineno, line in iter_dota_object_lines(args.annotations):
        try:
            quad, cat, _ = parse_dota_record(line, lineno)
            box = corners_to_box(quad)
            cell = encode_offset(box.cx, box.cy, args.stride)
            records.append((box, quad, cat, cell))
        except (AnnotationError, DegenerateQuadError, InvalidBoxError, OutOfImageError) as exc:
            parse_errors += 1
            if not isinstance(exc, AnnotationError):
                exc = AnnotationError(str(exc), lineno)
            print(str(exc), file=sys.stderr)
    print(f"records {len(records) + parse_errors}")
    print(f"parse_errors {parse_errors}")
    if records:
        categories = sorted({cat for _, _, cat, _ in records})
        class_of = {cat: i for i, cat in enumerate(categories)}
        objects = [(box, class_of[cat]) for box, _, cat, _ in records]
        height = max(cell.cell_y for *_, cell in records) + 2
        width = max(cell.cell_x for *_, cell in records) + 2
        errors, matches = encode_decode_roundtrip(
            objects, len(categories), height, width, args.stride)
        matched = [i for i, det in enumerate(matches) if det is not None]
        corner_errors = [corner_set_distance(decode_corners(matches[i].box).corners,
                                             records[i][1].corners) for i in matched]
        max_field = float(errors[matched].max()) if matched else math.nan
        max_corner = max(corner_errors, default=math.nan)
        failures = len(records) - sum(err <= 1e-6 for err in corner_errors)
        print(f"max_box_field_error {fmt9(max_field)}")
        print(f"max_corner_error {fmt9(max_corner)}")
        print(f"failures {failures}")
    return 1 if parse_errors else 0


def cmd_fit(args) -> int:
    if args.suite:
        cases = default_fit_suite(seed=args.seed)
        traces = run_fit_suite(args.loss, cases, n=args.n, lr=args.lr,
                               max_iters=args.iters)
        converged = sum(t.converged for t in traces)
        mean_iou = sum(t.final_exact_iou for t in traces) / len(traces)
        print(f"suite_cases {len(traces)}")
        print(f"converged {converged}")
        print(f"mean_final_iou {fmt9(mean_iou)}")
        if args.out:
            write_csv(args.out, SUITE_CSV_HEADER, (
                (i, int(t.converged), len(t.steps) - 1, t.final_exact_iou)
                for i, t in enumerate(traces)))
        return 0
    if not args.init or not args.target:
        raise SpecError("fit needs --init and --target (or --suite)")
    init = parse_box_spec(args.init, args.degrees)
    target = parse_box_spec(args.target, args.degrees)
    trace = fit_box(init, target, args.loss, n=args.n, lr=args.lr,
                    max_iters=args.iters)
    print(f"converged {'true' if trace.converged else 'false'}")
    print(f"final_exact_iou {fmt9(trace.final_exact_iou)}")
    print(f"steps {len(trace.steps) - 1}")
    if args.out:
        write_csv(args.out, TRACE_CSV_HEADER, (
            (s.step, math.degrees(s.phi) if args.degrees else s.phi, s.r1, s.r2, s.loss,
             s.exact_iou) for s in trace.steps))
    return 0


def parse_detections_csv(path, degrees: bool = False):
    """Read a detections CSV with the fixed header cx,cy,r1,r2,phi,score,category;
    AnnotationError if the file is unreadable or a line is malformed."""
    detections = []
    lines = list(iter_text_lines(path))
    if not lines or lines[0][1] != DETECTIONS_CSV_HEADER:
        raise AnnotationError(f"expected header {DETECTIONS_CSV_HEADER!r}",
                              lines[0][0] if lines else 1)
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise AnnotationError(f"expected 7 fields, got {len(parts)}", lineno)
        try:
            cx, cy, r1, r2, phi, score = (float(p) for p in parts[:6])
            category = int(parts[6])
        except ValueError:
            raise AnnotationError(f"non-numeric field in {line!r}", lineno) from None
        if degrees:
            phi = math.radians(phi)
        try:
            detections.append(Detection(OrientedBox(cx, cy, r1, r2, phi), score, category))
        except InvalidBoxError as exc:
            raise AnnotationError(str(exc), lineno) from None
    return detections


def cmd_nms(args) -> int:
    detections = parse_detections_csv(args.detections, args.degrees)
    kept = rotated_nms(detections, args.nms_iou)
    print(f"kept {len(kept)} of {len(detections)}")
    write_csv(args.out, DETECTIONS_CSV_HEADER, (
        (d.box.cx, d.box.cy, d.box.r1, d.box.r2,
         math.degrees(d.box.phi) if args.degrees else d.box.phi, d.score, d.category)
        for d in kept))
    return 0


def _demo_scene(seed: int, stride: int, num_objects: int, num_classes: int,
                height: int, width: int):
    """Seeded random boxes on non-adjacent cells, so every center survives
    peak extraction."""
    rng = np.random.default_rng(seed)
    lattice_h = max(0, (height - 2) // 3)
    lattice_w = max(0, (width - 2) // 3)
    if num_objects > lattice_h * lattice_w:
        raise SpecError(f"{num_objects} objects do not fit a {height}x{width} grid")
    slots = rng.choice(lattice_h * lattice_w, size=num_objects, replace=False)
    objects = []
    for slot in slots:
        cell_y = 1 + 3 * (int(slot) // lattice_w)
        cell_x = 1 + 3 * (int(slot) % lattice_w)
        cx = (cell_x + rng.uniform(0.05, 0.95)) * stride
        cy = (cell_y + rng.uniform(0.05, 0.95)) * stride
        r2 = rng.uniform(2.0, 3.0 * stride)
        r1 = r2 * rng.uniform(1.0, 4.0)
        phi = rng.uniform(-HALF_PI, HALF_PI)
        cls = int(rng.integers(0, num_classes))
        objects.append((canonicalize(OrientedBox(cx, cy, r1, r2, phi)), cls))
    return objects


def cmd_heatmap_demo(args) -> int:
    objects = _demo_scene(args.seed, args.stride, args.num_objects, args.classes,
                          args.height, args.width)
    enc = encode_targets(objects, args.classes, args.height, args.width, args.stride)
    peaks = extract_peaks(enc.heatmap.values, k=len(objects))
    errors, _ = encode_decode_roundtrip(objects, args.classes, args.height,
                                        args.width, args.stride)
    cla = focal_loss(enc.heatmap.values, enc.heatmap.values, args.alpha, args.gamma)
    print(f"objects {len(objects)}")
    print(f"peaks {len(peaks)}")
    for p in peaks:
        print(f"peak class={p.category} cell=({p.cell_x},{p.cell_y}) score={fmt9(p.score)}")
    print(f"max_field_error {fmt9(np.nanmax(errors))}")
    print(f"focal_self {fmt9(cla)}")
    print(f"total {fmt9(total_loss(cla, 0.0, 0.0))}")
    if args.out:
        heat = enc.heatmap.values
        cells = zip(*np.nonzero(heat >= 1e-9))
        write_csv(args.out, HEATMAP_CSV_HEADER,
                  ((c, y, x, heat[c, y, x]) for c, y, x in cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarjiou",
        description="Polar IoU loss analysis tools for oriented boxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, help):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("jiou", cmd_jiou, ("n", "degrees"),
                "ratio, loss, and gradient for one box pair")
    p.add_argument("--pred", required=True, help="predicted box cx,cy,r1,r2,phi")
    p.add_argument("--target", required=True, help="target box cx,cy,r1,r2,phi")

    p = command("sweep", cmd_sweep, ("seed",), "deviation sweep over the default grid")
    p.add_argument("--out", default="sweep.csv", help="output CSV path")

    p = command("roundtrip", cmd_roundtrip, ("stride",),
                "encode/decode annotation records and report errors")
    p.add_argument("annotations", help="annotation file path")

    p = command("fit", cmd_fit, ("n", "seed", "degrees"),
                "gradient-descent fit of one box onto another")
    p.add_argument("--init", help="initial box cx,cy,r1,r2,phi")
    p.add_argument("--target", help="target box cx,cy,r1,r2,phi")
    p.add_argument("--loss", choices=("jiou", "smooth_l1"), default="jiou")
    p.add_argument("--lr", type=_checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0"),
                   default=DEFAULT_LR)
    p.add_argument("--iters", type=_positive_int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--suite", action="store_true",
                   help="run the seeded 50-case suite instead of one pair")
    p.add_argument("--out", help="trace (or suite summary) CSV path")

    p = command("nms", cmd_nms, ("nms-iou", "degrees"), "suppress a detections CSV")
    p.add_argument("detections", help=f"CSV with header {DETECTIONS_CSV_HEADER}")
    p.add_argument("--out", help="kept-detections CSV path (default: stdout)")

    p = command("heatmap-demo", cmd_heatmap_demo, ("stride", "alpha", "gamma", "seed"),
                "render a seeded synthetic scene and report losses")
    p.add_argument("--num-objects", type=_positive_int, default=5)
    p.add_argument("--classes", type=_positive_int, default=3)
    p.add_argument("--height", type=_positive_int, default=64)
    p.add_argument("--width", type=_positive_int, default=64)
    p.add_argument("--out", help="heatmap dump CSV path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, AnnotationError, DiscretizationError, InvalidBoxError,
            OutOfImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except GridAllocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Input readers raise AnnotationError, so an OSError here is a failed write.
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
