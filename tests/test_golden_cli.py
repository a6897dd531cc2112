"""Golden CLI outputs, replayed in process and compared byte for byte.

The files under tests/golden/ were captured once from the CLI and are never
edited: a change that alters any of them alters behaviour.  They must replay
byte for byte at every numpy that pyproject.toml allows.  Each case names
its argv, its exit code, and whether it writes an --out CSV.  Every case is
also replayed in a subprocess: through the installed polarjiou console script
when it is on PATH, else through `python -m polarjiou.cli` with this
checkout's src directory on PYTHONPATH.
"""

import codecs
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"
ANNOTATIONS = str(GOLDEN / "annotations.txt")
DETECTIONS = str(GOLDEN / "detections.csv")

CASES = {
    "jiou": (["jiou", "--pred", "1,2,6,2.5,0.7", "--target", "1,2,5,3,-0.2"], 0, False),
    "jiou_degrees_n64": (["jiou", "--degrees", "--n", "64", "--pred", "1,2,6,2.5,40",
                          "--target", "1,2,5,3,-11.5"], 0, False),
    "roundtrip": (["roundtrip", ANNOTATIONS], 1, False),
    "roundtrip_stride32": (["roundtrip", ANNOTATIONS, "--stride", "32"], 1, False),
    "fit": (["fit", "--init", "0,0,6,2,0.9", "--target", "0,0,6,2,0.1"], 0, True),
    # The argv of the retired fit_degrees case, whose output the table-form
    # trig changed.  Its step-0 profiles cross within 1e-12 of the grid
    # angles 27.5, 117.5, 207.5 and 297.5 degrees; np.cos and np.sin of
    # theta - phi tied them exactly at the first two, the table, exact
    # under a half turn, ties all four, and a tie counts in both sums.
    "fit_degrees_table_trig": (["fit", "--degrees", "--init", "0,0,6,2,50",
                                "--target", "0,0,6,2,5"], 0, True),
    "fit_suite_jiou": (["fit", "--suite"], 0, True),
    "fit_suite_smooth_l1": (["fit", "--suite", "--loss", "smooth_l1"], 0, True),
    "fit_suite_flags": (["fit", "--suite", "--n", "64", "--seed", "7", "--lr", "0.1",
                         "--iters", "50"], 0, True),
    "nms": (["nms", DETECTIONS, "--nms-iou", "0.5"], 0, True),
    "nms_degrees": (["nms", DETECTIONS, "--degrees"], 0, False),
    "heatmap_demo": (["heatmap-demo"], 0, True),
    "heatmap_demo_flags": (["heatmap-demo", "--stride", "8", "--alpha", "2", "--gamma", "3",
                            "--seed", "7", "--num-objects", "4", "--classes", "2",
                            "--height", "32", "--width", "32"], 0, True),
}


SRC = Path(__file__).resolve().parent.parent / "src"
CONSOLE_SCRIPT = shutil.which("polarjiou")
if CONSOLE_SCRIPT:
    COMMAND, ENV = [CONSOLE_SCRIPT], None
else:
    COMMAND = [sys.executable, "-m", "polarjiou.cli"]
    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def replay(name, tmp_path, run):
    """Run one case through run(argv) -> (exit code, stdout bytes) and
    compare the exit code, stdout and any --out CSV with the goldens."""
    argv, expected_code, writes_csv = CASES[name]
    out = tmp_path / f"{name}.csv"
    if writes_csv:
        argv = argv + ["--out", str(out)]
    code, stdout = run(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if writes_csv:
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay(name, tmp_path):
    def in_process(argv):
        code, stdout, _ = run_cli(argv)
        return code, stdout.encode()

    replay(name, tmp_path, in_process)


@pytest.mark.parametrize("name", ["nms", "roundtrip"])
def test_replay_input_with_byte_order_mark(name, tmp_path):
    """The case's input file saved with a UTF-8 byte-order mark gives the
    same golden outputs."""
    source = Path(CASES[name][0][1])
    copy = tmp_path / source.name
    copy.write_bytes(codecs.BOM_UTF8 + source.read_bytes())

    def in_process(argv):
        code, stdout, _ = run_cli([argv[0], str(copy), *argv[2:]])
        return code, stdout.encode()

    replay(name, tmp_path, in_process)


@pytest.mark.parametrize("name", sorted(CASES))
def test_console_script_replay(name, tmp_path):
    def console_script(argv):
        proc = subprocess.run([*COMMAND, *argv], capture_output=True, env=ENV)
        return proc.returncode, proc.stdout

    replay(name, tmp_path, console_script)


def test_console_script_missing_input_exits_two(tmp_path):
    proc = subprocess.run([*COMMAND, "nms", "no-such-file.csv"],
                          capture_output=True, cwd=tmp_path, env=ENV)
    assert proc.returncode == 2


def test_sweep(cli_sweep):
    path, code, stdout = cli_sweep
    assert code == 0
    assert stdout == f"wrote 570 records to {path}\n"
    assert path.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()
