"""polarjiou benchmark runner.

Run from the repository root; the library is imported from ./src:

    python3 perfbench/run.py --workload loss-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load model: a closed loop with one caller in one process and no threads;
the next op starts when the previous one returns.  numpy's BLAS/OpenMP
pools are pinned to one thread before numpy is imported.

With --trace 0 the workload runs for --seconds and the last stdout line
reports the end-to-end metrics.  With --trace 1 a fixed list of ops runs
once untraced and once with spans around every call into the library, and
the last line reports the per-layer metrics derived from the spans; the
list is fixed so that every count repeats exactly for one seed.  Either
way the last line is one JSON object with keys correct, attempted, failed
and metrics; the lines before it give the same numbers for people, the raw
wall-clock figures and the machine facts.  `--workload all` runs each
workload in its own process and prints the human-readable lines of each.

Times are corrected for the machine's momentary speed; see `SpeedGauge`.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("loss-batch", "fit-suite", "detect", "sweep")
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Each run should see at least this many ops, so that ten lie beyond p90.
MIN_OPS = 100
# A child workload process in `--workload all` must end within this time.
CHILD_TIMEOUT_S = 600
# About the 5th-percentile readings of the gauge's two kernels on an
# undisturbed 2-core Intel Xeon VM; they only set the scale of the
# corrected times.
REF_COMPUTE_S = 1.0e-3
REF_MEMORY_S = 2.5e-3
# The machine's speed holds for seconds at a time, so a reading this often
# tracks it at 1-3% of the run's time.
GAUGE_INTERVAL_S = 0.1

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def metric(name, value):
    return {"value": value, "unit": END_TO_END_UNITS[name]}


def import_library():
    """Import polarjiou from ./src of the working directory, never from
    anywhere else on the path."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "polarjiou", "__init__.py")):
        raise ImportError(f"no polarjiou package under {src}; run from the repository root")
    sys.path.insert(0, src)
    import polarjiou

    if os.path.dirname(os.path.dirname(os.path.abspath(polarjiou.__file__))) != src:
        raise ImportError(f"polarjiou was imported from {polarjiou.__file__}, not {src}")
    import numpy
    import spans
    import workloads

    return numpy, spans, workloads


class SpeedGauge:
    """Corrects wall times for the machine's momentary speed.

    Other tenants share the cores, and while they are busy the same code
    runs up to about 1.7 times slower, for seconds at a time; that drift is
    far wider than any bound a regression check could use.  The gauge times
    a fixed kernel of its own at least every GAUGE_INTERVAL_S.  Each wall
    time recorded in between is scaled by the kernel's undisturbed time over
    the mean of the readings just before and just after it: the time the op
    would take with the machine undisturbed.  The kernel never calls the
    library.

    Contention for the core and for memory bandwidth come and go apart, so
    the kernel mirrors the workload: interpreter arithmetic and small numpy
    calls always, plus a pass over an array larger than the caches for a
    workload that streams such arrays (`memory=True`).
    """

    def __init__(self, numpy, memory=False):
        self._np = numpy
        self._small = numpy.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        self._large = numpy.linspace(0.0, 1.0, 1 << 20) if memory else None  # 8 MB
        self._nominal = REF_COMPUTE_S + (REF_MEMORY_S if memory else 0.0)
        self._kernel()  # the first call pays one-off costs
        self.readings = []
        self._before = self._read()
        self._since = time.perf_counter()
        self._pending = []
        self._corrected = []

    def _kernel(self):
        np = self._np
        acc = 0.0
        for k in range(40):
            acc += float(np.sqrt(np.cos(self._small - 0.01 * k) ** 2 + 1.0).sum())
        for i in range(4000):
            acc += (i * 0.5) % 7.0
        if self._large is not None:
            acc += float(np.count_nonzero(self._large * self._large + 0.25 <= 0.5))
        return acc

    def _read(self):
        t0 = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - t0
        self.readings.append(seconds)
        return seconds

    def record(self, seconds):
        """Add one wall time; it is corrected at the next reading."""
        self._pending.append(seconds)
        if time.perf_counter() - self._since >= GAUGE_INTERVAL_S:
            self._flush()

    def _flush(self):
        if not self._pending:
            return
        after = self._read()
        scale = self._nominal / ((self._before + after) / 2.0)
        self._corrected.extend(s * scale for s in self._pending)
        self._pending = []
        self._before = after
        self._since = time.perf_counter()

    def take(self):
        """The corrected times recorded so far, in order; clears them."""
        self._flush()
        out, self._corrected = self._corrected, []
        return out


def machine_facts(numpy):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned_threads": PINNED_THREADS,
    }


def run_one(workload, state, i):
    """One op, timed; its output is checked outside the timing.

    Returns (ok, seconds).  An op fails if it raises or its check fails.
    """
    t0 = time.perf_counter()
    try:
        out = workload.op(state, i)
    except Exception:  # a failing op is counted, and the run goes on
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return False, dt
    dt = time.perf_counter() - t0
    try:
        ok = workload.check(state, i, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return bool(ok), dt


def run_workload(args):
    t0 = time.perf_counter()
    try:
        numpy, spans, workloads = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload]
    gauge = SpeedGauge(numpy, memory=workload.streams_memory)
    gauge.record(import_s)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        raw_setup, warm_ok = [], True
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            state = workload.setup(args.seed, workdir, workloads.load_reference())
            ok, _ = run_one(workload, state, 0)
            raw_setup.append(time.perf_counter() - t)
            gauge.record(raw_setup[-1])
            warm_ok &= ok
        setup = gauge.take()
        if args.trace:
            result = traced_run(workload, state, spans, gauge)
        else:
            result = timed_run(workload, state, args.seconds, gauge)
            result["metrics"].update(
                setup_s=metric("setup_s", setup[0] + statistics.median(setup[1:])),
                peak_rss_mb=metric("peak_rss_mb",
                                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
            result["raw"]["setup_s"] = import_s + statistics.median(raw_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["correct"] = warm_ok and result["failed"] == 0
    result["gauge_ms"] = statistics.median(gauge.readings) * 1e3
    report(args, workload, result, machine_facts(numpy))
    return 0


def latency_stats(seconds):
    return (statistics.median(seconds) * 1e3, statistics.quantiles(seconds, n=10)[8] * 1e3)


def timed_run(workload, state, seconds, gauge):
    """Closed loop for `seconds`; items come only from ops that passed."""
    raw, passed = [], []
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline:
        ok, dt = run_one(workload, state, i)
        gauge.record(dt)
        raw.append(dt)
        passed.append(ok)
        i += 1
    corrected = gauge.take()
    ops = len(raw)
    items = workload.items_per_op * passed.count(True)
    p50, p90 = latency_stats(corrected)
    raw_p50, raw_p90 = latency_stats(raw)
    return {
        "attempted": ops,
        "failed": passed.count(False),
        "items": items,
        "metrics": {
            "items_per_s": metric("items_per_s", items / sum(corrected)),
            "op_p50_ms": metric("op_p50_ms", p50),
            "op_p90_ms": metric("op_p90_ms", p90),
        },
        "raw": {"items_per_s": items / sum(raw), "op_p50_ms": raw_p50, "op_p90_ms": raw_p90},
    }


def traced_run(workload, state, spans, gauge):
    """The fixed op list untraced, then traced; per-layer metrics from the spans."""
    ops = range(1, workload.trace_ops + 1)

    def one_pass(tracer=None):
        passed = []
        for i in ops:
            if tracer is not None:
                tracer.op = i
            ok, dt = run_one(workload, state, i)
            gauge.record(dt)
            passed.append(ok)
        return passed, sum(gauge.take())

    plain_ok, plain_s = one_pass()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced_ok, traced_s = one_pass(tracer)
    passed = plain_ok + traced_ok
    return {
        "attempted": len(passed),
        "failed": passed.count(False),
        "metrics": spans.layer_metrics(tracer.spans, traced_s / plain_s),
        "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
    }


def report(args, workload, result, machine):
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine, "gauge_ms": result["gauge_ms"],
                   "raw": result.get("raw"), "result": final,
                   "spans": result.get("spans")}, fh)
    fail_ratio = final["failed"] / final["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {workload.why}")
    print("load: closed loop, 1 caller, 1 process, no threads")
    print("machine " + json.dumps(machine, sort_keys=True))
    nominal = REF_COMPUTE_S + (REF_MEMORY_S if workload.streams_memory else 0.0)
    print(f"speed gauge: median reading {result['gauge_ms']:.4g} ms; times are scaled "
          f"to its undisturbed {nominal * 1e3:.4g} ms")
    if args.trace:
        print(f"traced ops {final['attempted'] // 2} (run untraced, then traced), "
              f"spans {len(result['spans'])}")
    else:
        print(f"ops {final['attempted']}, items {result['items']}")
        print("raw wall clock: " + ", ".join(
            f"{name} {value:.6g} {END_TO_END_UNITS[name]}" for name, value in result["raw"].items()))
        if final["attempted"] < MIN_OPS:
            print(f"warning: only {final['attempted']} ops ran; fewer than 10 lie beyond p90")
    for name, m in final["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"op_fail_ratio {fail_ratio:.6g} ratio")
    print(f"correct {str(final['correct']).lower()}, attempted {final['attempted']}, "
          f"failed {final['failed']}; details in {os.path.relpath(path)}")
    print(json.dumps(final, sort_keys=True), flush=True)


def run_all(args):
    """Each workload in its own process (so peak RSS is per workload)."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="polarjiou benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PINNED_THREADS)  # numpy reads these when first imported
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
