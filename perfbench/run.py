"""tracechan benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload arc_wide --seed 0 --seconds 30 --trace 0

The workload's inputs are generated from the seed into a scratch directory
under ``.perfbench_work/`` and removed afterwards. Every pass runs the real
``tracechan`` commands in this process through ``tracechan.cli.main`` with
``--workers 1``. BLAS threads are pinned before numpy is imported.

``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (see tracing.py) plus the tracing overhead.
Each pass's outputs are checked (see outputs.py); a pass that raises, exits
non-zero or fails the check counts as failed. The last stdout line is the
JSON result; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# the benchmark's own modules import numpy only inside functions, so the
# thread pinning in main() still precedes the first numpy import
import outputs
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
# set-up and the calibration kernel are timed in bursts (before the warm-up
# and after each timed pass) of at least this many calls and seconds;
# spreading them over the run evens out slow phases of a shared host.
BURST_REPS = 3
BURST_SECONDS = 0.3
END_TO_END = {"snapshots_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Host-speed calibration. On a shared host the same pass runs up to 2x
# slower for minutes at a time, and set-up and pass times move together.
# A fixed kernel that does not touch tracechan (an interpreter loop, small
# numpy element-wise ops and one small matrix product, like the program's
# mix) is timed in bursts next to the set-up bursts. The reported times are
# scaled to a host on which one kernel call takes CALIBRATION_REF_S; the
# report prints the raw values and the scale too.
CALIBRATION_REF_S = 0.004


def pin_threads() -> None:
    """At most MAX_BLAS_THREADS BLAS threads, never more than the usable cores."""
    n = str(min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS))
    for var in THREAD_VARS:
        os.environ[var] = n


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS,
        "machine": platform.machine(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """Runs and checks passes of one workload, counting attempts and failures."""

    def __init__(self, workload, cli):
        self.wl = workload
        self.cli = cli
        self.reference = outputs.load_reference(workload.name, workload.seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None, capture: bool = False) -> float | None:
        """One pass of the workload's commands; wall seconds, or None if it failed.

        With ``capture`` the sweep ties are recorded and, if no reference is
        loaded yet, this pass's output becomes the reference.
        """
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), (
                    outputs.capture_ties() if capture else contextlib.nullcontext({})) as ties:
                for argv in self.wl.passes:
                    if tracer is None:
                        rc = self.cli.main(list(argv))
                    else:
                        rc = tracer.call("cli.main", tracing.ROOT_LAYER, self.cli.main, list(argv))
                    if rc != 0:
                        raise RuntimeError(f"{argv[0]} exited {rc}: {sink.getvalue().strip()}")
        except (Exception, SystemExit) as exc:
            return self._fail(f"pass raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        try:
            text = self.wl.metrics_csv.read_text(encoding="utf-8")
            digest = None if self.wl.trace_csv is None else outputs.sha256(self.wl.trace_csv)
            if self.reference is None:
                self.reference = outputs.make_reference(text, ties, digest)
            rows = outputs.read_rows(text)
            problems = outputs.invariants(self.wl, rows) + outputs.compare(
                rows, self.reference, digest)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        return self._fail(*problems) if problems else elapsed

    def _fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems[:5])
        return None


def _burst(fn) -> list[float]:
    """Time fn() at least BURST_REPS times and for BURST_SECONDS."""
    times: list[float] = []
    while len(times) < BURST_REPS or sum(times) < BURST_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def measure_setup(config: Path) -> list[float]:
    """One burst of load_config + build_setup timings."""
    from tracechan.scenario import build_setup, load_config

    return _burst(lambda: build_setup(load_config(config)))


def measure_host() -> list[float]:
    """One burst of the calibration kernel (see CALIBRATION_REF_S)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 2048)
    a = np.exp(1j * np.outer(x[:128], x[:128]))

    def kernel():
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(30):
            np.exp(1j * x)
        a @ a

    return _burst(kernel)


def run(args, workdir: Path) -> dict:
    from tracechan import cli

    wl = workloads.generate(args.workload, args.seed, workdir)
    print(f"perfbench {wl.name} seed={wl.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    setup = [] if args.trace else measure_setup(wl.config)
    host = [] if args.trace else measure_host()

    bench = Bench(wl, cli)
    stored = bench.reference is not None
    bench.run_pass(capture=not stored)  # untimed warm-up
    if bench.reference is None:  # warm-up failed: no timed pass can be checked
        bench.reference = {"trace_sha256": None, "rows": []}

    untraced: list[float] = []
    traced: list[float] = []
    spans: list[list] = []
    uninspected: set[str] = set()
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(untraced):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                elapsed = bench.run_pass(tracer)
            finally:
                tracer.uninstall()
            if elapsed is not None:
                traced.append(elapsed)
                spans.append(tracer.spans)
            uninspected |= tracer.uninspected
        else:
            elapsed = bench.run_pass()
            if elapsed is not None:
                untraced.append(elapsed)
            if not args.trace:
                setup += measure_setup(wl.config)
                host += measure_host()
        spent = time.perf_counter() - start
        enough = untraced and (traced or not args.trace)
        if spent >= args.seconds and (enough or bench.failed):
            break

    print(f"reference: {'stored for this seed' if stored else 'warm-up pass (no stored reference for this seed)'}")
    print(f"passes: {bench.attempted} attempted (1 warm-up), {bench.failed} failed, "
          f"failed_ratio {bench.failed / bench.attempted:.4f}")
    for problem in bench.problems[:10]:
        print(f"  check: {problem}")

    if args.trace:
        if traced and untraced:
            ratio = statistics.median(traced) / statistics.median(untraced)
            values, flags = tracing.layer_metrics(spans, wl.snapshots, ratio, uninspected)
        else:
            values, flags = {name: 0.0 for name in tracing.PER_LAYER}, ["no traced pass succeeded"]
        units = tracing.PER_LAYER
        print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}")
        for flag in flags:
            print(f"  flag: {flag}")
    else:
        rates = [wl.snapshots / t for t in untraced] or [0.0]
        q1, med, q3 = quartiles(rates)
        s1, setup_med, s3 = quartiles(setup)
        scale = statistics.median(host) / CALIBRATION_REF_S  # > 1 on a slow host
        values = {
            "snapshots_per_s": med * scale,
            "setup_s": setup_med / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"host scale: calibration median {statistics.median(host) * 1e3:.4f} ms over "
              f"{len(host)} calls, reference {CALIBRATION_REF_S * 1e3:.1f} ms, scale {scale:.4f}")
        print(f"raw snapshots_per_s: median {med:.4f}, p25 {q1:.4f}, p75 {q3:.4f} 1/s "
              f"over {len(untraced)} timed passes of {wl.snapshots} snapshots")
        print("raw pass rates: " + " ".join(f"{r:.4f}" for r in rates))
        print(f"raw setup_s: median {setup_med:.5f}, p25 {s1:.5f}, p75 {s3:.5f} s over {len(setup)} set-ups")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()  # before anything imports numpy
    sys.dont_write_bytecode = True
    if not (SRC / "tracechan" / "__init__.py").is_file():
        print(f"perfbench: no tracechan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracechan

    if Path(tracechan.__file__).resolve().parent != SRC / "tracechan":
        print(f"perfbench: imported tracechan from {tracechan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
