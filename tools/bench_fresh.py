"""Fresh-process timing of ``tracechan simulate`` on scenario configs.

Usage (from the repository root):

    python3 tools/bench_fresh.py --runs 9 --out BENCH.json
    python3 tools/bench_fresh.py --runs 9 --src before=../old/src --src after=src --out BENCH.json
    python3 tools/bench_fresh.py --config configs/corner.cfg --workload room_trace:3 \
        --out BENCH.json

Without ``--config`` or ``--workload`` it runs the three shipped configs.
Each ``--config`` adds one config file, reported under its file name
without the extension. Each ``--workload NAME:SEED`` adds the config that
``perfbench/workloads.py`` writes for that benchmark workload and seed (into
a temporary directory, with its trace file where it has one), reported as
``NAME:SEED``.

Each run is a new interpreter. It imports tracechan from one source tree
(and fails if the package came from anywhere else), wraps the stage
functions under the names their callers use, and runs ``simulate`` on one
config through ``cli.main``: ray tracing or trace parsing, setup, channel
assembly, training sweeps, evaluation and CSV output. It reports the wall
time of that call, the process CPU time it took (``time.process_time``, all
threads; CPU time above wall time means extra threads did the work), the
growth of the process's minor page faults (``ru_minflt``) over the call, and
the time spent inside

- ray tracing, ``generate_trace`` (``trace_s``; 0 when the config replays
  a trace),
- the training sweeps (``sweep_s``): ``ideal_beam_sweeps`` where the tree
  has it, else ``ideal_beam_sweep``; ``sweeps`` counts the rows trained
  either way,
- channel assembly (``channel_s``): ``build_channel_matrices``, plus the
  link-wide ``path_factors`` and the per-block ``_subband_terms`` where the
  tree has them,
- per-row evaluation (``eval_s``): ``_row_powers``, one pass per block of
  rows, where the tree has it, else ``beamformed_power``, one call per row;
  ``evals`` counts the rows evaluated either way,
- ``parse_trace`` (``parse_s``; 0 when the config traces its own scene),
- ``load_config`` (``load_s``) and ``build_setup`` (``setup_s``: the arrays,
  codebooks and link budget).

Fresh processes matter: repeating configs in one process lets the allocator
keep memory that a single ``simulate`` has to fault in. With several
``--src`` trees, every round runs each config once per tree, in alternating
order. The output JSON holds, per tree and config, every run and the
medians, plus the Python, numpy and BLAS versions and the BLAS thread
settings the runs inherited. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("corner", "etoile", "etoile_wide")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METRICS = ("wall_s", "cpu_s", "trace_s", "sweep_s", "channel_s", "eval_s", "parse_s", "load_s",
           "setup_s", "minflt")

# one simulate in a fresh interpreter; prints one JSON line
_CHILD = r"""
import contextlib, inspect, io, json, os, resource, sys, time
src, config, out = sys.argv[1:4]
sys.path.insert(0, src)
import tracechan
from tracechan import cli, link
if os.path.dirname(os.path.realpath(tracechan.__file__)) != os.path.join(src, "tracechan"):
    sys.exit(f"imported tracechan from {tracechan.__file__}, not from {src}")

# wrap module.<name> for each name it has; [seconds, count] fills as they run,
# count adding count(args) per call
def timed(module, *names, count=lambda args: 1):
    spent = [0.0, 0]
    for name in names:
        if not hasattr(module, name):
            continue

        def wrapper(*args, _fn=getattr(module, name), **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start
                spent[1] += count(args)

        setattr(module, name, wrapper)
    return spent

# the training sweeps, counted in rows trained: one batched call per block of
# rows where the tree has ideal_beam_sweeps, one call per row otherwise
if hasattr(link, "ideal_beam_sweeps"):
    sweep = timed(link, "ideal_beam_sweeps", count=lambda args: len(args[0]))
else:
    sweep = timed(link, "ideal_beam_sweep")
channel = timed(link, "build_channel_matrices", "path_factors", "_subband_terms")
# per-row evaluation, counted in rows: one pass per block of rows where the
# tree has _row_powers (its counts argument holds one entry a row), one
# beamformed_power call per row otherwise
if hasattr(link, "_row_powers"):
    rows_at = list(inspect.signature(link._row_powers).parameters).index("counts")
    evaluation = timed(link, "_row_powers", count=lambda args: len(args[rows_at]))
else:
    evaluation = timed(link, "beamformed_power")
parse, load = timed(cli, "parse_trace"), timed(cli, "load_config")
setup = timed(cli, "build_setup")
trace = timed(cli, "generate_trace")
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start, cpu = time.perf_counter(), time.process_time()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["simulate", "--config", config, "--out", out])
wall, cpu = time.perf_counter() - start, time.process_time() - cpu
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
with open(out, encoding="utf-8") as fh:
    rows = sum(1 for _ in fh) - 1
print(json.dumps({"rc": rc, "wall_s": wall, "cpu_s": cpu, "trace_s": trace[0], "sweep_s": sweep[0],
                  "sweeps": sweep[1], "channel_s": channel[0], "channels": channel[1],
                  "eval_s": evaluation[0], "evals": evaluation[1],
                  "parse_s": parse[0], "load_s": load[0], "setup_s": setup[0], "minflt": faults,
                  "rows": rows}))
"""

_PROBE = r"""
import json
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (AttributeError, KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def _python(code: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _source(spec: str) -> tuple[str, Path]:
    name, sep, path = spec.partition("=")
    src = Path(path if sep else spec).resolve()
    if not (src / "tracechan" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no tracechan package under {src}")
    return (name if sep else str(src)), src


@functools.cache
def _workloads():
    """perfbench/workloads.py, imported from its file (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _workload(spec: str) -> tuple[str, int]:
    name, _, seed = spec.partition(":")
    if name not in _workloads().WORKLOADS:
        raise argparse.ArgumentTypeError(f"no workload {name!r}: one of "
                                         f"{', '.join(_workloads().WORKLOADS)}")
    return name, int(seed)  # a ValueError is argparse's "invalid value" message


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh processes per config and tree")
    parser.add_argument("--src", action="append", type=_source, metavar="NAME=DIR",
                        help="a source tree holding tracechan/ (repeatable; default: this repo's src)")
    parser.add_argument("--config", action="append", type=Path, metavar="PATH",
                        help="a scenario config to simulate (repeatable; default: the shipped "
                             f"{', '.join(CONFIGS)})")
    parser.add_argument("--workload", action="append", type=_workload, metavar="NAME:SEED",
                        help="a perfbench workload's config, written for SEED (repeatable)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sources = args.src or [("src", ROOT / "src")]
    if len({name for name, _ in sources}) != len(sources):
        parser.error("--src names must differ")
    paths = args.config or ([] if args.workload else
                            [ROOT / "configs" / f"{c}.cfg" for c in CONFIGS])
    configs = {path.stem: path.resolve() for path in paths}
    if len(configs) != len(paths):
        parser.error("--config file names must differ")
    for path in configs.values():
        if not path.is_file():
            parser.error(f"no config file {path}")

    with tempfile.TemporaryDirectory() as work:
        for name, seed in args.workload or []:
            key = f"{name}:{seed}"
            if key in configs:
                parser.error(f"{key} is given twice")
            workdir = Path(work) / f"{name}_{seed}"
            workdir.mkdir()
            configs[key] = _workloads().generate(name, seed, workdir).config
        runs = {name: {c: [] for c in configs} for name, _ in sources}
        out = str(Path(work) / "metrics.csv")
        for round_ in range(args.runs):
            order = sources if round_ % 2 == 0 else sources[::-1]
            for config, cfg in configs.items():
                for name, src in order:
                    result = _python(_CHILD, str(src), str(cfg), out)
                    if result["rc"] != 0:
                        raise RuntimeError(f"{name} {config}: simulate exited {result['rc']}")
                    runs[name][config].append(result)
                    print(f"{name} {config} run {round_ + 1}: wall {result['wall_s']:.3f} s, "
                          f"cpu {result['cpu_s']:.3f} s, trace {result['trace_s']:.3f} s, "
                          f"sweep {result['sweep_s']:.3f} s, "
                          f"channel {result['channel_s']:.3f} s, eval {result['eval_s']:.3f} s, "
                          f"parse {result['parse_s']:.3f} s, load {result['load_s']:.4f} s, "
                          f"setup {result['setup_s']:.4f} s, minflt {result['minflt']}", flush=True)

    report = {
        "about": "tracechan simulate on each config, one fresh process per run: "
                 "median wall time and process CPU time of cli.main, time inside "
                 "generate_trace, the training sweeps (ideal_beam_sweeps or, in older trees, "
                 "ideal_beam_sweep), channel assembly (build_channel_matrices and, "
                 "where present, path_factors and _subband_terms), row evaluation (_row_powers "
                 "or, in older trees, beamformed_power), parse_trace, load_config and "
                 "build_setup, "
                 "and ru_minflt growth over the call",
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        },
        "runs_per_config": args.runs,
        "results": {},
    }
    versions = _python(_PROBE)
    for name, _ in sources:
        report["results"][name] = {"versions": versions, "configs": {
            config: {
                "rows": results[0]["rows"],
                "sweeps": results[0]["sweeps"],
                "channels": results[0]["channels"],
                "evals": results[0]["evals"],
                **{f"median_{m}": statistics.median(r[m] for r in results) for m in METRICS},
                "runs": {m: [r[m] for r in results] for m in METRICS},
            }
            for config, results in runs[name].items()
        }}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, res in report["results"].items():
        for config, c in res["configs"].items():
            print(f"{name:>10} {config:<12} wall {c['median_wall_s']:.3f} s  "
                  f"cpu {c['median_cpu_s']:.3f} s  trace {c['median_trace_s']:.4f} s  "
                  f"sweep {c['median_sweep_s']:.4f} s  "
                  f"channel {c['median_channel_s']:.4f} s  eval {c['median_eval_s']:.4f} s  "
                  f"parse {c['median_parse_s']:.4f} s  load {c['median_load_s']:.4f} s  "
                  f"setup {c['median_setup_s']:.4f} s  minflt {c['median_minflt']:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
