"""Regenerate the stored output references in references/<workload>.json.

Usage (from the repository root):

    python3 perfbench/make_reference.py --seeds 0 1 2 --workloads room_trace

Each (workload, seed) is run once through the same commands as a benchmark
pass, with the sweep tables recorded so that every beam pair tied with the
winner is stored. Existing entries for other seeds are kept. Run this only
at a commit whose outputs are known to be right: the references are what
later commits are checked against.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

import outputs
import run
import workloads

DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1009)


def dump(name: str, seeds: dict) -> str:
    """One row per line, so a changed reference diffs row by row."""
    lines = ["{", f'"workload": "{name}",', f'"tie_rtol": {outputs.TIE_RTOL!r},', '"seeds": {']
    for i, seed in enumerate(sorted(seeds, key=int)):
        ref = seeds[seed]
        lines.append(f'"{seed}": {{"trace_sha256": {json.dumps(ref["trace_sha256"])}, "rows": [')
        lines.append(",\n".join(json.dumps(row) for row in ref["rows"]))
        lines.append("]}" + ("," if i < len(seeds) - 1 else ""))
    lines += ["}", "}"]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--workloads", nargs="+", default=["arc_wide", "room_trace", "dense_replay"])
    args = parser.parse_args(argv)

    run.pin_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(run.SRC))
    from tracechan import cli

    outputs.REFERENCE_DIR.mkdir(exist_ok=True)
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name in args.workloads:
        path = outputs.REFERENCE_DIR / f"{name}.json"
        seeds = json.loads(path.read_text(encoding="utf-8"))["seeds"] if path.is_file() else {}
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
                bench = run.Bench(workloads.generate(name, seed, Path(workdir)), cli)
                bench.reference = None
                bench.run_pass(capture=True)
            if bench.failed:
                print(f"{name} seed {seed}: {bench.problems}", file=sys.stderr)
                return 1
            seeds[str(seed)] = bench.reference
            print(f"{name} seed {seed}: {len(bench.reference['rows'])} rows")
        path.write_text(dump(name, seeds), encoding="utf-8")
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
