"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import outputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, like the benchmark's own."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as d:
        yield Path(d)
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workdir, name):
    def files(seed, sub):
        d = workdir / sub
        d.mkdir()
        workloads.generate(name, seed, d)
        return {p.name: p.read_bytes() for p in d.iterdir()}

    first = files(5, "a")
    assert files(5, "b") == first
    assert files(6, "c") != first


def _csv(rows) -> str:
    lines = [",".join(outputs.METRICS_COLUMNS)]
    for t, los, sinr, mcs, delivered, delay, beam, _ties in rows:
        lines.append(",".join(
            [repr(t), str(los), *map(repr, beam), repr(sinr), str(mcs), "122000000.0",
             repr(delivered), repr(delay)]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def dense_ref():
    ref = outputs.load_reference("dense_replay", 0)
    assert ref is not None, "dense_replay seed 0 must have a stored reference"
    return ref


def _check(ref, rows):
    return outputs.compare(outputs.read_rows(_csv(rows)), ref)


def test_check_accepts_the_reference_itself(dense_ref):
    assert _check(dense_ref, dense_ref["rows"]) == []


@pytest.mark.parametrize("column, corrupt", [
    (3, lambda mcs: mcs + 1),
    (2, lambda sinr_db: sinr_db + 1e-3),
    (1, lambda los: 1 - los),
    (5, lambda delay_s: delay_s + 1e-9),
])
def test_check_rejects_a_corrupted_row(dense_ref, column, corrupt):
    rows = [list(r) for r in dense_ref["rows"]]
    row = rows[len(rows) // 2]
    row[column] = corrupt(row[column])
    assert _check(dense_ref, rows)


def test_check_rejects_an_untied_beam_and_accepts_a_tied_one(dense_ref):
    rows = [list(r) for r in dense_ref["rows"]]
    start = next(i for i, r in enumerate(rows) if r[7] and len(r[7]) > 1)
    end = next((i for i in range(start + 1, len(rows)) if rows[i][7]), len(rows))
    tied = next(b for b in rows[start][7] if b != rows[start][6])
    for r in rows[start:end]:
        r[6] = tied
    assert _check(dense_ref, rows) == []
    rows[start + 1][6] = tied[:3] + [tied[3] + 10.0]  # a held row switching beams
    assert _check(dense_ref, rows)
    rows = [list(r) for r in dense_ref["rows"]]
    rows[0][6] = [-180.0, 60.0, -180.0, 60.0]
    assert rows[0][6] not in rows[0][7]
    assert _check(dense_ref, rows)


def test_check_rejects_a_changed_trace_digest():
    ref = outputs.load_reference("room_trace", 0)
    assert ref is not None and ref["trace_sha256"]
    rows = outputs.read_rows(_csv(ref["rows"]))
    assert outputs.compare(rows, ref, ref["trace_sha256"]) == []
    assert outputs.compare(rows, ref, "0" * 64)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_rebinds_every_import_and_restores_it():
    from tracechan import beams, channel, link

    original = channel.build_channel_matrices
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert link.build_channel_matrices is channel.build_channel_matrices
        assert link.build_channel_matrices is not original
        assert beams.steering_vector.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert link.build_channel_matrices is original and channel.build_channel_matrices is original


def test_layer_metrics_flag_zero_call_layers():
    tracer = tracing.Tracer()
    tracer.call("cli.main", "cli", lambda: None)
    values, flags = tracing.layer_metrics([tracer.spans], grid_snapshots=10, overhead_ratio=1.1)
    assert list(values) == list(tracing.PER_LAYER)
    assert f"layer {tracing.LAYERS[0]}: 0 calls" in flags
    assert values["trace_overhead_ratio"] == 1.1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "dense_replay", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    if trace:
        for layer in ("scenario", "traces", "arrays", "channel", "beams", "link"):
            assert result["metrics"][f"layer.{layer}.calls"]["value"] > 0
