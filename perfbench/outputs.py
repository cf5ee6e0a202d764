"""Output check: metrics CSVs and traces against a per-seed reference.

A reference holds, per metrics row, the values a correct run must reproduce
and, on training rows, every beam pair whose sweep power ties with the
winner's. The check accepts:

- ``t`` within 1e-9 s, ``sinr_db`` within 1e-6 dB, ``delivered_bps`` within
  1e-9 relative, ``delay_s`` within 1e-12 s; ``los`` and ``mcs`` exactly;
- on a training row, any beam pair in the reference's tie set (sweep power
  within ``TIE_RTOL`` of the best; the front/back mirror of a planar array
  makes exact ties common); on a held row, the beam of the last training row;
- for room_trace, a trace CSV whose SHA-256 equals the reference's.

Stored references live in ``references/<workload>.json``. For a seed without
one, the benchmark's warm-up pass becomes the reference, so every timed pass
must reproduce it, and ``invariants`` still checks what is known about the
inputs (row count, LOS flags, mechanisms in the room trace).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

__all__ = [
    "METRICS_COLUMNS",
    "TIE_RTOL",
    "capture_ties",
    "compare",
    "invariants",
    "load_reference",
    "make_reference",
    "read_rows",
    "sha256",
]

METRICS_COLUMNS = (
    "t", "los", "tx_beam_az_deg", "tx_beam_zen_deg", "rx_beam_az_deg", "rx_beam_zen_deg",
    "sinr_db", "mcs", "offered_bps", "delivered_bps", "delay_s",
)
TIE_RTOL = 1e-9
T_ATOL = 1e-9
SINR_ATOL_DB = 1e-6
DELIVERED_RTOL = 1e-9
DELAY_ATOL_S = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def read_rows(text: str) -> list[list[str]]:
    """Metrics CSV text to data rows; raises ValueError on a wrong header."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != METRICS_COLUMNS:
        raise ValueError(f"metrics header is {rows[0] if rows else None}, not {METRICS_COLUMNS}")
    return rows[1:]


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextlib.contextmanager
def capture_ties():
    """Record, per swept snapshot time, the beam pairs tied for the best power.

    Wraps ``tracechan.beams.sweep_power_table`` under every name a
    tracechan module holds it by, for the duration of the block; yields
    {t: [[tx_az, tx_zen, rx_az, rx_zen], ...]}.
    """
    import numpy as np
    from tracechan import beams

    original = beams.sweep_power_table
    ties: dict[float, list[list[float]]] = {}

    def recording(channel, tx_codebook, rx_codebook, *args, **kwargs):
        table = original(channel, tx_codebook, rx_codebook, *args, **kwargs)
        best = float(table.max())
        tied = np.argwhere(table >= best * (1.0 - TIE_RTOL))
        ties[channel.time] = sorted(
            [tx_codebook.directions[i].azimuth_deg, tx_codebook.directions[i].zenith_deg,
             rx_codebook.directions[j].azimuth_deg, rx_codebook.directions[j].zenith_deg]
            for i, j in tied
        )
        return table

    patched = [
        (module, attr) for name, module in list(sys.modules.items())
        if name.split(".")[0] == "tracechan" and module is not None
        for attr, obj in vars(module).items() if obj is original
    ]
    for module, attr in patched:
        setattr(module, attr, recording)
    try:
        yield ties
    finally:
        for module, attr in patched:
            setattr(module, attr, original)


def make_reference(metrics_text: str, ties: dict, trace_sha256: str | None) -> dict:
    """Reference from one run's metrics CSV and the ties captured during it.

    A row with no captured sweep (the program no longer calls
    sweep_power_table) counts as a training row with no alternative beam
    when its beam differs from the previous row's, and as held otherwise.
    """
    rows = []
    previous = None
    for row in read_rows(metrics_text):
        t = float(row[0])
        beam = [float(x) for x in row[2:6]]
        tied = ties.get(t, [beam] if beam != previous else None)
        rows.append([t, int(row[1]), float(row[6]), int(row[7]), float(row[9]), float(row[10]), beam, tied])
        previous = beam
    return {"trace_sha256": trace_sha256, "rows": rows}


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def compare(rows: list[list[str]], reference: dict, trace_sha256: str | None = None) -> list[str]:
    """Differences between one pass's output and a reference; [] when it passes."""
    problems = []
    if reference["trace_sha256"] is not None and trace_sha256 != reference["trace_sha256"]:
        problems.append(f"trace sha256 {trace_sha256} != reference {reference['trace_sha256']}")
    ref_rows = reference["rows"]
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} metrics rows, reference has {len(ref_rows)}")
    held = None
    for row, (t, los, sinr, mcs, delivered, delay, beam, ties) in zip(rows, ref_rows):
        where = f"t={row[0]}"
        got_beam = [float(x) for x in row[2:6]]
        if abs(float(row[0]) - t) > T_ATOL:
            problems.append(f"{where}: t differs from reference {t!r}")
        if int(row[1]) != los:
            problems.append(f"{where}: los {row[1]} != {los}")
        if int(row[7]) != mcs:
            problems.append(f"{where}: mcs {row[7]} != {mcs}")
        if abs(float(row[6]) - sinr) > SINR_ATOL_DB:
            problems.append(f"{where}: sinr_db {row[6]} != {sinr!r}")
        if abs(float(row[9]) - delivered) > DELIVERED_RTOL * max(1.0, abs(delivered)):
            problems.append(f"{where}: delivered_bps {row[9]} != {delivered!r}")
        if abs(float(row[10]) - delay) > DELAY_ATOL_S:
            problems.append(f"{where}: delay_s {row[10]} != {delay!r}")
        if ties is not None:
            held = got_beam
            if got_beam != beam and got_beam not in ties:
                problems.append(f"{where}: beam {got_beam} does not tie with reference {beam}")
        elif got_beam != held:
            problems.append(f"{where}: held beam {got_beam} != trained beam {held}")
    return problems


def _trace_los_times(trace_csv: Path) -> tuple[set[float], set[str]]:
    """Snapshot times with a LOS record, and the path types present."""
    los, kinds = set(), set()
    with open(trace_csv, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            kinds.add(rec["path_type"])
            if rec["path_type"] == "LOS":
                los.add(float(rec["t"]))
    return los, kinds


def invariants(workload, rows: list[list[str]]) -> list[str]:
    """Checks that hold for every seed, reference or not."""
    problems = []
    if len(rows) != workload.snapshots:
        problems.append(f"{len(rows)} metrics rows for {workload.snapshots} grid snapshots")
    times = [float(r[0]) for r in rows]
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("metrics times are not strictly increasing")
    los = [r[1] == "1" for r in rows]
    if workload.trace_csv is not None:
        los_times, kinds = _trace_los_times(workload.trace_csv)
        expected = [t in los_times for t in times]
        missing = {"LOS", "REFL", "DIFF"} - kinds
        if missing:
            problems.append(f"trace lacks path types {sorted(missing)}")
    else:
        expected = list(workload.los_rows)
    if los != expected[: len(los)]:
        problems.append("los flags do not match the input trace")
    for r in rows:
        if not 0 <= int(r[7]) <= 28 or float(r[9]) > float(r[8]) or float(r[10]) <= 0.0:
            problems.append(f"t={r[0]}: mcs/delivered/delay out of range")
            break
    return problems
