"""Multipath trace records and their CSV serialization.

A trace is a time series of propagation snapshots. Each CSV row describes one
multipath component (MPC) of one directed link at one snapshot time: delay,
amplitude gain, total phase at the carrier, and departure/arrival angles.
The columns, their types and ranges are declared once in ``_COLUMNS``;
``CSV_COLUMNS`` lists their header names in file order.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Iterator

__all__ = [
    "PathType",
    "MpcRecord",
    "TraceSet",
    "Violation",
    "ValidationReport",
    "TraceFormatError",
    "parse_trace",
    "parse_trace_text",
    "validate_trace",
    "write_trace",
    "trace_to_text",
    "CSV_COLUMNS",
]

class PathType(Enum):
    """Propagation mechanism of one multipath component."""

    LOS = "LOS"
    REFLECTION = "REFL"
    DIFFRACTION = "DIFF"
    SCATTERING = "SCAT"


class TraceFormatError(ValueError):
    """Structural or range error in a trace file; parsing is all-or-nothing."""


# One entry per CSV column, in file order: header name, MpcRecord field, type
# and accepted range (lo, hi, hi_open) or None. Floats must be finite and
# lie in the range; int columns are ids, which must be >= 0.
_COLUMNS = (
    ("t", "t", float, None),
    ("tx_id", "tx_id", int, None),
    ("rx_id", "rx_id", int, None),
    ("path_id", "path_id", int, None),
    ("path_type", "path_type", PathType, None),
    ("delay_s", "delay", float, (0.0, math.inf, False)),
    ("gain_mag", "gain_mag", float, (0.0, math.inf, False)),
    ("phase_rad", "phase", float, None),
    ("aod_az_deg", "aod_az", float, (-180.0, 180.0, True)),
    ("aod_zen_deg", "aod_zen", float, (0.0, 180.0, False)),
    ("aoa_az_deg", "aoa_az", float, (-180.0, 180.0, True)),
    ("aoa_zen_deg", "aoa_zen", float, (0.0, 180.0, False)),
)

CSV_COLUMNS = tuple(column[0] for column in _COLUMNS)


@dataclass(frozen=True)
class MpcRecord:
    """One multipath component at one snapshot time.

    Angles are degrees. Azimuth lies in [-180, 180) measured from +x toward
    +y; zenith lies in [0, 180] measured from +z. ``aod`` points from the
    transmitter along the departing ray; ``aoa`` points from the receiver
    toward the last interaction (i.e. back along the arriving ray). ``phase``
    is the total path phase at the carrier, radians. No Doppler shift is
    stored or derived: each snapshot's channel is taken at its own time.
    """

    t: float
    tx_id: int
    rx_id: int
    path_id: int
    path_type: PathType
    delay: float
    gain_mag: float
    phase: float
    aod_az: float
    aod_zen: float
    aoa_az: float
    aoa_zen: float


@dataclass(frozen=True)
class Violation:
    """One finding from validate_trace. kind is a stable machine-readable tag."""

    kind: str
    tx_id: int
    rx_id: int
    t: float
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} link=({self.tx_id},{self.rx_id}) t={self.t}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class TraceSet:
    """All MPC records of a trace, in construction (file) order.

    Grouping accessors index records by (snapshot time, link). Construction
    order is preserved so that serialization round-trips exactly and so that
    file-order checks (snapshot monotonicity) remain possible.
    """

    records: tuple[MpcRecord, ...] = ()

    def __iter__(self) -> Iterator[MpcRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def _index(self) -> dict[tuple[int, int], dict[float, list[MpcRecord]]]:
        idx: dict[tuple[int, int], dict[float, list[MpcRecord]]] = {}
        for rec in self.records:
            by_t = idx.setdefault((rec.tx_id, rec.rx_id), {})
            by_t.setdefault(rec.t, []).append(rec)
        return idx

    def links(self) -> list[tuple[int, int]]:
        """Directed (tx_id, rx_id) pairs present in the trace, sorted."""
        return sorted(self._index)

    def snapshot_times(self, tx_id: int, rx_id: int) -> list[float]:
        """Sorted snapshot times of one link. Empty list for unknown links."""
        by_t = self._index.get((tx_id, rx_id))
        return sorted(by_t) if by_t else []

    def group(self, t: float, tx_id: int, rx_id: int) -> list[MpcRecord]:
        """Records of one (time, link) snapshot, in file order."""
        by_t = self._index.get((tx_id, rx_id))
        if not by_t:
            return []
        return list(by_t.get(t, []))


def _field(text: str, column: str, kind, bounds, row: int):
    """One field of a row, parsed as its column's type and range-checked."""
    if kind is PathType:
        try:
            return PathType(text)
        except ValueError:
            raise TraceFormatError(f"row {row}: unknown {column} {text!r}") from None
    try:
        value = kind(text)
    except ValueError:
        what = "integer field" if kind is int else "field"
        raise TraceFormatError(
            f"row {row}: non-numeric {what} {column!r}: {text!r}"
        ) from None
    if kind is int:
        if value < 0:
            raise TraceFormatError(f"row {row}: {column} must be >= 0, got {value}")
        return value
    if not math.isfinite(value):
        raise TraceFormatError(f"row {row}: non-finite value in {column!r}")
    if bounds is not None:
        lo, hi, hi_open = bounds
        if value < lo or (value >= hi if hi_open else value > hi):
            bracket = ")" if hi_open else "]"
            raise TraceFormatError(
                f"row {row}: {column}={value!r} outside [{lo}, {hi}{bracket}"
            )
    return value


def parse_trace_text(text: str) -> TraceSet:
    """Parse trace CSV text. Any structural or range error aborts the parse.

    Header names bind the columns in any order. Unknown extra columns are
    ignored with a warning; a missing, renamed or repeated column is an
    error. Rows keep their file order.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("empty file: missing header") from None
    header = [h.strip() for h in header]
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise TraceFormatError(f"missing required column(s): {', '.join(missing)}")
    duplicate = sorted({h for h in header if header.count(h) > 1}, key=header.index)
    if duplicate:
        raise TraceFormatError(f"duplicate column(s): {', '.join(duplicate)}")
    extra = [h for h in header if h not in CSV_COLUMNS]
    if extra:
        warnings.warn(
            f"ignoring unknown trace column(s): {', '.join(extra)}", stacklevel=2
        )
    # path_type is checked first, so a row with several bad fields names it
    plan = sorted(
        ((header.index(name), name, attr, kind, bounds)
         for name, attr, kind, bounds in _COLUMNS),
        key=lambda column: column[3] is not PathType,
    )

    records: list[MpcRecord] = []
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) < len(header):
            raise TraceFormatError(
                f"row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        records.append(MpcRecord(**{
            attr: _field(row[i].strip(), name, kind, bounds, row_no)
            for i, name, attr, kind, bounds in plan
        }))
    return TraceSet(tuple(records))


def parse_trace(path) -> TraceSet:
    """Parse a trace CSV file. See parse_trace_text."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_trace_text(fh.read())


def validate_trace(trace: TraceSet) -> ValidationReport:
    """Collect semantic findings: questionable data, not parse failures.

    Checks per link: snapshot times strictly increasing in file order, at
    most one LOS record per snapshot, path_ids unique within a snapshot.
    """
    violations: list[Violation] = []

    order: dict[tuple[int, int], list[float]] = {}
    for rec in trace.records:
        seq = order.setdefault((rec.tx_id, rec.rx_id), [])
        if not seq or seq[-1] != rec.t:
            seq.append(rec.t)
    for (tx, rx), seq in sorted(order.items()):
        for prev, cur in zip(seq, seq[1:]):
            if cur <= prev:
                violations.append(
                    Violation(
                        "NonMonotonicTime", tx, rx, cur,
                        f"snapshot t={cur!r} follows t={prev!r}",
                    )
                )

    for tx, rx in trace.links():
        for t in trace.snapshot_times(tx, rx):
            group = trace.group(t, tx, rx)
            n_los = sum(1 for r in group if r.path_type is PathType.LOS)
            if n_los > 1:
                violations.append(
                    Violation("DuplicateLos", tx, rx, t, f"{n_los} LOS records")
                )
            seen: set[int] = set()
            for r in group:
                if r.path_id in seen:
                    violations.append(
                        Violation(
                            "DuplicatePathId", tx, rx, t,
                            f"path_id {r.path_id} repeated",
                        )
                    )
                seen.add(r.path_id)

    return ValidationReport(tuple(violations))


# csv writes a float as str(), the shortest string that round-trips exactly;
# float() first turns a numpy scalar into a plain float
_CELL = {float: float, int: str, PathType: attrgetter("value")}


def trace_to_text(trace: TraceSet) -> str:
    """Serialize to CSV text. parse_trace_text(trace_to_text(x)) == x."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    values = attrgetter(*(attr for _, attr, _, _ in _COLUMNS))
    cells = [_CELL[kind] for _, _, kind, _ in _COLUMNS]
    writer.writerows([cell(v) for cell, v in zip(cells, values(r))] for r in trace.records)
    return out.getvalue()


def write_trace(trace: TraceSet, path) -> None:
    """Write a trace CSV file. Output parses back to an equal TraceSet."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trace_to_text(trace))
