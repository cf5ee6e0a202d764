"""Multipath trace records and their CSV serialization.

A trace is a time series of propagation snapshots. Each CSV row describes one
multipath component (MPC) of one directed link at one snapshot time: delay,
amplitude gain, total phase at the carrier, and departure/arrival angles.
The columns, their types and ranges are declared once in ``_COLUMNS``;
``CSV_COLUMNS`` lists their header names in file order. The contract holds
for every TraceSet: the parser checks text against it, and
``TraceSet(records)`` checks Python-built records against it in the
parser's words.

A TraceSet holds one array per column. The parser reads every column with
numpy and checks each column's range at once; text that this rejects is
parsed again row by row, which gives the error message (or the result, for
the few spellings that only Python's float() and int() accept). MpcRecord
objects are built only when asked for.
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
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .arrays import _AZIMUTH_RANGE, _ZENITH_RANGE, _within

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
# lie in the range; int columns are ids, which must be >= 0 and fit int64.
_COLUMNS = (
    ("t", "t", float, None),
    ("tx_id", "tx_id", int, None),
    ("rx_id", "rx_id", int, None),
    ("path_id", "path_id", int, None),
    ("path_type", "path_type", PathType, None),
    ("delay_s", "delay", float, (0.0, math.inf, False)),
    ("gain_mag", "gain_mag", float, (0.0, math.inf, False)),
    ("phase_rad", "phase", float, None),
    ("aod_az_deg", "aod_az", float, _AZIMUTH_RANGE),
    ("aod_zen_deg", "aod_zen", float, _ZENITH_RANGE),
    ("aoa_az_deg", "aoa_az", float, _AZIMUTH_RANGE),
    ("aoa_zen_deg", "aoa_zen", float, _ZENITH_RANGE),
)

CSV_COLUMNS = tuple(column[0] for column in _COLUMNS)
_ID_LIMIT = 2**63  # ids are held as int64
# the array dtype of each column type; path_type holds PathType members
_DTYPES = {float: np.float64, int: np.int64, PathType: object}
# the types a record's value may have in each numeric column type (never bool)
_TYPES = {float: (float, int, np.floating, np.integer), int: (int, np.integer)}
# path_type is checked first, so a row or record with several bad fields names it
_CHECK_ORDER = sorted(_COLUMNS, key=lambda column: column[2] is not PathType)


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


def _frozen(columns: dict[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    for col in columns.values():
        col.flags.writeable = False
    return MappingProxyType(columns)


class _Index(NamedTuple):
    """A trace's rows sorted by link and time, and where each snapshot lies."""

    rows: TraceSet  # the rows sorted by (tx_id, rx_id, t)
    bounds: np.ndarray  # snapshot g is rows[bounds[g]:bounds[g + 1]]
    times: np.ndarray  # each snapshot's time
    links: dict[tuple[int, int], tuple[int, int]]  # link -> its (first, stop) snapshots


class TraceSet:
    """The MPC records of a trace, held as one array per column.

    ``columns`` maps each MpcRecord field, in field order, to a read-only
    array in construction (file) order: float64 for the float fields, int64
    for the ids and PathType members for ``path_type``. MpcRecords are built
    only when ``records`` or iteration asks for them.

    ``TraceSet(records)`` checks every column against ``_COLUMNS`` once.
    A value that breaks its column's rule, a ``path_type`` that is not a
    PathType member or an id that is not an int (a float or a bool) raises
    TraceFormatError naming the record's index, the column and the value;
    of several, the first record's, its path_type first, as the parser
    reports rows.

    The grouping accessors index the rows by (link, snapshot time). ``link``
    returns a TraceSet that views one link's rows in time order, without
    copying them; the index bounds split it into snapshots. Construction
    order is preserved so that serialization round-trips exactly and so
    that file-order checks (snapshot monotonicity) remain possible.
    """

    def __init__(self, records: Iterable[MpcRecord] = ()) -> None:
        records = tuple(records)
        for i, record in enumerate(records):
            for name, attr, kind, bounds in _CHECK_ORDER:
                problem = _broken(getattr(record, attr), name, kind, bounds)
                if problem:
                    raise TraceFormatError(f"record {i}: {problem}")
        self.columns = _frozen({
            attr: np.fromiter(map(attrgetter(attr), records), _DTYPES[kind], len(records))
            for _, attr, kind, _ in _COLUMNS
        })
        self.__dict__["records"] = records

    @classmethod
    def _of(cls, columns: Mapping[str, np.ndarray]) -> TraceSet:
        """A TraceSet over the given read-only columns, taken as they are."""
        trace = cls.__new__(cls)
        trace.columns = columns
        return trace

    @cached_property
    def records(self) -> tuple[MpcRecord, ...]:
        """The rows as MpcRecords, built on first access."""
        return tuple(map(MpcRecord, *(col.tolist() for col in self.columns.values())))

    def __iter__(self) -> Iterator[MpcRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __getitem__(self, rows: slice) -> TraceSet:
        """The view of a run of rows."""
        return TraceSet._of(MappingProxyType({attr: col[rows] for attr, col in self.columns.items()}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        return all(np.array_equal(col, other.columns[attr]) for attr, col in self.columns.items())

    __hash__ = None

    def __repr__(self) -> str:
        return f"TraceSet(<{len(self)} records>)"

    @cached_property
    def _index(self) -> _Index:
        """The (link, time) index, links ascending.

        The sort is stable, so a snapshot keeps its rows' file order; a time
        equal to an earlier one (-0.0 and 0.0) joins that snapshot, which
        keeps the earlier spelling.
        """
        c = self.columns
        order = np.lexsort((c["t"], c["rx_id"], c["tx_id"]))
        rows = _frozen({attr: col[order] for attr, col in c.items()})
        tx, rx, t = rows["tx_id"], rows["rx_id"], rows["t"]
        new_link = np.ones(len(t), dtype=bool)
        new_link[1:] = (tx[1:] != tx[:-1]) | (rx[1:] != rx[:-1])
        new_snapshot = new_link.copy()
        new_snapshot[1:] |= t[1:] != t[:-1]
        starts = np.flatnonzero(new_snapshot)
        firsts = np.flatnonzero(new_link[starts])  # each link's first snapshot
        links = dict(zip(
            zip(tx[starts[firsts]].tolist(), rx[starts[firsts]].tolist()),
            zip(firsts.tolist(), [*firsts[1:].tolist(), len(starts)]),
        ))
        return _Index(TraceSet._of(rows), np.append(starts, len(t)), t[starts], links)

    def links(self) -> list[tuple[int, int]]:
        """Directed (tx_id, rx_id) pairs present in the trace, sorted."""
        return list(self._index.links)

    def snapshot_times(self, tx_id: int, rx_id: int) -> list[float]:
        """Sorted snapshot times of one link. Empty list for unknown links."""
        _, _, times, links = self._index
        first, stop = links.get((tx_id, rx_id), (0, 0))
        return times[first:stop].tolist()

    def link(self, tx_id: int, rx_id: int) -> TraceSet:
        """The rows of one link by snapshot time, each snapshot in file order.

        Empty for an unknown link. The groups of snapshot_times, in order,
        tile it.
        """
        rows, bounds, _, links = self._index
        first, stop = links.get((tx_id, rx_id), (0, 0))
        return rows[bounds[first]:bounds[stop]]


def _broken(value, column: str, kind, bounds) -> str | None:
    """The rule of its column that value breaks, as an error message; None if none."""
    if kind is PathType:
        if isinstance(value, PathType):
            return None
        return f"{column} must be a PathType, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        return f"{column} must be {'an int' if kind is int else 'a number'}, got {value!r}"
    try:
        value = kind(value)
    except OverflowError:  # an int too large for a float: inf, as float() reads its text
        value = math.inf
    if kind is int:
        if value < 0:
            return f"{column} must be >= 0, got {value}"
        return f"{column} must be < 2**63, got {value}" if value >= _ID_LIMIT else None
    if not math.isfinite(value):
        return f"non-finite value in {column!r}"
    if bounds is not None and not _within(value, bounds):
        lo, hi, hi_open = bounds
        return f"{column}={value!r} outside [{lo}, {hi}{')' if hi_open else ']'}"
    return None


def _field(text: str, column: str, kind, bounds, row: int):
    """One field of a row, parsed as its column's type and checked by its rule."""
    try:
        value = kind(text)
    except ValueError:
        if kind is PathType:
            raise TraceFormatError(f"row {row}: unknown {column} {text!r}") from None
        what = "integer field" if kind is int else "field"
        raise TraceFormatError(
            f"row {row}: non-numeric {what} {column!r}: {text!r}"
        ) from None
    problem = _broken(value, column, kind, bounds)
    if problem:
        raise TraceFormatError(f"row {row}: {problem}")
    return value


def _in_range(col: np.ndarray, kind, bounds) -> bool:
    """Whether every value of a numeric column passes _broken's range checks."""
    if kind is int:
        return bool((col >= 0).all())
    ok = np.isfinite(col)
    if bounds is not None:
        ok &= _within(col, bounds)
    return bool(ok.all())


def _parse_columns(header: list[str], lines: list[str]) -> TraceSet | None:
    """The lines after the header, every column parsed by numpy at once.

    None when numpy rejects the text (a ragged row, a spelling such as
    "1_0" that only float() or int() accepts) or a value fails its column's
    check; the row parser then gives the result or the message. The caller
    passes only lines without quotes or carriage returns, which split into
    fields at every comma for csv and numpy alike.
    """
    if not any(lines):
        return None  # only blank lines: no rows
    kinds = {name: kind for name, _, kind, _ in _COLUMNS}
    # an unknown column is read as a one-character string and dropped
    dtype = [(f"f{i}", _DTYPES[kinds[name]] if name in kinds else "U1")
             for i, name in enumerate(header)]
    try:
        with warnings.catch_warnings():
            # older numpy reads "1.0" as an int with a DeprecationWarning,
            # which int() rejects: a value read with a warning is not read
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    columns = {}
    for name, attr, kind, bounds in _COLUMNS:
        col = table[f"f{header.index(name)}"]
        if kind is PathType:
            spellings = col.tolist()
            try:
                types = {text: PathType(text.strip()) for text in set(spellings)}
            except ValueError:
                return None
            # fromiter: np.array probes each member as a possible sequence, 10x slower
            col = np.fromiter(map(types.__getitem__, spellings), object, len(spellings))
        elif not _in_range(col, kind, bounds):
            return None
        columns[attr] = np.ascontiguousarray(col)
    return TraceSet._of(_frozen(columns))


def _parse_rows(header: list[str], reader) -> TraceSet:
    """The rows after the header, parsed field by field into MpcRecords."""
    plan = [(header.index(name), name, attr, kind, bounds)
            for name, attr, kind, bounds in _CHECK_ORDER]
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
    return TraceSet(records)


def parse_trace_text(text: str) -> TraceSet:
    """Parse trace CSV text. Any structural or range error aborts the parse.

    Header names bind the columns in any order. Unknown extra columns are
    ignored with a warning; a missing, renamed or repeated column is an
    error. Rows keep their file order.
    """
    # text without quotes or carriage returns has one row per line for csv
    # and numpy alike; its lines are split once and serve both parsers
    plain = '"' not in text and "\r" not in text
    if plain:
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # as a file reads it: no line after a final newline
    reader = csv.reader(lines if plain else io.StringIO(text))
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
    if plain:
        trace = _parse_columns(header, lines[1:])
        if trace is not None:
            return trace
    return _parse_rows(header, reader)


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
    c = trace.columns
    for t, tx, rx in zip(c["t"].tolist(), c["tx_id"].tolist(), c["rx_id"].tolist()):
        seq = order.setdefault((tx, rx), [])
        if not seq or seq[-1] != t:
            seq.append(t)
    for (tx, rx), seq in sorted(order.items()):
        for prev, cur in zip(seq, seq[1:]):
            if cur <= prev:
                violations.append(
                    Violation(
                        "NonMonotonicTime", tx, rx, cur,
                        f"snapshot t={cur!r} follows t={prev!r}",
                    )
                )

    # the snapshots in index order (links ascending, then times), each
    # snapshot's rows in file order
    rows, bounds, times, _ = trace._index
    c = rows.columns
    n_los = np.diff(np.concatenate(([0], np.cumsum(c["path_type"] == PathType.LOS)))[bounds])
    # a row repeats a path_id when an earlier row of its snapshot has it
    snapshot = np.repeat(np.arange(len(times)), np.diff(bounds))
    by_id = np.lexsort((c["path_id"], snapshot))  # stable: a repeat follows its first
    key = np.stack((snapshot, c["path_id"]))[:, by_id]
    repeats = np.sort(by_id[1:][(key[:, 1:] == key[:, :-1]).all(axis=0)])
    repeated: dict[int, list[int]] = {}
    for g, path_id in zip(snapshot[repeats].tolist(), c["path_id"][repeats].tolist()):
        repeated.setdefault(g, []).append(path_id)
    for g in sorted({*np.flatnonzero(n_los > 1).tolist(), *repeated}):
        tx, rx, t = int(c["tx_id"][bounds[g]]), int(c["rx_id"][bounds[g]]), float(times[g])
        if n_los[g] > 1:
            violations.append(Violation("DuplicateLos", tx, rx, t, f"{n_los[g]} LOS records"))
        violations += (Violation("DuplicatePathId", tx, rx, t, f"path_id {path_id} repeated")
                       for path_id in repeated.get(g, ()))

    return ValidationReport(tuple(violations))


# a float's repr is the shortest text that round-trips exactly, as csv writes it;
# no cell holds a comma, quote or line break, so none is quoted
_TEXT = {float: repr, int: str, PathType: attrgetter("value")}


def trace_to_text(trace: TraceSet) -> str:
    """Serialize to CSV text. parse_trace_text(trace_to_text(x)) == x."""
    cells = (map(_TEXT[kind], trace.columns[attr].tolist()) for _, attr, kind, _ in _COLUMNS)
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*cells))]) + "\n"


def write_trace(trace: TraceSet, path) -> None:
    """Write a trace CSV file. Output parses back to an equal TraceSet."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trace_to_text(trace))
