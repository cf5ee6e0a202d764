"""Trace CSV parsing, validation, and round-trip serialization."""

import csv
import io
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mk_record, snapshot_groups
from tracechan import (
    PathType,
    TraceFormatError,
    TraceSet,
    ValidationReport,
    Violation,
    parse_trace,
    parse_trace_text,
    trace_to_text,
    validate_trace,
    write_trace,
)
from tracechan import traces
from tracechan.traces import CSV_COLUMNS

HEADER = (
    "t,tx_id,rx_id,path_id,path_type,delay_s,gain_mag,phase_rad,"
    "aod_az_deg,aod_zen_deg,aoa_az_deg,aoa_zen_deg"
)

ROW = "0.5,0,1,0,LOS,3.3356e-07,1.2e-05,-1.25,37.0,98.5,-143.0,81.5"

DATA_DIR = Path(__file__).resolve().parent / "data"


def _text_with(**fields):
    """HEADER plus ROW with the named columns replaced."""
    cols = HEADER.split(",")
    vals = ROW.split(",")
    for column, value in fields.items():
        vals[cols.index(column)] = value
    return f"{HEADER}\n" + ",".join(vals) + "\n"


def test_parse_single_row():
    trace = parse_trace_text(f"{HEADER}\n{ROW}\n")
    assert len(trace) == 1
    r = trace.records[0]
    assert r.t == 0.5
    assert (r.tx_id, r.rx_id, r.path_id) == (0, 1, 0)
    assert r.path_type is PathType.LOS
    assert r.delay == 3.3356e-07
    assert r.gain_mag == 1.2e-05
    assert r.phase == -1.25
    assert (r.aod_az, r.aod_zen) == (37.0, 98.5)
    assert (r.aoa_az, r.aoa_zen) == (-143.0, 81.5)


def test_parse_all_path_types():
    rows = "\n".join(
        f"0.0,0,1,{i},{pt},1e-07,1e-05,0.0,0.0,90.0,0.0,90.0"
        for i, pt in enumerate(["LOS", "REFL", "DIFF", "SCAT"])
    )
    trace = parse_trace_text(f"{HEADER}\n{rows}\n")
    members = [PathType.LOS, PathType.REFLECTION, PathType.DIFFRACTION, PathType.SCATTERING]
    assert [r.path_type for r in trace] == members
    # the parser's column and TraceSet(records)' hold the members themselves
    for col in (trace.columns["path_type"], TraceSet(trace.records).columns["path_type"]):
        assert col.dtype == object and all(a is b for a, b in zip(col, members, strict=True))


def test_parse_skips_blank_lines():
    trace = parse_trace_text(f"{HEADER}\n\n{ROW}\n\n")
    assert len(trace) == 1


def test_parse_reordered_columns():
    # header names bind the columns, not their order
    cols = HEADER.split(",")
    perm = cols[::-1]
    vals = ROW.split(",")
    row = ",".join(vals[cols.index(c)] for c in perm)
    trace = parse_trace_text(",".join(perm) + "\n" + row + "\n")
    assert trace.records[0].aod_az == 37.0


def test_parse_extra_column_warns():
    with pytest.warns(UserWarning, match="extra_col"):
        trace = parse_trace_text(f"{HEADER},extra_col\n{ROW},99\n")
    assert len(trace) == 1


def test_parse_missing_column_is_error():
    broken = HEADER.replace("gain_mag", "gain")
    with pytest.raises(TraceFormatError, match="gain_mag"):
        parse_trace_text(f"{broken}\n")


def test_parse_empty_file():
    with pytest.raises(TraceFormatError, match="header"):
        parse_trace_text("")


def test_parse_short_row_reports_row_number():
    with pytest.raises(TraceFormatError, match="row 3"):
        parse_trace_text(f"{HEADER}\n{ROW}\n0.5,0,1\n")


@pytest.mark.parametrize(
    "column,value,needle",
    [
        ("delay_s", "-1e-9", "delay_s"),
        ("gain_mag", "-0.5", "gain_mag"),
        ("aod_az_deg", "180.0", "aod_az_deg"),
        ("aod_az_deg", "-180.1", "aod_az_deg"),
        ("aoa_zen_deg", "180.5", "aoa_zen_deg"),
        ("aoa_zen_deg", "-0.1", "aoa_zen_deg"),
        ("gain_mag", "nan", "gain_mag"),
        ("delay_s", "inf", "delay_s"),
        ("phase_rad", "abc", "phase_rad"),
        ("tx_id", "-1", "tx_id"),
        ("path_type", "BOUNCE", "BOUNCE"),
    ],
)
def test_parse_rejects_bad_field(column, value, needle):
    cols = HEADER.split(",")
    vals = ROW.split(",")
    vals[cols.index(column)] = value
    with pytest.raises(TraceFormatError, match=needle):
        parse_trace_text(f"{HEADER}\n" + ",".join(vals) + "\n")


def test_azimuth_lower_bound_inclusive():
    cols = HEADER.split(",")
    vals = ROW.split(",")
    vals[cols.index("aoa_az_deg")] = "-180.0"
    trace = parse_trace_text(f"{HEADER}\n" + ",".join(vals) + "\n")
    assert trace.records[0].aoa_az == -180.0


def test_parse_duplicate_column_is_error():
    # the second gain_mag would otherwise be ignored, out of range or not
    with pytest.raises(TraceFormatError) as exc:
        parse_trace_text(f"{HEADER}, gain_mag\n{ROW},-5\n")
    assert str(exc.value) == "duplicate column(s): gain_mag"


def test_bad_path_type_reported_before_numeric_fields():
    with pytest.raises(TraceFormatError) as exc:
        parse_trace_text(_text_with(t="abc", path_type="BOUNCE"))
    assert str(exc.value) == "row 2: unknown path_type 'BOUNCE'"


def test_first_bad_column_in_file_order_reported():
    with pytest.raises(TraceFormatError) as exc:
        parse_trace_text(_text_with(aoa_zen_deg="200", delay_s="nan"))
    assert str(exc.value) == "row 2: non-finite value in 'delay_s'"


@pytest.mark.parametrize("name", ["corner", "etoile", "etoile_wide"])
def test_stored_traces_round_trip_byte_for_byte(name):
    # pins the writer's number and row format against the stored traces
    path = DATA_DIR / f"{name}_trace.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert trace_to_text(parse_trace(path)) == text


def test_grouping_accessors():
    recs = [
        mk_record(t=0.0, path_id=0),
        mk_record(t=0.0, path_id=1, path_type=PathType.REFLECTION),
        mk_record(t=0.1, path_id=0),
        mk_record(t=0.0, tx_id=2, rx_id=3),
    ]
    trace = TraceSet(tuple(recs))
    assert trace.links() == [(0, 1), (2, 3)]
    assert trace.snapshot_times(0, 1) == [0.0, 0.1]
    assert trace.snapshot_times(9, 9) == []
    groups = snapshot_groups(trace, 0, 1)
    assert [(t, [r.path_id for r in group]) for t, group in groups] == [(0.0, [0, 1]), (0.1, [0])]
    assert groups[0][1].records == tuple(recs[:2])
    assert trace.link(0, 1).records == tuple(recs[:3])
    assert snapshot_groups(trace, 9, 9) == [] and len(trace.link(9, 9)) == 0


def test_link_rows_by_time_then_file_order():
    # snapshots out of file order; -0.0 joins the 0.0 snapshot that came first
    recs = [
        mk_record(t=0.2, path_id=0),
        mk_record(t=0.0, tx_id=2, rx_id=3),
        mk_record(t=0.0, path_id=5),
        mk_record(t=0.1, path_id=0),
        mk_record(t=-0.0, path_id=4),
    ]
    trace = TraceSet(recs)
    link = trace.link(0, 1)
    assert [(r.t, r.path_id) for r in link] == [(0.0, 5), (0.0, 4), (0.1, 0), (0.2, 0)]
    times = trace.snapshot_times(0, 1)
    assert [math.copysign(1.0, t) for t in times] == [1.0, 1.0, 1.0]
    # the snapshots' index runs, in time order, tile the link
    groups = snapshot_groups(trace, 0, 1)
    assert [t for t, _ in groups] == times
    assert sum((g.records for _, g in groups), ()) == link.records
    assert len(trace.link(9, 9)) == 0
    assert len(TraceSet().link(0, 1)) == 0 and TraceSet().links() == []


def test_validate_clean():
    trace = TraceSet((mk_record(t=0.0), mk_record(t=0.1)))
    assert validate_trace(trace).ok


def test_validate_duplicate_los():
    trace = TraceSet((mk_record(path_id=0), mk_record(path_id=1)))
    report = validate_trace(trace)
    assert [v.kind for v in report.violations] == ["DuplicateLos"]


def test_validate_duplicate_path_id():
    trace = TraceSet(
        (mk_record(path_id=0), mk_record(path_id=0, path_type=PathType.REFLECTION))
    )
    kinds = [v.kind for v in validate_trace(trace).violations]
    assert "DuplicatePathId" in kinds


def test_validate_non_monotonic_time():
    # snapshot order is the file order, so a time step backward is detectable
    trace = TraceSet((mk_record(t=0.2), mk_record(t=0.1)))
    report = validate_trace(trace)
    assert [v.kind for v in report.violations] == ["NonMonotonicTime"]
    assert validate_trace(TraceSet((mk_record(t=0.1), mk_record(t=0.2)))).ok


def test_validate_non_monotonic_survives_round_trip():
    trace = TraceSet((mk_record(t=0.2), mk_record(t=0.1)))
    again = parse_trace_text(trace_to_text(trace))
    assert [v.kind for v in validate_trace(again).violations] == ["NonMonotonicTime"]


def _group(trace, t, tx_id, rx_id):
    """The rows of one (time, link) snapshot, in file order; may be empty."""
    rows, bounds, times, links = trace._index
    first, stop = links.get((tx_id, rx_id), (0, 0))
    i = first + int(np.searchsorted(times[first:stop], t))
    if i == stop or times[i] != t:
        return rows[:0]
    return rows[bounds[i]:bounds[i + 1]]


def _reference_validate(trace):
    """validate_trace as a per-snapshot loop: each snapshot searched by _group."""
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

    for tx, rx in trace.links():
        for t in trace.snapshot_times(tx, rx):
            group = _group(trace, t, tx, rx).columns
            n_los = int(np.count_nonzero(group["path_type"] == PathType.LOS))
            if n_los > 1:
                violations.append(
                    Violation("DuplicateLos", tx, rx, t, f"{n_los} LOS records")
                )
            seen: set[int] = set()
            for path_id in group["path_id"].tolist():
                if path_id in seen:
                    violations.append(
                        Violation(
                            "DuplicatePathId", tx, rx, t,
                            f"path_id {path_id} repeated",
                        )
                    )
                seen.add(path_id)

    return ValidationReport(tuple(violations))


# few links, times (-0.0 and 0.0 among them), ids and types, so that drawn
# traces repeat LOS records and ids within a snapshot and step back in time
_findings_records = st.builds(
    lambda link, **kw: mk_record(tx_id=link[0], rx_id=link[1], **kw),
    link=st.sampled_from([(0, 1), (1, 0), (2, 1)]),
    t=st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.30000000000000004]),
    path_id=st.integers(0, 2),
    path_type=st.sampled_from([PathType.LOS, PathType.LOS, PathType.REFLECTION,
                               PathType.DIFFRACTION]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_findings_records, max_size=30))
# one id three times, two LOS records, and -0.0 joining the 0.0 snapshot
@example([mk_record(t=0.0, path_id=1, path_type=PathType.REFLECTION),
          mk_record(t=-0.0, path_id=1), mk_record(t=0.0, path_id=2),
          mk_record(t=0.0, path_id=1, path_type=PathType.DIFFRACTION)])
@example([mk_record(t=0.2, path_id=0), mk_record(t=0.1, path_id=0, tx_id=2),
          mk_record(t=0.1, path_id=0), mk_record(t=0.1, path_id=0)])
def test_validate_matches_the_per_snapshot_loop(records):
    # the same findings in the same order: NonMonotonicTime in file order
    # first, then per link and time DuplicateLos before the repeated ids
    trace = TraceSet(records)
    got, want = validate_trace(trace).violations, _reference_validate(trace).violations
    assert list(map(repr, got)) == list(map(repr, want))
    assert list(map(str, got)) == list(map(str, want))


def _csv_writer_text(records):
    """The trace text as csv.writer writes the records' cells, the oracle of
    trace_to_text: floats by repr, ids by str, path types by their value."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([getattr(rec, attr).value if kind is PathType else getattr(rec, attr)
                         for _, attr, kind, _ in traces._COLUMNS])
    return out.getvalue()


def test_round_trip_identity():
    recs = (
        mk_record(t=0.30000000000000004, phase=-3.141592653589793),
        mk_record(t=0.4, path_id=1, path_type=PathType.DIFFRACTION,
                  gain_mag=4.305621e-08, aod_az=170.53767779197437),
        # signed zeros, ids next to 2**63, the smallest and largest floats and
        # the angle range ends, on every path type
        *(mk_record(t=-0.0, tx_id=2**63 - 1, rx_id=2**63 - 2, path_id=2**63 - 1 - k,
                    path_type=kind, delay=-0.0, gain_mag=5e-324, phase=-0.0,
                    aod_az=-180.0, aod_zen=180.0, aoa_az=math.nextafter(180.0, 0.0),
                    aoa_zen=-0.0) for k, kind in enumerate(PathType)),
        mk_record(t=1e300, delay=1.7976931348623157e308, gain_mag=1e-310),
    )
    trace = TraceSet(recs)
    text = trace_to_text(trace)
    assert text == _csv_writer_text(recs)
    assert parse_trace_text(text) == trace
    assert trace_to_text(parse_trace_text(text)) == text  # -0.0 stays -0.0
    assert "\n-0.0,9223372036854775807,9223372036854775806,9223372036854775804,SCAT," in text
    assert trace_to_text(TraceSet([])) == _csv_writer_text([]) == HEADER + "\n"


def test_write_and_parse_file(tmp_path):
    trace = TraceSet((mk_record(), mk_record(t=0.1, path_id=0)))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert parse_trace(path) == trace
    first_line = path.read_text().splitlines()[0]
    assert first_line == HEADER


_angles = st.floats(min_value=-180.0, max_value=179.999, allow_nan=False)
_zeniths = st.floats(min_value=0.0, max_value=180.0, allow_nan=False)
_ids = st.integers(min_value=0, max_value=99) | st.integers(2**63 - 4, 2**63 - 1)
_records = st.builds(
    mk_record,
    t=st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
    | st.just(-0.0),
    tx_id=_ids,
    rx_id=_ids,
    path_id=st.integers(min_value=0, max_value=999) | st.integers(2**63 - 4, 2**63 - 1),
    path_type=st.sampled_from(list(PathType)),
    delay=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    gain_mag=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    phase=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    aod_az=_angles,
    aod_zen=_zeniths,
    aoa_az=_angles,
    aoa_zen=_zeniths,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=30))
def test_round_trip_property(records):
    trace = TraceSet(tuple(records))
    text = trace_to_text(trace)
    assert text == _csv_writer_text(records)
    assert parse_trace_text(text) == trace


# values on both sides of each column rule, the Python types a record must
# not hold among them; ids of a numpy integer type are ids too
_IDS = [-1, 2**63, 2**63 - 1, np.int64(3), 1.5, 1.0, True]
_AZIMUTHS = [180.0, -180.0, math.nextafter(180.0, 0.0), math.nextafter(-180.0, -math.inf),
             math.nan]
_ZENITHS = [180.1, 180.0, 0.0, -0.1, -math.inf]
_EDGE_VALUES = {
    "t": [math.nan, math.inf, -math.inf, -1.0],
    "tx_id": _IDS, "rx_id": _IDS, "path_id": _IDS,
    "path_type": ["LOS", "REFL", "BOUNCE", PathType.SCATTERING],
    "delay": [-1e-9, -0.0, 0.0, math.nan, math.inf, 10**400],
    "gain_mag": [-1e-5, 0.0, math.inf, math.nan],
    "phase": [math.nan, -math.inf, 1e300],
    "aod_az": _AZIMUTHS, "aoa_az": _AZIMUTHS, "aod_zen": _ZENITHS, "aoa_zen": _ZENITHS,
}


_SPELLINGS = {member.value for member in PathType}


def _cell(value):
    return value.value if isinstance(value, PathType) else str(value)


def _named(message):
    """(where, the column named, the rest) of a row's or a record's message."""
    where, rest = message.split(": ", 1)
    return where, next(w for w in re.findall(r"[a-z_]+", rest) if w in CSV_COLUMNS), rest


def _failure(build, *args):
    try:
        return build(*args), None
    except TraceFormatError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_records_meet_the_csv_contract(data):
    # records with a few values drawn on both sides of each _COLUMNS rule:
    # TraceSet(records) raises where parse_trace_text raises on the same
    # values as CSV cells, naming the same record (row) and column in the
    # same words, unless a record holds a value of a type CSV text cannot
    # hold; accepted traces round-trip
    records = data.draw(st.lists(_records, min_size=1, max_size=4), label="records")
    attrs = [attr for _, attr, _, _ in traces._COLUMNS]
    for _ in range(data.draw(st.integers(0, 2), label="edge values")):
        i = data.draw(st.integers(0, len(records) - 1))
        attr = data.draw(st.sampled_from(attrs))
        value = data.draw(st.sampled_from(_EDGE_VALUES[attr]), label=attr)
        records[i] = replace(records[i], **{attr: value})
    text = "\n".join([",".join(CSV_COLUMNS), *(
        ",".join(_cell(getattr(r, attr)) for attr in attrs) for r in records)]) + "\n"
    parsed, csv_problem = _failure(parse_trace_text, text)
    trace, problem = _failure(TraceSet, records)
    spelled = [i for i, r in enumerate(records) if r.path_type in _SPELLINGS]
    if spelled:  # a path_type given as its text: the one rule CSV text cannot break
        assert problem is not None
        for i in spelled:  # the member that the CSV parser reads for the text
            records[i] = replace(records[i], path_type=PathType(records[i].path_type))
        trace, problem = _failure(TraceSet, records)
    if problem is None:
        assert csv_problem is None and parsed == trace
        assert parse_trace_text(trace_to_text(trace)) == trace
        return
    assert csv_problem is not None
    where, column, words = _named(problem)
    row, csv_column, csv_words = _named(csv_problem)
    assert (row, csv_column) == (f"row {int(where.split()[1]) + 2}", column)
    if not csv_words.startswith(("non-numeric", "unknown")):  # text that is no value
        assert words == csv_words


@pytest.mark.parametrize("fields, message", [
    # each of these simulated before: path_type "LOS" as a path that is not
    # LOS, path_id 1.5 as 1, and negative gains and delays as they were
    ({"path_type": "LOS"}, "record 1: path_type must be a PathType, got 'LOS'"),
    ({"path_id": 1.5}, "record 1: path_id must be an int, got 1.5"),
    ({"tx_id": True}, "record 1: tx_id must be an int, got True"),
    ({"gain_mag": -1e-5}, "record 1: gain_mag=-1e-05 outside [0.0, inf]"),
    ({"delay": -1e-9}, "record 1: delay_s=-1e-09 outside [0.0, inf]"),
    ({"rx_id": 2**63}, "record 1: rx_id must be < 2**63, got 9223372036854775808"),
    ({"delay": 10**400}, "record 1: non-finite value in 'delay_s'"),
    # path_type is checked first, as the CSV parser checks it
    ({"t": math.nan, "path_type": 1}, "record 1: path_type must be a PathType, got 1"),
])
def test_bad_records_rejected_in_one_line(fields, message):
    with pytest.raises(TraceFormatError) as exc:
        TraceSet([mk_record(), mk_record(**{"path_id": 1, **fields}), mk_record(path_id=-2)])
    assert str(exc.value) == message


# odd spellings of one field of each type: ones that only Python's float()
# and int() accept, that numpy reads but that fail the range checks, and
# ones that every reader rejects
_ODD_SPELLINGS = {
    float: ["1_0", "inf", "-inf", "nan", "NaN", "1e400", "-1e-9", "180.0", "200", "",
            "abc", "0x10", "1.5d0", "\u0663"],
    int: ["1_0", "-1", "1e3", "1.0", "\u0663", "9223372036854775807",
          "9223372036854775808", "99999999999999999999", ""],
    PathType: ["los", "BOUNCE", "REFLX", ""],
    None: ["x", "", "1"],  # an unknown column takes any text
}


def _valid_spellings(kind, bounds):
    """Spellings of in-range values, canonical and odd ones alike."""
    if kind is PathType:
        return st.sampled_from(["LOS", "REFL", "DIFF", "SCAT", " REFL ", "DIFF\t"])
    if kind is int:
        return st.sampled_from(["0", "1", "2", "+1", " 2 ", "-0", "007"])
    lo, hi, hi_open = bounds or (-1e4, 1e4, False)
    value = st.floats(lo, min(hi, 1e4), exclude_max=hi_open)
    odd = ["-0.0", "0.0", " 1.5 ", "\t2.5", "+1", "1e1", ".5", "5.", "1E-3"]
    return value.map(repr) | st.sampled_from(
        [t for t in odd if lo <= float(t) and (float(t) < hi if hi_open else float(t) <= hi)]
    )


_BY_NAME = {name: (kind, bounds) for name, _, kind, bounds in traces._COLUMNS}


def _outcome(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except TraceFormatError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_columnar_parse_matches_row_parse(data):
    # files of in-range values in odd spellings, with at most a few odd cells
    # or rows: the columnar reader gives the row parser's trace bit for bit,
    # or the row parser's message
    header = data.draw(st.permutations(CSV_COLUMNS), label="header")
    header += data.draw(st.lists(st.sampled_from(["note", "snr_db"]), max_size=2, unique=True),
                        label="extra columns")
    rows = [[data.draw(_valid_spellings(*_BY_NAME[name]) if name in _BY_NAME else st.just("x"))
             for name in header]
            for _ in range(data.draw(st.integers(0, 6), label="rows"))]
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]), label="odd cells") if rows else 0):
        r, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(header) - 1))
        rows[r][c] = data.draw(st.sampled_from(_ODD_SPELLINGS[_BY_NAME.get(header[c], (None,))[0]]))
    lines = [",".join(header)]
    for cells in rows:
        shape = data.draw(st.sampled_from(["plain"] * 12 + ["short", "long", "quoted", "blank"]))
        if shape == "short":
            cells = cells[:data.draw(st.integers(0, len(cells) - 1))]
        elif shape == "long":
            cells = [*cells, "9"]
        elif shape == "quoted":
            i = data.draw(st.integers(0, len(cells) - 1))
            cells = [*cells[:i], f'"{cells[i]}"', *cells[i + 1:]]
        elif shape == "blank":
            lines.append(data.draw(st.sampled_from(["", "  ", "\t"])))
        lines.append(",".join(cells))
    end = data.draw(st.sampled_from(["\n"] * 4 + ["\r\n", "none"]), label="line end")
    text = "\n".join(lines) if end == "none" else end.join(lines) + end
    got, got_warnings = _outcome(parse_trace_text, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_parse_columns", lambda header, body: None)
        want, want_warnings = _outcome(parse_trace_text, text)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, TraceSet) and list(got.columns) == list(want.columns)
    for attr, col in want.columns.items():
        other = got.columns[attr]
        assert other.dtype == col.dtype and other.shape == col.shape
        if col.dtype == object:
            assert all(a is b for a, b in zip(other, col))
        else:
            assert other.tobytes() == col.tobytes()
