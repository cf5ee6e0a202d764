"""SINR, rate adaptation, throughput/delay, and the simulation loop."""

import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracechan.link as link_module
from conftest import blocked_corner_config, mk_record, replay_config
from tracechan import (
    AmcTable,
    LinkBudget,
    MpcRecord,
    PathType,
    PlanarArray,
    SimulationSetup,
    SubbandGrid,
    TraceSet,
    compute_sinr,
    generate_codebook,
    generate_trace,
    metrics_to_csv,
    noise_power,
    parse_trace_text,
    run_simulation,
    select_mcs,
    steering_matrix,
    throughput_delay,
    trace_to_text,
)
from tracechan.arrays import Direction, _wrap_azimuth
from tracechan.beams import BeamCodebook
from tracechan.channel import (_subband_terms, beamformed_power, build_channel_matrices,
                               path_factors)
from tracechan.cli import main
from tracechan.link import METRICS_COLUMNS, SINR_FLOOR_DB, snapshot_rows
from tracechan.scenario import build_rt_scenario, build_setup, load_config

LAM = 299792458.0 / 28e9
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def budget(**kw):
    base = dict(tx_power_w=1.0, bandwidth_hz=100e6, noise_figure_db=5.0)
    base.update(kw)
    return LinkBudget(**base)


def test_noise_power_values():
    b = budget(bandwidth_hz=1.0, noise_figure_db=0.0)
    assert noise_power(b) == pytest.approx(4.0039e-21, rel=1e-4)
    dbm = 10 * math.log10(noise_power(budget()) * 1000)
    assert dbm == pytest.approx(-88.9752, abs=1e-3)
    # 3 dB noise figure doubles the noise
    assert noise_power(budget(noise_figure_db=3.0)) == pytest.approx(
        2 * noise_power(budget(noise_figure_db=0.0)), rel=1e-3
    )


def test_budget_validation():
    with pytest.raises(ValueError):
        budget(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        budget(tx_power_w=-1.0)
    with pytest.raises(ValueError):
        budget(temperature_k=0.0)
    with pytest.raises(ValueError):
        budget(interference_w=-1e-9)


@pytest.mark.parametrize("field", ["tx_power_w", "bandwidth_hz", "noise_figure_db",
                                   "temperature_k", "interference_w"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_budget_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match="link budget values must be finite"):
        budget(**{field: value})


def test_compute_sinr():
    b = budget()
    n = noise_power(b)
    assert compute_sinr(n, b) == pytest.approx(0.0, abs=1e-12)
    assert compute_sinr(100 * n, b) == pytest.approx(20.0, abs=1e-12)
    assert compute_sinr(0.0, b) == SINR_FLOOR_DB
    assert compute_sinr(n * 1e-30, b) == SINR_FLOOR_DB
    with pytest.raises(ValueError):
        compute_sinr(-1.0, b)


@pytest.mark.parametrize("p_rx", [math.nan, math.inf, -math.inf, -1e-300])
def test_compute_sinr_rejects_non_finite_or_negative_power(p_rx):
    with pytest.raises(ValueError, match=r"^p_rx_w must be >= 0 and finite, got "):
        compute_sinr(p_rx, budget())


def test_compute_sinr_with_interference():
    b = budget(interference_w=noise_power(budget()))
    # interference equal to noise halves the ratio: -3.01 dB at p = noise
    assert compute_sinr(noise_power(b), b) == pytest.approx(-3.0103, abs=1e-3)


def test_amc_table_shape():
    table = AmcTable.default()
    assert len(table) == 29
    assert table.thresholds_db[0] == pytest.approx(-4.5346, abs=1e-3)
    assert table.thresholds_db[28] == pytest.approx(25.2695, abs=1e-3)
    assert table.spectral_efficiency[0] == 0.2344
    assert table.spectral_efficiency[28] == 7.4063
    assert all(b > a for a, b in zip(table.thresholds_db, table.thresholds_db[1:]))
    assert all(
        b > a for a, b in zip(table.spectral_efficiency, table.spectral_efficiency[1:])
    )


def test_amc_table_validation():
    with pytest.raises(ValueError):
        AmcTable((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        AmcTable((), ())
    with pytest.raises(ValueError):
        AmcTable((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        AmcTable((0.0, 1.0), (2.0, 1.0))


def test_amc_table_from_file(tmp_path):
    path = tmp_path / "amc.csv"
    path.write_text(
        "mcs,sinr_threshold_db,spectral_efficiency\n"
        "1,5.0,2.0\n"
        "0,-5.0,1.0\n"  # rows may arrive unsorted
        "2,15.0,3.0\n"
    )
    table = AmcTable.from_file(path)
    assert table.thresholds_db == (-5.0, 5.0, 15.0)
    assert table.spectral_efficiency == (1.0, 2.0, 3.0)

    bad = tmp_path / "bad.csv"
    bad.write_text("mcs,threshold\n0,1\n")
    with pytest.raises(ValueError, match="columns"):
        AmcTable.from_file(bad)

    gap = tmp_path / "gap.csv"
    gap.write_text("mcs,sinr_threshold_db,spectral_efficiency\n0,-5,1\n2,5,2\n")
    with pytest.raises(ValueError, match="0..n-1"):
        AmcTable.from_file(gap)

    short = tmp_path / "short.csv"
    short.write_text("mcs,sinr_threshold_db,spectral_efficiency\n0,-5\n")
    with pytest.raises(ValueError):
        AmcTable.from_file(short)

    # nan compares False with <=, so the order checks alone let it through
    for rows in ("0,nan,1\n1,nan,2\n", "0,-5,1\n1,5,nan\n", "0,-5,1\n1,inf,2\n"):
        odd = tmp_path / "odd.csv"
        odd.write_text("mcs,sinr_threshold_db,spectral_efficiency\n" + rows)
        with pytest.raises(ValueError, match="must be finite"):
            AmcTable.from_file(odd)


def test_select_mcs_boundaries():
    table = AmcTable.default()
    t0 = table.thresholds_db[0]
    assert select_mcs(t0 - 1e-9, table) is None
    assert select_mcs(t0, table) == 0
    assert select_mcs(t0 + 1e-9, table) == 0
    assert select_mcs(80.0, table) == 28
    assert select_mcs(table.thresholds_db[28], table) == 28
    assert select_mcs(table.thresholds_db[28] - 1e-9, table) == 27
    assert select_mcs(-200.0, table) is None


@pytest.mark.parametrize("sinr", [math.nan, math.inf, -math.inf, SINR_FLOOR_DB, -0.0, 12.5])
def test_select_mcs_rejects_nan(sinr):
    table = AmcTable.default()
    if math.isnan(sinr):
        with pytest.raises(ValueError, match="^sinr_db must not be NaN$"):
            select_mcs(sinr, table)
        return
    # every other float takes the linear scan's index
    want = max((i for i, thr in enumerate(table.thresholds_db) if sinr >= thr), default=None)
    assert select_mcs(sinr, table) == want


def test_select_mcs_matches_linear_scan():
    table = AmcTable.default()
    for sinr in np.linspace(-10, 30, 401):
        best = None
        for i, thr in enumerate(table.thresholds_db):
            if sinr >= thr:
                best = i
        assert select_mcs(float(sinr), table) == best


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-50, max_value=90, allow_nan=False),
    st.floats(min_value=0, max_value=10, allow_nan=False),
)
def test_select_mcs_monotone(sinr, step):
    table = AmcTable.default()
    lo = select_mcs(sinr, table)
    hi = select_mcs(sinr + step, table)
    assert (-1 if lo is None else lo) <= (-1 if hi is None else hi)


def test_throughput_delay_unsaturated():
    table = AmcTable.default()
    delivered, delay = throughput_delay(28, table, 100e6, 122e6, 0.14)
    assert delivered == 122e6  # capacity 636.9 Mb/s far above offered
    assert delay == 0.5e-3


def test_throughput_delay_mcs0_saturated():
    table = AmcTable.default()
    delivered, delay = throughput_delay(0, table, 100e6, 122e6, 0.14)
    assert delivered == pytest.approx(20.1584e6, rel=1e-6)
    assert delay == pytest.approx(0.5e-3 + 7.5e-3 * (1 - 20.1584e6 / 122e6), rel=1e-6)
    assert delay >= 5e-3


def test_throughput_delay_none_mcs_is_starved():
    delivered, delay = throughput_delay(None, AmcTable.default(), 100e6, 122e6, 0.14)
    assert delivered == 0.0
    assert delay == pytest.approx(8e-3)


def test_throughput_delay_half_load_midpoint():
    # capacity exactly half the offered load: delay lands mid-ramp
    table = AmcTable((0.0,), (1.0,))
    cap = 1.0 * 100e6 * (1 - 0.14)
    delivered, delay = throughput_delay(0, table, 100e6, 2 * cap, 0.14)
    assert delivered == pytest.approx(cap)
    assert delay == pytest.approx(0.5e-3 + 7.5e-3 * 0.5)  # 4.25 ms


def test_throughput_delay_zero_offered():
    delivered, delay = throughput_delay(5, AmcTable.default(), 100e6, 0.0, 0.14)
    assert (delivered, delay) == (0.0, 0.5e-3)


def test_throughput_delay_validation():
    table = AmcTable.default()
    with pytest.raises(ValueError):
        throughput_delay(0, table, 100e6, 122e6, 1.0)
    with pytest.raises(ValueError):
        throughput_delay(0, table, 100e6, -1.0, 0.14)
    with pytest.raises(ValueError):
        throughput_delay(29, table, 100e6, 122e6, 0.14)


def _free_space_setup(n_snapshots=5, dt=0.1, training_period=0.1, tx_power=1.0):
    grid = SubbandGrid(28e9, 100e6, 4)
    tx_arr = PlanarArray(4, 4, LAM)
    rx_arr = PlanarArray(2, 2, LAM)
    return SimulationSetup(
        tx_array=tx_arr,
        rx_array=rx_arr,
        grid=grid,
        budget=budget(tx_power_w=tx_power),
        amc=AmcTable.default(),
        tx_codebook=generate_codebook(tx_arr, 0.0, 90.0, 1.0, 90.0, 90.0, 1.0),
        rx_codebook=generate_codebook(rx_arr, -180.0, 170.0, 10.0, 90.0, 90.0, 1.0),
        training_period_s=training_period,
        offered_bps=122e6,
        overhead=0.14,
        times=tuple(dt * k for k in range(n_snapshots)),
    )


def _los_trace(times, aod_az=30.0, gain=1e-5):
    recs = tuple(
        mk_record(t=t, gain_mag=gain, aod_az=aod_az, aod_zen=90.0,
                  aoa_az=0.0, aoa_zen=90.0)
        for t in times
    )
    return TraceSet(recs)


def test_run_simulation_matched_sinr():
    # path angles sit exactly on the codebook grid: full array gain applies
    setup = _free_space_setup()
    g = 1e-5
    trace = _los_trace([0.1 * k for k in range(5)], gain=g)
    metrics = run_simulation(trace, setup)
    assert len(metrics) == 5
    expected_p = g * g * 16 * 4
    expected_sinr = 10 * math.log10(expected_p / noise_power(setup.budget))
    for m in metrics:
        assert m.los is True
        assert m.sinr_db == pytest.approx(expected_sinr, abs=1e-9)
        assert m.selection.tx_direction.azimuth_deg == 30.0
        assert m.mcs == 28
        assert m.delivered_bps == 122e6
        assert m.offered_bps == 122e6


def test_run_simulation_training_schedule_holds_beams():
    # beam retrains every 0.2 s on a 0.1 s snapshot grid; the held beam is
    # stale on the openings between trainings
    setup = _free_space_setup(n_snapshots=6, training_period=0.2)
    times = [0.1 * k for k in range(6)]
    # the path azimuth moves 5 degrees per snapshot
    recs = tuple(
        mk_record(t=t, gain_mag=1e-5, aod_az=5.0 * k, aod_zen=90.0,
                  aoa_az=0.0, aoa_zen=90.0)
        for k, t in enumerate(times)
    )
    metrics = run_simulation(TraceSet(recs), setup)
    selected = [m.selection.tx_direction.azimuth_deg for m in metrics]
    assert selected == [0.0, 0.0, 10.0, 10.0, 20.0, 20.0]


def test_run_simulation_first_snapshot_always_trains():
    setup = replace(_free_space_setup(training_period=100.0), times=(5.0, 5.1, 5.2))
    trace = _los_trace([5.0, 5.1, 5.2], aod_az=42.0)
    metrics = run_simulation(trace, setup)
    assert all(m.selection.tx_direction.azimuth_deg == 42.0 for m in metrics)


def test_run_simulation_rejects_missing_link():
    setup = _free_space_setup()
    trace = _los_trace([0.0])
    other = SimulationSetup(**{**setup.__dict__, "tx_id": 5, "rx_id": 6})
    with pytest.raises(ValueError, match="no snapshots"):
        run_simulation(trace, other)


def test_run_simulation_reports_every_grid_time():
    # the trace misses the grid times 0.1 and 0.3; one trace time sits 1e-12 s
    # off its grid time and keeps its own value
    gridded = replace(_free_space_setup(), times=(0.0, 0.1, 0.2, 0.3, 0.4))
    trace = _los_trace([0.0, 0.2 + 1e-12, 0.4], aod_az=30.0)
    metrics = run_simulation(trace, gridded)
    assert [m.t for m in metrics] == [0.0, 0.1, 0.2 + 1e-12, 0.3, 0.4]
    outage = [m.mcs is None for m in metrics]
    assert outage == [False, True, False, True, False]
    for m in metrics:
        if m.mcs is None:
            assert (m.sinr_db, m.los, m.delivered_bps) == (SINR_FLOOR_DB, False, 0.0)
    # a trace snapshot off the grid is an error, not a skipped row
    with pytest.raises(ValueError, match=r"t=0\.25 is not on the configured time grid"):
        run_simulation(_los_trace([0.0, 0.25]), gridded)


def _row_sizes(trace, setup):
    """snapshot_rows' rows as (time, path count) pairs."""
    times, offsets = snapshot_rows(trace, setup)
    return list(zip(times, np.diff(offsets).tolist()))


def test_snapshot_rows_schedule():
    setup = _free_space_setup()
    trace = _los_trace([0.1, 0.2 + 1e-12], aod_az=30.0)
    rows = _row_sizes(trace, replace(setup, times=(0.0, 0.1, 0.2)))
    assert rows == [(0.0, 0), (0.1, 1), (0.2 + 1e-12, 1)]
    # one row per grid time: the setup's 0.0 .. 0.4 grid
    assert _row_sizes(trace, setup) == [
        (0.0, 0), (0.1, 1), (0.2 + 1e-12, 1), (0.30000000000000004, 0), (0.4, 0)]
    with pytest.raises(ValueError, match=r"\(dt=0\.5 s from t=0\.0\)"):
        snapshot_rows(trace, replace(setup, times=(0.0, 0.5)))
    # the message reports the configured grid, not trace times already snapped onto it
    with pytest.raises(ValueError, match=r"^snapshot t=0\.25 .*\(dt=0\.1 s from t=0\.0\)"):
        snapshot_rows(_los_trace([4e-10, 0.1 + 8e-10, 0.25]),
                      replace(setup, times=(0.0, 0.1, 0.2, 0.3)))
    with pytest.raises(ValueError, match=r"one sample at t=0\.1"):
        snapshot_rows(_los_trace([0.0]), replace(setup, times=(0.1,)))
    # a time past the grid's end names duration_s, even when it is on the dt grid
    for times in ((0.1,), (0.0, 0.1)):
        with pytest.raises(ValueError, match=r"^snapshot t=0\.20000000000100002 is past the "
                           r"configured time grid's end t=0\.1; duration_s must cover the trace$"):
            snapshot_rows(trace, replace(setup, times=times))
    # an empty trace is all outages; records of another link only are an error
    assert _row_sizes(TraceSet(()), setup) == [(t, 0) for t in setup.times]
    with pytest.raises(ValueError, match=r"trace has no snapshots for link \(0, 1\)"):
        snapshot_rows(TraceSet([mk_record(t=0.0, tx_id=1, rx_id=0)]), setup)
    with pytest.raises(ValueError, match=r"t=0\.1 and t=0\.1000000005 share one grid time"):
        snapshot_rows(_los_trace([0.1, 0.1 + 5e-10]), replace(setup, times=(0.0, 0.1)))
    # a grid must have a time to snap to, and be finite and strictly increasing
    for bad in ((), (0.0, math.nan), (0.0, math.inf), (0.1, 0.1), (0.2, 0.1)):
        with pytest.raises(ValueError, match="^times must be a non-empty, finite, strictly"):
            replace(setup, times=bad)


def _reference_rows(trace, setup):
    """The (time, paths) rows of the configured link, one TraceSet per row.

    A per-snapshot loop that checks each of the link's trace times in turn:
    snapshot_rows must give the same rows, and raise the same first error.
    """
    link = (setup.tx_id, setup.rx_id)
    indexed, bounds, times, links = trace._index
    first, stop = links.get(link, (0, 0))
    if len(trace) and first == stop:
        raise ValueError(f"trace has no snapshots for link {link}")
    grid = np.asarray(setup.times, dtype=float)
    no_paths = TraceSet()
    rows = [(float(t), no_paths) for t in grid]
    trace_times = times[first:stop]
    for i, t, lo, hi in zip(link_module._nearest_slots(grid, trace_times).tolist(),
                            trace_times.tolist(), bounds[first:stop], bounds[first + 1:stop + 1]):
        if abs(rows[i][0] - t) > link_module.GRID_TOL_S:
            t0, end = float(grid[0]), float(grid[-1])  # rows may hold snapped trace times
            if t > end:
                raise ValueError(f"snapshot t={t!r} is past the configured time grid's end "
                                 f"t={end!r}; duration_s must cover the trace")
            span = (f"dt={float(grid[1]) - t0!r} s from t={t0!r}"
                    if len(rows) > 1 else f"one sample at t={t0!r}")
            raise ValueError(f"snapshot t={t!r} is not on the configured time grid ({span}); "
                             "snapshot_dt_s must match the trace")
        if rows[i][1]:
            raise ValueError(f"snapshots t={rows[i][0]!r} and t={t!r} share one grid time")
        rows[i] = (t, indexed[lo:hi])
    return rows


# offsets from a grid time: on it, within GRID_TOL_S of it (two of them 1e-9
# or 1.8e-9 apart, so a second snapshot is checked against the first), just
# past the tolerance, and midway to the next grid time
_NEAR = (0.0, -0.0, 5e-10, -5e-10, 9e-10, -9e-10, 2e-9, 0.05)


@settings(max_examples=300, deadline=None)
@given(
    n_grid=st.integers(1, 6),
    picks=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_NEAR)), max_size=6),
    other=st.booleans(),
)
@example(n_grid=3, picks=[(1, 9e-10), (1, -9e-10)], other=False)
@example(n_grid=3, picks=[(1, 5e-10), (1, -5e-10)], other=False)
@example(n_grid=2, picks=[(0, 0.0), (3, 0.0), (1, 0.05)], other=True)
def test_snapshot_rows_match_the_per_snapshot_loop(n_grid, picks, other):
    # the same row times (signs included) and paths, or the same first error
    setup = replace(_free_space_setup(), times=tuple(0.1 * k for k in range(n_grid)))
    recs = [mk_record(t=0.1 * k + dt if k else dt, path_id=j) for j, (k, dt) in enumerate(picks)]
    trace = TraceSet(recs + [mk_record(t=0.33, tx_id=1, rx_id=0)] * other)
    try:
        want = _reference_rows(trace, setup)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            snapshot_rows(trace, setup)
        assert str(got.value) == str(exc)
        return
    times, offsets = snapshot_rows(trace, setup)
    link = trace.link(0, 1)
    assert list(map(repr, times)) == [repr(t) for t, _ in want]
    assert [link[lo:hi] for lo, hi in zip(offsets, offsets[1:])] == [p for _, p in want]


@settings(max_examples=150, deadline=None)
@given(
    slots=st.lists(st.lists(st.sampled_from(list(PathType)), max_size=3), min_size=1, max_size=8),
    tail=st.integers(0, 2),
    jitter=st.sampled_from([0.0, -0.0, 4e-10, -4e-10]),
    others=st.lists(st.tuples(st.sampled_from([(1, 0), (0, 2), (2, 1)]), st.integers(0, 20)),
                    max_size=6),
    shuffle=st.randoms(use_true_random=False),
)
# a snapshot at the grid's last time; the LOS record first, alone, after a
# diffraction record, missing, and an outage row
@example(slots=[[PathType.LOS], [PathType.REFLECTION], [], [PathType.DIFFRACTION, PathType.LOS]],
         tail=0, jitter=0.0, others=[], shuffle=random.Random(0))
@example(slots=[[PathType.REFLECTION, PathType.LOS, PathType.LOS]], tail=2, jitter=-0.0,
         others=[((1, 0), 3), ((0, 2), 0)], shuffle=random.Random(1))
def test_snapshot_rows_slice_the_link(slots, tail, jitter, others, shuffle):
    # slots[k] lists the path types of the configured link's snapshot at grid
    # time k, [] for none; the grid runs tail times past the last slot. Each
    # row's offsets slice trace.link to the rows a column mask finds for its
    # (time, link), the rows tile the link, and run_simulation flags a row LOS
    # exactly when it holds a LOS record
    setup = replace(_free_space_setup(), times=tuple(0.1 * k for k in range(len(slots) + tail)))
    recs = [mk_record(t=setup.times[k] + jitter if k else jitter, path_id=p, path_type=kind,
                      gain_mag=1e-5)
            for k, kinds in enumerate(slots) for p, kind in enumerate(kinds)]
    # other links' records may lie anywhere: only the configured link is scheduled
    recs += [mk_record(t=0.05 * k, tx_id=tx, rx_id=rx) for (tx, rx), k in others]
    shuffle.shuffle(recs)
    trace = TraceSet(recs)
    if others and not any(slots):
        with pytest.raises(ValueError, match=r"trace has no snapshots for link \(0, 1\)"):
            snapshot_rows(trace, setup)
        return
    times, offsets = snapshot_rows(trace, setup)
    link = trace.link(0, 1)
    assert offsets.tolist() == sorted(offsets.tolist())
    assert (len(times), offsets[0], offsets[-1]) == (len(setup.times), 0, len(link))
    kinds = slots + [[]] * tail
    c = trace.columns
    on_link = (c["tx_id"] == 0) & (c["rx_id"] == 1)
    for i, t in enumerate(times):
        snapped = setup.times[i] + jitter if i else jitter
        assert repr(t) == repr(snapped if kinds[i] else setup.times[i])
        mask = on_link & (c["t"] == t)
        want = tuple(r for r, keep in zip(trace.records, mask.tolist()) if keep)
        assert link[offsets[i]:offsets[i + 1]].records == want
        assert len(want) == len(kinds[i])
    metrics = run_simulation(trace, setup)
    assert [m.los for m in metrics] == [PathType.LOS in k for k in kinds]


_TIMES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    grid=st.one_of(
        st.builds(lambda t0, dt, n: t0 + dt * np.arange(n),
                  _TIMES, st.floats(1e-12, 10.0), st.integers(1, 40)),
        st.lists(_TIMES, min_size=1, max_size=12, unique=True).map(sorted).map(np.array),
    ),
    picks=st.lists(st.tuples(st.integers(0, 60), st.sampled_from(["on", "mid", "near"]),
                             _TIMES), max_size=20),
)
# grid times far apart relative to the time tie after rounding (1 - 0 and
# 1 - 1e-20 are both 1.0): argmin takes the first of them
@example(grid=np.array([0.0, 1e-20, 2e-20]), picks=[(0, "near", 1.0)])
@example(grid=np.array([-1.0, 0.0, 1.0]), picks=[(0, "mid", 0.0), (1, "mid", 0.0)])
def test_nearest_slots_match_argmin(grid, picks):
    # every trace time's slot is the one np.argmin(np.abs(grid - t)) finds,
    # grid times, midpoints between neighbours and times beyond the ends included
    grid = np.unique(grid)
    times = []
    for i, kind, t in picks:
        i %= len(grid)
        if kind == "on":
            times.append(grid[i])
        elif kind == "mid" and i + 1 < len(grid):
            times.append(grid[i] + (grid[i + 1] - grid[i]) / 2)
        else:
            times.append(t)
    times = np.array(times, dtype=float)
    want = [int(np.argmin(np.abs(grid - t))) for t in times]
    assert link_module._nearest_slots(grid, times).tolist() == want


def test_run_simulation_grid_without_paths_is_all_outage():
    # a fully blocked scene writes no records; with a grid it is reported
    setup = _free_space_setup()
    metrics = run_simulation(TraceSet(()), replace(setup, times=(0.0, 0.1)))
    assert [(m.t, m.mcs, m.sinr_db) for m in metrics] == [
        (0.0, None, SINR_FLOOR_DB), (0.1, None, SINR_FLOOR_DB)
    ]


def test_simulate_reports_outage_snapshots(tmp_path, capsys):
    cfg = blocked_corner_config(tmp_path / "blocked.cfg")
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.25 * k for k in range(121)]
    outages = [r for r in rows if float(r[6]) == SINR_FLOOR_DB]
    assert len(outages) == 93
    assert all(r[1] == "0" and r[7] == "0" and float(r[9]) == 0.0 for r in outages)
    # the printed summary covers all 121 rows
    n_los = sum(r[1] == "1" for r in rows)
    mean_sinr = sum(float(r[6]) for r in rows) / 121
    assert f"wrote {out}: 121 snapshots" in stdout
    assert "outage snapshots: 93 (" in stdout
    assert f"mean SINR: {mean_sinr:.2f} dB" in stdout
    assert f"LoS fraction: {n_los / 121:.3f}" in stdout
    assert n_los == 28


def test_blocked_walk_replay_matches_its_geometry_run(tmp_path, capsys):
    # the trace has no record for the 93 blocked snapshots; replayed through a
    # trace_path config they are outage rows on the configured grid, as in the
    # geometry run
    geometry = blocked_corner_config(tmp_path / "blocked.cfg")
    trace = tmp_path / "trace.csv"
    assert main(["generate-trace", "--config", str(geometry), "--out", str(trace)]) == 0
    replay = replay_config(tmp_path / "replay.cfg", geometry, trace)
    summaries = []
    for cfg in (geometry, replay):
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(cfg) + ".csv"]) == 0
        summaries.append(capsys.readouterr().out.split("\n", 1)[1])  # after "wrote <path>"
    text = Path(str(replay) + ".csv").read_bytes()
    assert text == Path(str(geometry) + ".csv").read_bytes()
    assert len(text.splitlines()) == 1 + 121
    assert summaries[0] == summaries[1] and "outage snapshots: 93 (" in summaries[1]


def _run_and_trainings(trace, setup):
    """run_simulation's rows, and the times of the rows that trained."""
    swept = []
    sweep = link_module.ideal_beam_sweeps

    def spying(channels, *args):
        swept.extend(ch.time for ch in channels)
        return sweep(channels, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(link_module, "ideal_beam_sweeps", spying)
        return run_simulation(trace, setup), swept


_PERIODS = (0.25, 1.0, 2.5, math.inf)  # training every 1, 4 and 10 rows, and once


@pytest.fixture(scope="module")
def corner_walk(tmp_path_factory):
    """corner.cfg's traced walk, its replay config's setup, and for each
    training period the geometry run and the times of its training rows."""
    work = tmp_path_factory.mktemp("corner")
    geometry = CONFIG_DIR / "corner.cfg"
    cfg = load_config(geometry)
    replay = load_config(replay_config(work / "replay.cfg", geometry, work / "trace.csv"))
    trace, setup = generate_trace(build_rt_scenario(cfg)), build_setup(cfg)
    runs = {p: _run_and_trainings(trace, replace(setup, training_period_s=p)) for p in _PERIODS}
    return trace, build_setup(replay), runs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gone=st.sets(st.integers(0, 120)), period=st.sampled_from(_PERIODS))
@example(gone=set(range(121)), period=0.25)  # an empty trace
@example(gone={1, 2, 5}, period=1.0)  # held rows only: the schedule stays
def test_replay_with_missing_snapshots_keeps_the_grid(corner_walk, gone, period):
    # a measured trace may miss snapshots: each missing one is an outage row
    # of the replay, and until the first one that was due to train, every
    # other row is the geometry run's
    trace, replay_setup, runs = corner_walk
    want, trained = runs[period]
    times = tuple(m.t for m in want)
    missing = {times[i] for i in gone}
    got = run_simulation(TraceSet([r for r in trace if r.t not in missing]),
                         replace(replay_setup, training_period_s=period))
    assert tuple(m.t for m in got) == replay_setup.times == times
    first = min((i for i in gone if times[i] in trained), default=len(times))
    want_rows = metrics_to_csv(want).splitlines()
    got_rows = metrics_to_csv(got).splitlines()
    for i, m in enumerate(got):
        if i in gone:
            assert (m.los, m.sinr_db, m.mcs, m.delivered_bps) == (False, SINR_FLOOR_DB, None, 0.0)
        elif i < first:
            assert got_rows[1 + i] == want_rows[1 + i], f"t={m.t}"


def test_library_path_matches_simulate(tmp_path, capsys):
    # build_setup carries the configured grid, so the library alone reports
    # the 93 outage rows of the blocked walk, as simulate does
    cfg_path = blocked_corner_config(tmp_path / "blocked.cfg")
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = load_config(cfg_path)
    setup = build_setup(cfg)
    assert setup.times == tuple(build_rt_scenario(cfg).times.tolist())
    text = metrics_to_csv(run_simulation(generate_trace(build_rt_scenario(cfg)), setup))
    assert len(text.splitlines()) == 1 + 121
    assert text.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("name", ["corner", "etoile", "etoile_wide"])
def test_tracer_and_setup_share_one_grid(name):
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    assert tuple(build_rt_scenario(cfg).times.tolist()) == build_setup(cfg).times


def test_training_after_outage_stays_due(tmp_path, capsys):
    # training every 2 s on the blocked walk: a sweep over an outage finds no
    # paths, so the first line-of-sight row at 23.25 s trains instead of
    # holding the all-zero table's beam pair until 24.0 s
    cfg = blocked_corner_config(tmp_path / "blocked.cfg", training_period_s=2.0)
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = {float(r[0]): r for r in (ln.split(",") for ln in out.read_text().splitlines()[1:])}
    for t, sinr in ((23.25, 36.978), (23.5, 36.519), (23.75, 35.825)):
        assert [float(x) for x in rows[t][2:6]] == [10.0, 100.0, -170.0, 80.0]
        assert float(rows[t][6]) == pytest.approx(sinr, abs=1e-3)
        assert rows[t][7] == "28"


@pytest.mark.parametrize("steps", [1, 2])
def test_run_simulation_builds_each_channel_once(monkeypatch, steps):
    # training every `steps` grid steps on a 0.1 s grid: every snapshot trains
    # (1), or trained and held snapshots alternate (2). Only a training row
    # has a channel, swept once; every row's power is computed once, in its
    # block's one _row_powers call, whether a block holds one row or all
    built, evaluated = [], []
    sweep, row_powers = link_module.ideal_beam_sweeps, link_module._row_powers

    def counting(channels, *args):
        built.extend(ch.time for ch in channels)
        return sweep(channels, *args)

    def evaluating(factors, terms, counts, sels, setup):
        evaluated.append((len(factors), len(terms), counts.tolist()))
        return row_powers(factors, terms, counts, sels, setup)

    monkeypatch.setattr(link_module, "ideal_beam_sweeps", counting)
    monkeypatch.setattr(link_module, "_row_powers", evaluating)
    times = [0.1 * k for k in range(7)]
    setup = _free_space_setup(n_snapshots=7, training_period=0.1 * steps)
    for factor_bytes, blocks in ((1, 7), (1 << 20, 1)):  # one-row blocks, one block
        built.clear()
        evaluated.clear()
        monkeypatch.setattr(link_module, "_FACTOR_BYTES", factor_bytes)
        assert len(run_simulation(_los_trace(times), setup)) == 7
        assert built == times[::steps]
        assert [c for _, _, counts in evaluated for c in counts] == [1] * 7
        assert [n for n, _, _ in evaluated] == [sum(counts) for _, _, counts in evaluated]
        assert [n for _, n, _ in evaluated] == [sum(counts) for _, _, counts in evaluated]
        assert len(evaluated) == blocks



def _per_snapshot_factors(records, tx_array, rx_array, grid, t):
    """coef, a_rx, a_tx as built one snapshot at a time: coef by a standalone
    build_channel_matrices, the steering matrices from a (7, P) field array."""
    fields = np.array(
        [(r.gain_mag, r.phase, r.delay, r.aod_az, r.aoa_az, r.aod_zen, r.aoa_zen) for r in records],
        dtype=float,
    ).reshape(-1, 7).T.copy()
    aod_az, aoa_az = _wrap_azimuth(fields[3:5])
    a_tx = steering_matrix(tx_array, aod_az, fields[5])
    a_rx = steering_matrix(rx_array, aoa_az, fields[6])
    return build_channel_matrices(records, tx_array, rx_array, grid, t).coef, a_rx, a_tx


_azimuths = st.floats(-180.0, 180.0, exclude_max=True) | st.sampled_from([0.1, -0.3, 179.99, -180.0])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_link_wide_factors_match_per_snapshot_builds(data):
    # run_simulation cuts every training row's channel out of its link's
    # factors and subband terms, computed in blocks of whole rows: each has
    # the bytes and strides of a channel built from that snapshot alone,
    # outage rows (no paths) and 1-path rows included, whether a block holds
    # one row, some or all
    counts = data.draw(st.lists(st.sampled_from([0, 1, 1, 2, 5]), min_size=1, max_size=7),
                       label="paths per snapshot")
    blocks = []
    for k, n in enumerate(counts):
        blocks.append([
            mk_record(t=0.1 * k, path_id=p,
                      path_type=data.draw(st.sampled_from(list(PathType))),
                      delay=data.draw(st.floats(0.0, 1e-6)), gain_mag=data.draw(st.floats(0.0, 1e-3)),
                      phase=data.draw(st.floats(-math.pi, math.pi)),
                      aod_az=data.draw(_azimuths), aod_zen=data.draw(st.floats(0.0, 180.0)),
                      aoa_az=data.draw(_azimuths), aoa_zen=data.draw(st.floats(0.0, 180.0)))
            for p in range(n)
        ])
    blocks.append([mk_record(t=0.0, tx_id=1, rx_id=0)])  # another link's record
    order = data.draw(st.permutations(range(len(blocks))), label="file order")
    trace = TraceSet([r for i in order for r in blocks[i]])
    shapes = [data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5))) for _ in range(2)]
    tx_arr, rx_arr = (PlanarArray(r, c, LAM, bearing_deg=data.draw(st.floats(-180.0, 180.0)))
                      for r, c in shapes)
    # every row trains (0.1 s) or trained and held rows alternate (0.2 s)
    period = data.draw(st.sampled_from([0.1, 0.2]), label="training period")
    setup = replace(
        _free_space_setup(training_period=period), tx_array=tx_arr, rx_array=rx_arr,
        grid=SubbandGrid(28e9, 100e6, data.draw(st.integers(1, 5), label="subbands")),
        tx_codebook=generate_codebook(tx_arr, -60.0, 60.0, 30.0, 60.0, 120.0, 30.0),
        rx_codebook=generate_codebook(rx_arr, -180.0, 90.0, 90.0, 90.0, 90.0, 1.0),
        times=tuple(0.1 * k for k in range(len(counts))),
    )
    built = []
    sweep = link_module.ideal_beam_sweeps

    def spying(channels, *args):
        built.extend(channels)
        return sweep(channels, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(link_module, "ideal_beam_sweeps", spying)
        mp.setattr(link_module, "_FACTOR_BYTES",
                   data.draw(st.sampled_from([1, 2000, 1 << 20]), label="factor block bytes"))
        if not any(counts):  # only the other link has records
            with pytest.raises(ValueError, match=r"trace has no snapshots for link \(0, 1\)"):
                run_simulation(trace, setup)
            return
        run_simulation(trace, setup)
    times, offsets = snapshot_rows(trace, setup)
    link = trace.link(0, 1)
    rows = [(t, link[offsets[i]:offsets[i + 1]]) for i, t in enumerate(times)]
    assert [len(paths) for _, paths in rows] == counts
    # only the training rows have a channel, each swept once
    by_time = {ch.time: ch for ch in built}
    assert len(by_time) == len(built)
    if period == 0.1:
        assert [ch.time for ch in built] == [t for t, _ in rows]
    for t, paths in rows:
        if t not in by_time:
            continue
        ch = by_time[t]
        want = _per_snapshot_factors(paths.records, tx_arr, rx_arr, setup.grid, t)
        for got, ref in zip((ch.coef, ch.a_rx, ch.a_tx), want):
            assert (got.shape, got.strides, got.dtype) == (ref.shape, ref.strides, ref.dtype)
            assert got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.sampled_from([0, 0, 1, 1, 2, 3]), min_size=1, max_size=9),
    period=st.sampled_from([0.1, 0.2, 0.35, math.inf]),
    factor_bytes=st.sampled_from([1, 700, 1 << 20]),
    seed=st.integers(0, 2**32 - 1),
)
# a training row that is an outage (row 3), and held pairs in one-row blocks
@example(counts=[0, 1, 1, 0, 2, 1, 3], period=0.2, factor_bytes=1, seed=0)
# a held pair whose block starts mid-way between two trainings
@example(counts=[2, 1, 3, 1, 1, 2, 1], period=0.35, factor_bytes=700, seed=1)
def test_row_power_does_not_depend_on_its_block(counts, period, factor_bytes, seed):
    # each row's power is bit-equal to its row evaluated alone, from its own
    # subband terms, whichever rows share its block, and matches
    # beamformed_power on the row's own channel
    rng = np.random.default_rng(seed)
    recs = [mk_record(t=0.1 * k, path_id=p, delay=rng.uniform(0.0, 1e-6),
                      gain_mag=rng.uniform(0.0, 1e-3), phase=rng.uniform(-math.pi, math.pi),
                      aod_az=rng.uniform(-180.0, 180.0), aod_zen=rng.uniform(0.0, 180.0),
                      aoa_az=rng.uniform(-180.0, 180.0), aoa_zen=rng.uniform(0.0, 180.0))
            for k, n in enumerate(counts) for p in range(n)]
    tx_arr, rx_arr = PlanarArray(3, 4, LAM, bearing_deg=20.0), PlanarArray(2, 3, LAM)
    setup = replace(
        _free_space_setup(training_period=period), tx_array=tx_arr, rx_array=rx_arr,
        grid=SubbandGrid(28e9, 100e6, 5),
        tx_codebook=generate_codebook(tx_arr, -60.0, 60.0, 30.0, 60.0, 120.0, 30.0),
        rx_codebook=generate_codebook(rx_arr, -180.0, 90.0, 90.0, 90.0, 90.0, 1.0),
        times=tuple(0.1 * k for k in range(len(counts))),
    )
    trace = TraceSet(recs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(link_module, "_FACTOR_BYTES", factor_bytes)
        metrics = run_simulation(trace, setup)
    times, offsets = snapshot_rows(trace, setup)
    link = trace.link(0, 1)
    for i, m in enumerate(metrics):
        paths, sel = link[offsets[i]:offsets[i + 1]], m.selection
        own = path_factors(paths, tx_arr, rx_arr)
        alone = link_module._row_powers(own, _subband_terms(own.phasor, own.delay, setup.grid),
                                        np.array([len(paths)]), [sel], setup)
        assert alone[0].hex() == sel.power_w.hex(), f"row {i}"
        _, want = beamformed_power(
            build_channel_matrices(paths, tx_arr, rx_arr, setup.grid, times[i]),
            setup.tx_codebook.weights[sel.tx_index],
            setup.rx_codebook.weights[sel.rx_index], setup.budget.tx_power_w)
        assert sel.power_w == pytest.approx(want, rel=1e-12, abs=0.0), f"row {i}"
        assert m.sinr_db == compute_sinr(sel.power_w, setup.budget)


def _dft_codebook(scale3):
    """Four beams over a 1 x 4 array, beam b's column factors i^(b c) and its row
    factor 1 (scale3 for beam 3): exact, so each norm is exact too."""
    quarter = (1, 1j, -1, -1j)
    cols = np.array([[quarter[b * c % 4] for c in range(4)] for b in range(4)], dtype=complex)
    rows = np.array([[1.0], [1.0], [1.0], [scale3]], dtype=complex)
    directions = tuple(Direction(az, 90.0) for az in (0.0, 30.0, 90.0, -30.0))
    return BeamCodebook(directions, rows, cols)


def test_off_norm_beam_raises_on_the_row_that_first_uses_it():
    # a path at azimuth 0, 30 and -30 degrees is beam 0's, 1's and 3's
    # direction; beam 3's weights have norm 1.5, so row 2, whose sweep picks
    # it, raises after rows 0 and 1 pass, with the per-row check's message
    tx_arr, rx_arr = PlanarArray(1, 4, LAM), PlanarArray(1, 1, LAM)
    setup = replace(
        _free_space_setup(n_snapshots=4, training_period=0.1), tx_array=tx_arr,
        rx_array=rx_arr, tx_codebook=_dft_codebook(1.5),
        rx_codebook=BeamCodebook((Direction(0.0, 90.0),), np.ones((1, 1), complex),
                                 np.ones((1, 1), complex)),
    )
    trace = TraceSet([mk_record(t=0.1 * k, gain_mag=1e-5, aod_az=az, aod_zen=90.0, aoa_zen=90.0)
                      for k, az in enumerate((0.0, 30.0, -30.0, 0.0))])
    with pytest.raises(ValueError) as exc:
        run_simulation(trace, setup)
    assert str(exc.value) == "w_tx must have unit norm, got 1.5"
    # with every beam at unit norm the same rows pick beams 0, 1, 3 and 0
    picked = run_simulation(trace, replace(setup, tx_codebook=_dft_codebook(1.0)))
    assert [m.selection.tx_index for m in picked] == [0, 1, 3, 0]


def test_held_row_overflow_raises_after_its_blocks_sweep():
    # row 0 trains, row 1 holds its pair and overflows, row 2 would be fine:
    # the error names row 1 once the block's one sweep has run
    setup = _free_space_setup(n_snapshots=3, training_period=1.0)
    trace = TraceSet([mk_record(t=0.1 * k, gain_mag=g, aod_az=30.0, aod_zen=90.0, aoa_az=0.0,
                                aoa_zen=90.0) for k, g in enumerate((1e-5, 1e200, 1e-5))])
    with pytest.raises(ValueError) as exc:
        _run_and_trainings(trace, setup)
    assert str(exc.value) == "received power at t=0.1 overflows to inf"


def test_run_simulation_on_a_parsed_trace_makes_no_mpc_record(monkeypatch):
    # 64 paths per snapshot go from the CSV columns to the channels as arrays
    rng = np.random.default_rng(5)
    recs = [
        mk_record(t=0.1 * k, path_id=p,
                  path_type=PathType.LOS if p == 0 else PathType.REFLECTION,
                  gain_mag=1e-5 if p == 0 else float(rng.uniform(0, 1e-6)),
                  delay=float(rng.uniform(0, 1e-6)), phase=float(rng.uniform(-math.pi, math.pi)),
                  aod_az=float(rng.uniform(-180, 180)), aod_zen=float(rng.uniform(0, 180)),
                  aoa_az=float(rng.uniform(-180, 180)), aoa_zen=float(rng.uniform(0, 180)))
        for k in range(4) for p in range(64)
    ]
    text = trace_to_text(TraceSet(recs))
    setup = replace(_free_space_setup(), times=(0.0, 0.1, 0.2, 0.3, 0.4))
    want = metrics_to_csv(run_simulation(TraceSet(recs), setup))

    def refuse(self, *args, **kwargs):
        raise AssertionError("an MpcRecord was built")

    monkeypatch.setattr(MpcRecord, "__init__", refuse)
    assert metrics_to_csv(run_simulation(parse_trace_text(text), setup)) == want


SCHEDULE_DT = 0.1


@settings(max_examples=200, deadline=None)
@given(
    outage=st.lists(st.booleans(), min_size=1, max_size=30),
    period=st.one_of(
        st.just(math.inf),
        st.integers(1, 12).map(lambda m: m * SCHEDULE_DT),  # exact multiples of dt
        st.floats(1e-3, 2.0),
    ),
)
# 0.6000000000000001 + 0.30000000000000004 > 0.9 and 0.1 + 1.2000000000000002 > 1.3:
# rows 9 and 13 train only through GRID_TOL_S
@example(outage=[False] * 10, period=3 * SCHEDULE_DT)
@example(outage=[True] + [False] * 13, period=12 * SCHEDULE_DT)
def test_training_schedule_follows_the_rule(outage, period):
    # grid times k * dt; the masked ones get no trace record and are outages
    times = [SCHEDULE_DT * k for k in range(len(outage))]
    trace = _los_trace([t for t, out in zip(times, outage) if not out])
    setup = replace(_free_space_setup(training_period=period), times=tuple(times))
    # the rule, written out: the first row trains; after that, the first row
    # with t >= last + period - GRID_TOL_S, where last is the latest training
    # row that had records; an outage training row leaves training due
    expected, last = [], None
    for t, out in zip(times, outage):
        if last is None or t >= last + period - link_module.GRID_TOL_S:
            expected.append(t)
            if not out:
                last = t
    metrics, swept = _run_and_trainings(trace, setup)
    assert [m.t for m in metrics] == times
    # the training rows, outages included, are swept once each, in row order
    assert swept == expected


def test_metrics_csv_format():
    setup = _free_space_setup(tx_power=1e-14)  # starved link: mcs is None
    trace = _los_trace([0.0])
    metrics = run_simulation(trace, setup)
    assert metrics[0].mcs is None
    text = metrics_to_csv(metrics)
    lines = text.splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "0.0"
    assert fields[1] == "1"  # los flag as 1/0
    assert fields[7] == "0"  # NONE reported as the lowest index
    assert fields[10] == "0.008"
    assert float(fields[9]) == 0.0


def test_metrics_csv_round_trip_floats():
    setup = _free_space_setup(n_snapshots=4)
    trace = _los_trace([0.30000000000000004])
    text = metrics_to_csv(run_simulation(trace, setup))
    t_field = text.splitlines()[-1].split(",")[0]
    assert float(t_field) == 0.30000000000000004
