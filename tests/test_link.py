"""SINR, rate adaptation, throughput/delay, and the simulation loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracechan.link as link_module
from conftest import blocked_corner_config, mk_record
from tracechan import (
    AmcTable,
    LinkBudget,
    PathType,
    PlanarArray,
    SimulationSetup,
    SubbandGrid,
    TraceSet,
    classify_los,
    compute_sinr,
    generate_codebook,
    generate_trace,
    metrics_to_csv,
    noise_power,
    run_simulation,
    select_mcs,
    throughput_delay,
)
from tracechan.cli import main
from tracechan.link import METRICS_COLUMNS, SINR_FLOOR_DB, snapshot_rows
from tracechan.scenario import build_rt_scenario, build_setup, build_trajectories, load_config

LAM = 299792458.0 / 28e9


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


def test_compute_sinr():
    b = budget()
    n = noise_power(b)
    assert compute_sinr(n, b) == pytest.approx(0.0, abs=1e-12)
    assert compute_sinr(100 * n, b) == pytest.approx(20.0, abs=1e-12)
    assert compute_sinr(0.0, b) == SINR_FLOOR_DB
    assert compute_sinr(n * 1e-30, b) == SINR_FLOOR_DB
    with pytest.raises(ValueError):
        compute_sinr(-1.0, b)


def test_compute_sinr_with_interference():
    b = budget(interference_w=noise_power(budget()))
    # interference equal to noise halves the ratio: -3.01 dB at p = noise
    assert compute_sinr(noise_power(b), b) == pytest.approx(-3.0103, abs=1e-3)


def test_classify_los():
    assert classify_los([mk_record()])
    assert not classify_los([mk_record(path_type=PathType.REFLECTION)])
    assert not classify_los([])
    assert classify_los([mk_record(path_type=PathType.DIFFRACTION), mk_record(path_id=1)])


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
    setup = _free_space_setup(training_period=0.2)
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
    setup = _free_space_setup(training_period=100.0)
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
    setup = _free_space_setup()
    trace = _los_trace([0.0, 0.2 + 1e-12, 0.4], aod_az=30.0)
    gridded = replace(setup, times=(0.0, 0.1, 0.2, 0.3, 0.4))
    metrics = run_simulation(trace, gridded)
    assert [m.t for m in metrics] == [0.0, 0.1, 0.2 + 1e-12, 0.3, 0.4]
    outage = [m.mcs is None for m in metrics]
    assert outage == [False, True, False, True, False]
    for m in metrics:
        if m.mcs is None:
            assert (m.sinr_db, m.los, m.delivered_bps) == (SINR_FLOOR_DB, False, 0.0)
    # without a grid only the trace's own times are reported
    assert len(run_simulation(trace, setup)) == 3
    # a trace snapshot off the grid is an error, not a skipped row
    with pytest.raises(ValueError, match=r"t=0\.25 is not on the configured time grid"):
        run_simulation(_los_trace([0.0, 0.25]), gridded)


def test_snapshot_rows_schedule():
    setup = _free_space_setup()
    trace = _los_trace([0.1, 0.2 + 1e-12], aod_az=30.0)
    rows = snapshot_rows(trace, replace(setup, times=(0.0, 0.1, 0.2)))
    assert [(t, len(recs)) for t, recs in rows] == [(0.0, 0), (0.1, 1), (0.2 + 1e-12, 1)]
    assert [t for t, _ in snapshot_rows(trace, setup)] == [0.1, 0.2 + 1e-12]
    with pytest.raises(ValueError, match=r"\(dt=0\.5 s from t=0\.0\)"):
        snapshot_rows(trace, replace(setup, times=(0.0, 0.5)))
    with pytest.raises(ValueError, match=r"one sample at t=0\.1"):
        snapshot_rows(trace, replace(setup, times=(0.1,)))
    with pytest.raises(ValueError, match="trace has no snapshots for link"):
        snapshot_rows(TraceSet(()), setup)
    with pytest.raises(ValueError, match=r"t=0\.1 and t=0\.1000000005 share one grid time"):
        snapshot_rows(_los_trace([0.1, 0.1 + 5e-10]), replace(setup, times=(0.0, 0.1)))
    # a grid must have a time to snap to, and be finite and strictly increasing
    for bad in ((), (0.0, math.nan), (0.0, math.inf), (0.1, 0.1), (0.2, 0.1)):
        with pytest.raises(ValueError, match="^times must be a non-empty, finite, strictly"):
            replace(setup, times=bad)


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


def test_library_path_matches_simulate(tmp_path, capsys):
    # build_setup carries the configured grid, so the library alone reports
    # the 93 outage rows of the blocked walk, as simulate does
    cfg_path = blocked_corner_config(tmp_path / "blocked.cfg")
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = load_config(cfg_path)
    setup = build_setup(cfg)
    assert setup.times == tuple(build_trajectories(cfg)[cfg.tx_id].times.tolist())
    text = metrics_to_csv(run_simulation(generate_trace(build_rt_scenario(cfg)), setup))
    assert len(text.splitlines()) == 1 + 121
    assert text.encode("utf-8") == out.read_bytes()


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


@pytest.mark.parametrize("workers", [1, 2])
def test_run_simulation_builds_each_channel_once(monkeypatch, workers):
    # training every 0.2 s on a 0.1 s grid: both trained and held snapshots
    built = []
    original = link_module.build_channel_matrices

    def counting(records, *args, **kwargs):
        built.append(kwargs["t"])
        return original(records, *args, **kwargs)

    monkeypatch.setattr(link_module, "build_channel_matrices", counting)
    times = [0.1 * k for k in range(7)]
    metrics = run_simulation(
        _los_trace(times), _free_space_setup(training_period=0.2), workers=workers
    )
    assert len(metrics) == 7
    assert sorted(built) == times


def test_run_simulation_worker_counts_agree():
    setup = _free_space_setup()
    trace = _los_trace([0.1 * k for k in range(9)])
    texts = {
        w: metrics_to_csv(run_simulation(trace, setup, workers=w)) for w in (1, 2, 8)
    }
    assert texts[1] == texts[2] == texts[8]
    with pytest.raises(ValueError):
        run_simulation(trace, setup, workers=0)


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
    setup = _free_space_setup()
    trace = _los_trace([0.30000000000000004])
    text = metrics_to_csv(run_simulation(trace, setup))
    t_field = text.splitlines()[1].split(",")[0]
    assert float(t_field) == 0.30000000000000004
