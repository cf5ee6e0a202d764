"""Command-line workflows: generate-trace, validate, simulate, sweep."""

import copy
import inspect
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNER_CFG, blocked_corner_config, mk_record
from tracechan import (LinkBudget, PathType, Rectangle, RtScenario, SimulationSetup, TraceSet,
                       write_trace)
from tracechan import cli
from tracechan.cli import main
from tracechan.link import SINR_FLOOR_DB, throughput_delay
from tracechan import scenario
from tracechan.scenario import parse_config

ETOILE_CFG = Path(__file__).resolve().parents[1] / "configs" / "etoile.cfg"
ROOT = ETOILE_CFG.parents[1]

# open scene: LoS always clear, one wall behind the walk adds a reflection
SCENE_CFG = """\
carrier_hz: 28.0e+9
bandwidth_hz: 100.0e+6
subbands: 4
txpower_dbm: 10.0
noise_figure_db: 5.0
training_period_s: 0.25
offered_bps: 122.0e+6
overhead: 0.14
snapshot_dt_s: 0.25
duration_s: 2.0

tx_array: {rows: 4, cols: 4, spacing: 0.5, bearing_deg: 0.0}
rx_array: {rows: 2, cols: 2, spacing: 0.5, bearing_deg: 0.0}

tx_codebook: {az_min: -180.0, az_max: 170.0, az_step: 30.0,
              zen_min: 60.0, zen_max: 120.0, zen_step: 30.0}
rx_codebook: {az_min: -180.0, az_max: 170.0, az_step: 30.0,
              zen_min: 60.0, zen_max: 120.0, zen_step: 30.0}

environment:
  rectangles:
    - corner: [-5.0, 10.0, 0.0]
      edge_u: [50.0, 0.0, 0.0]
      edge_v: [0.0, 0.0, 20.0]
      gamma: 0.7

tx_trajectory: {kind: static, position: [0.0, 0.0, 10.0]}
rx_trajectory: {kind: linear, start: [30.0, 5.0, 1.5], velocity: [0.0, -1.5, 0.0]}
"""

REPLAY_CFG = """\
carrier_hz: 28.0e+9
bandwidth_hz: 100.0e+6
subbands: 4
txpower_dbm: 10.0
noise_figure_db: 5.0
training_period_s: 0.25
offered_bps: 122.0e+6
overhead: 0.14
snapshot_dt_s: 0.25
duration_s: 2.0

tx_array: {rows: 4, cols: 4, spacing: 0.5, bearing_deg: 0.0}
rx_array: {rows: 2, cols: 2, spacing: 0.5, bearing_deg: 0.0}

tx_codebook: {az_min: -180.0, az_max: 170.0, az_step: 30.0,
              zen_min: 60.0, zen_max: 120.0, zen_step: 30.0}
rx_codebook: {az_min: -180.0, az_max: 170.0, az_step: 30.0,
              zen_min: 60.0, zen_max: 120.0, zen_step: 30.0}

trace_path: trace.csv
"""


@pytest.fixture
def scene_cfg(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_CFG)
    return path


def test_generate_trace_and_validate(scene_cfg, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["generate-trace", "--config", str(scene_cfg), "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "wrote" in msg and "9 snapshots" in msg
    assert out.exists()

    assert main(["validate", "--trace", str(out)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_validate_reports_findings(tmp_path, capsys):
    trace = tmp_path / "dup.csv"
    trace.write_text(
        "t,tx_id,rx_id,path_id,path_type,delay_s,gain_mag,phase_rad,"
        "aod_az_deg,aod_zen_deg,aoa_az_deg,aoa_zen_deg\n"
        "0.0,0,1,0,LOS,1e-7,1e-5,0.0,0.0,90.0,-180.0,90.0\n"
        "0.0,0,1,1,LOS,1e-7,1e-5,0.0,0.0,90.0,-180.0,90.0\n"
    )
    assert main(["validate", "--trace", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "link=(0,1)" in out
    assert "1 findings" in out


def test_validate_malformed_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text(
        "t,tx_id,rx_id,path_id,path_type,delay_s,gain_mag,phase_rad,"
        "aod_az_deg,aod_zen_deg,aoa_az_deg,aoa_zen_deg\n"
        "0.0,0,1,0,LOS,1e-7\n"
    )
    assert main(["validate", "--trace", str(trace)]) == 2
    assert "trace error" in capsys.readouterr().err


def test_simulate_from_config_geometry(scene_cfg, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(scene_cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mean SINR" in stdout
    assert "LoS fraction" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,los,tx_beam_az_deg")
    assert len(lines) == 10  # header + 9 snapshots
    assert all(ln.split(",")[1] == "1" for ln in lines[1:])  # LoS everywhere


def test_simulate_trace_override_matches_pipeline(scene_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    direct = tmp_path / "direct.csv"
    via_file = tmp_path / "via_file.csv"
    main(["generate-trace", "--config", str(scene_cfg), "--out", str(trace)])
    main(["simulate", "--config", str(scene_cfg), "--out", str(direct)])
    main(["simulate", "--config", str(scene_cfg), "--trace", str(trace),
          "--out", str(via_file)])
    capsys.readouterr()
    assert direct.read_bytes() == via_file.read_bytes()


def test_simulate_worker_counts_byte_identical(scene_cfg, tmp_path, capsys):
    # --workers accepts only 1, so existing command lines keep working
    plain, one = tmp_path / "plain.csv", tmp_path / "one.csv"
    assert main(["simulate", "--config", str(scene_cfg), "--out", str(plain)]) == 0
    assert main(["simulate", "--config", str(scene_cfg), "--out", str(one),
                 "--workers", "1"]) == 0
    assert one.read_bytes() == plain.read_bytes()
    for w in ("2", "0"):
        out = tmp_path / f"metrics_{w}.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(scene_cfg), "--out", str(out), "--workers", w])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_table_layout(scene_cfg, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(scene_cfg), "--out", str(out),
                 "--time", "0.5"]) == 0
    assert "best at t=0.5" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "tx_az,tx_zen,rx_az,rx_zen,power_dbm"
    # 12*3 beams per side, all pairs, plus the repeated winner row
    assert len(lines) == 1 + 36 * 36 + 1
    assert lines[-1] in lines[1:-1]
    # tx-major ordering: first block holds the first tx beam fixed
    first_tx = lines[1].split(",")[:2]
    assert all(ln.split(",")[:2] == first_tx for ln in lines[2:37])


def test_sweep_winner_matches_simulate_training(scene_cfg, tmp_path, capsys):
    # the scene retrains on every snapshot, so simulate's beam at t=0.5 is
    # the winner of the same sweep table
    sweep = tmp_path / "sweep.csv"
    metrics = tmp_path / "metrics.csv"
    assert main(["sweep", "--config", str(scene_cfg), "--out", str(sweep),
                 "--time", "0.5"]) == 0
    assert main(["simulate", "--config", str(scene_cfg), "--out", str(metrics)]) == 0
    capsys.readouterr()
    winner = sweep.read_text().splitlines()[-1].split(",")[:4]
    row = next(ln.split(",") for ln in metrics.read_text().splitlines()[1:]
               if float(ln.split(",")[0]) == 0.5)
    assert [float(x) for x in winner] == [float(x) for x in row[2:6]]


@pytest.mark.parametrize("name", ["corner", "etoile", "etoile_wide"])
def test_sweep_winner_matches_simulate_on_shipped_configs(name, tmp_path, capsys):
    # every shipped config trains on every snapshot, so each simulate row
    # holds the winner of its own sweep: simulate takes it from
    # ideal_beam_sweep's bounded rows, sweep from the full table
    cfg = ROOT / "configs" / f"{name}.cfg"
    raw = yaml.safe_load(cfg.read_text())
    assert raw["training_period_s"] <= raw["snapshot_dt_s"]
    trace = ROOT / "tests" / "data" / f"{name}_trace.csv"
    metrics = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--trace", str(trace),
                 "--out", str(metrics)]) == 0
    rows = [ln.split(",") for ln in metrics.read_text().splitlines()[1:]]
    rows = [r for r in rows if float(r[6]) > SINR_FLOOR_DB]
    for row in (rows[0], rows[len(rows) // 2], rows[-1]):
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--trace", str(trace),
                     "--time", row[0], "--out", str(sweep)]) == 0
        winner = sweep.read_text().splitlines()[-1].split(",")[:4]
        assert winner == row[2:6], f"t={row[0]}"
    capsys.readouterr()


def test_sweep_winner_matches_simulate_on_many_path_replay(tmp_path, capsys):
    # 10 paths per snapshot on a 2x2 rx array: training sweeps bound their
    # rows in the element basis, which no shipped config reaches
    rng = np.random.default_rng(12)
    records = []
    for k in range(9):  # REPLAY_CFG's grid, t = 0 to 2 s, training every snapshot
        t = 0.25 * k
        records.append(mk_record(t=t, gain_mag=1e-6, aod_az=-30.0 + 4.0 * k, aod_zen=95.0,
                                 aoa_az=150.0 - 5.0 * k, aoa_zen=85.0))
        records += [
            mk_record(t=t, path_id=p, path_type=PathType.REFLECTION,
                      gain_mag=float(rng.uniform(1e-8, 3e-7)),
                      phase=float(rng.uniform(-math.pi, math.pi)),
                      delay=float(rng.uniform(4e-7, 9e-7)),
                      aod_az=float(rng.uniform(-180, 179)), aod_zen=float(rng.uniform(60, 120)),
                      aoa_az=float(rng.uniform(-180, 179)), aoa_zen=float(rng.uniform(60, 120)))
            for p in range(1, 10)
        ]
    write_trace(TraceSet(tuple(records)), tmp_path / "trace.csv")
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(REPLAY_CFG)
    metrics = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(metrics)]) == 0
    rows = [ln.split(",") for ln in metrics.read_text().splitlines()[1:]]
    assert len(rows) == 9
    for row in (rows[0], rows[len(rows) // 2], rows[-1]):
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--time", row[0],
                     "--out", str(sweep)]) == 0
        winner = sweep.read_text().splitlines()[-1].split(",")[:4]
        assert winner == row[2:6], f"t={row[0]}"
    capsys.readouterr()


@pytest.mark.parametrize("gain", ["1e170", "1e200"])
def test_simulate_overflowing_path_gains_exits_2(tmp_path, capsys, gain):
    # etoile's snapshots hold one path each, and a gain of 1e170 squares past
    # float64's range: the first training sweep finds no finite power
    header, *rows = (ROOT / "tests" / "data" / "etoile_trace.csv").read_text().splitlines()
    col = header.split(",").index("gain_mag")
    rows = [",".join(gain if i == col else v for i, v in enumerate(r.split(","))) for r in rows]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "metrics.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would be extra lines
        assert main(["simulate", "--config", str(ETOILE_CFG), "--trace", str(trace),
                     "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: received power at t=0.0 overflows to inf\n")
    assert not out.exists()


def test_sweep_overflowing_path_gains_exits_2(tmp_path, capsys):
    # as simulate: the full table's maximum is not finite, so no file is written
    header, *rows = (ROOT / "tests" / "data" / "etoile_trace.csv").read_text().splitlines()
    col = header.split(",").index("gain_mag")
    rows = [",".join("1e200" if i == col else v for i, v in enumerate(r.split(","))) for r in rows]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would be extra lines
        assert main(["sweep", "--config", str(ETOILE_CFG), "--trace", str(trace),
                     "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: received power at t=0.0 overflows to inf\n")
    assert not out.exists()


def test_simulate_mismatched_time_grid_exits_2(scene_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["generate-trace", "--config", str(scene_cfg), "--out", str(trace)]) == 0
    coarse = tmp_path / "coarse.cfg"
    coarse.write_text(SCENE_CFG.replace("snapshot_dt_s: 0.25", "snapshot_dt_s: 0.3"))
    capsys.readouterr()
    for cmd in ("simulate", "sweep"):
        args = [cmd, "--config", str(coarse), "--trace", str(trace),
                "--out", str(tmp_path / "x.csv")]
        if cmd == "sweep":
            args += ["--time", "0.25"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "t=0.25" in err and "dt=0.3" in err


def test_sweep_time_snapping(scene_cfg, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # 0.6 is within dt/2 = 0.125 of snapshot 0.5
    assert main(["sweep", "--config", str(scene_cfg), "--out", str(out),
                 "--time", "0.6"]) == 0
    assert "t=0.5" in capsys.readouterr().out
    assert main(["sweep", "--config", str(scene_cfg), "--out", str(out),
                 "--time", "99.0"]) == 2
    assert "config error" in capsys.readouterr().err
    # 0.375 is midway between snapshots 0.25 and 0.5: the tie takes the lower
    assert main(["sweep", "--config", str(scene_cfg), "--out", str(out),
                 "--time", "0.375"]) == 0
    assert "t=0.25" in capsys.readouterr().out


def test_sweep_nan_time_exits_2(scene_cfg, tmp_path, capsys):
    # NaN is within no distance of any snapshot, so it must not pick the first;
    # nor is either infinity, which is infinitely far from every snapshot
    out = tmp_path / "sweep.csv"
    for time in ("nan", "inf", "-inf"):  # --time=-inf, as -inf alone reads as an option
        assert main(["sweep", "--config", str(scene_cfg), "--out", str(out),
                     f"--time={time}"]) == 2
        assert capsys.readouterr().err == (
            f"config error: --time {time} is not within 0.125 s of any snapshot "
            "(grid spans 0.0 to 2.0)\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("node, params, problem", [
    ("rx_trajectory", {"radius": [1.0, 2.0, 3.0]},
     "rx_trajectory: circular trajectory: radius must be a number, got [1.0, 2.0, 3.0]"),
    ("rx_trajectory", {"center": 1.5},
     "rx_trajectory: circular trajectory: center must be a 3-vector, got 1.5"),
    # None drops a key: the circular parameters a linear kind does not take
    ("rx_trajectory", {"kind": "linear", "start": [55.0, 0.0, 1.5], "velocity": 1.0,
                       **dict.fromkeys(("center", "radius", "angle0_deg", "rate_deg_s"))},
     "rx_trajectory: linear trajectory: velocity must be a 3-vector, got 1.0"),
    ("tx_trajectory", {"position": 10.0},
     "tx_trajectory: static trajectory: position must be a 3-vector, got 10.0"),
], ids=["radius-vector", "center-scalar", "velocity-scalar", "position-scalar"])
def test_trajectory_parameter_shapes_exit_2(tmp_path, capsys, node, params, problem):
    raw = yaml.safe_load(ETOILE_CFG.read_text())
    raw[node] = {k: v for k, v in {**raw[node], **params}.items() if v is not None}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(yaml.safe_dump(raw))
    assert main(["generate-trace", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"


@pytest.mark.parametrize("cmd", ["generate-trace", "simulate", "sweep"])
def test_trajectory_overflow_is_one_config_error_without_warning(tmp_path, capsys, cmd):
    # the receiver's position overflows to -inf at t=2.0: one keyed line at
    # load, exit 2, and no numpy warning (raised here as an error)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(Path(CORNER_CFG).read_text().replace("velocity: [0.0, -1.5, 0.0]",
                                                        "velocity: [0.0, -1.0e+308, 0.0]", 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "config error: rx_trajectory: linear trajectory: position at t=2.0 is not finite, "
        "got [7.0, -inf, 1.5]\n")


@pytest.mark.parametrize("base, old, new, problem", [
    # a linear walk that still carries the circular kind's parameters
    (ETOILE_CFG, "kind: circular", "kind: linear\n  start: [55.0, 0.0, 1.5]\n"
     "  velocity: [0.0, 1.0, 0.0]",
     "config error: rx_trajectory: trajectory kind 'linear' does not take "
     "'center', 'radius', 'angle0_deg', 'rate_deg_s'\n"),
    # a misspelt optional key must not fall back to its default (order 4)
    (ETOILE_CFG, "snapshot_dt_s:", "max_reflection_ordr: 0\nsnapshot_dt_s:",
     "config error: max_reflection_ordr: unknown key\n"),
    # a misspelt edge list would silently drop every diffracted path
    (CORNER_CFG, "diffracting_edges: [3]", "diffracting_edge: [3]",
     "config error: environment.rectangles[1].diffracting_edge: unknown key\n"),
    (CORNER_CFG, "tx_array:\n", "bogus: 1\ntx_array:\n  row: 4\n",
     "config error: bogus: unknown key\nconfig error: tx_array.row: unknown key\n"),
    (CORNER_CFG, "zen_step: 10.0", "zen_step: 10.0\n  el_stp: 1.0\n  11: 0",
     "config error: tx_codebook.el_stp: unknown key\nconfig error: tx_codebook.11: unknown key\n"),
    (CORNER_CFG, "rectangles:", "walls: []\n  rectangles:",
     "config error: environment.walls: unknown key\n"),
], ids=["trajectory-leftover", "top-level-typo", "rectangle-typo", "top-and-array",
        "codebook", "environment"])
def test_unknown_config_keys_exit_2(tmp_path, capsys, base, old, new, problem):
    cfg = tmp_path / "typo.cfg"
    text = Path(base).read_text()
    assert old in text
    cfg.write_text(text.replace(old, new, 1))
    assert main(["generate-trace", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == problem
    assert not (tmp_path / "x.csv").exists()


def test_sweep_at_outage_time_writes_floor_table(tmp_path, capsys):
    # t = 0 is on the blocked walk's grid, but the trace has no record there
    cfg = blocked_corner_config(tmp_path / "blocked.cfg")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--time", "0"]) == 0
    assert "best at t=0.0:" in capsys.readouterr().out
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 252 * 252 + 1
    assert {r.split(",")[4] for r in rows} == {"-200.0"}


def test_sweep_off_grid_trace_exits_2(scene_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["generate-trace", "--config", str(scene_cfg), "--out", str(trace)]) == 0
    coarse = tmp_path / "coarse.cfg"
    coarse.write_text(SCENE_CFG.replace("snapshot_dt_s: 0.25", "snapshot_dt_s: 0.3"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(coarse), "--trace", str(trace),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: snapshot t=0.25 is not on")


def test_sweep_link_without_snapshots_exits_2(scene_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["generate-trace", "--config", str(scene_cfg), "--out", str(trace)]) == 0
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(REPLAY_CFG + "tx_id: 7\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: trace has no snapshots for link (7, 1)\n"


@pytest.mark.parametrize("kind", ["geometry", "replay"])
def test_trace_of_another_link_exits_2_and_empty_trace_is_all_outage(
        scene_cfg, tmp_path, capsys, kind):
    # both config kinds run on the configured grid, t = 0 to 2 s every 0.25 s
    trace = tmp_path / "trace.csv"
    if kind == "geometry":
        source = ["--config", str(scene_cfg), "--trace", str(trace)]
    else:
        (tmp_path / "replay.cfg").write_text(REPLAY_CFG)  # trace_path: trace.csv
        source = ["--config", str(tmp_path / "replay.cfg")]
    out = str(tmp_path / "out.csv")
    write_trace(TraceSet([mk_record(t=0.25 * k, tx_id=1, rx_id=0) for k in range(9)]), trace)
    for cmd in ("simulate", "sweep"):
        assert main([cmd, *source, "--out", out]) == 2
        assert capsys.readouterr().err == "error: trace has no snapshots for link (0, 1)\n"
    # a fully blocked scene writes no records: every grid time is an outage
    write_trace(TraceSet(()), trace)
    assert main(["simulate", *source, "--out", out]) == 0
    assert "outage snapshots: 9 (" in capsys.readouterr().out
    rows = [ln.split(",") for ln in Path(out).read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.25 * k for k in range(9)]
    assert all(float(r[6]) == SINR_FLOOR_DB and r[7] == "0" for r in rows)
    # sweep without --time takes the grid's first time
    assert main(["sweep", *source, "--out", out]) == 0
    assert "best at t=0.0:" in capsys.readouterr().out


def test_replay_past_duration_exits_2(scene_cfg, tmp_path, capsys):
    # the trace runs to t = 2 s; the replay config's grid ends at 1.5 s, and
    # 1.75 s is on its 0.25 s steps
    assert main(["generate-trace", "--config", str(scene_cfg),
                 "--out", str(tmp_path / "trace.csv")]) == 0
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(REPLAY_CFG.replace("duration_s: 2.0", "duration_s: 1.5"))
    capsys.readouterr()
    for cmd in ("simulate", "sweep"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: snapshot t=1.75 is past the configured time grid's end t=1.5; "
            "duration_s must cover the trace\n")


@pytest.mark.parametrize("old, new, problem", [
    ("subbands: 4", "subbands: .inf", "config error: subbands: must be an integer, got inf\n"),
    ("az_max: 170.0", "az_max: .inf",
     "config error: tx_codebook: azimuth grid bounds must be finite, got -180.0 and inf\n"),
    ("snapshot_dt_s: 0.25", "snapshot_dt_s: 0.25\nrx_id: 0",
     "config error: rx_id: must differ from tx_id 0\n"),
    # node ids are int64 in a trace, and a trace holds none below 0
    ("snapshot_dt_s: 0.25", "snapshot_dt_s: 0.25\nrx_id: 9223372036854775808",
     "config error: rx_id: node id must be < 2**63, got 9223372036854775808\n"),
    ("snapshot_dt_s: 0.25", "snapshot_dt_s: 0.25\ntx_id: -1",
     "config error: tx_id: node id must be >= 0, got -1\n"),
    # a negative order would trace LOS only, as if it were 0
    ("snapshot_dt_s: 0.25", "snapshot_dt_s: 0.25\nmax_reflection_order: -3",
     "config error: max_reflection_order: must be >= 0 and an int, got -3\n"),
    ("{kind: linear, start: [30.0, 5.0, 1.5], velocity: [0.0, -1.5, 0.0]}",
     "{kind: static, position: [0.0, 0.0, 10.0]}",
     "error: tx and rx coincide at t=0.0\n"),
    ("gamma: 0.7", "gamma: 0.7\n      diffracting_edges: [.inf]",
     "config error: environment.rectangles[0]: diffracting edge indices must be in 0..3, "
     "got (inf,)\n"),
    # not a list: a string's characters or an int's iteration are no edges
    ("gamma: 0.7", 'gamma: 0.7\n      diffracting_edges: "12"',
     "config error: environment.rectangles[0].diffracting_edges: expected a list, got '12'\n"),
    ("gamma: 0.7", "gamma: 0.7\n      diffracting_edges: 12",
     "config error: environment.rectangles[0].diffracting_edges: expected a list, got 12\n"),
    # a repeated edge would emit its knife-edge path twice
    ("gamma: 0.7", "gamma: 0.7\n      diffracting_edges: [1, 1]",
     "config error: environment.rectangles[0]: diffracting edges (1, 1) repeat an index\n"),
    # dB values whose linear ratio overflows float64
    ("txpower_dbm: 10.0", "txpower_dbm: 4000.0",
     "config error: txpower_dbm: 4000.0 overflows as a linear ratio\n"),
    ("noise_figure_db: 5.0", "noise_figure_db: 4000.0",
     "config error: noise_figure_db: 4000.0 overflows as a linear ratio\n"),
    # noise plus interference power that underflows to 0 W: SINR would divide by it
    ("noise_figure_db: 5.0", "noise_figure_db: -4000.0",
     "config error: noise_figure_db: -4000.0 and temperature_k 290.0 "
     "make the noise plus interference power 0 W\n"),
    ("noise_figure_db: 5.0", "noise_figure_db: 5.0\ntemperature_k: 1.0e-320",
     "config error: noise_figure_db: 5.0 and temperature_k 1e-320 "
     "make the noise plus interference power 0 W\n"),
    # an int too large for a float reads as inf, as its text would
    ("noise_figure_db: 5.0", "noise_figure_db: 1" + "0" * 400,
     "config error: noise_figure_db: must be finite, got inf\n"),
    # steps so fine that the grid's point count overflows
    ("az_step: 30.0", "az_step: 1.0e-320",
     "config error: tx_codebook: azimuth grid step 1e-320 gives more than 2**63 points\n"),
    ("snapshot_dt_s: 0.25", "snapshot_dt_s: 1.0e-320",
     "config error: snapshot_dt_s: 1e-320 gives more than 2**63 snapshots\n"),
    # an array field's problem goes under its own key, naming its value
    ("tx_array: {rows: 4,", "tx_array: {rows: 0,",
     "config error: tx_array.rows: must be >= 1, got 0\n"),
    ("rx_array: {rows: 2, cols: 2,", "rx_array: {rows: 2, cols: 0,",
     "config error: rx_array.cols: must be >= 1, got 0\n"),
    ("tx_array: {rows: 4, cols: 4, spacing: 0.5", "tx_array: {rows: 4, cols: 4, spacing: -0.5",
     "config error: tx_array.spacing: must be > 0, got -0.5\n"),
    ("tx_array: {rows: 4,", "tx_array: {rows: 1.5,",
     "config error: tx_array.rows: must be an integer, got 1.5\n"),
], ids=["subbands-inf", "codebook-bound-inf", "equal-node-ids", "node-id-2**63",
        "node-id-negative", "reflection-order-negative", "coincident-nodes", "diffracting-edge-inf",
        "diffracting-edges-string", "diffracting-edges-int", "diffracting-edge-repeated",
        "txpower-overflow", "noise-figure-overflow", "noise-underflow",
        "temperature-underflow", "int-too-large", "codebook-step-subnormal",
        "snapshot-step-subnormal", "array-rows-zero", "array-cols-zero",
        "array-spacing-negative", "array-rows-fractional"])
@pytest.mark.parametrize("cmd", ["generate-trace", "simulate", "sweep"])
def test_degenerate_inputs_exit_2(tmp_path, capsys, cmd, old, new, problem):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SCENE_CFG.replace(old, new, 1))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == problem


# sizes whose first array numpy is refused at once: each needs petabytes, more than a
# 47-bit address space holds, so even a host that overcommits memory refuses the request
@pytest.mark.parametrize("old, new", [
    ("subbands: 4", "subbands: 100000000000000"),  # the subband terms, 2.84 PiB
    ("az_step: 30.0", "az_step: 1.0e-12"),  # the codebook grid, 2.49 PiB
    ("duration_s: 2.0", "duration_s: 1.0e+15"),  # the time grid, 28.4 PiB
], ids=["subbands", "codebook-step", "duration"])
@pytest.mark.parametrize("cmd", ["simulate", "sweep"])
def test_config_too_large_to_allocate_exits_2(tmp_path, capsys, cmd, old, new):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SCENE_CFG.replace(old, new, 1))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: Unable to allocate ")
    assert err.endswith("\n") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value, spelled", [
    ("null", "null"), ("[4]", "a list"), ("{a: 1}", "a mapping"), ("abc", "abc"), ("true", "true"),
    # longer than YAML's 80-column line width, and a string with a line break:
    # the message stays one line
    pytest.param(f'"{"word " * 20}end"', f'{"word " * 20}end', id="long-string"),
    pytest.param('"x\\ny"', '"x\\ny"', id="line-break"),
])
@pytest.mark.parametrize("line", ["txpower_dbm: 10.0", "subbands: 4"], ids=["float", "int"])
def test_non_number_scalar_exits_2_in_config_terms(tmp_path, capsys, line, value, spelled):
    key = line.split(":")[0]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SCENE_CFG.replace(line, f"{key}: {value}", 1))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {key}: expected a number, got {spelled}\n"


_CORNER_TEXT = Path(CORNER_CFG).read_text()
# every "key:" line of corner.cfg, at any depth (list items start with "- ")
_KEY_LINES = [i for i, ln in enumerate(_CORNER_TEXT.splitlines())
              if ln.strip() and ln.lstrip()[0].isalpha() and ":" in ln]


@pytest.mark.parametrize("index", _KEY_LINES)
def test_repeated_config_key_exits_2(tmp_path, capsys, index):
    # a YAML loader keeps the last of two equal keys; the config must not
    lines = _CORNER_TEXT.splitlines()
    key = lines[index].split(":")[0].strip()
    lines.insert(index + 1, lines[index])
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: duplicate key(s): {key}\n"


def test_repeated_keys_in_flow_mapping_named_once_each(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(SCENE_CFG.replace("{rows: 4, cols: 4,", "{rows: 4, cols: 4, rows: 2, cols: 2,")
                   + "subbands: 8\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "config error: duplicate key(s): subbands, rows, cols\n"


@pytest.mark.parametrize("text, problem", [
    ("carrier_hz: [1, 2\n", "expected ',' or ']', but got '<stream end>' (line 2, column 1)"),
    (SCENE_CFG.replace("\nbandwidth_hz", "\n  bandwidth_hz", 1),
     "mapping values are not allowed here (line 2, column 15)"),
    (SCENE_CFG.replace("  rectangles:", "\trectangles:", 1),
     "found character '\\t' that cannot start any token (line 21, column 1)"),
    (SCENE_CFG.replace("subbands: 4", "subbands: 4\x01", 1),
     "unacceptable character #x0001: special characters are not allowed"),
], ids=["unclosed-flow-sequence", "bad-indent", "tab", "control-character"])
def test_yaml_syntax_error_is_one_line(tmp_path, capsys, text, problem):
    # PyYAML's own message spans several lines: context, marks and carets
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: config is not valid YAML: {problem}\n"


@pytest.mark.parametrize("old, new, problem", [
    ("training_period_s: 0.25", "training_period_s: .nan",
     "config error: training_period_s: must be positive, got nan\n"),
    ("offered_bps: 122.0e+6", "offered_bps: .nan",
     "config error: offered_bps: must be >= 0, got nan\n"),
], ids=["training_period_s: 0.25-training_period_s: .nan-"  # the edit and the rule it breaks
        "error: training_period_s must be positive\n",
        "offered_bps: 122.0e+6-offered_bps: .nan-error: offered_bps must be >= 0\n"])
def test_nan_training_period_or_load_exits_2(tmp_path, capsys, old, new, problem):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(SCENE_CFG.replace(old, new))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == problem


def test_missing_config_keys_named(tmp_path, capsys):
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("carrier_hz: 28.0e+9\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "bandwidth_hz" in err
    assert "tx_array" in err
    assert "duration_s" in err


def test_optional_config_keys_take_documented_defaults():
    raw = yaml.safe_load(SCENE_CFG)
    cfg = parse_config(raw)
    assert (cfg.tx_id, cfg.rx_id) == (0, 1)
    assert (cfg.budget.temperature_k, cfg.budget.interference_w) == (290.0, 0.0)
    assert (cfg.base_delay_s, cfg.saturation_delay_s) == (0.5e-3, 7.5e-3)
    assert cfg.max_reflection_order == 4
    assert (cfg.trace_path, cfg.amc_table_path) == (None, None)
    # a null path counts as absent
    assert parse_config({**raw, "trace_path": None, "amc_table_path": None}) == cfg
    # each default is the library's own, and throughput_delay shares it
    library = {"tx_id": SimulationSetup.tx_id, "rx_id": SimulationSetup.rx_id,
               "temperature_k": LinkBudget.temperature_k,
               "interference_w": LinkBudget.interference_w,
               "base_delay_s": SimulationSetup.base_delay_s,
               "saturation_delay_s": SimulationSetup.saturation_delay_s,
               "max_reflection_order": RtScenario.max_reflection_order}
    held = {**vars(cfg), **vars(cfg.budget)}  # the budget holds the noise keys
    assert {key: held[key] for key in library} == library
    delay_defaults = inspect.signature(throughput_delay).parameters
    for key in ("base_delay_s", "saturation_delay_s"):
        assert delay_defaults[key].default == library[key]
    del raw["environment"]["rectangles"][0]["gamma"]
    assert parse_config(raw).environment.rectangles[0].gamma == Rectangle.gamma == 0.7


def test_node_ids_are_read_exactly():
    # a trace holds ids up to 2**63 - 1, and a float would round these to others
    raw = yaml.safe_load(SCENE_CFG)
    for node in (2**53 + 1, 2**63 - 1):
        assert parse_config({**raw, "tx_id": node}).tx_id == node


def test_main_parses_with_the_parser_built_at_import(monkeypatch):
    # main builds no parser; each call parses its own command line, and the
    # command's function is looked up by name when main runs
    built, seen = [], []
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1))
    for name in ("_cmd_validate", "_cmd_simulate"):
        monkeypatch.setattr(cli, name,
                            lambda args, name=name: seen.append((name, vars(args))) or 0)
    assert main(["validate", "--trace", "a.csv"]) == 0
    assert main(["simulate", "--config", "c.cfg", "--out", "o.csv"]) == 0
    assert built == []
    assert seen == [
        ("_cmd_validate", {"command": "validate", "trace": "a.csv"}),
        ("_cmd_simulate", {"command": "simulate", "config": "c.cfg", "out": "o.csv",
                           "trace": None, "workers": 1}),
    ]


@pytest.mark.parametrize("key, value, problem", [
    ("snapshot_dt_s", "0.0", "snapshot_dt_s must be > 0"),
    ("snapshot_dt_s", "-0.25", "snapshot_dt_s must be > 0"),
    ("duration_s", "-1.0", "duration_s must be >= 0 and finite"),
    ("duration_s", ".inf", "duration_s must be >= 0 and finite"),
])
@pytest.mark.parametrize("cmd", ["generate-trace", "simulate", "sweep"])
def test_bad_time_grid_exits_2(tmp_path, capsys, cmd, key, value, problem):
    default = "0.25" if key == "snapshot_dt_s" else "2.0"
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SCENE_CFG.replace(f"{key}: {default}", f"{key}: {value}"))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    # the line is keyed: "<key>: <rule>, got <value>"
    rule = problem.removeprefix(f"{key} ")
    assert err == f"config error: {key}: {rule}, got {yaml.safe_load(value)!r}\n"


def test_trace_path_and_geometry_conflict(tmp_path, capsys):
    cfg = tmp_path / "both.cfg"
    cfg.write_text(SCENE_CFG + "\ntrace_path: somewhere.csv\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert "either" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["validate", "--trace", str(tmp_path / "absent.csv")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_elevation_alternate_keys_equivalent(scene_cfg, tmp_path, capsys):
    alt_text = SCENE_CFG.replace(
        "zen_min: 60.0, zen_max: 120.0, zen_step: 30.0",
        "el_min: -30.0, el_max: 30.0, el_step: 30.0",
    )
    alt = tmp_path / "alt.cfg"
    alt.write_text(alt_text)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(scene_cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(alt), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_trace_path_mode(scene_cfg, tmp_path, capsys):
    # trace_path resolves relative to the config file's directory
    main(["generate-trace", "--config", str(scene_cfg),
          "--out", str(tmp_path / "trace.csv")])
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(REPLAY_CFG)
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 10


# The exit-code contract: 0 success, 1 validation findings (validate only),
# 2 usage or config error, 3 I/O error, and on failure one line per problem
# under one of these prefixes. A numpy RuntimeWarning would print a further
# stderr line, so it breaks the contract too.
_PREFIXES = ("config error: ", "trace error: ", "error: ", "i/o error: ")
_MALFORMED = [None, "abc", [], {}, True, -1, 0, math.nan, math.inf, -math.inf]
_DELETE = "<delete>"


def _key_paths(node, prefix=()):
    """Every path into a parsed config: mapping keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


_SCENE = yaml.safe_load(SCENE_CFG)
_SCENE_PATHS = list(_key_paths(_SCENE))


def _assert_contract(argv, codes):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in codes
    assert "Traceback" not in err.getvalue()
    assert all(line.startswith(_PREFIXES) for line in err.getvalue().splitlines())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    (work / "scene.cfg").write_text(SCENE_CFG)
    assert main(["generate-trace", "--config", str(work / "scene.cfg"),
                 "--out", str(work / "trace.csv")]) == 0
    return work


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    path=st.sampled_from(_SCENE_PATHS),
    token=st.sampled_from([_DELETE, *_MALFORMED]),
    cmd=st.sampled_from(["generate-trace", "simulate", "sweep"]),
)
@example(path=("subbands",), token=math.inf, cmd="simulate")
@example(path=("tx_codebook", "az_max"), token=math.inf, cmd="sweep")
@example(path=("tx_id",), token=2**63, cmd="generate-trace")
def test_config_mutations_keep_exit_code_contract(contract_dir, path, token, cmd):
    raw = copy.deepcopy(_SCENE)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if token == _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(token)
    cfg = contract_dir / "mutated.cfg"
    cfg.write_text(yaml.safe_dump(raw))
    _assert_contract([cmd, "--config", str(cfg), "--out", str(contract_dir / "out.csv")],
                     {0, 2, 3})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    token=st.sampled_from(["", "abc", "nan", "inf", "-inf", "-1", "0", "1e999", "true", "[]"]),
    cmd=st.sampled_from(["validate", "simulate", "sweep"]),
)
def test_trace_corruption_keeps_exit_code_contract(contract_dir, data, token, cmd):
    lines = (contract_dir / "trace.csv").read_text().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1), label="row")
    fields = lines[row].split(",")
    fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = token
    lines[row] = ",".join(fields)
    trace = contract_dir / "corrupt.csv"
    trace.write_text("\n".join(lines) + "\n")
    if cmd == "validate":
        _assert_contract(["validate", "--trace", str(trace)], {0, 1, 2, 3})
    else:
        _assert_contract([cmd, "--config", str(contract_dir / "scene.cfg"), "--trace",
                          str(trace), "--out", str(contract_dir / "out.csv")], {0, 2, 3})


_CONFIG_DIR = ETOILE_CFG.parent
# characters with a meaning to YAML, and a few it rejects or treats specially
_YAML_CHARS = " \t\n\r:-,.[]{}#&*!|>'\"%@`?~=0123456789eE+nax_\x01\x85\xa0\u2028\ufeff\u00e9"


def _load_outcome(path):
    try:
        return repr(scenario.load_config(path))
    except Exception as exc:  # compared, not judged: both loaders must agree
        return type(exc).__name__, getattr(exc, "problems", str(exc))


def _pure_load_outcome(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_FastConfigLoader", scenario._ConfigLoader)
        return _load_outcome(path)


@pytest.mark.parametrize("old, new", [
    ("\n  cols: 16", "\n  c\tols: 16"),  # only libyaml reads a tab inside a key
    ("\nsubbands: 8", "\n\ufeffsubbands: 8"),  # only PyYAML reads a BOM inside the text
], ids=["tab-in-key", "bom-in-text"])
def test_text_libyaml_reads_differently_goes_to_the_pure_loader(tmp_path, old, new):
    path = tmp_path / "odd.cfg"
    path.write_text((_CONFIG_DIR / "corner.cfg").read_text().replace(old, new, 1),
                    encoding="utf-8", newline="")
    assert _load_outcome(path) == _pure_load_outcome(path)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(["corner", "etoile", "etoile_wide"]))
def test_libyaml_and_pure_loaders_agree_on_mutated_configs(tmp_path_factory, data, name):
    # up to four single-character edits of a shipped config: load_config on
    # libyaml gives the pure loader's value, or its one-line message
    text = (_CONFIG_DIR / f"{name}.cfg").read_text()
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(text)), label="at")
        char = data.draw(st.sampled_from(_YAML_CHARS), label="char")
        op = data.draw(st.sampled_from(["insert", "replace", "delete"]), label="op")
        text = text[:at] + (char if op != "delete" else "") + text[at + (op != "insert"):]
    path = tmp_path_factory.getbasetemp() / "mutated.cfg"
    path.write_text(text, encoding="utf-8", newline="")
    assert _load_outcome(path) == _pure_load_outcome(path)


# Bad configs, drawn: one to three keys of corner.cfg corrupted at once. Each
# value below is a problem for the key it is drawn for, so every command must
# stop at load with exit 2 and the same keyed lines.
_CORNER = yaml.safe_load(Path(CORNER_CFG).read_text())
_MISSPELL = "<misspell>"
_OPTIONAL = {"environment", "gamma", "diffracting_edges"}
# numeric keys that zero and -1 break, and those only -1 breaks (zen_max is below zen_min)
_POSITIVE = {"carrier_hz", "bandwidth_hz", "subbands", "rows", "cols", "spacing", "az_step",
             "zen_step", "zen_max", "training_period_s", "snapshot_dt_s"}
_NON_NEGATIVE = {"offered_bps", "duration_s", "overhead", "gamma", "zen_min"}
# top-level keys that one check reads together; its problem may name any of them
_GROUPS = ({"carrier_hz", "bandwidth_hz", "subbands"},
           {"txpower_dbm", "bandwidth_hz", "noise_figure_db", "temperature_k", "interference_w"},
           {"training_period_s", "offered_bps", "overhead"},
           {"snapshot_dt_s", "duration_s"})


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _bad_values(path, value):
    """The values that break the key at path, whose good value is value."""
    key = path[-1]
    bad = [_MISSPELL, math.nan, "abc", ["abc"], True]
    if key not in _OPTIONAL:
        bad.append(_DELETE)
    if key in _POSITIVE or not isinstance(value, (int, float)):
        bad += [0, -1]
    elif key in _NON_NEGATIVE:
        bad.append(-1)
    return bad


_CORNER_KEYS = [p for p in _key_paths(_CORNER)
                if not isinstance(p[-1], int) and p[-1] != "rectangles"]


@st.composite
def _corruptions(draw):
    paths = draw(st.lists(st.sampled_from(_CORNER_KEYS), min_size=1, max_size=3, unique=True))
    # a key inside another drawn key would be corrupted twice
    paths = [p for p in paths if not any(q != p and p[:len(q)] == q for q in paths)]
    return tuple((p, draw(st.sampled_from(_bad_values(p, _get(_CORNER, p))))) for p in paths)


def _names(key, path):
    """Whether a problem line's dotted key can name the corrupted key at path:
    the key, a section holding it or a key inside it, its misspelling, a key of
    its section, or a top-level key one check reads with it."""
    dotted = _dotted(path)
    misspelt = _dotted(path[:-1] + (path[-1][:-1],))
    parent = dotted[:len(dotted) - len(path[-1])]
    return (key in (dotted, misspelt)
            or dotted.startswith((key + ".", key + "["))
            or key.startswith((dotted + ".", dotted + "["))
            or (parent != "" and key.startswith(parent))
            or (parent == "" and any({key, dotted} <= group for group in _GROUPS)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(corruptions=_corruptions())
@example(corruptions=((("tx_array", "rows"), 0),))
@example(corruptions=((("tx_array", "spacing"), -0.5),))
@example(corruptions=((("tx_codebook", "az_step"), 0),))
@example(corruptions=((("tx_codebook", "zen_max"), 190),))
@example(corruptions=((("tx_trajectory", "kind"), "statik"),))
def test_every_config_problem_is_reported_at_load_under_its_key(tmp_path_factory, corruptions):
    raw = copy.deepcopy(_CORNER)
    for path, value in corruptions:
        parent = _get(raw, path[:-1])
        if value in (_DELETE, _MISSPELL):
            moved = parent.pop(path[-1])
            if value == _MISSPELL:  # the last letter dropped
                parent[path[-1][:-1]] = moved
        else:
            parent[path[-1]] = value
    work = tmp_path_factory.getbasetemp()
    cfg = work / "corrupt.cfg"
    cfg.write_text(yaml.safe_dump(raw))
    errs = []
    for cmd in ("generate-trace", "simulate", "sweep"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main([cmd, "--config", str(cfg), "--out", str(work / "out.csv")]) == 2, cmd
        errs.append(err.getvalue())
    assert errs[0] == errs[1] == errs[2]
    lines = errs[0].splitlines()
    assert lines and len(set(lines)) == len(lines) and "Traceback" not in errs[0]
    keys = []
    for line in lines:
        head, sep, problem = line.removeprefix("config error: ").partition(": ")
        assert line.startswith("config error: ") and sep and problem, line
        keys.append(head)
    for key in keys:
        assert any(_names(key, path) for path, _ in corruptions), (key, lines)
    for path, _ in corruptions:
        assert any(_names(key, path) for key in keys), (path, lines)


def test_generate_trace_builds_no_codebook_and_reads_no_amc_file(tmp_path, capsys, monkeypatch):
    # the codebook step asks for petabytes of beams and the AMC file is absent:
    # generate-trace needs neither, so it writes the trace it writes without them
    plain, lazy = tmp_path / "plain.cfg", tmp_path / "lazy.cfg"
    plain.write_text(SCENE_CFG)
    lazy.write_text(SCENE_CFG.replace("az_step: 30.0", "az_step: 1.0e-12", 1)
                    + "amc_table_path: amc.csv\n")
    assert main(["generate-trace", "--config", str(plain), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["generate-trace", "--config", str(lazy), "--out", str(tmp_path / "b.csv")]) == 0
    with monkeypatch.context() as patched:
        def refuse(*args, **kwargs):
            raise AssertionError("generate_codebook called")
        patched.setattr(scenario, "generate_codebook", refuse)
        assert main(["generate-trace", "--config", str(lazy),
                     "--out", str(tmp_path / "c.csv")]) == 0
    want = (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == want == (tmp_path / "c.csv").read_bytes()
    capsys.readouterr()
    # simulate reads the AMC file before it builds the codebooks
    assert main(["simulate", "--config", str(lazy), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    (tmp_path / "amc.csv").write_text(
        "mcs,sinr_threshold_db,spectral_efficiency\n0,-5.0,0.25\n1,5.0,1.5\n")
    assert main(["simulate", "--config", str(lazy), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: not enough memory: Unable to allocate ")
    assert not (tmp_path / "x.csv").exists()
