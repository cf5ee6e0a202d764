"""Command-line workflows: generate-trace, validate, simulate, sweep."""

import pytest

from tracechan.cli import main

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
    outs = {}
    for w in (1, 2, 8):
        out = tmp_path / f"metrics_{w}.csv"
        assert main(["simulate", "--config", str(scene_cfg),
                     "--out", str(out), "--workers", str(w)]) == 0
        outs[w] = out.read_bytes()
    capsys.readouterr()
    assert outs[1] == outs[2] == outs[8]


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


def test_missing_config_keys_named(tmp_path, capsys):
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("carrier_hz: 28.0e+9\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "bandwidth_hz" in err
    assert "tx_array" in err
    assert "duration_s" in err


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
    assert err == f"config error: {problem}\n"


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
