"""Seeded workload generators for the tracechan benchmark.

Each generator writes a scenario config (and, for dense_replay, a trace CSV)
into a scratch directory and returns a ``Workload`` that says which
``tracechan`` commands make up one pass. The program only ever sees these
files. Generation uses ``random.Random`` seeded with a string, so the same
seed gives byte-identical inputs on every Python 3 build.

Why each workload exists:

- arc_wide: the etoile_wide geometry (16x128 tx, 637x252 beams), one LOS
  path, training on every snapshot. The beam sweep is ~88 % of the pass,
  the ray tracer a few ms, so sweep and channel-reuse changes show here.
- room_trace: a closed room with an interior partition traced at order 4.
  The tracer is ~95 % of the pass; LOS, reflection and diffraction occur.
- dense_replay: a synthetic 64-path, 64-subband trace replayed with a long
  training period, so trace parsing, channel assembly and held-beam
  evaluation outweigh the sweep and the ray tracer is bypassed.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Workload", "WORKLOADS", "generate"]


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload and the commands of one pass."""

    name: str
    seed: int
    config: Path
    passes: tuple[tuple[str, ...], ...]  # CLI argv lists, run in order
    metrics_csv: Path
    snapshots: int  # grid snapshots simulated per pass
    trace_csv: Path | None = None  # trace the pass writes (room_trace)
    los_rows: tuple[bool, ...] | None = None  # expected LOS flag per row, when known up front


def _num(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return "[" + ", ".join(_num(x) for x in v) + "]"


_LINK = """\
carrier_hz: 28.0e+9
bandwidth_hz: {bandwidth}
subbands: {subbands}
txpower_dbm: {txpower}
noise_figure_db: 5.0
offered_bps: 122.0e+6
overhead: 0.14
training_period_s: {training}
snapshot_dt_s: {dt}
duration_s: {duration}

tx_array: {{rows: {tx_rows}, cols: {tx_cols}, spacing: 0.5, bearing_deg: 0.0}}
rx_array: {{rows: 4, cols: 4, spacing: 0.5, bearing_deg: 0.0}}

tx_codebook:
  {{az_min: {tx_az_min}, az_max: {tx_az_max}, az_step: {tx_az_step},
   zen_min: 60.0, zen_max: 120.0, zen_step: 10.0}}
rx_codebook:
  {{az_min: -180.0, az_max: 170.0, az_step: 10.0,
   zen_min: 60.0, zen_max: 120.0, zen_step: 10.0}}
"""

# Corner-sized link: 16x16 tx, 4x4 rx, 252x252 beams (the shipped corner.cfg).
_CORNER_CODEBOOK = dict(tx_rows=16, tx_cols=16, tx_az_min=-180.0, tx_az_max=170.0, tx_az_step=10.0)


WORKERS = 1  # --workers > 1 is not measured


def _simulate(cfg: Path, out: Path, trace: Path | None = None) -> tuple[str, ...]:
    argv = ["simulate", "--config", str(cfg), "--out", str(out), "--workers", str(WORKERS)]
    if trace is not None:
        argv[3:3] = ["--trace", str(trace)]
    return tuple(argv)


def arc_wide(seed: int, workdir: Path) -> Workload:
    """etoile_wide: 91 snapshots on a seeded arc, sweep on every snapshot."""
    rng = random.Random(f"arc_wide:{seed}")
    angle0 = rng.uniform(-3.0, 3.0)
    radius = rng.uniform(45.0, 65.0)
    text = _LINK.format(
        bandwidth="100.0e+6", subbands=8, txpower=30.0, training=0.1, dt=0.1, duration=9.0,
        tx_rows=16, tx_cols=128, tx_az_min=0.0, tx_az_max=90.0, tx_az_step=1.0,
    ) + (
        "\ntx_trajectory: {kind: static, position: [0.0, 0.0, 10.0]}\n"
        "rx_trajectory:\n"
        f"  {{kind: circular, center: [0.0, 0.0, 1.5], radius: {_num(radius)},\n"
        f"   angle0_deg: {_num(angle0)}, rate_deg_s: 10.0}}\n"
    )
    cfg = workdir / "arc_wide.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = workdir / "arc_wide_metrics.csv"
    return Workload(
        "arc_wide", seed, cfg, (_simulate(cfg, out),), out, 91,
        los_rows=(True,) * 91,
    )


ROOM_SNAPSHOTS = 5


def _box(lo, hi) -> list[dict]:
    """The six inner faces of an axis-aligned box."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    lx, ly, lz = x1 - x0, y1 - y0, z1 - z0
    return [
        dict(corner=(x0, y0, z0), edge_u=(lx, 0, 0), edge_v=(0, ly, 0)),  # floor
        dict(corner=(x0, y0, z1), edge_u=(lx, 0, 0), edge_v=(0, ly, 0)),  # ceiling
        dict(corner=(x0, y0, z0), edge_u=(0, ly, 0), edge_v=(0, 0, lz)),  # x = x0
        dict(corner=(x1, y0, z0), edge_u=(0, ly, 0), edge_v=(0, 0, lz)),  # x = x1
        dict(corner=(x0, y0, z0), edge_u=(lx, 0, 0), edge_v=(0, 0, lz)),  # y = y0
        dict(corner=(x0, y1, z0), edge_u=(lx, 0, 0), edge_v=(0, 0, lz)),  # y = y1
    ]


def room_trace(seed: int, workdir: Path) -> Workload:
    """Closed room plus a partition; the receiver walks out of its shadow.

    The partition stands at x = Lx/2 and spans y in [0, Ly/2] at full
    height; its free vertical edge (edge 1) diffracts. The transmitter sits
    at (0.2 Lx, 0.25 Ly); the receiver walks along x = 0.75 Lx from about
    0.15 Ly to 0.95 Ly, so the first snapshots are shadowed (diffraction
    plus reflections) and the last ones see the transmitter directly. The
    shadow ends near y = 0.71 Ly whatever the seed, so all three mechanisms
    appear on every seed.
    """
    rng = random.Random(f"room_trace:{seed}")
    lx = 10.0 * rng.uniform(0.9, 1.1)
    ly = 8.0 * rng.uniform(0.9, 1.1)
    lz = 3.0 * rng.uniform(0.9, 1.1)
    y_start = ly * rng.uniform(0.12, 0.18)
    y_end = ly * rng.uniform(0.92, 0.97)
    dt = 0.5
    duration = dt * (ROOM_SNAPSHOTS - 1)
    faces = _box((0.0, 0.0, 0.0), (lx, ly, lz))
    faces.append(
        dict(corner=(lx / 2, 0.0, 0.0), edge_u=(0.0, ly / 2, 0.0), edge_v=(0.0, 0.0, lz),
             diffracting_edges=[1])
    )
    lines = ["environment:", "  rectangles:"]
    for f in faces:
        extra = ", diffracting_edges: [1]" if "diffracting_edges" in f else ""
        lines.append(
            f"    - {{corner: {_vec(f['corner'])}, edge_u: {_vec(f['edge_u'])}, "
            f"edge_v: {_vec(f['edge_v'])}, gamma: 0.6{extra}}}"
        )
    text = _LINK.format(
        bandwidth="100.0e+6", subbands=8, txpower=-20.0, training=dt, dt=dt, duration=duration,
        **_CORNER_CODEBOOK,
    ) + (
        "\nmax_reflection_order: 4\n"
        + "\n".join(lines) + "\n"
        + f"tx_trajectory: {{kind: static, position: {_vec((0.2 * lx, 0.25 * ly, 0.8 * lz))}}}\n"
        + "rx_trajectory:\n"
        + f"  {{kind: linear, start: {_vec((0.75 * lx, y_start, 1.5))},\n"
        + f"   velocity: {_vec((0.0, (y_end - y_start) / duration, 0.0))}}}\n"
    )
    cfg = workdir / "room_trace.cfg"
    cfg.write_text(text, encoding="utf-8")
    trace = workdir / "room_trace_paths.csv"
    out = workdir / "room_trace_metrics.csv"
    return Workload(
        "room_trace", seed, cfg,
        (("generate-trace", "--config", str(cfg), "--out", str(trace)), _simulate(cfg, out, trace)),
        out, ROOM_SNAPSHOTS, trace_csv=trace,
    )


DENSE_SNAPSHOTS = 121
DENSE_PATHS = 64
DENSE_DT = 0.05
DENSE_LOS_UNTIL = 60  # snapshots 0..59 carry a LOS path, later ones a diffracted one
TRACE_COLUMNS = (
    "t", "tx_id", "rx_id", "path_id", "path_type", "delay_s", "gain_mag", "phase_rad",
    "aod_az_deg", "aod_zen_deg", "aoa_az_deg", "aoa_zen_deg",
)


def _wrap_az(az: float) -> float:
    az = (az + 180.0) % 360.0 - 180.0
    return -180.0 if az >= 180.0 else az


def _wrap_phase(p: float) -> float:
    return (p + math.pi) % (2.0 * math.pi) - math.pi


def dense_trace_rows(seed: int) -> list[list[str]]:
    """121 snapshots x 64 paths whose angles, delays and phases drift smoothly."""
    rng = random.Random(f"dense_replay:{seed}")
    paths = []
    for p in range(DENSE_PATHS):
        strong = p == 0
        paths.append(dict(
            delay=(60e-9 if strong else rng.uniform(80e-9, 500e-9)),
            gain_db=(-95.0 if strong else -rng.uniform(102.0, 125.0)),
            phase=rng.uniform(-math.pi, math.pi),
            aod=(rng.uniform(-180.0, 180.0), rng.uniform(70.0, 110.0)),
            aoa=(rng.uniform(-180.0, 180.0), rng.uniform(70.0, 110.0)),
            rate=(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)),
            doppler=rng.uniform(-300.0, 300.0),
        ))
    rows = []
    for k in range(DENSE_SNAPSHOTS):
        t = k * DENSE_DT
        for p, q in enumerate(paths):
            if p == 0:
                ptype, gain_db = ("LOS", q["gain_db"]) if k < DENSE_LOS_UNTIL else ("DIFF", q["gain_db"] - 25.0)
            else:
                ptype, gain_db = "REFL", q["gain_db"]
            rows.append([
                _num(t), "0", "1", str(p), ptype,
                _num(q["delay"] + 1e-9 * t),
                _num(10.0 ** (gain_db / 20.0)),
                _num(_wrap_phase(q["phase"] + 2.0 * math.pi * q["doppler"] * t)),
                _num(_wrap_az(q["aod"][0] + q["rate"][0] * t)), _num(q["aod"][1]),
                _num(_wrap_az(q["aoa"][0] + q["rate"][1] * t)), _num(q["aoa"][1]),
            ])
    return rows


def dense_replay(seed: int, workdir: Path) -> Workload:
    """Replay of a dense synthetic trace; training every 30th snapshot."""
    trace = workdir / "dense_replay_paths.csv"
    with open(trace, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(dense_trace_rows(seed))
    text = _LINK.format(
        bandwidth="400.0e+6", subbands=64, txpower=-8.0, training=30 * DENSE_DT, dt=DENSE_DT,
        duration=(DENSE_SNAPSHOTS - 1) * DENSE_DT, **_CORNER_CODEBOOK,
    ) + f"\ntrace_path: {trace.name}\n"
    cfg = workdir / "dense_replay.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = workdir / "dense_replay_metrics.csv"
    return Workload(
        "dense_replay", seed, cfg, (_simulate(cfg, out, trace),), out, DENSE_SNAPSHOTS,
        los_rows=tuple(k < DENSE_LOS_UNTIL for k in range(DENSE_SNAPSHOTS)),
    )


WORKLOADS = {"arc_wide": arc_wide, "room_trace": room_trace, "dense_replay": dense_replay}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    return WORKLOADS[name](seed, Path(workdir))
