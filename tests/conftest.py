"""Shared helpers: record factory and a from-scratch channel reference."""

import cmath
import math
from pathlib import Path

import numpy as np
import yaml

from tracechan import BeamCodebook, MpcRecord, PathType

CORNER_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "corner.cfg")


def blocked_corner_config(path, **overrides):
    """corner.cfg without its diffracting edge and with reflections off.

    The receiver sees nothing until it turns the corner at t = 23.25 s, and
    the ray tracer writes no record for the 93 snapshots before. Returns the
    written path.
    """
    raw = yaml.safe_load(Path(CORNER_CFG).read_text())
    for rect in raw["environment"]["rectangles"]:
        rect.pop("diffracting_edges", None)
    raw.update(max_reflection_order=0, **overrides)
    path.write_text(yaml.safe_dump(raw))
    return path


def replay_config(path, geometry_cfg, trace):
    """geometry_cfg with its geometry replaced by trace_path: trace.

    The trajectories, environment and max_reflection_order go; the grid,
    arrays, codebooks and link budget stay. Returns the written path.
    """
    raw = yaml.safe_load(Path(geometry_cfg).read_text())
    for key in ("tx_trajectory", "rx_trajectory", "environment", "max_reflection_order"):
        raw.pop(key, None)
    raw["trace_path"] = str(trace)
    path.write_text(yaml.safe_dump(raw))
    return path


def mk_record(
    t=0.0,
    tx_id=0,
    rx_id=1,
    path_id=0,
    path_type=PathType.LOS,
    delay=100.0 / 299792458.0,
    gain_mag=1.0,
    phase=0.0,
    aod_az=0.0,
    aod_zen=90.0,
    aoa_az=-180.0,
    aoa_zen=90.0,
):
    return MpcRecord(
        t=t, tx_id=tx_id, rx_id=rx_id, path_id=path_id, path_type=path_type,
        delay=delay, gain_mag=gain_mag, phase=phase,
        aod_az=aod_az, aod_zen=aod_zen, aoa_az=aoa_az, aoa_zen=aoa_zen,
    )


def dft_codebook(scale3=1.0):
    """Four beams over a 1 x 4 array, beam b's column factors i^(b c) and its row
    factor 1 (scale3 for beam 3): exact, so each norm is exact too."""
    quarter = (1, 1j, -1, -1j)
    cols = np.array([[quarter[b * c % 4] for c in range(4)] for b in range(4)], dtype=complex)
    rows = np.array([[1.0], [1.0], [1.0], [scale3]], dtype=complex)
    return BeamCodebook([0.0, 30.0, 90.0, -30.0], [90.0] * 4, rows, cols)


def snapshot_groups(trace, tx_id, rx_id):
    """One link's snapshots as (time, rows) pairs in time order.

    The rows are the trace index's run for that snapshot, so they view the
    link's rows in file order; an unknown link has none.
    """
    rows, bounds, times, links = trace._index
    first, stop = links.get((tx_id, rx_id), (0, 0))
    return [(t, rows[lo:hi]) for t, lo, hi in
            zip(times[first:stop].tolist(), bounds[first:stop], bounds[first + 1:stop + 1])]


def _unit(az_deg, zen_deg):
    az, zen = math.radians(az_deg), math.radians(zen_deg)
    return (
        math.sin(zen) * math.cos(az),
        math.sin(zen) * math.sin(az),
        math.cos(zen),
    )


def _positions(rows, cols, wavelength, spacing, bearing_deg):
    # row-major (r outer, c inner); element (r, c) at (0, c*pitch, r*pitch),
    # then rotated about z by the bearing
    pitch = spacing * wavelength
    b = math.radians(bearing_deg)
    cb, sb = math.cos(b), math.sin(b)
    out = []
    for r in range(rows):
        for c in range(cols):
            x, y, z = 0.0, c * pitch, r * pitch
            out.append((cb * x - sb * y, sb * x + cb * y, z))
    return out


def reference_channel(records, tx_shape, rx_shape, spacing, bearings, grid):
    """Scalar-math channel build, independent of the library internals.

    Returns a nested list H[k][u][s]. tx_shape/rx_shape are (rows, cols);
    bearings is (tx_bearing_deg, rx_bearing_deg).
    """
    lam = 299792458.0 / grid.carrier_hz
    k0 = 2.0 * math.pi / lam
    K = grid.n_subbands
    offsets = [
        (k + 0.5) * grid.bandwidth_hz / K - grid.bandwidth_hz / 2.0 for k in range(K)
    ]
    p_tx = _positions(tx_shape[0], tx_shape[1], lam, spacing, bearings[0])
    p_rx = _positions(rx_shape[0], rx_shape[1], lam, spacing, bearings[1])
    n_tx, n_rx = len(p_tx), len(p_rx)
    H = [[[0j for _ in range(n_tx)] for _ in range(n_rx)] for _ in range(K)]
    for rec in records:
        a_tx = [
            cmath.exp(1j * k0 * sum(p * d for p, d in zip(pos, _unit(rec.aod_az, rec.aod_zen))))
            for pos in p_tx
        ]
        a_rx = [
            cmath.exp(1j * k0 * sum(p * d for p, d in zip(pos, _unit(rec.aoa_az, rec.aoa_zen))))
            for pos in p_rx
        ]
        base = rec.gain_mag * cmath.exp(1j * rec.phase)
        for k in range(K):
            ck = base * cmath.exp(-1j * 2.0 * math.pi * offsets[k] * rec.delay)
            for u in range(n_rx):
                for s in range(n_tx):
                    H[k][u][s] += ck * a_rx[u] * a_tx[s].conjugate()
    return H
