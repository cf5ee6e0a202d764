"""The scalar tracer that the array one in tracechan.raytrace replaced.

trace_reflections, trace_diffraction, trace_link_snapshot and generate_trace
are the per-sequence, per-snapshot implementations as they stood before the
batched filter, kept verbatim as the reference the tests compare against:
the array tracer must give the same paths in the same order, bit for bit.
The scalar image-method helpers (_plane_crossing, _segment_hit,
_segment_occluded, _mirror), the per-edge ternary search
(_min_path_point_on_edge), the path type _RawPath and the record code
(_los_path, _record_from_path and the field and angle functions) are kept
here verbatim too, so that the reference does not run the code it checks.
It shares only the tolerances, the face type and the knife-edge formulas
(fresnel_parameter, knife_edge_loss_db).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from tracechan.channel import SPEED_OF_LIGHT
from tracechan.raytrace import (
    _EPS,
    _PARALLEL,
    Environment,
    Rectangle,
    RtScenario,
    fresnel_parameter,
    knife_edge_loss_db,
)
from tracechan.traces import MpcRecord, PathType, TraceSet


def _plane_crossing(
    p0: np.ndarray, p1: np.ndarray, rect: Rectangle
) -> tuple[float, np.ndarray] | None:
    """(t, point) where the open segment crosses the face's plane.

    Endpoint touches are excluded, and the point is not tested against the
    rectangle: that is `_segment_hit`.
    """
    d = p1 - p0
    n = rect.normal
    denom = float(n @ d)
    if abs(denom) < _PARALLEL:
        return None  # parallel or in-plane: no crossing
    t = float(n @ (rect.corner - p0)) / denom
    if t <= _EPS or t >= 1.0 - _EPS:
        return None
    return t, p0 + t * d


def _segment_hit(
    p0: np.ndarray, p1: np.ndarray, rect: Rectangle
) -> tuple[float, np.ndarray] | None:
    """Open-segment vs rectangle crossing; endpoint touches excluded."""
    hit = _plane_crossing(p0, p1, rect)
    if hit is not None and rect.contains(hit[1]):
        return hit
    return None


def _segment_occluded(
    p0: np.ndarray, p1: np.ndarray, env: Environment
) -> bool:
    return any(_segment_hit(p0, p1, r) is not None for r in env.rectangles)


def _angles_deg(vec: np.ndarray) -> tuple[float, float]:
    """(azimuth, zenith) of a direction vector, degrees; az in [-180, 180)."""
    norm = float(np.linalg.norm(vec))
    az = math.degrees(math.atan2(vec[1], vec[0]))
    if az >= 180.0:
        az = -180.0
    zen = math.degrees(math.acos(max(-1.0, min(1.0, vec[2] / norm))))
    return az, zen


def _wrap_phase(phase: float) -> float:
    """Principal value in [-pi, pi)."""
    out = math.fmod(phase + math.pi, 2.0 * math.pi)
    if out < 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def _path_fields(length: float, f_c_hz: float) -> tuple[float, float, float]:
    """(delay, free-space amplitude gain, carrier phase) for a path length."""
    lam = SPEED_OF_LIGHT / f_c_hz
    return length / SPEED_OF_LIGHT, lam / (4.0 * math.pi * length), _wrap_phase(
        -2.0 * math.pi * length / lam
    )


@dataclass(frozen=True)
class _RawPath:
    """Geometry-only path description before record numbering."""

    path_type: PathType
    length: float
    amp_scale: float  # reflection/diffraction amplitude factor on top of free space
    first_leg: np.ndarray  # direction of departure (not normalized)
    last_leg_back: np.ndarray  # from receiver toward last interaction


def _los_path(p_tx: np.ndarray, p_rx: np.ndarray) -> _RawPath:
    d = p_rx - p_tx
    return _RawPath(PathType.LOS, float(np.linalg.norm(d)), 1.0, d, -d)


def _mirror(point: np.ndarray, rect: Rectangle) -> np.ndarray:
    n = rect.normal
    return point - 2.0 * float(n @ (point - rect.corner)) * n


def _record_from_path(
    raw: _RawPath, t: float, tx_id: int, rx_id: int, path_id: int, f_c_hz: float
) -> MpcRecord:
    delay, friis, phase = _path_fields(raw.length, f_c_hz)
    aod_az, aod_zen = _angles_deg(raw.first_leg)
    aoa_az, aoa_zen = _angles_deg(raw.last_leg_back)
    return MpcRecord(
        t=t,
        tx_id=tx_id,
        rx_id=rx_id,
        path_id=path_id,
        path_type=raw.path_type,
        delay=delay,
        gain_mag=friis * raw.amp_scale,
        phase=phase,
        aod_az=aod_az,
        aod_zen=aod_zen,
        aoa_az=aoa_az,
        aoa_zen=aoa_zen,
    )


def trace_reflections(
    p_tx: np.ndarray,
    p_rx: np.ndarray,
    env: Environment,
    f_c_hz: float,
    max_order: int = 4,
) -> list[_RawPath]:
    """Specular paths via the image method, orders 1..max_order.

    A candidate rectangle sequence is valid when every reflection point lands
    inside its rectangle and every leg of the unfolded path clears all faces
    (touching a face at a leg endpoint does not occlude).
    """
    p_tx = np.asarray(p_tx, dtype=float)
    p_rx = np.asarray(p_rx, dtype=float)
    rects = env.rectangles
    paths: list[_RawPath] = []
    for order in range(1, max_order + 1):
        for seq in itertools.product(range(len(rects)), repeat=order):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue  # same plane twice in a row cannot produce a bounce
            images = []
            img = p_tx
            for idx in seq:
                img = _mirror(img, rects[idx])
                images.append(img)
            # walk backward from the receiver through the image chain
            points: list[np.ndarray] = []
            q = p_rx
            valid = True
            for idx, img in zip(reversed(seq), reversed(images)):
                hit = _segment_hit(q, img, rects[idx])
                if hit is None:
                    valid = False
                    break
                q = hit[1]
                points.append(q)
            if not valid:
                continue
            points.reverse()
            legs = [p_tx, *points, p_rx]
            if any(
                _segment_occluded(a, b, env) for a, b in zip(legs, legs[1:])
            ):
                continue
            length = float(sum(np.linalg.norm(b - a) for a, b in zip(legs, legs[1:])))
            gamma = math.prod(rects[i].gamma for i in seq)
            paths.append(
                _RawPath(
                    PathType.REFLECTION,
                    length,
                    gamma,
                    legs[1] - legs[0],
                    legs[-2] - legs[-1],
                )
            )
    return paths

def _min_path_point_on_edge(
    p_tx: np.ndarray, p_rx: np.ndarray, e0: np.ndarray, e1: np.ndarray
) -> np.ndarray:
    """Point on segment e0..e1 minimizing |tx-P| + |P-rx| (ternary search).

    The objective is convex in the edge parameter; iteration runs until the
    bracketing interval is below 1e-9 m along the edge. The path length is
    flat at its minimum, so comparisons stop resolving the point well before
    that: it can sit about 1e-6 m from the true minimizer, while its path
    length agrees with the minimum to about 1e-14 m.
    """
    edge = e1 - e0
    edge_len = float(np.linalg.norm(edge))

    def path_len(s: float) -> float:
        p = e0 + s * edge
        return float(np.linalg.norm(p - p_tx) + np.linalg.norm(p_rx - p))

    lo, hi = 0.0, 1.0
    while (hi - lo) * edge_len > 1e-9:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if path_len(m1) < path_len(m2):
            hi = m2
        else:
            lo = m1
    return e0 + 0.5 * (lo + hi) * edge


def trace_diffraction(
    p_tx: np.ndarray, p_rx: np.ndarray, env: Environment, f_c_hz: float
) -> list[_RawPath]:
    """Single knife-edge paths over marked edges; only for blocked links."""
    p_tx = np.asarray(p_tx, dtype=float)
    p_rx = np.asarray(p_rx, dtype=float)
    if not _segment_occluded(p_tx, p_rx, env):
        return []
    lam = SPEED_OF_LIGHT / f_c_hz
    los_dir = p_rx - p_tx
    los_dir = los_dir / np.linalg.norm(los_dir)
    paths: list[_RawPath] = []
    for rect in env.rectangles:
        owner_blocks = _segment_hit(p_tx, p_rx, rect) is not None
        for edge_idx in rect.diffracting_edges:
            e0, e1 = rect.edge_points(edge_idx)
            point = _min_path_point_on_edge(p_tx, p_rx, e0, e1)
            d1 = float(np.linalg.norm(point - p_tx))
            d2 = float(np.linalg.norm(p_rx - point))
            # clearance of the edge over the direct line; positive when the
            # owning face shadows the link, negative when it merely grazes
            h = float(np.linalg.norm(np.cross(point - p_tx, los_dir)))
            if not owner_blocks:
                h = -h
            nu = fresnel_parameter(h, d1, d2, lam)
            loss = 10.0 ** (-knife_edge_loss_db(nu) / 20.0)
            paths.append(
                _RawPath(
                    PathType.DIFFRACTION,
                    d1 + d2,
                    loss,
                    point - p_tx,
                    point - p_rx,
                )
            )
    return paths


def trace_link_snapshot(
    p_tx: np.ndarray,
    p_rx: np.ndarray,
    env: Environment,
    f_c_hz: float,
    max_order: int = 4,
) -> list[_RawPath]:
    """All mechanisms for one geometry: LOS, reflections, then diffraction."""
    p_tx = np.asarray(p_tx, dtype=float)
    p_rx = np.asarray(p_rx, dtype=float)
    paths: list[_RawPath] = []
    los = None if _segment_occluded(p_tx, p_rx, env) else _los_path(p_tx, p_rx)
    if los is not None:
        paths.append(los)
    paths.extend(trace_reflections(p_tx, p_rx, env, f_c_hz, max_order))
    if los is None:
        paths.extend(trace_diffraction(p_tx, p_rx, env, f_c_hz))
    return paths


def generate_trace(scenario: RtScenario) -> TraceSet:
    """Trace every link of the scenario over its snapshot grid.

    Output passes validation by construction: snapshot times are strictly
    increasing, path_ids are fresh per snapshot, and at most one LOS record
    exists per snapshot.
    """
    records: list[MpcRecord] = []
    times = scenario.times
    for k in range(times.size):
        t = float(times[k])
        for tx_id, rx_id in scenario.links:
            p_tx = scenario.positions[tx_id][k]
            p_rx = scenario.positions[rx_id][k]
            raw_paths = trace_link_snapshot(
                p_tx, p_rx, scenario.environment, scenario.carrier_hz,
                scenario.max_reflection_order,
            )
            for pid, raw in enumerate(raw_paths):
                records.append(
                    _record_from_path(raw, t, tx_id, rx_id, pid, scenario.carrier_hz)
                )
    return TraceSet(tuple(records))
