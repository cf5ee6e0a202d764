"""Ray-trace oracle: geometry, amplitudes, and trace generation."""

import hashlib
import importlib.util
import itertools
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import raytrace_oracle
from conftest import snapshot_groups

from tracechan import (
    Environment,
    PathType,
    Rectangle,
    RtScenario,
    fresnel_parameter,
    generate_trace,
    knife_edge_loss_db,
    linear_trajectory,
    static_trajectory,
    validate_trace,
)
from tracechan import raytrace
from tracechan.cli import main
from tracechan.scenario import build_rt_scenario, load_config
from tracechan.trajectory import time_grid
from tracechan.traces import trace_to_text

F_C = 28e9
LAM = 299792458.0 / F_C

P_TX = np.array([0.0, 0.0, 1.0])
P_RX = np.array([10.0, 0.0, 1.0])

WALL_Y5 = Rectangle([-10.0, 5.0, 0.0], [30.0, 0.0, 0.0], [0.0, 0.0, 10.0])


def _paths(p_tx, p_rx, env, order=4, kind=None):
    """The paths generate_trace emits for one geometry, reflections traced up
    to order; only those of PathType kind when given."""
    p_tx, p_rx = np.asarray(p_tx, dtype=float), np.asarray(p_rx, dtype=float)
    reflections = raytrace._reflections(p_tx[None], p_rx[None], env, order)
    paths = raytrace._snapshot_paths(p_tx, p_rx, env, F_C, reflections)
    return [p for p in paths if kind is None or p.path_type is kind]


def test_rectangle_validation():
    with pytest.raises(ValueError, match="parallel"):
        Rectangle([0, 0, 0], [1, 0, 0], [2, 0, 0])
    with pytest.raises(ValueError, match="gamma"):
        Rectangle([0, 0, 0], [1, 0, 0], [0, 1, 0], gamma=1.5)
    with pytest.raises(ValueError, match="edge"):
        Rectangle([0, 0, 0], [1, 0, 0], [0, 1, 0], diffracting_edges=(4,))
    with pytest.raises(ValueError, match=r"diffracting edges \(1, 1\) repeat an index"):
        Rectangle([0, 0, 0], [1, 0, 0], [0, 1, 0], diffracting_edges=[1, 1])
    # a non-finite vector would give the face a NaN normal
    with pytest.raises(ValueError, match="^corner must be finite$"):
        Rectangle([0, math.nan, 0], [1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="^edge_u must be finite$"):
        Rectangle([0, 0, 0], [math.inf, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="^edge_v must be finite$"):
        Rectangle([0, 0, 0], [1, 0, 0], [0, -math.inf, 0])
    # finite edges whose products overflow would give the same NaN normal
    with pytest.raises(ValueError, match="^edge_u and edge_v are too large"):
        Rectangle([0, 0, 0], [1e200, 0, 0], [0, 1e200, 0])
    with pytest.raises(ValueError, match="^edge_u and edge_v are too large"):
        Rectangle([0, 0, 0], [1e200, 0, 0], [0, 1e-200, 1.0])


def test_rectangle_edges_form_perimeter():
    rect = Rectangle([0, 0, 0], [2, 0, 0], [0, 0, 3])
    e0 = rect.edge_points(0)
    e3 = rect.edge_points(3)
    np.testing.assert_allclose(e0[0], [0, 0, 0])
    np.testing.assert_allclose(e0[1], [2, 0, 0])
    np.testing.assert_allclose(e3[0], [0, 0, 3])
    np.testing.assert_allclose(e3[1], [0, 0, 0])


def test_los_blocked_basic():
    blocker = Rectangle([2.0, -2.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0])
    env = Environment((blocker,))
    assert not _paths(P_TX, P_RX, env, 0, PathType.LOS)
    assert _paths(P_TX, np.array([-5.0, 0.0, 1.0]), env, 0, PathType.LOS)
    # endpoint resting on the plane does not occlude
    on_plane = np.array([2.0, 0.0, 1.0])
    assert _paths(on_plane, np.array([1.0, 0.0, 1.0]), Environment((blocker,)), 0, PathType.LOS)


def test_free_space_gain_and_delay():
    path = _paths(np.zeros(3), np.array([100.0, 0.0, 0.0]), Environment(), 0, PathType.LOS)[0]
    assert path is not None
    gain_db = 20.0 * math.log10(path.amp_scale * LAM / (4 * math.pi * path.length))
    assert gain_db == pytest.approx(-101.3909, abs=5e-4)
    assert path.length == 100.0
    # record-level check instead: build through the snapshot helper
    paths = _paths(np.zeros(3), np.array([100.0, 0.0, 0.0]), Environment())
    assert len(paths) == 1 and paths[0].path_type is PathType.LOS


def test_free_space_record_numbers():
    pos = {0: np.array([[0.0, 0, 0]]), 1: np.array([[100.0, 0, 0]])}
    scn = RtScenario(Environment(), F_C, np.zeros(1), pos, ((0, 1),))
    rec = generate_trace(scn).records[0]
    assert 20.0 * math.log10(rec.gain_mag) == pytest.approx(-101.3909, abs=5e-4)
    assert rec.delay == pytest.approx(333.564e-9, abs=1e-12)
    assert (rec.aod_az, rec.aod_zen) == (0.0, 90.0)
    assert (rec.aoa_az, rec.aoa_zen) == (-180.0, 90.0)
    # total phase at the carrier: -2 pi L / lambda, wrapped
    want = -2 * math.pi * 100.0 / LAM
    want = math.remainder(want, 2 * math.pi)
    assert rec.phase == pytest.approx(want, abs=1e-6)


def test_single_wall_reflection_geometry():
    env = Environment((WALL_Y5,))
    paths = _paths(P_TX, P_RX, env, 1, PathType.REFLECTION)
    assert len(paths) == 1
    p = paths[0]
    assert p.length == pytest.approx(math.sqrt(10**2 + 10**2), rel=1e-12)
    assert p.amp_scale == pytest.approx(0.7)
    # departure toward the bounce point at (5, 5, 1): azimuth 45 deg
    az = math.degrees(math.atan2(p.first_leg[1], p.first_leg[0]))
    assert az == pytest.approx(45.0, abs=1e-9)


def test_reflection_skipped_when_point_off_face():
    short_wall = Rectangle([-10.0, 5.0, 0.0], [12.0, 0.0, 0.0], [0.0, 0.0, 10.0])
    # face ends at x = 2; the specular point x = 5 misses it
    paths = _paths(P_TX, P_RX, Environment((short_wall,)), 1, PathType.REFLECTION)
    assert paths == []


def test_reflection_blocked_by_other_face():
    # the wall bounce leg tx -> (5, 5, 1) crosses y = 2 at (2, 2, 1)
    blocker = Rectangle([1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 10.0])
    env = Environment((WALL_Y5, blocker))
    paths = _paths(P_TX, P_RX, env, 1, PathType.REFLECTION)
    assert paths == []


def test_parallel_walls_multi_order():
    lo = Rectangle([-10.0, -5.0, 0.0], [40.0, 0.0, 0.0], [0.0, 0.0, 10.0])
    hi = Rectangle([-10.0, 5.0, 0.0], [40.0, 0.0, 0.0], [0.0, 0.0, 10.0])
    env = Environment((lo, hi))
    rx = np.array([20.0, 0.0, 1.0])
    paths = _paths(P_TX, rx, env, 4, PathType.REFLECTION)
    # two mirror sequences per order in a corridor
    assert len(paths) == 8
    lengths = sorted(p.length for p in paths)
    assert lengths[0] == pytest.approx(math.sqrt(20**2 + 10**2), rel=1e-12)
    assert any(
        L == pytest.approx(math.sqrt(20**2 + 20**2), rel=1e-12) for L in lengths
    )
    orders = sorted(round(math.log(p.amp_scale, 0.7)) for p in paths)
    assert orders == [1, 1, 2, 2, 3, 3, 4, 4]


def test_reflection_longer_than_los():
    env = Environment((WALL_Y5,))
    los = _paths(P_TX, P_RX, env, 0, PathType.LOS)[0]
    for p in _paths(P_TX, P_RX, env, kind=PathType.REFLECTION):
        assert p.length > los.length


def test_knife_edge_loss_values():
    assert knife_edge_loss_db(0.0) == pytest.approx(6.0329, abs=5e-4)
    assert knife_edge_loss_db(2.4) == pytest.approx(20.5393, abs=5e-4)
    assert knife_edge_loss_db(-0.78) == 0.0
    assert knife_edge_loss_db(-5.0) == 0.0
    # near-continuous at the knee: the step is a few thousandths of a dB
    assert knife_edge_loss_db(-0.78 + 1e-9) == pytest.approx(0.0, abs=0.01)
    # monotone increasing into shadow
    assert knife_edge_loss_db(3.0) > knife_edge_loss_db(1.0) > knife_edge_loss_db(0.0)


def test_fresnel_parameter_value():
    assert fresnel_parameter(1.0, 50.0, 50.0, 0.01) == pytest.approx(math.sqrt(8.0), rel=1e-12)
    assert fresnel_parameter(-1.0, 50.0, 50.0, 0.01) == pytest.approx(-math.sqrt(8.0), rel=1e-12)


SCREEN = Rectangle(
    [5.0, -20.0, 0.0], [0.0, 40.0, 0.0], [0.0, 0.0, 10.0],
    diffracting_edges=(2,),  # top edge at z = 10
)


def test_diffraction_only_when_blocked():
    env = Environment((SCREEN,))
    rx_high = np.array([10.0, 0.0, 25.0])  # ray clears the screen top
    assert _paths(P_TX, rx_high, env, 0, PathType.LOS)
    assert _paths(P_TX, rx_high, env, 0, PathType.DIFFRACTION) == []
    rx_low = np.array([10.0, 0.0, 1.0])
    paths = _paths(P_TX, rx_low, env, 0, PathType.DIFFRACTION)
    assert len(paths) == 1
    assert paths[0].path_type is PathType.DIFFRACTION


def test_diffraction_point_is_fermat_minimum():
    env = Environment((SCREEN,))
    rx = np.array([10.0, 3.0, 1.0])
    p = _paths(P_TX, rx, env, 0, PathType.DIFFRACTION)[0]
    apex = P_TX + p.first_leg
    assert apex[2] == pytest.approx(10.0, abs=1e-6)  # on the top edge
    e0, e1 = SCREEN.edge_points(2)
    edge_dir = (e1 - e0) / np.linalg.norm(e1 - e0)
    for eps in (-0.01, 0.01):
        moved = apex + eps * edge_dir
        perturbed = np.linalg.norm(moved - P_TX) + np.linalg.norm(rx - moved)
        assert perturbed >= p.length - 1e-12


def test_diffraction_loss_applied():
    env = Environment((SCREEN,))
    rx = np.array([10.0, 0.0, 1.0])
    p = _paths(P_TX, rx, env, 0, PathType.DIFFRACTION)[0]
    # deep shadow here: amp well below the J(0) half-plane value
    assert 0.0 < p.amp_scale < 10 ** (-6.0329 / 20.0)
    assert p.length >= np.linalg.norm(rx - P_TX)


def test_diffraction_grazing_edge_no_loss():
    # the marked face does not block; another face does. h goes negative and
    # for a clearly grazing edge the knife-edge loss vanishes.
    side = Rectangle(
        [5.0, -30.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0],
        diffracting_edges=(1,),  # vertical edge at y = -10, 10 m off the ray
    )
    blocker = Rectangle([5.0, -2.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0])
    env = Environment((side, blocker))
    rx = np.array([10.0, 0.0, 1.0])
    paths = _paths(P_TX, rx, env, 0, PathType.DIFFRACTION)
    assert len(paths) == 1
    assert paths[0].amp_scale == pytest.approx(1.0)


def test_reciprocity_swaps_departure_and_arrival():
    wall = Rectangle([2.0, 4.0, -3.0], [6.0, 0.5, 0.0], [0.0, 0.0, 12.0], gamma=0.6)
    screen = Rectangle(
        [4.0, -6.0, 0.0], [3.0, 12.0, 0.0], [0.0, 0.0, 7.0], diffracting_edges=(1, 3)
    )
    env = Environment((wall, screen))
    a = np.array([0.0, 0.3, 1.2])
    b = np.array([9.0, -0.4, 2.0])

    def records(p, q):
        pos = {0: np.array([p]), 1: np.array([q])}
        scn = RtScenario(env, F_C, np.zeros(1), pos, ((0, 1),))
        return sorted(generate_trace(scn).records, key=lambda r: (r.path_type.value, r.delay))

    fwd = records(a, b)
    rev = records(b, a)
    assert [r.path_type for r in fwd] == [r.path_type for r in rev]
    for f, r in zip(fwd, rev):
        assert f.delay == pytest.approx(r.delay, abs=1e-15)
        assert f.gain_mag == pytest.approx(r.gain_mag, rel=1e-9)
        assert f.phase == pytest.approx(r.phase, abs=1e-6)
        assert f.aod_az == pytest.approx(r.aoa_az, abs=1e-9)
        assert f.aod_zen == pytest.approx(r.aoa_zen, abs=1e-9)
        assert f.aoa_az == pytest.approx(r.aod_az, abs=1e-9)
        assert f.aoa_zen == pytest.approx(r.aod_zen, abs=1e-9)


def test_snapshot_mechanism_precedence():
    env = Environment((WALL_Y5,))
    paths = _paths(P_TX, P_RX, env)
    types = [p.path_type for p in paths]
    assert types[0] is PathType.LOS
    assert PathType.REFLECTION in types
    assert PathType.DIFFRACTION not in types  # LoS present, no diffraction emitted


def test_generated_trace_validates_clean():
    wall = Rectangle([10.0, 5.0, 0.0], [0.0, 55.0, 0.0], [0.0, 0.0, 20.0],
                     diffracting_edges=(3,))
    street = Rectangle([10.0, 5.0, 0.0], [50.0, 0.0, 0.0], [0.0, 0.0, 20.0])
    env = Environment((wall, street))
    times = time_grid(0.0, 0.5, 20)
    tx = static_trajectory([40.0, 0.0, 10.0], times)
    rx = linear_trajectory([7.0, 20.0, 1.5], [0.0, -1.5, 0.0], times)
    scn = RtScenario(env, F_C, times, {0: tx, 1: rx}, ((0, 1),))
    trace = generate_trace(scn)
    assert validate_trace(trace).ok
    for _, group in snapshot_groups(trace, 0, 1):
        assert [r.path_id for r in group] == list(range(len(group)))
        has_los = any(r.path_type is PathType.LOS for r in group)
        has_diff = any(r.path_type is PathType.DIFFRACTION for r in group)
        assert not (has_los and has_diff)


def test_scenario_validation():
    times = time_grid(0.0, 0.1, 5)
    p0 = static_trajectory([0, 0, 0], times)
    with pytest.raises(ValueError, match="no positions"):
        RtScenario(Environment(), F_C, times, {0: p0}, ((0, 1),))
    with pytest.raises(ValueError, match=r"node 1 must have shape \(5, 3\)"):
        RtScenario(Environment(), F_C, times, {0: p0, 1: np.zeros((4, 3))}, ((0, 1),))
    with pytest.raises(ValueError, match=r"must have shape \(2, 3\)"):
        RtScenario(Environment(), F_C, np.array([0.0, 1.0]), {0: np.zeros((3, 3))})
    with pytest.raises(ValueError, match=r"must have shape \(5, 3\)"):
        RtScenario(Environment(), F_C, times, {0: np.zeros(5)})
    with pytest.raises(ValueError, match="strictly increasing"):
        RtScenario(Environment(), F_C, np.array([0.0, 0.0]), {0: np.zeros((2, 3))})
    with pytest.raises(ValueError, match="strictly increasing"):
        RtScenario(Environment(), F_C, np.array([0.0, np.nan]), {0: np.zeros((2, 3))})
    with pytest.raises(ValueError, match="non-empty"):
        RtScenario(Environment(), F_C, np.array([]), {})
    # each of these would give a trace that parse_trace_text rejects, or a
    # trace with fewer mechanisms than asked for
    for carrier in (-F_C, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^carrier_hz must be finite and > 0"):
            RtScenario(Environment(), carrier, times, {0: p0})
    for bad in (math.nan, math.inf, -math.inf):
        moved = p0.copy()
        moved[2, 1] = bad
        with pytest.raises(ValueError, match="^positions of node 1 must be finite$"):
            RtScenario(Environment(), F_C, times, {0: p0, 1: moved}, ((0, 1),))
    with pytest.raises(ValueError, match="^max_reflection_order must be >= 0"):
        RtScenario(Environment(), F_C, times, {0: p0}, max_reflection_order=-3)
    # a trace holds node ids as ints in [0, 2**63); the parser rejects any
    # other, and the tracer would have written 1.5 as 1
    for node in (-1, 2**63, 1.5, True):
        with pytest.raises(ValueError, match=rf"^node id {node} is not an int in \[0, 2\*\*63\)$"):
            RtScenario(Environment(), F_C, times, {0: p0, node: p0}, ((0, node),))
        with pytest.raises(ValueError, match=rf"^link references node {node} with no positions$"):
            RtScenario(Environment(), F_C, times, {0: p0}, ((node, 0),))


def _rotation(quat):
    w, x, y, z = np.asarray(quat) / np.linalg.norm(quat)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _box_faces(dims):
    """(axis, plane offset) of the six inner faces of [0, dims]."""
    return [(axis, side * dims[axis]) for axis in range(3) for side in (0, 1)]


def _plane_rect(axis, offset, lo, hi, gamma=0.7, edges=()):
    """Rectangle in the plane x[axis] = offset spanning lo..hi on the other axes."""
    b, c = [k for k in range(3) if k != axis]
    corner = np.zeros(3)
    corner[axis], corner[b], corner[c] = offset, lo[0], lo[1]
    eu, ev = np.zeros(3), np.zeros(3)
    eu[b], ev[c] = hi[0] - lo[0], hi[1] - lo[1]
    return corner, eu, ev, gamma, edges


def _specular_point(tx, rx, axis, offset):
    """First-order reflection point of tx -> rx off the plane x[axis] = offset."""
    image = tx.copy()
    image[axis] = 2 * offset - tx[axis]
    s = (offset - rx[axis]) / (image[axis] - rx[axis])
    return rx + s * (image - rx)


def _specular_coord(rect, tx, rx):
    """Local coordinate a of the tx -> rect -> rx reflection point, computed as
    the scalar walk computes it."""
    d = raytrace_oracle._mirror(tx, rect) - rx
    t = float(rect.normal @ (rect.corner - rx)) / float(rect.normal @ d)
    return rect.local_coords(rx + t * d)[0]


def _crossing_coord(rect, p0, p1):
    """Local coordinate a where the scalar code finds segment p0..p1 crossing
    rect's plane; nan when it finds no crossing."""
    hit = raytrace_oracle._plane_crossing(p0, p1, rect)
    return math.nan if hit is None else rect.local_coords(hit[1])[0]


def _at_containment_limit(rect, coord, beyond=False):
    """Stretch edge_u by a few ulps so that coord(rect), a local coordinate
    along edge_u as the scalar code computes it, sits at the containment
    tolerance: the largest value inside it, or with beyond the smallest one
    outside it."""
    best, best_a = rect, math.inf if beyond else -math.inf
    for k in range(-16, 17):
        cand = Rectangle(rect.corner, rect.edge_u * (1.0 + k * 2.0**-52), rect.edge_v,
                         rect.gamma, rect.diffracting_edges)
        a = coord(cand)
        if (1.0 + 1e-9 < a < best_a) if beyond else (best_a < a <= 1.0 + 1e-9):
            best, best_a = cand, a
    return best


_unit = st.floats(0.05, 0.95)


@st.composite
def _rt_scenes(draw, max_sequences=600):
    """A box (some faces left out), partitions and nodes, rotated into place,
    traced to an order that keeps each order's face sequences at most
    max_sequences.

    Degenerate placements: a receiver on or within 1e-13 of a face plane, a
    tx-rx leg parallel to a face pair, a coplanar face whose edge passes
    through a specular point or puts it right at the containment tolerance
    (local coordinate 1 + 1e-9 as the scalar code computes it, or one step
    past it), a face whose edge a reflection leg crosses right at that
    tolerance, coplanar faces.
    """
    dims = np.array(draw(st.tuples(*[st.floats(2.0, 12.0)] * 3)))
    tx = dims * np.array(draw(st.tuples(_unit, _unit, _unit)))
    rxs = [dims * np.array(draw(st.tuples(_unit, _unit, _unit)))
           for _ in range(draw(st.integers(1, 3)))]
    box = _box_faces(dims)
    kept = draw(st.lists(st.integers(0, 5), unique=True, max_size=6))
    local = [_plane_rect(axis, off, (0.0, 0.0), [dims[k] for k in range(3) if k != axis])
             for axis, off in (box[i] for i in sorted(kept))]
    for _ in range(draw(st.integers(0, 2))):
        axis = draw(st.integers(0, 2))
        off = dims[axis] * draw(st.sampled_from([0.0, 1.0, 0.3, 0.5, 0.7]))
        other = [dims[k] for k in range(3) if k != axis]
        lo = [o * draw(st.floats(0.0, 0.6)) for o in other]
        hi = [o * draw(st.floats(0.65, 1.0)) for o in other]
        local.append(_plane_rect(axis, off, lo, hi, 0.5, draw(st.sampled_from([(), (1,), (0, 2)]))))
    kind = draw(st.sampled_from(
        ["plain", "rx_on_plane", "rx_near_plane", "parallel_leg", "edge_point"]
        + ["tol_edge"] * 3 + ["tol_leg"] * 3))
    beyond = draw(st.booleans())
    rx = rxs[0]
    axis, off = box[draw(st.integers(0, 5))]
    if kind == "rx_on_plane":
        rx[axis] = off
    elif kind == "rx_near_plane":
        rx[axis] = off + draw(st.sampled_from([-1e-13, 1e-13, 4e-16])) * dims[axis]
    elif kind == "parallel_leg":
        rx[axis] = tx[axis]
    elif kind in ("edge_point", "tol_edge"):
        point = _specular_point(tx, rx, axis, off)
        b, c = [k for k in range(3) if k != axis]
        b0 = point[b] * draw(st.floats(0.0, 0.8))
        reach = point[b] - b0
        if kind == "tol_edge":
            reach = reach / (1.0 + 1e-9)
        local.append(_plane_rect(axis, off, (b0, 0.0), (b0 + reach, dims[c]), 0.9))
    elif kind == "tol_leg":
        # the face (axis, off) reflects; a face across the leg from tx to its
        # specular point has its far edge through that leg
        wall = _plane_rect(axis, off, (0.0, 0.0), [dims[k] for k in range(3) if k != axis])
        cut_axis = [k for k in range(3) if k != axis][draw(st.integers(0, 1))]
        cut = tx + draw(st.floats(0.2, 0.8)) * (_specular_point(tx, rx, axis, off) - tx)
        b, c = [k for k in range(3) if k != cut_axis]
        b0 = cut[b] * draw(st.floats(0.0, 0.8))
        local += [wall, _plane_rect(cut_axis, cut[cut_axis], (b0, 0.0),
                                    (b0 + (cut[b] - b0) / (1.0 + 1e-9), dims[c]), 0.9)]
    rot = _rotation(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)
                         .filter(lambda q: np.linalg.norm(q) > 0.1)))
    if draw(st.booleans()):
        rot = np.eye(3)  # axis-aligned: exact zeros, exactly parallel legs
    origin = np.array(draw(st.tuples(*[st.floats(-30.0, 30.0)] * 3)))
    rects = [Rectangle(origin + rot @ c, rot @ u, rot @ v, g, e) for c, u, v, g, e in local]
    tx, rxs = origin + rot @ tx, [origin + rot @ p for p in rxs]
    if kind == "tol_edge":
        rects[-1] = _at_containment_limit(
            rects[-1], lambda r: _specular_coord(r, tx, rxs[0]), beyond)
    elif kind == "tol_leg":
        wall = rects[-2]
        point = raytrace_oracle._segment_hit(rxs[0], raytrace_oracle._mirror(tx, wall), wall)
        if point is not None:
            rects[-1] = _at_containment_limit(
                rects[-1], lambda r: _crossing_coord(r, tx, point[1]), beyond)
    env = Environment(tuple(rects))
    order = draw(st.integers(0, 4))
    n = len(env.rectangles)
    while order > 1 and n * (n - 1) ** (order - 1) > max_sequences:
        order -= 1  # keep the scalar oracle affordable
    return env, tx, rxs, order


def _path_bytes(path):
    return (
        path.path_type,
        np.float64(path.length).tobytes(),
        np.float64(path.amp_scale).tobytes(),
        path.first_leg.tobytes(),
        path.last_leg_back.tobytes(),
    )


@settings(max_examples=150, deadline=None)
@given(_rt_scenes(), st.sampled_from([64, 1024, raytrace._BATCH]))
def test_batched_tracer_matches_scalar_oracle(scene, batch):
    env, tx, rxs, order = scene
    # chunk edges fall mid-geometry; no division, overflow or NaN warning may escape
    with mock.patch.object(raytrace, "_BATCH", batch), np.errstate(
        divide="raise", over="raise", invalid="raise"
    ):
        paths = raytrace._reflections(np.tile(tx, (len(rxs), 1)), np.array(rxs), env, order)
        batched = [paths[paths.snapshot == g] for g in range(len(rxs))]
        snapshot = raytrace._snapshot_paths(tx, rxs[0], env, F_C, batched[0])
    for rx, paths in zip(rxs, batched):
        want = raytrace_oracle.trace_reflections(tx, rx, env, F_C, order)
        assert [_path_bytes(p) for p in paths] == [_path_bytes(p) for p in want]
    want = raytrace_oracle.trace_link_snapshot(tx, rxs[0], env, F_C, order)
    assert [_path_bytes(p) for p in snapshot] == [_path_bytes(p) for p in want]


def _batch_size(kind, env, order):
    """A _BATCH of the given kind for tracing env to order: 1, one that
    splits the face sequences of one geometry's top order, or the default."""
    n = len(env.rectangles)
    rows = n * (n - 1) ** (order - 1) if order else 1
    return {"one": 1, "split": max(2, rows // 2), "default": raytrace._BATCH}[kind]


_RAISE = dict(divide="raise", over="raise", invalid="raise")
_BATCH_KINDS = st.sampled_from(["one", "split", "default"])


@settings(max_examples=40, deadline=None)
@given(_rt_scenes(max_sequences=24), _BATCH_KINDS)
def test_moving_transmitter_matches_scalar_oracle(scene, kind):
    # the transmitter moves and comes back (A, B, A), seen over two links: the
    # tracer shares one image tree between the snapshots and links at A
    env, a, rxs, order = scene
    b = (a + rxs[0]) / 2.0
    positions = {0: np.array([a, b, a]), 1: np.array([rxs[0]] * 3),
                 2: np.array([rxs[-1], rxs[0], rxs[-1]])}
    assume(not any((positions[0] == positions[k]).all(axis=1).any() for k in (1, 2)))
    scenario = RtScenario(env, F_C, np.arange(3.0), positions, ((0, 1), (0, 2)), order)
    with mock.patch.object(raytrace, "_BATCH", _batch_size(kind, env, order)), np.errstate(**_RAISE):
        got = trace_to_text(generate_trace(scenario))
    assert got == trace_to_text(raytrace_oracle.generate_trace(scenario))


def test_many_face_scene_traces_in_bounded_memory():
    # a box room whose six walls are cut into four strips each: 24 faces,
    # 292,008 face sequences of order 4. The walk holds one chunk (about
    # 1 MiB) and the image tree only orders 1-3 (12,696 nodes); the top
    # order's images alone would take 6.7 MiB
    size = np.array([10.0, 8.0, 3.0])
    faces = []
    for axis in range(3):
        a, b = (i for i in range(3) if i != axis)
        u, v = np.eye(3)[a] * size[a] / 4.0, np.eye(3)[b] * size[b]
        for side, strip in itertools.product((0.0, 1.0), range(4)):
            faces.append(Rectangle(np.eye(3)[axis] * side * size[axis] + strip * u, u, v, 0.6))
    tx, rx = np.array([[2.1, 3.3, 1.7]]), np.array([[7.9, 5.2, 1.2]])
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    paths = raytrace._reflections(tx, rx, Environment(tuple(faces)), 4)
    peak = tracemalloc.get_traced_memory()[1] - start
    if not was_tracing:
        tracemalloc.stop()
    assert len(paths) > 0
    assert peak < 2 * 2**20


@pytest.mark.parametrize("kind", ["one", "split", "default"])
def test_scene_without_faces_matches_scalar_oracle(kind):
    times = time_grid(0.0, 0.5, 4)
    positions = {0: np.array([[0.0, 0.0, 10.0], [1.0, 0.0, 10.0]] * 2),
                 1: linear_trajectory([7.0, 20.0, 1.5], [0.0, -1.5, 0.0], times)}
    scenario = RtScenario(Environment(), F_C, times, positions, ((0, 1),))
    with mock.patch.object(raytrace, "_BATCH", _batch_size(kind, scenario.environment, 4)), \
            np.errstate(**_RAISE):
        got = generate_trace(scenario)
        assert len(raytrace._reflections(positions[0], positions[1], scenario.environment, 4)) == 0
    assert [r.path_type for r in got.records] == [PathType.LOS] * 4
    assert trace_to_text(got) == trace_to_text(raytrace_oracle.generate_trace(scenario))


@st.composite
def _blocked_links(draw):
    """A screen with two to four marked edges, maybe a second face whose
    marked edges have other lengths, and links that cross the screen inside
    it, all rotated into place."""
    a, b = draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0))
    edges = st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True)
    local = [([0.0, -a, 0.0], [0.0, 2.0 * a, 0.0], [0.0, 0.0, b], draw(edges))]
    if draw(st.booleans()):
        local.append(([draw(st.floats(-20.0, 20.0)), 0.0, -draw(st.floats(0.1, 30.0))],
                      [draw(st.floats(0.1, 40.0)), 0.0, 0.0], [0.0, draw(st.floats(0.1, 5.0)), 0.0],
                      draw(edges)))
    links = []
    for _ in range(draw(st.integers(2, 8))):
        hit = np.array([0.0, a * draw(st.floats(-0.95, 0.95)), b * draw(st.floats(0.05, 0.95))])
        way = np.array([draw(st.floats(0.2, 1.0)), draw(st.floats(-1.0, 1.0)),
                        draw(st.floats(-1.0, 1.0))])
        links += [(hit - draw(st.floats(0.5, 30.0)) * way, hit + draw(st.floats(0.5, 30.0)) * way)]
    rot = _rotation(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)
                         .filter(lambda q: np.linalg.norm(q) > 0.1)))
    origin = np.array(draw(st.tuples(*[st.floats(-30.0, 30.0)] * 3)))
    env = Environment(tuple(Rectangle(origin + rot @ np.array(c), rot @ np.array(u),
                                      rot @ np.array(v), 0.6, e) for c, u, v, e in local))
    place = [[origin + rot @ p for p in link] for link in links]
    return env, np.array([p for p, _ in place]), np.array([q for _, q in place])


@settings(max_examples=60, deadline=None)
@given(_blocked_links(), st.integers(0, 1), _BATCH_KINDS)
def test_lockstep_edge_search_matches_scalar_oracle(scene, order, kind):
    # every link is blocked and has a knife-edge path per marked edge, all of
    # them found by one lockstep search whose rows stop at different steps
    env, tx, rx = scene
    with mock.patch.object(raytrace, "_BATCH", _batch_size(kind, env, order)), np.errstate(**_RAISE):
        paths = raytrace._snapshot_paths(tx, rx, env, F_C, raytrace._reflections(tx, rx, env, order))
    marked = sum(len(r.diffracting_edges) for r in env.rectangles)
    assert (paths.path_type == PathType.DIFFRACTION).sum() == marked * len(tx)
    for g in range(len(tx)):
        want = raytrace_oracle.trace_link_snapshot(tx[g], rx[g], env, F_C, order)
        assert [_path_bytes(p) for p in paths[paths.snapshot == g]] == [_path_bytes(p) for p in want]


def _grazing_blocker():
    """A face in the plane y = 2 whose far edge the first leg of the WALL_Y5
    bounce (tx -> (5, 5, 1)) crosses as far out as the containment tolerance
    allows: the scalar code finds that leg occluded, by the tolerance alone."""
    point = raytrace_oracle._segment_hit(P_RX, raytrace_oracle._mirror(P_TX, WALL_Y5), WALL_Y5)[1]
    face = Rectangle([1.0, 2.0, 0.0], [1.0 / (1.0 + 1e-9), 0.0, 0.0], [0.0, 0.0, 10.0])
    face = _at_containment_limit(face, lambda r: _crossing_coord(r, P_TX, point))
    assert 1.0 < _crossing_coord(face, P_TX, point) <= 1.0 + 1e-9
    return face


def test_grazing_blocker_occludes_like_the_oracle():
    # the bounce alone is a path; the blocker occludes it by the containment
    # tolerance alone, in both tracers
    for env, count in ((Environment((WALL_Y5,)), 1),
                       (Environment((WALL_Y5, _grazing_blocker())), 0)):
        want = raytrace_oracle.trace_reflections(P_TX, P_RX, env, F_C, 1)
        got = raytrace._reflections(P_TX[None], P_RX[None], env, 1)
        assert len(want) == count
        assert [_path_bytes(p) for p in got] == [_path_bytes(p) for p in want]


_finite = st.floats(-1e100, 1e100, allow_subnormal=True)


@st.composite
def _dot_operands(draw):
    """(a, b): (R, 3) rows of finite floats across magnitudes, some of whose
    products nearly cancel."""
    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        scale = 10.0 ** draw(st.integers(-150, 50))
        x = [draw(_finite) * scale for _ in range(3)]
        y = [draw(_finite) for _ in range(3)]
        if draw(st.booleans()):
            # the first and last products cancel to within a few parts in 1e6
            x[2] = -x[0] * draw(st.floats(0.999999, 1.000001))
            y[2] = y[0]
        a.append(x)
        b.append(y)
    return np.array(a), np.array(b)


@given(_dot_operands())
def test_stacked_dot_is_the_scalar_dot(operands):
    # the tracer's arrays repeat the per-sequence arithmetic only because
    # each stacked product rounds as the 1-D a @ b of the same two rows does
    a, b = operands

    def bits(x):
        return np.asarray(x).tobytes()

    assert bits(raytrace._dot(a, b)) == bits([p @ q for p, q in zip(a, b)])
    grid = raytrace._dot(a[:, None, :], b[None, :, :])
    assert bits(grid) == bits([[p @ q for q in b] for p in a])
    assert bits(raytrace._dot(b, a[0])) == bits([q @ a[0] for q in b])
    assert bits(np.sqrt(raytrace._dot(a, a))) == bits([np.linalg.norm(p) for p in a])


@pytest.mark.parametrize("n_faces,order", [(1, 3), (2, 4), (3, 3), (5, 2)])
def test_face_sequences_follow_product_order(n_faces, order):
    want = [s for s in itertools.product(range(n_faces), repeat=order)
            if all(a != b for a, b in zip(s, s[1:]))]
    # each order's sequences are their parents followed by one face
    got, last = [()], np.array([n_faces])
    for k in range(1, order + 1):
        index = np.arange(n_faces * (n_faces - 1) ** (k - 1))
        parent, last = raytrace._children(index, k, n_faces, last)
        got = [got[p] + (f,) for p, f in zip(parent.tolist(), last.tolist())]
    assert got == want


def test_rectangle_caches_read_only_geometry():
    edge_u = np.array([3.0, 0.0, 0.0])
    rect = Rectangle([0.0, 0.0, 0.0], edge_u, [1.0, 0.0, 2.0])
    n = np.cross(rect.edge_u, rect.edge_v)
    assert rect.normal.tobytes() == (n / np.linalg.norm(n)).tobytes()
    for arr in (rect.normal, rect.corner, rect.edge_u, rect.edge_v):
        assert not arr.flags.writeable
    edge_u[0] = 5.0  # the caller's array stays its own
    assert rect.edge_u[0] == 3.0
    assert rect.local_coords(np.array([2.0, 0.0, 1.0])) == (0.5, 0.5)


def test_rectangle_value_equality_and_hash():
    def face(corner=(0.0, 0.0, 0.0), gamma=0.7, edges=(3,)):
        return Rectangle(list(corner), np.array([4.0, 0.0, 0.0]), (0.0, 0.0, 2.0), gamma, list(edges))

    a, b = face(), face()
    assert a == b and hash(a) == hash(b)
    assert face(corner=(0.0, 1e-9, 0.0)) != a
    assert face(gamma=0.5) != a and face(edges=(1,)) != a
    assert len({a, b, face(corner=(1.0, 0.0, 0.0))}) == 2
    other = face(corner=(0.0, 5.0, 0.0))
    env_a, env_b = Environment((a, other)), Environment((b, face(corner=(0.0, 5.0, 0.0))))
    assert env_a == env_b and hash(env_a) == hash(env_b)
    assert Environment((other, a)) != env_a


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _corner_variant(tmp_path, pattern, replacement):
    text = (CONFIGS / "corner.cfg").read_text(encoding="utf-8")
    text, count = re.subn(pattern, replacement, text, count=1, flags=re.DOTALL)
    assert count == 1
    path = tmp_path / "variant.cfg"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("variant", ["corner", "etoile", "etoile_wide", "no_faces", "order_0"])
def test_generate_trace_matches_scalar_oracle_on_configs(variant, tmp_path):
    if variant == "no_faces":
        path = _corner_variant(tmp_path, r"environment:.*?(?=tx_trajectory:)",
                               "environment:\n  rectangles: []\n\n")
    elif variant == "order_0":
        path = _corner_variant(tmp_path, r"environment:", "max_reflection_order: 0\nenvironment:")
    else:
        path = CONFIGS / f"{variant}.cfg"
    scenario = build_rt_scenario(load_config(path))
    if variant == "no_faces":
        assert scenario.environment.rectangles == ()
    if variant == "order_0":
        assert scenario.max_reflection_order == 0
    want = trace_to_text(raytrace_oracle.generate_trace(scenario))
    assert trace_to_text(generate_trace(scenario)) == want


PERFBENCH = CONFIGS.parent / "perfbench"
ROOM_REFERENCES = json.loads(
    (PERFBENCH / "references" / "room_trace.json").read_text(encoding="utf-8"))["seeds"]


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, which writes the benchmark's configs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", sorted(ROOM_REFERENCES, key=int))
def test_room_trace_trace_matches_its_benchmark_reference(workloads, seed, tmp_path):
    workload = workloads.generate("room_trace", int(seed), tmp_path)
    generate, _ = workload.passes
    assert generate[0] == "generate-trace"
    assert main(list(generate)) == 0
    digest = hashlib.sha256(workload.trace_csv.read_bytes()).hexdigest()
    assert digest == ROOM_REFERENCES[seed]["trace_sha256"]
