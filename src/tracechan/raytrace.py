"""Deterministic image-method ray tracer for desk-scale scenes.

Produces multipath traces from first principles so that the rest of the
pipeline can be exercised against geometry with known answers. Mechanisms:
line of sight, specular reflections off planar rectangles up to a configurable
order (image method), and single knife-edge diffraction at marked rectangle
edges, emitted only while the direct path is blocked.

Reflections are traced as arrays: every (snapshot, face sequence) row of one
reflection order at once, in chunks of bounded size. Each chunk builds the
image chain, walks back from the receiver to find the reflection points, and
tests every leg of the unfolded path against every face, dropping the rows
that fail after each step. A step is the per-sequence image method's test
as it stands, with its tolerances. Every dot product goes through `_dot`, a
stacked matmul, which takes the same dot kernel as the 1-D `a @ b` of two
3-vectors, so the arrays carry the per-sequence arithmetic bit for bit and
traces are byte-identical to those of a per-sequence tracer. The LOS test
uses the same crossing test. Paths are held as record arrays, and
`generate_trace` writes the trace's columns from them; only the angles are
computed per path, in `math`, since numpy's vectorized transcendentals may
round differently from libm.

Amplitude model: free-space spreading lambda/(4 pi d) on the unfolded path
length, one real reflection coefficient per bounce, and the standard
knife-edge loss J(nu) for diffraction. Phase is -2 pi L / lambda wrapped to
[-pi, pi). This is an oracle, not a production EM solver: rectangles are
two-sided, materials are frequency-flat, and no polarization is modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike

from .channel import SPEED_OF_LIGHT
from .traces import PathType, TraceSet, _frozen

__all__ = [
    "Rectangle",
    "Environment",
    "RtScenario",
    "knife_edge_loss_db",
    "fresnel_parameter",
    "generate_trace",
]

_EPS = 1e-9  # segment-parameter slack: endpoints touching a surface do not block
_CONTAINS_TOL = 1e-9  # Rectangle.contains slack, in units of the edge vectors
_PARALLEL = 1e-15  # |normal . segment| below this: parallel or in-plane, no crossing
_BATCH = 1 << 13  # (row, face) pairs per reflection chunk; bounds its memory

# One path per record: its mechanism, the index of its snapshot geometry, its
# unfolded length, amplitude factor on top of free space, direction of
# departure and direction from the receiver toward the last interaction (both
# not normalized).
_PATH = np.dtype([
    ("path_type", object), ("snapshot", np.intp), ("length", float), ("amp_scale", float),
    ("first_leg", float, 3), ("last_leg_back", float, 3),
])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Rectangle:
    """Planar parallelogram face: corner plus two edge vectors, meters.

    gamma is the real amplitude reflection coefficient in [0, 1].
    diffracting_edges marks perimeter edges by index, each at most once:
    0 = corner..corner+u, 1 = corner+u..corner+u+v, 2 = corner+u+v..corner+v,
    3 = corner+v..corner.
    The vectors are stored as read-only copies, so the unit normal and the
    Gram terms of (edge_u, edge_v), computed once here, cannot go stale.
    Faces compare and hash by value: the three vectors, gamma and
    diffracting_edges.
    """

    corner: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    gamma: float = 0.7
    diffracting_edges: tuple[int, ...] = ()
    normal: np.ndarray = field(init=False, repr=False, compare=False)
    _gram: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("corner", "edge_u", "edge_v"):
            vec = _read_only(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "diffracting_edges", tuple(self.diffracting_edges))
        n = np.cross(self.edge_u, self.edge_v)
        if np.linalg.norm(n) < 1e-12:
            raise ValueError("edge vectors must not be parallel")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma!r} outside [0, 1]")
        if any(e not in (0, 1, 2, 3) for e in self.diffracting_edges):
            raise ValueError("diffracting edge indices must be in 0..3")
        if len(set(self.diffracting_edges)) != len(self.diffracting_edges):
            raise ValueError(f"diffracting edges {self.diffracting_edges} repeat an index")
        object.__setattr__(self, "normal", _read_only(n / np.linalg.norm(n)))
        uu = float(self.edge_u @ self.edge_u)
        vv = float(self.edge_v @ self.edge_v)
        uv = float(self.edge_u @ self.edge_v)
        object.__setattr__(self, "_gram", (uu, vv, uv, uu * vv - uv * uv))

    def _key(self) -> tuple:
        vectors = (self.corner, self.edge_u, self.edge_v)
        return (*(tuple(v.tolist()) for v in vectors), self.gamma, self.diffracting_edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rectangle):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def edge_points(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        c, u, v = self.corner, self.edge_u, self.edge_v
        loop = (c, c + u, c + u + v, c + v)
        return loop[index], loop[(index + 1) % 4]

    def local_coords(self, point: np.ndarray) -> tuple[float, float]:
        """Solve point = corner + a*u + b*v in the plane's own basis."""
        w = point - self.corner
        uu, vv, uv, det = self._gram
        uw = float(self.edge_u @ w)
        vw = float(self.edge_v @ w)
        return (vv * uw - uv * vw) / det, (uu * vw - uv * uw) / det

    def contains(self, point: np.ndarray, tol: float = _CONTAINS_TOL) -> bool:
        a, b = self.local_coords(point)
        return -tol <= a <= 1.0 + tol and -tol <= b <= 1.0 + tol


@dataclass(frozen=True)
class Environment:
    """All reflecting/diffracting faces of a scene."""

    rectangles: tuple[Rectangle, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rectangles", tuple(self.rectangles))

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The faces as arrays: their (normal, corner, edge_u, edge_v) as
        (4, F, 3), their Gram terms (uu, vv, uv, det) as (4, F) and gamma (F,)."""
        rects = self.rectangles
        vectors = np.array([[getattr(r, k) for r in rects]
                            for k in ("normal", "corner", "edge_u", "edge_v")])
        return (
            _read_only(vectors.reshape(4, -1, 3)),
            _read_only(np.array([r._gram for r in rects]).reshape(-1, 4).T),
            _read_only(np.array([r.gamma for r in rects], dtype=float)),
        )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the others.

    A stacked matmul runs the same dot kernel as the 1-D `a @ b` for every
    pair of rows, so each product is bit-equal to it; einsum and elementwise
    sums round differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _crossings(
    p0: np.ndarray, p1: np.ndarray, faces: np.ndarray, gram: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(hit, point): where each open segment p0..p1 crosses each face's plane.

    faces (4, ..., 3) and gram (4, ...) are faces of Environment._stacked;
    the operands broadcast. A hit crosses the plane away from both endpoints
    (segment parameter t in (_EPS, 1 - _EPS), |normal . segment| at least
    _PARALLEL) at a point whose local coordinates lie within _CONTAINS_TOL of
    the face, all computed as Rectangle.contains computes them.
    """
    n, c, u, v = faces
    uu, vv, uv, det = gram
    d = p1 - p0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = _dot(n, d)
        t = _dot(n, c - p0) / denom
        point = p0 + t[..., None] * d
        w = point - c
        uw, vw = _dot(u, w), _dot(v, w)
        a = (vv * uw - uv * vw) / det
        b = (uu * vw - uv * uw) / det
        lo, hi = -_CONTAINS_TOL, 1.0 + _CONTAINS_TOL
        crosses = ~((np.abs(denom) < _PARALLEL) | (t <= _EPS) | (t >= 1.0 - _EPS))
        return crosses & (lo <= a) & (a <= hi) & (lo <= b) & (b <= hi), point


def _path_rows(
    path_type: PathType, snapshot: ArrayLike, length: ArrayLike, amp_scale: ArrayLike,
    first_leg: ArrayLike, last_leg_back: ArrayLike,
) -> np.recarray:
    """Paths as _PATH records, one per entry of length; the other columns
    broadcast to it."""
    rows = np.recarray(len(length), _PATH)
    rows.path_type, rows.snapshot, rows.length = path_type, snapshot, length
    rows.amp_scale, rows.first_leg, rows.last_leg_back = amp_scale, first_leg, last_leg_back
    return rows


def _joined(parts: list[np.recarray]) -> np.recarray:
    return np.concatenate(parts).view(np.recarray)


def _angles_deg(vec: np.ndarray) -> tuple[list[float], list[float]]:
    """(azimuth, zenith) of each direction row, degrees; az in [-180, 180)."""
    cos = (vec[:, 2] / np.sqrt(_dot(vec, vec))).tolist()
    az = [math.degrees(math.atan2(y, x)) for x, y in vec[:, :2].tolist()]
    return ([-180.0 if a >= 180.0 else a for a in az],
            [math.degrees(math.acos(max(-1.0, min(1.0, c)))) for c in cos])


def _wrap_phase(phase: np.ndarray) -> np.ndarray:
    """Principal values in [-pi, pi)."""
    out = np.fmod(phase + math.pi, 2.0 * math.pi)
    return np.where(out < 0.0, out + 2.0 * math.pi, out) - math.pi


def _path_fields(length: np.ndarray, f_c_hz: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delay, free-space amplitude gain, carrier phase) of path lengths."""
    lam = SPEED_OF_LIGHT / f_c_hz
    return length / SPEED_OF_LIGHT, lam / (4.0 * math.pi * length), _wrap_phase(
        -2.0 * math.pi * length / lam
    )


def _image_method(
    tx: np.ndarray, rx: np.ndarray, seq: np.ndarray, faces: np.ndarray, gram: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(valid rows, path points) of the image method on rows (tx, rx, face sequence).

    A row is valid when every reflection point lands inside its face and
    every leg of the unfolded path clears all faces (touching a face at a
    leg endpoint does not occlude). The points of the valid rows are tx,
    the reflection points in bounce order, then rx.
    """
    images = []
    img = tx
    for f in seq.T:
        n = faces[0, f]
        img = img - (2.0 * _dot(n, img - faces[1, f]))[:, None] * n
        images.append(img)
    live = np.arange(len(seq))
    points = [rx]  # the receiver, then the reflection points walking backward
    for j in reversed(range(seq.shape[1])):
        f = seq[live, j]
        hit, point = _crossings(points[-1], images[j][live], faces[:, f], gram[:, f])
        live = live[hit]
        points = [p[hit] for p in points] + [point[hit]]
    points = [tx[live], *reversed(points)]
    for i in range(len(points) - 1):
        clear = ~_crossings(points[i][:, None], points[i + 1][:, None], faces, gram)[0].any(axis=1)
        live = live[clear]
        points = [p[clear] for p in points]
    return live, points


def _face_sequences(index: np.ndarray, n_faces: int, order: int) -> np.ndarray:
    """The face sequences numbered `index` among those of one order.

    Numbering follows itertools.product order with the same face twice in a
    row skipped: a sequence is its first face, then for each later bounce
    the rank of its face among the n_faces - 1 other than the previous one.
    """
    seq = np.empty((index.size, order), dtype=np.intp)
    rest = index
    for j in range(order - 1, 0, -1):
        rest, seq[:, j] = np.divmod(rest, n_faces - 1)
    seq[:, 0] = rest
    for j in range(1, order):
        seq[:, j] += seq[:, j] >= seq[:, j - 1]
    return seq


def _reflections(
    tx: np.ndarray, rx: np.ndarray, env: Environment, max_order: int
) -> np.recarray:
    """Specular paths of the geometries (tx[g], rx[g]), geometry g's with
    `snapshot` g.

    Each geometry's paths come in order of reflection order, then face
    sequence in itertools.product order, as from a per-sequence loop. A path's
    length sums its legs' lengths and its amp_scale multiplies its faces'
    gammas, both in bounce order.
    """
    faces, gram, gamma = env._stacked
    n = faces.shape[1]
    chunk = max(1, _BATCH // max(n, 1))
    found = [np.recarray(0, _PATH)]
    for order in range(1, max_order + 1):
        per_geometry = n * (n - 1) ** (order - 1)
        rows = len(tx) * per_geometry
        for start in range(0, rows, chunk):
            geometry, index = np.divmod(np.arange(start, min(start + chunk, rows)), per_geometry)
            seq = _face_sequences(index, n, order)
            live, points = _image_method(tx[geometry], rx[geometry], seq, faces, gram)
            legs = [b - a for a, b in zip(points, points[1:])]
            found.append(_path_rows(
                PathType.REFLECTION, geometry[live], sum(np.sqrt(_dot(leg, leg)) for leg in legs),
                math.prod(gamma[seq[live]].T), legs[0], points[-2] - points[-1],
            ))
    return _joined(found)


def fresnel_parameter(
    h_m: float, d1_m: float, d2_m: float, wavelength_m: float
) -> float:
    """Knife-edge Fresnel parameter nu = h * sqrt(2 (d1+d2) / (lambda d1 d2))."""
    return h_m * math.sqrt(2.0 * (d1_m + d2_m) / (wavelength_m * d1_m * d2_m))


def knife_edge_loss_db(nu: float) -> float:
    """Single knife-edge loss in dB; zero below nu = -0.78."""
    if nu <= -0.78:
        return 0.0
    return 6.9 + 20.0 * math.log10(math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)


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


@dataclass(frozen=True, eq=False)
class RtScenario:
    """A scene, its nodes on one snapshot grid, and the links to trace.

    positions maps a node id to its (n, 3) positions at the n grid times.
    Scenarios compare and hash by identity.
    """

    environment: Environment
    carrier_hz: float
    times: np.ndarray  # (n,)
    positions: dict[int, np.ndarray]
    links: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    max_reflection_order: int = 4

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        for node, pos in self.positions.items():
            if np.shape(pos) != (t.size, 3):
                raise ValueError(f"positions of node {node} must have shape ({t.size}, 3)")
        for tx, rx in self.links:
            for node in (tx, rx):
                if node not in self.positions:
                    raise ValueError(f"link references node {node} with no positions")


def _diffraction(
    p_tx: np.ndarray, p_rx: np.ndarray, env: Environment, blocks: list[bool], lam: float
) -> list[tuple[float, float, np.ndarray, np.ndarray]]:
    """(length, loss, first_leg, last_leg_back) of each knife-edge path of a
    blocked link, blocks[f] saying whether face f crosses tx..rx."""
    los_dir = p_rx - p_tx
    los_dir = los_dir / np.linalg.norm(los_dir)
    paths = []
    for rect, owner_blocks in zip(env.rectangles, blocks):
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
            paths.append((d1 + d2, loss, point - p_tx, point - p_rx))
    return paths


def _snapshot_paths(
    p_tx: np.ndarray,
    p_rx: np.ndarray,
    env: Environment,
    f_c_hz: float,
    reflections: np.recarray,
) -> np.recarray:
    """The paths of snapshot geometries: LOS, the given reflections, then
    diffraction when LOS is blocked.

    p_tx and p_rx hold one geometry (3,) or many (G, 3); reflections are
    theirs, numbered by `snapshot`. Each face is tested against each tx..rx
    once. Any crossing blocks LOS; a blocked link gets one knife-edge path per
    marked edge, and the edge's clearance h is positive when its own face is
    one that crosses. The paths come by snapshot, then mechanism.
    """
    tx = np.asarray(p_tx, dtype=float).reshape(-1, 3)
    rx = np.asarray(p_rx, dtype=float).reshape(-1, 3)
    faces, gram, _ = env._stacked
    blocks = _crossings(tx[:, None], rx[:, None], faces, gram)[0]
    blocked = blocks.any(axis=1)
    los = np.flatnonzero(~blocked)
    d = rx[los] - tx[los]
    parts = [_path_rows(PathType.LOS, los, np.sqrt(_dot(d, d)), 1.0, d, -d), reflections]
    lam = SPEED_OF_LIGHT / f_c_hz
    diffraction = [(g, *path) for g in np.flatnonzero(blocked).tolist()
                   for path in _diffraction(tx[g], rx[g], env, blocks[g].tolist(), lam)]
    if diffraction:
        parts.append(_path_rows(PathType.DIFFRACTION, *zip(*diffraction)))
    paths = _joined(parts)
    mechanism = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return paths[np.lexsort((mechanism, paths.snapshot))]


def generate_trace(scenario: RtScenario) -> TraceSet:
    """Trace every link of the scenario over its snapshot grid.

    All snapshots and links are traced in one batch, and the trace's
    columns are computed from all paths at once. Output passes
    validation by construction: snapshot times are strictly increasing,
    path_ids are fresh per snapshot, and at most one LOS record exists per
    snapshot. A link whose tx and rx coincide has no defined path, so it
    raises ValueError naming the first such time.
    """
    env, f_c = scenario.environment, scenario.carrier_hz
    times = np.asarray(scenario.times, dtype=float)
    keys = [(k, tx_id, rx_id) for k in range(times.size) for tx_id, rx_id in scenario.links]
    tx = np.array([scenario.positions[tx_id][k] for k, tx_id, _ in keys], dtype=float)
    rx = np.array([scenario.positions[rx_id][k] for k, _, rx_id in keys], dtype=float)
    tx, rx = tx.reshape(-1, 3), rx.reshape(-1, 3)
    coincide = np.flatnonzero((tx == rx).all(axis=1))
    if coincide.size:
        raise ValueError(f"tx and rx coincide at t={float(times[keys[coincide[0]][0]])!r}")
    reflections = _reflections(tx, rx, env, scenario.max_reflection_order)
    paths = _snapshot_paths(tx, rx, env, f_c, reflections)
    counts = np.bincount(paths.snapshot, minlength=len(keys))
    key = np.array(keys, dtype=np.int64).reshape(-1, 3)[paths.snapshot]
    first_row = (np.cumsum(counts) - counts)[paths.snapshot]
    delay, friis, phase = _path_fields(paths.length, f_c)
    aod_az, aod_zen = _angles_deg(paths.first_leg)
    aoa_az, aoa_zen = _angles_deg(paths.last_leg_back)
    return TraceSet._of(_frozen({
        "t": times[key[:, 0]],
        "tx_id": key[:, 1].copy(),
        "rx_id": key[:, 2].copy(),
        "path_id": np.arange(len(paths), dtype=np.int64) - first_row,
        "path_type": np.array(paths.path_type),
        "delay": delay,
        "gain_mag": friis * paths.amp_scale,
        "phase": phase,
        "aod_az": np.array(aod_az),
        "aod_zen": np.array(aod_zen),
        "aoa_az": np.array(aoa_az),
        "aoa_zen": np.array(aoa_zen),
    }))
