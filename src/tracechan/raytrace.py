"""Deterministic image-method ray tracer for desk-scale scenes.

Produces multipath traces from first principles so that the rest of the
pipeline can be exercised against geometry with known answers. Mechanisms:
line of sight, specular reflections off planar rectangles up to a configurable
order (image method), and single knife-edge diffraction at marked rectangle
edges, emitted only while the direct path is blocked.

Reflections are traced in two stages. A batched numpy filter takes every
(snapshot, face sequence) candidate of one reflection order at once, in
chunks of bounded size: it builds the image chain, walks back from the
receiver and tests every leg against every face. Each test also carries a
bound on how far its numpy values can sit from those of the scalar code, so
it comes out as a clear hit, a clear miss or undecided. Each candidate then
has one of three outcomes:

- a test rejects it clearly: it is dropped;
- every test passes clearly (each reflection step a clear hit of its face,
  each leg a clear miss of every face): it is certified, and the scalar code
  computes its path without testing it again;
- otherwise it is kept, and the scalar image-method code (`_mirror`,
  `_segment_hit`, `_segment_occluded`) runs every test again.

Only the scalar code produces paths, certified or not: image chain,
reflection points (`_plane_crossing`, the arithmetic `_segment_hit` tests),
leg lengths and reflection coefficients. It stays scalar because numpy's
batched dot products round differently from the BLAS dot of two 3-vectors in
the last bit, and traces must stay byte-identical to those of the scalar
tracer.

Amplitude model: free-space spreading lambda/(4 pi d) on the unfolded path
length, one real reflection coefficient per bounce, and the standard
knife-edge loss J(nu) for diffraction. Phase is -2 pi L / lambda wrapped to
[-pi, pi). This is an oracle, not a production EM solver: rectangles are
two-sided, materials are frequency-flat, and no polarization is modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import SPEED_OF_LIGHT
from .traces import MpcRecord, PathType, TraceSet

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
# Error-budget unit of the batched filter, eight unit roundoffs. Each bound
# sums such terms over the magnitudes a computation touched, so a
# well-conditioned test gets a slack near 1e-14, far below _EPS.
_ROUND = 2.0**-50
_BATCH = 1 << 13  # (candidate, face) pairs per filter chunk; bounds its memory


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


def _confirm_reflection(
    p_tx: np.ndarray, p_rx: np.ndarray, seq: list[int], env: Environment,
    certified: bool = False,
) -> _RawPath | None:
    """The scalar image method for one face sequence; None when invalid.

    The sequence is valid when every reflection point lands inside its
    rectangle and every leg of the unfolded path clears all faces (touching
    a face at a leg endpoint does not occlude). A certified sequence is one
    the batched filter found valid with every test clear-cut: its points
    come from the same arithmetic, but neither the containment nor the
    occlusion test is run again.
    """
    rects = env.rectangles
    step = _plane_crossing if certified else _segment_hit
    images = []
    img = p_tx
    for idx in seq:
        img = _mirror(img, rects[idx])
        images.append(img)
    # walk backward from the receiver through the image chain
    points: list[np.ndarray] = []
    q = p_rx
    for idx, img in zip(reversed(seq), reversed(images)):
        hit = step(q, img, rects[idx])
        if hit is None:
            return None
        q = hit[1]
        points.append(q)
    points.reverse()
    legs = [p_tx, *points, p_rx]
    if not certified and any(_segment_occluded(a, b, env) for a, b in zip(legs, legs[1:])):
        return None
    length = float(sum(np.linalg.norm(b - a) for a, b in zip(legs, legs[1:])))
    gamma = math.prod(rects[i].gamma for i in seq)
    return _RawPath(PathType.REFLECTION, length, gamma, legs[1] - legs[0], legs[-2] - legs[-1])


class _Faces(NamedTuple):
    """Face geometry stacked for the batched filter.

    basis[f] has the rows (normal, edge_u, edge_v) of face f; flat is the
    same vectors as columns grouped by kind, so x @ flat projects rows of x
    onto every face at once. consts[:, f] = (n.c, u.c, v.c, |c|_1, |u|_1,
    |v|_1, uu, vv, uv, det) with c the corner and the Gram terms as cached.
    """

    basis: np.ndarray  # (F, 3, 3)
    flat: np.ndarray  # (3, 3F)
    corners: np.ndarray  # (F, 3)
    consts: np.ndarray  # (10, F)


def _stack_faces(rects: tuple[Rectangle, ...]) -> _Faces:
    basis = np.array([(r.normal, r.edge_u, r.edge_v) for r in rects])
    corners = np.array([r.corner for r in rects])
    consts = np.vstack([
        np.einsum("fij,fj->if", basis, corners),
        np.abs(corners).sum(axis=1),
        np.abs(basis[:, 1]).sum(axis=1),
        np.abs(basis[:, 2]).sum(axis=1),
        np.array([r._gram for r in rects]).T,
    ])
    return _Faces(basis, basis.transpose(1, 0, 2).reshape(-1, 3).T, corners, consts)


def _l1(x: np.ndarray) -> np.ndarray:
    return np.abs(x).sum(axis=-1)


def _classify(pq, pd, q1, d1, eq, ed, consts):
    """Decide `_segment_hit(q, q + d, face)` from numpy values near the scalar ones.

    pq and pd stack the projections of q and d onto the face's (normal,
    edge_u, edge_v) along axis 0; q1 and d1 are their L1 norms. eq bounds the
    distance of q from the point the scalar code starts from, ed that of d
    from the scalar segment vector. Every other rounding, in this code and in
    the scalar code, is bounded by _ROUND terms. The slack on t grows as
    |n.d| shrinks against those bounds, so a near-parallel test comes out
    undecided. Returns (hit, miss, t, e_point): the tests whose scalar
    outcome is certain, the segment parameter, and a bound on the crossing
    point's distance from the scalar one. A test that is neither hit nor
    miss is undecided.
    """
    nc, uc, vc, c1, u1, v1, uu, vv, uv, det = consts
    e_den = ed + _ROUND * d1
    e_num = eq + _ROUND * (c1 + q1)
    abs_den = np.abs(pd[0])
    low_den = abs_den - e_den
    parallel = abs_den + e_den < _PARALLEL
    crossing = low_den >= _PARALLEL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (nc - pq[0]) / pd[0]
        abs_t = np.abs(t)
        e_t = (e_num + abs_t * e_den) / low_den + _ROUND * abs_t
        e_point = eq + abs_t * ed + (d1 + ed) * e_t
        e_w = e_point + 2.0 * _ROUND * (q1 + abs_t * d1 + c1)
        uw = (pq[1] - uc) + t * pd[1]
        vw = (pq[2] - vc) + t * pd[2]
        abs_uv = np.abs(uv)
        a = (vv * uw - uv * vw) / det
        b = (uu * vw - uv * uw) / det
        e_a = (vv * u1 * e_w + abs_uv * v1 * e_w
               + _ROUND * (vv * np.abs(uw) + abs_uv * np.abs(vw))) / det + _ROUND * np.abs(a)
        e_b = (uu * v1 * e_w + abs_uv * u1 * e_w
               + _ROUND * (uu * np.abs(vw) + abs_uv * np.abs(uw))) / det + _ROUND * np.abs(b)
        e_next = e_point + _ROUND * (q1 + abs_t * d1)
        lo, hi = -_CONTAINS_TOL, 1.0 + _CONTAINS_TOL
        t_in = (t - e_t > _EPS) & (t + e_t < 1.0 - _EPS)
        t_out = (t + e_t <= _EPS) | (t - e_t >= 1.0 - _EPS)
        inside = (a - e_a >= lo) & (a + e_a <= hi) & (b - e_b >= lo) & (b + e_b <= hi)
        outside = (a + e_a < lo) | (a - e_a > hi) | (b + e_b < lo) | (b - e_b > hi)
    # non-finite values (a parallel segment) compare False: undecided
    hit = crossing & t_in & inside
    miss = parallel | (crossing & (t_out | (t_in & outside)))
    return hit, miss, t, e_next


def _filter_candidates(
    tx: np.ndarray, rx: np.ndarray, seq: np.ndarray, faces: _Faces
) -> tuple[np.ndarray, np.ndarray]:
    """(keep, certified): rows of (tx, rx, face sequence) that the scalar
    code might accept, and those it certainly accepts.

    A row is dropped only when a test of the scalar image method rejects it
    clearly: a reflection step that clearly misses its face, or a leg that
    clearly crosses a face. Undecided rows are kept for the confirm stage. A
    kept row is certified when every test passed clearly: each reflection
    step a clear hit of its face, each leg a clear miss of every face.
    """
    rows, order = seq.shape
    keep = np.zeros(rows, dtype=bool)
    certified = np.zeros(rows, dtype=bool)
    images, image_err = [], []
    img, err = tx, np.zeros(rows)
    for j in range(order):
        f = seq[:, j]
        n = faces.basis[f, 0]
        new = img - (2.0 * np.einsum("ij,ij->i", n, img - faces.corners[f]))[:, None] * n
        # a mirror is an isometry: input errors pass through, roundings add
        err = err + 3.0 * _ROUND * (_l1(img) + faces.consts[3, f] + _l1(new))
        img = new
        images.append(img)
        image_err.append(err)

    live = np.arange(rows)  # rows whose every test so far is a clear pass
    walk = [(rx, np.zeros(rows))]  # receiver, then reflection points backward
    for j in reversed(range(order)):
        q, eq = walk[-1]
        p1, e1 = images[j][live], image_err[j][live]
        d = p1 - q
        d1 = _l1(d)
        basis = faces.basis[seq[live, j]]
        hit, miss, t, e_point = _classify(
            np.einsum("rij,rj->ir", basis, q), np.einsum("rij,rj->ir", basis, d),
            _l1(q), d1, eq, eq + e1 + _ROUND * d1, faces.consts[:, seq[live, j]],
        )
        keep[live[~(hit | miss)]] = True
        live = live[hit]
        walk = [(p[hit], e[hit]) for p, e in walk]
        walk.append((q[hit] + t[hit, None] * d[hit], e_point[hit]))

    legs = [(tx[live], np.zeros(live.size)), *reversed(walk)]
    n_faces = faces.corners.shape[0]
    consts = faces.consts[:, None, :]
    sure = np.ones(live.size, dtype=bool)  # every leg so far clearly misses every face
    for i in range(len(legs) - 1):
        (a, ea), (b, eb) = legs[i], legs[i + 1]
        d = b - a
        d1 = _l1(d)
        blocked, missed = _classify(
            (a @ faces.flat).reshape(-1, 3, n_faces).transpose(1, 0, 2),
            (d @ faces.flat).reshape(-1, 3, n_faces).transpose(1, 0, 2),
            _l1(a)[:, None], d1[:, None], ea[:, None], (ea + eb + _ROUND * d1)[:, None],
            consts,
        )[:2]
        clear = ~blocked.any(axis=1)
        sure = (sure & missed.all(axis=1))[clear]
        live = live[clear]
        legs = [(p[clear], e[clear]) for p, e in legs]
    keep[live] = True
    certified[live[sure]] = True
    return keep, certified


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


def _trace_reflections_batch(
    p_tx: list[np.ndarray], p_rx: list[np.ndarray], env: Environment, max_order: int
) -> list[list[_RawPath]]:
    """Specular paths for many geometries, geometry g being (p_tx[g], p_rx[g]).

    Each geometry's paths come in order of reflection order, then face
    sequence in itertools.product order, as from a per-sequence loop.
    """
    paths: list[list[_RawPath]] = [[] for _ in p_tx]
    rects = env.rectangles
    if not rects or max_order < 1 or not paths:
        return paths
    faces = _stack_faces(rects)
    tx = np.asarray(p_tx, dtype=float).reshape(-1, 3)
    rx = np.asarray(p_rx, dtype=float).reshape(-1, 3)
    n = len(rects)
    chunk = max(1, _BATCH // n)
    for order in range(1, max_order + 1):
        per_geometry = n * (n - 1) ** (order - 1)
        rows = len(paths) * per_geometry
        for start in range(0, rows, chunk):
            geometry, index = np.divmod(np.arange(start, min(start + chunk, rows)), per_geometry)
            seq = _face_sequences(index, n, order)
            keep, certified = _filter_candidates(tx[geometry], rx[geometry], seq, faces)
            for g, s, c in zip(geometry[keep].tolist(), seq[keep].tolist(),
                               certified[keep].tolist()):
                path = _confirm_reflection(tx[g], rx[g], s, env, c)
                if path is not None:
                    paths[g].append(path)
    return paths


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


@dataclass(frozen=True)
class RtScenario:
    """A scene, its nodes on one snapshot grid, and the links to trace.

    positions maps a node id to its (n, 3) positions at the n grid times.
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


def _snapshot_paths(
    p_tx: np.ndarray,
    p_rx: np.ndarray,
    env: Environment,
    f_c_hz: float,
    reflections: list[_RawPath],
) -> list[_RawPath]:
    """LOS, the given reflections, then diffraction when LOS is blocked.

    Each face is tested against tx..rx once. Any crossing blocks LOS; a
    blocked link gets one knife-edge path per marked edge, and the edge's
    clearance h is positive when its own face is one that crosses.
    """
    p_tx = np.asarray(p_tx, dtype=float)
    p_rx = np.asarray(p_rx, dtype=float)
    blocks = [_segment_hit(p_tx, p_rx, r) is not None for r in env.rectangles]
    if not any(blocks):
        return [_los_path(p_tx, p_rx), *reflections]
    lam = SPEED_OF_LIGHT / f_c_hz
    los_dir = p_rx - p_tx
    los_dir = los_dir / np.linalg.norm(los_dir)
    paths = list(reflections)
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
            paths.append(_RawPath(PathType.DIFFRACTION, d1 + d2, loss, point - p_tx, point - p_rx))
    return paths


def generate_trace(scenario: RtScenario) -> TraceSet:
    """Trace every link of the scenario over its snapshot grid.

    Reflections of all snapshots and links are traced in one batch. Output
    passes validation by construction: snapshot times are strictly
    increasing, path_ids are fresh per snapshot, and at most one LOS record
    exists per snapshot. A link whose tx and rx coincide has no defined path,
    so it raises ValueError naming the first such time.
    """
    env, f_c = scenario.environment, scenario.carrier_hz
    times = scenario.times
    keys = [(k, tx_id, rx_id) for k in range(times.size) for tx_id, rx_id in scenario.links]
    p_tx = [scenario.positions[tx_id][k] for k, tx_id, _ in keys]
    p_rx = [scenario.positions[rx_id][k] for k, _, rx_id in keys]
    for (k, _, _), a, b in zip(keys, p_tx, p_rx):
        if np.array_equal(a, b):
            raise ValueError(f"tx and rx coincide at t={float(times[k])!r}")
    reflections = _trace_reflections_batch(p_tx, p_rx, env, scenario.max_reflection_order)
    records: list[MpcRecord] = []
    for (k, tx_id, rx_id), a, b, refl in zip(keys, p_tx, p_rx, reflections):
        t = float(times[k])
        for pid, raw in enumerate(_snapshot_paths(a, b, env, f_c, refl)):
            records.append(_record_from_path(raw, t, tx_id, rx_id, pid, f_c))
    return TraceSet(tuple(records))
