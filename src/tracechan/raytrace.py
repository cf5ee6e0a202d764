"""Deterministic image-method ray tracer for desk-scale scenes.

Produces multipath traces from first principles so that the rest of the
pipeline can be exercised against geometry with known answers. Mechanisms:
line of sight, specular reflections off planar rectangles up to a configurable
order (image method), and single knife-edge diffraction at marked rectangle
edges, emitted only while the direct path is blocked.

Reflections are traced as arrays. The images come from an image tree (Borish,
JASA 75(6), 1984), built once per distinct transmitter position: sequence i of
order k is sequence i // (F - 1) of order k - 1 followed by one face, so its
image is that parent's image mirrored once. The tree holds the orders below
the top one. Every (snapshot, face sequence) row of one reflection order then
walks back from the receiver: the first step mirrors the row's own image from
its parent's, later steps gather the image of each shorter prefix from the
tree by the prefix's index, and the rows that fail a step are dropped before
the next. The rows left have every leg tested against every face. Faces are
read from one packed (F, 16) table, and only the pairs that pass a plane test
get in-face coordinates. _BATCH bounds the rows of a walk chunk, the (leg,
face) pairs of a leg-test chunk, the nodes of the trees held at once (one
position's tree at least) and the nodes mirrored at once while a tree is
built. A step is the per-sequence image method's test as it stands, with its
tolerances. Every dot product goes through `_dot`, a stacked matmul, which
takes the same dot kernel as the 1-D `a @ b` of two 3-vectors, so the arrays
carry the per-sequence arithmetic bit for bit and traces are byte-identical to
those of a per-sequence tracer. The LOS test uses the same crossing test, and
the knife-edge points of every blocked snapshot and marked edge come from one
ternary search run in lockstep. Paths are held as record arrays, and
`generate_trace` writes the trace's columns from them; only the knife-edge
losses and the angles are computed per path, in `math`, since numpy's
vectorized transcendentals may round differently from libm.

Amplitude model: free-space spreading lambda/(4 pi d) on the unfolded path
length, one real reflection coefficient per bounce, and the standard
knife-edge loss J(nu) for diffraction. Phase is -2 pi L / lambda wrapped to
[-pi, pi). This is an oracle, not a production EM solver: rectangles are
two-sided, materials are frequency-flat, and no polarization is modelled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike

from .channel import SPEED_OF_LIGHT
from .traces import PathType, TraceSet, _broken, _frozen

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
# The reflection tracer's memory budget: rows per walk chunk, (leg, face)
# pairs per leg-test chunk, image-tree nodes held at once unless one
# transmitter position's tree is larger, and nodes mirrored at once while a
# tree is built. A walk row holds about 260 bytes at its peak, so a walk
# chunk stays near 1 MiB
_BATCH = 1 << 12

# Column slices of Environment._packed
_NORMAL, _CORNER, _EDGE_U, _EDGE_V = slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)
_GRAM = slice(12, 16)

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
            if not all(map(math.isfinite, vec.tolist())):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "diffracting_edges", tuple(self.diffracting_edges))
        with np.errstate(over="ignore", invalid="ignore"):
            n = np.cross(self.edge_u, self.edge_v)
            n_len = np.linalg.norm(n)
            uu = float(self.edge_u @ self.edge_u)
            vv = float(self.edge_v @ self.edge_v)
            uv = float(self.edge_u @ self.edge_v)
        if n_len < 1e-12:
            raise ValueError("edge vectors must not be parallel")
        gram = (uu, vv, uv, uu * vv - uv * uv)
        if not all(map(math.isfinite, (n_len, *gram))):
            raise ValueError("edge_u and edge_v are too large: their products overflow")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma!r} outside [0, 1]")
        if any(e not in (0, 1, 2, 3) for e in self.diffracting_edges):
            raise ValueError(
                f"diffracting edge indices must be in 0..3, got {self.diffracting_edges}")
        if len(set(self.diffracting_edges)) != len(self.diffracting_edges):
            raise ValueError(f"diffracting edges {self.diffracting_edges} repeat an index")
        object.__setattr__(self, "normal", _read_only(n / n_len))
        object.__setattr__(self, "_gram", gram)

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
    def _packed(self) -> np.ndarray:
        """The faces as one read-only (F, 16) table: each face's normal,
        corner, edge_u and edge_v, then its Gram terms (uu, vv, uv, det)."""
        return _read_only(np.array(
            [[*r.normal, *r.corner, *r.edge_u, *r.edge_v, *r._gram] for r in self.rectangles],
            dtype=float,
        ).reshape(-1, 16))

    @cached_property
    def _gamma(self) -> np.ndarray:
        return _read_only(np.array([r.gamma for r in self.rectangles], dtype=float))

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(face, e0, e1) of the marked edges, by face, then as the face
        lists them: the owning face's index and the edge's end points."""
        edges = [(f, *rect.edge_points(i)) for f, rect in enumerate(self.rectangles)
                 for i in rect.diffracting_edges]
        face, e0, e1 = zip(*edges) if edges else ((), (), ())
        return (_read_only(np.array(face, dtype=np.intp)),
                *(_read_only(np.array(e, dtype=float).reshape(-1, 3)) for e in (e0, e1)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the others.

    A stacked matmul runs the same dot kernel as the 1-D `a @ b` for every
    pair of rows, so each product is bit-equal to it; einsum and elementwise
    sums round differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _crossings(
    p0: np.ndarray, p1: np.ndarray, faces: np.ndarray, face: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(segment, face, point) of each crossing of an open segment
    p0[r]..p1[r] (R, 3) with a face of the packed table faces: with face[r]
    (R,), or with every face when face is None. Crossings come by segment,
    then face.

    A crossing passes the plane test (segment parameter t in (_EPS,
    1 - _EPS), |normal . segment| at least _PARALLEL) at a point whose local
    coordinates lie within _CONTAINS_TOL of the face, all computed as
    Rectangle.contains computes them. Only the pairs that pass the plane
    test get local coordinates.
    """
    segment, which, point = _plane_crossings(p0, p1, faces, face)
    inside = _inside(point, faces.take(which, axis=0))
    return segment[inside], which[inside], point[inside]


def _plane_crossings(
    p0: np.ndarray, p1: np.ndarray, faces: np.ndarray, face: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(segment, face, point) of the pairs of _crossings that pass its plane test."""
    d = p1 - p0
    if face is None:  # every (segment, face) pair
        plane, start, step = faces[:, :6], p0[:, None], d[:, None]
    else:
        plane, start, step = faces[:, :6].take(face, axis=0), p0, d
    n = plane[..., _NORMAL]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = _dot(n, step)
        t = _dot(n, plane[..., _CORNER] - start) / denom
        cross = ~((np.abs(denom) < _PARALLEL) | (t <= _EPS) | (t >= 1.0 - _EPS))
        segment, *which = np.nonzero(cross)
        point = p0.take(segment, axis=0) + t[cross][:, None] * d.take(segment, axis=0)
    return segment, which[0] if face is None else face.take(segment), point


def _inside(point: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Whether each point (M, 3) lies within _CONTAINS_TOL of its face, the
    row of f (M, 16) packed as Environment._packed."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = point - f[:, _CORNER]
        uw, vw = _dot(f[:, _EDGE_U], w), _dot(f[:, _EDGE_V], w)
        uu, vv, uv, det = f[:, _GRAM].T
        a = (vv * uw - uv * vw) / det
        b = (uu * vw - uv * uw) / det
    lo, hi = -_CONTAINS_TOL, 1.0 + _CONTAINS_TOL
    return (lo <= a) & (a <= hi) & (lo <= b) & (b <= hi)


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
    phase = _wrap_phase(-2.0 * math.pi * length / lam)
    return length / SPEED_OF_LIGHT, lam / (4.0 * math.pi * length), phase


def _children(
    index: np.ndarray, order: int, n_faces: int, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(parent, face) of the face sequences numbered `index` among those of
    one order: the number of the sequence one bounce shorter, and the face
    that follows it.

    Numbering follows itertools.product order with the same face twice in a
    row skipped. Sequence i of order k > 1 is sequence i // (n_faces - 1)
    of order k - 1, whose last face is last[i // (n_faces - 1)], followed by
    the (i % (n_faces - 1))-th of the other faces. The one parent of order 1
    is the empty sequence, whose last face is n_faces, a face none follows.
    """
    parent, rank = np.divmod(index, n_faces if order == 1 else n_faces - 1)
    return parent, rank + (rank >= last.take(parent))


def _mirror(image: np.ndarray, faces: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Each image (..., N, 3) mirrored in the plane of its face, the row
    face (N,) of the packed table faces."""
    normal, corner = faces[face, _NORMAL], faces[face, _CORNER]
    return image - (2.0 * _dot(normal, image - corner))[..., None] * normal


def _image_tree(
    sources: np.ndarray, faces: np.ndarray, max_order: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(images, last) of the face sequences of orders 0..max_order of the
    transmitter positions sources (S, 3).

    images[k] (S, N_k, 3) holds the order-k images and last[k] (N_k,) their
    sequences' last faces, numbered as _children numbers them; order 0 is
    the sources themselves. Each image is its parent's, mirrored once.
    """
    n = len(faces)
    images, last = [sources[:, None]], [np.array([n])]
    for order in range(1, max_order + 1):
        parent, face = _children(np.arange(n * (n - 1) ** (order - 1)), order, n, last[-1])
        level = np.empty((len(sources), face.size, 3))
        for at in range(0, face.size, _BATCH):  # _BATCH nodes' temporaries at a time
            part = slice(at, at + _BATCH)
            level[:, part] = _mirror(images[-1][:, parent[part]], faces, face[part])
        images.append(level)
        last.append(face)
    return images, last


def _walk(
    rx: np.ndarray, g: np.ndarray, source: np.ndarray, index: np.ndarray, order: int,
    images: list[np.ndarray], last: list[np.ndarray], faces: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """(g, reflection points, faces) of the rows that pass the backward walk
    of the image method.

    Row r is the receiver rx[r] of geometry g[r] and face sequence index[r]
    of the given order, with the images and last faces of the shorter
    sequences from the image tree of transmitter source[r]. The first step
    mirrors each row's own image from its parent's; each step goes from the
    last point found toward the image of one shorter prefix and keeps the
    rows whose segment crosses that prefix's last face. The points and
    faces of the rows kept come in bounce order.
    """
    n = len(faces)
    prefix, face = _children(index, order, n, last[order - 1])
    image = _mirror(images[order - 1][source, prefix], faces, face)
    points, hits, point = [], [], rx  # walking backward from the receiver
    for k in reversed(range(order)):  # the order of the prefix left
        hit, face, point = _crossings(point, image, faces, face)
        g, source, prefix = g.take(hit), source.take(hit), prefix.take(hit)
        points = [p.take(hit, axis=0) for p in points] + [point]
        hits = [h.take(hit) for h in hits] + [face]
        if k:
            image, face = images[k][source, prefix], last[k].take(prefix)
            prefix //= n - 1  # the parents' numbers, while k > 1
    return g, points[::-1], hits[::-1]


def _occluded(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Whether any leg points[r, i]..points[r, i + 1] of each row crosses a
    face, the (leg, face) pairs tested _BATCH at a time."""
    p0 = points[:, :-1].reshape(-1, 3)
    p1 = points[:, 1:].reshape(-1, 3)
    hit = np.zeros(len(p0), dtype=bool)
    step = max(1, _BATCH // len(faces))
    for start in range(0, len(p0), step):
        hit[start + _crossings(p0[start:start + step], p1[start:start + step], faces)[0]] = True
    return hit.reshape(points.shape[0], points.shape[1] - 1).any(axis=1)


def _reflections(
    tx: np.ndarray, rx: np.ndarray, env: Environment, max_order: int
) -> np.recarray:
    """Specular paths of the geometries (tx[g], rx[g]), geometry g's with
    `snapshot` g.

    Each geometry's paths come in order of reflection order, then face
    sequence in itertools.product order, as from a per-sequence loop. A path's
    length sums its legs' lengths and its amp_scale multiplies its faces'
    gammas, both in bounce order. The images of the orders below max_order
    come from one image tree per distinct transmitter position, trees built
    for as many positions at once as _BATCH nodes hold, and for one at
    least, so that the rows of a moving transmitter's positions share walk
    chunks; each walk chunk mirrors its rows' own images from their parents.
    """
    faces, gamma = env._packed, env._gamma
    n = len(faces)
    found = [np.recarray(0, _PATH)]
    if n == 0 or max_order < 1:
        return found[0]
    # the distinct transmitter positions, compared bit for bit
    tx = np.ascontiguousarray(tx)
    rows_as_bytes = tx.view(np.dtype((np.void, tx.itemsize * 3)))[:, 0]
    _, first, source = np.unique(rows_as_bytes, return_index=True, return_inverse=True)
    nodes = 1 + sum(n * (n - 1) ** (k - 1) for k in range(1, max_order))
    per_tree = max(1, _BATCH // nodes)
    for lo in range(0, len(first), per_tree):
        images, last = _image_tree(tx[first[lo:lo + per_tree]], faces, max_order - 1)
        geometries = np.flatnonzero((lo <= source) & (source < lo + per_tree))
        for order in range(1, max_order + 1):
            per_geometry = n * (n - 1) ** (order - 1)
            rows = len(geometries) * per_geometry
            for start in range(0, rows, _BATCH):
                g, index = np.divmod(np.arange(start, min(start + _BATCH, rows)), per_geometry)
                g = geometries.take(g)
                g, bounces, hits = _walk(rx.take(g, axis=0), g, source.take(g) - lo, index, order,
                                         images, last, faces)
                points = np.stack([tx.take(g, axis=0), *bounces, rx.take(g, axis=0)], axis=1)
                clear = np.flatnonzero(~_occluded(points, faces))
                g, points = g.take(clear), points.take(clear, axis=0)
                legs = points[:, 1:] - points[:, :-1]
                found.append(_path_rows(
                    PathType.REFLECTION, g, sum(np.sqrt(_dot(legs, legs)).T),
                    math.prod(gamma.take(f.take(clear)) for f in hits),
                    legs[:, 0], points[:, -2] - points[:, -1],
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


def _edge_points(
    p_tx: np.ndarray, p_rx: np.ndarray, e0: np.ndarray, e1: np.ndarray
) -> np.ndarray:
    """Point on each segment e0..e1 minimizing |tx-P| + |P-rx|, all rows (P, 3)
    in one ternary search.

    The objective is convex in the edge parameter; a row's search runs until
    its bracketing interval is below 1e-9 m along the edge, and the rows
    step in lockstep until the last one stops. The path length is flat at
    its minimum, so comparisons stop resolving the point well before that:
    it can sit about 1e-6 m from the true minimizer, while its path length
    agrees with the minimum to about 1e-14 m. Each row is the per-edge
    search's point bit for bit, its norms taken as sqrt(_dot(x, x)).
    """
    edge = e1 - e0
    edge_len = np.sqrt(_dot(edge, edge))
    # bounds holds (lo, hi), steps (m1, m2) = (lo + third, hi - third); hi
    # moves to m2 where m1 is nearer, else lo moves to m1
    bounds = np.stack((np.zeros(len(edge)), np.ones(len(edge))))
    step, hi_moves = np.array([[1.0], [-1.0]]), np.array([[False], [True]])
    while (active := (bounds[1] - bounds[0]) * edge_len > 1e-9).any():
        m = bounds + (bounds[1] - bounds[0]) / 3.0 * step
        p = e0 + m[..., None] * edge
        to_tx, to_rx = p - p_tx, p_rx - p
        path_len = np.sqrt(_dot(to_tx, to_tx)) + np.sqrt(_dot(to_rx, to_rx))
        bounds = np.where(((path_len[0] < path_len[1]) == hi_moves) & active, m, bounds)
    return e0 + (0.5 * (bounds[0] + bounds[1]))[:, None] * edge


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
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz must be finite and > 0, got {self.carrier_hz!r}")
        _check_order(self.max_reflection_order)
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        for node, pos in self.positions.items():
            if _broken(node, "node id", int, None):  # the trace's id rule
                raise ValueError(f"node id {node!r} is not an int in [0, 2**63)")
            if np.shape(pos) != (t.size, 3):
                raise ValueError(f"positions of node {node} must have shape ({t.size}, 3)")
            if not np.all(np.isfinite(pos)):
                raise ValueError(f"positions of node {node} must be finite")
        missing = [node for link in self.links for node in link if node not in self.positions]
        if missing:
            raise ValueError(f"link references node {missing[0]} with no positions")


def _check_order(order) -> None:
    """RtScenario's rule for max_reflection_order."""
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise ValueError(f"max_reflection_order must be >= 0 and an int, got {order!r}")


def _diffraction(
    tx: np.ndarray, rx: np.ndarray, env: Environment, blocks: np.ndarray, lam: float
) -> np.recarray:
    """The knife-edge paths of the geometries (tx[g], rx[g]) that blocks
    (G, F), whether face f crosses tx..rx, says are blocked: one per marked
    edge, by geometry, then edge."""
    owner, e0, e1 = env._edges
    blocked = np.flatnonzero(blocks.any(axis=1))
    if not (blocked.size and owner.size):
        return np.recarray(0, _PATH)
    g, edge = blocked.repeat(len(owner)), np.tile(np.arange(len(owner)), len(blocked))
    p_tx, p_rx = tx.take(g, axis=0), rx.take(g, axis=0)
    point = _edge_points(p_tx, p_rx, e0[edge], e1[edge])
    to_tx, to_rx = point - p_tx, p_rx - point
    d1, d2 = np.sqrt(_dot(to_tx, to_tx)), np.sqrt(_dot(to_rx, to_rx))
    los_dir = p_rx - p_tx
    los_dir = los_dir / np.sqrt(_dot(los_dir, los_dir))[:, None]
    # clearance of the edge over the direct line; positive when the owning
    # face shadows the link, negative when it merely grazes
    across = np.cross(to_tx, los_dir)
    h = np.sqrt(_dot(across, across))
    h = np.where(blocks[g, owner[edge]], h, -h)
    loss = [10.0 ** (-knife_edge_loss_db(fresnel_parameter(*x, lam)) / 20.0)
            for x in zip(h.tolist(), d1.tolist(), d2.tolist())]
    return _path_rows(PathType.DIFFRACTION, g, d1 + d2, np.array(loss), to_tx, point - p_rx)


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
    faces = env._packed
    blocks = np.zeros((len(tx), len(faces)), dtype=bool)
    segment, face, _ = _crossings(tx, rx, faces)
    blocks[segment, face] = True
    los = np.flatnonzero(~blocks.any(axis=1))
    d = rx[los] - tx[los]
    parts = [
        _path_rows(PathType.LOS, los, np.sqrt(_dot(d, d)), 1.0, d, -d),
        reflections,
        _diffraction(tx, rx, env, blocks, SPEED_OF_LIGHT / f_c_hz),
    ]
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
