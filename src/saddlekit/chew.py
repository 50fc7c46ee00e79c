"""Shortcut paths along L1 Delaunay edges with the sqrt(10) length guarantee.

Follows the classical diamond-walk: develop the triangle strip crossed by a
straight connection, normalize coordinates by a quarter-turn rotation so the
slope is at most 1 in absolute value, then hop vertex to vertex.  From a
vertex on an upper side of the current triangle's circumscribing diamond the
walk advances clockwise around the diamond to the nearest other corner; from
a lower side it advances counterclockwise to the nearest other corner, the
mirror image of the upper case.  Each hop is an edge of the triangulation, so
the result is an edge path homotopic to the connection, certified by exact
holonomy summation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .delaunay import DelaunayTriangulation, DiamondCertificate, delaunay_l1, diamond_of
from .errors import BlockedAtVertex, ChewCaseError, InputError
from .exactplane import ZERO, ExactVector, compare_sqrt_sum, sqrt_bounds
from .geodesic import SaddleConnection, _segment, _start_corner
from .surface import Slot, TranslationSurface


@dataclass(frozen=True)
class ChewPath:
    """Edge path z_0 .. z_k with exact bookkeeping of its total length.

    edges are (slot, direction) pairs into the Delaunay surface; the turn at
    each interior vertex stays below 2 pi on the relevant side by
    construction of the diamond walk.
    """

    edges: Tuple[Tuple[Slot, int], ...]
    edge_vectors: Tuple[ExactVector, ...]
    vertices: Tuple[ExactVector, ...]
    holonomy: ExactVector
    total_length_sq_lower: Fraction
    total_length_sq_upper: Fraction
    ratio_upper_bound: float
    sqrt10_certified: bool

    def edge_count(self) -> int:
        return len(self.edges)

    def to_json_dict(self):
        from .exactplane import format_rational

        return {
            "edges": [[list(slot), d] for slot, d in self.edges],
            "holonomy": self.holonomy.to_json(),
            "total_length_sq_bounds": [
                format_rational(self.total_length_sq_lower),
                format_rational(self.total_length_sq_upper),
            ],
            "ratio_upper_bound": self.ratio_upper_bound,
            "sqrt10_certified": self.sqrt10_certified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _rotation_power(d: ExactVector) -> int:
    """Quarter turns k so that rot^k(d) has positive x and |slope| <= 1."""
    cur = d
    for k in range(4):
        if cur.x > 0 and abs(cur.y) <= cur.x:
            return k
        cur = ExactVector(-cur.y, cur.x)
    raise InputError("zero displacement has no direction")


def _rot(p: ExactVector, k: int) -> ExactVector:
    for _ in range(k):
        p = ExactVector(-p.y, p.x)
    return p


def _clockwise_param(center: ExactVector, r: Fraction, p: ExactVector) -> Fraction:
    """Position of boundary point p walking N -> E -> S -> W clockwise,
    in units of sides (range [0, 4))."""
    dx = p.x - center.x
    dy = p.y - center.y
    if dx >= 0 and dy >= 0:
        return dx / r
    if dx >= 0 and dy < 0:
        return 2 - dx / r
    if dx < 0 and dy <= 0:
        return 2 - dx / r
    return 4 + dx / r


def _walk_step(diamond: DiamondCertificate, corners, z_idx: int):
    """Choose the next corner index per the diamond walk.

    corners are the (rotated, possibly reflected) positions of the current
    triangle; z is at z_idx and lies on or above the segment in this frame.
    From an upper side of the circumscribing diamond the walk advances
    clockwise to the nearest other corner; from a lower side it advances
    counterclockwise to the nearest other corner (the mirror image); the
    hop from the lower-left side to a lower-right corner is the special case
    of that rule where such a corner exists.
    """
    cen, r = diamond.center, diamond.radius_l1
    z = corners[z_idx]
    dx = z.x - cen.x
    dy = z.y - cen.y
    upper = dy > 0 or (dy == 0 and dx < 0)
    pz = _clockwise_param(cen, r, z)
    best = None
    for i in range(3):
        if i == z_idx:
            continue
        pw = _clockwise_param(cen, r, corners[i])
        dist = (pw - pz) % 4 if upper else (pz - pw) % 4
        if dist == 0:
            raise ChewCaseError("coincident boundary positions on the diamond")
        if best is None or dist < best[0]:
            best = (dist, i)
    return best[1]


def _edge_between(s, placement, p_idx: int, q_idx: int):
    """Directed triangulation edge from corner p to corner q of a placed
    triangle: (slot, direction)."""
    tri, _ = placement
    if (p_idx + 1) % 3 == q_idx:
        return ((tri, p_idx), 1)
    if (q_idx + 1) % 3 == p_idx:
        return ((tri, q_idx), -1)
    raise InputError("corners not adjacent")


def chew_path(dt: DelaunayTriangulation, conn: SaddleConnection) -> ChewPath:
    """Edge path in the Delaunay triangulation homotopic to the connection,
    with total length at most sqrt(10) times the connection length.

    Raises BlockedAtVertex when the segment from the first start corner
    whose wedge holds the holonomy meets a vertex before its end."""
    corners = [
        corner for corner, vid in dt.vertex_of_corner.items() if vid == conn.start
    ]
    if not corners:
        raise InputError(f"vertex {conn.start} not present in the triangulation")
    return _chew_on_surface(dt.surface, sorted(corners), conn.holonomy)


def _chew_on_surface(s: TranslationSurface, corners, d: ExactVector) -> ChewPath:
    start = _start_corner(s, corners, d)
    chain = _segment(s, start, d)[0]
    if len(chain) == 1:  # d runs along the corner's out-edge
        return _assemble_path([(start, 1)], [d], [ZERO, d], d)

    k = _rotation_power(d)
    d_rot = _rot(d, k)
    corner_abs = [pts for _, pts in chain]
    corner_rot = [[_rot(p, k) for p in pls] for pls in corner_abs]

    z = ZERO
    target = d
    j = 0
    path_edges: List[Tuple[Slot, int]] = []
    path_vectors: List[ExactVector] = []
    path_vertices: List[ExactVector] = [ZERO]
    guard = 0
    while z != target:
        guard += 1
        if guard > 4 * len(chain) + 16:
            raise ChewCaseError("diamond walk made no progress")
        # Last strip triangle having z as a vertex (developed position).
        j = max(idx for idx in range(len(chain)) if any(p == z for p in corner_abs[idx]))
        pls = corner_abs[j]
        z_idx = next(i for i in range(3) if pls[i] == z)
        rot_pls = corner_rot[j]
        z_rot = rot_pls[z_idx]
        above = d_rot.cross(z_rot) >= 0
        if above:
            frame = rot_pls
        else:
            frame = [ExactVector(p.x, -p.y) for p in rot_pls]
        dia = diamond_of(frame[0], frame[1], frame[2])
        next_idx = _walk_step(dia, frame, z_idx)
        w = pls[next_idx]
        slot_dir = _edge_between(s, chain[j], z_idx, next_idx)
        path_edges.append(slot_dir)
        path_vectors.append(w - z)
        path_vertices.append(w)
        z = w
    return _assemble_path(path_edges, path_vectors, path_vertices, d)


def _assemble_path(edges, vectors, vertices, holonomy) -> ChewPath:
    total = ZERO
    for v in vectors:
        total = total + v
    if total != holonomy:
        raise InputError("path holonomy does not certify homotopy")
    lo = Fraction(0)
    hi = Fraction(0)
    for v in vectors:
        l, h = sqrt_bounds(v.norm_sq(), 64)
        lo += l
        hi += h
    target_sq = holonomy.norm_sq()
    cert = compare_sqrt_sum([v.norm_sq() for v in vectors], 10 * target_sq) <= 0
    ratio_ub = float(hi) / float(target_sq) ** 0.5 if target_sq else 1.0
    return ChewPath(
        edges=tuple(edges),
        edge_vectors=tuple(vectors),
        vertices=tuple(vertices),
        holonomy=holonomy,
        total_length_sq_lower=lo * lo,
        total_length_sq_upper=hi * hi,
        ratio_upper_bound=ratio_ub,
        sqrt10_certified=cert,
    )


def _concat_paths(a: ChewPath, b: ChewPath) -> ChewPath:
    vectors = a.edge_vectors + b.edge_vectors
    vertices = a.vertices + tuple(a.vertices[-1] + (v - b.vertices[0]) for v in b.vertices[1:])
    return _assemble_path(
        list(a.edges) + list(b.edges),
        list(vectors),
        list(vertices),
        a.holonomy + b.holonomy,
    )


def planar_chew(points: Sequence[ExactVector], a: int, b: int,
                prepared: Optional[dict] = None) -> ChewPath:
    """Chew path between two points of a planar set along its L1 Delaunay
    triangulation (realized on a large flat torus with marked points).

    If the segment a -> b passes exactly through a third point, the path is
    the concatenation of the two sub-paths (the bound telescopes).
    """
    if a == b:
        raise InputError("endpoints must differ")
    ctx = prepared if prepared is not None else prepare_planar(points)
    start_id = ctx["ids"][a]
    d = points[b] - points[a]
    return _planar_chew_rec(ctx, start_id, d, depth=0)


def _planar_chew_rec(ctx, start_id, d, depth):
    if depth > 8:
        raise InputError("too many collinear splits")
    dt = ctx["dt"]
    corners = ctx["id_to_corners"][start_id]
    try:
        return _chew_on_surface(dt.surface, corners, d)
    except BlockedAtVertex as blocked:
        first = _planar_chew_rec(ctx, start_id, blocked.position, depth + 1)
        rest = _planar_chew_rec(
            ctx, ctx["surface_vertex_to_id"][blocked.vertex], d - blocked.position, depth + 1
        )
        return _concat_paths(first, rest)


def prepare_planar(points: Sequence[ExactVector]) -> dict:
    """Shared setup for planar walks: wrap, triangulate, index corners."""
    from .builders import wrap_points_in_torus

    surface, ids, _origin = wrap_points_in_torus(points)
    dt = delaunay_l1(surface)
    id_to_corners = {}
    for corner, vid in sorted(dt.vertex_of_corner.items()):
        id_to_corners.setdefault(vid, []).append(corner)
    surface_vertex_to_id = {}
    for corner, vid in dt.vertex_of_corner.items():
        surface_vertex_to_id[dt.surface.corner_vertex(corner)] = vid
    return {
        "dt": dt,
        "ids": ids,
        "id_to_corners": id_to_corners,
        "surface_vertex_to_id": surface_vertex_to_id,
    }


def follows_parallel_count(path: ChewPath, conn: SaddleConnection) -> int:
    """Number of path edges parallel to the connection's holonomy."""
    h = conn.holonomy
    return sum(1 for v in path.edge_vectors if v.cross(h) == 0)
