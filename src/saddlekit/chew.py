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

A walk starts from one corner of the Delaunay surface, on one sheet of its
vertex.  `chew_path(dt, conn)` takes a connection of the surface that was
given to `delaunay_l1` and starts from the connection's start_corner,
carried through the flips onto its own sheet
(`DelaunayTriangulation.carry`).  It raises InputError, and never guesses,
when the carried corner is not at conn.start or its wedge does not hold the
holonomy, and BlockedAtVertex when the segment meets a vertex short of its
end.  A planar walk starts at a marked point, which has one sheet, from the
one corner whose wedge holds the direction.

The walk runs on the int corners of geodesic's strip, developed at its
scale K, where rotations, reflections and the side tests are int
operations.  Each step asks `delaunay.diamond_of` for the current
triangle's diamond on the frame's int points at 4K, handed over as
integer-valued Fractions: there the diamond's centre and radius are ints
too, so the step reads them straight off the certificate and decides the
clockwise order on ints, every position scaled by the radius.  The path
keeps its hops as int pairs; the length bounds are int sums over one
denominator, and the certificate is read off them.  Fractions are built
only for the bounds the path returns, for its edge vectors and vertices
when they are read, and for `compare_sqrt_sum` when the bounds straddle
sqrt(10) times the holonomy's length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .delaunay import DelaunayTriangulation, delaunay_l1, diamond_of
from .errors import BlockedAtVertex, ChewCaseError, InputError
from .exactplane import ExactVector, _ints, _scale_of, _vec, compare_sqrt_sum
from .geodesic import SaddleConnection, _start_corner, _strip
from .surface import Slot, TranslationSurface


@dataclass(frozen=True)
class ChewPath:
    """Edge path z_0 .. z_k with exact bookkeeping of its total length.

    edges are (slot, direction) pairs into the Delaunay surface; the turn at
    each interior vertex stays below 2 pi on the relevant side by
    construction of the diamond walk.  hops are the edges' vectors as int
    pairs at scale; edge_vectors and vertices build them as ExactVectors
    when read.
    """

    edges: Tuple[Tuple[Slot, int], ...]
    hops: Tuple[Tuple[int, int], ...]
    scale: int
    holonomy: ExactVector
    total_length_sq_lower: Fraction
    total_length_sq_upper: Fraction
    ratio_upper_bound: float
    sqrt10_certified: bool

    @property
    def edge_vectors(self) -> Tuple[ExactVector, ...]:
        return tuple(_vec(v, self.scale) for v in self.hops)

    @property
    def vertices(self) -> Tuple[ExactVector, ...]:
        """z_0 = 0 .. z_k = holonomy, the running sums of the hops."""
        sums = accumulate(self.hops, lambda p, q: (p[0] + q[0], p[1] + q[1]), initial=(0, 0))
        return tuple(_vec(v, self.scale) for v in sums)

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


def _rotation_power(d) -> int:
    """Quarter turns k so that rot^k(d) has positive x and |slope| <= 1."""
    x, y = d
    for k in range(4):
        if x > 0 and abs(y) <= x:
            return k
        x, y = -y, x
    raise InputError("zero displacement has no direction")


def _rot(p, k: int):
    x, y = p
    for _ in range(k):
        x, y = -y, x
    return x, y


def _clockwise_param(center, r: int, p) -> int:
    """Position of boundary point p walking N -> E -> S -> W clockwise,
    in units of sides times r (range [0, 4r))."""
    dx = p[0] - center[0]
    dy = p[1] - center[1]
    if dx >= 0 and dy >= 0:
        return dx
    if dy <= 0:
        return 2 * r - dx
    return 4 * r + dx


def _walk_step(center, r: int, corners, z_idx: int):
    """Choose the next corner index per the diamond walk.

    corners are the (rotated, possibly reflected) positions of the current
    triangle and center and r its circumscribing diamond's centre and L1
    radius, all ints at one scale; z is at z_idx and lies on or above the
    segment in this frame.  From an upper side of the diamond the walk
    advances clockwise to the nearest other corner; from a lower side it
    advances counterclockwise to the nearest other corner (the mirror
    image); the hop from the lower-left side to a lower-right corner is the
    special case of that rule where such a corner exists.
    """
    z = corners[z_idx]
    dx = z[0] - center[0]
    dy = z[1] - center[1]
    upper = dy > 0 or (dy == 0 and dx < 0)
    pz = _clockwise_param(center, r, z)
    best = None
    for i in range(3):
        if i == z_idx:
            continue
        pw = _clockwise_param(center, r, corners[i])
        dist = (pw - pz) % (4 * r) if upper else (pz - pw) % (4 * r)
        if dist == 0:
            raise ChewCaseError("coincident boundary positions on the diamond")
        if best is None or dist < best[0]:
            best = (dist, i)
    return best[1]


def _edge_between(tri: int, p_idx: int, q_idx: int):
    """Directed triangulation edge from corner p to corner q of triangle
    tri: (slot, direction)."""
    if (p_idx + 1) % 3 == q_idx:
        return ((tri, p_idx), 1)
    if (q_idx + 1) % 3 == p_idx:
        return ((tri, q_idx), -1)
    raise InputError("corners not adjacent")


def chew_path(dt: DelaunayTriangulation, conn: SaddleConnection) -> ChewPath:
    """Edge path in the Delaunay triangulation homotopic to the connection,
    with total length at most sqrt(10) times the connection length.

    conn is a connection of the surface given to `delaunay_l1`: the walk
    starts from its start_corner, carried through the flips onto dt.surface
    on its own sheet (`DelaunayTriangulation.carry`).  Raises InputError
    when that corner's wedge does not hold the holonomy or the carried
    corner is not at conn.start, and BlockedAtVertex when the segment meets
    a vertex before its end."""
    corner = dt.carry(conn.start_corner, conn.start, conn.holonomy)
    return _chew_on_surface(dt.surface, corner, conn.holonomy)


def _chew_on_surface(s: TranslationSurface, start: Slot, d: ExactVector) -> ChewPath:
    scale, placed, _, _, _ = _strip(s, start, d)
    if len(placed) == 1:  # d runs along the corner's out-edge
        return _assemble_path(s, [(start, 1)], d)

    target = _ints(d, scale)
    k = _rotation_power(target)
    d_rot = _rot(target, k)
    # The last strip triangle having each developed position as a vertex.
    last = {p: j for j, (_, pts) in enumerate(placed) for p in pts}
    z = (0, 0)
    edges: List[Tuple[Slot, int]] = []
    guard = 0
    while z != target:
        guard += 1
        if guard > 4 * len(placed) + 16:
            raise ChewCaseError("diamond walk made no progress")
        j = last[z]
        pts = placed[j][1]
        z_idx = pts.index(z)
        frame = [_rot((4 * x, 4 * y), k) for x, y in pts]
        if d_rot[0] * frame[z_idx][1] - d_rot[1] * frame[z_idx][0] < 0:  # below: reflect
            frame = [(x, -y) for x, y in frame]
        # The frame's coordinates are multiples of 4, so its doubled rotated
        # ones are multiples of 8 and the diamond's centre and L1 radius come
        # back as ints in frame units.
        dia = diamond_of(*(ExactVector(Fraction(x), Fraction(y)) for x, y in frame))
        center = (dia.center.x.numerator, dia.center.y.numerator)
        next_idx = _walk_step(center, dia.radius_l1.numerator, frame, z_idx)
        edges.append(_edge_between(placed[j][0], z_idx, next_idx))
        z = pts[next_idx]
    return _assemble_path(s, edges, d)


def _assemble_path(s: TranslationSurface, edges, holonomy: ExactVector) -> ChewPath:
    """The ChewPath of an edge path from the origin.

    Each edge's vector is its own, read from the surface's int corners at K
    = lcm(D, the holonomy's denominators) and signed by its direction; their
    sum must be the holonomy, which certifies the homotopy.  The path keeps
    these int hops and K.  The length bounds sum the hops'
    `sqrt_bounds(|v|^2, 64)` as ints over one denominator; the certificate
    is read off them, and `compare_sqrt_sum` decides only when they
    straddle sqrt(10) |holonomy|.  Fractions are built for the two bounds
    only.
    """
    scale, tris = s.int_corners()
    k = math.lcm(scale, _scale_of([holonomy]))
    m = k // scale
    hops = []
    for (t, c), sign in edges:
        (x0, y0), (x1, y1) = tris[t][c], tris[t][(c + 1) % 3]
        hops.append((sign * m * (x1 - x0), sign * m * (y1 - y0)))
    hx, hy = _ints(holonomy, k)
    if (sum(x for x, _ in hops), sum(y for _, y in hops)) != (hx, hy):
        raise InputError("path holonomy does not certify homotopy")
    # Each hop's sqrt_bounds(n / k^2, 64) over the one denominator k^2 2^64:
    # with g = gcd(n, k^2), n / k^2 is (n / g) / (k^2 / g) in lowest terms,
    # bounded by isqrt((n / g) (k^2 / g) 4^64) + (0, 1) over (k^2 / g) 2^64.
    k_sq = k * k
    lo = hi = 0
    for x, y in hops:
        n = x * x + y * y
        g = math.gcd(n, k_sq)
        root = math.isqrt((n // g) * (k_sq // g) << 128)
        lo += root * g
        hi += (root + 1) * g
    den = k_sq << 64
    h_sq = hx * hx + hy * hy
    bound = 10 * h_sq * k_sq << 128  # 10 |holonomy|^2, times den^2
    cert = hi * hi <= bound or (lo * lo <= bound and compare_sqrt_sum(
        [Fraction(x * x + y * y, k_sq) for x, y in hops], Fraction(10 * h_sq, k_sq)) <= 0)
    # Int true division rounds correctly, as float() of the Fraction does.
    ratio_ub = hi / den / (h_sq / k_sq) ** 0.5 if h_sq else 1.0
    den_sq = den * den
    return ChewPath(
        edges=tuple(edges),
        hops=tuple(hops),
        scale=k,
        holonomy=holonomy,
        total_length_sq_lower=Fraction(lo * lo, den_sq),
        total_length_sq_upper=Fraction(hi * hi, den_sq),
        ratio_upper_bound=ratio_ub,
        sqrt10_certified=cert,
    )


def planar_chew(points: Sequence[ExactVector], a: int, b: int,
                prepared: Optional[dict] = None) -> ChewPath:
    """Chew path between two points of a planar set along its L1 Delaunay
    triangulation (realized on a large flat torus with marked points).

    If the segment a -> b passes exactly through a third point, the path is
    the concatenation of the two sub-paths (the bound telescopes).
    """
    if not (0 <= a < len(points) and 0 <= b < len(points)):
        raise InputError(f"endpoint indices must lie in [0, {len(points)})")
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
    start = _start_corner(dt.surface, ctx["id_to_corners"][start_id], d)
    try:
        return _chew_on_surface(dt.surface, start, d)
    except BlockedAtVertex as blocked:
        first = _planar_chew_rec(ctx, start_id, blocked.position, depth + 1)
        rest = _planar_chew_rec(
            ctx, ctx["surface_vertex_to_id"][blocked.vertex], d - blocked.position, depth + 1
        )
        return _assemble_path(dt.surface, first.edges + rest.edges, d)


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

