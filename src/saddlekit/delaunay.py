"""L1 (taxicab) Delaunay triangulations by exact edge flips.

The geometry runs in the rotated frame (u, v) = (x + y, x - y), where the L1
norm is max(|u|, |v|) and every L1 disc ("diamond") is an axis-parallel
square (Chew 1989; Bonichon, Gavoille, Hanusse and Perkovic 2015).  The
circumscribing diamond of a triangle is one of two squares on the bounding
box of its vertices, accepted by Hall's test on each vertex's 4-bit mask of
the square's sides it lies on; whether an empty diamond passes through an
edge comes from the bounding box of the edge's endpoints.  Both are closed
forms.  An interior edge is locally Delaunay when each adjacent triangle's
diamond has the opposite vertex outside or on its boundary; flipping repeats
until no edge violates this.  The flip budget is the one stopping rule: a
set whose flips do not settle within it raises FlipCycleError.  One
verifier, `_locally_delaunay`, decides every edge for `is_locally_delaunay`
and for `delaunay_l1`'s test of its output, which reuses the diamonds of its
certificates.
Everything is decided exactly, on ints after scaling by D: the
flips start from the surface's int corner positions
(`TranslationSurface.int_corners`, scaled by D, the lcm of its
edge-coordinate denominators) and `diamond_of` scales its three points by
the lcm of theirs, so positions are int pairs and a diamond is an int square
(cu, cv, r) in the doubled frame (U, V) = 2(x + y, x - y).  Fractions are
built only for the output surface and its certificates.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import DegenerateDiamondError, FlipCycleError, InputError
from .exactplane import ExactVector, _ints, _scale_of, _sub, _turn, _vec
from .surface import Slot, TranslationSurface, Triangle, _in_wedge

# Diamond sides NE, NW, SW, SE as (axis, sign): the side p[axis] = c[axis] + sign * r
# of the square in the rotated frame (u, v) = (x + y, x - y).
_SIDES = ((0, 1), (1, -1), (0, -1), (1, 1))
# Flip budget of both passes together: _FLIPS_BASE + _FLIPS_PER_TRIANGLE per
# triangle.  It is delaunay_l1's one stopping rule.
_FLIPS_BASE = 400
_FLIPS_PER_TRIANGLE = 60


@dataclass(frozen=True, slots=True)
class DiamondCertificate:
    center: ExactVector
    radius_l1: Fraction

    def to_json_dict(self):
        from .exactplane import format_rational

        return {
            "center": self.center.to_json(),
            "radius_l1": format_rational(self.radius_l1),
        }


# --- int geometry: points are int pairs after scaling by D -----------------


def _doubled(p) -> Tuple[int, int]:
    """(U, V) = 2(x + y, x - y): the rotated frame, doubled so r is an int."""
    x, y = p
    return (2 * (x + y), 2 * (x - y))


def _diamond(p1, p2, p3) -> Tuple[int, int, int]:
    """Circumscribing diamond of three int points as (cu, cv, r), the square
    max(|U - cu|, |V - cv|) <= r of the doubled rotated frame.

    It circumscribes the points when they match injectively to sides they
    lie on (a corner lies on both of its sides).  Three distinct sides
    include an opposite pair, so 2r is the larger extent of the points'
    bounding box: the square spans the box along that axis and sits flush
    with either end of the other one.  When two points share a slope +-1
    line these two squares are the corner-touching ends of a sliding family.
    Each point gets a 4-bit mask of the sides of a candidate square that it
    lies on (bit i for _SIDES[i]), and the matching exists iff the masks
    pass Hall's test (`_hall`): every mask is nonzero and every two masks
    together have at least two bits.
    Raises DegenerateDiamondError for collinear points, when neither square
    admits the matching, or when both do (``count``).
    """
    if _turn(p1, p2, p3) == 0:
        raise DegenerateDiamondError("collinear points have no circumscribing diamond")
    (u1, v1), (u2, v2), (u3, v3) = _doubled(p1), _doubled(p2), _doubled(p3)
    ulo, uhi, vlo, vhi = min(u1, u2, u3), max(u1, u2, u3), min(v1, v2, v3), max(v1, v2, v3)
    if uhi - ulo >= vhi - vlo:  # the wide axis is U
        r = (uhi - ulo) // 2  # doubled coordinates are even
        candidates = ((ulo + r, vhi - r), (ulo + r, vlo + r))
    else:
        r = (vhi - vlo) // 2
        candidates = ((uhi - r, vlo + r), (ulo + r, vlo + r))
    solutions = []
    for cu, cv in candidates:
        ne, nw, sw, se = cu + r, cv - r, cu - r, cv + r
        if (cu, cv) not in solutions and _hall(
            (u1 == ne) | (v1 == nw) << 1 | (u1 == sw) << 2 | (v1 == se) << 3,
            (u2 == ne) | (v2 == nw) << 1 | (u2 == sw) << 2 | (v2 == se) << 3,
            (u3 == ne) | (v3 == nw) << 1 | (u3 == sw) << 2 | (v3 == se) << 3,
        ):
            solutions.append((cu, cv))
    if not solutions:
        raise DegenerateDiamondError("no admissible circumscribing diamond")
    if len(solutions) > 1:
        raise DegenerateDiamondError(
            "ambiguous circumscribing diamond (multiple solutions)",
            count=len(solutions),
        )
    cu, cv = solutions[0]
    return cu, cv, r


def _hall(a: int, b: int, c: int) -> bool:
    """Hall's condition on the side masks of three points in a candidate
    square of `_diamond`: the points match injectively to sides they lie on
    iff every mask is nonzero and every two masks together have at least two
    bits.  Hall's third condition, three bits in all, follows here.  The
    square spans the box along the wide axis, so the union holds that axis's
    two opposite sides; were that all, each mask would be one of those two
    single bits, and two of the three would be equal."""
    return bool(a and b and c) and min((a | b).bit_count(), (a | c).bit_count(), (b | c).bit_count()) >= 2


def _dist(dia, p) -> int:
    """L1 distance from the diamond's center to the int point p, in the units
    of its r: below r strictly inside, equal to r on the boundary."""
    cu, cv, _ = dia
    u, v = _doubled(p)
    return max(abs(u - cu), abs(v - cv))


def _certificate(dia, scale: int) -> DiamondCertificate:
    cu, cv, r = dia
    return DiamondCertificate(_vec((cu + cv, cu - cv), 4 * scale), Fraction(r, 2 * scale))


def diamond_of(p1: ExactVector, p2: ExactVector, p3: ExactVector) -> DiamondCertificate:
    """Circumscribing diamond (L1 circumdisc) of three points, exactly.

    The points are scaled to ints by the lcm of their denominators and
    decided by `_diamond`, which documents the construction and the
    DegenerateDiamondError cases.
    """
    scale = _scale_of((p1, p2, p3))
    return _certificate(_diamond(*(_ints(p, scale) for p in (p1, p2, p3))), scale)


# --- surface-level local Delaunay test and flips ---------------------------


def _developed_quad(tris, glue, slot: Slot):
    """Int positions (a, b, c, d) for the two triangles adjacent to an edge,
    developed into a common plane: edge a->b, c the apex of slot's triangle,
    d the apex of the neighbor.  tris[t] holds triangle t's int corner
    positions, corner 0 at the origin."""
    t, i = slot
    u, j = glue[slot]
    P = tris[t]
    b, c = _sub(P[(i + 1) % 3], P[i]), _sub(P[(i + 2) % 3], P[i])
    # neighbor corners relative: corner j at b, corner j+1 at a
    (jx, jy), (kx, ky) = tris[u][j], tris[u][(j + 2) % 3]
    return (0, 0), b, c, (b[0] - jx + kx, b[1] - jy + ky)


def is_locally_delaunay(s: TranslationSurface, slot: Slot) -> bool:
    """Local L1 Delaunay test across an interior edge.

    True iff the opposite vertex of each adjacent triangle lies outside or
    on the other triangle's circumscribing diamond.  On-boundary is
    accepted.
    """
    tris = s.int_corners()[1]
    return _locally_delaunay(tris, s.gluings, slot, lambda t: _diamond(*tris[t]))


def _locally_delaunay(tris, glue, slot: Slot, diamond) -> bool:
    """is_locally_delaunay on int corner positions, with diamond(t) the
    diamond of tris[t].  Across slot (t, i), glued to (u, j), diamond(u) is
    asked for only once t's side passes.  Each apex is moved into the frame
    of the other triangle."""
    t, i = slot
    u, j = glue[slot]
    P, Q = tris[t], tris[u]
    # Corner j of u sits at corner i + 1 of t, and corner j + 1 at corner i.
    (px, py), (qx, qy), (kx, ky) = P[(i + 1) % 3], Q[j], Q[(j + 2) % 3]
    dia = diamond(t)
    if _dist(dia, (px - qx + kx, py - qy + ky)) < dia[2]:
        return False
    (px, py), (ox, oy), (qx, qy) = P[(i + 2) % 3], P[i], Q[(j + 1) % 3]
    dia = diamond(u)
    return _dist(dia, (px - ox + qx, py - oy + qy)) >= dia[2]


@dataclass
class DelaunayTriangulation:
    """The L1 Delaunay surface, its diamonds, and how it was reached.

    vertex_of_corner gives each corner of `surface` the id of its vertex on
    the input surface.  flips records every flip in order as (slot, mate,
    new t, new u): the flipped edge's slot (t, i) and its glued mate (u, j)
    on the triangulation before the flip, and the int corners (corner 0 at
    the origin, at the input's scale D) of the two triangles that replace
    t and u.  `carry` replays it on a corner; it stays out of `to_json`.
    """

    surface: TranslationSurface
    certificates: Tuple[DiamondCertificate, ...]
    vertex_of_corner: Dict[Slot, int]  # vertex ids of the input surface
    flips: List[Tuple[Slot, Slot, tuple, tuple]]

    @property
    def flip_count(self) -> int:
        return len(self.flips)

    def carry(self, corner: Slot, vertex: int, direction: ExactVector) -> Slot:
        """The corner of `surface` on the sheet that the input corner
        `corner`, at `vertex`, opens in the given direction.

        Each flip replaces the quad a -> d -> b -> c, cut by a -> b, with
        the one cut by d -> c (see `_flip`).  A corner of the old pair goes
        on as the new corner at the same point whose wedge holds the
        direction: at a and b the two old corners merge into one, at c and
        d the old corner splits in two.  Every other corner stays where it
        is.  Raises InputError, and never guesses, when the corner's wedge
        does not hold the direction or the carried corner is not at vertex.
        """
        r = _ints(direction, _scale_of([direction]))
        for (t, i), (u, j), new_t, new_u in self.flips:
            if corner[0] not in (t, u):
                continue
            a, b, c = new_u[2], new_t[1], new_t[2]  # and d at the origin
            old, k = ((a, b, c), corner[1] - i) if corner[0] == t else ((b, a, (0, 0)), corner[1] - j)
            if not _in_wedge(old, k % 3, r):
                raise InputError("corner wedge does not contain the direction")
            corner = next((x, n) for x, tri in ((t, new_t), (u, new_u)) for n in range(3)
                          if tri[n] == old[k % 3] and _in_wedge(tri, n, r))
        if self.vertex_of_corner.get(corner) != vertex:
            raise InputError(f"corner is not at vertex {vertex}")
        if not _in_wedge(self.surface.int_corners()[1][corner[0]], corner[1], r):
            raise InputError("corner wedge does not contain the direction")
        return corner

    def to_json_dict(self):
        data = self.surface.to_json_dict()
        data["certificates"] = [c.to_json_dict() for c in self.certificates]
        data["flip_count"] = self.flip_count
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _flip(tris, glue, vertex, slot: Slot):
    """Flip the edge at slot in place; returns the four outer edge slots of
    the flipped quad (new labels)."""
    t, i = slot
    u, j = glue[slot]
    a, b, c, d = _developed_quad(tris, glue, slot)
    # Quad ccw cycle a -> d -> b -> c; new diagonal d -> c.
    if _turn(d, b, c) <= 0 or _turn(d, c, a) <= 0:
        raise DegenerateDiamondError("flip would create a degenerate triangle")

    va = vertex[(t, i)]
    vb = vertex[(t, (i + 1) % 3)]
    vc = vertex[(t, (i + 2) % 3)]
    vd = vertex[(u, (j + 2) % 3)]

    old_outer = [
        (t, (i + 1) % 3),  # b -> c
        (t, (i + 2) % 3),  # c -> a
        (u, (j + 1) % 3),  # a -> d
        (u, (j + 2) % 3),  # d -> b
    ]
    partners = [glue[s] for s in old_outer]
    old_new = {
        old_outer[0]: (t, 1),
        old_outer[1]: (u, 1),
        old_outer[2]: (u, 2),
        old_outer[3]: (t, 0),
    }
    # New triangles: t := (d, b, c), u := (d, c, a), corner 0 at d.
    tris[t] = [(0, 0), _sub(b, d), _sub(c, d)]
    tris[u] = [(0, 0), _sub(c, d), _sub(a, d)]
    # Rebuild gluings; partners that were themselves outer edges of this
    # quad are remapped to their new labels.
    for s_old, partner in zip(old_outer, partners):
        s_new = old_new[s_old]
        partner = old_new.get(partner, partner)
        glue[s_new] = partner
        glue[partner] = s_new
    glue[(t, 2)] = (u, 0)
    glue[(u, 0)] = (t, 2)

    vertex[(t, 0)], vertex[(t, 1)], vertex[(t, 2)] = vd, vb, vc
    vertex[(u, 0)], vertex[(u, 1)], vertex[(u, 2)] = vd, vc, va
    return [old_new[s] for s in old_new] + [(t, 2)]


def _euclidean_needs_flip(tris, glue, slot) -> bool:
    return _incircle_strict(*_developed_quad(tris, glue, slot))


def _flip_until_stable(tris, glue, vertex, decide, max_flips, flips) -> None:
    """Flip by decide until no edge needs it, appending to the record flips."""
    pending = deque(sorted({min(sl, glue[sl]) for sl in glue}))
    while pending:
        slot = pending.popleft()
        if not decide(tris, glue, slot):
            continue
        if len(flips) >= max_flips:
            raise FlipCycleError("flip budget exhausted", flips=len(flips))
        mate = glue[slot]
        pending.extend(_flip(tris, glue, vertex, slot))
        flips.append((slot, mate, tuple(tris[slot[0]]), tuple(tris[mate[0]])))


def delaunay_l1(s: TranslationSurface) -> DelaunayTriangulation:
    """Flip non-locally-Delaunay edges (FIFO) until none remain.

    Runs a Euclidean Delaunay pass first (exact incircle flips, which always
    terminate) and then L1 flips from that start; cocircular quadruples are
    accepted on-boundary with ties broken toward the strictly shorter
    diagonal.  The one stopping rule is the flip budget, _FLIPS_BASE +
    _FLIPS_PER_TRIANGLE per triangle for both passes together: a set whose
    flips have not settled within it raises FlipCycleError("flip budget
    exhausted", flips=...).  The final triangulation is certified per
    triangle, then each edge is tested once on those diamonds, from its first
    slot in gluing order, as `is_locally_delaunay` tests it; the first failing
    slot raises FlipCycleError("post-hoc Delaunay verification failed", slot=...).
    """
    scale, corners = s.int_corners()
    tris = [list(tri) for tri in corners]
    glue = dict(s.gluings)
    vertex = {(t, c): s.corner_vertex((t, c)) for t in range(s.n_triangles()) for c in range(3)}
    max_flips = _FLIPS_BASE + _FLIPS_PER_TRIANGLE * len(tris)

    flips = []
    _flip_until_stable(tris, glue, vertex, _euclidean_needs_flip, max_flips, flips)
    _flip_until_stable(tris, glue, vertex, _needs_flip, max_flips, flips)

    surface = TranslationSurface(
        [Triangle(tuple(_vec(_sub(P[(i + 1) % 3], P[i]), scale) for i in range(3))) for P in tris], glue
    )
    surface.validate()
    diamonds = [_diamond(*tri) for tri in tris]
    tested = set()
    for slot, mate in glue.items():
        if mate not in tested and not _locally_delaunay(tris, glue, slot, diamonds.__getitem__):
            raise FlipCycleError("post-hoc Delaunay verification failed", slot=slot)
        tested.add(slot)
    # Consistency: the maintained vertex labels must refine to the same
    # partition the new surface derives on its own.
    derived = {}
    for corner, vid in vertex.items():
        derived.setdefault(surface.corner_vertex(corner), set()).add(vid)
    for group in derived.values():
        if len(group) != 1:
            raise InputError("vertex tracking diverged during flips")
    return DelaunayTriangulation(
        surface=surface,
        certificates=tuple(_certificate(dia, scale) for dia in diamonds),
        vertex_of_corner=vertex,
        flips=flips,
    )


def _incircle_strict(a, b, c, d) -> bool:
    """Exact Euclidean incircle test: d strictly inside the circumcircle of
    the ccw triangle (a, b, c)."""
    ax, ay = a[0] - d[0], a[1] - d[1]
    bx, by = b[0] - d[0], b[1] - d[1]
    cx, cy = c[0] - d[0], c[1] - d[1]
    na = ax * ax + ay * ay
    nb = bx * bx + by * by
    nc = cx * cx + cy * cy
    det = (
        ax * (by * nc - nb * cy)
        - ay * (bx * nc - nb * cx)
        + na * (bx * cy - by * cx)
    )
    return det > 0


def _edge_empty_diamond_exists(a, b, c, d) -> bool:
    """Exists an L1 disc with the int points a, b on its boundary and c, d
    outside or on it.

    In the doubled rotated frame an L1 disc is a square Q, the set
    max(|U - cu|, |V - cv|) <= r.  The disc exists iff some Q holds a and b
    and has c and d outside its interior: shrink Q about b until a reaches
    its boundary, then about a until b does; each image lies in the one
    before, so c and d stay outside.  Let [lo, hi] be the bounding box of a
    and b and m > 0 its larger extent (a != b).  Q holds a and b iff it contains the box,
    so 2r >= m.  A point p lies on or beyond Q's side U = cu + r only if
    p_U >= hi[0], and then the square [hi[0] - m, hi[0]] x [lo[1], lo[1] + m]
    is such a Q; likewise for the other three sides.  Equal or adjacent
    sides for c and d share the square of extent m flush with the box at
    that side or corner.  Opposite sides along one axis need an extent
    2r >= m around the box and between the two points, which fits iff the
    points are at least m apart along that axis.
    """
    pa, pb, pc, pd = (_doubled(p) for p in (a, b, c, d))
    lo = [min(pa[k], pb[k]) for k in (0, 1)]
    hi = [max(pa[k], pb[k]) for k in (0, 1)]
    m = max(hi[0] - lo[0], hi[1] - lo[1])

    def beyond(p):
        return [(k, e) for k, e in _SIDES if (p[k] >= hi[k] if e > 0 else p[k] <= lo[k])]

    return any(
        kc != kd or ec == ed or ec * (pc[kc] - pd[kc]) >= m
        for kc, ec in beyond(pc)
        for kd, ed in beyond(pd)
    )


def _needs_flip(tris, glue, slot) -> bool:
    """L1 flip decision for one edge: flip when no L1 disc through the edge
    endpoints excludes both apexes (and the quad is strictly convex), with
    the cocircular tie broken toward the strictly shorter diagonal."""
    a, b, c, d = _developed_quad(tris, glue, slot)
    convex = _turn(d, b, c) > 0 and _turn(d, c, a) > 0
    # Fast path: an existing circumdisc of either adjacent triangle decides.
    for p, q, apex, other in ((a, b, c, d), (b, a, d, c)):
        try:
            dia = _diamond(p, q, apex)
        except DegenerateDiamondError:
            continue
        dist = _dist(dia, other)
        if dist < dia[2]:
            return convex
        if dist == dia[2]:
            # Degenerate quadruple: prefer the strictly shorter diagonal.
            cd = _sub(c, d)
            return convex and cd[0] * cd[0] + cd[1] * cd[1] < b[0] * b[0] + b[1] * b[1]
        return False
    return convex and not _edge_empty_diamond_exists(a, b, c, d)

