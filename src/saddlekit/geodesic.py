"""Saddle connection enumeration and directional geometry.

Enumeration is one best-first search that develops triangles into the plane
from (triangle, direction-wedge) states rooted at every vertex corner.  A
state carries the developed edge just crossed and the open wedge of
directions still visible from the apex; the neighbor's new vertex either
splits the wedge (and is found as a connection) or passes it through.  A
state's key is the exact squared distance from the apex to the visible part
of its crossed edge, a found connection's key its squared length, and
nothing beyond the search radius is pushed.  A child's key is never below
its parent's, so when the first connection of some length leaves the heap,
every connection of that length is already in it: connections come out
shortest first, and a caller may stop at any length.  The search scales the
surface by D, the lcm of its edge-coordinate denominators, so developed
positions are int pairs and every decision is an exact integer sign or
cross-multiplied comparison; a squared distance is an int (num, den) pair.
Connections of one length are sorted on int keys at that scale too, and no
connection is reached twice, so none is deduplicated; Fractions are built
only for the connections yielded.  The int corner positions are the
surface's own, built once by validation (`int_corners`).

The homology class of an emitted connection is the chain of triangulation
edges along the right-hand boundary of the developed triangle strip (the
strip's two boundary paths differ by triangle boundaries, hence are
homologous), reduced to canonical form.

Every straight line that is followed rather than searched for (a traced
connection, the strip a Chew path walks along, the closed leaf that finds
the cylinder beside a connection) goes through one walker, _corridor, which
crosses one triangle at a time and reports on which side of the line each
new vertex lies.  It runs on ints too, scaled by K = lcm(D, the denominators
of the line's direction); ExactVectors are built for results only.

Scaled by K, the vertices lie on the lines of a connection's primitive
direction at integer levels, so the leaf half a level to its left meets no
vertex and closes after one period: detect_cylinder traces it in the
doubled frame, with ints only, and every connection of a rational surface
bounds a cylinder on each side.
"""

from __future__ import annotations

import heapq
import math
from itertools import count as _serial, islice
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import BlockedAtVertex, InputError, ResourceLimitError
from .exactplane import (
    ExactVector, _ints, _scale_of, _unit_cross, _vec, default_budget, format_rational, to_fraction,
)
from .surface import Slot, TranslationSurface, _in_wedge


@dataclass(frozen=True, slots=True)
class SaddleConnection:
    holonomy: ExactVector
    start: int
    end: int
    crossings: Tuple[Slot, ...]
    homology_class: Tuple[int, ...]
    start_corner: Slot

    def length_sq(self) -> Fraction:
        return self.holonomy.norm_sq()

    def sort_key(self):
        h = self.holonomy
        return (h.norm_sq(), h.x, h.y, self.start, self.end, self.crossings)

    def __str__(self):
        return f"SaddleConnection({self.holonomy}, {self.start}->{self.end})"


@dataclass(frozen=True)
class HolonomySet:
    radius_sq: Fraction
    connections: Tuple[SaddleConnection, ...]

    def vectors(self) -> frozenset:
        return frozenset(c.holonomy for c in self.connections)

    def n_vectors(self) -> int:
        """len(vectors()), counted without hashing: the connections come in
        stream order, where equal holonomies are adjacent."""
        cs = self.connections
        return sum(1 for a, b in zip(cs, cs[1:]) if a.holonomy != b.holonomy) + (len(cs) > 0)

    def __len__(self):
        return len(self.connections)

    def csv_rows(self) -> List[List]:
        rows = []
        for c in self.connections:
            h, n = c.holonomy, c.length_sq()
            rows.append(
                [
                    h.x.numerator,
                    h.x.denominator,
                    h.y.numerator,
                    h.y.denominator,
                    n.numerator,
                    n.denominator,
                    c.start,
                    c.end,
                ]
            )
        return rows

    CSV_HEADER = ["x_num", "x_den", "y_num", "y_den", "len_sq_num", "len_sq_den", "start", "end"]


def _visible_dist_sq(x, y, a, b):
    """Squared distance from the origin to the part of segment [x, y] inside
    the wedge (a, b), as an exact (num, den) pair; every argument is an int
    pair.

    The clipped ends are x + s (y - x) at s = pn/pd (ray a) and s = qn/qd
    (ray b), both denominators positive.  The nearest point is the clipped
    end beyond which the perpendicular foot falls, or else the foot.
    """
    x0, x1 = x
    y0, y1 = y
    a0, a1 = a
    b0, b1 = b
    e0, e1 = y0 - x0, y1 - x1
    ax = a0 * x1 - a1 * x0
    if ax >= 0:
        pn, pd = 0, 1
    else:
        pn, pd = -ax, a0 * y1 - a1 * y0 - ax
    by = b0 * y1 - b1 * y0
    if by <= 0:
        qn, qd = 1, 1
    else:
        bx = b0 * x1 - b1 * x0
        qn, qd = -bx, by - bx
    # Perpendicular foot at s = fn/fd.
    fn, fd = -(x0 * e0 + x1 * e1), e0 * e0 + e1 * e1
    if fn * pd <= pn * fd:
        px, py = x0 * pd + pn * e0, x1 * pd + pn * e1
        return px * px + py * py, pd * pd
    if fn * qd >= qn * fd:
        qx, qy = x0 * qd + qn * e0, x1 * qd + qn * e1
        return qx * qx + qy * qy, qd * qd
    c = x0 * y1 - x1 * y0
    return c * c, fd


_STATE, _FOUND = 0, 1  # on equal floats, states are expanded before connections leave


def connections(s: TranslationSurface, radius_sq):
    """Saddle connections of squared length <= radius_sq, shortest first.

    Yields each connection once, in strictly increasing (sort_key(),
    start_corner) order, so a caller may stop at any length.  Raises
    ResourceLimitError when the search needs more states than the work
    budget, ``exactplane.default_budget()``, read once per search; its
    details say how far the search got, and every connection strictly
    shorter than radius_sq_reached has been yielded by then.

    No connection is reached twice.  The corners around a vertex split the
    directions there into half-open wedges [out-edge, in-edge): a root finds
    the out-edge and searches the open wedge.  A state's new vertex either
    lies inside its open wedge, is found, and splits the wedge into two open
    ones, or lies outside and the wedge passes on whole.  So the open wedges
    alive at any time are disjoint, and the segment from a vertex in a given
    direction, on a given sheet, is found at most once.

    Found connections of one length leave the heap together.  Each is keyed
    by ints at the surface's scale D: (hx^2 + hy^2, hx, hy, start, end,
    crossings, start_corner) with (hx, hy) its holonomy times D.  As D > 0,
    that key orders connections exactly as (sort_key(), start_corner) does;
    the holonomy's Fractions and the homology class are built only for the
    connections yielded, and equal holonomies of a group share one
    ExactVector.
    """
    # Scaled by D, every developed position is an int pair.
    scale, corners = s.int_corners()
    budget = default_budget()
    homology = s.homology()
    vertex = s.corner_vertex
    scale_sq = scale * scale
    limit = Fraction(radius_sq) * scale_sq
    rn, rd = limit.numerator, limit.denominator
    heap: list = []
    serial = _serial()

    def push(num, den, kind, payload):
        if num * rd <= rn * den:
            # Ordered by the float alone: an exact tie-break would compare
            # keys in the heap on every tie, which symmetric surfaces hit
            # constantly.  Int true division rounds correctly, so the float
            # is that of the unscaled squared distance; float() is monotone,
            # and exact order is restored where floats are equal (groups,
            # budget radius).
            heapq.heappush(heap, (num / (den * scale_sq), kind, next(serial), (num, den), payload))

    for t, std in enumerate(corners):
        for c in range(3):
            slot, head = (t, c), (t, (c + 1) % 3)
            # Corner c at the origin; the other two corners span the wedge.
            (ox, oy), (x1, y1), (x2, y2) = std[c], std[(c + 1) % 3], std[(c + 2) % 3]
            p1, p2 = (x1 - ox, y1 - oy), (x2 - ox, y2 - oy)
            push(p1[0] * p1[0] + p1[1] * p1[1], 1, _FOUND, (None, slot, p1, head))
            push(*_visible_dist_sq(p1, p2, p1, p2), _STATE, (head, p1, p2, p1, p2, (None, head, slot)))
    states = yielded = 0
    while heap:
        fkey, kind, _, key, payload = heapq.heappop(heap)
        if kind == _FOUND:
            # Keys never decrease along the search, so every connection
            # whose length has this float is in the heap now.
            group = [payload]
            while heap and heap[0][0] == fkey:
                group.append(heapq.heappop(heap)[4])
            keys = []
            for node, last_lower, (hx, hy), end_corner in group:
                # A link is (parent, crossed slot, lower-boundary slot or
                # None); the root link's lower slot is the start corner, and
                # last_lower closes the strip's lower boundary at the end.
                crossings, lower = [], [last_lower]
                while node is not None:
                    node, crossed, low = node
                    crossings.append(crossed)
                    if low is not None:
                        lower.append(low)
                crossings.reverse()
                start_corner = lower[-1]
                keys.append((hx * hx + hy * hy, hx, hy, vertex(start_corner), vertex(end_corner),
                             tuple(crossings), start_corner, lower))
            # start_corner is part of the key: distinct parallel segments
            # (e.g. the two banks of a slit) agree in holonomy, endpoints
            # and crossings.  No two keys are equal, so lower never decides.
            keys.sort()
            h = holonomy = None
            for _, hx, hy, start, end, crossings, start_corner, lower in keys:
                if (hx, hy) != h:
                    h, holonomy = (hx, hy), _vec((hx, hy), scale)
                yielded += 1
                yield SaddleConnection(holonomy, start, end, crossings,
                                       homology.class_of_slots(lower), start_corner)
            continue
        if states >= budget:
            # An entry with the same float may hold a smaller exact key.
            reached = min(Fraction(n, d * scale_sq)
                          for n, d in [key] + [e[3] for e in heap if e[0] == fkey])
            raise ResourceLimitError(
                "enumeration state budget exceeded", budget=budget, states=states,
                connections=yielded, radius_sq_reached=format_rational(reached),
            )
        states += 1
        slot, x, y, a, b, node = payload
        u, j = s.gluings[slot]
        ustd = corners[u]
        # The glued edge runs head-to-tail: corner j sits at y, j+1 at x.
        (jx, jy), (kx, ky) = ustd[j], ustd[(j + 2) % 3]
        cx, cy = y[0] - jx + kx, y[1] - jy + ky
        cpos = (cx, cy)
        ca = a[0] * cy - a[1] * cx
        cb = cx * b[1] - cy * b[0]
        slot_a = (u, (j + 1) % 3)  # x -> c
        slot_b = (u, (j + 2) % 3)  # c -> y
        if ca > 0 and cb > 0:
            push(cx * cx + cy * cy, 1, _FOUND, (node, slot_a, cpos, slot_b))
            push(*_visible_dist_sq(x, cpos, a, cpos), _STATE,
                 (slot_a, x, cpos, a, cpos, (node, slot_a, None)))
            push(*_visible_dist_sq(cpos, y, cpos, b), _STATE,
                 (slot_b, cpos, y, cpos, b, (node, slot_b, slot_a)))
        elif ca <= 0:
            # New vertex at or below ray a: the wedge passes through c -> y.
            push(*_visible_dist_sq(cpos, y, a, b), _STATE,
                 (slot_b, cpos, y, a, b, (node, slot_b, slot_a)))
        else:
            # cb <= 0: at or above ray b, pass through x -> c.
            push(*_visible_dist_sq(x, cpos, a, b), _STATE,
                 (slot_a, x, cpos, a, b, (node, slot_a, None)))


def enumerate_connections(
    s: TranslationSurface,
    radius=None,
    *,
    radius_sq=None,
) -> HolonomySet:
    """All saddle connections of Euclidean length <= radius.

    Exactly one of radius / radius_sq must be given; radius_sq admits search
    circles whose radius is an irrational square root of a rational (used by
    analytic area normalization).
    """
    if (radius is None) == (radius_sq is None):
        raise InputError("pass exactly one of radius, radius_sq")
    if radius is not None:
        r = to_fraction(radius)
        if r <= 0:
            raise InputError("radius must be positive")
        radius_sq = r * r
    else:
        radius_sq = to_fraction(radius_sq)
        if radius_sq <= 0:
            raise InputError("radius_sq must be positive")
    return HolonomySet(radius_sq=radius_sq, connections=tuple(connections(s, radius_sq)))


def count(s: TranslationSurface, radius) -> int:
    """Number of distinct holonomy vectors of length <= radius."""
    return enumerate_connections(s, radius).n_vectors()


def shortest(s: TranslationSurface) -> SaddleConnection:
    """A connection of minimal length; ties broken lexicographically.

    The shortest connection is never longer than the shortest triangulation
    edge, which bounds the search.
    """
    return next(connections(s, s.min_edge_norm_sq()))


def _outside_class(homology, gamma: SaddleConnection):
    """Predicate on homology classes: not +/- [gamma]."""
    return lambda cls: not homology.is_pm(cls, gamma.homology_class)


def nonhomologous_edge_bound(s: TranslationSurface, gamma: SaddleConnection) -> Fraction:
    """Squared length U of the shortest triangulation edge whose class is
    not +/- [gamma].

    Triangulation edges are saddle connections, so the shortest connection
    outside +/- [gamma] has squared length at most U.  Such an edge exists:
    the three edges of a triangle are not all parallel to gamma.
    """
    homology = s.homology()
    outside = _outside_class(homology, gamma)
    return min(
        s.edge_vector(slot).norm_sq()
        for slot in s.slots()
        if outside(homology.class_of_slots([slot]))
    )


def second_shortest_nonhomologous(s: TranslationSurface) -> SaddleConnection:
    """Shortest connection whose class is not +/- the class of the shortest.

    The search is bounded by U = nonhomologous_edge_bound(s, gamma): the
    edge that attains U lies outside the class, so the search finds an
    answer and stops at the first one.
    """
    gamma = shortest(s)
    bound = nonhomologous_edge_bound(s, gamma)
    outside = _outside_class(s.homology(), gamma)
    return next(c for c in connections(s, bound) if outside(c.homology_class))


def reverse_of(s: TranslationSurface, conn: SaddleConnection) -> SaddleConnection:
    """The same geodesic segment traversed backwards."""
    rev_crossings = tuple(s.gluings[slot] for slot in reversed(conn.crossings))
    if conn.crossings:
        u, j = s.gluings[conn.crossings[-1]]
        end_corner = (u, (j + 2) % 3)
    else:
        end_corner = s.gluings[conn.start_corner]
    return SaddleConnection(
        holonomy=-conn.holonomy,
        start=conn.end,
        end=conn.start,
        crossings=rev_crossings,
        homology_class=tuple(-x for x in conn.homology_class),
        start_corner=end_corner,
    )


# --- straight segments through the triangle strip ------------------------

_MAX_CROSSINGS = 100_000


def _frame(s: TranslationSurface, *vectors):
    """K = lcm(D, the vectors' coordinate denominators), the surface's int
    corners scaled to K, and the vectors as int pairs at K."""
    scale, corners = s.int_corners()
    k = math.lcm(scale, _scale_of(vectors))
    if k != scale:
        m = k // scale
        corners = [tuple((x * m, y * m) for x, y in tri) for tri in corners]
    return k, corners, [_ints(v, k) for v in vectors]


def _corridor(s: TranslationSurface, corners, slot: Slot, x, y, d):
    """Follow the line through the origin along d across the triangulation.

    Positions are int pairs at the scale of corners, the surface's int corner
    positions.  The line enters through slot, the developed edge x -> y with
    x on its right and y on its left.  Each step places the neighbour across
    slot and yields (slot, (u, j), offset, x, y, apex, side): the slot
    crossed, its glued mate in u, u's offset, the crossed edge, u's new apex
    and side = d x apex, positive left of the line.  The line then leaves u
    through x -> apex (side > 0) or apex -> y (side < 0); at side == 0 it
    meets the apex and the caller must stop.  A caller tracing a line through
    q develops with q at the origin, saving a d x q term at every step.
    """
    dx, dy = d
    while True:
        u, j = glued = s.gluings[slot]
        std = corners[u]
        # The glued edge runs head-to-tail: corner j sits at y, j+1 at x.
        (jx, jy), (kx, ky) = std[j], std[(j + 2) % 3]
        ox, oy = y[0] - jx, y[1] - jy
        apex = (ox + kx, oy + ky)
        side = dx * apex[1] - dy * apex[0]
        yield slot, glued, (ox, oy), x, y, apex, side
        if side > 0:
            slot, y = (u, (j + 1) % 3), apex
        else:
            slot, x = (u, (j + 2) % 3), apex


def _start_corner(s: TranslationSurface, corners, d: ExactVector) -> Slot:
    """The one of the given corners whose half-open wedge [out-edge,
    in-edge) holds the direction d.

    At a cone point of angle above 2 pi several corners hold d, one per
    sheet, and d alone does not say which: that raises InputError, as does
    a direction that no corner holds.
    """
    _, tris = s.int_corners()
    # A positive multiple of d: only its direction matters.
    r = (d.x.numerator * d.y.denominator, d.y.numerator * d.x.denominator)
    held = [(t, c) for t, c in corners if _in_wedge(tris[t], c, r)]
    if not held:
        raise InputError("no corner wedge contains the direction")
    if len(held) > 1:
        raise InputError("several corner wedges contain the direction, one per sheet")
    return held[0]


def _strip(s: TranslationSurface, corner: Slot, d: ExactVector):
    """Develop the strip crossed by the segment 0 -> d leaving corner.

    Returns (k, placed, crossings, lower, end): the frame k, the placed
    triangles as (triangle, its three corner positions as int pairs at k)
    with the start vertex at the origin, the slots crossed, the slots along
    the strip's lower boundary up to the vertex at d, and that vertex.
    Raises BlockedAtVertex if the segment meets a vertex short of d,
    InputError if no vertex sits at d.
    """
    k, corners, [(dx, dy)] = _frame(s, d)
    t, c = corner
    (ox, oy), (x1, y1), (x2, y2) = (corners[t][(c + i) % 3] for i in range(3))
    placed = [(t, tuple((px - ox, py - oy) for px, py in corners[t]))]
    x = (x1 - ox, y1 - oy)
    d_sq = dx * dx + dy * dy
    if x[0] * dy - x[1] * dx == 0:
        end = s.corner_vertex((t, (c + 1) % 3))
        if x == (dx, dy):
            return k, placed, [], [corner], end
        if x[0] * x[0] + x[1] * x[1] < d_sq:
            raise BlockedAtVertex(_vec(x, k), end)
        raise InputError("displacement falls short of the edge vertex")
    crossings, lower = [], [corner]
    walk = _corridor(s, corners, (t, (c + 1) % 3), x, (x2 - ox, y2 - oy), (dx, dy))
    for slot, (u, j), (ux, uy), _, _, (ax, ay), side in islice(walk, _MAX_CROSSINGS):
        placed.append((u, tuple((ux + px, uy + py) for px, py in corners[u])))
        crossings.append(slot)
        if side < 0:
            lower.append((u, (j + 1) % 3))
        elif side == 0:
            end = s.corner_vertex((u, (j + 2) % 3))
            if (ax, ay) == (dx, dy):
                return k, placed, crossings, lower + [(u, (j + 1) % 3)], end
            if ax * ax + ay * ay < d_sq and ax * dx + ay * dy > 0:
                raise BlockedAtVertex(_vec((ax, ay), k), end)
            raise InputError("trace left the segment corridor; displacement invalid")
    raise ResourceLimitError("segment trace did not terminate")


def trace_connection(
    s: TranslationSurface, start_vertex: int, displacement: ExactVector
) -> SaddleConnection:
    """The saddle connection from a vertex with the given exact holonomy.

    Raises BlockedAtVertex if the straight segment passes through another
    vertex first, InputError if no vertex sits at the displacement, and
    InputError at a cone point, where the vertex and the holonomy leave one
    segment per sheet (`_start_corner`).
    """
    s.validate()
    if displacement.is_zero():
        raise InputError("displacement must be nonzero")
    corners = [
        (t, c)
        for t in range(s.n_triangles())
        for c in range(3)
        if s.corner_vertex((t, c)) == start_vertex
    ]
    corner = _start_corner(s, corners, displacement)
    _, _, crossings, lower, end = _strip(s, corner, displacement)
    return SaddleConnection(
        holonomy=displacement,
        start=start_vertex,
        end=end,
        crossings=tuple(crossings),
        homology_class=s.homology().class_of_slots(lower),
        start_corner=corner,
    )


# --- cylinder detection ----------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    width_sq: Fraction  # circumference^2 of the core curves
    height_sq: Fraction
    period: ExactVector  # holonomy of the core

    def width(self) -> float:
        return float(self.width_sq) ** 0.5

    def height(self) -> float:
        return float(self.height_sq) ** 0.5


@dataclass(frozen=True)
class Unknown:
    reason: str


def detect_cylinder(s: TranslationSurface, conn: SaddleConnection, max_trace):
    """The cylinder on the left of the connection, which holds it on its
    boundary, or Unknown when its circumference exceeds max_trace.

    Scaled by k (_frame), every developed vertex is an int point, and with
    (a, b) the primitive direction of the connection it lies on a line
    a y - b x = n with n an integer; n mod 1 is well defined on the surface,
    since the holonomy of a closed loop is an int vector.  So a leaf at a
    level n outside the integers meets no vertex, and it closes: it covers a
    closed leaf of the torus R^2 / Z^2, of which the surface is a finite
    branched cover.  The leaves at levels in (0, 1) next to the connection
    form one cylinder, whose lower boundary at n = 0 holds the connection;
    reversed, the connection bounds the cylinder on its right in the same
    way.  Every connection of a rational surface thus lies on a cylinder
    boundary on each side.

    The leaf traced is the one at n = 1/2, in the doubled frame through an
    int point q with a q_y - b q_x = 1.  It crosses the edge opposite the
    start corner, whose ends lie on either side of it, and closes when it
    crosses that edge again at a translation parallel to (a, b), the period.
    The lowest vertex on its left among the triangles it crosses bounds the
    cylinder: the crossed triangles cover the band from the leaf up to it.
    A leaf still open after _MAX_CROSSINGS crossings raises
    ResourceLimitError with the connection's holonomy, the crossings made
    and the squared length of leaf traced (circumference_sq_reached).
    """
    s.validate()
    max_trace = to_fraction(max_trace)
    if max_trace <= 0:
        raise InputError("max_trace must be positive")
    d = conn.holonomy
    if tuple(_strip(s, conn.start_corner, d)[2]) != conn.crossings:
        raise InputError("crossing sequence inconsistent with chain")
    k, corners, [(dx, dy)] = _frame(s, d)
    g = math.gcd(dx, dy)
    a, b = dx // g, dy // g
    qx, qy = _unit_cross(a, b)
    kk = 2 * k
    corners = [tuple((2 * px, 2 * py) for px, py in tri) for tri in corners]
    t, c = conn.start_corner
    tri = corners[t]
    ox, oy = tri[c][0] + qx, tri[c][1] + qy  # the start vertex at -q
    x, y = ((px - ox, py - oy) for px, py in (tri[(c + 1) % 3], tri[(c + 2) % 3]))
    start = (t, (c + 1) % 3)
    # A crossing sits at (n / m) (a, b) from q, the first at (n0 / m0) (a, b);
    # the leaf's length between them is past max_trace when
    # (n m0 - n0 m)^2 |(a, b)|^2 > (max_trace kk)^2 (m m0)^2.
    limit = max_trace * max_trace * kk * kk
    ab_sq = (a * a + b * b) * limit.denominator
    n0 = m0 = None
    gap, mm = 0, 1
    min_left = a * y[1] - b * y[0]
    walk = _corridor(s, corners, start, x, y, (a, b))
    for slot, _, _, (x0, x1), (y0, y1), _, side in islice(walk, _MAX_CROSSINGS):
        e0, e1 = y0 - x0, y1 - x1
        n, m = x0 * e1 - x1 * e0, a * e1 - b * e0
        if n0 is None:
            n0, m0 = n, m
        gap, mm = n * m0 - n0 * m, m * m0
        if gap * gap * ab_sq > limit.numerator * mm * mm:
            return Unknown("circumference exceeds max_trace")
        if slot == start:
            w = (x0 - x[0], x1 - x[1])
            if w != (0, 0) and a * w[1] - b * w[0] == 0:
                period = _vec(w, kk)
                # A vertex at level n has side 2n - 1.
                height_sq = Fraction((min_left + 1) ** 2, (a * a + b * b) * kk * kk)
                return Cylinder(period.norm_sq(), height_sq, period)
        if 0 < side < min_left:
            min_left = side
    # The walk never ends by itself, so it stopped at the crossing cap.
    reached = Fraction(gap * gap * (a * a + b * b), (mm * kk) ** 2)
    raise ResourceLimitError(
        "leaf trace did not close", holonomy=d.to_json(), crossings=_MAX_CROSSINGS,
        circumference_sq_reached=format_rational(reached),
    )
