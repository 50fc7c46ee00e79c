"""The int walker and the int validation against the Fraction code they replaced.

`_reference_corridor`, `_reference_segment` and `_reference_leaf` are the
Fraction walker that preceded the int one, `_reference_start_corner` its
wedge test and `_reference_detect_cylinder` the offset search that the
half-step leaf of `detect_cylinder` replaced; they are kept here as the
reference, as `test_delaunay._reference_diamond_of` is.
`_reference_vertices` is the Fraction cone-angle winding of the validation
that preceded the int one.
"""

import math
import random
from fractions import Fraction
from itertools import islice

from saddlekit import mc
from saddlekit.builders import marked_torus, octagon_h2, slit_torus, square_torus
from saddlekit.errors import BlockedAtVertex, InputError, ResourceLimitError
from saddlekit.exactplane import ZERO, ExactMatrix, ExactVector
from saddlekit.geodesic import (
    Cylinder,
    Unknown,
    _segment,
    _start_corner,
    connections,
    detect_cylinder,
    trace_connection,
)
from saddlekit.surface import StratumSignature, apply_surface


def V(x, y):
    return ExactVector.of(x, y)


# --- the Fraction reference -------------------------------------------------


def _reference_corridor(s, slot, x, y, d):
    while True:
        u, j = glued = s.gluings[slot]
        std = s.triangles[u].corner_positions()
        offset = y - std[j]
        apex = offset + std[(j + 2) % 3]
        side = d.cross(apex)
        yield slot, glued, offset, x, y, apex, side
        if side > 0:
            slot, y = (u, (j + 1) % 3), apex
        else:
            slot, x = (u, (j + 2) % 3), apex


def _reference_start_corner(s, corners, d):
    for t, c in corners:
        edges = s.triangles[t].edges
        turn = edges[c].cross(d)
        if turn == 0 and edges[c].dot(d) > 0 or turn > 0 and edges[(c + 2) % 3].cross(d) > 0:
            return (t, c)
    raise InputError("no corner wedge contains the direction")


def _reference_segment(s, corner, d):
    """Returns placements as (triangle, offset of corner 0)."""
    t, c = corner
    std = s.triangles[t].corner_positions()
    placements = [(t, ZERO - std[c])]
    x = std[(c + 1) % 3] - std[c]
    if x.cross(d) == 0:
        end = s.corner_vertex((t, (c + 1) % 3))
        if x == d:
            return placements, [], [corner], end
        if x.norm_sq() < d.norm_sq():
            raise BlockedAtVertex(x, end)
        raise InputError("displacement falls short of the edge vertex")
    crossings, lower = [], [corner]
    walk = _reference_corridor(s, (t, (c + 1) % 3), x, std[(c + 2) % 3] - std[c], d)
    for slot, (u, j), offset, _, _, apex, side in islice(walk, 100_000):
        placements.append((u, offset))
        crossings.append(slot)
        if side < 0:
            lower.append((u, (j + 1) % 3))
        elif side == 0:
            end = s.corner_vertex((u, (j + 2) % 3))
            if apex == d:
                return placements, crossings, lower + [(u, (j + 1) % 3)], end
            if apex.norm_sq() < d.norm_sq() and apex.dot(d) > 0:
                raise BlockedAtVertex(apex, end)
            raise InputError("trace left the segment corridor; displacement invalid")
    raise ResourceLimitError("segment trace did not terminate")


def _reference_leaf(s, t0, off0, q, d, max_trace_sq, max_steps=200_000):
    d_sq = d.norm_sq()
    off0 = off0 - q
    corners = [off0 + v for v in s.triangles[t0].corner_positions()]
    sides = [d.cross(v) for v in corners]
    min_left = min((v for v in sides if v > 0), default=None)
    min_right = min((-v for v in sides if v < 0), default=None)
    i = next((i for i in range(3) if sides[i] < 0 < sides[(i + 1) % 3]), None)
    if i is None:
        return ("vertex", corners[sides.index(0)] + q)
    walk = _reference_corridor(s, (t0, i), corners[i], corners[(i + 1) % 3], d)
    for _, (u, _), offset, x, y, apex, side in islice(walk, max_steps):
        edge = y - x
        crossing = x.cross(edge) / d.cross(edge)
        if crossing * crossing * d_sq > max_trace_sq:
            return ("budget",)
        if u == t0:
            w = offset - off0
            if d.cross(w) == 0 and d.dot(w) > 0:
                return ("closed", w, min_left, min_right)
        if side == 0:
            return ("vertex", apex + q)
        if side > 0:
            min_left = side if min_left is None or side < min_left else min_left
        else:
            min_right = -side if min_right is None or -side < min_right else min_right
    return ("budget",)


def _point_in_triangle(p, a, b, c):
    return (b - a).cross(p - a) > 0 and (c - b).cross(p - b) > 0 and (a - c).cross(p - c) > 0


def _reference_detect_cylinder(s, conn, max_trace):
    """The offset search that detect_cylinder replaced, on the reference
    walker: leaves at a small exact offset on each side of the connection."""
    max_trace_sq = max_trace * max_trace
    d = conn.holonomy
    d_sq = d.norm_sq()
    chain = _reference_segment(s, conn.start_corner, d)[0]
    mid, perp = d.scale(Fraction(1, 2)), d.perp()
    for side in (1, -1):
        eps = s.min_edge_norm_sq() / d_sq / 8
        for _ in range(60):
            q = mid + perp.scale(side * eps)
            placed = None
            for tri, off in chain:
                std = s.triangles[tri].corner_positions()
                if _point_in_triangle(q, off + std[0], off + std[1], off + std[2]):
                    placed = (tri, off)
                    break
            if placed is None:
                eps /= 2
                continue
            result = _reference_leaf(s, placed[0], placed[1], q, d, max_trace_sq)
            if result[0] == "budget":
                return Unknown("trace budget exceeded")
            if result[0] == "vertex":
                eps /= 2
                continue
            _, period, min_left, min_right = result
            toward = min_right if side == 1 else min_left
            away = min_left if side == 1 else min_right
            expected = eps * d_sq
            if toward == expected:
                extent = toward + away
                return Cylinder(period.norm_sq(), extent * extent / d_sq, period)
            if toward < expected:
                eps = toward / d_sq / 2
                continue
            eps /= 2
    return Unknown("offset search exhausted")


def _reference_vertices(s):
    """Corner -> vertex map and zero orders by the Fraction winding count."""
    x_axis = V(1, 0)

    def holds(u, w, r):
        if u.cross(r) == 0 and u.dot(r) > 0:
            return True
        if w.cross(r) == 0 and w.dot(r) > 0:
            return False
        return u.cross(r) > 0 and r.cross(w) > 0

    corner_vertex, orders = {}, {}
    for t in range(len(s.triangles)):
        for c in range(3):
            if (t, c) in corner_vertex:
                continue
            vid, cur, winding = len(orders), (t, c), 0
            while cur not in corner_vertex:
                corner_vertex[cur] = vid
                edges = s.triangles[cur[0]].edges
                winding += holds(edges[cur[1]], -edges[(cur[1] + 2) % 3], x_axis)
                cur = s.gluings[(cur[0], (cur[1] + 2) % 3)]
            orders[vid] = winding - 1
    return corner_vertex, orders


# --- corpus -------------------------------------------------------------------


def _sl2q(rng):
    """A random SL(2, Q) matrix: shear, diagonal, lower shear."""
    def q():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 7)))

    p = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    m = ExactMatrix.shear(q()).compose(ExactMatrix.diagonal(p, 1 / p))
    return m.compose(ExactMatrix.of(1, 0, q(), 1))


def _corpus():
    """(surface, connections): the tracer corpus and images of it under
    random SL(2, Q) matrices, with their first connections."""
    base = [(octagon_h2(), 3), (slit_torus(V(Fraction(1, 3), Fraction(1, 5))), 2),
            (marked_torus(V(Fraction(1, 2), Fraction(1, 3))), 2)]
    rng = random.Random(5)
    out = []
    for s, r in base:
        out.append((s, list(connections(s, r * r))))
        for _ in range(3):
            img = apply_surface(_sl2q(rng), s)
            out.append((img, list(islice(connections(img, 16 * img.min_edge_norm_sq()), 20))))
    return out


_CORPUS = _corpus()


def _outcome(f, *args):
    try:
        return f(*args)
    except BlockedAtVertex as exc:
        return BlockedAtVertex, str(exc), exc.position, type(exc.position.x), exc.vertex
    except InputError as exc:
        return type(exc), str(exc)


def _placed(s, result):
    """A reference result with its placements as placed corners."""
    if not isinstance(result, tuple) or not isinstance(result[0], list):
        return result
    placements, *rest = result
    return ([(t, tuple(off + p for p in s.triangles[t].corner_positions())) for t, off in placements],
            *rest)


# --- tests ----------------------------------------------------------------------


def test_segment_matches_the_fraction_walker():
    kinds = {}
    for s, conns in _CORPUS:
        assert conns
        for conn in conns:
            h = conn.holonomy
            # Half and three halves: denominators outside D, and a vertex at h.
            for d in (h, h.scale(2), h.scale(Fraction(1, 2)), h.scale(Fraction(3, 2))):
                got = _outcome(_segment, s, conn.start_corner, d)
                assert got == _placed(s, _outcome(_reference_segment, s, conn.start_corner, d)), (conn, d)
                if isinstance(got[0], list):
                    assert all(type(p.x) is Fraction for _, pts in got[0] for p in pts)
                kinds[got[0] if isinstance(got[0], type) else "end"] = True
    assert len(kinds) == 3, kinds  # ends, BlockedAtVertex and InputError


def test_start_corner_and_trace_match_the_fraction_walker():
    for s, conns in _CORPUS:
        for conn in conns:
            corners = [(t, c) for t in range(s.n_triangles()) for c in range(3)
                       if s.corner_vertex((t, c)) == conn.start]
            h = conn.holonomy
            for d in (h, h.scale(Fraction(3, 2)), h.scale(Fraction(-1, 2)), h.perp(), -h.perp()):
                assert _start_corner(s, corners, d) == _reference_start_corner(s, corners, d)
            for d in (h, h.scale(Fraction(1, 2)), h.scale(Fraction(3, 2))):
                got = _outcome(trace_connection, s, conn.start, d)
                corner = _reference_start_corner(s, corners, d)
                ref = _outcome(_reference_segment, s, corner, d)
                if isinstance(ref[0], list):
                    assert (got.crossings, got.end, got.start_corner) == (tuple(ref[1]), ref[3], corner)
                else:
                    assert got == ref


def test_detect_cylinder_matches_the_offset_search_within_its_budget():
    # The square torus adds connections whose offset points all fall on a
    # triangulation edge, where the offset search gives up.
    torus = square_torus()
    kinds = {}
    for s, conns in _CORPUS + [(torus, list(connections(torus, 9)))]:
        for conn in conns[:8]:
            # A budget just under the circumference, as the reference's
            # leaves start beside the connection's midpoint.
            w = detect_cylinder(s, conn, 10 ** 4).width_sq
            below = Fraction(math.isqrt(w.numerator * 10 ** 6 // w.denominator) - 1, 1000)
            for max_trace in (Fraction(3), Fraction(40), below):
                got = detect_cylinder(s, conn, max_trace)
                ref = _reference_detect_cylinder(s, conn, max_trace)
                if isinstance(ref, Cylinder):
                    if ref.width_sq <= max_trace * max_trace:
                        assert got == ref
                        kinds["same"] = True
                    else:
                        assert got == Unknown("circumference exceeds max_trace")
                        kinds["longer"] = True
                elif isinstance(got, Cylinder):
                    assert got.width_sq <= max_trace * max_trace
                    wide = _reference_detect_cylinder(s, conn, 1000 * max_trace)
                    assert wide in (got, Unknown("offset search exhausted"))
                    kinds["new"] = True
    assert kinds.keys() == {"same", "longer", "new"}, kinds


def test_validation_matches_the_fraction_winding_on_stratum_draws():
    bases = [octagon_h2(), slit_torus(V(Fraction(1, 3), Fraction(1, 5)))]
    checked = 0
    for seed, base in enumerate(bases):
        sample = mc.sample_stratum_local(base, "1/20", 12, seed=seed)
        for s in sample.surfaces + (base,):
            corner_vertex, orders = _reference_vertices(s)
            assert {corner: s.corner_vertex(corner) for corner in corner_vertex} == corner_vertex
            assert s.vertex_orders() == orders
            reported = tuple(sorted(orders.values(), reverse=True))
            genus = (sum(orders.values()) + 2) // 2
            assert s.validate() == StratumSignature(reported, genus, 2 * genus + len(reported) - 1)
            checked += 1
        # The draws are dyadic with large denominators.
        assert max(s.int_corners()[0] for s in sample.surfaces) >= 1 << 10
    assert checked == 26
