"""The int walker and the int validation against the Fraction code they replaced.

`_reference_corridor`, `_reference_segment` and `_reference_leaf` are the
Fraction walker that preceded the int one, `_reference_holding_corners` its
wedge test and `_reference_detect_cylinder` the offset search that the
half-step leaf of `detect_cylinder` replaced; they are kept here as the
reference, as `test_delaunay._reference_diamond_of` is.
`_reference_vertices` is the Fraction cone-angle winding of the validation
that preceded the int one.  `_reference_chew_on_surface`, with its
`_rotation_power`, `_rot`, `_clockwise_param`, `_walk_step` and
`_assemble_path`, is the Fraction diamond walk that preceded the int one in
`chew`, and `_reference_planar_chew_rec` its planar recursion.
"""

import math
import random
from fractions import Fraction
from itertools import islice

from typing import List, Tuple

import pytest
from conftest import sl2q, trace_connection

from saddlekit import chew, mc
from saddlekit.builders import marked_torus, octagon_h2, slit_torus, square_torus
from saddlekit.chew import ChewPath, _edge_between
from saddlekit.delaunay import delaunay_l1, diamond_of
from saddlekit.errors import (
    BlockedAtVertex, ChewCaseError, DegenerateDiamondError, FlipCycleError, InputError,
    ResourceLimitError, SaddlekitError,
)
from saddlekit.exactplane import ExactVector, _vec, compare_sqrt_sum, sqrt_bounds
from saddlekit.geodesic import (
    Cylinder,
    Unknown,
    _start_corner,
    _strip,
    connections,
    detect_cylinder,
)
from saddlekit.surface import StratumSignature, apply_surface

ZERO = ExactVector(Fraction(0), Fraction(0))


def V(x, y):
    return ExactVector.of(x, y)


def _segment(s, corner, d):
    """_strip with its placed corners as ExactVectors."""
    k, placed, crossings, lower, end = _strip(s, corner, d)
    return [(t, tuple(_vec(p, k) for p in pts)) for t, pts in placed], crossings, lower, end


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


def _reference_holding_corners(s, corners, d):
    held = []
    for t, c in corners:
        edges = s.triangles[t].edges
        turn = edges[c].cross(d)
        if turn == 0 and edges[c].dot(d) > 0 or turn > 0 and edges[(c + 2) % 3].cross(d) > 0:
            held.append((t, c))
    return held


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


def _walk_step(diamond, corners, z_idx: int):
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


def _reference_chew_on_surface(s, start, d: ExactVector) -> ChewPath:
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
    path_edges: List[Tuple] = []
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
        slot_dir = _edge_between(chain[j][0], z_idx, next_idx)
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


def _reference_concat_paths(a: ChewPath, b: ChewPath) -> ChewPath:
    vectors = a.edge_vectors + b.edge_vectors
    vertices = a.vertices + tuple(a.vertices[-1] + (v - b.vertices[0]) for v in b.vertices[1:])
    return _assemble_path(
        list(a.edges) + list(b.edges),
        list(vectors),
        list(vertices),
        a.holonomy + b.holonomy,
    )


def _reference_planar_chew_rec(ctx, start_id, d, depth):
    if depth > 8:
        raise InputError("too many collinear splits")
    dt = ctx["dt"]
    # A planar point has one sheet: one corner holds d.
    [start] = _reference_holding_corners(dt.surface, ctx["id_to_corners"][start_id], d)
    try:
        return _reference_chew_on_surface(dt.surface, start, d)
    except BlockedAtVertex as blocked:
        first = _reference_planar_chew_rec(ctx, start_id, blocked.position, depth + 1)
        rest = _reference_planar_chew_rec(
            ctx, ctx["surface_vertex_to_id"][blocked.vertex], d - blocked.position, depth + 1
        )
        return _reference_concat_paths(first, rest)


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
            img = apply_surface(sl2q(rng), s)
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
    refused = 0
    for s, conns in _CORPUS:
        for conn in conns:
            corners = [(t, c) for t in range(s.n_triangles()) for c in range(3)
                       if s.corner_vertex((t, c)) == conn.start]
            h = conn.holonomy
            for d in (h, h.scale(Fraction(3, 2)), h.scale(Fraction(-1, 2)), h.perp(), -h.perp()):
                held = _reference_holding_corners(s, corners, d)
                if len(held) == 1:
                    assert _start_corner(s, corners, d) == held[0]
                else:
                    # One corner per sheet at a cone point: no guess.
                    assert len(held) > 1
                    with pytest.raises(InputError, match="several corner wedges"):
                        _start_corner(s, corners, d)
                    refused += 1
            for d in (h, h.scale(Fraction(1, 2)), h.scale(Fraction(3, 2))):
                got = _outcome(trace_connection, s, conn.start, d)
                held = _reference_holding_corners(s, corners, d)
                if len(held) != 1:
                    assert got[0] is InputError and "several corner wedges" in got[1]
                    continue
                ref = _outcome(_reference_segment, s, held[0], d)
                if isinstance(ref[0], list):
                    assert (got.crossings, got.end, got.start_corner) == (tuple(ref[1]), ref[3], held[0])
                else:
                    assert got == ref
    assert refused > 0


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


def _walk_outcome(f, *args):
    try:
        return f(*args)
    except BlockedAtVertex as exc:
        return BlockedAtVertex, str(exc), exc.position, exc.vertex
    except SaddlekitError as exc:
        return type(exc), str(exc)


def test_chew_walk_matches_the_fraction_walk():
    # Both walkers start from the connection's corner carried onto the
    # Delaunay surface, on the connection's own sheet.
    rng = random.Random(11)
    bases = [square_torus(), slit_torus(V(Fraction(1, 3), Fraction(1, 5))), octagon_h2(),
             marked_torus(V(Fraction(1, 2), Fraction(1, 3))),
             marked_torus(V(Fraction(1, 3), Fraction(1, 5)))]
    walks = 0
    for base in bases:
        triangulated = [(base, delaunay_l1(base))]
        while len(triangulated) < 3:  # the base and two SL(2, Q) images of it
            img = apply_surface(sl2q(rng), base)
            try:
                triangulated.append((img, delaunay_l1(img)))
            except DegenerateDiamondError:
                pass
        for s, dt in triangulated:
            for conn in connections(s, 16):
                corner = dt.carry(conn.start_corner, conn.start, conn.holonomy)
                got = _walk_outcome(chew._chew_on_surface, dt.surface, corner, conn.holonomy)
                ref = _walk_outcome(_reference_chew_on_surface, dt.surface, corner, conn.holonomy)
                assert got == ref, (s, conn.holonomy)
                # Every walk is a path and certifies.
                assert isinstance(got, ChewPath) and got.sqrt10_certified, (s, conn.holonomy, got)
                walks += 1
    assert walks >= 1000, walks


def _through_a_third_point(pts, a, b):
    d = pts[b] - pts[a]
    return any(
        d.cross(p - pts[a]) == 0 and 0 < d.dot(p - pts[a]) < d.norm_sq()
        for i, p in enumerate(pts) if i not in (a, b)
    )


def test_planar_chew_matches_the_fraction_walk():
    # Points of a half-integer grid in [0, 6]^2, so some segments pass
    # through a third point and the walk is split and concatenated.
    sets, pairs, split, seed = 0, 0, 0, 0
    while sets < 20:
        rng = random.Random(seed)
        seed += 1
        n = rng.randint(4, 10)
        pts = sorted({(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(n)})
        pts = [V(Fraction(x, 2), Fraction(y, 2)) for x, y in pts]
        try:
            ctx = chew.prepare_planar(pts)
        except (DegenerateDiamondError, FlipCycleError):
            continue
        sets += 1
        for a in range(len(pts)):
            for b in range(len(pts)):
                if a != b:
                    got = _walk_outcome(chew.planar_chew, pts, a, b, ctx)
                    ref = _walk_outcome(_reference_planar_chew_rec, ctx, ctx["ids"][a], pts[b] - pts[a], 0)
                    assert got == ref, (pts, a, b)
                    pairs += 1
                    split += _through_a_third_point(pts, a, b)
    assert pairs >= 500 and split >= 10, (pairs, split)
