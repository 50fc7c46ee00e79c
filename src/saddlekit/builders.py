"""Constructors for the surfaces used throughout the package and its tests.

All builders return validated TranslationSurface instances with exact
rational edge vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import InputError
from .exactplane import ExactMatrix, ExactVector, to_fraction
from .surface import Slot, TranslationSurface, Triangle

_F0 = Fraction(0)
_OCTAGON_DENOM = 10 ** 6  # grid of the regular octagon's rational vertices
_MARGIN_FACTOR = 4  # wrap_points_in_torus: square side over point spread


def _vec(x, y) -> ExactVector:
    return ExactVector(to_fraction(x), to_fraction(y))


def _pair(gluings: Dict[Slot, Slot], a: Slot, b: Slot):
    gluings[a] = b
    gluings[b] = a


def torus_from_basis(u: ExactVector, v: ExactVector) -> TranslationSurface:
    """Torus R^2 / (Zu + Zv) with one marked point, two triangles.

    Triangle 0 is (0, u, u+v), triangle 1 is (0, u+v, v); requires
    cross(u, v) > 0.
    """
    if u.cross(v) <= 0:
        raise InputError("torus basis must be positively oriented")
    t0 = Triangle((u, v, -(u + v)))
    t1 = Triangle((u + v, -u, -v))
    gluings: Dict[Slot, Slot] = {}
    _pair(gluings, (0, 0), (1, 1))  # u side
    _pair(gluings, (0, 1), (1, 2))  # v side
    _pair(gluings, (0, 2), (1, 0))  # diagonal
    s = TranslationSurface([t0, t1], gluings)
    s.validate()
    return s


def square_torus() -> TranslationSurface:
    return torus_from_basis(_vec(1, 0), _vec(0, 1))


def torus_from_matrix(g: ExactMatrix) -> TranslationSurface:
    """Torus for the lattice g Z^2."""
    return torus_from_basis(g.apply(_vec(1, 0)), g.apply(_vec(0, 1)))


def marked_torus(v: ExactVector) -> TranslationSurface:
    """Square torus with a second marked point at v (stratum signature {0,0}).

    v must lie strictly inside one of the two standard triangles, i.e.
    0 < y < x < 1 or 0 < x < y < 1.
    """
    tris, gluings = _torus_marked_cells(v)
    s = TranslationSurface(tris, gluings)
    s.validate()
    return s


def _torus_marked_cells(v: ExactVector):
    """Triangles and gluings for the unit torus with marked points 0 and v.

    The triangle of the standard pair containing v is starred at v.  Cell
    layout (v in the lower triangle (0,0),(1,0),(1,1)):
      0: (0,0),(1,0),v     1: (1,0),(1,1),v     2: (1,1),(0,0),v
      3: (0,0),(1,1),(0,1)
    and symmetrically for the upper triangle.  The segment 0 -> v is the
    edge shared by cells 2 and 0 of its star.
    """
    x, y = v.x, v.y
    c00, c10, c11, c01 = _vec(0, 0), _vec(1, 0), _vec(1, 1), _vec(0, 1)
    lower = 0 < y < x < 1
    upper = 0 < x < y < 1
    if not (lower or upper):
        raise InputError("marked point must be strictly inside a standard half-square")

    def tri(p, q, r):
        return Triangle((q - p, r - q, p - r))

    gluings: Dict[Slot, Slot] = {}
    if lower:
        tris = [tri(c00, c10, v), tri(c10, c11, v), tri(c11, c00, v), tri(c00, c11, c01)]
        star_edges = [(0, 2), (1, 2), (2, 2)]  # edges v->corner of each star cell
        _pair(gluings, (0, 1), (1, 2))  # spoke c10-v
        _pair(gluings, (1, 1), (2, 2))  # spoke c11-v
        _pair(gluings, (2, 1), (0, 2))  # spoke v-c00 / c00-v  (slit edge pair)
        _pair(gluings, (0, 0), (3, 1))  # bottom <-> top
        _pair(gluings, (1, 0), (3, 2))  # right <-> left
        _pair(gluings, (2, 0), (3, 0))  # diagonal
    else:
        tris = [tri(c00, c11, v), tri(c11, c01, v), tri(c01, c00, v), tri(c00, c10, c11)]
        _pair(gluings, (0, 1), (1, 2))  # spoke c11-v
        _pair(gluings, (1, 1), (2, 2))  # spoke c01-v
        _pair(gluings, (2, 1), (0, 2))  # slit edge pair c00-v
        _pair(gluings, (0, 0), (3, 2))  # diagonal
        _pair(gluings, (1, 0), (3, 0))  # top <-> bottom
        _pair(gluings, (2, 0), (3, 1))  # left <-> right
    return tris, gluings


def slit_torus(v: ExactVector) -> TranslationSurface:
    """Two identical unit-square tori glued along a slit of holonomy v.

    Built from two copies of the marked torus cells with the slit edge
    (segment from the lattice point to v) reglued crosswise between the
    copies.  Exactly two singularities of order 1 each; genus 2.
    """
    tris, gluings = _torus_marked_cells(v)
    n = len(tris)
    all_tris = tris + tris
    new_gluings: Dict[Slot, Slot] = {}
    for (t1, e1), (t2, e2) in gluings.items():
        new_gluings[(t1, e1)] = (t2, e2)
        new_gluings[(t1 + n, e1)] = (t2 + n, e2)
    # Cross-glue the slit banks: copy A side (2,1) <-> copy B side (0,2).
    slit_a, slit_b = (2, 1), (0, 2)
    del new_gluings[slit_a], new_gluings[slit_b]
    del new_gluings[(slit_a[0] + n, slit_a[1])], new_gluings[(slit_b[0] + n, slit_b[1])]
    _pair(new_gluings, slit_a, (slit_b[0] + n, slit_b[1]))
    _pair(new_gluings, (slit_a[0] + n, slit_a[1]), slit_b)
    s = TranslationSurface(all_tris, new_gluings)
    s.validate()
    return s


def octagon_h2(
    steps: Sequence[ExactVector] = None,
) -> TranslationSurface:
    """Centrally symmetric octagon with opposite sides identified: H(2).

    Side vectors are e1, e2, e3, e4, -e1, -e2, -e3, -e4 in ccw order; the
    directions must rotate monotonically so the polygon is convex.  Fan
    triangulation from vertex 0 keeps the single cone point as the only
    vertex.  Default steps give a rational-vertex octagon of area 7.
    """
    if steps is None:
        steps = [_vec(1, 0), _vec(1, 1), _vec(0, 1), _vec(-1, 1)]
    if len(steps) != 4:
        raise InputError("octagon needs 4 step vectors")
    sides = list(steps) + [-e for e in steps]
    verts = [ExactVector(_F0, _F0)]
    for e in sides[:-1]:
        verts.append(verts[-1] + e)
    for i in range(8):
        if sides[i].cross(sides[(i + 1) % 8]) <= 0:
            raise InputError("octagon sides must turn strictly counterclockwise")

    def tri(p, q, r):
        return Triangle((q - p, r - q, p - r))

    tris = [tri(verts[0], verts[j], verts[j + 1]) for j in range(1, 7)]
    gluings: Dict[Slot, Slot] = {}
    # diagonals v0-v_j shared by fan triangles j-1 and j
    for j in range(2, 7):
        _pair(gluings, (j - 2, 2), (j - 1, 0))
    # sides i and i+4 (opposite, reversed); side slots per the fan layout
    side_slot = {0: (0, 0), 7: (5, 2)}
    for i in range(1, 7):
        side_slot[i] = (i - 1, 1)
    for i in range(4):
        _pair(gluings, side_slot[i], side_slot[i + 4])
    s = TranslationSurface(tris, gluings)
    s.validate()
    return s


def regular_octagon_approx() -> TranslationSurface:
    """Rational-vertex approximation of the regular octagon surface, with
    vertices on the grid of step 1/_OCTAGON_DENOM."""
    r = Fraction(round((2 ** 0.5 / 2) * _OCTAGON_DENOM), _OCTAGON_DENOM)
    steps = [_vec(1, 0), ExactVector(r, r), _vec(0, 1), ExactVector(-r, r)]
    return octagon_h2(steps)


def centered_octagon_h2() -> TranslationSurface:
    """The octagon surface of ``octagon_h2()`` triangulated from an extra
    center vertex.

    The center is a regular marked point, a zero of order 0: the stratum
    signature is (2, 0), with relative homology of rank 5.
    """
    steps = [_vec(1, 0), _vec(1, 1), _vec(0, 1), _vec(-1, 1)]
    sides = steps + [-e for e in steps]
    verts = [ExactVector(_F0, _F0)]
    for e in sides[:-1]:
        verts.append(verts[-1] + e)
    total = verts[0]
    for v in verts[1:]:
        total = total + v
    center = total.scale(Fraction(1, 8))

    def tri(p, q, r):
        return Triangle((q - p, r - q, p - r))

    tris = [tri(center, verts[j], verts[(j + 1) % 8]) for j in range(8)]
    gluings: Dict[Slot, Slot] = {}
    for j in range(8):
        _pair(gluings, (j, 2), ((j + 1) % 8, 0))  # spokes
    for i in range(4):
        _pair(gluings, (i, 1), (i + 4, 1))  # opposite sides
    s = TranslationSurface(tris, gluings)
    s.validate()
    return s


# --- planar point sets wrapped into a large torus -------------------------


def wrap_points_in_torus(points: Sequence[ExactVector]):
    """Embed a planar point set as marked points of a large square torus.

    Returns (surface, vertex_ids, origin): vertex_ids[i] is the vertex id of
    points[i] on the surface, and points[i] - origin is its position in the
    square [0, side]^2.  The square side is _MARGIN_FACTOR times the point
    spread, so wrap-around geometry stays far from the configuration.
    """
    if len(points) < 1:
        raise InputError("need at least one point")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    side = span * _MARGIN_FACTOR
    # Each shifted coordinate lies in [span, 2 span], inside (0, side).
    origin = ExactVector(min(xs) - span, min(ys) - span)
    shifted = [p - origin for p in points]

    tris, gluings, corner_of_point = _triangulate_square_with_points(side, shifted)
    s = TranslationSurface(tris, gluings)
    s.validate()
    ids = [s.corner_vertex(c) for c in corner_of_point]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate points")
    return s, ids, origin


def _triangulate_square_with_points(side: Fraction, pts: List[ExactVector]):
    """Exact incremental triangulation of a side x side square containing pts.

    Points strictly inside a triangle split it into three; points landing on
    an interior edge split the two adjacent triangles into four.  Positions
    are scaled by L, the lcm of all denominators, to int pairs, so every
    predicate is an exact int sign; edges become ExactVectors at the end.
    """
    scale = math.lcm(side.denominator, *(q.denominator for p in pts for q in (p.x, p.y)))

    def scaled(q: Fraction) -> int:
        return q.numerator * (scale // q.denominator)

    def vec(p, q) -> ExactVector:
        return ExactVector(Fraction(q[0] - p[0], scale), Fraction(q[1] - p[1], scale))

    def cross(a, b, p) -> int:
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    n = scaled(side)
    c00, c10, c11, c01 = (0, 0), (n, 0), (n, n), (0, n)
    ipts = [(scaled(p.x), scaled(p.y)) for p in pts]

    # Triangles as int vertex-position triples; edges derived at the end.
    cells: List[List[Tuple[int, int]]] = [[c00, c10, c11], [c00, c11, c01]]

    def locate(k):
        p = ipts[k]
        for idx, (a, b, c) in enumerate(cells):
            s1 = cross(a, b, p)
            s2 = cross(b, c, p)
            s3 = cross(c, a, p)
            if s1 > 0 and s2 > 0 and s3 > 0:
                return idx, None
            if s1 == 0 and s2 > 0 and s3 > 0:
                return idx, 0
            if s2 == 0 and s1 > 0 and s3 > 0:
                return idx, 1
            if s3 == 0 and s1 > 0 and s2 > 0:
                return idx, 2
        raise InputError(f"point {pts[k]} not inside the square")

    for k, p in enumerate(ipts):
        idx, on_edge = locate(k)
        a, b, c = cells[idx]
        if on_edge is None:
            cells[idx] = [a, b, p]
            cells.append([b, c, p])
            cells.append([c, a, p])
        else:
            # Split the edge in this cell and in its mate (found by matching
            # endpoint positions; interior edges appear in exactly two cells).
            u = cells[idx][on_edge]
            w = cells[idx][(on_edge + 1) % 3]
            o = cells[idx][(on_edge + 2) % 3]
            mate = None
            for jdx, cell in enumerate(cells):
                if jdx == idx:
                    continue
                for e in range(3):
                    if cell[e] == w and cell[(e + 1) % 3] == u:
                        mate = (jdx, e)
                        break
                if mate:
                    break
            if mate is None:
                raise InputError("point on the square boundary is not supported")
            jdx, e = mate
            w2 = cells[jdx][e]
            u2 = cells[jdx][(e + 1) % 3]
            o2 = cells[jdx][(e + 2) % 3]
            cells[idx] = [u, p, o]
            cells.append([p, w, o])
            cells[jdx] = [w2, p, o2]
            cells.append([p, u2, o2])

    # Build edge slots; pair interior edges by position, boundary edges by
    # the torus identifications (whole sides are single edges by margin).
    tris = [Triangle((vec(a, b), vec(b, c), vec(c, a))) for a, b, c in cells]
    pos: Dict[Tuple, Slot] = {}
    gluings: Dict[Slot, Slot] = {}
    for t, corners in enumerate(cells):
        for i in range(3):
            p, q = corners[i], corners[(i + 1) % 3]
            if (q, p) in pos:
                _pair(gluings, pos.pop((q, p)), (t, i))
            else:
                pos[(p, q)] = (t, i)
    # Remaining unmatched slots are the 4 square sides.
    _pair(gluings, pos[(c00, c10)], pos[(c11, c01)])
    _pair(gluings, pos[(c10, c11)], pos[(c01, c00)])

    corner_of_point = []
    for p in ipts:
        found = None
        for t, cell in enumerate(cells):
            if p in cell:
                found = (t, cell.index(p))
                break
        corner_of_point.append(found)
    return tris, gluings, corner_of_point


def sheared_torus(s) -> TranslationSurface:
    """Square torus sheared by [[1, s], [0, 1]]."""
    return torus_from_matrix(ExactMatrix.shear(to_fraction(s)))
