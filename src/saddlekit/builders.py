"""Constructors for the surfaces used throughout the package and its tests.

All builders return validated TranslationSurface instances with exact
rational edge vectors.  Each lays its triangles out as counterclockwise
triples of int vertex positions at one scale, and one rule glues them
(`_glue`): the directed edge p -> q is glued to the edge q -> p or, across a
side of the builder's polygon, to q + t -> p + t, where t is one of the
builder's side shifts or its negation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from .errors import InputError
from .exactplane import ExactMatrix, ExactVector, _ints, _scale_of, _sub, _vec, to_fraction
from .surface import TranslationSurface, Triangle

_OCTAGON_DENOM = 10 ** 6  # grid of the regular octagon's rational vertices
_OCTAGON_STEPS = tuple(ExactVector.of(x, y) for x, y in ((1, 0), (1, 1), (0, 1), (-1, 1)))
_MARGIN_FACTOR = 4  # wrap_points_in_torus: square side over point spread


def _glue(cells, scale: int, shifts):
    """Triangles and gluings of cells, each a counterclockwise triple of int
    vertex positions at scale.  Slot (k, i) of cell k, the edge p -> q, is
    glued to the slot of q + t -> p + t for the first t of 0, the shifts and
    their negations that gives an edge of the cells."""
    slot_of = {(cell[i], cell[(i + 1) % 3]): (k, i) for k, cell in enumerate(cells) for i in range(3)}
    moves = [(0, 0), *shifts, *((-x, -y) for x, y in shifts)]
    gluings = {}
    for (p, q), slot in slot_of.items():
        for x, y in moves:
            mate = slot_of.get(((q[0] + x, q[1] + y), (p[0] + x, p[1] + y)))
            if mate is not None:
                gluings[slot] = mate
                break
    tris = [Triangle(tuple(_vec(_sub(cell[(i + 1) % 3], cell[i]), scale) for i in range(3))) for cell in cells]
    return tris, gluings


def _surface(tris, gluings) -> TranslationSurface:
    s = TranslationSurface(tris, gluings)
    s.validate()
    return s


def torus_from_basis(u: ExactVector, v: ExactVector) -> TranslationSurface:
    """Torus R^2 / (Zu + Zv) with one marked point, two triangles.

    Triangle 0 is (0, u, u+v), triangle 1 is (0, u+v, v); requires
    cross(u, v) > 0.
    """
    if u.cross(v) <= 0:
        raise InputError("torus basis must be positively oriented")
    scale = _scale_of((u, v))
    a, b = _ints(u, scale), _ints(v, scale)
    ab = (a[0] + b[0], a[1] + b[1])
    return _surface(*_glue([((0, 0), a, ab), ((0, 0), ab, b)], scale, (a, b)))


def square_torus() -> TranslationSurface:
    return torus_from_basis(ExactVector.of(1, 0), ExactVector.of(0, 1))


def torus_from_matrix(g: ExactMatrix) -> TranslationSurface:
    """Torus for the lattice g Z^2."""
    return torus_from_basis(ExactVector(g.a, g.c), ExactVector(g.b, g.d))


def marked_torus(v: ExactVector) -> TranslationSurface:
    """Square torus with a second marked point at v (stratum signature {0,0}).

    v must lie strictly inside one of the two standard triangles, i.e.
    0 < y < x < 1 or 0 < x < y < 1.
    """
    return _surface(*_torus_marked_cells(v))


def _torus_marked_cells(v: ExactVector):
    """Triangles and gluings for the unit torus with marked points 0 and v.

    The triangle (a, b, c) of the standard pair containing v is starred at
    v into cells 0: (a, b, v), 1: (b, c, v), 2: (c, a, v); cell 3 is the
    other triangle.  Here a = (0, 0), and (b, c) is ((1, 0), (1, 1)) for v
    in the lower triangle, ((1, 1), (0, 1)) for v in the upper one.  The
    segment 0 -> v is slot (2, 1), glued to slot (0, 2).
    """
    lower = 0 < v.y < v.x < 1
    if not (lower or 0 < v.x < v.y < 1):
        raise InputError("marked point must be strictly inside a standard half-square")
    scale = _scale_of((v,))
    c00, c10, c11, c01 = (0, 0), (scale, 0), (scale, scale), (0, scale)
    (a, b, c), rest = ((c00, c10, c11), (c00, c11, c01)) if lower else ((c00, c11, c01), (c00, c10, c11))
    m = _ints(v, scale)
    return _glue([(a, b, m), (b, c, m), (c, a, m), rest], scale, (c10, c01))


def slit_torus(v: ExactVector) -> TranslationSurface:
    """Two identical unit-square tori glued along a slit of holonomy v.

    Built from two copies of the marked torus cells with the slit edge
    (segment from the lattice point to v) reglued crosswise between the
    copies.  Exactly two singularities of order 1 each; genus 2.
    """
    tris, gluings = _torus_marked_cells(v)
    n = len(tris)
    both = {**gluings, **{(t + n, i): (u + n, j) for (t, i), (u, j) in gluings.items()}}
    # Each copy's slit edge 0 -> v, slot (2, 1), meets the other copy's v -> 0, slot (0, 2).
    for a, b in (((2, 1), (n, 2)), ((n + 2, 1), (0, 2))):
        both[a], both[b] = b, a
    return _surface(tris + tris, both)


def _octagon(steps: Sequence[ExactVector], scale: int):
    """The vertices v_0 = 0, ..., v_7 of the octagon with sides e_i = v_{i+1}
    - v_i given by steps and then -steps, as int pairs at scale, and the
    shift t_i = v_{i+4} - v_{i+1} that glues side i, p -> q, to side i + 4,
    q + t_i -> p + t_i."""
    if len(steps) != 4:
        raise InputError("octagon needs 4 step vectors")
    sides = [_ints(e, scale) for e in steps]
    sides += [(-x, -y) for x, y in sides]
    for (x0, y0), (x1, y1) in zip(sides, sides[1:] + sides[:1]):
        if x0 * y1 - y0 * x1 <= 0:
            raise InputError("octagon sides must turn strictly counterclockwise")
    verts = [(0, 0)]
    for x, y in sides[:-1]:
        verts.append((verts[-1][0] + x, verts[-1][1] + y))
    return verts, [_sub(verts[i + 4], verts[i + 1]) for i in range(4)]


def octagon_h2(
    steps: Sequence[ExactVector] = None,
) -> TranslationSurface:
    """Centrally symmetric octagon with opposite sides identified: H(2).

    Side vectors are e1, e2, e3, e4, -e1, -e2, -e3, -e4 in ccw order; the
    directions must rotate monotonically so the polygon is convex.  Fan
    triangulation from vertex 0 keeps the single cone point as the only
    vertex.  Default steps give a rational-vertex octagon of area 7.
    """
    steps = _OCTAGON_STEPS if steps is None else steps
    scale = _scale_of(steps)
    verts, shifts = _octagon(steps, scale)
    return _surface(*_glue([(verts[0], verts[j], verts[j + 1]) for j in range(1, 7)], scale, shifts))


def regular_octagon_approx() -> TranslationSurface:
    """Rational-vertex approximation of the regular octagon surface, with
    vertices on the grid of step 1/_OCTAGON_DENOM."""
    r = Fraction(round((2 ** 0.5 / 2) * _OCTAGON_DENOM), _OCTAGON_DENOM)
    return octagon_h2([ExactVector.of(1, 0), ExactVector(r, r), ExactVector.of(0, 1), ExactVector(-r, r)])


def centered_octagon_h2() -> TranslationSurface:
    """The octagon surface of ``octagon_h2()`` triangulated from an extra
    center vertex.

    The center is a regular marked point, a zero of order 0: the stratum
    signature is (2, 0), with relative homology of rank 5.
    """
    # At twice the steps' scale the center of symmetry, halfway from v_0 = 0
    # to v_4, is an int pair.
    verts, shifts = _octagon(_OCTAGON_STEPS, 2)
    center = (verts[4][0] // 2, verts[4][1] // 2)
    return _surface(*_glue([(center, verts[j], verts[(j + 1) % 8]) for j in range(8)], 2, shifts))


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
    s = _surface(tris, gluings)
    return s, [s.corner_vertex(c) for c in corner_of_point], origin


def _triangulate_square_with_points(side: Fraction, pts: List[ExactVector]):
    """Exact incremental triangulation of a side x side square containing pts.

    Points strictly inside a triangle split it into three; points landing on
    an interior edge split the two adjacent triangles into four.  Positions
    are scaled by L, the lcm of all denominators, to int pairs, so every
    predicate is an exact int sign.  The square's sides are glued by the
    shifts (n, 0) and (0, n), n = side times L.
    """
    scale = math.lcm(side.denominator, _scale_of(pts))
    n = int(side * scale)
    ipts = [_ints(p, scale) for p in pts]
    if len(set(ipts)) != len(ipts):
        raise InputError("duplicate points")
    cells = [[(0, 0), (n, 0), (n, n)], [(0, 0), (n, n), (0, n)]]

    def locate(k):
        px, py = ipts[k]
        for idx, (a, b, c) in enumerate(cells):
            s1 = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            s2 = (c[0] - b[0]) * (py - b[1]) - (c[1] - b[1]) * (px - b[0])
            s3 = (a[0] - c[0]) * (py - c[1]) - (a[1] - c[1]) * (px - c[0])
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
        if on_edge is None:
            a, b, c = cells[idx]
            cells[idx] = [a, b, p]
            cells.append([b, c, p])
            cells.append([c, a, p])
        else:
            # Split the edge u -> w of this cell and w -> u of its mate; the
            # points lie inside the square, so the edge is interior.
            u, w, o = (cells[idx][(on_edge + j) % 3] for j in range(3))
            jdx, e = next(
                (j, e) for j, cell in enumerate(cells) for e in range(3)
                if cell[e] == w and cell[(e + 1) % 3] == u
            )
            o2 = cells[jdx][(e + 2) % 3]
            cells[idx] = [u, p, o]
            cells.append([p, w, o])
            cells[jdx] = [w, p, o2]
            cells.append([p, u, o2])

    tris, gluings = _glue(cells, scale, ((n, 0), (0, n)))
    corner_of_point = [next((t, cell.index(p)) for t, cell in enumerate(cells) if p in cell) for p in ipts]
    return tris, gluings, corner_of_point


def sheared_torus(s) -> TranslationSurface:
    """Square torus sheared by [[1, s], [0, 1]]."""
    return torus_from_matrix(ExactMatrix.shear(to_fraction(s)))
