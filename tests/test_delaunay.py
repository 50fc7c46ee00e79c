import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlekit.builders import (
    sheared_torus,
    slit_torus,
    square_torus,
    wrap_points_in_torus,
)
from saddlekit.delaunay import (
    DegenerateDiamondError,
    _edge_empty_diamond_exists,
    delaunay_l1,
    diamond_of,
    is_locally_delaunay,
    planar_empty_diamond_triples,
)
from saddlekit.exactplane import ExactVector
from saddlekit.geodesic import shortest
from saddlekit.surface import area


def V(x, y):
    return ExactVector.of(x, y)


def test_diamond_examples():
    dia = diamond_of(V(0, 0), V(2, 0), V(1, 1))
    assert dia.center == V(1, 0) and dia.radius_l1 == 1
    dia2 = diamond_of(V(0, 0), V(2, 0), V(1, -1))
    assert dia2.center == V(1, 0) and dia2.radius_l1 == 1


def test_diamond_collinear_error():
    with pytest.raises(DegenerateDiamondError):
        diamond_of(V(0, 0), V(1, 0), V(2, 0))


def test_diamond_certificate_exact_boundary():
    pts = (V(0, 0), V(2, 0), V(Fraction(1, 3), Fraction(5, 7)))
    dia = diamond_of(*pts)
    for p in pts:
        assert (p - dia.center).norm_l1() == dia.radius_l1


@pytest.mark.parametrize(
    "pts, center, radius",
    [
        # Two points on a slope +1 or -1 line: the diamonds through them
        # slide, and the certificate is the end with the third point at a
        # corner.
        (((0, 0), (0, 1), (1, 2)), (1, Fraction(1, 2)), Fraction(3, 2)),
        (((0, 0), (1, 0), (2, 1)), (Fraction(1, 2), 1), Fraction(3, 2)),
        (((0, 0), (0, 1), (-1, 2)), (-1, Fraction(1, 2)), Fraction(3, 2)),
        (((0, 0), (1, 0), (2, -1)), (Fraction(1, 2), -1), Fraction(3, 2)),
    ],
)
def test_diamond_sliding_family_ends_at_a_corner(pts, center, radius):
    pts = [V(*p) for p in pts]
    dia = diamond_of(*pts)
    assert dia.center == V(*center) and dia.radius_l1 == radius
    offsets = [p - dia.center for p in pts]
    assert all(d.norm_l1() == radius for d in offsets)
    assert any(d.x == 0 or d.y == 0 for d in offsets)


def test_diamond_ambiguous_error_counts_solutions():
    with pytest.raises(DegenerateDiamondError, match="ambiguous") as exc:
        diamond_of(V(0, 0), V(1, 2), V(2, 1))
    assert exc.value.details == {"count": 2}


def test_diamond_no_admissible_error():
    with pytest.raises(DegenerateDiamondError, match="no admissible") as exc:
        diamond_of(V(0, 0), V(1, 0), V(3, 1))
    assert exc.value.details == {}


@pytest.mark.parametrize(
    "quad, exists",
    [
        (((0, 0), (1, 0), (Fraction(1, 2), 1), (Fraction(1, 2), -1)), True),
        (((0, 0), (2, 0), (1, 1), (1, -1)), True),  # c and d on the boundary
        (((0, 0), (3, 1), (1, 2), (2, -1)), True),
        (((0, 0), (4, 0), (2, Fraction(1, 4)), (2, Fraction(-1, 4))), False),
        (((0, 0), (3, 1), (2, Fraction(3, 2)), (1, Fraction(-1, 2))), False),
    ],
)
def test_edge_empty_diamond_exists_cases(quad, exists):
    assert _edge_empty_diamond_exists(*[V(*p) for p in quad]) is exists


_coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3))
def test_certificate_has_all_points_on_its_boundary(pts):
    pts = [ExactVector(x, y) for x, y in pts]
    try:
        dia = diamond_of(*pts)
    except DegenerateDiamondError:
        return
    assert dia.radius_l1 > 0
    assert all(dia.on_boundary(p) for p in pts)


def test_is_locally_delaunay_quad_cases(torus):
    # The square torus triangulation: both diagonal-adjacent quads pass.
    for slot in torus.gluings:
        assert is_locally_delaunay(torus, slot)


def test_fourth_vertex_inside_forces_flip():
    # A sheared triangulation where the long diagonal fails the local test.
    s = sheared_torus(3)
    bad = [slot for slot in s.gluings if not _locally_ok(s, slot)]
    assert bad, "expected at least one non-Delaunay edge on the sheared torus"


def _locally_ok(s, slot):
    try:
        return is_locally_delaunay(s, slot)
    except DegenerateDiamondError:
        return False


def test_delaunay_square_torus_no_flips(torus):
    dt = delaunay_l1(torus)
    assert dt.flip_count == 0
    assert len(dt.certificates) == 2


def test_delaunay_shear3_reduces_to_short_diagonal():
    s = sheared_torus(3)
    dt = delaunay_l1(s)
    assert dt.flip_count > 0
    vecs = {dt.surface.edge_vector(sl) for sl in dt.surface.slots()}
    assert V(1, 0) in vecs or V(-1, 0) in vecs
    assert area(dt.surface) == area(s)


def test_shortest_connection_is_delaunay_edge_on_corpus(torus, slit_13_15, octagon):
    for s in (torus, sheared_torus(Fraction(7, 3)), slit_13_15, octagon):
        dt = delaunay_l1(s)
        vecs = {dt.surface.edge_vector(sl) for sl in dt.surface.slots()}
        gamma = shortest(s).holonomy
        assert gamma in vecs or -gamma in vecs


def test_delaunay_preserves_vertices_and_signature(slit_13_15):
    dt = delaunay_l1(slit_13_15)
    assert dt.surface.validate() == slit_13_15.validate()
    original_ids = set(dt.vertex_of_corner.values())
    assert original_ids == set(range(slit_13_15.n_vertices()))


def test_post_hoc_scan_all_edges(octagon):
    dt = delaunay_l1(octagon)
    for slot in dt.surface.gluings:
        assert _locally_ok(dt.surface, slot)


def test_certificates_cover_triangles(slit_13_15):
    dt = delaunay_l1(slit_13_15)
    assert len(dt.certificates) == dt.surface.n_triangles()
    for t, cert in enumerate(dt.certificates):
        corners = dt.surface.triangles[t].corner_positions()
        for p in corners:
            assert (p - cert.center).norm_l1() == cert.radius_l1


def test_planar_consistency_small_sets():
    rng = random.Random(9)
    for trial in range(6):
        n = rng.randint(5, 12)
        pts = []
        seen = set()
        while len(pts) < n:
            p = V(Fraction(rng.randint(0, 400), 16), Fraction(rng.randint(0, 400), 16))
            if (p.x, p.y) in seen:
                continue
            seen.add((p.x, p.y))
            pts.append(p)
        try:
            surface, ids, _ = wrap_points_in_torus(pts)
            dt = delaunay_l1(surface)
        except DegenerateDiamondError:
            continue  # degenerate draw; the generator retries elsewhere
        id_of_vertex = {}
        for corner, vid in dt.vertex_of_corner.items():
            id_of_vertex[dt.surface.corner_vertex(corner)] = vid
        point_index = {vid: i for i, vid in enumerate(ids)}
        # triangles whose corners are all input points AND whose developed
        # shape matches the planar coordinates (excludes triangles that wrap
        # around the torus between far copies)
        got = set()
        for t in range(dt.surface.n_triangles()):
            vids = [id_of_vertex[dt.surface.corner_vertex((t, c))] for c in range(3)]
            if not all(v in point_index for v in vids):
                continue
            idx = [point_index[v] for v in vids]
            if dt.surface.edge_vector((t, 0)) != pts[idx[1]] - pts[idx[0]]:
                continue
            if dt.surface.edge_vector((t, 1)) != pts[idx[2]] - pts[idx[1]]:
                continue
            got.add(frozenset(idx))
        try:
            brute = set(planar_empty_diamond_triples(pts))
        except DegenerateDiamondError:
            continue
        # every realized unwrapped triangle must be an empty-diamond triple
        assert got <= brute, (trial, got - brute)
        # and every empty triple with a small, cluster-local diamond (too
        # small to see the wrap copies or the square corners) is realized
        span = max(max(p.x for p in pts) - min(p.x for p in pts),
                   max(p.y for p in pts) - min(p.y for p in pts), Fraction(1))
        for triple in brute:
            tri_pts = [pts[i] for i in triple]
            dia = diamond_of(*tri_pts)
            if dia.radius_l1 < span / 2:
                assert triple in got, (trial, triple)


def test_json_export_includes_certificates(torus):
    dt = delaunay_l1(torus)
    data = dt.to_json_dict()
    assert "certificates" in data and len(data["certificates"]) == 2
    assert data["flip_count"] == 0
