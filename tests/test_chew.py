import dataclasses
import random
from fractions import Fraction
from itertools import islice

import pytest
from conftest import sl2q, stratum_draws, trace_connection

from saddlekit import chew
from saddlekit.builders import (
    marked_torus, octagon_h2, sheared_torus, slit_torus, square_torus, torus_from_basis, torus_from_matrix,
)
from saddlekit.chew import ChewPath, chew_path, planar_chew, prepare_planar
from saddlekit.delaunay import DegenerateDiamondError, delaunay_l1
from saddlekit.errors import InputError
from saddlekit.exactplane import ExactMatrix, ExactVector, compare_sqrt_sum, sqrt_bounds
from saddlekit.geodesic import (
    connections,
    detect_cylinder,
    enumerate_connections,
    shortest,
    Cylinder,
    SaddleConnection,
)
from saddlekit.surface import _in_wedge, apply_surface, area


def follows_parallel_count(path: ChewPath, conn: SaddleConnection) -> int:
    """Number of path edges parallel to the connection's holonomy."""
    h = conn.holonomy
    return sum(1 for v in path.edge_vectors if v.cross(h) == 0)


def V(x, y):
    return ExactVector.of(x, y)


def test_single_edge_path(torus):
    dt = delaunay_l1(torus)
    conn = trace_connection(torus, 0, V(1, 0))
    path = chew_path(dt, conn)
    assert path.edge_vectors == (V(1, 0),)
    assert path.ratio_upper_bound <= 1.0 + 1e-9
    assert path.sqrt10_certified


def test_torus_2_1_path(torus):
    dt = delaunay_l1(torus)
    conn = trace_connection(torus, 0, V(2, 1))
    path = chew_path(dt, conn)
    assert path.holonomy == V(2, 1)
    assert sorted((str(v)) for v in path.edge_vectors) == ["(1, 0)", "(1, 1)"]
    # length 1 + sqrt(2) <= sqrt(10) * sqrt(5)
    assert path.sqrt10_certified


def test_path_holonomy_certificate(torus):
    dt = delaunay_l1(torus)
    for d in (V(3, 2), V(5, -3), V(-4, 1), V(1, -1)):
        conn = trace_connection(torus, 0, d)
        path = chew_path(dt, conn)
        total = V(0, 0)
        for v in path.edge_vectors:
            total = total + v
        assert total == d


def test_random_sheared_tori_within_sqrt10():
    rng = random.Random(17)
    checked = 0
    for _ in range(12):
        s = sheared_torus(Fraction(rng.randint(-32, 32), 16))
        try:
            dt = delaunay_l1(s)
        except DegenerateDiamondError:
            continue
        hs = enumerate_connections(s, 5)
        for conn in hs.connections:
            path = chew_path(dt, conn)
            assert path.sqrt10_certified, (s, conn.holonomy)
            checked += 1
    assert checked >= 100


def test_planar_two_points():
    pts = [V(0, 0), V(3, 1)]
    path = planar_chew(pts, 0, 1)
    assert path.edge_vectors == (V(3, 1),)
    assert path.ratio_upper_bound <= 1.0 + 1e-9


@pytest.mark.parametrize("a, b", [(-1, 0), (0, 7), (4, 0), (0, -4)])
def test_planar_endpoint_out_of_range_is_an_input_error(a, b):
    pts = [V(0, 0), V(1, 0), V(1, 1), V(0, 1)]
    with pytest.raises(InputError, match="endpoint indices"):
        planar_chew(pts, a, b)


def test_planar_unit_square():
    pts = [V(0, 0), V(1, 0), V(1, 1), V(0, 1)]
    path = planar_chew(pts, 0, 2)
    # diagonal distance sqrt 2; path length at most 2
    assert compare_sqrt_sum([v.norm_sq() for v in path.edge_vectors], Fraction(4)) <= 0
    assert path.sqrt10_certified


def test_planar_collinear_split():
    pts = [V(0, 0), V(1, 1), V(2, 2), V(5, 0)]
    path = planar_chew(pts, 0, 2)  # straight through the middle point
    assert path.holonomy == V(2, 2)
    assert path.sqrt10_certified


def test_planar_fuzz_small():
    rng = random.Random(23)
    sets_done = 0
    for _ in range(10):
        n = rng.randint(4, 12)
        pts = []
        seen = set()
        while len(pts) < n:
            p = V(Fraction(rng.randint(0, 160), 8), Fraction(rng.randint(0, 160), 8))
            if (p.x, p.y) not in seen:
                seen.add((p.x, p.y))
                pts.append(p)
        try:
            ctx = prepare_planar(pts)
        except DegenerateDiamondError:
            continue
        for a in range(n):
            for b in range(a + 1, n):
                path = planar_chew(pts, a, b, prepared=ctx)
                assert path.sqrt10_certified, (pts, a, b)
        sets_done += 1
    assert sets_done >= 6


def test_walk_from_lower_left_side_with_upper_corners(monkeypatch):
    # Triangle (0, 0), (1, 5/8), (0, 1): its diamond has centre (5/16, 1/2)
    # and radius 13/16, z = (0, 0) lies on the lower-left side and both
    # other corners lie on upper sides, so no corner is on the lower right.
    # The step sees ints at one scale u; the corner (0, 1) reads u back.
    import saddlekit.chew as chew

    seen = []
    step = chew._walk_step

    def spy(center, r, corners, z_idx):
        z = corners[z_idx]
        rel = {(x - z[0], y - z[1]) for i, (x, y) in enumerate(corners) if i != z_idx}
        seen.append((center, r, z, rel))
        return step(center, r, corners, z_idx)

    monkeypatch.setattr(chew, "_walk_step", spy)
    pts = [V(0, 0), V(1, Fraction(5, 8)), V(0, 1), V(2, Fraction(7, 4))]
    path = planar_chew(pts, 0, 3)
    hits = []
    for center, r, z, rel in seen:
        for _, u in rel:
            if u > 0 and {V(Fraction(x, u), Fraction(y, u)) for x, y in rel} == {V(1, Fraction(5, 8)), V(0, 1)}:
                hits.append((center, r, z, u))
    assert hits
    for (cx, cy), r, (zx, zy), u in hits:
        assert V(Fraction(cx - zx, u), Fraction(cy - zy, u)) == V(Fraction(5, 16), Fraction(1, 2))
        assert Fraction(r, u) == Fraction(13, 16)
        assert zx < cx and zy < cy  # lower-left side
    assert path.edge_vectors[0] == V(1, Fraction(5, 8))
    total = V(0, 0)
    for v in path.edge_vectors:
        total = total + v
    assert total == pts[3] - pts[0] == path.holonomy
    assert path.sqrt10_certified


def test_follows_parallel_count_zero(torus):
    dt = delaunay_l1(torus)
    gamma = trace_connection(torus, 0, V(1, 0))
    conn = trace_connection(torus, 0, V(1, 2))
    path = chew_path(dt, conn)
    vertical = trace_connection(torus, 0, V(0, 1))
    # path for (1,2) uses (0,1) and (1,1) edges; nothing parallel to... the
    # (1,0) direction appears at most once
    assert follows_parallel_count(path, gamma) <= 1


def test_follows_parallel_counts_copies(torus):
    dt = delaunay_l1(torus)
    conn = trace_connection(torus, 0, V(5, 1))
    path = chew_path(dt, conn)
    gamma = trace_connection(torus, 0, V(1, 0))
    # a (5,1) path on the square torus follows (1,0) edges several times
    assert follows_parallel_count(path, gamma) >= 3


def test_parallel_run_bound_or_cylinder():
    # Lemma-style contrapositive on a thin torus: when the path follows the
    # shortest direction more than 2M+1 times, that direction carries a
    # cylinder crossed by the connection.
    thin = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 4), 4))
    dt = delaunay_l1(thin)
    gamma = shortest(thin)
    m_count = thin.n_triangles()
    conn = trace_connection(thin, 0, V(2, 4))  # crosses the thin direction
    path = chew_path(dt, conn)
    k = follows_parallel_count(path, gamma)
    if k > 2 * m_count + 1:
        res = detect_cylinder(thin, gamma, 64)
        assert isinstance(res, Cylinder)
        # the connection crosses it: transverse component is nonzero
        assert conn.holonomy.cross(gamma.holonomy) != 0


def test_chew_on_slit_surface(slit_13_15):
    dt = delaunay_l1(slit_13_15)
    hs = enumerate_connections(slit_13_15, 2)
    for conn in hs.connections[:40]:
        path = chew_path(dt, conn)
        assert path.sqrt10_certified


# --- walks on the connection's own sheet -------------------------------------

_CORPUS = {
    "octagon": (octagon_h2, 6),
    "slit": (lambda: slit_torus(V(Fraction(1, 3), Fraction(1, 5))), Fraction(5, 2)),
    "marked": (lambda: marked_torus(V(Fraction(1, 2), Fraction(1, 3))), 4),
    "square": (square_torus, 4),
}


def _corpus_walks(name):
    """(connection, its Chew path) for every connection of the corpus surface."""
    build, radius = _CORPUS[name]
    s = build()
    dt = delaunay_l1(s)
    return [(conn, chew_path(dt, conn)) for conn in enumerate_connections(s, radius).connections]


@pytest.mark.parametrize("name, shared", [("octagon", 40), ("slit", 72)])
def test_connections_on_other_sheets_walk_other_paths(name, shared):
    # A cone point holds each direction once per sheet: connections with
    # the same start and holonomy leave it on different sheets.
    edges = {}
    for conn, path in _corpus_walks(name):
        edges.setdefault((conn.start, conn.holonomy), []).append(path.edges)
    groups = [paths for paths in edges.values() if len(paths) > 1]
    assert len(groups) == shared
    for paths in groups:
        assert len(set(paths)) == len(paths), paths


@pytest.mark.parametrize("name, walks", [("octagon", 120), ("slit", 144), ("marked", 160), ("square", 32)])
def test_every_corpus_connection_walks_and_certifies(name, walks):
    done = _corpus_walks(name)
    assert len(done) == walks
    for conn, path in done:
        assert path.holonomy == conn.holonomy and path.sqrt10_certified, conn
        # The certificate read off the bounds is the exact comparison's.
        norms = [v.norm_sq() for v in path.edge_vectors]
        assert path.sqrt10_certified == (compare_sqrt_sum(norms, 10 * conn.length_sq()) <= 0)
        lo = sum(sqrt_bounds(n, 64)[0] for n in norms)
        hi = sum(sqrt_bounds(n, 64)[1] for n in norms)
        assert (path.total_length_sq_lower, path.total_length_sq_upper) == (lo * lo, hi * hi)


def test_every_connection_of_seeded_images_walks_and_certifies():
    rng = random.Random(11)
    images = walks = 0
    for base in (octagon_h2(), marked_torus(V(Fraction(1, 2), Fraction(1, 3))),
                 slit_torus(V(Fraction(1, 3), Fraction(1, 5)))):
        for _ in range(15):
            img = apply_surface(sl2q(rng), base)
            try:
                dt = delaunay_l1(img)
            except DegenerateDiamondError:
                continue
            images += 1
            for conn in islice(connections(img, 1024 * img.min_edge_norm_sq()), 30):
                path = chew_path(dt, conn)
                assert path.holonomy == conn.holonomy and path.sqrt10_certified, (img, conn)
                walks += 1
    assert (images, walks) == (41, 1230)


def test_every_connection_of_the_stratum_draws_walks_and_certifies():
    # Generated surfaces in H(2) and H(1,1): every connection up to twice
    # the square root of the area has a path within sqrt(10) of its length.
    walks = 0
    for s in stratum_draws():
        dt = delaunay_l1(s)
        for conn in connections(s, 4 * area(s)):
            path = chew_path(dt, conn)
            assert path.holonomy == conn.holonomy and path.sqrt10_certified, (s, conn)
            walks += 1
    assert walks == 6356


def test_chew_path_refuses_a_corner_off_the_connection(octagon, slit_13_15):
    # Every corner of the octagon's one vertex whose wedge does not hold
    # the holonomy is refused, whether or not a flip moved it.
    dt = delaunay_l1(octagon)
    conn = enumerate_connections(octagon, 2).connections[0]
    h = conn.holonomy
    _, tris = octagon.int_corners()
    wrong = [c for c in sorted(octagon.gluings) if not _in_wedge(tris[c[0]], c[1], (h.x, h.y))]
    assert wrong
    for corner in wrong:
        with pytest.raises(InputError, match="corner wedge does not contain the direction"):
            chew_path(dt, dataclasses.replace(conn, start_corner=corner))
    # The connection's own corner, named with the other vertex.
    dt = delaunay_l1(slit_13_15)
    conn = enumerate_connections(slit_13_15, 1).connections[0]
    with pytest.raises(InputError, match="is not at vertex"):
        chew_path(dt, dataclasses.replace(conn, start=1 - conn.start))


def test_a_path_of_exactly_sqrt10_is_decided_by_the_exact_comparison(monkeypatch):
    # Hops (0, 5) and (3, -4) for h = (3, 1): the path is 10 long, exactly
    # sqrt(10) |h|, so the bounds straddle 10 |h|^2 = 100 with the lower
    # one squared equal to it.
    s = torus_from_basis(V(3, -4), V(0, 5))
    assert (s.edge_vector((0, 1)), s.edge_vector((0, 0))) == (V(0, 5), V(3, -4))
    calls = []

    def spy(terms, bound_sq):
        calls.append((terms, bound_sq))
        return compare_sqrt_sum(terms, bound_sq)

    monkeypatch.setattr(chew, "compare_sqrt_sum", spy)
    path = chew._assemble_path(s, [((0, 1), 1), ((0, 0), 1)], V(3, 1))
    assert path.total_length_sq_lower == 100 < path.total_length_sq_upper
    assert calls == [([25, 25], 100)]
    assert path.sqrt10_certified
