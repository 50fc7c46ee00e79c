import math
import random
from fractions import Fraction

import pytest

from saddlekit.builders import sheared_torus, slit_torus, square_torus, torus_from_matrix
from saddlekit.chew import chew_path, follows_parallel_count, planar_chew, prepare_planar
from saddlekit.delaunay import DegenerateDiamondError, delaunay_l1
from saddlekit.errors import InputError
from saddlekit.exactplane import ExactMatrix, ExactVector, compare_sqrt_sum
from saddlekit.geodesic import (
    detect_cylinder,
    enumerate_connections,
    shortest,
    trace_connection,
    Cylinder,
)

SQRT10 = math.sqrt(10)


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
