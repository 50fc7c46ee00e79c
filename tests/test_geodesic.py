import dataclasses
import heapq
import itertools
import random
from fractions import Fraction

import pytest
from conftest import increasing_by_length, sl2q, stratum_draw_images, stratum_draws, trace_connection

from saddlekit import geodesic, mc
from saddlekit.builders import (
    centered_octagon_h2,
    marked_torus,
    octagon_h2,
    regular_octagon_approx,
    sheared_torus,
    slit_torus,
    square_torus,
    torus_from_matrix,
)
from saddlekit.errors import BlockedAtVertex, InputError, ResourceLimitError
from saddlekit.exactplane import (
    ExactMatrix, ExactVector, _vec, default_budget, format_rational, primitive_points_in_disc,
)
from saddlekit.geodesic import (
    Cylinder,
    SaddleConnection,
    Unknown,
    _strip,
    connections,
    count,
    detect_cylinder,
    enumerate_connections,
    nonhomologous_edge_bound,
    reverse_of,
    second_shortest_nonhomologous,
    shortest,
)
from saddlekit.homology import EdgeHomology
from saddlekit.oracle import SlitTorusPoint, TorusPoint, slit_torus_holonomy, torus_holonomy
from saddlekit.surface import apply_surface, area


def V(x, y):
    return ExactVector.of(x, y)


# Quadratic-envelope windows per surface, recorded by a calibration run of
# this suite and asserted stable since (counts hover near 6/pi ~ 1.91 per
# unit R^2 on tori; the slit surface adds two shifted-lattice families).
ENVELOPE = {
    "torus": (1.5, 2.3),
    "shear2": (1.5, 2.3),
    "slit": (7.0, 9.0),
}


def test_torus_oracle_equivalence(torus):
    for r in (1, 2, 3, 5, 10):
        got = enumerate_connections(torus, r).vectors()
        expected = set(primitive_points_in_disc(r))
        assert set(got) == expected, f"radius {r}"
        assert increasing_by_length(got), f"radius {r}"


def test_count_matches_oracle(torus):
    assert count(torus, 1) == 4
    assert count(torus, Fraction(1, 2)) == 0  # below the shortest connection


def test_count_r20_envelope(torus):
    import math

    n = count(torus, 20)
    assert abs(n - math.pi * 400 / (math.pi ** 2 / 6)) / 400 < 0.15


def test_equivariance_under_integral_shears(torus):
    rng = random.Random(2)
    for _ in range(20):
        k = rng.randint(-6, 6)
        lower = rng.choice([True, False])
        m = ExactMatrix.of(1, k, 0, 1) if lower else ExactMatrix.of(1, 0, k, 1)
        assert m.det() == 1
        r = Fraction(rng.randint(2, 5))
        image = enumerate_connections(apply_surface(m, torus), r).vectors()
        # brute force: map a comfortably larger preimage ball through m
        ops = 1 + abs(k)  # operator norm bound for a unipotent integer shear
        pre = primitive_points_in_disc(r * (ops + 1))
        expected = {m.apply(v) for v in pre if m.apply(v).norm_sq() <= r * r}
        assert set(image) == expected
        assert increasing_by_length(image)


def test_holonomy_set_negation_symmetric(torus, slit_13_15, octagon):
    for s in (torus, slit_13_15, octagon):
        vecs = enumerate_connections(s, 2).vectors()
        assert {-v for v in vecs} == set(vecs)
        assert increasing_by_length(vecs)


def test_count_monotone_in_radius(slit_13_15):
    counts = [count(slit_13_15, r) for r in (Fraction(1, 2), 1, 2, 3)]
    assert counts == sorted(counts)


def test_quadratic_envelope_windows(torus, slit_13_15):
    surfaces = {"torus": torus, "shear2": sheared_torus(2), "slit": slit_13_15}
    for name, s in surfaces.items():
        lo, hi = ENVELOPE[name]
        for r in (5, 10, 20):
            ratio = count(s, r) / r ** 2
            assert lo <= ratio <= hi, (name, r, ratio)


def test_shortest_examples(torus):
    assert shortest(torus).length_sq() == 1
    scaled = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 2), 2))
    sc = shortest(scaled)
    assert sc.length_sq() == Fraction(1, 4)
    assert sc.holonomy in (V(Fraction(1, 2), 0), V(Fraction(-1, 2), 0))
    slit = slit_torus(V(Fraction(1, 3), Fraction(1, 5)))
    assert shortest(slit).length_sq() == Fraction(34, 225)


def test_second_shortest_examples(torus):
    snd = second_shortest_nonhomologous(torus)
    assert snd.length_sq() == 1
    assert snd.holonomy.x == 0  # the vertical class, distinct from horizontal
    scaled = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 2), 2))
    assert second_shortest_nonhomologous(scaled).length_sq() == 4


def test_second_shortest_skips_parallel_homologous(slit_13_15):
    # The two slit banks share endpoints and homology class; the second
    # nonhomologous connection is the next lattice translate.
    gamma = shortest(slit_13_15)
    snd = second_shortest_nonhomologous(slit_13_15)
    assert snd.length_sq() == Fraction(109, 225)
    assert snd.length_sq() > gamma.length_sq()


def test_second_shortest_within_edge_bound(torus, slit_13_15, thin_torus):
    # the doubling search stops at the shortest edge outside the class
    assert nonhomologous_edge_bound(torus, shortest(torus)) == 1
    for s in (torus, slit_13_15, thin_torus):
        gamma = shortest(s)
        snd = second_shortest_nonhomologous(s)
        assert gamma.length_sq() <= snd.length_sq()
        assert snd.length_sq() <= nonhomologous_edge_bound(s, gamma)


def test_detect_cylinder_square_torus(torus):
    conn = trace_connection(torus, 0, V(1, 0))
    cyl = detect_cylinder(torus, conn, 10)
    assert isinstance(cyl, Cylinder)
    assert cyl.width_sq == 1 and cyl.height_sq == 1


def _from_corner(s, corner, d):
    """The connection that leaves the given corner with holonomy d."""
    return next(c for c in connections(s, d.norm_sq()) if (c.start_corner, c.holonomy) == (corner, d))


# The corner of the slit torus's cone point 0 that holds (1, 0) on the sheet
# of triangle 0; the other sheet's is (4, 0).
_SLIT_CORNER = (0, 0)


def test_detect_cylinder_slit_truncates(slit_13_15):
    # Slit with y-extent 1/5: horizontal leaves at heights inside (0, 1/5)
    # swap sheets across the slit, so the horizontal side of the square lies
    # on a circumference-2 cylinder of height 1/5 (truncated below 1).
    conn = _from_corner(slit_13_15, _SLIT_CORNER, V(1, 0))
    cyl = detect_cylinder(slit_13_15, conn, 20)
    assert isinstance(cyl, Cylinder)
    assert cyl.height_sq < 1
    assert cyl.width_sq == 4 and cyl.height_sq == Fraction(1, 25)


def test_detect_cylinder_budget_exhaustion(torus):
    conn = trace_connection(torus, 0, V(13, 8))
    res = detect_cylinder(torus, conn, Fraction(1, 100))
    assert isinstance(res, Unknown)


def test_detect_cylinder_where_every_offset_point_sat_on_an_edge(torus):
    # The antidiagonal of the square: the old offset search placed every
    # trial point on the crossed edge (1, 1) and gave up.
    conn = trace_connection(torus, 0, V(-1, 1))
    assert detect_cylinder(torus, conn, 10) == Cylinder(2, Fraction(1, 2), V(-1, 1))


def test_detect_cylinder_budget_is_the_circumference(torus):
    # Circumference sqrt(2) = 1.41421356...
    conn = trace_connection(torus, 0, V(-1, 1))
    assert isinstance(detect_cylinder(torus, conn, Fraction(1414214, 10 ** 6)), Cylinder)
    assert isinstance(detect_cylinder(torus, conn, Fraction(1414213, 10 ** 6)), Unknown)


def test_detect_cylinder_on_random_unit_tori():
    # A unit-area torus is one cylinder in each primitive direction h, of
    # circumference |h| and height 1 / |h|.
    rng = random.Random(3)
    for _ in range(10):
        s = torus_from_matrix(sl2q(rng))
        for conn in connections(s, 9 * s.min_edge_norm_sq()):
            h_sq = conn.length_sq()
            cyl = detect_cylinder(s, conn, 100)
            assert cyl == Cylinder(h_sq, 1 / h_sq, conn.holonomy), conn


def test_detect_cylinder_is_equivariant(tracer_corpus):
    rng = random.Random(8)
    checked = 0
    for s, radius in tracer_corpus:
        conns = enumerate_connections(s, radius).connections
        for _ in range(2):
            g = sl2q(rng)
            img = apply_surface(g, s)
            # Circumferences grow by at most the operator norm of g.
            bound = 1000 * sum(abs(x) for x in g.entries())
            for conn in conns:
                cyl = detect_cylinder(s, conn, 1000)
                # The same segment on the image, from the same corner.
                moved = dataclasses.replace(conn, holonomy=g.apply(conn.holonomy))
                got = detect_cylinder(img, moved, bound)
                assert got.period == g.apply(cyl.period)
                assert got.width_sq * got.height_sq == cyl.width_sq * cyl.height_sq
                checked += 1
    assert checked > 100


def test_detect_cylinder_on_the_reverse_is_the_right_side(slit_13_15):
    conn = _from_corner(slit_13_15, _SLIT_CORNER, V(1, 0))
    left = detect_cylinder(slit_13_15, conn, 20)
    right = detect_cylinder(slit_13_15, reverse_of(slit_13_15, conn), 20)
    assert (left.width_sq, left.height_sq) == (4, Fraction(1, 25))
    assert (right.width_sq, right.height_sq) == (1, Fraction(16, 25))


def test_detect_cylinder_is_a_cylinder_exactly_within_the_budget(tracer_corpus):
    for s, radius in tracer_corpus:
        for conn in enumerate_connections(s, radius).connections:
            cyl = detect_cylinder(s, conn, 10 ** 4)
            assert isinstance(cyl, Cylinder)
            # The period is a positive multiple of the connection.
            assert cyl.period.cross(conn.holonomy) == 0 and cyl.period.dot(conn.holonomy) > 0
            for max_trace in (Fraction(1, 2), 1, 3):
                within = cyl.width_sq <= max_trace * max_trace
                assert detect_cylinder(s, conn, max_trace) == (cyl if within else Unknown(
                    "circumference exceeds max_trace"))


def test_leaf_trace_cap_reports_progress(torus, monkeypatch):
    # The leaf beside (2, 1) crosses an edge at every quarter of its period
    # and closes at the fifth crossing.
    conn = trace_connection(torus, 0, V(2, 1))
    for cap in range(1, 5):
        monkeypatch.setattr(geodesic, "_MAX_CROSSINGS", cap)
        with pytest.raises(ResourceLimitError, match="leaf trace did not close") as exc:
            detect_cylinder(torus, conn, 100)
        assert exc.value.details == {
            "holonomy": ["2", "1"], "crossings": cap,
            "circumference_sq_reached": str(Fraction(5 * (cap - 1) ** 2, 16)),
        }
    monkeypatch.setattr(geodesic, "_MAX_CROSSINGS", 5)
    assert detect_cylinder(torus, conn, 100) == Cylinder(5, Fraction(1, 5), V(2, 1))


def test_resource_limit(torus, monkeypatch):
    monkeypatch.setenv("SADDLEKIT_BUDGET", "50")
    with pytest.raises(ResourceLimitError):
        enumerate_connections(torus, 40)


def test_trace_connection_agrees_with_enumeration(slit_13_15):
    # At a point of cone angle 2 pi one corner holds each direction.
    marked = marked_torus(V(Fraction(1, 2), Fraction(1, 3)))
    conns = enumerate_connections(marked, 1).connections
    assert conns
    for conn in conns:
        assert trace_connection(marked, conn.start, conn.holonomy) == conn
    # Both vertices of the slit torus are cone points of angle 4 pi, where
    # a vertex and a holonomy name one segment per sheet.
    for conn in enumerate_connections(slit_13_15, 1).connections[:8]:
        with pytest.raises(InputError, match="several corner wedges"):
            trace_connection(slit_13_15, conn.start, conn.holonomy)


def test_reverse_of_is_involution(slit_13_15):
    hs = enumerate_connections(slit_13_15, 1)
    for conn in hs.connections[:10]:
        rev = reverse_of(slit_13_15, conn)
        assert rev.holonomy == -conn.holonomy
        assert (rev.start, rev.end) == (conn.end, conn.start)
        back = reverse_of(slit_13_15, rev)
        assert back.holonomy == conn.holonomy
        assert back.crossings == conn.crossings
        assert back.start_corner == conn.start_corner


def test_homology_classes_negate_under_reversal(torus, octagon, slit_13_15):
    # The corpus up to radius 2, then the 60 stratum draws and their 60
    # SL(2, Q) images up to twice the square root of the area.
    marked = marked_torus(V(Fraction(1, 2), Fraction(1, 3)))
    corpus = [(s, enumerate_connections(s, 2).connections) for s in (torus, octagon, slit_13_15, marked)]
    generated = [(s, list(connections(s, 4 * area(s)))) for s in stratum_draws() + stratum_draw_images()]
    for s, conns in corpus + generated:
        homology = s.homology()
        assert conns
        for c in conns:
            rev = reverse_of(s, c)
            assert rev.homology_class == tuple(-x for x in c.homology_class)
            assert reverse_of(s, rev) == c
            # The class of the reversed segment, walked from its own start.
            _, _, _, lower, _ = _strip(s, rev.start_corner, rev.holonomy)
            assert homology.class_of_slots(lower) == rev.homology_class
    # The connections the Chew test walks on the draws and on the images.
    assert sum(len(conns) for _, conns in generated) == 6356 + 6488


def test_csv_rows_schema(torus):
    hs = enumerate_connections(torus, 1)
    rows = hs.csv_rows()
    assert len(rows) == 4
    assert all(len(r) == 8 for r in rows)
    assert hs.CSV_HEADER[0] == "x_num"


# --- the straight-line walker -----------------------------------------------


@pytest.fixture()
def tracer_corpus(octagon, slit_13_15):
    return [(octagon, 3), (slit_13_15, 2), (marked_torus(V(Fraction(1, 2), Fraction(1, 3))), 2)]


def test_walk_from_start_corner_reproduces_enumeration(tracer_corpus):
    for s, radius in tracer_corpus:
        homology = EdgeHomology(s)
        conns = enumerate_connections(s, radius).connections
        assert conns
        for conn in conns:
            _, _, crossings, lower, end = _strip(s, conn.start_corner, conn.holonomy)
            assert tuple(crossings) == conn.crossings
            assert end == conn.end
            assert homology.class_of_slots(lower) == conn.homology_class


def test_walk_past_a_connection_is_blocked_at_its_end(tracer_corpus):
    for s, radius in tracer_corpus:
        for conn in enumerate_connections(s, radius).connections:
            with pytest.raises(BlockedAtVertex) as blocked:
                _strip(s, conn.start_corner, conn.holonomy.scale(2))
            assert blocked.value.position == conn.holonomy
            assert blocked.value.vertex == conn.end


# --- the length-ordered search ----------------------------------------------


@pytest.fixture()
def ordered_corpus(torus, slit_13_15, octagon, thin_torus):
    marked = marked_torus(V(Fraction(1, 2), Fraction(1, 3)))
    return [(torus, 3), (slit_13_15, 1), (octagon, Fraction(3, 2)), (marked, 1), (thin_torus, 4),
            (regular_octagon_approx(), Fraction(3, 2))]


def test_stream_is_length_ordered_and_radius_prefix_closed(ordered_corpus):
    for s, r in ordered_corpus:
        stream = [(c.sort_key(), c.start_corner) for c in connections(s, 4 * r * r)]
        assert stream
        assert all(a < b for a, b in zip(stream, stream[1:]))
        wide = enumerate_connections(s, 2 * r).connections
        assert enumerate_connections(s, r).connections == tuple(
            c for c in wide if c.length_sq() <= r * r
        )


def _stream_corpus():
    """The corpus surfaces, 20 stratum draws near the octagon and SL(2, Q)
    images of the corpus."""
    corpus = [
        square_torus(), slit_torus(V(Fraction(1, 3), Fraction(1, 5))), octagon_h2(),
        regular_octagon_approx(), marked_torus(V(Fraction(1, 2), Fraction(1, 3))),
        centered_octagon_h2(), torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 8), 8)),
    ]
    draws = list(mc.sample_stratum_local(octagon_h2(), "1/20", 20, seed=3).surfaces)
    rng = random.Random(4)
    return corpus + draws + [apply_surface(sl2q(rng), s) for s in corpus]


def test_stream_is_strictly_increasing_and_counts_distinct_holonomies():
    # Strictly increasing: no connection is reached twice.  Equal holonomies
    # are adjacent, so vectors(), which keeps one of each run, agrees with
    # hashing the holonomies, and is strictly increasing in (|v|^2, x, y).
    total = 0
    for s in _stream_corpus():
        radius_sq = 16 * s.min_edge_norm_sq()
        stream = [(c.sort_key(), c.start_corner) for c in connections(s, radius_sq)]
        assert all(a < b for a, b in zip(stream, stream[1:]))
        hs = enumerate_connections(s, radius_sq=radius_sq)
        assert hs.vectors() == tuple(dict.fromkeys(c.holonomy for c in hs.connections))
        assert increasing_by_length(hs.vectors())
        total += len(stream)
    assert total > 1000


def test_holonomy_sets_are_equivariant_under_sl2q():
    # |v| <= |g^-1|_F |g v|, so the set of s up to R |g^-1|_F holds every
    # preimage of the set of g s up to R.  Its images, filtered exactly to
    # the disc, are that set, in the same (|v|^2, x, y) order.
    rng = random.Random(5)
    radius = Fraction(3, 2)
    draws = stratum_draws()
    vectors = 0
    for s in draws[0:8] + draws[20:28] + draws[40:48]:
        g = sl2q(rng)
        wide = enumerate_connections(s, radius_sq=radius**2 * sum(x * x for x in g.inverse().entries()))
        images = (g.apply(v) for v in wide.vectors())
        want = sorted((w for w in images if w.norm_sq() <= radius**2), key=lambda w: (w.norm_sq(), w.x, w.y))
        got = enumerate_connections(apply_surface(g, s), radius).vectors()
        assert got == tuple(want), (s, g)
        vectors += len(got)
    assert vectors == 424


def test_holonomy_sets_are_strictly_increasing_by_length():
    # On 60 stratum draws and an SL(2, Q) image of each, vectors() is the
    # stream's distinct holonomies in stream order, strictly increasing in
    # (|v|^2, x, y), and count reads its length.  The exact oracles give the
    # same order, also where the slit's two cosets coincide (2v in Z^2).
    rng = random.Random(7)
    draws = stratum_draws()
    for s in draws + tuple(apply_surface(sl2q(rng), s) for s in draws):
        got = enumerate_connections(s, 2).vectors()
        assert increasing_by_length(got)
        assert got == tuple(dict.fromkeys(c.holonomy for c in connections(s, 4)))
        assert len(got) == count(s, 2)
    for _ in range(20):
        assert increasing_by_length(torus_holonomy(TorusPoint(sl2q(rng)), 5))
    for v in (V(Fraction(1, 2), 0), V(Fraction(1, 2), Fraction(1, 2)), V(Fraction(1, 3), Fraction(1, 5))):
        for g in (ExactMatrix.identity(), sl2q(rng)):
            res = slit_torus_holonomy(SlitTorusPoint(g, g.apply(v)), 4)
            assert increasing_by_length(res.vectors) and increasing_by_length(res.corrections)


# --- the half-plane search against the full-plane reference -----------------


def _reference_connections(s, radius_sq):
    """The search over every direction that the half-plane search replaced,
    kept as its reference: every root pushes its out-edge and searches its
    whole open wedge, and no reverse is emitted."""
    scale, corners = s.int_corners()
    budget = default_budget()
    homology = s.homology()
    vertex = s.corner_vertex
    scale_sq = scale * scale
    limit = Fraction(radius_sq) * scale_sq
    rn, rd = limit.numerator, limit.denominator
    heap: list = []
    serial = itertools.count()

    def push(num, den, kind, payload):
        if num * rd <= rn * den:
            heapq.heappush(heap, (num / (den * scale_sq), kind, next(serial), (num, den), payload))

    for t, std in enumerate(corners):
        for c in range(3):
            slot, head = (t, c), (t, (c + 1) % 3)
            (ox, oy), (x1, y1), (x2, y2) = std[c], std[(c + 1) % 3], std[(c + 2) % 3]
            p1, p2 = (x1 - ox, y1 - oy), (x2 - ox, y2 - oy)
            push(p1[0] * p1[0] + p1[1] * p1[1], 1, geodesic._FOUND, (None, slot, p1, head))
            push(*geodesic._visible_dist_sq(p1, p2, p1, p2), geodesic._STATE,
                 (head, p1, p2, p1, p2, (None, head, slot)))
    states = yielded = 0
    while heap:
        fkey, kind, _, key, payload = heapq.heappop(heap)
        if kind == geodesic._FOUND:
            group = [payload]
            while heap and heap[0][0] == fkey:
                group.append(heapq.heappop(heap)[4])
            keys = []
            for node, last_lower, (hx, hy), end_corner in group:
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
            keys.sort()
            for _, hx, hy, start, end, crossings, start_corner, lower in keys:
                yielded += 1
                yield SaddleConnection(_vec((hx, hy), scale), start, end, crossings,
                                       homology.class_of_slots(lower), start_corner)
            continue
        if states >= budget:
            reached = min(Fraction(n, d * scale_sq)
                          for n, d in [key] + [e[3] for e in heap if e[0] == fkey])
            raise ResourceLimitError(
                "enumeration state budget exceeded", budget=budget, states=states,
                connections=yielded, radius_sq_reached=format_rational(reached),
            )
        states += 1
        slot, x, y, a, b, node = payload
        u, j = s.gluings[slot]
        (jx, jy), (kx, ky) = corners[u][j], corners[u][(j + 2) % 3]
        cx, cy = y[0] - jx + kx, y[1] - jy + ky
        cpos = (cx, cy)
        ca = a[0] * cy - a[1] * cx
        cb = cx * b[1] - cy * b[0]
        slot_a, slot_b = (u, (j + 1) % 3), (u, (j + 2) % 3)
        dist = geodesic._visible_dist_sq
        if ca > 0 and cb > 0:
            push(cx * cx + cy * cy, 1, geodesic._FOUND, (node, slot_a, cpos, slot_b))
            push(*dist(x, cpos, a, cpos), geodesic._STATE, (slot_a, x, cpos, a, cpos, (node, slot_a, None)))
            push(*dist(cpos, y, cpos, b), geodesic._STATE, (slot_b, cpos, y, cpos, b, (node, slot_b, slot_a)))
        elif ca <= 0:
            push(*dist(cpos, y, a, b), geodesic._STATE, (slot_b, cpos, y, a, b, (node, slot_b, slot_a)))
        else:
            push(*dist(x, cpos, a, b), geodesic._STATE, (slot_a, x, cpos, a, b, (node, slot_a, None)))


_SHEARS = ((1, 0, 1, 1), (1, 0, 2, 1), (2, 1, 1, 1))


def _differential_corpus():
    """(group, surfaces): the corpus surfaces with the thin torus, an SL(2, Q)
    image of each, 30 stratum draws, and the images of the six under each
    matrix of _SHEARS, where horizontal connections cross edges."""
    base = (
        square_torus(), slit_torus(V(Fraction(1, 3), Fraction(1, 5))), octagon_h2(),
        regular_octagon_approx(), marked_torus(V(Fraction(1, 2), Fraction(1, 3))),
        torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 8), 8)),
    )
    rng = random.Random(3)
    return [("corpus", base), ("images", tuple(apply_surface(sl2q(rng), s) for s in base)),
            ("draws", stratum_draws()[::2])] + [
        (m, tuple(apply_surface(ExactMatrix.of(*m), s) for s in base)) for m in _SHEARS
    ]


def test_the_half_plane_search_matches_the_full_plane_reference():
    # The whole stream: order, holonomy, ends, crossings, homology class and
    # start corner.  Horizontal connections that cross an edge are found on
    # the closed ray (1, 0) of a root wedge only, and their reverses only as
    # reverses; every sheared group holds some.
    horizontal = {}
    for group, surfaces in _differential_corpus():
        for s in surfaces:
            got = list(connections(s, 16))
            assert got == list(_reference_connections(s, 16)), (group, s)
            horizontal[group] = horizontal.get(group, 0) + sum(
                1 for c in got if c.holonomy.y == 0 and c.crossings
            )
    assert all(horizontal[m] > 0 for m in _SHEARS), horizontal


def _thin_corpus():
    """(surface, radius_sq): octagon_h2() under diag(2^-k, 2^k) for k = 4
    and 8 at 4, and 10 stratum draws under diag(1/4, 4) at 1, where the
    chains of pass-through triangles are longest."""
    octagons = [(apply_surface(ExactMatrix.diagonal(Fraction(1, 2**k), 2**k), octagon_h2()), 4) for k in (4, 8)]
    push = ExactMatrix.diagonal(Fraction(1, 4), 4)
    return octagons + [(apply_surface(push, s), 1) for s in stratum_draws()[::6]]


def test_thin_surfaces_match_the_full_plane_reference():
    # The whole stream, and the answers of the searches that stop at their
    # first connection, against the reference stopped at the same one
    # (within the stream's radius but on two of the draws).
    for s, radius_sq in _thin_corpus():
        want = list(_reference_connections(s, radius_sq))
        assert list(connections(s, radius_sq)) == want, s
        gamma = shortest(s)
        assert gamma == want[0]
        outside = (c for c in _reference_connections(s, nonhomologous_edge_bound(s, gamma))
                   if not s.homology().is_pm(c.homology_class, gamma.homology_class))
        assert second_shortest_nonhomologous(s) == next(outside)


@pytest.mark.parametrize("name, budget", [("slit", 150), ("octagon", 60), ("thin", 100)])
def test_a_refused_search_has_yielded_every_shorter_reference_connection(
    name, budget, monkeypatch, slit_13_15, octagon, thin_torus
):
    s = {"slit": slit_13_15, "octagon": octagon, "thin": thin_torus}[name]
    want = list(_reference_connections(s, 64))
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(budget))
    got = []
    with pytest.raises(ResourceLimitError) as exc:
        got.extend(connections(s, 64))
    details = exc.value.details
    shorter = [c for c in want if c.length_sq() < Fraction(details["radius_sq_reached"])]
    assert details["connections"] == len(got) >= len(shorter) > 0
    assert got == want[:len(got)]


@pytest.mark.parametrize(
    "name, radius, reference_states, states",
    [
        pytest.param("square", 4, 174, 87, id="square-4-174"),
        pytest.param("slit", 2, 426, 216, id="slit-2-426"),
        pytest.param("octagon", 3, 176, 98, id="octagon-3-176"),
        pytest.param("thin", 8, 518, 259, id="thin-8-518"),
        pytest.param("square", 20, 12478, 6239, id="square-20-12478"),
        pytest.param("slit", 8, 14530, 7230, id="slit-8-14530"),
        pytest.param("octagon", 12, 4098, 2098, id="octagon-12-4098"),
    ],
)
def test_budget_counts_expanded_states(
    name, radius, reference_states, states, monkeypatch, torus, slit_13_15, octagon, thin_torus
):
    # For a given radius the expanded states are fixed: those of the
    # full-plane reference, which name the cases, and about half as many for
    # the half-plane search.  Developing a wedge in one loop until it splits
    # expands exactly the states that pushing every pass-through on the heap
    # did: the last three cases were counted on that heap search.
    s = {"square": torus, "slit": slit_13_15, "octagon": octagon, "thin": thin_torus}[name]
    for search, n in ((_reference_connections, reference_states), (connections, states)):
        monkeypatch.setenv("SADDLEKIT_BUDGET", str(n))
        list(search(s, radius * radius))
        monkeypatch.setenv("SADDLEKIT_BUDGET", str(n - 1))
        with pytest.raises(ResourceLimitError):
            list(search(s, radius * radius))


def test_budget_error_reports_progress(torus, monkeypatch):
    monkeypatch.setenv("SADDLEKIT_BUDGET", "50")
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_connections(torus, 40)
    details = exc.value.details
    assert details["budget"] == 50 and details["states"] == 50
    reached = Fraction(details["radius_sq_reached"])
    monkeypatch.delenv("SADDLEKIT_BUDGET")
    shorter = [
        c for c in enumerate_connections(torus, radius_sq=reached).connections
        if c.length_sq() < reached
    ]
    assert details["connections"] == len(shorter) > 0


@pytest.mark.parametrize(
    "g, sizes",
    [
        (ExactMatrix.of(2, Fraction(1, 3), 0, Fraction(1, 2)), (20, 96)),
        (ExactMatrix.of(Fraction(3, 2), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)), (18, 96)),
    ],
)
def test_torus_oracle_on_lattices_with_denominators(g, sizes):
    # Denominators in both rows: the search runs on the lattice scaled by
    # their lcm.  Sizes recorded with the Fraction search this one replaced.
    for r, size in zip((3, 7), sizes):
        got = enumerate_connections(torus_from_matrix(g), r).vectors()
        assert got == torus_holonomy(TorusPoint(g), r)
        assert len(got) == size


@pytest.mark.parametrize(
    "name, reference_reached, yielded, reached",
    [
        # 12 and "1" when every pass-through state went through the heap.
        pytest.param("slit", "109/169", 8, "169/225", id="slit-109/169"),
        pytest.param("regular octagon", "1457107309449/500000000000", 8, "1707107309449/500000000000",
                     id="regular octagon-1457107309449/500000000000"),
    ],
)
def test_budget_payload_on_surfaces_with_denominators(
    name, reference_reached, yielded, reached, monkeypatch, slit_13_15
):
    # The full-plane reference's payloads name the cases; on the same
    # budget the half-plane search gets further.
    s = {"slit": slit_13_15, "regular octagon": regular_octagon_approx()}[name]
    monkeypatch.setenv("SADDLEKIT_BUDGET", "50")
    for search, n, r in ((_reference_connections, 8, reference_reached), (connections, yielded, reached)):
        with pytest.raises(ResourceLimitError) as exc:
            list(search(s, 100))
        assert exc.value.details == {
            "budget": 50, "states": 50, "connections": n, "radius_sq_reached": r,
        }


@pytest.mark.parametrize("radius_sq", ["x", float("inf"), float("nan")])
def test_a_radius_that_is_no_rational_is_an_input_error(torus, radius_sq):
    with pytest.raises(InputError):
        list(connections(torus, radius_sq))


_BAD_RADII = [
    pytest.param({"radius": 0}, id="radius-0"),
    pytest.param({"radius": -1}, id="radius-negative"),
    pytest.param({"radius_sq": 0}, id="radius_sq-0"),
    pytest.param({"radius_sq": Fraction(-1, 4)}, id="radius_sq-negative"),
    pytest.param({"radius": 1, "radius_sq": 1}, id="both"),
    pytest.param({}, id="neither"),
] + [
    pytest.param({key: value}, id=f"{key}-{value}")
    for key in ("radius", "radius_sq") for value in ("x", float("inf"), float("nan"), True)
]


def holonomies(s, radius=None, *, radius_sq=None):
    """The vectors every transform reads: the int keys (|v|^2 D^2, x, y) of
    `_holonomy_keys` at the surface's scale D, as ExactVectors, with the
    radius read as `enumerate_connections` and `count` read it."""
    keys = geodesic._holonomy_keys(s, geodesic._radius_sq(radius, radius_sq))
    scale, _ = s.int_corners()
    assert all(n == x * x + y * y for n, x, y in keys)
    return tuple(_vec((x, y), scale) for _, x, y in keys)


@pytest.mark.parametrize("entry", [enumerate_connections, holonomies], ids=lambda f: f.__name__)
@pytest.mark.parametrize("kwargs", _BAD_RADII)
def test_both_entry_points_refuse_a_bad_radius(torus, entry, kwargs):
    with pytest.raises(InputError):
        entry(torus, **kwargs)


def test_holonomies_are_the_vectors_of_the_enumeration():
    # The 60 surfaces of the differential corpus, and the pushed octagons of
    # the thin corpus, where many connections share a holonomy.
    pushed = [apply_surface(ExactMatrix.diagonal(Fraction(1, 2**k), 2**k), octagon_h2()) for k in (4, 8)]
    surfaces = [s for _, group in _differential_corpus() for s in group]
    assert len(surfaces) == 60
    for s, radius_sq in [(s, 16) for s in surfaces] + [(s, 4) for s in pushed]:
        want = enumerate_connections(s, radius_sq=radius_sq).vectors()
        assert holonomies(s, radius_sq=radius_sq) == want, s
    # Pushed by diag(2^-k, 2^k), the octagon keeps 4 vectors up to R = 2.
    assert [len(holonomies(s, 2)) for s in pushed] == [count(s, 2) for s in pushed] == [4, 4]


@pytest.mark.parametrize(
    "name, radius, states",
    [("square", 20, 6239), ("slit", 8, 7230), ("octagon", 12, 2098)],
)
def test_holonomies_spend_the_states_of_the_enumeration(
    name, radius, states, monkeypatch, torus, slit_13_15, octagon
):
    # The pinned least budgets of test_budget_counts_expanded_states hold for
    # both paths, and one state less refuses both with the same payload.
    s = {"square": torus, "slit": slit_13_15, "octagon": octagon}[name]
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(states))
    assert holonomies(s, radius) == enumerate_connections(s, radius).vectors()
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(states - 1))
    payloads = []
    for entry in (enumerate_connections, holonomies):
        with pytest.raises(ResourceLimitError) as exc:
            entry(s, radius)
        payloads.append(exc.value.to_json_dict())
    assert payloads[0] == payloads[1]
    assert payloads[0]["states"] == states - 1 and payloads[0]["connections"] > 0


def test_count_is_the_number_of_holonomies():
    # The 60 surfaces of the differential corpus at R = 4, and the pushed
    # octagons of the thin corpus at R = 2 and 4.
    pushed = [apply_surface(ExactMatrix.diagonal(Fraction(1, 2**k), 2**k), octagon_h2()) for k in (4, 8)]
    surfaces = [s for _, group in _differential_corpus() for s in group]
    assert len(surfaces) == 60
    for s, radius in [(s, 4) for s in surfaces] + [(s, r) for s in pushed for r in (2, 4)]:
        assert count(s, radius) == len(enumerate_connections(s, radius).vectors()), s


@pytest.mark.parametrize(
    "name, radius, states",
    [("square", 20, 6239), ("slit", 8, 7230), ("octagon", 12, 2098)],
)
def test_count_spends_the_states_of_the_enumeration(
    name, radius, states, monkeypatch, torus, slit_13_15, octagon
):
    # The pinned least budgets of test_budget_counts_expanded_states: count
    # passes on them, and one state less refuses it with the payload of
    # the enumeration.
    s = {"square": torus, "slit": slit_13_15, "octagon": octagon}[name]
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(states))
    assert count(s, radius) == len(enumerate_connections(s, radius).vectors())
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(states - 1))
    payloads = []
    for entry in (count, enumerate_connections):
        with pytest.raises(ResourceLimitError) as exc:
            entry(s, radius)
        payloads.append(exc.value.to_json_dict())
    assert payloads[0] == payloads[1]
    assert payloads[0]["states"] == states - 1


def test_a_pass_through_inside_the_disc_computes_no_visible_distance(monkeypatch, torus):
    # A wedge that passes through an edge with both ends in the closed disc
    # stays in the disc: the search skips the exact distance there.  The
    # square torus at R = 20 develops 6,239 states; the search that took the
    # distance of every pass-through made 6,661 calls.
    calls = []

    def counted(*args):
        calls.append(args)
        return visible_dist_sq(*args)

    visible_dist_sq = geodesic._visible_dist_sq
    monkeypatch.setattr(geodesic, "_visible_dist_sq", counted)
    monkeypatch.setenv("SADDLEKIT_BUDGET", "6239")
    assert count(torus, 20) == 768
    assert len(calls) <= 1600
    monkeypatch.setenv("SADDLEKIT_BUDGET", "6238")
    with pytest.raises(ResourceLimitError):
        count(torus, 20)


def test_second_shortest_is_first_outside_class(torus, slit_13_15, thin_torus, octagon):
    for s in (torus, slit_13_15, thin_torus, octagon):
        homology = EdgeHomology(s)
        gamma = shortest(s)
        bound = nonhomologous_edge_bound(s, gamma)
        expected = next(
            c for c in enumerate_connections(s, radius_sq=bound).connections
            if not homology.is_pm(c.homology_class, gamma.homology_class)
        )
        assert second_shortest_nonhomologous(s) == expected
