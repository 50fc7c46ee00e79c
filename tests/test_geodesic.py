import dataclasses
import random
from fractions import Fraction

import pytest
from conftest import sl2q

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
from saddlekit.exactplane import ExactMatrix, ExactVector, primitive_points_in_disc
from saddlekit.geodesic import (
    Cylinder,
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
    trace_connection,
)
from saddlekit.homology import EdgeHomology
from saddlekit.oracle import TorusPoint, torus_holonomy
from saddlekit.surface import apply_surface


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
        assert got == expected, f"radius {r}"


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
        assert image == expected


def test_holonomy_set_negation_symmetric(torus, slit_13_15, octagon):
    for s in (torus, slit_13_15, octagon):
        vecs = enumerate_connections(s, 2).vectors()
        assert {-v for v in vecs} == vecs


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
    marked = marked_torus(V(Fraction(1, 2), Fraction(1, 3)))
    for s in (torus, octagon, slit_13_15, marked):
        homology = s.homology()
        conns = enumerate_connections(s, 2).connections
        assert conns
        for c in conns:
            rev = reverse_of(s, c)
            assert rev.homology_class == tuple(-x for x in c.homology_class)
            assert reverse_of(s, rev) == c
            # The class of the reversed segment, walked from its own start.
            _, _, _, lower, _ = _strip(s, rev.start_corner, rev.holonomy)
            assert homology.class_of_slots(lower) == rev.homology_class


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
    # are adjacent, so n_vectors agrees with hashing the holonomies.
    total = 0
    for s in _stream_corpus():
        radius_sq = 16 * s.min_edge_norm_sq()
        stream = [(c.sort_key(), c.start_corner) for c in connections(s, radius_sq)]
        assert all(a < b for a, b in zip(stream, stream[1:]))
        hs = enumerate_connections(s, radius_sq=radius_sq)
        assert hs.n_vectors() == len(hs.vectors())
        total += len(stream)
    assert total > 1000


@pytest.mark.parametrize(
    "name, radius, states",
    [("square", 4, 174), ("slit", 2, 426), ("octagon", 3, 176), ("thin", 8, 518)],
)
def test_budget_counts_expanded_states(
    name, radius, states, monkeypatch, torus, slit_13_15, octagon, thin_torus
):
    # State counts recorded with the breadth-first enumerator this search
    # replaced: for a given radius the expanded states are the same.
    s = {"square": torus, "slit": slit_13_15, "octagon": octagon, "thin": thin_torus}[name]
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(states))
    enumerate_connections(s, radius)
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(states - 1))
    with pytest.raises(ResourceLimitError):
        enumerate_connections(s, radius)


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
    "name, reached",
    [("slit", "109/169"), ("regular octagon", "1457107309449/500000000000")],
)
def test_budget_payload_on_surfaces_with_denominators(name, reached, monkeypatch, slit_13_15):
    # Payloads recorded with the Fraction search this one replaced.
    s = {"slit": slit_13_15, "regular octagon": regular_octagon_approx()}[name]
    monkeypatch.setenv("SADDLEKIT_BUDGET", "50")
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_connections(s, 10)
    assert exc.value.details == {
        "budget": 50, "states": 50, "connections": 8, "radius_sq_reached": reached,
    }


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
