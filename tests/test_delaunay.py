import hashlib
import random
from fractions import Fraction
from itertools import product
from typing import List, Tuple

import pytest
from conftest import sl2q, stratum_draws
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlekit.builders import (
    centered_octagon_h2,
    marked_torus,
    octagon_h2,
    regular_octagon_approx,
    sheared_torus,
    slit_torus,
    square_torus,
    wrap_points_in_torus,
)
from saddlekit.chew import prepare_planar
from saddlekit.delaunay import (
    DegenerateDiamondError,
    DiamondCertificate,
    FlipCycleError,
    _SIDES,
    _diamond,
    _doubled,
    _FLIPS_BASE,
    _FLIPS_PER_TRIANGLE,
    _edge_empty_diamond_exists,
    _flip,
    delaunay_l1,
    diamond_of,
    is_locally_delaunay,
)
from saddlekit.exactplane import ExactMatrix, ExactVector, _turn, _vec
from saddlekit.geodesic import enumerate_connections, shortest
from saddlekit.surface import Triangle, TranslationSurface, apply_surface, area
from saddlekit.sv import AnnulusIndicator, DiscIndicator, classify, transform_report


def V(x, y):
    return ExactVector.of(x, y)


def contains_strictly(dia: DiamondCertificate, p: ExactVector) -> bool:
    return (p - dia.center).norm_l1() < dia.radius_l1


def on_boundary(dia: DiamondCertificate, p: ExactVector) -> bool:
    return (p - dia.center).norm_l1() == dia.radius_l1


# --- planar brute force (testing oracle) -----------------------------------


def planar_empty_diamond_triples(points: List[ExactVector]):
    """All point triples whose circumscribing diamond strictly contains no
    other point; the planar L1 Delaunay triangles for generic sets."""
    n = len(points)
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                try:
                    dia = diamond_of(points[i], points[j], points[k])
                except DegenerateDiamondError:
                    continue
                if any(
                    contains_strictly(dia, points[m])
                    for m in range(n)
                    if m not in (i, j, k)
                ):
                    continue
                triples.append(frozenset((i, j, k)))
    return triples


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
    # The int function takes the quad scaled by 4; similar quads agree.
    assert _edge_empty_diamond_exists(*[(int(4 * x), int(4 * y)) for x, y in quad]) is exists
    assert _reference_edge_empty_diamond_exists(*[V(*p) for p in quad]) is exists


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
    assert all(on_boundary(dia, p) for p in pts)


def test_is_locally_delaunay_quad_cases(torus):
    # The square torus triangulation: both diagonal-adjacent quads pass.
    for slot in torus.gluings:
        assert is_locally_delaunay(torus, slot)


def test_the_verifier_needs_the_second_diamond_only_when_the_first_side_passes():
    # Across (4, 0) the apex lies strictly inside triangle 4's diamond, and
    # the triangle on the other side has none: the answer is False, not an
    # error, and only the test from the other side raises.
    s = apply_surface(ExactMatrix.of(1, -3, 0, 2), octagon_h2())
    u, _ = s.gluings[(4, 0)]
    with pytest.raises(DegenerateDiamondError):
        _diamond(*s.int_corners()[1][u])
    assert is_locally_delaunay(s, (4, 0)) is False
    with pytest.raises(DegenerateDiamondError):
        is_locally_delaunay(s, s.gluings[(4, 0)])


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


def _generic_images(n, seed):
    """Images of corpus surfaces under random rational matrices of positive
    determinant whose triangles all have diamonds."""
    rng = random.Random(seed)
    sources = [octagon_h2(), centered_octagon_h2(), slit_torus(V(Fraction(1, 3), Fraction(1, 5)))]

    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))

    while n:
        g = ExactMatrix(q(), q(), q(), q())
        if g.det() <= 0:
            continue
        s = apply_surface(g, rng.choice(sources))
        try:
            for tri in s.int_corners()[1]:
                _diamond(*tri)
        except DegenerateDiamondError:
            continue
        n -= 1
        yield s


def test_both_slots_of_an_edge_pose_the_same_local_delaunay_test():
    # delaunay_l1 tests each edge once, from its first slot in gluing order.
    # Unflipped triangulations fail on some edges, on one side or on both.
    failures = 0
    for s in _generic_images(80, seed=4):
        for slot, mate in s.gluings.items():
            ok = is_locally_delaunay(s, slot)
            assert ok == is_locally_delaunay(s, mate), slot
            failures += not ok
    assert failures >= 100


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
    # The corpus, then 60 stratum draws about three of its surfaces.
    for s in (torus, sheared_torus(Fraction(7, 3)), slit_13_15, octagon) + stratum_draws():
        dt = delaunay_l1(s)
        vecs = {dt.surface.edge_vector(sl) for sl in dt.surface.slots()}
        gamma = shortest(s).holonomy
        assert gamma in vecs or -gamma in vecs


def _independence_group(name):
    """The 5 corpus surfaces, the 60 stratum draws, or 15 SL(2, Q) images
    of the corpus, 3 of each surface."""
    corpus = (
        square_torus(), slit_torus(V(Fraction(1, 3), Fraction(1, 5))), octagon_h2(),
        regular_octagon_approx(), marked_torus(V(Fraction(1, 2), Fraction(1, 3))),
    )
    if name == "corpus":
        return corpus
    if name == "draws":
        return stratum_draws()
    rng = random.Random(11)
    return tuple(apply_surface(sl2q(rng), s) for s in corpus for _ in range(3))


def _outputs(s):
    """The holonomy set, the classification and two transforms of s."""
    return (
        enumerate_connections(s, 2).vectors(),
        [classify(s, eps0, Fraction(1, 2)).to_json_dict() for eps0 in (Fraction(1, 2), 2)],
        [transform_report(s, f) for f in (DiscIndicator(2), AnnulusIndicator(1, 2))],
    )


@pytest.mark.parametrize(
    "group, degenerate", [("corpus", []), ("draws", []), ("images", [3])], ids=["corpus", "draws", "images"]
)
def test_outputs_do_not_depend_on_the_triangulation(group, degenerate):
    # The same answers on s and on its L1-Delaunay retriangulation.  Image 3
    # (of the slit torus) is the known DegenerateDiamondError defect of
    # delaunay_l1 on points with a slope +-1 pair.
    raised = []
    for i, s in enumerate(_independence_group(group)):
        try:
            flipped = delaunay_l1(s).surface
        except DegenerateDiamondError:
            raised.append(i)
            continue
        assert _outputs(flipped) == _outputs(s), i
    assert raised == degenerate


def _randomly_flipped(s, rng, attempts):
    """(s retriangulated by flips of random edges, the flips made).  A slot
    whose quad is not strictly convex raises DegenerateDiamondError before
    anything changes and is skipped.  The surface is rebuilt from the int
    corners as delaunay_l1 builds its own."""
    scale, corners = s.int_corners()
    tris = [list(tri) for tri in corners]
    glue = dict(s.gluings)
    vertex = {(t, c): s.corner_vertex((t, c)) for t in range(len(tris)) for c in range(3)}
    slots = sorted(glue)
    flips = 0
    for _ in range(attempts):
        try:
            _flip(tris, glue, vertex, rng.choice(slots))
            flips += 1
        except DegenerateDiamondError:
            pass
    edges = ((tri[(i + 1) % 3][0] - tri[i][0], tri[(i + 1) % 3][1] - tri[i][1]) for tri in tris for i in range(3))
    vectors = [_vec(e, scale) for e in edges]
    return TranslationSurface([Triangle(tuple(vectors[3 * t:3 * t + 3])) for t in range(len(tris))], glue), flips


def test_holonomy_sets_do_not_depend_on_random_flips():
    # 40 random flip attempts on each of the 5 corpus surfaces and 10
    # stratum draws; 396 of the 600 meet a strictly convex quad.
    rng = random.Random(13)
    flips = 0
    for s in _independence_group("corpus") + stratum_draws()[::6]:
        flipped, n = _randomly_flipped(s, rng, 40)
        assert enumerate_connections(flipped, 2).vectors() == enumerate_connections(s, 2).vectors()
        flips += n
    assert flips == 396


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


def _planar_points(seed, n):
    rng = random.Random(seed)
    pts, seen = [], set()
    while len(pts) < n:
        p = (rng.randint(0, 400), rng.randint(0, 400))
        if p not in seen:
            seen.add(p)
            pts.append(V(Fraction(p[0], 16), Fraction(p[1], 16)))
    return pts


# sha256 of delaunay_l1(s).to_json() and flip_count, recorded from the
# Fraction implementation that preceded the integer one.
_GOLDEN = {
    "octagon_h2": ("00e874237db0be39b647d540c467142810daeb70168e177db1a87ceb3b12a0d5", 2),
    "slit_torus(1/3, 1/5)": ("b5df2b9110520d65d20e3373d3d41ab6aeff22d1fc0d5c133a695dd77e95c27d", 4),
    "regular_octagon_approx": ("30b6d7f165c35f2c75b02c35dcb6ee69e6971afff337175d694eec5550605f30", 2),
    "sheared_torus(3)": ("697007442161893747bdbd118e6b793310437def705d381b6ef449457fd5ce14", 3),
    "prepare_planar(12 points, seed 0)": (
        "1fde895fcea0dd9b0d4711c979c581a8fb2952a029b039c9e777c283535747c4", 29),
}
_GOLDEN_RUNS = {
    "octagon_h2": lambda: delaunay_l1(octagon_h2()),
    "slit_torus(1/3, 1/5)": lambda: delaunay_l1(slit_torus(V(Fraction(1, 3), Fraction(1, 5)))),
    "regular_octagon_approx": lambda: delaunay_l1(regular_octagon_approx()),
    "sheared_torus(3)": lambda: delaunay_l1(sheared_torus(3)),
    "prepare_planar(12 points, seed 0)": lambda: prepare_planar(_planar_points(0, 12))["dt"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_delaunay_output_is_byte_identical_to_the_fraction_flips(name):
    dt = _GOLDEN_RUNS[name]()
    assert (hashlib.sha256(dt.to_json().encode()).hexdigest(), dt.flip_count) == _GOLDEN[name]


def _reference_diamond_of(p1, p2, p3):
    """The Fraction diamond_of that preceded the integer core, kept as the
    reference: the same bounding-box construction in (u, v) = (x + y, x - y)."""
    if (p2 - p1).cross(p3 - p1) == 0:
        raise DegenerateDiamondError("collinear points have no circumscribing diamond")
    pts = [(p.x + p.y, p.x - p.y) for p in (p1, p2, p3)]
    lo = [min(p[k] for p in pts) for k in (0, 1)]
    hi = [max(p[k] for p in pts) for k in (0, 1)]
    k = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1
    r = (hi[k] - lo[k]) * Fraction(1, 2)
    sides = ((0, 1), (1, -1), (0, -1), (1, 1))
    solutions = []
    for flush in (hi[1 - k] - r, lo[1 - k] + r):
        center = [flush, flush]
        center[k] = lo[k] + r
        on = [[(a, e) for a, e in sides if p[a] - center[a] == e * r] for p in pts]
        matched = any(len({s1, s2, s3}) == 3 for s1 in on[0] for s2 in on[1] for s3 in on[2])
        if center not in solutions and matched:
            solutions.append(center)
    if not solutions:
        raise DegenerateDiamondError("no admissible circumscribing diamond")
    if len(solutions) > 1:
        raise DegenerateDiamondError(
            "ambiguous circumscribing diamond (multiple solutions)", count=len(solutions)
        )
    cu, cv = solutions[0]
    return DiamondCertificate(V((cu + cv) / 2, (cu - cv) / 2), r)


def _differential_triples(n, seed):
    """Generic triples, slope +-1 pairs, collinear triples and small-int
    triples (ties, duplicates), with denominators 1 to 8 and 35."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 7, 8, 35)))

    for m in range(n):
        p1, p2, p3 = (V(q(), q()) for _ in range(3))
        if m % 4 == 1:
            t = q()
            p2 = p1 + V(t, rng.choice((1, -1)) * t)
        elif m % 4 == 2:
            p3 = p1 + (p2 - p1).scale(q())
        elif m % 4 == 3:
            p1, p2, p3 = (V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
        yield p1, p2, p3


def _diamond_outcome(f, pts):
    try:
        dia = f(*pts)
    except DegenerateDiamondError as exc:
        return type(exc), str(exc), exc.details
    c = dia.center
    return type(dia), type(c), type(c.x), type(c.y), type(dia.radius_l1), c, dia.radius_l1


def test_diamond_of_matches_the_fraction_reference():
    kinds = {}
    for pts in _differential_triples(2400, seed=17):
        got = _diamond_outcome(diamond_of, pts)
        assert got == _diamond_outcome(_reference_diamond_of, pts), pts
        kinds[got[1] if len(got) == 3 else "certificate"] = True
    # Every outcome occurs: a certificate and each of the three errors.
    assert len(kinds) == 4, kinds


def _reference_diamond(p1, p2, p3) -> Tuple[int, int, int]:
    """The int `_diamond` that preceded the Hall test on side masks, kept as
    the reference: it enumerates the side picks of the three points."""
    if _turn(p1, p2, p3) == 0:
        raise DegenerateDiamondError("collinear points have no circumscribing diamond")
    pts = [_doubled(p) for p in (p1, p2, p3)]
    lo = [min(p[k] for p in pts) for k in (0, 1)]
    hi = [max(p[k] for p in pts) for k in (0, 1)]
    k = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1  # the wide axis
    r = (hi[k] - lo[k]) // 2  # doubled coordinates are even
    solutions = []
    for flush in (hi[1 - k] - r, lo[1 - k] + r):
        center = [flush, flush]
        center[k] = lo[k] + r
        if center not in solutions and _reference_on_distinct_sides(pts, center, r):
            solutions.append(center)
    if not solutions:
        raise DegenerateDiamondError("no admissible circumscribing diamond")
    if len(solutions) > 1:
        raise DegenerateDiamondError(
            "ambiguous circumscribing diamond (multiple solutions)",
            count=len(solutions),
        )
    cu, cv = solutions[0]
    return cu, cv, r


def _reference_on_distinct_sides(pts, center, r) -> bool:
    """The points, all in the square, match injectively to sides they lie on."""
    on = [[(k, e) for k, e in _SIDES if p[k] - center[k] == e * r] for p in pts]
    return any(len(set(pick)) == 3 for pick in product(*on))


def _int_diamond_outcome(f, pts):
    try:
        return f(*pts)
    except DegenerateDiamondError as exc:
        return type(exc), str(exc), exc.details


@pytest.mark.parametrize("scale, ox, oy", [(1, 0, 0), (2**70, 10**30 + 7, -(3**60))], ids=["grid", "far"])
def test_diamond_matches_the_side_pick_reference_on_every_grid_triple(scale, ox, oy):
    # Every ordered triple of {-2..2}^2, and the same triples scaled and
    # shifted far from the origin, where no coordinate fits a machine word.
    grid = [(scale * x + ox, scale * y + oy) for x in range(-2, 3) for y in range(-2, 3)]
    outcomes = set()
    for pts in product(grid, repeat=3):
        got = _int_diamond_outcome(_diamond, pts)
        assert got == _int_diamond_outcome(_reference_diamond, pts), pts
        outcomes.add(got[1] if got[0] is DegenerateDiamondError else "diamond")
    assert len(outcomes) == 4, outcomes


# The Fraction LP that preceded the closed form, kept as the reference: for
# each pair of sides of the diamond through a and b, the squares along one
# line, with every condition linear in the line's parameter.
_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


def _rotated(p: ExactVector) -> Tuple[Fraction, Fraction]:
    """(u, v) = (x + y, x - y), where L1 diamonds are axis-parallel squares."""
    return (p.x + p.y, p.x - p.y)


class _Feasible1D:
    """Feasible set of linear constraints alpha * t + beta >= 0 (or > 0)."""

    def __init__(self):
        self.lo = None  # Fraction or None for -inf
        self.hi = None
        self.empty = False
        self.strict = []  # (alpha, beta) strict constraints

    def add(self, alpha: Fraction, beta: Fraction, strict: bool = False):
        if self.empty:
            return
        if alpha == 0:
            if beta < 0 or (strict and beta == 0):
                self.empty = True
            return
        bound = -beta / alpha
        if alpha > 0:
            if self.lo is None or bound > self.lo:
                self.lo = bound
        else:
            if self.hi is None or bound < self.hi:
                self.hi = bound
        if strict:
            self.strict.append((alpha, beta))
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            self.empty = True

    def nonempty(self) -> bool:
        if self.empty:
            return False
        if self.lo is not None and self.hi is not None and self.lo == self.hi:
            t = self.lo
            return all(al * t + be > 0 for al, be in self.strict)
        return True

    def snapshot(self):
        return (self.lo, self.hi, self.empty, tuple(self.strict))

    def restore(self, snap):
        self.lo, self.hi, self.empty, strict = snap
        self.strict = list(strict)


def _reference_edge_empty_diamond_exists(a, b, c, d) -> bool:
    """Exists an L1 disc with a, b on its boundary and c, d outside or on.

    In the rotated frame each side pins one of cu +- r or cv +- r, so a pair
    of distinct sides for a and b fixes a line of squares along which every
    side and exclusion condition is linear.
    """
    a, b, c, d = (_rotated(p) for p in (a, b, c, d))
    for ka, ea in _SIDES:
        for kb, eb in _SIDES:
            if (ka, ea) == (kb, eb):
                continue  # two points on one side line: excluded by genericity
            # cu, cv and r along the line, each as (slope, intercept) in t.
            center = [(_F1, _F0), (_F1, _F0)]
            if ka == kb:  # opposite sides fix r and c[ka]; t = c[1 - ka]
                r = (_F0, (a[ka] - b[ka]) * ea * _HALF)
                center[ka] = (_F0, (a[ka] + b[ka]) * _HALF)
            else:  # adjacent sides; t = r
                r = (_F1, _F0)
                center[ka] = (-ea, a[ka])
                center[kb] = (-eb, b[kb])

            def lin(p, k, e, q):
                """e (p[k] - c[k]) + q r as (alpha, beta) of alpha t + beta."""
                return q * r[0] - e * center[k][0], e * (p[k] - center[k][1]) + q * r[1]

            base = _Feasible1D()
            base.add(*r, strict=True)
            # a and b within the square along the other axis.
            for p, k in ((a, 1 - ka), (b, 1 - kb)):
                base.add(*lin(p, k, 1, 1))
                base.add(*lin(p, k, -1, 1))
            if not base.nonempty():
                continue
            snap = base.snapshot()
            for kc, ec in _SIDES:
                for kd, ed in _SIDES:
                    base.restore(snap)
                    base.add(*lin(c, kc, ec, -1))
                    base.add(*lin(d, kd, ed, -1))
                    if base.nonempty():
                        return True
    return False


def _differential_quads(n, seed):
    """Int quads (a, b, c, d) with a != b: generic ones, a slope +-1 pair,
    a collinear triple and small-int ties, in turn."""
    rng = random.Random(seed)

    def pt(k=12):
        return (rng.randint(-k, k), rng.randint(-k, k))

    m = 0
    while m < n:
        quad = [pt(), pt(), pt(), pt()]
        if m % 4 == 1:
            p, q = rng.sample(range(4), 2)
            t = rng.choice((1, -1)) * rng.randint(1, 12)
            quad[q] = (quad[p][0] + t, quad[p][1] + rng.choice((1, -1)) * t)
        elif m % 4 == 2:
            p, q, r = rng.sample(range(4), 3)
            k = rng.randint(-3, 3)
            quad[r] = tuple(quad[p][i] + k * (quad[q][i] - quad[p][i]) for i in (0, 1))
        elif m % 4 == 3:
            quad = [pt(3), pt(3), pt(3), pt(3)]
        if quad[0] != quad[1]:
            m += 1
            yield quad


def test_edge_empty_diamond_exists_matches_the_fraction_reference():
    outcomes = set()
    for m, quad in enumerate(_differential_quads(20000, seed=23)):
        got = _edge_empty_diamond_exists(*quad)
        assert got == _reference_edge_empty_diamond_exists(*(V(x, y) for x, y in quad)), quad
        outcomes.add((m % 4, got))
    # Each kind of quad meets both answers.
    assert len(outcomes) == 8, outcomes


_DEFECT = pytest.mark.xfail(
    raises=FlipCycleError,
    strict=True,
    reason="ROADMAP Known defects, planar L1-Delaunay verification: _needs_flip "
    "answers per slot, not per edge, so the post-hoc scan fails or the flips cycle",
)


@_DEFECT
@pytest.mark.parametrize(
    "pts",
    [
        [(Fraction(15, 2), Fraction(35, 4)), (4, Fraction(41, 8)),
         (Fraction(35, 8), Fraction(59, 8)), (Fraction(9, 2), 8)],
        [(46, 20), (28, 20), (25, 4)],
    ],
    ids=["four-points", "three-points"],
)
def test_planar_known_defect_set_triangulates(pts):
    dt = prepare_planar([V(x, y) for x, y in pts])["dt"]
    assert all(_locally_ok(dt.surface, slot) for slot in dt.surface.gluings)


def _seeded_planar_set(seed):
    """3 to 10 distinct points of [0, 16]^2 with one denominator from 1 to 21."""
    rng = random.Random(seed)
    den = rng.randint(1, 21)
    n = rng.randint(3, 10)
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randint(0, 16 * den), den), Fraction(rng.randint(0, 16 * den), den)))
    return [ExactVector(x, y) for x, y in sorted(pts)]


# Seeds whose sets end in FlipCycleError today: the post-hoc scan fails on
# all but seed 51, whose flips exhaust the flip budget.
_PLANAR_DEFECT_SEEDS = {7, 21, 47, 51, 52, 53, 59, 69, 132}


@pytest.mark.parametrize(
    "seed", [pytest.param(seed, marks=_DEFECT) if seed in _PLANAR_DEFECT_SEEDS else seed
             for seed in range(150)]
)
def test_seeded_planar_set_triangulates(seed):
    # A set triangulates with every edge locally Delaunay, or its final
    # triangulation has a triangle without a unique diamond.
    try:
        dt = prepare_planar(_seeded_planar_set(seed))["dt"]
    except DegenerateDiamondError:
        return
    assert all(is_locally_delaunay(dt.surface, slot) for slot in dt.surface.gluings)


def test_a_repeated_triangulation_is_not_a_cycle():
    # The flips revisit a triangulation with a different pending queue and
    # then settle.
    dt = prepare_planar(_seeded_planar_set(331))["dt"]
    assert dt.flip_count == 27
    assert all(is_locally_delaunay(dt.surface, slot) for slot in dt.surface.gluings)


def test_flips_that_never_settle_exhaust_the_budget():
    points = _seeded_planar_set(289)
    n_triangles = wrap_points_in_torus(points)[0].n_triangles()
    with pytest.raises(FlipCycleError, match="flip budget exhausted") as info:
        prepare_planar(points)
    assert info.value.code == "FLIP_CYCLE"
    assert info.value.details == {"flips": _FLIPS_BASE + _FLIPS_PER_TRIANGLE * n_triangles}
