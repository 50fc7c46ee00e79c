import hashlib
import json
import random
from fractions import Fraction

import pytest

from saddlekit.builders import (
    centered_octagon_h2,
    marked_torus,
    octagon_h2,
    regular_octagon_approx,
    sheared_torus,
    slit_torus,
    torus_from_matrix,
    wrap_points_in_torus,
)
from saddlekit.errors import (
    AreaError,
    DisconnectedError,
    EdgeSumError,
    GluingInvolutionError,
    GluingOppositeError,
    InputError,
    SingularMatrixError,
)
from saddlekit.exactplane import ExactMatrix, ExactVector
from saddlekit.surface import TranslationSurface, Triangle, apply_surface, area


def V(x, y):
    return ExactVector.of(x, y)


def surfaces_equal(a: TranslationSurface, b: TranslationSurface) -> bool:
    """Structural equality: same triangles, same gluing pairing."""
    if len(a.triangles) != len(b.triangles):
        return False
    if any(ta.edges != tb.edges for ta, tb in zip(a.triangles, b.triangles)):
        return False
    return a.gluings == b.gluings


def test_square_torus_signature(torus):
    sig = torus.validate()
    assert sig.zero_orders == (0,)
    assert sig.genus == 1
    assert sig.dim_relative_homology == 2


def test_centered_octagon_keeps_its_marked_point():
    # The center is a zero of order 0 and belongs to Sigma, as in H(2, 0).
    s = centered_octagon_h2()
    sig = s.validate()
    assert sig.zero_orders == (2, 0)
    assert sig.genus == 2
    assert sig.dim_relative_homology == 5


def test_slit_torus_signature():
    s = slit_torus(V(Fraction(1, 3), Fraction(1, 5)))
    sig = s.validate()
    assert sig.zero_orders == (1, 1)
    assert sig.genus == 2
    assert sig.dim_relative_homology == 5


def test_marked_torus_signature():
    s = marked_torus(V(Fraction(1, 3), Fraction(1, 5)))
    sig = s.validate()
    assert sig.zero_orders == (0, 0)
    assert sig.dim_relative_homology == 3


def _torus_cells():
    t0 = Triangle((V(1, 0), V(0, 1), V(-1, -1)))
    t1 = Triangle((V(1, 1), V(-1, 0), V(0, -1)))
    gl = {}
    for a, b in [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))]:
        gl[a] = b
        gl[b] = a
    return [t0, t1], gl


def test_edge_sum_error():
    tris, gl = _torus_cells()
    tris[0] = Triangle((V(1, 0), V(0, 1), V(-1, 0)))
    with pytest.raises(EdgeSumError):
        TranslationSurface(tris, gl).validate()


def test_area_error():
    tris, gl = _torus_cells()
    # clockwise triangle: edges sum to zero but signed area is negative
    tris[0] = Triangle((V(0, 1), V(1, 0), V(-1, -1)))
    with pytest.raises(AreaError):
        TranslationSurface(tris, gl).validate()


def test_gluing_involution_error():
    tris, gl = _torus_cells()
    gl[(0, 0)] = (0, 0)
    with pytest.raises(GluingInvolutionError):
        TranslationSurface(tris, gl).validate()
    tris, gl = _torus_cells()
    del gl[(1, 2)]
    gl[(0, 1)] = (1, 1)
    with pytest.raises(GluingInvolutionError):
        TranslationSurface(tris, gl).validate()


def test_gluing_opposite_error():
    tris, gl = _torus_cells()
    # swap two partners so vectors no longer cancel
    gl[(0, 0)], gl[(0, 1)] = gl[(0, 1)], gl[(0, 0)]
    gl[(1, 2)] = (0, 0)
    gl[(1, 1)] = (0, 1)
    with pytest.raises(GluingOppositeError):
        TranslationSurface(tris, gl).validate()


def test_disconnected_error(two_tori):
    with pytest.raises(DisconnectedError) as exc:
        two_tori.validate()
    assert exc.value.code == "DISCONNECTED"
    assert "2 of 4 triangles" in str(exc.value)


def test_area_examples(torus):
    assert area(torus) == 1
    oct_approx = regular_octagon_approx()
    a = area(oct_approx)
    # exact rational shoelace of the approximating polygon, near 2(1+sqrt 2)
    assert a.denominator >= 1
    assert abs(float(a) - 4.828) < 0.01
    scaled = apply_surface(ExactMatrix.diagonal(2, Fraction(1, 2)), torus)
    assert area(scaled) == 1


def test_area_scales_by_determinant(torus, octagon):
    m = ExactMatrix.of(2, 1, 1, 1)  # det 1
    assert area(apply_surface(m, octagon)) == area(octagon)
    m2 = ExactMatrix.of(3, 0, 0, 2)  # det 6
    assert area(apply_surface(m2, torus)) == 6 * area(torus)


def test_apply_surface_identity(torus):
    assert surfaces_equal(apply_surface(ExactMatrix.identity(), torus), torus)


def test_apply_surface_preserves_signature(octagon):
    m = ExactMatrix.of(2, 3, 1, 2)  # det 1
    sig = apply_surface(m, octagon).validate()
    assert sig == octagon.validate()


def test_apply_surface_rejects_singular(torus):
    with pytest.raises(SingularMatrixError):
        apply_surface(ExactMatrix.of(1, 2, 2, 4), torus)


def test_diag_action_on_lattice(torus):
    scaled = apply_surface(ExactMatrix.diagonal(2, Fraction(1, 2)), torus)
    vecs = {scaled.edge_vector(s) for s in scaled.slots()}
    assert V(2, 0) in vecs and V(0, Fraction(1, 2)) in vecs


def test_json_round_trip_byte_identical(torus, octagon, slit_13_15):
    for s in (torus, octagon, slit_13_15):
        text = s.to_json()
        again = TranslationSurface.from_json(text)
        again.validate()
        assert again.to_json() == text


def test_json_format_shape(torus):
    data = json.loads(torus.to_json())
    assert set(data) == {"triangles", "gluings"}
    assert data["triangles"][0]["edges"][0] == ["1", "0"]


def test_json_accepts_n_over_1():
    data = {
        "triangles": [
            {"edges": [["1/1", "0"], ["0", "1"], ["-1", "-1"]]},
            {"edges": [["1", "1"], ["-1", "0"], ["0", "-1"]]},
        ],
        "gluings": [[[0, 0], [1, 1]], [[0, 1], [1, 2]], [[0, 2], [1, 0]]],
    }
    s = TranslationSurface.from_json_dict(data)
    s.validate()
    assert json.loads(s.to_json())["triangles"][0]["edges"][0] == ["1", "0"]


def test_gauss_bonnet_on_corpus(torus, octagon, slit_13_15):
    for s in (torus, octagon, slit_13_15):
        sig = s.validate()
        orders = s.vertex_orders()
        assert sum(orders.values()) == 2 * sig.genus - 2


def test_wrapped_points_are_marked(torus):
    pts = [V(0, 0), V(1, 0), V(Fraction(1, 2), Fraction(3, 4))]
    s, ids, _ = wrap_points_in_torus(pts)
    assert len(set(ids)) == 3
    sig = s.validate()
    assert sig.genus == 1
    assert all(k == 0 for k in s.vertex_orders().values())


def test_duplicate_points_are_refused():
    with pytest.raises(InputError, match="^duplicate points$"):
        wrap_points_in_torus([V(1, 2), V(0, 0), V(Fraction(2, 2), 2)])


def _grid_points(seed, n, steps):
    """n distinct points of the grid [0, 4]^2 of step 1/steps, in drawn
    order; on a coarse grid many fall on an edge of the cells before them."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        p = V(Fraction(rng.randint(0, 4 * steps), steps), Fraction(rng.randint(0, 4 * steps), steps))
        if p not in pts:
            pts.append(p)
    return pts


def _builder_outputs():
    """(surface, vertex ids, origin) of each builder on fixed inputs; ids and
    origin are None but for wrapped point sets."""
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    surfaces = [
        octagon_h2(),
        regular_octagon_approx(),
        centered_octagon_h2(),
        octagon_h2([V(2, 0), V(1, 1), V(0, Fraction(1, 2)), V(-1, 3)]),
        octagon_h2([V(Fraction(3, 2), -third), V(1, Fraction(1, 2)), V(fifth, 1), V(Fraction(-2, 7), third)]),
        marked_torus(V(third, fifth)),
        marked_torus(V(fifth, Fraction(2, 7))),
        slit_torus(V(third, fifth)),
        slit_torus(V(fifth, Fraction(2, 7))),
        torus_from_matrix(ExactMatrix.of(2, 1, 1, 1)),
        torus_from_matrix(ExactMatrix.of(third, Fraction(-2, 5), Fraction(3, 7), 2)),
        sheared_torus(Fraction(3, 4)),
        sheared_torus(-2),
    ]
    outputs = [(s, None, None) for s in surfaces]
    sets = [[V(third, fifth)]] + [_grid_points(seed, 12, steps) for seed, steps in ((0, 1), (1, 1), (2, 2), (3, 3))]
    return outputs + [wrap_points_in_torus(pts) for pts in sets]


# sha256 of every builder output on fixed inputs: the surface JSON, the
# gluings, the corner -> vertex map and, for wrapped points, their vertex ids
# and the origin.
_BUILDER_DIGEST = "ed630ea7528180b536e6770c14f8962aeec932c707c543561bbb6a334afb22c1"


def test_builder_outputs_are_pinned():
    digest = hashlib.sha256()
    for s, ids, origin in _builder_outputs():
        corners = [s.corner_vertex((t, c)) for t in range(s.n_triangles()) for c in range(3)]
        for part in (s.to_json(), sorted(s.gluings.items()), corners, ids, origin):
            digest.update(repr(part).encode())
    assert digest.hexdigest() == _BUILDER_DIGEST
