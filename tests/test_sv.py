import math
from fractions import Fraction

import numpy as np
import pytest

from saddlekit import geodesic
from saddlekit.builders import (
    octagon_h2,
    sheared_torus,
    slit_torus,
    torus_from_basis,
    torus_from_matrix,
)
from saddlekit.errors import AmbiguousMembershipError, InputError, ResourceLimitError
from saddlekit.exactplane import ExactMatrix, ExactVector, primitive_points_in_disc
from saddlekit.geodesic import count, detect_cylinder, enumerate_connections, shortest
from saddlekit.mc import sample_stratum_local
from saddlekit.surface import TranslationSurface, Triangle, apply_surface
from saddlekit.sv import (
    AnnulusIndicator,
    DiscIndicator,
    ProductPair,
    SectorIndicator,
    TriangleIndicator,
    _holonomy_array,
    _rotational_average,
    classify,
    pair_transform,
    rotational_average_AR,
    sector_sandwich,
    test_function_from_json as parse_test_function,
    transform,
    transform_report,
)


def V(x, y):
    return ExactVector.of(x, y)


def test_transform_disc_counts(torus):
    assert transform(torus, DiscIndicator(1)) == 4
    assert transform(torus, DiscIndicator(Fraction(1, 2))) == 0  # below shortest
    assert transform(torus, DiscIndicator(2)) == 8


def test_transform_annulus(torus):
    assert transform(torus, AnnulusIndicator(1, 2)) == 4  # norms in (1, 2]


def test_transform_sector_vs_brute_filter(torus):
    f = SectorIndicator(3, 0.0, math.pi / 4)
    rep = transform_report(torus, f)
    strict_inside = 0
    boundary = 0
    for v in primitive_points_in_disc(3):
        x, y = float(v.x), float(v.y)
        ang = math.atan2(y, x)
        if abs(ang) < math.pi / 4 - 1e-9:
            strict_inside += 1
        elif abs(abs(ang) - math.pi / 4) < 1e-9:
            boundary += 1
    assert rep.value == strict_inside
    assert rep.ambiguous == boundary
    with pytest.raises(AmbiguousMembershipError):
        transform(torus, f)


def test_pair_transform_identity_and_products(torus):
    f1 = DiscIndicator(1)
    f2 = DiscIndicator(2)
    assert pair_transform(torus, f1, f1) == transform(torus, f1) ** 2 == 16
    assert pair_transform(torus, f1, f2) == 4 * 8
    empty = DiscIndicator(Fraction(1, 3))
    assert pair_transform(torus, empty, f2) == 0


def test_pair_transform_matches_literal_double_sum(torus):
    # independent oracle: literal double loop over the enumerated vectors
    f = DiscIndicator(1)
    g = DiscIndicator(2)
    vecs = enumerate_connections(torus, 2).vectors()
    literal = sum(
        f.evaluate_exact(v1)[0] * g.evaluate_exact(v2)[0]
        for v1 in vecs
        for v2 in vecs
    )
    assert pair_transform(torus, f, g) == literal


def test_product_pair_routes_through_transform(torus):
    h = ProductPair(DiscIndicator(1), DiscIndicator(2))
    assert transform_report(torus, h).value == 32


def test_product_reports_the_enumerations_vectors(torus):
    h = ProductPair(DiscIndicator(1), DiscIndicator(2))
    assert transform_report(torus, h).n_vectors == count(torus, 2) == 8


def test_product_with_an_ambiguous_factor_counts_it(torus):
    h = ProductPair(DiscIndicator(2), SectorIndicator(3, 0.0, math.pi / 4))
    rep = transform_report(torus, h)
    sector = transform_report(torus, h.g)
    assert rep.ambiguous == sector.ambiguous > 0
    assert rep.value == transform(torus, h.f) * sector.value
    with pytest.raises(AmbiguousMembershipError):
        transform(torus, h)
    with pytest.raises(AmbiguousMembershipError):
        pair_transform(torus, h.f, h.g)


@pytest.mark.parametrize(
    "f",
    [DiscIndicator(Fraction(3, 2)), AnnulusIndicator(1, Fraction(5, 2)), SectorIndicator(3, 0.0, math.pi / 4)],
    ids=["disc", "annulus", "sector"],
)
def test_membership_at_an_area_is_membership_of_the_scaled_vector(f):
    # v / sqrt(4) = v / 2, so both sides are exact.
    for x in range(-7, 8):
        for y in range(-7, 8):
            v = V(x, y)
            assert f.evaluate_exact(v, 4) == f.evaluate_exact(v.scale(Fraction(1, 2)))


def test_triangle_membership_needs_unit_area():
    f = TriangleIndicator(V(1, 0), V(0, 1))
    assert f.evaluate_exact(V(Fraction(1, 4), Fraction(1, 4)), 1) == (1, False)
    with pytest.raises(InputError):
        f.evaluate_exact(V(Fraction(1, 4), Fraction(1, 4)), 2)


def test_rotational_average_identity(torus):
    f = DiscIndicator(Fraction(3, 2))
    rep = rotational_average_AR(torus, f, 1.0)
    assert rep.value == transform(torus, f)
    assert rep.ambiguous_fraction == 0


def test_rotational_average_richardson(torus):
    # A_R's 256 angles against the same quadrature on twice as many.
    f = DiscIndicator(Fraction(3, 2))
    rep = rotational_average_AR(torus, f, 4.0)
    pts = _holonomy_array(enumerate_connections(torus, f.support_radius() * 4).vectors())
    assert rep.quadrature_n == 256
    assert abs(rep.value - _rotational_average(pts, f, 4.0, 512).value) < 0.5


def test_sector_sandwich_ordered(torus):
    for R in (5.0, 10.0):
        for theta in (math.pi / 16, math.pi / 32):
            rep = sector_sandwich(torus, R, theta)
            assert rep.ordered_within_margin(), (R, theta, rep)
            assert rep.ambiguous_fraction < 0.01


def test_sector_sandwich_width_shrinks_with_theta(torus):
    wide = sector_sandwich(torus, 5.0, math.pi / 8)
    narrow = sector_sandwich(torus, 5.0, math.pi / 32)
    assert narrow.upper - narrow.lower <= wide.upper - wide.lower + narrow.margin


def test_sector_sandwich_boundary_case(torus):
    rep = sector_sandwich(torus, 2.0, math.pi / 8)
    assert rep.ordered_within_margin()


def test_sector_sandwich_scales_the_exact_count(torus):
    for R in (2.5, 5.0):
        rep = sector_sandwich(torus, R, math.pi / 8)
        assert rep.scaled_count == rep.theta_r / math.pi * count(torus, Fraction(R))


def test_classify_h1(torus):
    assert classify(torus, Fraction(1, 2), Fraction(1, 6)).label == "H1"


def test_classify_thin_torus_omega2():
    thin = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 8), 8))
    label = classify(thin, Fraction(1, 2), Fraction(1, 6))
    assert label.label == "Omega2"
    assert label.cylinder is not None
    assert label.cylinder.width_sq == Fraction(1, 64)
    # epsilon(X, omega) = 8 exceeds |gamma|^p
    assert label.second_length_sq == 64


def test_classify_passes_the_leaf_trace_progress_through(thin_torus, monkeypatch):
    # gamma's own trace reaches the crossing cap after the label is decided:
    # Omega2 stands without the cylinder, and the detail carries the progress.
    monkeypatch.setattr(geodesic, "_MAX_CROSSINGS", 2)
    with pytest.raises(ResourceLimitError, match="leaf trace did not close") as exc:
        detect_cylinder(thin_torus, shortest(thin_torus), 96)
    assert exc.value.details["holonomy"] == ["-1/8", "0"]
    reached = exc.value.details["circumference_sq_reached"]
    assert Fraction(reached) > 0
    label = classify(thin_torus, Fraction(1, 2), Fraction(1, 2))
    assert (label.label, label.cylinder) == ("Omega2", None)
    assert f"still open after 2 crossings, at circumference sqrt({reached})" in label.detail


def test_classify_keeps_omega2_when_the_cylinder_trace_reaches_the_cap():
    # Pushed by diag(1/1024, 1024), gamma's leaf crosses more than
    # _MAX_CROSSINGS triangles before it is 96 long.
    g = ExactMatrix.diagonal(Fraction(1, 1024), 1024)
    s = apply_surface(g, sample_stratum_local(octagon_h2(), "0.05", 40, seed=7).surfaces[6])
    label = classify(s, Fraction(1, 2), Fraction(1, 2))
    assert (label.label, label.cylinder) == ("Omega2", None)
    assert "still open after 100000 crossings" in label.detail
    assert label.second_length_sq == Fraction(6598980787407593, 7036874417766400)
    assert "cylinder" not in label.to_json_dict()


def test_classify_small_slit_is_omega_branch():
    s = slit_torus(V(Fraction(6, 1000), Fraction(3, 1000)))
    label = classify(s, Fraction(1, 2), Fraction(1, 6))
    assert label.label in ("Omega1", "Omega2")
    assert label.label == "Omega2"  # rational data: the direction is periodic


def test_classify_rhombus_torus_omega2():
    # The shortest connection (-1, 3) bounds a cylinder of circumference
    # sqrt(10) and area 15, the torus's.
    s = torus_from_basis(V(5, 0), V(4, 3))
    label = classify(s, 4, Fraction(1, 2))
    assert label.label == "Omega2"
    assert (label.cylinder.width_sq, label.cylinder.height_sq) == (10, Fraction(45, 2))
    assert label.second_length_sq == 25


def test_classify_moderate_slit_h2(slit_13_15):
    # slit length ~0.39, doubled loop ~0.78 > 1/2: no short loop
    label = classify(slit_13_15, Fraction(1, 2), Fraction(1, 6))
    assert label.label == "H2"


def test_classify_omega0_requires_tiny_second():
    # second shortest below |gamma|^p: scaled torus where both directions
    # are short but one is much shorter
    s = torus_from_matrix(ExactMatrix.of(Fraction(1, 1024), 0, 0, 1024))
    label = classify(s, Fraction(1, 2), Fraction(1, 2))
    # epsilon = 1024 is far above |gamma|^(1/2); stays in the cylinder branch
    assert label.label == "Omega2"


def test_classify_omega0_at_the_power_boundary():
    # |gamma| = 1/16 and the other class has length 1/4 = |gamma|^(1/2):
    # equality is Omega0; just above it the second length is still exact
    s = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 16), Fraction(1, 4)))
    label = classify(s, Fraction(1, 2), Fraction(1, 2))
    assert label.label == "Omega0"
    assert label.second_length_sq == Fraction(1, 16)
    s = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 16), Fraction(17, 64)))
    label = classify(s, Fraction(1, 2), Fraction(1, 2))
    assert label.label == "Omega2"
    assert label.second_length_sq == Fraction(17, 64) ** 2


def test_classify_leaves_unresolved_second_length_open():
    # every edge outside +-[gamma] is longer than the cylinder trace, so
    # the second length is reported as an interval, not searched for
    s = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 1024), 1024))
    label = classify(s, Fraction(1, 2), Fraction(1, 2))
    assert label.label == "Omega2"
    assert label.second_length_sq is None
    assert "sqrt(1048576)]" in label.detail
    assert "second_length_sq" not in label.to_json_dict()


def _points_on_a_closed_leaf(n, w, h):
    """R^2 / (n w Z + h Z) with n marked points w apart on the horizontal
    leaf through 0; square i is [i w, (i + 1) w] x [0, h]."""
    u, v = V(w, 0), V(0, h)
    tris, gluings = [], {}
    for i in range(n):
        tris += [Triangle((u, v, -(u + v))), Triangle((u + v, -u, -v))]
        right_to_left = ((2 * i, 1), (2 * ((i + 1) % n) + 1, 2))
        for a, b in (((2 * i, 2), (2 * i + 1, 0)), ((2 * i, 0), (2 * i + 1, 1)), right_to_left):
            gluings[a], gluings[b] = b, a
    return TranslationSurface(tris, gluings)


@pytest.mark.parametrize("n, w, label", [
    (3, Fraction(1, 7), "Omega0"),  # core 3/7 < eps0
    (3, Fraction(1, 6), "H2"),  # core exactly eps0 = 1/2
    (5, Fraction(1, 8), "H2"),  # core 5/8
], ids=["core-3/7", "core-1/2", "core-5/8"])
def test_classify_decides_a_short_loop_by_the_cylinder_core(n, w, label):
    # Every connection below eps0 joins neighbouring marked points on one
    # horizontal leaf, so no closed connection or two-chain is short: only
    # the core of the horizontal cylinder, traced up to eps0, can be.
    s = _points_on_a_closed_leaf(n, w, 8)
    assert classify(s, Fraction(1, 2), Fraction(1, 2)).label == label


def _pushed_octagon_draws(n, g):
    """g applied to the seed-7 patch draws around the octagon."""
    return [apply_surface(g, s) for s in sample_stratum_local(octagon_h2(), "0.05", n, seed=7).surfaces]


def test_classify_pushed_draw_is_omega2_without_a_cylinder():
    # The shortest connection's cylinder is longer than 10^4, far past the
    # trace bound 64 eps0 + 64 = 96: the label needs no trace, the report
    # leaves the cylinder out and names the bound.
    s = _pushed_octagon_draws(30, ExactMatrix.diagonal(Fraction(1, 4), 4))[0]
    assert not isinstance(detect_cylinder(s, shortest(s), 10 ** 4), geodesic.Cylinder)
    label = classify(s, Fraction(1, 2), Fraction(1, 2))
    assert label.label == "Omega2"
    assert label.cylinder is None
    assert "circumference above 96" in label.detail
    assert label.second_length_sq == Fraction(175326065, 268435456)
    assert "cylinder" not in label.to_json_dict()


def test_classify_labels_every_pushed_draw():
    draws = _pushed_octagon_draws(30, ExactMatrix.diagonal(Fraction(1, 4), 4))
    assert [classify(s, Fraction(1, 2), Fraction(1, 2)).label for s in draws] == ["Omega2"] * 30


@pytest.mark.parametrize("g", [
    ExactMatrix.diagonal(Fraction(1, 4), 4),
    ExactMatrix.diagonal(Fraction(1, 16), 16),
    ExactMatrix.of(Fraction(1, 8), Fraction(3, 8), 0, 8),
], ids=["diag4", "diag16", "upper8"])
def test_classify_is_invariant_under_a_quarter_turn(g):
    # The label and both lengths; the reported cylinder may lie on the other
    # side of the shortest connection, whose sign the tie-break picks.
    r90 = ExactMatrix.of(0, -1, 1, 0)
    for s in _pushed_octagon_draws(40, g):
        for eps0 in (Fraction(1, 2), Fraction(2)):
            a = classify(s, eps0, Fraction(1, 2))
            b = classify(apply_surface(r90, s), eps0, Fraction(1, 2))
            assert (a.label, a.shortest_length_sq, a.second_length_sq) == (
                b.label, b.shortest_length_sq, b.second_length_sq
            )


def test_classify_scale_trigger_monotone(torus):
    # once a connection drops below eps0 the label leaves H1 and stays away
    labels = []
    for c in (1, 2, 4, 8, 16):
        s = torus_from_matrix(ExactMatrix.diagonal(Fraction(1, c), c))
        labels.append(classify(s, Fraction(1, 2), Fraction(1, 6)).label)
    assert labels[0] == "H1"
    first_short = next(i for i, lab in enumerate(labels) if lab != "H1")
    assert all(lab != "H1" for lab in labels[first_short:])


def test_gl2_contravariance(torus):
    m = ExactMatrix.of(2, 1, 1, 1)
    image = apply_surface(m, torus)
    r = Fraction(3)
    val = transform(image, DiscIndicator(r))
    direct = sum(
        1
        for v in primitive_points_in_disc(3 * 4)
        if m.apply(v).norm_sq() <= r * r
    )
    assert val == direct


def test_eskin_masur_tripwire(torus, slit_13_15):
    # recorded constant: transform(disc eps0) * |gamma|^{1+delta} stays small
    eps0 = Fraction(1, 2)
    bound = 2.0  # calibrated on this corpus
    for s in (torus, sheared_torus(2), slit_13_15):
        gamma_sq = float(shortest(s).length_sq())
        value = transform_report(s, DiscIndicator(eps0)).value
        assert value * gamma_sq ** ((1 + 0.1) / 2) <= bound


def test_test_function_json_round_trip():
    for f in (
        DiscIndicator(Fraction(3, 2)),
        AnnulusIndicator(1, 2),
        SectorIndicator(2, 0.3, 0.2),
        TriangleIndicator(V(Fraction(1, 3), 1), V(Fraction(-1, 3), 1)),
        ProductPair(DiscIndicator(1), DiscIndicator(2)),
    ):
        again = parse_test_function(f.to_json())
        assert again.to_json() == f.to_json()


def test_function_from_json():
    # the library parser: every variant, a nested product among them,
    # round-trips through to_json, from text and from a parsed dict
    triangle = TriangleIndicator(V(Fraction(1, 3), 1), V(Fraction(-1, 3), 1))
    variants = (
        DiscIndicator(Fraction(3, 2)),
        AnnulusIndicator(Fraction(1, 2), 2),
        SectorIndicator(Fraction(5, 2), -0.4, 0.3),
        triangle,
        ProductPair(triangle, ProductPair(DiscIndicator(1), AnnulusIndicator(1, 3))),
    )
    for f in variants:
        for data in (f.to_json(), f.to_json_dict()):
            again = parse_test_function(data)
            assert type(again) is type(f)
            assert again.to_json() == f.to_json()
    with pytest.raises(InputError):
        parse_test_function('{"variant": "hexagon", "r": "1"}')
    with pytest.raises(InputError):
        parse_test_function({"variant": "product", "f": {"variant": "disc", "r": "1"},
                             "g": {"variant": "square"}})


@pytest.mark.parametrize(
    "bad",
    ['{"variant": "disc"}', '{"variant": "sector", "r": "1", "theta": "x", "half_angle": 0.1}',
     "[1, 2]", "7", "{not json", ""],
)
def test_malformed_test_function_raises_input_error(bad):
    with pytest.raises(InputError):
        parse_test_function(bad)


def test_sector_batch_ambiguity_needs_ray_side():
    # (-1, 1) and (-1, -1) lie on the lines of the rays at +-pi/4 but point
    # away from them: neither path may call them ambiguous
    f = SectorIndicator(3, 0.0, math.pi / 4)
    pts = [(-1, 1), (-1, -1), (1, 1), (1, -1), (2, 1), (-2, 1)]
    vals, amb = f.evaluate_batch(
        np.array([float(x) for x, _ in pts]), np.array([float(y) for _, y in pts]), 1e-9
    )
    exact = [f.evaluate_exact(V(x, y)) for x, y in pts]
    assert list(amb) == [False, False, True, True, False, False]
    assert [a for _, a in exact] == list(amb)
    assert [int(v) for v, a in zip(vals, amb) if not a] == [v for v, a in exact if not a]
    assert [v for v, _ in exact] == [0, 0, 0, 0, 1, 0]


def test_classify_rejects_bad_parameters(torus):
    with pytest.raises(InputError):
        classify(torus, 0, Fraction(1, 6))
    with pytest.raises(InputError):
        classify(torus, Fraction(1, 2), Fraction(3, 2))
