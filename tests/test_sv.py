import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import stratum_draws

from saddlekit import geodesic, mc
from saddlekit.builders import (
    centered_octagon_h2,
    marked_torus,
    octagon_h2,
    regular_octagon_approx,
    sheared_torus,
    slit_torus,
    torus_from_basis,
    torus_from_matrix,
)
from saddlekit.errors import InputError, ResourceLimitError
from saddlekit.exactplane import ExactMatrix, ExactVector, _ints, _scale_of, primitive_points_in_disc
from saddlekit.geodesic import count, detect_cylinder, enumerate_connections, shortest
from saddlekit.homology import EdgeHomology
from saddlekit.mc import sample_stratum_local
from saddlekit.surface import TranslationSurface, Triangle, apply_surface, area
from saddlekit.sv import (
    AnnulusIndicator,
    DiscIndicator,
    ProductPair,
    SectorIndicator,
    TriangleIndicator,
    _holonomy_array,
    _rotational_average,
    _rules,
    _tally,
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


def _key(v, scale):
    """The int key (|v|^2 D^2, x, y) of v at scale D, as the search makes it."""
    x, y = _ints(v, scale)
    return (x * x + y * y, x, y)


def _int_pair(v):
    """v times the lcm of its denominators: an int pair on v's ray."""
    return _ints(v, _scale_of((v,)))


def _reference_angular_inside(f, v):
    """SectorIndicator.angular_inside on the Fractions themselves, the open
    cone between the rays: the reference the int rule must match."""
    return 1 if f.ray_lo.cross(v) > 0 and v.cross(f.ray_hi) > 0 else 0


def _on_a_ray(f, v):
    """Whether the ExactVector v lies on a ray of the sector f."""
    return any(ray.cross(v) == 0 and ray.dot(v) > 0 for ray in (f.ray_lo, f.ray_hi))


def _reference_evaluate_exact(f, v, area=1):
    """The Fraction membership rule that the int rules replaced: the value
    of f at v / sqrt(area), for an ExactVector v."""
    if isinstance(f, DiscIndicator):
        return 1 if v.norm_sq() <= f.r * f.r * area else 0
    if isinstance(f, AnnulusIndicator):
        n = v.norm_sq()
        return 1 if f.r1 * f.r1 * area < n <= f.r2 * f.r2 * area else 0
    if isinstance(f, SectorIndicator):
        return _reference_angular_inside(f, v) if v.norm_sq() <= f.r * f.r * area else 0
    if area != 1:
        raise InputError("a triangle indicator is not scale-free: it needs a surface of area 1")
    c1 = f.p.cross(v)
    c2 = (f.q - f.p).cross(v - f.p)
    c3 = (-f.q).cross(v - f.q)
    return 1 if (c1 >= 0 and c2 >= 0 and c3 >= 0) else 0


def _reference_tally(vectors, f, area):
    """The Fraction tally that the int one replaced: the sum of f over
    ExactVectors; a product multiplies its factors' sums."""
    if isinstance(f, ProductPair):
        return _reference_tally(vectors, f.f, area) * _reference_tally(vectors, f.g, area)
    return sum(_reference_evaluate_exact(f, v, area) for v in vectors)


def test_transform_disc_counts(torus):
    assert transform(torus, DiscIndicator(1)) == 4
    assert transform(torus, DiscIndicator(Fraction(1, 2))) == 0  # below shortest
    assert transform(torus, DiscIndicator(2)) == 8


def test_transform_annulus(torus):
    assert transform(torus, AnnulusIndicator(1, 2)) == 4  # norms in (1, 2]


def test_transform_sector_vs_brute_filter(torus):
    # The rays at +-pi/4 round to the lines through (1, +-1); the vectors on
    # them are outside the open cone.
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
    assert boundary == sum(_on_a_ray(f, v) for v in primitive_points_in_disc(3)) == 2
    assert rep.value == strict_inside == transform(torus, f) == 3
    assert rep.ambiguous == 0


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
        _reference_evaluate_exact(f, v1) * _reference_evaluate_exact(g, v2)
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
    # The sector factor has (1, 1) and (1, -1) on its rays, outside it: the
    # product, the pair transform and the report all decide them alike.
    h = ProductPair(DiscIndicator(2), SectorIndicator(3, 0.0, math.pi / 4))
    rep = transform_report(torus, h)
    sector = transform_report(torus, h.g)
    assert rep.ambiguous == sector.ambiguous == 0
    assert rep.value == transform(torus, h.f) * sector.value == 8 * 3
    assert transform(torus, h) == pair_transform(torus, h.f, h.g) == rep.value


@pytest.mark.parametrize(
    "f",
    [DiscIndicator(Fraction(3, 2)), AnnulusIndicator(1, Fraction(5, 2)), SectorIndicator(3, 0.0, math.pi / 4)],
    ids=["disc", "annulus", "sector"],
)
def test_membership_at_an_area_is_membership_of_the_scaled_vector(f):
    # v / sqrt(4) = v / 2, so both sides are exact: the key (n, x, y) is v
    # at scale 1 and v / 2 at scale 2.
    at_area, halved = f.exact_rule(1, 4), f.exact_rule(2, 1)
    for x in range(-7, 8):
        for y in range(-7, 8):
            v = V(x, y)
            key = (x * x + y * y, x, y)
            assert at_area(*key) == halved(*key) == _reference_evaluate_exact(f, v.scale(Fraction(1, 2)))


def test_triangle_membership_needs_unit_area():
    f = TriangleIndicator(V(1, 0), V(0, 1))
    # (1/4, 1/4) at scale 4 is the key (2, 1, 1).
    assert f.exact_rule(4, 1)(2, 1, 1) == 1
    with pytest.raises(InputError):
        f.exact_rule(4, 2)


def test_rotational_average_identity(torus):
    f = DiscIndicator(Fraction(3, 2))
    rep = rotational_average_AR(torus, f, 1.0)
    assert rep.value == transform(torus, f)
    assert rep.ambiguous_fraction == 0


def test_rotational_average_of_a_product_is_an_input_error(octagon):
    # A product sums over pairs of vectors; A_R averages over single ones.
    f = ProductPair(DiscIndicator(1), DiscIndicator(1))
    with pytest.raises(InputError, match="product"):
        rotational_average_AR(octagon, f, 2.0)


def test_rotational_average_richardson(torus):
    # A_R's 256 angles against the same quadrature on twice as many.
    f = DiscIndicator(Fraction(3, 2))
    rep = rotational_average_AR(torus, f, 4.0)
    pts = _holonomy_array(geodesic._holonomy_keys(torus, (f.support_radius() * 4) ** 2), 1)
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


@pytest.mark.parametrize("field", ["theta", "half_angle"])
@pytest.mark.parametrize("value", [True, "0.3", math.inf, -math.inf, math.nan, None, 10**400])
def test_sector_angles_must_be_finite_numbers(field, value):
    angles = {"theta": 0.3, "half_angle": 0.5, field: value}
    with pytest.raises(InputError, match=f"sector {field} must be a finite number"):
        SectorIndicator(Fraction(3), angles["theta"], angles["half_angle"])


def test_sector_angles_may_be_any_real_number():
    f = SectorIndicator(Fraction(3), 0, Fraction(1, 2))
    assert (f.theta, f.half_angle) == (0.0, 0.5)
    assert f.to_json_dict() == {"variant": "sector", "r": "3", "theta": 0.0, "half_angle": 0.5}


def test_sector_batch_ambiguity_needs_ray_side():
    # (-1, 1) and (-1, -1) lie on the lines of the rays at +-pi/4 but point
    # away from them: the rotational average's float batch may not call them
    # ambiguous.  (1, 1) and (1, -1) lie on the rays: the batch calls them
    # ambiguous, and both paths put them outside the open cone.
    f = SectorIndicator(3, 0.0, math.pi / 4)
    pts = [(-1, 1), (-1, -1), (1, 1), (1, -1), (2, 1), (-2, 1)]
    vals, amb = f.evaluate_batch(
        np.array([float(x) for x, _ in pts]), np.array([float(y) for _, y in pts]), 1e-9
    )
    rule = f.exact_rule(1)
    exact = [rule(x * x + y * y, x, y) for x, y in pts]
    assert list(amb) == [False, False, True, True, False, False]
    assert [int(v) for v in vals] == exact == [0, 0, 0, 0, 1, 0]


def _seeded_sectors(n, seed):
    rng = random.Random(seed)
    return [SectorIndicator(2, rng.uniform(-4, 4), rng.uniform(1e-3, math.pi / 2 - 1e-3)) for _ in range(n)]


def test_sector_membership_on_ints_matches_the_fraction_rule(octagon):
    # The octagon's holonomies up to R = 12 under the benchmark's sector
    # (theta 0, half-angle pi/4) and 50 seeded ones, each read as the int
    # pair of its search key.
    scale, _ = octagon.int_corners()
    keys = geodesic._holonomy_keys(octagon, 144)
    sectors = [SectorIndicator(8, 0.0, math.pi / 4)] + _seeded_sectors(50, 17)
    seen = set()
    on_rays = 0
    for f in sectors:
        for _, x, y in keys:
            v = V(Fraction(x, scale), Fraction(y, scale))
            got = f.angular_inside(x, y)
            assert got == _reference_angular_inside(f, v), (f, x, y)
            seen.add(got)
            on_rays += _on_a_ray(f, v)
    assert seen == {0, 1}
    # The first sector's rays pass through holonomies: the closure is tested.
    assert on_rays > 0


def test_sector_membership_on_the_rays_of_a_quarter_turn():
    f = SectorIndicator(3, 0.0, math.pi / 4)
    for v in (V(1, 1), V(1, -1), V(Fraction(1, 3), Fraction(1, 3)), V(5, -5)):
        assert _on_a_ray(f, v)
        assert f.angular_inside(*_int_pair(v)) == _reference_angular_inside(f, v) == 0
    assert f.angular_inside(1, 0) == 1
    assert f.angular_inside(-1, 1) == f.angular_inside(0, 1) == 0


def test_sector_membership_with_large_coprime_denominators():
    # Denominators with no common factor, far past the rays' 2^32: the int
    # rule scales v by their product.
    rng = random.Random(5)
    primes = (2**61 - 1, 10**12 + 39, 2**31 - 1, 999_999_937)
    for f in [SectorIndicator(2, 0.3, 0.4)] + _seeded_sectors(10, 23):
        for _ in range(40):
            p, q = rng.sample(primes, 2)
            v = V(Fraction(rng.randrange(-p, p), p), Fraction(rng.randrange(-q, q), q))
            assert f.angular_inside(*_int_pair(v)) == _reference_angular_inside(f, v), (f, v)


# Offsets t of the vectors ray + t perp(ray) near each ray: on it (t = 0),
# and on either side at about the angular margin m = 2^-20 that sectors
# once had, m (1 + m^2/2) and m (1 + m^2/2 + m^4), and far inside it, m^4.
_M = Fraction(1, 1 << 20)
_NEAR_RAY = [0] + [sign * t for t in (_M * (1 + _M**2 / 2), _M * (1 + _M**2 / 2 + _M**4), _M**4)
                   for sign in (1, -1)]


def test_sector_membership_at_the_margin_of_each_ray():
    # v = ray + t perp(ray) is inside the open cone on the inner side of a
    # ray, however close to it, and outside on the ray and past it.
    for f in [SectorIndicator(2, 0.0, math.pi / 4)] + _seeded_sectors(20, 29):
        for ray, inner in ((f.ray_lo, 1), (f.ray_hi, -1)):
            for t in _NEAR_RAY:
                v = ray + ray.perp().scale(t)
                expected = 1 if t * inner > 0 else 0
                assert f.angular_inside(*_int_pair(v)) == _reference_angular_inside(f, v) == expected, (f, ray, t)


def test_classify_rejects_bad_parameters(torus):
    with pytest.raises(InputError):
        classify(torus, 0, Fraction(1, 6))
    with pytest.raises(InputError):
        classify(torus, Fraction(1, 2), Fraction(3, 2))


def test_vector_only_callers_build_no_connection_and_no_class(monkeypatch):
    # count and the transforms read only holonomy vectors: on a fresh
    # surface they materialize no connection and reduce no homology class.
    def refuse(*args, **kwargs):
        raise AssertionError("a vector-only caller built a connection or a homology")

    monkeypatch.setattr(geodesic.SaddleConnection, "__init__", refuse)
    monkeypatch.setattr(EdgeHomology, "__init__", refuse)
    disc = DiscIndicator(Fraction(2))
    for build in (octagon_h2, lambda: slit_torus(V(Fraction(1, 3), Fraction(1, 5)))):
        assert count(build(), 3) > 0
        assert transform_report(build(), disc).n_vectors > 0
        assert rotational_average_AR(build(), disc, 2.0).value > 0
        assert sector_sandwich(build(), 2.0, math.pi / 8).scaled_count > 0


def _leaves(f):
    """The factors of f in order: f itself, or those of a (nested) product."""
    return _leaves(f.f) + _leaves(f.g) if isinstance(f, ProductPair) else [f]


def _reference_array(vectors):
    """The float array of A_R and the sandwich as it was built from
    ExactVectors."""
    return np.array([[float(v.x), float(v.y)] for v in vectors], dtype=np.float64).reshape(-1, 2)


_TRIANGLE = TriangleIndicator(V(Fraction(4, 3), Fraction(-1, 5)), V(Fraction(-2, 7), Fraction(5, 4)))
_SCALED = [
    DiscIndicator(Fraction(6, 5)),
    AnnulusIndicator(0, Fraction(6, 5)),
    AnnulusIndicator(Fraction(1, 2), Fraction(3, 2)),
    SectorIndicator(Fraction(3, 2), 0.0, math.pi / 4),
    SectorIndicator(Fraction(6, 5), 0.3, 0.6),
    ProductPair(DiscIndicator(1), ProductPair(AnnulusIndicator(Fraction(1, 3), Fraction(6, 5)),
                                             SectorIndicator(Fraction(3, 2), 0.0, math.pi / 4))),
]
# On the square torus, (1, 0), (0, 1), (1, 1), (2, 0) and (0, 2) lie on the
# sides of the second triangle.
_UNIT_AREA = _SCALED + [_TRIANGLE, TriangleIndicator(V(2, 0), V(0, 2)),
                        ProductPair(ProductPair(_TRIANGLE, DiscIndicator(1)), _SCALED[3])]


def _check_the_int_tally(s, fns, a):
    """Per key, per factor and per report, the int rules and tally on s at
    area a against the Fraction reference on the enumeration's vectors; the
    float array against the one built from those vectors."""
    scale, _ = s.int_corners()
    radius_sq = max(f.support_radius() for f in fns) ** 2 * a
    keys = geodesic._holonomy_keys(s, radius_sq)
    vectors = enumerate_connections(s, radius_sq=radius_sq).vectors()
    assert [V(Fraction(x, scale), Fraction(y, scale)) for _, x, y in keys] == list(vectors)
    assert _holonomy_array(keys, scale).tobytes() == _reference_array(vectors).tobytes()
    on_rays = 0
    for f in fns:
        for g in _leaves(f):
            rule = g.exact_rule(scale, a)
            assert [rule(*key) for key in keys] == [_reference_evaluate_exact(g, v, a) for v in vectors], g
            if isinstance(g, SectorIndicator):
                on_rays += sum(_on_a_ray(g, v) for v in vectors if v.norm_sq() <= g.r ** 2 * a)
        inside = [v for v in vectors if v.norm_sq() <= f.support_radius() ** 2 * a]
        want = _reference_tally(inside, f, a)
        assert _tally(keys, _rules(f, scale, a)) == _reference_tally(vectors, f, a)
        rep = transform_report(s, f, a)
        assert (rep.value, rep.ambiguous, rep.n_vectors) == (float(want), 0, len(inside)), f
    return on_rays


def test_the_int_tally_matches_the_fraction_reference_on_the_stratum_draws():
    # The 60 draws at their own areas, where no triangle may go.
    draws = stratum_draws()
    assert len(draws) == 60
    for s in draws:
        _check_the_int_tally(s, _SCALED, area(s))


def test_the_int_tally_matches_the_fraction_reference_on_the_corpus_at_area_1(torus, thin_torus, slit_13_15):
    corpus = [torus, thin_torus, slit_13_15, octagon_h2(), centered_octagon_h2(), regular_octagon_approx(),
              marked_torus(V(Fraction(1, 2), Fraction(1, 3))), sheared_torus(Fraction(2, 7))]
    # The square torus puts (1, 1) and (1, -1) on the rays at +-pi/4.
    assert sum(_check_the_int_tally(s, _UNIT_AREA, 1) for s in corpus) > 0


def test_the_int_rules_match_the_fraction_rules_at_the_margin_of_each_ray():
    # The vectors of test_sector_membership_at_the_margin_of_each_ray, at
    # one scale: ray + t perp(ray) for the offsets _NEAR_RAY, three of each
    # ray's seven on its inner side.  The rays have length about 1, so at
    # area 1/4 the sector's radius 2 passes through them.
    for f in [SectorIndicator(2, 0.0, math.pi / 4)] + _seeded_sectors(20, 29):
        vectors = [ray + ray.perp().scale(t) for ray in (f.ray_lo, f.ray_hi) for t in _NEAR_RAY]
        scale = _scale_of(vectors)
        keys = [_key(v, scale) for v in vectors]
        for a in (1, Fraction(1, 4)):
            rule = f.exact_rule(scale, a)
            assert [rule(*key) for key in keys] == [_reference_evaluate_exact(f, v, a) for v in vectors]
            for g in (f, ProductPair(AnnulusIndicator(Fraction(1, 2), 2), f)):
                assert _tally(keys, _rules(g, scale, a)) == _reference_tally(vectors, g, a)
        assert _reference_tally(vectors, f, 1) == 6


def test_the_float_arrays_of_AR_and_the_sandwich_are_those_of_the_vectors(torus, octagon):
    # A_R and the sector sandwich read the keys' floats, x / D: the
    # quadrature on the array built from the enumeration's vectors gives
    # the same report.
    f = DiscIndicator(Fraction(6, 5))
    for s in (torus, octagon, stratum_draws()[0], stratum_draws()[25]):
        for R in (1.0, 2.5):
            want = _reference_array(enumerate_connections(s, f.support_radius() * Fraction(R)).vectors())
            assert rotational_average_AR(s, f, R) == _rotational_average(want, f, R, 256)


def test_the_transforms_build_no_exact_vector_per_holonomy_vector(monkeypatch):
    # Each path runs at two sizes with different numbers of holonomy
    # vectors and must build the same number of ExactVectors.
    s = octagon_h2()
    sample = mc.sample_stratum_local(s, "1/20", 10, seed=7)
    runs = {
        # The benchmark's sector (transform-octagon-sector), and a smaller one.
        "transform": lambda r: transform_report(s, SectorIndicator(r, 0.0, math.pi / 4)).n_vectors,
        "AR": lambda r: rotational_average_AR(s, DiscIndicator(1), float(r)).value,
        "sandwich": lambda r: sector_sandwich(s, float(r), math.pi / 8).scaled_count,
        "stratum": lambda r: mc._values(sample, DiscIndicator(Fraction(r, 4))).sum(),
    }
    built = []
    init = ExactVector.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    assert runs["transform"](8) == 112
    monkeypatch.setattr(ExactVector, "__init__", counted)
    for name, run in runs.items():
        sizes = []
        for r in (2, 8):
            del built[:]
            run(r)
            sizes.append(len(built))
        assert sizes[0] == sizes[1], (name, sizes)


def test_a_triangle_refuses_an_area_other_than_1_before_any_search(monkeypatch, octagon):
    # A triangle too small to hold any holonomy vector of the octagon
    # (area 7) is refused all the same: the area decides, not the data.
    def refuse(*args):
        raise AssertionError("searched")

    tiny = TriangleIndicator(V(Fraction(1, 100), 0), V(0, Fraction(1, 100)))
    assert transform_report(octagon, tiny).n_vectors == 0
    sample = mc.sample_stratum_local(octagon, "1/20", 3, seed=1)
    monkeypatch.setattr(geodesic, "_search", refuse)
    for f in (tiny, ProductPair(DiscIndicator(1), ProductPair(tiny, DiscIndicator(2)))):
        with pytest.raises(InputError, match="area 1"):
            transform_report(octagon, f, area(octagon))
    with pytest.raises(InputError, match="area 1"):
        mc._values(sample, tiny)
