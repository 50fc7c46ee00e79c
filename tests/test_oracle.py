import math
import random
from fractions import Fraction
from typing import Tuple

import pytest
from conftest import increasing_by_length, sl2q

from saddlekit.builders import slit_torus, torus_from_matrix
from saddlekit.errors import InputError
from saddlekit.exactplane import ExactMatrix, ExactVector, primitive_points_in_disc
from saddlekit.geodesic import enumerate_connections
from saddlekit.surface import apply_surface
from saddlekit.oracle import (
    SlitTorusPoint,
    _passes_through,
    TorusPoint,
    siegel_constant_torus,
    slit_torus_holonomy,
    torus_holonomy,
)

_ZETA2_TERMS = 200_000  # terms of zeta2_partial


def zeta2_partial() -> Tuple[float, float]:
    """Partial sum of sum 1/n^2 over _ZETA2_TERMS terms with an integral
    tail bound; independent of the closed form."""
    s = 0.0
    for n in range(_ZETA2_TERMS, 0, -1):
        s += 1.0 / (n * n)
    # Tail is between 1/(terms+1) and 1/terms.
    return (s + 1.0 / (_ZETA2_TERMS + 1), s + 1.0 / _ZETA2_TERMS)


def V(x, y):
    return ExactVector.of(x, y)


def test_torus_holonomy_identity_radius_1():
    t = TorusPoint(ExactMatrix.identity())
    got = torus_holonomy(t, 1)
    assert set(got) == {V(1, 0), V(-1, 0), V(0, 1), V(0, -1)}
    assert increasing_by_length(got)


def test_torus_holonomy_shear_image():
    m = ExactMatrix.shear(1)
    t = TorusPoint(m)
    got = torus_holonomy(t, 1)
    expected = {
        m.apply(v) for v in primitive_points_in_disc(3) if m.apply(v).norm_sq() <= 1
    }
    assert set(got) == expected
    assert increasing_by_length(got)


def brute_force_holonomy(m, radius):
    """{m w : w primitive, |m w| <= radius} by a Fraction loop over a box
    that the inverse matrix's Frobenius norm bounds."""
    r = Fraction(radius)
    inv = m.inverse()
    box = math.ceil(float(r) * math.sqrt(sum(float(e) ** 2 for e in inv.entries()))) + 1
    out = set()
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            if math.gcd(p, q) != 1:
                continue
            x = m.a * p + m.b * q
            y = m.c * p + m.d * q
            if x * x + y * y <= r * r:
                out.add(V(x, y))
    return out


@pytest.mark.parametrize(
    "m",
    [
        ExactMatrix.identity(),
        ExactMatrix.shear(Fraction(1, 2)),
        ExactMatrix.of(2, Fraction(1, 3), 0, Fraction(1, 2)),
        ExactMatrix.of(2, 1, 1, 1),
        ExactMatrix.of(Fraction(1, 3), 0, Fraction(1, 5), 3),
    ],
    ids=["identity", "shear 1/2", "rational", "cat map", "lower"],
)
def test_torus_holonomy_matches_brute_force(m):
    for r in (1, Fraction(5, 2), 6):
        got = torus_holonomy(TorusPoint(m), r)
        assert set(got) == brute_force_holonomy(m, r)
        assert increasing_by_length(got)
    pts = primitive_points_in_disc(6, m)
    assert pts == sorted(pts, key=lambda v: (v.norm_sq(), v.x, v.y))
    assert len(set(pts)) == len(pts)


def test_torus_holonomy_agrees_with_enumeration():
    # A fixed shear, then 50 random SL(2, Q) tori.
    rng = random.Random(24)
    for m in [ExactMatrix.shear(Fraction(1, 2))] + [sl2q(rng) for _ in range(50)]:
        surf = torus_from_matrix(m)
        for r in (2, 3, 5):
            assert enumerate_connections(surf, r).vectors() == torus_holonomy(TorusPoint(m), r), (m, r)


def test_torus_point_validates_determinant():
    with pytest.raises(InputError):
        TorusPoint(ExactMatrix.of(2, 0, 0, 1))


def test_torus_point_refuses_a_matrix_that_is_not_exact():
    with pytest.raises(InputError, match="ExactMatrix"):
        TorusPoint((1.0, 0.0, 0.0, 1.0))
    with pytest.raises(InputError, match="ExactMatrix"):
        SlitTorusPoint((1.0, 0.0, 0.0, 1.0), V(Fraction(1, 3), Fraction(1, 5)))


def test_slit_holonomy_direct_formula():
    v = V(Fraction(1, 3), Fraction(1, 5))
    t = SlitTorusPoint(ExactMatrix.identity(), v)
    res = slit_torus_holonomy(t, 1)
    assert v in res.vectors
    assert V(Fraction(1, 3) - 1, Fraction(1, 5)) in res.vectors
    assert -v in res.vectors
    for w in primitive_points_in_disc(1):
        assert w in res.vectors


def test_slit_holonomy_cross_check_with_surface():
    v = V(Fraction(1, 3), Fraction(1, 5))
    res = slit_torus_holonomy(SlitTorusPoint(ExactMatrix.identity(), v), 2)
    surf = slit_torus(v)
    assert enumerate_connections(surf, 2).vectors() == res.vectors


@pytest.mark.parametrize("v", [V(Fraction(2, 3), Fraction(1, 3)), V(Fraction(1, 4), Fraction(1, 2))])
@pytest.mark.parametrize("g", [ExactMatrix.identity(), ExactMatrix.of(2, Fraction(1, 3), 0, Fraction(1, 2))])
def test_slit_holonomy_with_blocked_segments_matches_surface(v, g):
    # Slits whose translates block some segments: the blocking test runs on
    # the rational shifts w +- v as well as on lattice vectors.
    res = slit_torus_holonomy(SlitTorusPoint(g, g.apply(v)), 3)
    assert res.corrections
    assert enumerate_connections(apply_surface(g, slit_torus(v)), 3).vectors() == res.vectors


def _random_slit(rng):
    """A slit vector inside the unit square, off its diagonal, with
    denominators 2 to 12."""
    while True:
        dx, dy = rng.randint(2, 12), rng.randint(2, 12)
        v = V(Fraction(rng.randint(1, dx - 1), dx), Fraction(rng.randint(1, dy - 1), dy))
        if v.x != v.y:
            return v


def test_slit_oracle_agrees_with_enumeration_on_random_slits():
    rng = random.Random(24)
    for _ in range(50):
        v, g = _random_slit(rng), sl2q(rng)
        surf = apply_surface(g, slit_torus(v))
        for r in (2, 3):
            res = slit_torus_holonomy(SlitTorusPoint(g, g.apply(v)), r)
            assert enumerate_connections(surf, r).vectors() == res.vectors, (v, g, r)


def _passes_through_brute(w, target):
    # t w - target in Z^2 for some 0 < t < 1: t runs over the finitely many
    # values that make a nonzero coordinate of t w - target integral.
    i = 0 if w[0] else 1
    lo, hi = sorted((0, w[i]))
    for m in range(math.floor(lo - target[i]), math.ceil(hi - target[i]) + 1):
        t = (target[i] + m) / w[i]
        if 0 < t < 1 and all((t * w[k] - target[k]).denominator == 1 for k in (0, 1)):
            return True
    return False


def test_passes_through_matches_brute_force():
    rng = random.Random(0)
    seen = set()
    for _ in range(3000):
        w = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6))) for _ in range(2)]
        if not any(w):
            continue
        target = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(2)]
        scale = math.lcm(*(q.denominator for q in w + target))
        got = _passes_through(
            tuple(int(q * scale) for q in w), tuple(int(q * scale) for q in target), scale
        )
        assert got == _passes_through_brute(w, target), (w, target)
        seen.add(got)
    assert seen == {True, False}


def test_slit_holonomy_degenerate_rational_flagged():
    res = slit_torus_holonomy(SlitTorusPoint(ExactMatrix.identity(), V(Fraction(1, 2), 0)), 2)
    assert res.corrections
    assert V(1, 0) in res.corrections  # blocked through the midpoint marked point


def test_slit_point_rejects_lattice_vector():
    with pytest.raises(InputError):
        SlitTorusPoint(ExactMatrix.identity(), V(1, 0))


def test_siegel_constant_value():
    c = siegel_constant_torus()
    lo, hi = zeta2_partial()
    # independent partial-sum evaluation of zeta(2) brackets 1/c
    assert lo <= 1.0 / c <= hi
    assert abs(c - 0.607927) < 1e-6


def test_primitive_density_converges_to_constant():
    c = siegel_constant_torus()
    ratios = []
    for r in (20, 40, 80):
        count = len(primitive_points_in_disc(r))
        ratios.append(count / (math.pi * r * r))
    assert abs(ratios[-1] - c) < 0.01
    assert abs(ratios[-1] - c) <= abs(ratios[0] - c)
