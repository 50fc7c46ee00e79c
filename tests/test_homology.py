"""The tree reduction is the quotient map Z^E -> H_1(S, Sigma; Z)."""

import random
from fractions import Fraction

import pytest

from saddlekit.builders import centered_octagon_h2, marked_torus
from saddlekit.delaunay import delaunay_l1
from saddlekit.exactplane import ExactVector


@pytest.fixture(scope="module")
def surfaces(torus, octagon, slit_13_15, thin_torus):
    return {
        "torus": torus,
        "octagon": octagon,
        "slit": slit_13_15,
        "thin": thin_torus,
        "marked": marked_torus(ExactVector.of(Fraction(1, 2), Fraction(1, 3))),
        "centered-octagon": centered_octagon_h2(),
        "delaunay-octagon": delaunay_l1(octagon).surface,
        "delaunay-slit": delaunay_l1(slit_13_15).surface,
    }


NAMES = ["torus", "octagon", "slit", "thin", "marked", "centered-octagon",
         "delaunay-octagon", "delaunay-slit"]


@pytest.mark.parametrize("name", NAMES)
def test_triangle_boundaries_reduce_to_zero(surfaces, name):
    s = surfaces[name]
    hom = s.homology()
    for t in range(s.n_triangles()):
        assert not any(hom.class_of_slots([(t, 0), (t, 1), (t, 2)]))


@pytest.mark.parametrize("name", NAMES)
def test_reduce_is_idempotent_linear_and_supported_on_free_edges(surfaces, name):
    hom = surfaces[name].homology()
    rng = random.Random(name)
    for _ in range(200):
        a = tuple(rng.randint(-4, 4) for _ in range(hom.n_edges))
        b = tuple(rng.randint(-4, 4) for _ in range(hom.n_edges))
        k = rng.randint(-3, 3)
        ra, rb = hom.reduce(a), hom.reduce(b)
        assert hom.reduce(ra) == ra
        assert hom.reduce(tuple(x + k * y for x, y in zip(a, b))) == tuple(
            x + k * y for x, y in zip(ra, rb)
        )
        assert all(x == 0 for i, x in enumerate(ra) if i not in hom.free)


@pytest.mark.parametrize("name", NAMES)
def test_free_edges_are_a_basis(surfaces, name):
    s = surfaces[name]
    hom = s.homology()
    for j in hom.free:
        unit = tuple(int(i == j) for i in range(hom.n_edges))
        assert hom.reduce(unit) == unit
    sig = s.signature()
    # Rank of H_1(S, Sigma) over every vertex, marked points included.
    assert len(hom.free) == 2 * sig.genus + s.n_vertices() - 1
    assert len(hom.free) == sig.dim_relative_homology


@pytest.mark.parametrize("name", NAMES)
def test_free_edges_are_the_period_coordinates(surfaces, name):
    """A tree edge's vector is its reduced class paired with the free edges'
    vectors."""
    s = surfaces[name]
    hom = s.homology()
    for slot in s.slots():
        cls = hom.class_of_slots([slot])
        total = ExactVector.of(0, 0)
        for j in hom.free:
            total = total + s.edge_vector(hom.pairs[j]).scale(cls[j])
        assert total == s.edge_vector(slot)


def test_homology_is_built_once_per_surface(octagon):
    assert octagon.homology() is octagon.homology()


def test_pm_and_proportional_on_reduced_classes(octagon):
    hom = octagon.homology()
    a = hom.class_of_slots([hom.pairs[hom.free[0]]])
    b = hom.class_of_slots([hom.pairs[hom.free[1]]])
    zero = hom.reduce((0,) * hom.n_edges)
    assert hom.is_pm(a, a) and hom.is_pm(tuple(-x for x in a), a)
    assert not hom.is_pm(a, b)
    # A multiple, a sum and the zero class are not +/- a.
    triple = tuple(3 * x for x in a)
    assert not hom.is_pm(triple, a) and not hom.is_pm(a, triple)
    assert not hom.is_pm(tuple(x + y for x, y in zip(a, b)), a)
    assert hom.is_pm(zero, zero) and not hom.is_pm(zero, a) and not hom.is_pm(a, zero)
