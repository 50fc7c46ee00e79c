import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlekit.errors import InputError, ResourceLimitError
from saddlekit.exactplane import (
    ExactMatrix,
    ExactVector,
    _cosets_in_disc,
    compare_sqrt_sum,
    format_rational,
    is_perfect_square,
    primitive_points_in_disc,
    sqrt_bounds,
    to_fraction,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def test_primitive_points_radius_1():
    pts = {(int(v.x), int(v.y)) for v in primitive_points_in_disc(1)}
    assert pts == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_primitive_points_radius_2():
    # brute force over |p|,|q| <= 2
    expected = {
        (p, q)
        for p in range(-2, 3)
        for q in range(-2, 3)
        if math.gcd(abs(p), abs(q)) == 1 and p * p + q * q <= 4
    }
    got = {(int(v.x), int(v.y)) for v in primitive_points_in_disc(2)}
    assert got == expected
    assert len(got) == 8


def test_primitive_points_radius_5_halves():
    got = {(int(v.x), int(v.y)) for v in primitive_points_in_disc(Fraction(5, 2))}
    assert len(got) == 16
    for s1 in (1, -1):
        for s2 in (1, -1):
            assert (s1, 2 * s2) in got
            assert (2 * s1, s2) in got


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.integers(-7, 7)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
    st.integers(0, 300),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.integers(1, 5),
)
def test_coset_walk_matches_the_box_scan(m, lim, shift, step):
    a, b, c, d = m
    # |m p| <= sqrt(lim) bounds |p|_inf by sqrt(lim) times the larger row of m^-1.
    bound = math.isqrt(lim * max(a * a + c * c, b * b + d * d) // (a * d - b * c) ** 2) + 1
    box = {
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x - shift[0]) % step == 0 == (y - shift[1]) % step
        and (a * x + b * y) ** 2 + (c * x + d * y) ** 2 <= lim
    }
    walked = [(x, y) for _, x, y in _cosets_in_disc(m, lim, (shift,), step)]
    assert len(walked) == len(box) and set(walked) == box


@pytest.mark.parametrize("budget, details", [
    (100, {"points": 1257, "budget": 100}),
    (1256, {"points": 1257, "budget": 1256}),
    (40, {"rows": 41, "budget": 40}),
])
def test_the_disc_walk_refuses_more_rows_or_points_than_the_budget(monkeypatch, budget, details):
    # The identity disc of radius 20 has 1257 lattice points in 41 rows.
    monkeypatch.setenv("SADDLEKIT_BUDGET", str(budget))
    with pytest.raises(ResourceLimitError) as exc:
        primitive_points_in_disc(20)
    assert exc.value.details == details
    monkeypatch.setenv("SADDLEKIT_BUDGET", "1257")
    assert len(primitive_points_in_disc(20)) == 768


def test_primitive_count_asymptotic_envelope():
    # |count - pi R^2 / zeta(2)| / R^2 should shrink with R.
    c = 6 / math.pi ** 2
    devs = []
    for r in (10, 20, 40, 80):
        count = len(primitive_points_in_disc(r))
        devs.append(abs(count - math.pi * r * r * c) / (r * r))
    assert devs[-1] < 0.05
    assert devs[-1] <= devs[0]


def test_apply_matrix_examples():
    v = ExactVector.of(3, 4)
    assert ExactMatrix.identity().apply(v) == v
    assert ExactMatrix.diagonal(2, Fraction(1, 2)).apply(ExactVector.of(1, 1)) == ExactVector.of(2, Fraction(1, 2))
    assert ExactMatrix.shear(1).apply(ExactVector.of(0, 1)) == ExactVector.of(1, 1)


@given(
    a=rationals, b=rationals, c=rationals, d=rationals,
    x1=rationals, y1=rationals, x2=rationals, y2=rationals,
)
@settings(max_examples=100, deadline=None)
def test_apply_matrix_distributes_over_addition(a, b, c, d, x1, y1, x2, y2):
    m = ExactMatrix.of(a, b, c, d)
    u = ExactVector(x1, y1)
    v = ExactVector(x2, y2)
    assert m.apply(u + v) == m.apply(u) + m.apply(v)


def test_integer_sl2_preserves_lattice():
    m = ExactMatrix.of(2, 1, 1, 1)
    assert m.det() == 1
    for v in primitive_points_in_disc(3):
        img = m.apply(v)
        assert img.x.denominator == 1 and img.y.denominator == 1
    frac = ExactMatrix.of(Fraction(1, 2), 0, 0, 2)
    img = frac.apply(ExactVector.of(1, 0))
    assert img.x.denominator != 1


def test_rational_serialization():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(5)) == "5"
    assert to_fraction("7/1") == 7
    assert to_fraction("−3/7") == Fraction(-3, 7)  # unicode minus accepted
    assert format_rational(to_fraction("4/2")) == "2"


@pytest.mark.parametrize("bad", ["nan", "abc", "1/0", "", float("nan"), float("inf"), None])
def test_to_fraction_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        to_fraction(bad)


def test_sqrt_bounds_enclose():
    for q in (Fraction(2), Fraction(5, 7), Fraction(10)):
        lo, hi = sqrt_bounds(q, 80)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, 2 ** 78)


def test_is_perfect_square():
    assert is_perfect_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_perfect_square(Fraction(2)) is None


def test_compare_sqrt_sum_exact_routes():
    # 1 + sqrt(2) vs sqrt(10): (1 + sqrt 2)^2 = 3 + 2 sqrt2 < 10
    assert compare_sqrt_sum([Fraction(1), Fraction(2)], Fraction(10)) == -1
    # sqrt(2) + sqrt(8) = 3 sqrt(2) = sqrt(18)
    assert compare_sqrt_sum([Fraction(2), Fraction(8)], Fraction(18)) == 0
    assert compare_sqrt_sum([Fraction(2), Fraction(8)], Fraction(17)) == 1
    # interval route with three terms: sqrt2 + sqrt3 + sqrt5 ~ 5.382
    assert compare_sqrt_sum([2, 3, 5], Fraction(30)) == -1
    assert compare_sqrt_sum([2, 3, 5], Fraction(28)) == 1
