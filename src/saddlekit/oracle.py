"""Exact analytic models for tori, marked tori, and slit tori.

The flat torus for a unimodular matrix g has holonomy set g applied to the
primitive integer vectors; a slit torus adds the translates of the slit
holonomy by the lattice, in both orientations.  For rational slit vectors
the idealized formula overcounts: segments that pass through the other
marked point on the way are excluded by an exact rationality test, and the
excluded vectors are reported as corrections.

Both oracles return their vectors as tuples, strictly increasing in
(|v|^2, x, y), the order in which ``geodesic.enumerate_connections`` lists
its distinct holonomies, so an oracle and an enumeration compare as tuples.

The exact oracles walk the disc row by row (``exactplane._cosets_in_disc``),
which refuses a disc of more rows or points than
``exactplane.default_budget()``; the slit oracle's three cosets share that
budget.

``siegel_constant_torus`` is the torus's Siegel-Veech constant 1/zeta(2),
the mean holonomy count per unit area against which ``mc`` measures its
Haar estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Tuple

from .errors import InputError
from .exactplane import ExactMatrix, ExactVector, _cosets_in_disc, primitive_points_in_disc, to_fraction


@dataclass(frozen=True)
class TorusPoint:
    """Unit-covolume lattice g Z^2 of an exact matrix g."""

    g: ExactMatrix

    def __post_init__(self):
        if not isinstance(self.g, ExactMatrix):
            raise InputError("torus matrix must be an ExactMatrix")
        if self.g.det() != 1:
            raise InputError("torus matrix must have determinant one")


@dataclass(frozen=True)
class SlitTorusPoint:
    g: ExactMatrix
    v: ExactVector

    def __post_init__(self):
        TorusPoint(self.g)
        w = self.g.inverse().apply(self.v)
        if w.x.denominator == 1 and w.y.denominator == 1:
            raise InputError("slit vector must not lie in the lattice")


def torus_holonomy(t: TorusPoint, radius) -> Tuple[ExactVector, ...]:
    """{g w : w primitive, |g w| <= radius}, exact, increasing in
    (|v|^2, x, y)."""
    return tuple(primitive_points_in_disc(radius, t.g))


def _passes_through(w, target, scale: int) -> bool:
    """Exact test: does {t w : 0 < t < 1} meet target + Z^2?

    w and target are in lattice coordinates (g factored out), given as int
    pairs scaled by scale, so the question is whether t w - target lies in
    scale Z^2 for some 0 < t < 1.
    """
    (w0, w1), (t0, t1) = w, target
    if w0 == 0:
        if w1 == 0:
            return False
        (w0, w1), (t0, t1) = (w1, w0), (t1, t0)
    if w0 < 0:
        (w0, w1), (t0, t1) = (-w0, -w1), (-t0, -t1)
    # t = n / w0 with n = t0 + scale k in (0, w0); the other coordinate
    # needs n w1 - t1 w0 in scale w0 Z, i.e. scale k w1 = c (mod scale w0).
    c = t1 * w0 - t0 * w1
    if c % scale:
        return False
    c //= scale
    div = math.gcd(w1, w0)
    if c % div:
        return False
    m = w0 // div
    k0 = c // div * pow(w1 // div, -1, m) % m
    # Least k = k0 (mod m) with t0 + scale k > 0.
    k_min = -t0 // scale + 1
    k = k_min + (k0 - k_min) % m
    return t0 + scale * k < w0


@dataclass(frozen=True)
class SlitHolonomyResult:
    """The holonomy set and the formula vectors that the blocking filter
    removed, each a tuple strictly increasing in (|v|^2, x, y) with no
    vector twice."""

    vectors: Tuple[ExactVector, ...]
    corrections: Tuple[ExactVector, ...]


def slit_torus_holonomy(t: SlitTorusPoint, radius) -> SlitHolonomyResult:
    """Predicted holonomy set of the slit torus [g, v] up to a radius.

    Idealized set: g Z^2_prim together with g Z^2 + v and g Z^2 - v (both
    orientations of marked-point-to-marked-point segments).  Rational slit
    vectors admit coincidences; a candidate is dropped when every segment
    realizing it passes through the other marked point, and such vectors are
    reported in corrections.  One exact test decides each candidate, since
    a segment and its reverse pass through the same points.  Both are
    sorted tuples with each vector once, also when 2v is in g Z^2 and the
    cosets +v and -v are one.
    """
    radius = to_fraction(radius)
    if radius <= 0:
        raise InputError("radius must be positive")
    g = t.g
    v0 = g.inverse().apply(t.v)  # slit in lattice coordinates
    # Lattice coordinates scaled by L are int pairs, and so are their images
    # under g scaled by D; the disc test is an int test against
    # (D L radius)^2, as in primitive_points_in_disc.
    L = math.lcm(v0.x.denominator, v0.y.denominator)
    vx, vy = int(v0.x * L), int(v0.y * L)
    D = math.lcm(*(x.denominator for x in g.entries()))
    a, b, c, d = m = tuple(int(x * D) for x in g.entries())
    scale = D * L
    lim = radius * radius * scale * scale
    lim = lim.numerator // lim.denominator

    kept, blocked = [], []
    # The three cosets share one walk and one budget.  A primitive lattice
    # vector w, scaled by L, is a loop at a marked point, blocked on the copy
    # at 0 iff it hits v and on the copy at v iff it hits -v's copy; these
    # agree, as t w is in v + L Z^2 iff (1 - t) w = w - t w is in -v + L Z^2.
    # On the cosets +-v + L Z^2 a segment between the marked points is blocked
    # by an interior lattice point or copy of +-v; these agree too, as t w is
    # in +-v + L Z^2 = w + L Z^2 iff (1 - t) w is in L Z^2.
    for target, x, y in _cosets_in_disc(m, lim, ((0, 0), (vx, vy), (-vx, -vy)), L):
        if target == (0, 0) and math.gcd(x, y) != L:
            continue
        X, Y = a * x + b * y, c * x + d * y
        through = (vx, vy) if target == (0, 0) else (0, 0)
        (blocked if _passes_through((x, y), through, L) else kept).append((X * X + Y * Y, X, Y))

    def exact(keys):
        # The int images order the vectors as (|v|^2, x, y) does.  Where 2v is
        # in the lattice the cosets +v and -v coincide, and groupby drops the
        # second visit of each of their vectors, decided the same way.
        return tuple(ExactVector(Fraction(X, scale), Fraction(Y, scale))
                     for (_, X, Y), _ in groupby(sorted(keys)))

    return SlitHolonomyResult(exact(kept), exact(blocked))


def siegel_constant_torus() -> float:
    """1 / zeta(2) at double precision: mean holonomy count per unit area."""
    return 6.0 / (math.pi * math.pi)

