"""Exact rational planar arithmetic and integer-lattice primitives.

All geometric decisions elsewhere in the package reduce to exact sign or
ordering tests, on rationals or on int pairs scaled by a common denominator
(squared Euclidean norms, L1 norms, cross products).  Floating point appears
only in reports.

The one work budget of the package lives here too: ``default_budget()``,
500,000 unless ``SADDLEKIT_BUDGET`` says otherwise, bounds the enumeration's
states, the lattice kernels' rows, the rows and points of the exact disc
walk, and the sample counts and tail thresholds of ``mc``.  The
environment variable is the only way to set it: no library function takes
a budget but the lattice kernels, which ``mc`` hands one read of it per
batch, and no command takes a flag for it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InputError, PrecisionLimitError, ResourceLimitError, SingularMatrixError

Rational = Union[Fraction, int, str]

_MAX_BITS = 256  # compare_sqrt_sum gives up past this interval precision

DEFAULT_BUDGET = 500_000


def default_budget() -> int:
    """The work budget: ``SADDLEKIT_BUDGET`` if set, else DEFAULT_BUDGET."""
    env = os.environ.get("SADDLEKIT_BUDGET")
    try:
        budget = int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise InputError(f"SADDLEKIT_BUDGET must be an integer, got {env!r}")
    if budget < 1:
        raise InputError(f"SADDLEKIT_BUDGET must be at least 1, got {budget}")
    return budget


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions, "num/den" strings and floats to Fraction.

    Floats go through their shortest decimal repr, so 0.05 means 1/20, not
    the IEEE-754 neighbor with a 2**55 denominator.  A bool is no number,
    though Python counts it an int: JSON true is refused, not read as 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        x = str(x)
    if isinstance(x, str):
        try:
            return Fraction(x.replace("−", "-").strip())
        except (ValueError, ZeroDivisionError):
            pass  # nan, inf, a zero denominator or text that is no number
    raise InputError(f"cannot interpret {x!r} as a rational")


def to_float(x) -> float:
    """The float of to_fraction(x); InputError beyond the float range."""
    q = to_fraction(x)
    try:
        return float(q)
    except OverflowError:
        digits = len(str(abs(q.numerator) // q.denominator))
        raise InputError(f"{digits}-digit value is beyond the float range") from None


def format_rational(q: Fraction) -> str:
    """Canonical serialization: "n" for integers, "num/den" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, slots=True)
class ExactVector:
    """Planar vector with exact rational coordinates."""

    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x: Rational, y: Rational) -> "ExactVector":
        return cls(to_fraction(x), to_fraction(y))

    def __add__(self, other: "ExactVector") -> "ExactVector":
        return ExactVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        return ExactVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "ExactVector":
        return ExactVector(-self.x, -self.y)

    def scale(self, c: Rational) -> "ExactVector":
        c = to_fraction(c)
        return ExactVector(self.x * c, self.y * c)

    def dot(self, other: "ExactVector") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "ExactVector") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def norm_l1(self) -> Fraction:
        return abs(self.x) + abs(self.y)

    def perp(self) -> "ExactVector":
        """Counterclockwise quarter turn."""
        return ExactVector(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def to_json(self) -> list:
        return [format_rational(self.x), format_rational(self.y)]

    @classmethod
    def from_json(cls, data) -> "ExactVector":
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise InputError(f"vector must be a 2-element list, got {data!r}")
        return cls(to_fraction(data[0]), to_fraction(data[1]))

    def __str__(self):
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


# --- int pairs: points scaled by a common multiple of their denominators ----


def _scale_of(vectors) -> int:
    """The lcm of the vectors' coordinate denominators."""
    return math.lcm(*(q.denominator for p in vectors for q in (p.x, p.y)))


def _ints(p: ExactVector, scale: int):
    """p times scale as an int pair; scale is a multiple of p's denominators."""
    return (p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))


def _vec(p, scale: int) -> ExactVector:
    """The int pair p divided by scale."""
    return ExactVector(Fraction(p[0], scale), Fraction(p[1], scale))


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _unit_cross(a: int, b: int):
    """An int pair q with (a, b) x q = a q_y - b q_x = 1; gcd(a, b) = 1.

    The modular inverse u of a mod |b| (extended Euclid) gives a u - 1 = b v,
    and q = (v, u).
    """
    if b == 0:
        return (0, a)  # a = +/-1
    u = pow(a, -1, abs(b))
    return ((a * u - 1) // b, u)


def _turn(p, q, r) -> int:
    """(q - p) x (r - q): positive when p -> q -> r turns counterclockwise."""
    return (q[0] - p[0]) * (r[1] - q[1]) - (q[1] - p[1]) * (r[0] - q[0])


@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """2x2 matrix with exact rational entries, acting on column vectors."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def of(cls, a: Rational, b: Rational, c: Rational, d: Rational) -> "ExactMatrix":
        return cls(to_fraction(a), to_fraction(b), to_fraction(c), to_fraction(d))

    @classmethod
    def identity(cls) -> "ExactMatrix":
        return cls.of(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, p: Rational, q: Rational) -> "ExactMatrix":
        return cls.of(p, 0, 0, q)

    @classmethod
    def shear(cls, s: Rational) -> "ExactMatrix":
        return cls.of(1, s, 0, 1)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def apply(self, v: ExactVector) -> ExactVector:
        return ExactVector(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def compose(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ExactMatrix":
        det = self.det()
        if det == 0:
            raise SingularMatrixError("matrix is singular")
        return ExactMatrix(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def _cosets_in_disc(m, lim: int, shifts=((0, 0),), step: int = 1):
    """The int points (x, y) of shift + step Z^2 with |m (x, y)|^2 <= lim,
    row by row, for each shift in turn, as triples (shift, x, y).

    m = (a, b, c, d) is a nonsingular int matrix.  With A = a^2 + c^2,
    B = ab + cd and det = ad - bc, A |m(x, y)|^2 = (Ax + By)^2 + det^2 y^2,
    so row y holds points iff det^2 y^2 <= A lim, and its points are exactly
    the x with |Ax + By| <= isqrt(A lim - det^2 y^2).

    The cosets share one budget.  Before it yields a point, the walk counts,
    coset by coset, its rows, then its points (one isqrt per row), and
    raises ResourceLimitError with ``budget`` and the running total of
    ``rows`` or ``points`` once either exceeds ``default_budget()``.
    """
    a, b, c, d = m
    A, B, det2 = a * a + c * c, a * b + c * d, (a * d - b * c) ** 2
    top = math.isqrt(A * lim // det2)

    def row(sx, y):
        half = math.isqrt(A * lim - det2 * y * y)
        return -((half + B * y + A * sx) // (A * step)), (half - B * y - A * sx) // (A * step)

    budget = default_budget()
    walks = []
    rows = points = 0
    for shift in shifts:
        sx, sy = shift
        first = sy - (top + sy) // step * step
        rows += (top - first) // step + 1
        if rows > budget:
            raise ResourceLimitError("lattice disc exceeds the budget", rows=rows, budget=budget)
        ys = range(first, top + 1, step)
        points += sum(hi + 1 - lo for lo, hi in (row(sx, y) for y in ys))
        if points > budget:
            raise ResourceLimitError("lattice disc exceeds the budget", points=points, budget=budget)
        walks.append((shift, ys))
    for shift, ys in walks:
        sx = shift[0]
        for y in ys:
            lo, hi = row(sx, y)
            for i in range(lo, hi + 1):
                yield shift, sx + step * i, y


def primitive_points_in_disc(radius: Rational, g: ExactMatrix | None = None) -> list:
    """All g w with w a primitive integer vector and |g w| <= radius.

    g defaults to the identity.  The comparison is exact: g is scaled by the
    lcm D of its denominators and the radius enters only as D^2 radius^2, so
    membership is an integer test, walked row by row (`_cosets_in_disc`,
    which refuses a disc of more rows or points than the budget).  Points
    are returned sorted by (norm^2, x, y).
    """
    r = to_fraction(radius)
    if r <= 0:
        raise InputError("radius must be positive")
    g = ExactMatrix.identity() if g is None else g
    den = math.lcm(*(x.denominator for x in g.entries()))
    a, b, c, d = (int(x * den) for x in g.entries())
    lim = r * r * den * den
    lim = lim.numerator // lim.denominator  # integer n <= lim iff n <= floor(lim)
    found = []
    for _, p, q in _cosets_in_disc((a, b, c, d), lim):
        if math.gcd(p, q) == 1:
            x = a * p + b * q
            y = c * p + d * q
            found.append((x * x + y * y, x, y))
    found.sort()
    return [ExactVector(Fraction(x, den), Fraction(y, den)) for _, x, y in found]


# --- certified comparisons of sums of square roots ------------------------
#
# Edge lengths are square roots of rationals.  Comparing a sum of such
# lengths against another root is done exactly for one or two terms, and by
# directed-rounding dyadic intervals (doubling precision, capped) otherwise.


def sqrt_bounds(q: Fraction, prec: int) -> tuple:
    """Dyadic lower/upper bounds for sqrt(q) with error < 2**-prec."""
    if q < 0:
        raise InputError("sqrt of negative rational")
    if q == 0:
        return (Fraction(0), Fraction(0))
    scale = 1 << prec
    n = q.numerator * q.denominator * scale * scale
    root = math.isqrt(n)
    lo = Fraction(root, q.denominator * scale)
    hi = Fraction(root + 1, q.denominator * scale)
    return (lo, hi)


def is_perfect_square(q: Fraction):
    """Return sqrt(q) as a Fraction if q is a square of a rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def compare_sqrt_sum(terms: Iterable[Fraction], bound_sq: Fraction) -> int:
    """Sign of (sum_i sqrt(t_i)) - sqrt(bound_sq), decided exactly or by
    certified intervals.

    Returns -1, 0 or +1.  Exact routes: all-square terms, and the two-term
    case via (a+b)^2 vs c with the cross term 2*sqrt(t0*t1) squared away.
    Raises PrecisionLimitError if still undecided at _MAX_BITS (which can only
    happen at exact equality of irrational sums).
    """
    terms = [to_fraction(t) for t in terms]
    bound_sq = to_fraction(bound_sq)
    if any(t < 0 for t in terms) or bound_sq < 0:
        raise InputError("compare_sqrt_sum needs nonnegative radicands")

    roots = [is_perfect_square(t) for t in terms]
    if all(r is not None for r in roots):
        total = sum(roots, Fraction(0))
        diff = total * total - bound_sq
        return (diff > 0) - (diff < 0)

    irrational = [t for t, r in zip(terms, roots) if r is None]
    rational_part = sum((r for r in roots if r is not None), Fraction(0))
    if len(irrational) == 1:
        # Compare (rational_part + sqrt(t))^2 = rp^2 + t + 2 rp sqrt(t) vs B.
        t = irrational[0]
        lhs_known = rational_part * rational_part + t
        # remaining: 2*rp*sqrt(t) vs B - lhs_known
        rem = bound_sq - lhs_known
        coeff = 2 * rational_part
        # coeff * sqrt(t) vs rem, with coeff >= 0
        if coeff == 0:
            diff = t - bound_sq
            return (diff > 0) - (diff < 0)
        if rem < 0:
            return 1
        left = coeff * coeff * t
        right = rem * rem
        return (left > right) - (left < right)
    if len(irrational) == 2 and rational_part == 0:
        # sqrt(x) + sqrt(y) vs sqrt(B): square once, isolate the cross term.
        x, y = irrational
        rem = bound_sq - x - y
        if rem < 0:
            return 1
        left = 4 * x * y
        right = rem * rem
        return (left > right) - (left < right)

    prec = 64
    while prec <= _MAX_BITS:
        lo = Fraction(0)
        hi = Fraction(0)
        for t in terms:
            l, h = sqrt_bounds(t, prec)
            lo += l
            hi += h
        bl, bh = sqrt_bounds(bound_sq, prec)
        if hi < bl:
            return -1
        if lo > bh:
            return 1
        prec *= 2
    raise PrecisionLimitError(
        f"sqrt-sum comparison undecided at {_MAX_BITS} bits", terms=len(terms)
    )
