"""Transforms of compactly supported test functions over holonomy sets.

The transform of an indicator is an exact count over the search's int keys
(|v|^2 D^2, x, y) of the holonomy vectors v at the surface's scale D:
``TestFunction.exact_rule(D, area)`` alone decides membership of
v / sqrt(area) on a key's ints, and ``_tally`` is the one loop that sums it,
for every transform here and for the stratum samples of ``mc``.  A sector
is the closed disc cut by the open cone between two rational rays, the
function its rules compute, so every membership is decided and no
transform has an ambiguous vector.  The rotational averaging operator
evaluates float images of the exact holonomy set under stretch-rotate
matrices, with an explicit ambiguity margin.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .errors import (
    AmbiguousMembershipError,
    InputError,
    PrecisionLimitError,
    ResourceLimitError,
)
from .exactplane import ExactVector, _ints, _scale_of, compare_sqrt_sum, format_rational, to_fraction
from .geodesic import (
    Cylinder,
    _holonomy_keys,
    _outside_class,
    _radius_sq,
    connections,
    detect_cylinder,
    enumerate_connections,
    nonhomologous_edge_bound,
    reverse_of,
    second_shortest_nonhomologous,
    shortest,
)
from .surface import TranslationSurface

_RAY_SCALE = 1 << 32
_DELTA_NUM = 1e-9  # float safety margin of the rotational average
_AMBIGUOUS_TOLERANCE = 0.01  # largest ambiguous share A_R accepts
_AR_QUADRATURE_N = 256  # grid angles of A_R, and the fewest of the sector sandwich


def _ray_approx(angle: float) -> ExactVector:
    return ExactVector(
        Fraction(round(math.cos(angle) * _RAY_SCALE), _RAY_SCALE),
        Fraction(round(math.sin(angle) * _RAY_SCALE), _RAY_SCALE),
    )


def _norm_limit(r: Fraction, scale: int, area) -> int:
    """floor(r^2 area D^2): an int n is at most r^2 area D^2 iff n <= it."""
    return math.floor(r * r * area * scale * scale)


class TestFunction:
    """Bounded, compactly supported test function on the plane."""

    def support_radius(self) -> Fraction:
        raise NotImplementedError

    def exact_rule(self, scale: int, area=1):
        """rule(n, x, y) = the value, an int, of f at v / sqrt(area) for the
        key of v = (x, y) / scale, n = x^2 + y^2."""
        raise NotImplementedError

    def evaluate_batch(self, xs, ys, delta: float):
        """(values, ambiguous_mask) on float coordinate arrays, for the
        rotational average: a point within delta of a boundary is
        ambiguous."""
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class DiscIndicator(TestFunction):
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", to_fraction(self.r))
        if self.r <= 0:
            raise InputError("disc radius must be positive")

    def support_radius(self) -> Fraction:
        return self.r

    def exact_rule(self, scale, area=1):
        limit = _norm_limit(self.r, scale, area)
        return lambda n, x, y: 1 if n <= limit else 0

    def evaluate_batch(self, xs, ys, delta: float):
        r2 = float(self.r) ** 2
        d = xs * xs + ys * ys
        inside = d <= r2
        ambiguous = np.abs(d - r2) <= delta * (1.0 + d)
        return inside.astype(np.int64), ambiguous

    def to_json_dict(self):
        return {"variant": "disc", "r": format_rational(self.r)}


@dataclass(frozen=True)
class AnnulusIndicator(TestFunction):
    r1: Fraction
    r2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r1", to_fraction(self.r1))
        object.__setattr__(self, "r2", to_fraction(self.r2))
        if not (0 <= self.r1 < self.r2):
            raise InputError("annulus radii must satisfy 0 <= r1 < r2")

    def support_radius(self) -> Fraction:
        return self.r2

    def exact_rule(self, scale, area=1):
        lo, hi = _norm_limit(self.r1, scale, area), _norm_limit(self.r2, scale, area)
        return lambda n, x, y: 1 if lo < n <= hi else 0

    def evaluate_batch(self, xs, ys, delta: float):
        lo = float(self.r1) ** 2
        hi = float(self.r2) ** 2
        d = xs * xs + ys * ys
        inside = (d > lo) & (d <= hi)
        ambiguous = (np.abs(d - lo) <= delta * (1.0 + d)) | (
            np.abs(d - hi) <= delta * (1.0 + d)
        )
        return inside.astype(np.int64), ambiguous

    def to_json_dict(self):
        return {
            "variant": "annulus",
            "r1": format_rational(self.r1),
            "r2": format_rational(self.r2),
        }


@dataclass(frozen=True)
class SectorIndicator(TestFunction):
    """Indicator of {v: |v| <= r, ray_lo x v > 0 and v x ray_hi > 0}.

    The rays are theta -+ half_angle rounded once to rationals at
    _RAY_SCALE, and the sector is the region they bound: the disc is closed
    and the cone is open, so a vector on a ray is outside.  Every exact
    membership is decided; the float rule, ``kernels._cone_crosses``, has
    the same closure.
    """

    r: Fraction
    theta: float
    half_angle: float
    ray_lo: ExactVector = field(init=False, compare=False)
    ray_hi: ExactVector = field(init=False, compare=False)
    cone: tuple = field(init=False, repr=False, compare=False)
    int_rays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "r", to_fraction(self.r))
        if self.r <= 0:
            raise InputError("sector radius must be positive")
        for name in ("theta", "half_angle"):
            value = getattr(self, name)
            # A bool is no angle, though Python counts it an int; an int
            # past the float range has no finite float angle.
            try:
                angle = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
            except OverflowError:
                angle = math.inf
            if not math.isfinite(angle):
                raise InputError(f"sector {name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, angle)
        if not (0 < self.half_angle < math.pi / 2):
            raise InputError("half_angle must lie in (0, pi/2)")
        object.__setattr__(self, "ray_lo", _ray_approx(self.theta - self.half_angle))
        object.__setattr__(self, "ray_hi", _ray_approx(self.theta + self.half_angle))
        # The rays as floats, ((lx, ly), (hx, hy)), for the float rule, and
        # as int pairs at _RAY_SCALE for the exact one.
        object.__setattr__(self, "cone", tuple((float(v.x), float(v.y)) for v in (self.ray_lo, self.ray_hi)))
        object.__setattr__(self, "int_rays", tuple(_ints(v, _RAY_SCALE) for v in (self.ray_lo, self.ray_hi)))

    def support_radius(self) -> Fraction:
        return self.r

    def angular_inside(self, vx: int, vy: int) -> int:
        """1 if the v that the int pair (vx, vy) is a positive multiple of
        lies in the open cone, ray_lo x v > 0 and v x ray_hi > 0, else 0.
        Both crosses are homogeneous of degree 1 in v and in each ray, so
        they run on int pairs: v at any scale, such as a holonomy key's
        (x, y), and the rays at _RAY_SCALE."""
        (lx, ly), (hx, hy) = self.int_rays
        return 1 if lx * vy - ly * vx > 0 and vx * hy - vy * hx > 0 else 0

    def exact_rule(self, scale, area=1):
        limit = _norm_limit(self.r, scale, area)
        return lambda n, x, y: self.angular_inside(x, y) if n <= limit else 0

    def evaluate_batch(self, xs, ys, delta: float):
        r2 = float(self.r) ** 2
        d = xs * xs + ys * ys
        c1, c2 = kernels._cone_crosses(self.cone, xs, ys)
        norm = np.sqrt(np.maximum(d, 1e-300))
        pos1 = c1 > 0
        pos2 = c2 > 0
        # Near a ray means near its line and on its side; with half_angle
        # below pi/2 the side of ray_lo is c2 > 0 and that of ray_hi c1 > 0.
        amb = (
            ((np.abs(c1) <= delta * norm) & pos2)
            | ((np.abs(c2) <= delta * norm) & pos1)
            | (np.abs(d - r2) <= delta * (1.0 + d))
        )
        inside = (d <= r2) & pos1 & pos2
        return inside.astype(np.int64), amb

    def to_json_dict(self):
        return {
            "variant": "sector",
            "r": format_rational(self.r),
            "theta": self.theta,
            "half_angle": self.half_angle,
        }


@dataclass(frozen=True)
class ProductPair(TestFunction):
    """h(v1, v2) = f(v1) g(v2) on pairs of holonomy vectors."""

    f: TestFunction
    g: TestFunction

    def support_radius(self) -> Fraction:
        return max(self.f.support_radius(), self.g.support_radius())

    def to_json_dict(self):
        return {
            "variant": "product",
            "f": self.f.to_json_dict(),
            "g": self.g.to_json_dict(),
        }


@dataclass(frozen=True)
class TriangleIndicator(TestFunction):
    """Indicator of the triangle hull{0, p, q} (ccw); used by the sector
    sandwich, where images of triangles under stretches stay triangles."""

    p: ExactVector
    q: ExactVector

    def __post_init__(self):
        if self.p.cross(self.q) <= 0:
            raise InputError("triangle corners must be counterclockwise")

    def support_radius(self) -> Fraction:
        # Rational upper bound for max corner length.
        m = max(self.p.norm_sq(), self.q.norm_sq())
        num = math.isqrt(m.numerator * m.denominator) + 1
        return Fraction(num, m.denominator)

    def exact_rule(self, scale, area=1):
        if area != 1:
            raise InputError("a triangle indicator is not scale-free: it needs a surface of area 1")
        # At K = lcm(D, the corners' denominators), p, q and v = (x, y) K / D
        # are int pairs, and the crosses of the three sides keep their signs.
        k = math.lcm(scale, _scale_of((self.p, self.q)))
        (px, py), (qx, qy), m = _ints(self.p, k), _ints(self.q, k), k // scale

        def rule(n, x, y):
            x, y = x * m, y * m
            inside = (px * y >= py * x and (qx - px) * (y - py) >= (qy - py) * (x - px)
                      and qy * (x - qx) >= qx * (y - qy))
            return 1 if inside else 0

        return rule

    def evaluate_batch(self, xs, ys, delta: float):
        px, py = float(self.p.x), float(self.p.y)
        qx, qy = float(self.q.x), float(self.q.y)
        c1 = px * ys - py * xs
        ex, ey = qx - px, qy - py
        c2 = ex * (ys - py) - ey * (xs - px)
        c3 = (-qx) * (ys - qy) + qy * (xs - qx)
        scale = 1.0 + np.sqrt(xs * xs + ys * ys)
        amb = (
            (np.abs(c1) <= delta * scale)
            | (np.abs(c2) <= delta * scale)
            | (np.abs(c3) <= delta * scale)
        )
        inside = (c1 >= 0) & (c2 >= 0) & (c3 >= 0)
        return inside.astype(np.int64), amb

    def to_json_dict(self):
        return {"variant": "triangle", "p": self.p.to_json(), "q": self.q.to_json()}


def test_function_from_json(data) -> TestFunction:
    """Parse the JSON that TestFunction.to_json writes; InputError on text
    that is not JSON, a value that is not an object, a missing or malformed
    field, or an unknown variant."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InputError(f"test function is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"test function must be a JSON object, got {data!r}")
    variant = data.get("variant")
    try:
        if variant == "disc":
            return DiscIndicator(to_fraction(data["r"]))
        if variant == "annulus":
            return AnnulusIndicator(to_fraction(data["r1"]), to_fraction(data["r2"]))
        if variant == "sector":
            return SectorIndicator(to_fraction(data["r"]), data["theta"], data["half_angle"])
        if variant == "triangle":
            return TriangleIndicator(
                ExactVector.from_json(data["p"]), ExactVector.from_json(data["q"])
            )
        if variant == "product":
            return ProductPair(
                test_function_from_json(data["f"]), test_function_from_json(data["g"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {variant!r} test function: {exc!r}")
    raise InputError(f"unknown test function variant {variant!r}")


# A library parser, not a test: modules that import it must not have pytest
# collect it.
test_function_from_json.__test__ = False


# --- transforms -------------------------------------------------------------


@dataclass(frozen=True)
class TransformReport:
    """A transform's value and the number of distinct holonomy vectors its
    search kept.  ``ambiguous`` is always 0, as every membership is decided;
    it stays only because the benchmark harness reads it from the
    ``transform`` output and from traced reports, and goes with the
    benchmark's revision (ROADMAP, Direction 1)."""

    value: float
    ambiguous: int
    n_vectors: int


def _rules(f: TestFunction, scale: int, area) -> list:
    """The exact rules of f, or of each factor of a (nested) product."""
    if isinstance(f, ProductPair):
        return _rules(f.f, scale, area) + _rules(f.g, scale, area)
    return [f.exact_rule(scale, area)]


def _tally(keys, rules) -> int:
    """The product over the rules of their sums over the keys: a product's
    transform is that of its factors multiplied."""
    return math.prod(sum(rule(*key) for key in keys) for rule in rules)


def transform_report(s: TranslationSurface, f: TestFunction, area=1) -> TransformReport:
    """Transform of f on the copy of s scaled to unit area, for s of the
    given area: one search up to the support radius times sqrt(area), which
    keeps only the int keys of the holonomy vectors; a triangle, bare or in
    a product, refuses area != 1 before it."""
    rules = _rules(f, s.int_corners()[0], area)
    keys = _holonomy_keys(s, _radius_sq(None, f.support_radius() ** 2 * area))
    return TransformReport(value=float(_tally(keys, rules)), ambiguous=0, n_vectors=len(keys))


def transform(s: TranslationSurface, f: TestFunction) -> float:
    """Sum of f over the holonomy set, exact for indicator variants."""
    return transform_report(s, f).value


def pair_transform(s: TranslationSurface, f: TestFunction, g: TestFunction) -> float:
    """Double sum of f(v1) g(v2) over pairs of holonomy vectors.

    For product integrands the double sum factors exactly into the product
    of the single transforms; one enumeration covers both supports.
    """
    return transform(s, ProductPair(f, g))


# --- rotational averaging ---------------------------------------------------


@dataclass(frozen=True)
class ARReport:
    value: float
    ambiguous_fraction: float
    quadrature_n: int


def _holonomy_array(keys, scale: int) -> np.ndarray:
    """The keys' vectors (x, y) / scale as an (m, 2) float array; int true
    division rounds correctly, as float(Fraction(x, scale)) does."""
    return np.array([(x / scale, y / scale) for _, x, y in keys], dtype=np.float64).reshape(-1, 2)


def rotational_average_AR(s: TranslationSurface, f: TestFunction, R: float) -> ARReport:
    """Average of the transform over rotated, diag(R, 1/R)-stretched copies.

    Trapezoidal quadrature over 256 equally spaced angles; since the surface's
    holonomy set transforms equivariantly, images of the exact vectors are
    tested in floats with the safety margin _DELTA_NUM and ambiguous points
    are counted, never assigned.  A ProductPair sums over pairs of vectors,
    not over the vectors themselves, and is refused with InputError.
    """
    if R < 1:
        raise InputError("stretch factor must be >= 1")
    if isinstance(f, ProductPair):
        raise InputError("the rotational average takes a test function of one vector, not a product")
    pre_radius = f.support_radius() * to_fraction(R)
    pts = _holonomy_array(_holonomy_keys(s, pre_radius ** 2), s.int_corners()[0])
    return _rotational_average(pts, f, R, _AR_QUADRATURE_N)


def _rotational_average(pts: np.ndarray, f: TestFunction, R: float, n: int) -> ARReport:
    """The quadrature of rotational_average_AR over n grid angles, on an
    (m, 2) array of holonomy vectors up to the support radius times R."""
    if pts.shape[0] == 0:
        return ARReport(0.0, 0.0, n)
    xs = pts[:, 0]
    ys = pts[:, 1]
    total = 0.0
    ambiguous = 0
    block = max(1, 1 << 22 >> max(pts.shape[0].bit_length(), 1))
    for start in range(0, n, block):
        jj = np.arange(start, min(start + block, n))
        th = 2.0 * math.pi * jj / n
        ct = np.cos(th)[:, None]
        st = np.sin(th)[:, None]
        # a_R r_theta applied to every vector at every grid angle
        ix = R * (ct * xs - st * ys)
        iy = (st * xs + ct * ys) / R
        vals, amb = f.evaluate_batch(ix, iy, _DELTA_NUM)
        total += float(vals[~amb].sum())
        ambiguous += int(amb.sum())
    frac = ambiguous / (n * pts.shape[0])
    if frac > _AMBIGUOUS_TOLERANCE:
        raise AmbiguousMembershipError(
            f"ambiguous membership fraction {frac:.4g} exceeds tolerance",
            fraction=frac,
        )
    return ARReport(total / n, frac, n)


@dataclass(frozen=True)
class SandwichReport:
    lower: float
    scaled_count: float
    upper: float
    margin: float
    ambiguous_fraction: float
    theta_r: float

    def ordered_within_margin(self) -> bool:
        return (
            self.lower - self.margin <= self.scaled_count <= self.upper + self.margin
        )


def sector_sandwich(s: TranslationSurface, R: float, theta: float) -> SandwichReport:
    """Rotational averages of the two triangles enclosing a symmetric
    sector, against the scaled exact count.

    The inner triangle has its corners on the unit circle (height cos
    theta), the outer one has its top edge tangent at the midpoint (height
    1); both map to triangles under the stretch, so their averaged
    transforms bracket (theta_R / pi) N(R) with theta_R = atan(tan theta /
    R^2).  Each average runs on n = max(256, floor(12 pi / theta_R) + 1)
    grid angles and on 2n, and the margin carries their difference.
    """
    if not (0 < theta <= math.pi / 8):
        raise InputError("theta must lie in (0, pi/8]")
    if R < 2:
        raise InputError("R must be at least 2")
    sin_t = Fraction(round(math.sin(theta) * _RAY_SCALE), _RAY_SCALE)
    cos_t = Fraction(round(math.cos(theta) * _RAY_SCALE), _RAY_SCALE)
    tan_t = Fraction(round(math.tan(theta) * _RAY_SCALE), _RAY_SCALE)
    w1 = TriangleIndicator(ExactVector(sin_t, cos_t), ExactVector(-sin_t, cos_t))
    w2 = TriangleIndicator(ExactVector(tan_t, Fraction(1)), ExactVector(-tan_t, Fraction(1)))
    r_frac = to_fraction(R)
    pre_radius = w2.support_radius() * r_frac
    scale, keys = s.int_corners()[0], _holonomy_keys(s, pre_radius ** 2)
    pts = _holonomy_array(keys, scale)
    theta_r = math.atan(math.tan(theta) / (R * R))
    # The stretched cone has angular width ~2 theta_r; resolve each window
    # with a dozen grid cells (the reported margin carries the residual).
    n_eff = max(_AR_QUADRATURE_N, int(12.0 * math.pi / theta_r) + 1)
    lo_n = _rotational_average(pts, w1, R, n_eff)
    hi_n = _rotational_average(pts, w2, R, n_eff)
    lo_2n = _rotational_average(pts, w1, R, 2 * n_eff)
    hi_2n = _rotational_average(pts, w2, R, 2 * n_eff)
    # R <= pre_radius: the exact count N(R) comes from the same enumeration.
    n_count = _tally(keys, [DiscIndicator(r_frac).exact_rule(scale, 1)])
    scaled = theta_r / math.pi * n_count
    margin = 2.0 * max(abs(lo_2n.value - lo_n.value), abs(hi_2n.value - hi_n.value))
    margin += (lo_2n.ambiguous_fraction + hi_2n.ambiguous_fraction) * max(n_count, 1)
    # Discretization floor: each vector's window is resolved to one grid cell.
    margin += 2.0 * max(n_count, 1) / (2 * n_eff)
    margin += 1e-9 * max(n_count, 1)
    return SandwichReport(
        lower=lo_2n.value,
        scaled_count=scaled,
        upper=hi_2n.value,
        margin=margin,
        ambiguous_fraction=max(lo_2n.ambiguous_fraction, hi_2n.ambiguous_fraction),
        theta_r=theta_r,
    )


# --- surface classification -------------------------------------------------


@dataclass(frozen=True)
class ClassLabel:
    """Result of classify: label is H1, H2, Omega0 or Omega2.

    second_length_sq is the exact squared second shortest nonhomologous
    length for Omega0, and for Omega2 when classify resolves it; otherwise
    it is None and detail gives the interval that holds it.  H1 and H2 leave
    it None.  cylinder is the one the shortest connection bounds on its
    left, for Omega2 only; it is None when that cylinder's circumference
    exceeds the trace bound that detail names, or its trace reaches the
    crossing cap first.  Omega1 (the shortest connection on no cylinder
    boundary) is never produced on rational input: every connection of a
    rational surface bounds a cylinder on each side (detect_cylinder).
    """

    label: str  # H1 | H2 | Omega0 | Omega2
    shortest_length_sq: Optional[Fraction] = None
    second_length_sq: Optional[Fraction] = None
    cylinder: Optional[Cylinder] = None
    detail: str = ""

    def to_json_dict(self):
        out = {"label": self.label, "detail": self.detail}
        if self.shortest_length_sq is not None:
            out["shortest_length_sq"] = format_rational(self.shortest_length_sq)
        if self.second_length_sq is not None:
            out["second_length_sq"] = format_rational(self.second_length_sq)
        if self.cylinder is not None:
            out["cylinder"] = {
                "width_sq": format_rational(self.cylinder.width_sq),
                "height_sq": format_rational(self.cylinder.height_sq),
            }
        return out


def _power_leq(x_sq: Fraction, y_sq: Fraction, p: Fraction) -> bool:
    """Exact test sqrt(x_sq) <= sqrt(y_sq)^p for rational p = a/b > 0.

    Equivalent to x_sq^b <= y_sq^a; denominators above 10^4 are refused.
    """
    a, b = p.numerator, p.denominator
    if b > 10_000:
        raise PrecisionLimitError("exponent denominator too large for exact powers")
    return x_sq ** b <= y_sq ** a


def _has_short_loop(s, hs, eps0: Fraction) -> bool:
    """Short homotopically nontrivial closed curve made of enumerated
    connections: a closed connection, a non-backtracking 2-chain, or a
    cylinder core.  A cylinder is traced up to eps0 only: a leaf still open
    there is longer than eps0, and so is the core."""
    eps0_sq = eps0 * eps0
    short = [c for c in hs.connections if c.holonomy.norm_sq() < eps0_sq]
    for c in short:
        if c.start == c.end:
            return True
    by_endpoints = {}
    for c in short:
        by_endpoints.setdefault((c.start, c.end), []).append(c)
    for c in short:
        mates = by_endpoints.get((c.end, c.start), [])
        if not mates:
            continue
        rev = reverse_of(s, c)
        for m in mates:
            if m == rev:
                continue  # exact backtracking is null-homotopic
            if compare_sqrt_sum(
                [c.holonomy.norm_sq(), m.holonomy.norm_sq()], eps0_sq
            ) < 0:
                return True
    for c in short:
        res = detect_cylinder(s, c, eps0)
        if isinstance(res, Cylinder) and res.width_sq < eps0_sq:
            return True
    return False


def _power_bound_sq(g_sq: Fraction, p: Fraction) -> Fraction:
    """Rational X > g_sq^p, the squared radius |gamma|^p when g_sq = |gamma|^2.

    A float estimate raised by 2^-30 is checked exactly; max(1, g_sq) bounds
    g_sq^p for 0 < p < 1 and stands in when the estimate fails.
    """
    try:
        log_g = math.log(g_sq.numerator) - math.log(g_sq.denominator)
        x = Fraction(math.exp(float(p) * log_g) * (1 + 2.0 ** -30))
    except OverflowError:
        x = Fraction(0)
    if x > 0 and not _power_leq(x, g_sq, p):
        return x
    return max(Fraction(1), g_sq)


def classify(s: TranslationSurface, eps0, p) -> ClassLabel:
    """Place a surface in the short-curve decomposition: H1, H2, Omega0 or
    Omega2.

    H1: no connection shorter than eps0.  H2: short connections but no
    short nontrivial closed curve (closed connection, non-backtracking
    two-chain, or cylinder core below eps0).  Otherwise, with gamma the
    shortest connection and eps the second shortest nonhomologous length:
    Omega0 when eps <= |gamma|^p, else Omega2: on rational input gamma
    always bounds a cylinder, so no trace is needed to decide the label.

    Omega0 is decided by the first connection outside +/-[gamma] in the
    length-ordered search up to |gamma|^p; when there is one, its length is
    eps, and Omega0 or Omega2 reports it exactly.  When there is none,
    Omega2 reports eps exactly if U, the squared length of the shortest
    triangulation edge outside +/-[gamma], is at most T^2 with
    T = 64 eps0 + 64, and second_shortest_nonhomologous stays within the
    work budget; otherwise second_length_sq is None and detail says that
    eps lies in (|gamma|^p, sqrt(U)].  Omega2 reports the cylinder on the
    left of gamma when its circumference is at most T; otherwise cylinder is
    None and detail names T, or, when the trace reaches the crossing cap of
    detect_cylinder first, the crossings made and the circumference reached.

    The cylinder traces of the short-loop test decide H2, so one of them
    that reaches the crossing cap raises its ResourceLimitError unchanged,
    with the progress it carries.
    """
    eps0 = to_fraction(eps0)
    if eps0 <= 0:
        raise InputError("eps0 must be positive")
    p = to_fraction(p)
    if not (0 < p < 1):
        raise InputError("p must lie in (0, 1)")
    trace = 64 * eps0 + 64
    s.validate()
    gamma = shortest(s)
    g_sq = gamma.length_sq()
    if g_sq >= eps0 * eps0:
        return ClassLabel("H1", shortest_length_sq=g_sq, detail="no short connection")
    hs = enumerate_connections(s, radius=eps0)
    if not _has_short_loop(s, hs, eps0):
        return ClassLabel("H2", shortest_length_sq=g_sq, detail="short connections, no short loop")
    # Connections come shortest first, so the first one outside +/-[gamma]
    # is the only candidate for eps <= |gamma|^p.
    outside = _outside_class(s.homology(), gamma)
    near = next((c for c in connections(s, _power_bound_sq(g_sq, p))
                 if outside(c.homology_class)), None)
    if near is not None and _power_leq(near.length_sq(), g_sq, p):
        return ClassLabel(
            "Omega0", shortest_length_sq=g_sq, second_length_sq=near.length_sq(),
            detail="second shortest below power of shortest",
        )
    detail = "shortest bounds a cylinder"
    try:
        cylinder = detect_cylinder(s, gamma, trace)
        if not isinstance(cylinder, Cylinder):
            cylinder = None
            detail += f" of circumference above {format_rational(trace)}"
    except ResourceLimitError as exc:
        # The label is decided; only the cylinder's report is cut short.
        cylinder = None
        detail += (f" whose leaf is still open after {exc.details['crossings']} crossings,"
                   f" at circumference sqrt({exc.details['circumference_sq_reached']})")
    if near is not None:
        e_sq = near.length_sq()
    else:
        e_sq = None
        bound = nonhomologous_edge_bound(s, gamma)
        if bound <= trace * trace:
            try:
                e_sq = second_shortest_nonhomologous(s).length_sq()
            except ResourceLimitError:
                pass
        if e_sq is None:
            detail += (
                "; second shortest nonhomologous length in "
                f"(|gamma|^p, sqrt({format_rational(bound)})]"
            )
    return ClassLabel("Omega2", shortest_length_sq=g_sq, second_length_sq=e_sq, cylinder=cylinder,
                      detail=detail)
