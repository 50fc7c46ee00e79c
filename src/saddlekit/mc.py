"""Monte Carlo estimators over torus moduli and local stratum patches.

Torus sampling draws from the whole modular fundamental domain (density
1/y^2, cusp included) plus a uniform rotation.  Stratum sampling perturbs a
free set of period coordinates on a grid of step spread / 2^12 and rejects
invalid surfaces; it is a local Lebesgue patch, never a claim about the
global measure.  It works on int pairs at one scale D, the lcm of the
base's scale and the step's denominator (D = 81,920 = 2^14 * 5 for spread
0.05 about the octagon), and builds each candidate edge's Fractions once.

Torus samples are one (n, 4) float64 array of matrices.  Disc and annulus
transforms are counts of primitive lattice points, one
``kernels.count_primitive_in_disc`` call per sample and radius: a scalar
count over the rows of the half plane q >= 1 that counts the p prime to q
in each row's run of points inside by Moebius inversion.  Where a per-call
bound on the float error of the membership test shows each row's points
form one run, most rows take the run's ends from the floor of their float
roots, certified far enough from every integer; the rest walk in from
padded ends, and on the rare lattices past that bound each point of the
run is tested instead.  A sector transform runs the batched numpy
``kernels.primitive_points`` once over the whole array, with the sector's
rays as its cone: it walks the same rows as the scalar kernel, each cut to
the p whose point could lie in the cone, and yields exactly the points
that pass the float disc test and the sector's float cone rule, at most
one of each pair +-v; each chunk's points are counted per sample with
``np.bincount``.  Both kernels get their row budget from one
``exactplane.default_budget()`` read per batch, not one per lattice.  A stratum surface's transform is
``sv.transform_report`` at the surface's area, so the surface is never
rescaled; it reads only the int keys of the surface's holonomy vectors
(``geodesic._holonomy_keys``), with no connection, class or Fraction each.
Every membership is decided, on both paths: no hit is dropped or refused.
``threads`` spreads only stratum surfaces over a thread pool; torus
samples always run in the calling thread.  All estimators are
bit-deterministic for a fixed seed, whatever the thread count: values are
computed into an index-ordered array and reduced by numpy's fixed pairwise
summation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import (
    AcceptanceRateError,
    InputError,
    ResourceLimitError,
    SurfaceError,
)
from .exactplane import _ints, _vec, default_budget, to_float, to_fraction
from .oracle import siegel_constant_torus
from .surface import TranslationSurface, Triangle, area
from .sv import (
    AnnulusIndicator,
    DiscIndicator,
    ProductPair,
    SectorIndicator,
    TestFunction,
    transform_report,
)

RNG_ALGORITHM = "pcg64"

_GRID = 1 << 12  # grid steps per unit of spread in the stratum sampler
_MIN_ACCEPTANCE = 0.10  # the stratum sampler gives up below this rate


@dataclass(frozen=True, eq=False)
class HaarSample:
    """Torus samples as one (n, 4) float64 array: row i is (a, b, c, d) of
    the unit-covolume matrix [[a, b], [c, d]] of sample i."""

    matrices: np.ndarray
    seed: int
    algorithm: str = RNG_ALGORITHM

    def __len__(self):
        return len(self.matrices)


def _check_sample_count(n: int) -> None:
    """Refuse a sample count below 1 or over the work budget, before any
    sample is drawn or any array allocated."""
    if n < 1:
        raise InputError("sample count must be positive")
    budget = default_budget()
    if n > budget:
        raise ResourceLimitError(f"{n} samples are over the budget of {budget}", samples=n, budget=budget)


def sample_torus_haar(n: int, seed: int) -> HaarSample:
    """Unit-covolume lattices distributed per the invariant measure.

    x is uniform on [-1/2, 1/2]; y follows 1/y^2 on [sqrt(3)/2, inf) by CDF
    inversion, y = lo / (1 - u) with u uniform on [0, 1), so y <= lo 2^53;
    pairs with x^2 + y^2 < 1 are rejected; the frame is spun by a uniform
    rotation.  Deep in the cusp the lattice lines parallel to the short
    first column are more than any fixed radius apart, and the kernels
    count such a lattice without walking a row.
    The sample is r(theta) [[1/sqrt(y), x/sqrt(y)], [0, sqrt(y)]], each
    entry of the product a row of r(theta) = [[cos, -sin], [sin, cos]] (from
    math.cos and math.sin) times a column of the base, summed left to right.
    """
    _check_sample_count(n)
    if seed < 0:
        raise InputError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    lo = math.sqrt(3.0) / 2.0
    parts = []
    have = 0
    while have < n:
        batch = max(16, int((n - have) * 1.2))
        xs = rng.uniform(-0.5, 0.5, batch)
        us = rng.uniform(0.0, 1.0, batch)
        ys = lo / (1.0 - us)
        ths = rng.uniform(0.0, 2.0 * math.pi, batch)
        keep = np.flatnonzero(~(xs * xs + ys * ys < 1.0))[: n - have]
        x, th = xs[keep], ths[keep]
        sy = np.sqrt(ys[keep])
        ct = np.fromiter(map(math.cos, th), np.float64, keep.size)
        st = np.fromiter(map(math.sin, th), np.float64, keep.size)
        a0, b0, d0 = 1.0 / sy, x / sy, sy
        entries = (ct * a0 + -st * 0.0, ct * b0 + -st * d0, st * a0 + ct * 0.0, st * b0 + ct * d0)
        parts.append(np.stack(entries, axis=1))
        have += keep.size
    matrices = np.concatenate(parts)
    det = matrices[:, 0] * matrices[:, 3] - matrices[:, 1] * matrices[:, 2]
    if not np.all(np.abs(det - 1.0) <= 1e-12):
        raise InputError("torus matrix determinant must be 1 within 1e-12")
    matrices.setflags(write=False)
    return HaarSample(matrices, seed)


# --- local stratum sampling -------------------------------------------------


@dataclass(frozen=True)
class StratumSample:
    surfaces: Tuple[TranslationSurface, ...]
    seed: int
    spread: Fraction
    attempts: int

    def __len__(self):
        return len(self.surfaces)


def sample_stratum_local(
    base: TranslationSurface,
    spread,
    n: int,
    seed: int,
) -> StratumSample:
    """Perturb free period coordinates by grid noise in [-spread, spread]^2,
    rebuild dependent edges, and keep surfaces that validate to the base
    signature.  The grid step is spread / 2^12, so the grid is dyadic only
    for a dyadic spread.  Every period is an int pair at one scale D, the
    lcm of the base's scale and the step's denominator; a candidate's
    Fractions are built once per edge, from those ints."""
    spread = to_fraction(spread)
    if spread < 0:
        raise InputError("spread must be nonnegative")
    _check_sample_count(n)
    if seed < 0:
        raise InputError("seed must be nonnegative")
    signature = base.validate()
    homology = base.homology()
    pairs, slot_sign, free_idx = homology.pairs, homology.slot_index, homology.free
    if len(free_idx) != signature.dim_relative_homology:
        raise InputError(
            f"free period count {len(free_idx)} does not match homology dimension"
        )
    # A tree edge's vector is the integer combination of free edge vectors
    # that its unit chain reduces to.
    dep_rows = {}
    for idx, slot in enumerate(pairs):
        if idx not in free_idx:
            cls = homology.class_of_slots([slot])
            dep_rows[idx] = [(j, cls[j]) for j in free_idx if cls[j]]
    step = spread / _GRID
    D = math.lcm(base.int_corners()[0], step.denominator)
    unit = step.numerator * (D // step.denominator)
    base_vals = [_ints(base.edge_vector(slot), D) for slot in pairs]
    # Slot (t, i) carries signed[2 idx] when it is pair idx's own slot and
    # signed[2 idx + 1], the negation, when it is the glued one.
    layout = [
        [2 * idx + (sign < 0) for idx, sign in (slot_sign[(t, i)] for i in range(3))]
        for t in range(base.n_triangles())
    ]
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > max(64, 4 * n) and len(out) < _MIN_ACCEPTANCE * attempts:
            raise AcceptanceRateError(
                f"acceptance rate {len(out)}/{attempts} below {_MIN_ACCEPTANCE}",
                accepted=len(out),
                attempts=attempts,
            )
        ks = rng.integers(-_GRID, _GRID + 1, size=(len(free_idx), 2)).tolist()
        vals = [None] * len(pairs)
        for idx, (kx, ky) in zip(free_idx, ks):
            x, y = base_vals[idx]
            vals[idx] = (x + unit * kx, y + unit * ky)
        for idx, combo in dep_rows.items():
            x = y = 0
            for j, coeff in combo:
                vx, vy = vals[j]
                x += coeff * vx
                y += coeff * vy
            vals[idx] = (x, y)
        signed = []
        for x, y in vals:
            signed += (_vec((x, y), D), _vec((-x, -y), D))
        tris = [Triangle((signed[e0], signed[e1], signed[e2])) for e0, e1, e2 in layout]
        cand = TranslationSurface(tris, base.gluings)
        try:
            sig = cand.validate()
        except SurfaceError:
            continue
        if sig != signature:
            continue
        out.append(cand)
    return StratumSample(tuple(out), seed, spread, attempts)


# --- transform evaluation ---------------------------------------------------


def _torus_values(matrices: np.ndarray, f: TestFunction) -> np.ndarray:
    """Transform of f on each lattice, one per row of the (n, 4) array."""
    if isinstance(f, DiscIndicator):
        return _disc_counts(matrices, to_float(f.r))
    if isinstance(f, AnnulusIndicator):
        return _disc_counts(matrices, to_float(f.r2)) - _disc_counts(matrices, to_float(f.r1))
    if isinstance(f, SectorIndicator):
        out = np.zeros(len(matrices))
        # The kernel yields exactly the sector's points under the float rule.
        for owner, xs, ys in kernels.primitive_points(matrices, to_float(f.support_radius()), default_budget(), f.cone):
            out += np.bincount(owner, minlength=len(out))
        return out
    if isinstance(f, ProductPair):
        return _torus_values(matrices, f.f) * _torus_values(matrices, f.g)
    raise InputError(f"unsupported test function {type(f).__name__} on torus samples")


def _disc_counts(matrices: np.ndarray, radius: float) -> np.ndarray:
    """One kernel call per lattice, on Python floats taken a block at a time."""
    budget = default_budget()
    block = 1024
    rows = (row for lo in range(0, len(matrices), block) for row in matrices[lo : lo + block].tolist())
    return np.fromiter(
        (kernels.count_primitive_in_disc(a, b, c, d, radius, budget) for a, b, c, d in rows),
        np.float64,
        len(matrices),
    )


def _values(samples, f: TestFunction, threads: int = 1) -> np.ndarray:
    """Transform values in sample order.  A HaarSample goes through its
    (n, 4) array and the vectorized kernel; each surface is scaled to unit
    area by ``sv.transform_report``.  ``threads`` spreads only surfaces
    over a thread pool."""
    if threads < 1:
        raise InputError(f"threads must be at least 1, got {threads}")
    if isinstance(samples, HaarSample):
        return _torus_values(samples.matrices, f)
    items = samples.surfaces if isinstance(samples, StratumSample) else tuple(samples)

    def eval_one(item):
        if not isinstance(item, TranslationSurface):
            raise InputError(f"unsupported sample type {type(item).__name__}")
        return transform_report(item, f, area(item)).value

    out = np.zeros(len(items))
    if threads == 1 or len(items) < 4:
        for i, item in enumerate(items):
            out[i] = eval_one(item)
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, val in enumerate(pool.map(eval_one, items, chunksize=64)):
            out[i] = val
    return out


def torus_count_values(samples, radius: float, threads: int = 1) -> np.ndarray:
    return _values(samples, DiscIndicator(to_fraction(radius)), threads=threads)


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class SampleReport:
    n_samples: int
    mean: float
    second_moment: float
    variance: float
    ci_radius: float
    seed: Optional[int]
    parameters: Dict[str, object] = field(default_factory=dict)
    algorithm: str = RNG_ALGORITHM

    def to_json_dict(self):
        return asdict(self)


def _report_from_values(values: np.ndarray, seed, params) -> SampleReport:
    n = len(values)
    if n == 0:
        return SampleReport(0, 0.0, 0.0, 0.0, 0.0, seed, params)
    mean = float(values.mean())
    second = float((values * values).mean())
    variance = max(second - mean * mean, 0.0)
    ci = 1.96 * math.sqrt(variance / n)
    return SampleReport(n, mean, second, variance, ci, seed, params)


def estimate_mean_transform(samples, f: TestFunction, threads: int = 1) -> SampleReport:
    """Sample mean of the transform.  Haar torus samples cover the whole
    measure, cusp included, so the mean needs no correction."""
    values = _values(samples, f, threads=threads)
    return _report_from_values(values, getattr(samples, "seed", None), {"f": f.to_json_dict()})


@dataclass(frozen=True)
class VarianceReport:
    radius: float
    l2_hat: float  # second moment of the count
    variance_hat: float  # L(R) - (c pi R^2)^2
    c_sv: float
    count_report: SampleReport

    def to_json_dict(self):
        return asdict(self)


def estimate_L2_and_variance(samples, radius: float, threads: int = 1) -> VarianceReport:
    """Second moment of the counting function and its excess over the
    squared analytic mean c pi R^2, c = `siegel_constant_torus()`."""
    c_sv = siegel_constant_torus()
    values = torus_count_values(samples, radius, threads=threads)
    rep = _report_from_values(values, getattr(samples, "seed", None), {"radius": radius})
    l_hat = rep.second_moment
    v_hat = l_hat - (c_sv * math.pi * radius * radius) ** 2
    return VarianceReport(radius, l_hat, v_hat, c_sv, rep)


@dataclass(frozen=True)
class TailHistogram:
    thresholds: Tuple[float, ...]  # sqrt(k), k = 1..K
    fractions: Tuple[float, ...]  # empirical exceedance of each threshold
    q_hat: Optional[float]
    fit_residual: Optional[float]
    degenerate: bool
    n_fit_points: int

    def to_json_dict(self):
        return asdict(self)


def tail_histogram(samples, f: TestFunction, k_max: int, threads: int = 1) -> TailHistogram:
    """Exceedance fractions of the transform over sqrt(k) thresholds with a
    power-law fit: slope of log-exceedance against log sqrt(k) over the
    resolvable range (fractions strictly inside (0, 1) with at least 5
    hits).  A k_max over the work budget is refused before any threshold is
    built."""
    if k_max < 1:
        raise InputError("k_max must be positive")
    budget = default_budget()
    if k_max > budget:
        raise ResourceLimitError(f"k_max {k_max} is over the budget of {budget}", k_max=k_max, budget=budget)
    values = _values(samples, f, threads=threads)
    n = len(values)
    thresholds = [math.sqrt(k) for k in range(1, k_max + 1)]
    fractions = [float(np.count_nonzero(values > t)) / n if n else 0.0 for t in thresholds]
    xs = []
    ys = []
    for t, frac in zip(thresholds, fractions):
        if 0.0 < frac < 1.0 and frac * n >= 5:
            xs.append(math.log(t))
            ys.append(math.log(frac))
    if len(xs) < 2 or len(set(ys)) < 2:
        return TailHistogram(tuple(thresholds), tuple(fractions), None, None, True, len(xs))
    A = np.stack([np.array(xs), np.ones(len(xs))], axis=1)
    coeffs, residuals, _, _ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    slope = float(coeffs[0])
    resid = math.sqrt(float(residuals[0]) / len(xs)) if len(residuals) else 0.0
    return TailHistogram(
        tuple(thresholds), tuple(fractions), -slope, resid, False, len(xs)
    )


@dataclass(frozen=True)
class BorelCantelliRow:
    radius: float
    variance_hat: float
    ratio: float  # V / e^2
    partial_sum: float
    error_bound: float  # e(R)
    empirical_exceedance: float
    binomial_ci: float

    def to_json_dict(self):
        return asdict(self)


def borel_cantelli_table(
    radii: Sequence[float],
    errors: Sequence[float],
    samples,
    threads: int = 1,
) -> List[BorelCantelliRow]:
    """Per-radius variance versus squared error budget, with the empirical
    exceedance of |N - c pi R^2| > e(R) alongside its Chebyshev bound,
    c = `siegel_constant_torus()`."""
    if len(samples) == 0:
        raise InputError("the Borel-Cantelli table needs at least one sample")
    if len(radii) != len(errors):
        raise InputError("radii and errors must have the same length")
    if any(e <= 0 for e in errors):
        raise InputError("error terms must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing")
    c_sv = siegel_constant_torus()
    rows = []
    partial = 0.0
    for radius, err in zip(radii, errors):
        values = torus_count_values(samples, radius, threads=threads)
        n = len(values)
        mean_target = c_sv * math.pi * radius * radius
        v_hat = float((values * values).mean()) - mean_target ** 2
        ratio = v_hat / (err * err)
        partial += ratio
        exceed = float(np.count_nonzero(np.abs(values - mean_target) > err)) / n
        ci = math.sqrt(max(exceed * (1 - exceed), 0.0) / n) + 1.0 / n
        rows.append(
            BorelCantelliRow(
                radius=float(radius),
                variance_hat=v_hat,
                ratio=ratio,
                partial_sum=partial,
                error_bound=float(err),
                empirical_exceedance=exceed,
                binomial_ci=ci,
            )
        )
    return rows
