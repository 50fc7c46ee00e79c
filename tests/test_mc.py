import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from saddlekit import mc
from saddlekit.builders import centered_octagon_h2
from saddlekit.errors import InputError
from saddlekit.geodesic import enumerate_connections
from saddlekit.surface import TranslationSurface, area
from saddlekit.sv import AnnulusIndicator, DiscIndicator, ProductPair, SectorIndicator, TestFunction


def test_stratum_sampler_rejects_invalid_surfaces_only(octagon, monkeypatch):
    validate = TranslationSurface.validate

    def broken_for_candidates(self):
        if self is octagon:
            return validate(self)
        raise RuntimeError("bug in validation")

    monkeypatch.setattr(TranslationSurface, "validate", broken_for_candidates)
    # A program error must surface, not be counted as a rejected candidate.
    with pytest.raises(RuntimeError):
        mc.sample_stratum_local(octagon, "0.05", 2, seed=7)


def test_stratum_sample_is_pinned(octagon):
    sample = mc.sample_stratum_local(octagon, "0.05", 50, seed=7)
    text = "\n".join(s.to_json() for s in sample.surfaces)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8a663023cf6973d012ab9553d24e994f3e1ca534a5e023670b6630998c40b4e2"
    )


def _reference_surface_value(s: TranslationSurface, f: TestFunction, budget=None) -> float:
    """Transform on the area-normalized surface, computed analytically:
    vectors scale by 1/sqrt(area), so membership tests are rescaled
    exactly instead of rescaling the surface."""
    a = area(s)
    if isinstance(f, ProductPair):
        return _reference_surface_value(s, f.f, budget) * _reference_surface_value(s, f.g, budget)
    support_sq = f.support_radius() ** 2 * a
    hs = enumerate_connections(s, radius_sq=support_sq, budget=budget)
    vectors = hs.vectors()
    if isinstance(f, DiscIndicator):
        r_sq = f.r * f.r * a
        return float(sum(1 for v in vectors if v.norm_sq() <= r_sq))
    if isinstance(f, AnnulusIndicator):
        lo_sq = f.r1 * f.r1 * a
        hi_sq = f.r2 * f.r2 * a
        return float(sum(1 for v in vectors if lo_sq < v.norm_sq() <= hi_sq))
    if isinstance(f, SectorIndicator):
        r_sq = f.r * f.r * a
        total = 0
        for v in vectors:
            if v.norm_sq() > r_sq:
                continue
            inside, amb = f.angular_inside(v)  # scale-free
            if inside and not amb:
                total += 1
        return float(total)
    raise InputError(f"unsupported test function {type(f).__name__} on surfaces")


@pytest.mark.parametrize(
    "f",
    [
        DiscIndicator(Fraction(6, 5)),
        AnnulusIndicator(Fraction(1, 2), Fraction(6, 5)),
        SectorIndicator(Fraction(6, 5), 0.3, 0.6),
        ProductPair(AnnulusIndicator(Fraction(2, 5), Fraction(1)), SectorIndicator(Fraction(6, 5), 0.3, 0.6)),
    ],
    ids=["disc", "annulus", "sector", "product"],
)
def test_stratum_values_equal_the_per_shape_reference(octagon, f):
    # At spread 0.2 these radii give 3 to 5 distinct values over the draws.
    sample = mc.sample_stratum_local(octagon, "0.2", 20, seed=7)
    want = np.array([_reference_surface_value(s, f) for s in sample.surfaces])
    assert len(set(want.tolist())) > 1
    assert mc._values(sample, f).tobytes() == want.tobytes()


def test_stratum_sampler_moves_a_marked_point_with_the_zero():
    # H(2, 0): the center of the octagon is a free period coordinate too.
    base = centered_octagon_h2()
    sample = mc.sample_stratum_local(base, "0.05", 20, seed=1)
    assert len(sample.surfaces) == 20
    for s in sample.surfaces:
        assert s.validate() == base.validate()
        assert s.validate().zero_orders == (2, 0)
    assert len({s.to_json() for s in sample.surfaces}) == 20


@pytest.mark.parametrize(
    "f",
    [SectorIndicator(Fraction(4), 0.3, 0.6), AnnulusIndicator(Fraction(2), Fraction(5))],
    ids=["sector", "annulus"],
)
def test_haar_mean_is_bit_identical_for_a_fixed_seed(f):
    reports = [
        json.dumps(mc.estimate_mean_transform(mc.sample_torus_haar(300, seed=11), f).to_json_dict())
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n_samples"] == 300


def reference_haar_matrices(n, seed, y_max):
    """The sampler one sample at a time: r(theta) times the base matrix,
    each entry composed in plain floats, with the 1e-12 determinant check."""
    rng = np.random.default_rng(seed)
    lo = math.sqrt(3.0) / 2.0
    rows = []
    while len(rows) < n:
        batch = max(16, int((n - len(rows)) * 1.2))
        xs = rng.uniform(-0.5, 0.5, batch)
        us = rng.uniform(0.0, 1.0, batch)
        ys = 1.0 / (1.0 / lo - us * (1.0 / lo - 1.0 / y_max))
        ths = rng.uniform(0.0, 2.0 * math.pi, batch)
        for x, y, th in zip(xs, ys, ths):
            if x * x + y * y < 1.0:
                continue
            if len(rows) >= n:
                break
            sy = math.sqrt(y)
            a0, b0, c0, d0 = 1.0 / sy, x / sy, 0.0, sy
            ct, st = math.cos(th), math.sin(th)
            a, b = ct * a0 + -st * c0, ct * b0 + -st * d0
            c, d = st * a0 + ct * c0, st * b0 + ct * d0
            assert abs(a * d - b * c - 1.0) <= 1e-12
            rows.append((a, b, c, d))
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize(
    "n, seed, y_max", [(1, 0, 2.0), (17, 3, 8.0), (500, 5, 1e6), (3000, 11, 50.0), (20000, 1011, 50.0)]
)
def test_haar_matrix_equals_the_object_loop_bit_for_bit(n, seed, y_max):
    got = mc.sample_torus_haar(n, seed, y_max).matrices
    want = reference_haar_matrices(n, seed, y_max)
    assert got.shape == want.shape == (n, 4)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


PINNED_HAAR_REPORTS = {
    "disc": (DiscIndicator(Fraction(6)), "9db298083744621fe2e7d5c8a739b89ec8b61d89ea55e39223d07d7efa6d7acc"),
    "annulus": (
        AnnulusIndicator(Fraction(2), Fraction(5)),
        "0493cc4b1fa8f2a03414d887b4a59e5d3ac493183df2e224a0af89ab2ebf762f",
    ),
    "sector": (
        SectorIndicator(Fraction(4), 0.3, 0.6),
        "160ebc0aac8769ee4f0712c34181b589c9bcd155c0a10e554b59994287b197f2",
    ),
    "pair": (
        ProductPair(DiscIndicator(Fraction(3)), SectorIndicator(Fraction(5), -1.0, 0.4)),
        "92d2f48220c5c0a73930bc8b69e966d77094ebf2c11f9c5837b8a44ea5552106",
    ),
}


def _sha(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def haar_3000():
    return mc.sample_torus_haar(3000, seed=11)


@pytest.mark.parametrize("name", sorted(PINNED_HAAR_REPORTS))
def test_haar_mean_report_is_pinned(name, haar_3000):
    # Digests of the per-sample kernel's reports, taken before the kernel
    # was vectorized.
    f, digest = PINNED_HAAR_REPORTS[name]
    assert _sha(mc.estimate_mean_transform(haar_3000, f).to_json_dict()) == digest


def test_sector_tail_histogram_is_pinned(haar_3000):
    hist = mc.tail_histogram(haar_3000, SectorIndicator(Fraction(6), 2.0, 0.7), 30)
    assert not hist.degenerate
    assert _sha(hist.to_json_dict()) == "fa1a433a51a99b14ee9c77450512126d6bb597e23ac133ca8a02a92f1fa0f8ce"


# Digests of the numpy row kernel's reports, taken before disc counts moved
# to the scalar Moebius row count.
PINNED_VARIANCE_REPORTS = {
    4: "eac196fc01dccf88237446c7d938ab084e708adf1ed720d27b6802920616d549",
    10: "0968c85f3abfc9f76430693b5bc61b06293a7949d202cf79b0c3f260a8f98e4a",
    20: "bd5f8d5a2896365f6cf2215f2ec2d7938f702cf1380ffade05c75e8c274a9dad",
}


@pytest.mark.parametrize("radius", sorted(PINNED_VARIANCE_REPORTS))
def test_variance_report_is_pinned(radius, haar_3000):
    report = mc.estimate_L2_and_variance(haar_3000, radius)
    assert _sha(report.to_json_dict()) == PINNED_VARIANCE_REPORTS[radius]


def test_borel_cantelli_table_is_pinned(haar_3000):
    rows = mc.borel_cantelli_table((4, 8, 16), (8, 16, 32), haar_3000)
    assert _sha([row.to_json_dict() for row in rows]) == (
        "04d417bbbcd83f5a662af43e11ae0f609e2472f359db4419b140834929cffed5"
    )


@pytest.mark.parametrize("job", ["mean", "borel-cantelli"])
def test_disc_counts_make_one_kernel_call_per_sample_and_radius(job, monkeypatch):
    # The traced benchmark pass expects kernels.count.calls to be exactly
    # samples x radii on the monte-carlo workload.
    samples = mc.sample_torus_haar(40, seed=3)
    count = mc.kernels.count_primitive_in_disc
    radii = []

    def counted(*args):
        radii.append(args[4])
        return count(*args)

    monkeypatch.setattr(mc.kernels, "count_primitive_in_disc", counted)
    if job == "mean":
        mc.estimate_mean_transform(samples, DiscIndicator(Fraction(6)))
        assert radii == [6.0] * 40
    else:
        mc.borel_cantelli_table((4, 8, 16), (8, 16, 32), samples)
        assert radii == [4.0] * 40 + [8.0] * 40 + [16.0] * 40
