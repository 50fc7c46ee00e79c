import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_haar_matrices
from saddlekit import mc
from saddlekit.builders import centered_octagon_h2, square_torus, torus_from_matrix
from saddlekit.errors import AmbiguousMembershipError, InputError, ResourceLimitError
from saddlekit.exactplane import ExactMatrix
from saddlekit.geodesic import enumerate_connections
from saddlekit.homology import EdgeHomology
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


def _reference_surface_value(s: TranslationSurface, f: TestFunction) -> float:
    """Transform on the area-normalized surface, computed analytically:
    vectors scale by 1/sqrt(area), so membership tests are rescaled
    exactly instead of rescaling the surface."""
    a = area(s)
    if isinstance(f, ProductPair):
        return _reference_surface_value(s, f.f) * _reference_surface_value(s, f.g)
    support_sq = f.support_radius() ** 2 * a
    hs = enumerate_connections(s, radius_sq=support_sq)
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


def test_stratum_means_reduce_no_homology_class(octagon, monkeypatch):
    # A stratum surface's transform reads only its holonomy vectors.
    sample = mc.sample_stratum_local(octagon, "0.05", 20, seed=7)
    built = []
    init = EdgeHomology.__init__

    def counted(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(EdgeHomology, "__init__", counted)
    assert mc.estimate_mean_transform(sample, DiscIndicator(Fraction(1, 2))).n_samples == 20
    assert built == []


def test_an_ambiguous_stratum_sample_is_refused_with_its_index():
    # (1, 1) and (1, -1) lie on the sector's rays: sv.transform refuses the
    # square torus, and so does every estimator over surface samples.  The
    # sheared torus has no vector near a ray within the radius.
    f = SectorIndicator(3, 0.0, math.pi / 4)
    with pytest.raises(AmbiguousMembershipError) as exc:
        mc.estimate_mean_transform([square_torus()], f)
    assert exc.value.details == {"ambiguous": 2, "sample": 0}
    sheared = torus_from_matrix(ExactMatrix.of(1, Fraction(1, 3), 0, 1))
    assert mc.estimate_mean_transform([sheared], f).mean == 5
    for threads in (1, 2):
        with pytest.raises(AmbiguousMembershipError) as exc:
            mc.estimate_mean_transform([sheared] * 3 + [square_torus(), sheared], f, threads=threads)
        assert exc.value.details == {"ambiguous": 2, "sample": 3}


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


# sha256 of sample_torus_haar(n, seed, y_max).matrices from the sampler that
# truncated the cusp at y_max, which the kernel tests drew their lattices
# from; the truncated object loop must go on drawing them.
TRUNCATED_SAMPLER_DIGESTS = {
    (1, 0, 2.0): "0282b25b4d93a5f2fb4faecc528e8125ac2b58406a07a40f4f81275da0e6925d",
    (17, 3, 8.0): "be9a0c9672be966398443d0d1bb0b237eefd75166495ceec0ed1c2755765fc55",
    (500, 5, 1e6): "7ea25b648928567b129c3c0d67e30f0fb2c73d09d199cf0f98f2c16025188ff7",
    (3000, 11, 50.0): "855d02ae2de76dc0ff6f18a4a640479147266b0b3c2e07a0a6d977366b5237b9",
    (20000, 1011, 50.0): "a85db5c834b9c212b839f481cf2b9d0792fbd5ea867049edbefbb7b1c4e541e5",
}


@pytest.mark.parametrize("n, seed, y_max", list(TRUNCATED_SAMPLER_DIGESTS))
def test_haar_matrix_equals_the_object_loop_bit_for_bit(n, seed, y_max):
    got = mc.sample_torus_haar(n, seed).matrices
    want = reference_haar_matrices(n, seed)
    assert got.shape == want.shape == (n, 4)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    truncated = reference_haar_matrices(n, seed, y_max)
    assert hashlib.sha256(truncated.tobytes()).hexdigest() == TRUNCATED_SAMPLER_DIGESTS[n, seed, y_max]


PINNED_HAAR_REPORTS = {
    "disc": (DiscIndicator(Fraction(6)), "dc68f61c20dbe119a37550820765670e73602692293e7984581b49cc83e2d79c"),
    "annulus": (
        AnnulusIndicator(Fraction(2), Fraction(5)),
        "0b2322db5a9cff570ac85ac4f3dcb529b14ffab18bc90125ff098c6097931ef7",
    ),
    "sector": (
        SectorIndicator(Fraction(4), 0.3, 0.6),
        "25aeb0369801cdeb3a4fa134fe243f074135b7ebecb76d65ac9a7e5e6661a3be",
    ),
    "pair": (
        ProductPair(DiscIndicator(Fraction(3)), SectorIndicator(Fraction(5), -1.0, 0.4)),
        "954af026420a8a43d739c82d35560830eebe481732334f5cacf659a9cf1ca9ff",
    ),
}


def _sha(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def haar_3000():
    return mc.sample_torus_haar(3000, seed=11)


@pytest.mark.parametrize("name", sorted(PINNED_HAAR_REPORTS))
def test_haar_mean_report_is_pinned(name, haar_3000):
    # Digests taken when the sampler came to cover the whole cusp.  On these
    # 3000 lattices both kernels then matched the whole-band reference of
    # test_kernel_reference.py at every radius pinned in this file.
    f, digest = PINNED_HAAR_REPORTS[name]
    assert _sha(mc.estimate_mean_transform(haar_3000, f).to_json_dict()) == digest


def test_sector_tail_histogram_is_pinned(haar_3000):
    hist = mc.tail_histogram(haar_3000, SectorIndicator(Fraction(6), 2.0, 0.7), 30)
    assert not hist.degenerate
    assert _sha(hist.to_json_dict()) == "4180e51fb4d22cdbb6828db49ad3a3dbbf900aaa7a0469ca47f104b5657f6afc"


# Digests taken with the mean reports above, on the same lattices.
PINNED_VARIANCE_REPORTS = {
    4: "967ab5a178587c5712903be4006a950963c05613ef3e0bafd186b2db48af73df",
    10: "4a168e37012e9f534d0989b5e3bc3456f71d6a15218809f1c510298bbd2ec94e",
    20: "05336460dd30f85fb256d40c728f7f1938d806d84a0d50bf1c07529d2a510738",
}


@pytest.mark.parametrize("radius", sorted(PINNED_VARIANCE_REPORTS))
def test_variance_report_is_pinned(radius, haar_3000):
    report = mc.estimate_L2_and_variance(haar_3000, radius)
    assert _sha(report.to_json_dict()) == PINNED_VARIANCE_REPORTS[radius]


def test_borel_cantelli_table_is_pinned(haar_3000):
    rows = mc.borel_cantelli_table((4, 8, 16), (8, 16, 32), haar_3000)
    assert _sha([row.to_json_dict() for row in rows]) == (
        "83a62a888e6d8bf23ba984b3c52b2dc932a58eda281e047bf7f822e52c33a4f3"
    )


def exact_second_moment(radius):
    """E[N(R)^2] under the Haar measure, N(R) the primitive vectors of the
    lattice in the disc of radius R.  The pairs w = +-v give
    2 E[N] = 2 pi R^2 / zeta(2).  The primitive pairs of determinant k fall
    into phi(k) SL(2, Z) orbits, each of mean 1 / (k zeta(2)) times
    4 pi (sqrt(R^4 - k^2) - k arccos(k / R^2)), the measure of the pairs in
    the disc with that determinant; k and -k count alike."""
    zeta2 = math.pi**2 / 6
    r2 = radius * radius
    total = 2 * math.pi * r2 / zeta2
    for k in range(1, math.ceil(r2)):
        phi = sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
        total += 2 * phi / (k * zeta2) * 4 * math.pi * (math.sqrt(r2 * r2 - k * k) - k * math.acos(k / r2))
    return total


@pytest.fixture(scope="module")
def haar_100k():
    return mc.sample_torus_haar(100_000, seed=5)


@pytest.mark.parametrize("radius", [2.0, 4.0, 8.0])
def test_second_moment_is_within_three_standard_errors_of_the_exact_sum(radius, haar_100k):
    # A sample that leaves out the cusp above y = 50 reads 9.4, 23 and 100
    # standard errors high here.
    report = mc.estimate_L2_and_variance(haar_100k, radius)
    counts = mc.torus_count_values(haar_100k, radius)
    stderr = float(np.std(counts * counts)) / math.sqrt(len(counts))
    assert abs(report.l2_hat - exact_second_moment(radius)) < 3 * stderr


def test_below_radius_one_every_lattice_has_none_or_two_primitive_vectors(haar_100k):
    # Two independent primitive vectors span area at least 1 > R^2.
    counts = mc.torus_count_values(haar_100k, 0.99)
    assert set(counts.tolist()) == {0.0, 2.0}


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


@pytest.mark.parametrize("f", [
    DiscIndicator(Fraction(10) ** 400),
    AnnulusIndicator(1, Fraction(10) ** 400),
    SectorIndicator(Fraction(10) ** 400, 0.0, 0.5),
], ids=["disc", "annulus", "sector"])
def test_haar_transform_refuses_a_radius_beyond_the_float_range(f):
    with pytest.raises(InputError, match="beyond the float range"):
        mc.estimate_mean_transform(mc.sample_torus_haar(5, 1), f)


@pytest.mark.parametrize("n", [500_001, 10**9, 10**13])
@pytest.mark.parametrize("sampler", ["haar", "stratum"])
def test_sample_counts_over_the_budget_are_refused_before_allocating(sampler, n, octagon):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            if sampler == "haar":
                mc.sample_torus_haar(n, 1)
            else:
                mc.sample_stratum_local(octagon, "0.05", n, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert exc.value.details == {"samples": n, "budget": 500_000}


def test_the_sample_count_budget_reads_the_environment(monkeypatch):
    monkeypatch.setenv("SADDLEKIT_BUDGET", "40")
    assert len(mc.sample_torus_haar(40, 1)) == 40
    with pytest.raises(ResourceLimitError):
        mc.sample_torus_haar(41, 1)
