import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_haar_matrices
from saddlekit import kernels
from saddlekit.errors import InputError, ResourceLimitError, SingularMatrixError
from saddlekit.mc import estimate_mean_transform, sample_torus_haar
from saddlekit.sv import SectorIndicator


def brute_force_count(a, b, c, d, radius):
    """Primitive (p, q) with |(a p + b q, c p + d q)| <= radius, by the same
    float membership test as the kernel."""
    r2 = radius * radius
    # |M v| >= |v| det / |M|_F, so |p|, |q| <= radius |M|_F / det.
    bound = int(radius * math.sqrt(a * a + b * b + c * c + d * d) / abs(a * d - b * c)) + 1
    total = 0
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if math.gcd(p, q) != 1:
                continue
            t1 = a * p + b * q
            t2 = c * p + d * q
            if t1 * t1 + t2 * t2 <= r2:
                total += 1
    return total


def reference_points(a, b, c, d, radius):
    """Images of the primitive points in the disc, from the whole square of
    candidates |p|, |q| <= bound rather than the kernel's row band."""
    fr = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    bound = int(math.floor(radius * math.sqrt(fr) / det)) + 1
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    px, py = np.meshgrid(rng, rng, indexing="ij")
    px = px.ravel()
    py = py.ravel()
    prim = np.gcd(np.abs(px), np.abs(py)) == 1
    px, py = px[prim], py[prim]
    ix = a * px + b * py
    iy = c * px + d * py
    keep = ix * ix + iy * iy <= radius * radius
    return ix[keep], iy[keep]


def points_by_owner(matrices, radius):
    """The batched kernel's points as one sorted list per matrix."""
    found = [[] for _ in range(len(matrices))]
    for owner, xs, ys in kernels.primitive_points(matrices, radius):
        for i, x, y in zip(owner.tolist(), xs.tolist(), ys.tolist()):
            found[i].append((x, y))
    return [sorted(pts) for pts in found]


def test_kernel_matches_brute_force_on_haar_samples():
    for a, b, c, d in reference_haar_matrices(6, 3, 8.0).tolist():
        for radius in (1.0, 2.5, 6.0):
            expected = brute_force_count(a, b, c, d, radius)
            assert kernels.count_primitive_in_disc(a, b, c, d, radius) == expected


def test_points_match_the_square_reference_on_haar_samples():
    matrices = sample_torus_haar(60, seed=11).matrices
    for radius in (0.5, 4.0, 8.0):
        batched = points_by_owner(matrices, radius)
        for entries, got in zip(matrices.tolist(), batched):
            rx, ry = reference_points(*entries, radius)
            assert got == sorted(zip(rx.tolist(), ry.tolist()))
            assert kernels.count_primitive_in_disc(*entries, radius) == rx.size


@pytest.mark.parametrize("radius", [1e300, 1e308])
def test_huge_radius_is_refused_before_allocating(radius):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            kernels.count_primitive_in_disc(1.0, 0.5, 0.0, 1.0, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert float(exc.value.details["rows"]) > np.iinfo(np.intp).max


@pytest.mark.parametrize("radius", [1e300, math.nan])
def test_batched_kernel_refuses_a_huge_radius_before_allocating(radius):
    matrices = sample_torus_haar(50, seed=2).matrices
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            next(kernels.primitive_points(matrices, radius))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert float(exc.value.details["rows"]) > np.iinfo(np.intp).max


def test_batched_kernel_refuses_one_singular_row():
    matrices = np.array(sample_torus_haar(50, seed=2).matrices)
    matrices[17] = (1.0, 2.0, 0.5, 1.0)
    with pytest.raises(SingularMatrixError):
        next(kernels.primitive_points(matrices, 4.0))


def test_sector_mean_over_20k_samples_keeps_memory_flat():
    # The sample's 2.5 million points at R = 8 take 60 MB as owner, x and y
    # arrays; the batched kernel holds one chunk of rows at a time.
    samples = sample_torus_haar(20000, seed=11)
    f = SectorIndicator(Fraction(8), 0.3, 0.4)
    tracemalloc.start()
    try:
        estimate_mean_transform(samples, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * (1 << 20)


def test_a_half_plane_sector_over_20k_samples_keeps_memory_flat():
    # The widest sector: its rays round to opposite ones, so the cone cuts
    # each row only to a half plane, 1.2 million points at R = 8; the
    # kernel still tests a bounded number of candidates at a time.
    samples = sample_torus_haar(20000, seed=11)
    f = SectorIndicator(Fraction(8), 0.3, math.nextafter(math.pi / 2, 0.0))
    tracemalloc.start()
    try:
        estimate_mean_transform(samples, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * (1 << 20)


def test_negative_radius_is_an_input_error_in_both_kernels():
    with pytest.raises(InputError):
        kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, -5.0)
    with pytest.raises(InputError):
        next(kernels.primitive_points([[1.0, 0.0, 0.0, 1.0]], -5.0))


def test_radius_zero_holds_no_point_and_nan_is_refused():
    assert kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, 0.0) == 0
    assert sum(owner.size for owner, _, _ in kernels.primitive_points([[1.0, 0.0, 0.0, 1.0]], 0.0)) == 0
    with pytest.raises(ResourceLimitError):
        kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, math.nan)


@pytest.mark.parametrize(
    "entries, radius",
    [((1e100, 0.0, 0.0, 1e100), 1e103), ((1e-163, 0.0, 0.0, 1e10), 1e-160)],
    ids=["disc-overflows", "A-underflows"],
)
def test_rows_outside_the_float_range_are_refused(entries, radius):
    # A row meets the disc with bounds mid -+ half at inf or NaN: both
    # kernels refuse the lattice alike, and neither warns first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError, match="leaves the float64 range on this lattice"):
            kernels.count_primitive_in_disc(*entries, radius)
        with pytest.raises(ResourceLimitError, match="leaves the float64 range on this lattice"):
            list(kernels.primitive_points([entries], radius))


def test_rows_that_miss_the_disc_may_have_infinite_bounds():
    # A = 1e-320 is subnormal, so mid = -B q / 2A is -inf in every row; no
    # row meets the disc, and both kernels count the axis pair alone.
    entries, radius = (1e-160, 1e150, 0.0, 1e150), 1e-159
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.count_primitive_in_disc(*entries, radius) == 2
        assert sum(owner.size for owner, _, _ in kernels.primitive_points([entries], radius)) == 2


@pytest.mark.parametrize(
    "entries",
    [(1e200, 0.0, 0.0, 1e-200), (1e-200, 0.0, 0.0, 1e200), (1e300, 1e300, 1e-300, 3e-300)],
    ids=["wide", "tall", "skewed"],
)
def test_huge_entries_are_refused_without_a_warning_in_both_kernels(entries):
    # |M|_F^2 overflows to inf: both kernels refuse the lattice, and neither
    # warns about the overflow first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError):
            kernels.count_primitive_in_disc(*entries, 1.0)
        with pytest.raises(ResourceLimitError):
            next(kernels.primitive_points([entries], 1.0))


def test_a_lattice_of_1e8_rows_is_refused_within_a_second():
    # The points (0, q), q = 1..10^8, of its short second column are in the
    # disc, each in a row of its own.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as exc:
        kernels.count_primitive_in_disc(1e8, 0.0, 0.0, 1e-8, 1.0)
    assert time.perf_counter() - start < 1.0
    assert exc.value.details["rows"] > exc.value.details["budget"] == 500_000


def test_the_row_budget_is_exact_and_read_from_the_environment(monkeypatch):
    # The identity at radius 20 walks rows 1..21 after the row cutoff.
    assert kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, 20.0, budget=21) == 768
    with pytest.raises(ResourceLimitError) as exc:
        kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, 20.0, budget=20)
    assert (exc.value.details["rows"], exc.value.details["budget"]) == (21, 20)
    monkeypatch.setenv("SADDLEKIT_BUDGET", "20")
    with pytest.raises(ResourceLimitError):
        kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, 20.0)


def rows_walked(kernel_call):
    """The rows a kernel call needs, read from its refusal at budget 0."""
    try:
        kernel_call(0)
    except ResourceLimitError as exc:
        return exc.details["rows"]
    return 0


def test_both_kernels_walk_and_budget_the_same_rows():
    # The identity at radius 20 walks rows 1..21 after the row cutoff in
    # both kernels; the Frobenius bound alone would walk 29.
    identity = [[1.0, 0.0, 0.0, 1.0]]
    assert sum(owner.size for owner, _, _ in kernels.primitive_points(identity, 20.0, budget=21)) == 768
    with pytest.raises(ResourceLimitError) as exc:
        next(kernels.primitive_points(identity, 20.0, budget=20))
    assert (exc.value.details["rows"], exc.value.details["budget"]) == (21, 20)
    # Lattice by lattice, in the cusp, at the no-hole bound and past it.
    lattices = np.concatenate((
        sample_torus_haar(300, seed=11).matrices,
        reference_haar_matrices(100, 3, 8.0),
        [[0.003, 0.3, 0.001, (1.0 + 0.3 * 0.001) / 0.003], [1e8, 0.0, 0.0, 1e-8]],
    ))
    for radius in (0.5, 2.0, 8.0, 20.0, 350.0):
        for m in lattices.tolist():
            scalar = rows_walked(lambda budget: kernels.count_primitive_in_disc(*m, radius, budget))
            batched = rows_walked(lambda budget: next(kernels.primitive_points([m], radius, budget), None))
            assert scalar == batched, (m, radius)


@pytest.mark.parametrize(
    "cone",
    [((0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1e-200)), ((1.0, 0.0), (0.0, math.inf)),
     ((math.nan, 0.0), (0.0, 1.0))],
    ids=["zero-ray", "tiny-ray", "infinite-ray", "nan-ray"],
)
def test_the_batched_kernel_refuses_a_cone_ray_out_of_range(cone):
    with pytest.raises(InputError):
        next(kernels.primitive_points([[1.0, 0.0, 0.0, 1.0]], 2.0, cone=cone))


def test_a_sector_whose_rays_round_to_opposite_ones_counts_as_the_whole_disc():
    # Half-angle just below pi/2: the rays round to (0, -1) and (0, 1), and
    # the cone they bound is the open half plane x > 0.  The sector counts
    # the points of the full disc walk in it.
    half = math.nextafter(math.pi / 2, 0.0)
    f = SectorIndicator(Fraction(4), 0.0, half)
    assert f.ray_lo.cross(f.ray_hi) == 0
    assert f.cone == ((0.0, -1.0), (0.0, 1.0))
    samples = sample_torus_haar(200, seed=3)
    want = np.zeros(len(samples))
    for owner, xs, ys in kernels.primitive_points(samples.matrices, 4.0):
        want += np.bincount(owner[xs > 0], minlength=len(want))
    assert estimate_mean_transform(samples, f).mean == want.mean() > 0


def test_batched_kernel_refuses_one_lattice_over_the_budget():
    matrices = np.array(sample_torus_haar(50, seed=2).matrices)
    matrices[17] = (1e8, 0.0, 0.0, 1e-8)
    with pytest.raises(ResourceLimitError) as exc:
        next(kernels.primitive_points(matrices, 1.0))
    assert exc.value.details["rows"] > exc.value.details["budget"] == 500_000


def test_divisor_table_matches_brute_force_to_1e4(monkeypatch):
    n = 10**4
    mobius = [0] * (n + 1)
    for m in range(1, n + 1):
        rest, sign, p = m, 1, 2
        while p * p <= rest:
            if rest % p == 0:
                rest //= p
                sign = 0 if rest % p == 0 else -sign
            p += 1
        mobius[m] = -sign if rest > 1 else sign
    monkeypatch.setattr(kernels, "_DIVISORS", [()])
    table = kernels._divisor_table(n, n)
    assert len(table) == n + 1
    for q in range(1, n + 1):
        small = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
        divisors = set(small) | {q // d for d in small}
        # Row q is (plus, minus); the divisor d = 1, mu(1) = 1, is in neither.
        plus, minus = table[q]
        assert sorted(plus) == sorted(d for d in divisors if d > 1 and mobius[d] == 1), q
        assert sorted(minus) == sorted(d for d in divisors if mobius[d] == -1), q
