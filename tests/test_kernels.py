import math
import tracemalloc

import numpy as np
import pytest

from saddlekit import kernels
from saddlekit.errors import ResourceLimitError
from saddlekit.mc import sample_torus_haar


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


def test_kernel_matches_brute_force_on_haar_samples():
    for point in sample_torus_haar(6, seed=3, y_max=8.0).points:
        g = point.g
        for radius in (1.0, 2.5, 6.0):
            expected = brute_force_count(g.a, g.b, g.c, g.d, radius)
            assert kernels.count_primitive_in_disc(g.a, g.b, g.c, g.d, radius) == expected


def test_points_match_the_square_reference_on_haar_samples():
    for point in sample_torus_haar(60, seed=11).points:
        entries = point.g.entries()
        for radius in (0.5, 4.0, 8.0):
            xs, ys = kernels.primitive_points(*entries, radius)
            rx, ry = reference_points(*entries, radius)
            assert sorted(zip(xs.tolist(), ys.tolist())) == sorted(zip(rx.tolist(), ry.tolist()))
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
