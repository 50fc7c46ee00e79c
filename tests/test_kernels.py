import math

import pytest

from saddlekit import kernels
from saddlekit.mc import sample_torus_haar


def brute_force_count(a, b, c, d, radius):
    """Primitive (p, q) with |(a p + b q, c p + d q)| <= radius, by the same
    float membership test as the kernels."""
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


@pytest.mark.parametrize("name", sorted(kernels.backends()))
def test_backend_matches_brute_force_on_haar_samples(name):
    backend = kernels.backends()[name]
    for point in sample_torus_haar(6, seed=3, y_max=8.0).points:
        g = point.g
        for radius in (1.0, 2.5, 6.0):
            expected = brute_force_count(g.a, g.b, g.c, g.d, radius)
            assert backend.count_primitive_in_disc(g.a, g.b, g.c, g.d, radius) == expected
