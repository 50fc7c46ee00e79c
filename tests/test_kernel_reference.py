"""The half-plane lattice kernel against the whole-band per-sample kernel.

``reference_points`` is the per-sample kernel the package used before the
half-plane search and the batched sector path: every row -qmax..qmax, every
candidate of each row, the gcd taken of all of them.  Both kernels decide
membership by the same float expression, so they must agree exactly: the
points of each lattice as a set, and the counts.
"""

import math

import numpy as np

from saddlekit import kernels
from saddlekit.mc import sample_torus_haar

N_RADII = 50
PER_RADIUS = 2000  # 100k (lattice, radius) pairs in all
NEAR_CUSP = 500  # lattices of each batch drawn just below y_max
Y_MAX = 50.0


def reference_points(a, b, c, d, radius):
    """Images (x, y) of the primitive (p, q) with |M (p, q)| <= radius for
    M = [[a, b], [c, d]], as two float arrays in row order."""
    r2 = radius * radius
    fr = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    reach = radius * math.sqrt(fr) / det
    qmax = math.floor(reach) + 1
    A = a * a + c * c
    B = 2.0 * (a * b + c * d)
    C = b * b + d * d

    q = np.arange(-qmax, qmax + 1, dtype=np.int64)
    disc = B * B * (q * q).astype(np.float64) - 4.0 * A * (C * (q * q) - r2)
    keep = disc >= 0
    q = q[keep]
    disc = disc[keep]
    half = np.sqrt(disc) / (2.0 * A)
    mid = -B * q / (2.0 * A)
    plo = np.floor(mid - half).astype(np.int64) - 1
    phi = np.floor(mid + half).astype(np.int64) + 1
    counts = phi - plo + 1
    starts = np.cumsum(counts) - counts
    ps = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(plo - starts, counts)
    qs = np.repeat(q, counts)
    t1 = a * ps + b * qs
    t2 = c * ps + d * qs
    inside = (np.gcd(ps, qs) == 1) & (t1 * t1 + t2 * t2 <= r2)
    return t1[inside], t2[inside]


def near_cusp_lattices(n, rng):
    """r(theta) [[1/sqrt(y), x/sqrt(y)], [0, sqrt(y)]] with y within 0.1%
    below Y_MAX: the longest rows and thinnest lattices the sampler makes."""
    x = rng.uniform(-0.5, 0.5, n)
    y = Y_MAX * (1.0 - 1e-3 * rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    sy = np.sqrt(y)
    ct, st = np.cos(th), np.sin(th)
    return np.stack((ct / sy, ct * x / sy - st * sy, st / sy, st * x / sy + ct * sy), axis=1)


def sorted_points(matrices, owner, xs, ys):
    """The points ordered by owner, then by the (q, p) that M^-1 recovers.
    Equal arrays after this sort mean equal sets of points per owner."""
    a, b, c, d = (matrices[owner, i] for i in range(4))
    det = a * d - b * c
    p = np.rint((d * xs - b * ys) / det).astype(np.int64)
    q = np.rint((a * ys - c * xs) / det).astype(np.int64)
    span = 2 * max(int(np.abs(p).max(initial=0)), int(np.abs(q).max(initial=0))) + 1
    order = np.argsort((owner * span + q) * span + p, kind="stable")
    return owner[order], xs[order], ys[order]


def test_half_plane_kernels_match_the_whole_band_reference():
    rng = np.random.default_rng(20171)
    # Log-uniform radii: as many small discs, where rows are few and the
    # axis point matters most, as large ones.
    radii = np.exp(rng.uniform(math.log(0.5), math.log(20.0), N_RADII))
    radii[:2] = (0.5, 20.0)
    pairs = 0
    for k, radius in enumerate(radii.tolist()):
        haar = sample_torus_haar(PER_RADIUS - NEAR_CUSP, seed=k, y_max=(Y_MAX, 8.0, 2.0)[k % 3])
        matrices = np.concatenate((haar.matrices, near_cusp_lattices(NEAR_CUSP, rng)))
        ref = [reference_points(*row, radius) for row in matrices.tolist()]
        ref_counts = [xs.size for xs, _ in ref]
        counts = [kernels.count_primitive_in_disc(*row, radius) for row in matrices.tolist()]
        assert counts == ref_counts, f"radius {radius}"

        owner = np.repeat(np.arange(len(matrices)), ref_counts)
        expected = sorted_points(matrices, owner, np.concatenate([xs for xs, _ in ref]),
                                 np.concatenate([ys for _, ys in ref]))
        chunks = list(kernels.primitive_points(matrices, radius))
        got = sorted_points(matrices, *(np.concatenate(part) for part in zip(*chunks)))
        for want, have in zip(expected, got):
            assert np.array_equal(want, have), f"radius {radius}"
        pairs += len(matrices)
    assert pairs >= 100_000
