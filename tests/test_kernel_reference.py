"""The half-plane lattice kernel against the whole-band per-sample kernel.

``reference_points`` is the per-sample kernel the package used before the
half-plane search and the batched sector path: every row -qmax..qmax, every
candidate of each row, the gcd taken of all of them.  Both kernels decide
membership by the same float expression, so they must agree exactly: the
points of each lattice as a set, and the counts.
"""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_haar_matrices
from saddlekit import kernels
from saddlekit.mc import sample_torus_haar
from saddlekit.sv import SectorIndicator

N_RADII = 50
PER_RADIUS = 2000  # 100k (lattice, radius) pairs in all
NEAR_CUSP = 500  # lattices of each batch drawn just below Y_MAX
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


def near_cusp_lattices(n, rng, y=None):
    """r(theta) [[1/sqrt(y), x/sqrt(y)], [0, sqrt(y)]] with y within 0.1%
    below Y_MAX, thin lattices with long rows, as deep as the whole-band
    reference can afford; or at the given height y."""
    x = rng.uniform(-0.5, 0.5, n)
    if y is None:
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
        haar = reference_haar_matrices(PER_RADIUS - NEAR_CUSP, k, (Y_MAX, 8.0, 2.0)[k % 3])
        matrices = np.concatenate((haar, near_cusp_lattices(NEAR_CUSP, rng)))
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


def test_lattices_past_the_no_hole_bound_test_each_point():
    # det 1 and A = a^2 + c^2 near 1e-5: the bound 32u k^2 r^2 is far above
    # A, and row q = 1 still meets the disc, some 10^5 points long.
    for a, c, b in ((0.003, 0.001, 0.3), (0.0031, 0.0007, -0.41), (0.002, 0.0024, 0.77)):
        d = (1.0 + b * c) / a
        A = a * a + c * c
        k = (a * a + b * b + c * c + d * d) / abs(a * d - b * c)
        for radius in (350.0, 610.0):
            assert A <= 32.0 * 2.0**-53 * k * k * radius * radius
            assert radius * math.sqrt(A) > 1.0
            xs, _ = reference_points(a, b, c, d, radius)
            assert kernels.count_primitive_in_disc(a, b, c, d, radius) == xs.size


def test_counts_do_not_depend_on_how_the_divisor_table_grew(monkeypatch):
    matrices = np.concatenate(
        (sample_torus_haar(40, seed=5).matrices, near_cusp_lattices(10, np.random.default_rng(3)))
    ).tolist()
    monkeypatch.setattr(kernels, "_DIVISORS", [()])
    first = [kernels.count_primitive_in_disc(*row, 40.0) for row in matrices]
    grown = len(kernels._DIVISORS)

    monkeypatch.setattr(kernels, "_DIVISORS", [()])
    kernels.count_primitive_in_disc(1.0, 0.0, 0.0, 1.0, 2.5)
    assert 1 < len(kernels._DIVISORS) < grown
    after = [kernels.count_primitive_in_disc(*row, 40.0) for row in matrices]
    assert after == first
    assert first == [reference_points(*row, 40.0)[0].size for row in matrices]


def test_one_count_near_the_cusp_stays_small_in_memory(monkeypatch):
    # The numpy row kernel took about 150 kB here; the row count holds a
    # few floats and ints, plus the divisor table it grows.
    row = near_cusp_lattices(1, np.random.default_rng(7))[0].tolist()
    monkeypatch.setattr(kernels, "_DIVISORS", [()])
    tracemalloc.start()
    try:
        count = kernels.count_primitive_in_disc(*row, 40.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == reference_points(*row, 40.0)[0].size
    assert peak < 16 * 1024


def test_threads_growing_the_divisor_table_count_alike(monkeypatch):
    # Each thread starts from the smallest table and grows it on its own;
    # a half-built or lost table would show as a wrong count.
    matrices = reference_haar_matrices(8, 9, 2.0).tolist()
    radii = (5.0, 20.0, 40.0, 80.0)
    want = [[reference_points(*row, r)[0].size for r in radii] for row in matrices]
    monkeypatch.setattr(kernels, "_DIVISORS", [()])
    got = {}

    def work(i):
        got[i] = [[kernels.count_primitive_in_disc(*row, r) for r in radii] for row in matrices[i:] + matrices[:i]]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert [got[i] for i in range(6)] == [want[i:] + want[:i] for i in range(6)]


# Adversarial lattices for the row certificate, each count compared with
# testing every candidate.  The integer shears S keep the lattice and move
# its points to other rows, where the float roots round differently.
SHEARS = ((1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 2, 1), (2, 1, 1, 1), (1, -3, 1, -2))


def times(m, s):
    a, b, c, d = m
    e, f, g, h = s
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def nearby_radii(radius, steps=4):
    """radius and its float neighbours up to ``steps`` ulps either way."""
    out, down, up = [radius], radius, radius
    for _ in range(steps):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def assert_counts_match(lattices, radii):
    for m in lattices:
        for radius in radii:
            want = reference_points(*m, radius)[0].size
            assert kernels.count_primitive_in_disc(*m, radius) == want, (m, radius)


@pytest.mark.parametrize("cos, sin", [(1.0, 0.0), (3 / 5, 4 / 5), (5 / 13, 12 / 13)], ids=["identity", "3-4-5", "5-12-13"])
@pytest.mark.parametrize("radius", [5.0, 25.0, 65.0])
def test_circles_through_lattice_points_match_the_reference(cos, sin, radius):
    # Every circle of radius 5, 25 or 65 about 0 passes through primitive
    # points of Z^2, so under an exact rotation many float roots sit within
    # rounding of an integer.
    turn = (cos, -sin, sin, cos)
    assert_counts_match([times(turn, s) for s in SHEARS], nearby_radii(radius))


def rotation(th):
    return (math.cos(th), -math.sin(th), math.sin(th), math.cos(th))


def tangent_lattices(n, rng):
    """n pairs (m, radius): r(th) [[x, -x p / q], [0, 1 / x]] maps the
    primitive (p, q) to a point where the circle through it touches row q.
    The shear by j moves that point to p - j q, and its long second column
    gives the row's disc a rounding error far above the test's, so near the
    tangent point the float roots are mostly rounding error."""
    out = []
    while len(out) < n:
        x = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        q = int(rng.integers(2, 12))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        j = int(rng.integers(5, 60)) * int(rng.choice((-1, 1)))
        m = times(times(rotation(rng.uniform(0.0, 2.0 * math.pi)), (x, -x * p / q, 0.0, 1 / x)), (1, j, 0, 1))
        a, b, c, d = m
        t1, t2 = a * (p - j * q) + b * q, c * (p - j * q) + d * q
        out.append((m, math.sqrt(t1 * t1 + t2 * t2)))
    return out


def test_tangent_rows_match_the_reference():
    # Integer radii on the identity: row q = R touches the circle at p = 0.
    assert_counts_match([(1.0, 0.0, 0.0, 1.0)], [float(r) for r in range(1, 41)])
    for m, radius in tangent_lattices(60, np.random.default_rng(41)):
        assert_counts_match([m], nearby_radii(radius, 1))


def bound_lattices(margin, n, rng):
    """n pairs (m, radius) with A = margin * 32u k^2 r^2, about t rows
    meeting the disc (k is near 1 / x^2) and 1 < r sqrt(A) < 40."""
    out = []
    for _ in range(n):
        t, b, th = rng.uniform(1.5, 20.0), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 2.0 * math.pi)
        x = (t * math.sqrt(margin * 32.0 * 2.0**-53)) ** 0.25
        m = times(rotation(th), (x, b, 0.0, 1 / x))
        a, b, c, d = m
        k = (a * a + b * b + c * c + d * d) / abs(a * d - b * c)
        out.append((m, math.sqrt((a * a + c * c) / (margin * 32.0 * 2.0**-53)) / k))
    return out


@pytest.mark.parametrize("margin", [1.001, 1e4, 1e6])
def test_lattices_just_past_the_no_hole_bound_match_the_reference(margin):
    # A = margin * 32u k^2 r^2: rows of thousands of points, with the
    # certificate's floor on half from far above every row to a few units.
    for m, radius in bound_lattices(margin, 6, np.random.default_rng(23)):
        a, b, c, d = m
        A = a * a + c * c
        k = (a * a + b * b + c * c + d * d) / abs(a * d - b * c)
        assert 32.0 * 2.0**-53 * k * k * radius * radius < A
        assert 1.0 < radius * math.sqrt(A) < 40.0
        assert_counts_match([m], [radius, radius * (1.0 + 1e-9)])


@pytest.mark.parametrize("radius", [5.0, 25.0, 65.0])
def test_near_cusp_lattices_match_the_reference(radius):
    assert_counts_match(near_cusp_lattices(40, np.random.default_rng(int(radius))).tolist(), nearby_radii(radius, 1))


def assert_points_match(matrices, radius, owner, xs, ys):
    """The batched kernel's points are the given ones, as sets per owner."""
    want = sorted_points(matrices, owner, xs, ys)
    got = sorted_points(matrices, *(np.concatenate(part) for part in zip(*kernels.primitive_points(matrices, radius))))
    for w, g in zip(want, got):
        assert np.array_equal(w, g), radius


@pytest.mark.parametrize("radius", [4.0, 40.0])
@pytest.mark.parametrize("y", [1e8, 1e12, 1e15])
def test_deep_cusp_lattices_hold_their_first_column_and_walk_no_row(y, radius, monkeypatch):
    # The lattice lines parallel to the first column lie sqrt(y) apart, so
    # only +-(a, c) is in the disc.  Walked, the rows would number R sqrt(y)
    # or more; a budget of one row refuses that.
    monkeypatch.setenv("SADDLEKIT_BUDGET", "1")
    matrices = near_cusp_lattices(8, np.random.default_rng(int(math.log10(y))), y)
    assert [kernels.count_primitive_in_disc(*m, radius) for m in matrices.tolist()] == [2] * 8
    a, c = matrices[:, 0], matrices[:, 2]
    assert_points_match(matrices, radius, np.tile(np.arange(8), 2), np.concatenate((a, -a)), np.concatenate((c, -c)))


@pytest.mark.parametrize("y", [2.0, 50.0, 1e3, 1e4])
def test_lattices_at_the_cusp_rules_margin_match_the_reference(y):
    # Radii where det^2 - A r^2 is t times the rule's bound 24u A C: row
    # q = 1 is cut (t < 0) or touched (t = 0), or all but touched.  Up to
    # t = 1 the rows are walked; past it no row's float disc is nonnegative.
    rng = np.random.default_rng(int(y))
    for m in near_cusp_lattices(4, rng, y):
        a, b, c, d = m.tolist()
        det, A, C = abs(a * d - b * c), a * a + c * c, b * b + d * d
        for t in (-0.5, 0.0, 0.1, 0.5, 2.0, 10.0):
            bound = 24.0 * 2.0**-53 * t
            radius = math.sqrt((det * det - bound * A * C) / (A * (1.0 + bound)))
            in_cusp = kernels._in_the_cusp(det, A, C, radius * radius)
            assert in_cusp == (t > 1)
            assert_counts_match([m.tolist()], nearby_radii(radius, 1))
            xs, ys = reference_points(a, b, c, d, radius)
            assert_points_match(m[None, :], radius, np.zeros(xs.size, np.int64), xs, ys)
            if in_cusp:
                qmax = math.floor(radius * math.sqrt(A + C) / det) + 1
                q = np.arange(1.0, qmax + 1)
                start, end = kernels._windows(q, *(np.full(qmax, v) for v in (a, b, c, d)), radius * radius, radius)
                assert (start > end).all()


# (theta, half_angle) of the sectors the cone mode is checked on: a ray
# along the identity's rows (theta - half_angle = 0, so alpha = 0), rays
# through its points (1, +-1), a half-angle close to pi/2, one whose rays
# round to opposite ones, a thin sector.
SECTORS = (
    (0.3, 0.4), (2.0, 0.7), (-1.0, 1.2), (0.5, 0.5), (0.0, math.pi / 4), (1.0, math.pi / 2 - 1e-6),
    (0.7, math.nextafter(math.pi / 2, 0.0)), (3.0, 1e-3),
)


def signed_keys(matrices, owner, xs, ys):
    """For each point, int keys of (owner, p, q) and of (owner, -p, -q),
    with the (p, q) that M^-1 recovers."""
    a, b, c, d = (matrices[owner, i] for i in range(4))
    det = a * d - b * c
    p = np.rint((d * xs - b * ys) / det).astype(np.int64)
    q = np.rint((a * ys - c * xs) / det).astype(np.int64)
    span = 2 * max(int(np.abs(p).max(initial=0)), int(np.abs(q).max(initial=0))) + 1
    return (owner * span + q) * span + p, (owner * span - q) * span - p


def assert_the_cone_mode_counts_as_the_disc(matrices, radius):
    """For each sector: the cone mode yields exactly the disc's points that
    pass the cone's float test, never both of +-v, and so the sector counts
    the same points in both modes."""
    matrices = np.asarray(matrices, dtype=np.float64).reshape(-1, 4)
    disc = [np.concatenate(part) for part in zip(*kernels.primitive_points(matrices, radius))]
    for theta, half in SECTORS:
        f = SectorIndicator(Fraction(radius), theta, half)
        (lx, ly), (hx, hy) = cone = tuple((float(v.x), float(v.y)) for v in (f.ray_lo, f.ray_hi))
        owner, xs, ys = disc
        passes = (lx * ys - ly * xs > 0) & (xs * hy - ys * hx > 0)
        want = sorted_points(matrices, owner[passes], xs[passes], ys[passes])
        got = [np.concatenate(part) for part in zip(*kernels.primitive_points(matrices, radius, cone=cone))]
        for w, g in zip(want, sorted_points(matrices, *got)):
            assert np.array_equal(w, g), (theta, half, radius)
        plus, minus = signed_keys(matrices, *got)
        assert not np.isin(plus, minus).any(), (theta, half, radius)
        counted = []
        for owner, xs, ys in (disc, got):
            vals, amb = f.evaluate_batch(xs, ys, 1e-12)
            keep = (vals == 1) & ~amb
            counted.append(sorted_points(matrices, owner[keep], xs[keep], ys[keep]))
        for w, g in zip(*counted):
            assert np.array_equal(w, g), (theta, half, radius)


def lattices_through_the_rays(n, rng):
    """n lattices for each ray of each of SECTORS, with a point M (p0, 1)
    on that ray up to the rounding of the second column t ray - p0 col1: the
    float cross product there is a few ulps either side of 0."""
    out = []
    for theta, half in SECTORS:
        f = SectorIndicator(Fraction(1), theta, half)
        for ray in (f.ray_lo, f.ray_hi):
            rx, ry = float(ray.x), float(ray.y)
            for _ in range(n):
                th, x = rng.uniform(0.0, 2.0 * math.pi), math.exp(rng.uniform(-1.0, 1.0))
                a, c = x * math.cos(th), x * math.sin(th)
                p0, t = int(rng.integers(-3, 4)), rng.uniform(0.5, 3.0)
                if abs(a * ry - c * rx) > 1e-3:
                    out.append((a, t * rx - p0 * a, c, t * ry - p0 * c))
    return out


def test_the_cone_mode_counts_as_the_disc():
    rng = np.random.default_rng(5)
    families = {
        "haar": [(sample_torus_haar(300, seed=11).matrices, r) for r in (0.7, 3.0, 8.0)],
        "truncated haar": [(reference_haar_matrices(300, 4, 8.0), r) for r in (2.5, 12.0)],
        "near cusp": [(near_cusp_lattices(40, rng), r) for r in (5.0, 25.0)],
        "identity": [([1.0, 0.0, 0.0, 1.0], r) for r in (1.0, math.sqrt(2.0), 3.0, 5.0, 25.0)],
        "circles": [
            ([times(turn, s) for s in SHEARS], r)
            for turn in ((3 / 5, -4 / 5, 4 / 5, 3 / 5), (5 / 13, -12 / 13, 12 / 13, 5 / 13))
            for r in nearby_radii(25.0, 1)
        ],
        "tangent rows": tangent_lattices(20, rng),
        "at the no-hole bound": bound_lattices(1.001, 2, rng) + bound_lattices(0.999, 2, rng),
        "through the rays": [(lattices_through_the_rays(30, rng), 4.0)],
    }
    for name, cases in families.items():
        for matrices, radius in cases:
            assert_the_cone_mode_counts_as_the_disc(matrices, radius)
