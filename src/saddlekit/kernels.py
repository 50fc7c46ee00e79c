"""The vectorized lattice kernel: primitive points of M Z^2 in a disc.

One numpy routine serves every float lattice in the package.  Rows q run
over |q| <= qmax, the bound that |M v| <= radius puts on a coordinate; in
each row the p candidates are the real roots of the disc's quadratic,
padded by one on either side, and membership is decided by the float
expression (a*p + b*q)**2 + (c*p + d*q)**2 <= radius**2, so results are
bit-deterministic for given float inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError, SingularMatrixError

BACKEND = "python"

_MAX_ROWS = np.iinfo(np.intp).max


def primitive_points(a: float, b: float, c: float, d: float, radius: float):
    """Images (x, y) of the primitive (p, q) with |M (p, q)| <= radius for
    M = [[a, b], [c, d]], as two float arrays in row order."""
    r2 = radius * radius
    fr = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    reach = radius * math.sqrt(fr) / det
    qmax = math.floor(reach) + 1 if math.isfinite(reach) else math.inf
    if 2 * qmax + 1 > _MAX_ROWS:
        raise ResourceLimitError(
            f"a disc of radius {radius} needs more than {_MAX_ROWS} lattice rows",
            rows=str(2 * qmax + 1),
        )
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
    # Row i holds plo[i], plo[i] + 1, ..., phi[i]: a running index shifted
    # by each row's start.
    starts = np.cumsum(counts) - counts
    ps = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(plo - starts, counts)
    qs = np.repeat(q, counts)
    t1 = a * ps + b * qs
    t2 = c * ps + d * qs
    inside = (np.gcd(ps, qs) == 1) & (t1 * t1 + t2 * t2 <= r2)
    return t1[inside], t2[inside]


def count_primitive_in_disc(a: float, b: float, c: float, d: float, radius: float) -> int:
    """Primitive lattice points of [[a,b],[c,d]] Z^2 inside the closed disc."""
    return int(primitive_points(a, b, c, d, radius)[0].size)
