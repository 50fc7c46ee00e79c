"""The vectorized lattice kernel: primitive points of M Z^2 in a disc.

One numpy row routine serves every float lattice in the package.  Rows q run
over 1 <= q <= qmax, the bound that |M v| <= radius puts on a coordinate;
in each row the p candidates are the real roots of the disc's quadratic,
padded by one on either side, and membership is decided by the float
expression (a*p + b*q)**2 + (c*p + d*q)**2 <= radius**2, so results are
bit-deterministic for given float inputs.

Only the half plane q >= 1 and the point (1, 0) are searched; row q = 0
holds no other primitive point.  Rounding to nearest is odd-symmetric,
fl(-x) = -fl(x), so the image of (-p, -q) is the negated image of (p, q),
up to the sign of a zero, and the float test decides both points alike.
The other half is therefore the mirror image: ``count_primitive_in_disc``
doubles its count and ``primitive_points`` yields each point with its
negation.  The gcd is taken only of points already inside the disc.

``count_primitive_in_disc`` counts for one matrix; the Monte Carlo disc and
annulus values make one call per sample and radius.  ``primitive_points``
takes an (n, 4) array of matrices (a, b, c, d), works through it in chunks
of about ``_CHUNK_ROWS`` lattice rows, so its temporaries stay bounded
whatever n is, and yields the points of each chunk with their owning row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError, SingularMatrixError

BACKEND = "python"

_MAX_ROWS = np.iinfo(np.intp).max
_CHUNK_ROWS = 1 << 10


def _qmax(reach: float, radius) -> int:
    """floor(reach) + 1, the last row that can meet the disc, refused when
    the band of rows would not fit in an index (also for inf and NaN)."""
    qmax = math.floor(reach) + 1 if math.isfinite(reach) else math.inf
    if 2 * qmax + 1 > _MAX_ROWS:
        raise ResourceLimitError(
            f"a disc of radius {radius} needs more than {_MAX_ROWS} lattice rows",
            rows=str(2 * qmax + 1),
        )
    return qmax


def _runs(lengths):
    """For consecutive runs of the given lengths: each entry's run and its
    offset within the run."""
    run = np.arange(lengths.size).repeat(lengths)
    return run, np.arange(run.size) - (lengths.cumsum() - lengths)[run]


def _candidates(q, a, b, c, d, r2):
    """Candidate points of rows q >= 1, as (row index into q, p).

    a, b, c, d and r2 are scalars or arrays aligned with q.  A row's
    candidates run from the floor of its lower root minus one to the floor
    of its upper root plus one; a row the disc misses has none.
    """
    A = a * a + c * c
    B = 2.0 * (a * b + c * d)
    C = b * b + d * d
    qq = (q * q).astype(np.float64)
    disc = B * B * qq - 4.0 * A * (C * qq - r2)
    meets = disc >= 0
    half = np.sqrt(np.where(meets, disc, 0.0)) / (2.0 * A)
    mid = -B * q / (2.0 * A)
    plo = np.floor(mid - half).astype(np.int64) - 1
    phi = np.floor(mid + half).astype(np.int64) + 1
    row, offset = _runs(np.where(meets, phi - plo + 1, 0))
    return row, plo[row] + offset


def primitive_points(matrices, radius: float):
    """Primitive points of each lattice M_i Z^2 in the closed disc.

    ``matrices`` is an (n, 4) array whose row i is (a, b, c, d) of
    M_i = [[a, b], [c, d]].  Yields, chunk by chunk, (owner, xs, ys): the
    images (xs, ys) of the primitive (p, q) with |M_i (p, q)| <= radius and
    the row i each belongs to.  Every row is checked before any is walked.
    """
    m = np.asarray(matrices, dtype=np.float64).reshape(-1, 4)
    if m.shape[0] == 0:
        return
    a, b, c, d = (np.ascontiguousarray(col) for col in m.T)
    det = np.abs(a * d - b * c)
    if not det.all():
        raise SingularMatrixError(f"matrix {int(np.argmin(det))} is singular")
    reach = radius * np.sqrt(a * a + b * b + c * c + d * d) / det
    _qmax(float(reach.max()), radius)
    qmax = np.floor(reach).astype(np.int64) + 1
    ends = np.cumsum(qmax)
    r2 = radius * radius
    lo = 0
    while lo < qmax.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - qmax[lo] + _CHUNK_ROWS, "right")))
        sample, k = _runs(qmax[lo:hi])
        sample += lo
        q = k + 1
        ra, rb, rc, rd = a[sample], b[sample], c[sample], d[sample]
        row, ps = _candidates(q, ra, rb, rc, rd, r2)
        qs = q[row]
        t1 = ra[row] * ps + rb[row] * qs
        t2 = rc[row] * ps + rd[row] * qs
        inside = np.flatnonzero(t1 * t1 + t2 * t2 <= r2)
        inside = inside[np.gcd(ps[inside], qs[inside]) == 1]
        # Row q = 0: only (1, 0), whose image is the first column.
        axis = lo + np.flatnonzero(a[lo:hi] * a[lo:hi] + c[lo:hi] * c[lo:hi] <= r2)
        owner = np.concatenate((sample[row[inside]], axis))
        xs = np.concatenate((t1[inside], a[axis]))
        ys = np.concatenate((t2[inside], c[axis]))
        yield np.concatenate((owner, owner)), np.concatenate((xs, -xs)), np.concatenate((ys, -ys))
        lo = hi


def count_primitive_in_disc(a: float, b: float, c: float, d: float, radius: float) -> int:
    """Primitive lattice points of [[a,b],[c,d]] Z^2 inside the closed disc."""
    det = abs(a * d - b * c)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    qmax = _qmax(radius * math.sqrt(a * a + b * b + c * c + d * d) / det, radius)
    r2 = radius * radius
    q = np.arange(1, qmax + 1, dtype=np.int64)
    row, ps = _candidates(q, a, b, c, d, r2)
    qs = q[row]
    t1 = a * ps + b * qs
    t2 = c * ps + d * qs
    inside = t1 * t1 + t2 * t2 <= r2
    upper = np.count_nonzero(np.gcd(ps[inside], qs[inside]) == 1)
    return 2 * int(upper) + (2 if a * a + c * c <= r2 else 0)
