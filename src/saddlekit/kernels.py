"""The lattice kernels: primitive points of M Z^2 in a closed disc.

Both kernels search rows q = 1..qmax and decide membership by the float
expression (a*p + b*q)**2 + (c*p + d*q)**2 <= radius**2, so results are
bit-deterministic for given float inputs.  Where the no-hole bound of
``count_primitive_in_disc`` holds (``_no_holes``), qmax is ``_cutoff``, the
last row a passing point can reach, stated and proved once for both
kernels; elsewhere it is the bound radius |M|_F / det that |M v| <= radius
puts on a coordinate.  A row's candidates run from the floor of its lower
float root mid - half, minus one, to the floor of its upper root
mid + half, plus one, where mid -+ half solve the disc's quadratic in p.

Only the rows q >= 1 and the point (1, 0) are searched for; row q = 0
holds no other primitive point.  Rounding to nearest is odd-symmetric,
fl(-x) = -fl(x), so the image of (-p, -q) is the negated image of (p, q),
up to the sign of a zero, and the float test decides both points alike.
The other half is therefore the mirror image: ``count_primitive_in_disc``
doubles its count, and ``primitive_points`` walks each row q together with
its mirror -q over the negated window, so that each point comes from a
row of its own sign.

The cusp rule.  Deep in the cusp every row q != 0 misses the disc: the
lines of the lattice parallel to its first column (a, c) lie det / sqrt(A)
apart, further than the radius.  ``_in_the_cusp`` decides this from the
float entries; ``count_primitive_in_disc`` then returns the axis term and
``primitive_points`` gives the lattice no rows, both before the row bound
and the budget check.  That is what walking the rows would give, as each
row's float ``disc`` is negative.  Proof: let A = a^2 + c^2, C = b^2 + d^2,
B = 2 (a b + c d) and det = a d - b c, exact in the float entries,
P = A C = det^2 + B^2 / 4, r^2 the float radius**2 and u = 2^-53.  Row q
has exact D = B^2 q^2 - 4A (C q^2 - r^2) = 4 (A r^2 - det^2 q^2).  By
Cauchy-Schwarz |a b| + |c d|, |a d| + |b c| and |B| / 2 are at most
sqrt(P).  So the computed B is within 4.01u sqrt(P) of B, B B q^2 within
28.2u P q^2 of B^2 q^2 (q^2 rounded to a float included), and, A and C
being within a relative 2.01u, 4A (C q^2 - r^2) within
32.2u P q^2 + 16.1u A r^2 of its value; the last subtraction adds at most
4.01u (P q^2 + A r^2).  The float disc is thus within
E = 65u (P q^2 + A r^2) of D.  Likewise the float det * det is within
5.04u P of det^2 and A * r2 within a relative 3.02u, so when the float
det * det - A * r2 exceeds the float 24u A (C + r^2),
det^2 - A r^2 >= 18.9u P + 20.9u A r^2.  Then 4 det^2 - 65u P > 4A r^2,
so 4 det^2 q^2 - 4A r^2 - E grows with q and is at least
10.6u P + 18.6u A r^2 > 0 at q = 1: disc <= D + E < 0 in every row.  The
rule also asks 2^-450 < A, C < 2^450, which keeps every value of a row
q < 2^52 finite, and each underflow error, at most 2^-1075 an operation,
below 2^-100 of the bound it adds to.

``count_primitive_in_disc`` counts for one matrix in plain Python floats
and ints, one row at a time, and counts the p of a row's run [lo, hi] prime
to q by Moebius inversion over the squarefree divisors of q, read from a
table that grows with the rows asked for.  Row q of the table holds two
tuples, the squarefree divisors d > 1 with mu(d) = +1 and those with
mu(d) = -1; the term of d = 1, the run's length, is added inline.  The
points inside a row form one run when A = a^2 + c^2, half the second
difference of |M (p, q)|^2 along a row, exceeds 32u k^2 r^2 (u = 2^-53,
k = |M|_F^2 / det), a bound on twice the float error of the test.  Under
that bound a row whose float roots both lie further than ``_TAU`` from
every integer, and whose half is above a floor computed once per call,
takes lo = floor(mid - half) + 1 and hi = floor(mid + half) with no
membership test; any other row walks in from its padded ends to its first
and last points inside.  Below the bound each point of the run is tested
instead.  Its docstring has the proofs.

``primitive_points`` takes an (n, 4) array of matrices (a, b, c, d) and
yields the points with their owning row, in numpy chunks: ``_signed_rows``
computes the windows of about ``_CHUNK_ROWS`` lattice rows q >= 1 and of
their mirrors, and ``_points`` tests about ``_CHUNK_POINTS`` of their
candidates and returns only the points, so no temporary of a chunk is
alive while the caller holds it, and the memory stays bounded whatever n
is and however wide the windows are.  Its one production caller, the Haar
sector transform of ``mc``, passes the sector's rays as a ``cone``: each
signed row's window is then cut to the p whose point could pass the
sector's float rule, ``_cone_crosses``, and only the points that pass it
are yielded, by a bound proved in its docstring.

Both kernels refuse, before walking it, a lattice that needs more rows than
the work budget; a lattice in the cusp needs none.  The budget is their
``budget`` argument, which ``mc`` fills from one
``exactplane.default_budget()`` read per batch, since a read per lattice
would add about 7% to a count at radius 20; a call without one reads it
itself.  Both also refuse, with the one error of ``_float_range_error``, a
lattice with a row that meets the disc but whose float bounds mid -+ half
are not finite, as when A underflows to zero or the disc overflows; the
batched kernel decides this before it casts any bound to an int.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ResourceLimitError, SingularMatrixError
from .exactplane import default_budget

BACKEND = "python"

# Below 2**53 rows every p and q the kernels meet is exactly a float.
_MAX_ROWS = 1 << 53
_CHUNK_ROWS = 1 << 12  # lattice rows q >= 1 whose windows are computed at once
_CHUNK_POINTS = 1 << 14  # candidates tested at once
_U = 2.0**-53  # unit roundoff of float64
_TAU = 2.0**-20  # how far a certified root keeps from every integer
_UNTAU = 1.0 - _TAU

# _DIVISORS[q] is (plus, minus): the squarefree divisors d > 1 of q with
# mu(d) = +1 and those with mu(d) = -1; the term of d = 1 is taken inline.
# It is only ever replaced whole, never changed in place.
_DIVISORS: list = [((), ())]


def _divisor_table(q: int, qmax: int) -> list:
    """The divisor table, first grown to cover q if it does not yet: to
    twice its length, but no further than qmax, the last row of the call.
    The new table is built aside and swapped in by one assignment."""
    global _DIVISORS
    table = _DIVISORS
    if q < len(table):
        return table
    n = max(q, min(2 * len(table), qmax))
    # mu is the Dirichlet inverse of 1: sum over d | m of mu(d) is [m = 1].
    mu = [0, 1] + [0] * (n - 1)
    for d in range(1, n + 1):
        for m in range(2 * d, n + 1, d):
            mu[m] -= mu[d]
    table = [([], []) for _ in range(n + 1)]
    for d in range(2, n + 1):
        if mu[d]:
            side = 0 if mu[d] > 0 else 1
            for m in range(d, n + 1, d):
                table[m][side].append(d)
    _DIVISORS = table = [(tuple(plus), tuple(minus)) for plus, minus in table]
    return table


def _check_radius(radius) -> None:
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")


def _qmax(reach: float, radius) -> int:
    """floor(reach) + 1, the last row that can meet the disc, refused when
    the band of rows is too long to search (also for inf and NaN)."""
    qmax = math.floor(reach) + 1 if math.isfinite(reach) else math.inf
    if 2 * qmax + 1 > _MAX_ROWS:
        raise ResourceLimitError(
            f"a disc of radius {radius} needs more than {_MAX_ROWS} lattice rows",
            rows=str(2 * qmax + 1),
        )
    return qmax


def _within_budget(rows: int, budget, radius) -> None:
    """Refuse a lattice that needs more than ``budget`` rows before any is
    walked; None reads ``exactplane.default_budget()``."""
    budget = default_budget() if budget is None else budget
    if rows > budget:
        msg = f"a disc of radius {radius} needs {rows} lattice rows, over the budget of {budget}"
        raise ResourceLimitError(msg, rows=rows, budget=budget)


def _in_the_cusp(det, A, C, r2):
    """Whether every row q >= 1 misses the disc, by the cusp rule of the
    module docstring, from det = a*d - b*c, A = a*a + c*c and C = b*b + d*d
    computed in that order (det may be its absolute value).  Floats or,
    elementwise, arrays."""
    fits = (2.0**-450 < A) & (A < 2.0**450) & (2.0**-450 < C) & (C < 2.0**450)
    return fits & (det * det - A * r2 > 24.0 * _U * A * (C + r2))


def _runs(lengths):
    """For consecutive runs of the given lengths: each entry's run and its
    offset within the run."""
    run = np.arange(lengths.size).repeat(lengths)
    return run, np.arange(run.size) - (lengths.cumsum() - lengths)[run]


def _float_range_error(radius) -> ResourceLimitError:
    """The refusal of a lattice with a row that meets the disc but whose
    float bounds mid -+ half are not finite, in both kernels."""
    return ResourceLimitError(f"a disc of radius {radius} leaves the float64 range on this lattice")


def _no_holes(A, k2, r2):
    """Whether the no-hole bound of ``count_primitive_in_disc`` holds,
    k^2 < 2^47, 2^-1000 < k^2 r^2 and 32u k^2 r^2 < A, from A = a*a + c*c,
    k = |M|_F^2 / det and its square k2, and r2 = radius**2.  Floats or,
    elementwise, arrays."""
    return (k2 < 2.0**47) & (2.0**-1000 < k2 * r2) & (32.0 * _U * k2 * r2 < A)


def _cutoff(radius, A, det, k2, sqrt=math.sqrt):
    """reach (1 + 2^-20), reach = radius sqrt(A) / (det sqrt(1 - 10u k^2)),
    for A, det and k2 as in ``_no_holes`` and ``sqrt`` the float square root
    (``np.sqrt`` for arrays).  Where ``_no_holes`` holds, its floor plus one
    is the last row either kernel walks: no point past it passes the test.

    Proof.  From (p, q) = M^-1 (x, y), q = (a y - c x) / det, so by
    Cauchy-Schwarz |q| <= sqrt(A F) / det for F = |M (p, q)|^2.  A point
    that passes has f <= fl(r^2) <= r^2 (1 + u), where f is the float
    value of the test, within 7u k^2 F of F (``count_primitive_in_disc``);
    so F (1 - 7u k^2) <= r^2 (1 + u + 2u k^2) <= r^2 (1 + 3u k^2), as
    k >= 2, hence F <= r^2 / (1 - 10u k^2) and
    q <= r sqrt(A) / (det sqrt(1 - 10u k^2)).  det, A and k^2 are computed
    to a relative 2^-28 and the rest of that expression to a few u, so its
    float value raised by 2^-20 is at least the exact bound, and the row
    after its floor lies past every passing point.
    """
    return radius * sqrt(A) / (det * sqrt(1.0 - 10.0 * _U * k2)) * (1.0 + 2.0**-20)


def _windows(q, a, b, c, d, r2, radius):
    """Candidate windows (start, end) of the rows q >= 1 and of their
    mirrors -q: float arrays over the signed rows (q, -q), for float arrays
    q, a, b, c, d aligned by row and scalars r2 = radius**2 and radius.
    Row q runs from the floor of its lower float root, minus one, to the
    floor of its upper one, plus one; row -q is its mirror image, as the
    float test decides (-p, -q) as it decides (p, q).  A row the disc misses
    has start > end; a row that meets it with bounds outside the float range
    refuses the lattice."""
    # Inf and NaN arise here as in the scalar kernel's floats: silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A = a * a + c * c
        B = 2.0 * (a * b + c * d)
        C = b * b + d * d
        qq = q * q
        disc = B * B * qq - 4.0 * A * (C * qq - r2)
        meets = disc >= 0
        half = np.sqrt(np.where(meets, disc, 0.0)) / (2.0 * A)
        mid = -B * q / (2.0 * A)
        x_lo, x_hi = mid - half, mid + half
    finite = np.isfinite(x_lo) & np.isfinite(x_hi)
    if not finite[meets].all():
        raise _float_range_error(radius)
    start = np.where(meets, np.floor(np.where(finite, x_lo, 0.0)) - 1.0, 1.0)
    end = np.where(meets, np.floor(np.where(finite, x_hi, 0.0)) + 1.0, 0.0)
    return np.concatenate((start, -end)), np.concatenate((end, -start))


def _narrow(start, end, q, a, b, c, d, e, cone) -> None:
    """Cut in place the windows of the signed rows (q, -q) to the p where
    M (p, q) could pass the cone test; ``e`` is 8u k radius per row where
    ``_no_holes`` holds and inf elsewhere.  The proof is in
    ``primitive_points``."""
    (lx, ly), (hx, hy) = cone
    # Ray lo x M (p, q) and M (p, q) x ray hi, each alpha p + beta q.
    rays = (
        (lx * c - ly * a, lx * d - ly * b, abs(lx) + abs(ly)),
        (a * hy - c * hx, b * hy - d * hx, abs(hx) + abs(hy)),
    )
    rows = q.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        col = np.abs(a) + np.abs(c)
        for alpha, beta, n in rays:
            bounded = np.abs(alpha) > 2.0**-30 * n * col
            pc = np.where(bounded, -beta / alpha, 0.0) * q
            pad = np.where(bounded, n * e / np.abs(alpha) * (1.0 + 2.0**-20), np.inf)
            pad += 2.0**-20 * np.abs(pc) + 1.0
            lower, upper = np.ceil(pc - pad), np.floor(pc + pad)
            # alpha > 0 bounds p from below in row q, and from above in -q.
            up = alpha > 0
            down = ~up
            np.maximum(start[:rows], lower, out=start[:rows], where=up)
            np.maximum(start[rows:], -upper, out=start[rows:], where=up)
            np.minimum(end[:rows], upper, out=end[:rows], where=down)
            np.minimum(end[rows:], -lower, out=end[rows:], where=down)


def _cone_crosses(cone, xs, ys):
    """c1 = lx*y - ly*x and c2 = x*hy - y*hx, the float cross products of
    the points v = (xs, ys) with the rays ((lx, ly), (hx, hy)) of ``cone``:
    the one statement of the float rule of a sector: v is in it only if
    both are positive, the open cone of ``sv.SectorIndicator``.  The Haar
    sector transform of ``mc`` counts the points that ``primitive_points``
    yields by this rule; ``evaluate_batch`` reads it for the rotational
    average."""
    (lx, ly), (hx, hy) = cone
    return lx * ys - ly * xs, xs * hy - ys * hx


def _cone_test(cone, xs, ys):
    """Whether the points v = (xs, ys) pass c1 > 0 and c2 > 0."""
    c1, c2 = _cone_crosses(cone, xs, ys)
    return (c1 > 0) & (c2 > 0)


def _check_cone(cone) -> None:
    if not all(2.0**-100 < abs(x) + abs(y) < 2.0**100 for x, y in cone):
        raise InputError(f"cone rays must have 2^-100 < |x| + |y| < 2^100, got {cone}")


def _lattice_rows(a, b, c, d, radius, budget):
    """Per lattice: the rows q >= 1 to walk, up to ``_cutoff`` where
    ``_no_holes`` holds and to the Frobenius bound elsewhere, none in the
    cusp; e = 8u k radius where ``_no_holes`` holds and inf elsewhere, for
    ``_narrow``; and whether the axis point (1, 0) is in the disc.  A band
    of rows over the budget, or too long to search, is refused first."""
    # Huge entries overflow to inf or NaN here, which _qmax refuses, as the
    # scalar kernel's float arithmetic does: without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs(a * d - b * c)
        if not det.all():
            raise SingularMatrixError(f"matrix {int(np.argmin(det))} is singular")
        r2 = radius * radius
        A = a * a + c * c
        fr = a * a + b * b + c * c + d * d
        k = fr / det
        k2 = k * k
        sure = _no_holes(A, k2, r2)
        reach = np.where(sure, _cutoff(radius, A, det, k2, np.sqrt), radius * np.sqrt(fr) / det)
        # A lattice in the cusp gets reach -1: no rows, and nothing to budget.
        reach[_in_the_cusp(det, A, b * b + d * d, r2)] = -1.0
        e = np.where(sure, 8.0 * _U * k * radius, np.inf)
    _within_budget(_qmax(float(reach.max()), radius), budget, radius)
    return np.floor(reach).astype(np.int64) + 1, e, A <= r2


def _spans(sizes, limit):
    """Consecutive spans [lo, hi) of the entries of ``sizes``, each of total
    size at most ``limit`` or of a single entry."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + limit, "right")))
        yield lo, hi
        lo = hi


def _signed_rows(a, b, c, d, sample, q, e, radius, cone):
    """The signed rows (q, -q) of the rows (sample, q), for q >= 1 as
    floats: each one's window start, its number of candidates, and its
    lattice, q, a, b q, c and d q, as arrays aligned by signed row."""
    ra, rb, rc, rd = a[sample], b[sample], c[sample], d[sample]
    start, end = _windows(q, ra, rb, rc, rd, radius * radius, radius)
    if cone is not None:
        _narrow(start, end, q, ra, rb, rc, rd, e[sample], cone)
    count = np.maximum(end - start + 1.0, 0.0).astype(np.int64)
    bq, dq = rb * q, rd * q
    signed = (np.tile(sample, 2), np.concatenate((q, -q)), np.tile(ra, 2), np.concatenate((bq, -bq)),
              np.tile(rc, 2), np.concatenate((dq, -dq)))
    return start, count, signed


def _points(start, count, signed, r2, cone):
    """The points of some signed rows, as ``primitive_points`` yields them,
    from their parts as ``_signed_rows`` returns them."""
    owner, q, ra, bq, rc, dq = signed
    row, ps = _runs(count)
    ps = ps + start[row]
    t1 = ra[row]
    t1 *= ps
    t1 += bq[row]
    t2 = rc[row]
    t2 *= ps
    t2 += dq[row]
    inside = np.flatnonzero(t1 * t1 + t2 * t2 <= r2)
    if cone is not None:
        inside = inside[_cone_test(cone, t1[inside], t2[inside])]
    row = row[inside]
    prime = np.gcd(ps[inside].astype(np.int64), q[row].astype(np.int64)) == 1
    return owner[row[prime]], t1[inside[prime]], t2[inside[prime]]


def _axis_points(a, c, axes, cone):
    """The points +-(a, c), the images of +-(1, 0), of the lattices
    ``axes``, as ``primitive_points`` yields them."""
    xs, ys, owner = np.concatenate((a[axes], -a[axes])), np.concatenate((c[axes], -c[axes])), np.tile(axes, 2)
    if cone is not None:
        on = _cone_test(cone, xs, ys)
        xs, ys, owner = xs[on], ys[on], owner[on]
    return owner, xs, ys


def primitive_points(matrices, radius: float, budget=None, cone=None):
    """Primitive points of each lattice M_i Z^2 in the closed disc.

    ``matrices`` is an (n, 4) array whose row i is (a, b, c, d) of
    M_i = [[a, b], [c, d]].  Yields, chunk by chunk, (owner, xs, ys): the
    images (xs, ys) of the primitive (p, q) with |M_i (p, q)| <= radius and
    the row i each belongs to.  Every row is checked before any is walked,
    and a lattice of more than ``budget`` rows is refused; where
    ``_no_holes`` holds, the rows stop at ``_cutoff``, as in the scalar
    kernel.

    The windows are computed for about ``_CHUNK_ROWS`` rows q >= 1 at a
    time, each row with its mirror -q, and their candidates tested about
    ``_CHUNK_POINTS`` at a time, so the temporaries stay bounded whatever n
    and the cone are; each point is generated, tested and yielded from its
    own signed row, with no negated copy.

    ``cone = ((lx, ly), (hx, hy))``, two rays of floats with |x| + |y| in
    (2^-100, 2^100), yields only the points v that pass c1 > 0 and c2 > 0
    as well, in the float operations of ``_cone_crosses``.  Rounding is
    odd-symmetric, so c1 at -v is -c1 at v, and of each pair +-v at most
    one passes, whatever the rays: rays that round to parallel or opposite
    ones need no other path.  The disc test, the gcd and the axis pair are
    as without a cone, and each signed row's window is cut to the p that
    can pass.

    Proof of the cut.  Let lattice M satisfy ``_no_holes``, take the ray
    lo (the ray hi is alike, with c2 = x*hy - y*hx) and n = |lx| + |ly|.  A
    point is t1 = fl(fl(a p) + fl(b q)), t2 = fl(fl(c p) + fl(d q)), within
    2.01u S1 and 2.01u S2 of its exact coordinates, S1 = |a p| + |b q|,
    S2 = |c p| + |d q|, and c1 = fl(fl(lx t2) - fl(ly t1)) is within
    4.03u (|lx| S2 + |ly| S1) <= 4.03u n sqrt(S) of l(p) = alpha p + beta q,
    alpha = lx c - ly a, beta = lx d - ly b, S = S1^2 + S2^2.  The computed
    alpha' and beta' are within 2.01u (|lx c| + |ly a|) and
    2.01u (|lx d| + |ly b|), so l'(p) = alpha' p + beta' q is within
    2.01u n sqrt(S) of l(p).  As in ``count_primitive_in_disc``,
    sqrt(S) <= |M|_F |(p, q)| <= k sqrt(F), and a point that passes the
    disc test has F <= r^2 / (1 - 10u k^2) <= 1.19 r^2 (``_cutoff``).  So
    c1 > 0 at a passing point gives l'(p) > -E, E = 7u n k r, plus underflow
    below 2^-1019 (1 + n), under 2^-60 E as k r > 2^-500 and n > 2^-100.
    For alpha' > 0 such a p has p > p* - E / alpha', p* = -beta' q / alpha',
    and for alpha' < 0 it has p < p* + E / |alpha'|.  The code computes
    pc = fl(fl(-beta' / alpha') q), within 2.02u |pc| of p*, and the pad
    fl(n e / |alpha'|) (1 + 2^-20) + 2^-20 |pc| + 1 with e = 8u k r: its
    first term exceeds E / |alpha'| (k is computed to a relative 2^-28),
    its second covers |pc - p*|, and its third the roundings of the sums and
    of pc -+ pad.  So the ceiling of pc - pad, or the floor of pc + pad,
    keeps every p that can pass.  The row -q is cut by the same bound with
    -pc, its root exactly.  Where alpha' is 2^30 times smaller than
    n (|a| + |c|), or the lattice fails ``_no_holes``, the pad is infinite
    and the row stays whole; else the pad is finite, as |pc| < 2^79 and
    E / |alpha'| < 2^5 there.
    """
    _check_radius(radius)
    if cone is not None:
        _check_cone(cone)
    m = np.asarray(matrices, dtype=np.float64).reshape(-1, 4)
    if m.shape[0] == 0:
        return
    a, b, c, d = m.T
    qmax, e, axis = _lattice_rows(a, b, c, d, radius, budget)
    for lo, hi in _spans(qmax, _CHUNK_ROWS):
        yield _axis_points(a, c, lo + np.flatnonzero(axis[lo:hi]), cone)
        sample, q = _runs(qmax[lo:hi])
        start, count, signed = _signed_rows(a, b, c, d, sample + lo, q + 1.0, e, radius, cone)
        del sample, q
        for i, j in _spans(count, _CHUNK_POINTS):
            yield _points(start[i:j], count[i:j], [part[i:j] for part in signed], radius * radius, cone)


def count_primitive_in_disc(a: float, b: float, c: float, d: float, radius: float, budget=None) -> int:
    """Primitive lattice points of [[a,b],[c,d]] Z^2 inside the closed disc.

    A lattice whose walk, after the row cutoff below, needs more than
    ``budget`` rows is refused before it starts.

    Row by row the count equals that of testing every candidate, as
    ``_windows`` lists them.  Where the points of a row that pass form
    one run [lo, hi], the p in it prime to q are counted as sum over
    squarefree d | q of mu(d) (hi//d - (lo-1)//d).  Most rows read lo and hi
    off their float roots (the certificate below); any other row walks in
    from its padded ends to its first and last points that pass.

    No holes.  Along a row F(p) = |M (p, q)|^2 is a quadratic in p with
    second difference 2A, A = a^2 + c^2, so for integers p1 < p2 < p3
    F(p2) <= max(F(p1), F(p3)) - A: a hole at p2 between two points that
    pass needs a rounding error above A/2 at one of the three.  Each of the
    six float operations of the test has relative error at most u = 2^-53,
    which puts the float value f within 7u S of F, where
    S = (|a p| + |b q|)^2 + (|c p| + |d q|)^2 <= |M|_F^2 |(p, q)|^2 and
    |(p, q)|^2 <= F |M|_F^2 / det^2.  With k = |M|_F^2 / det, then,
    |f - F| <= 7u k^2 F.  At lo and hi f <= r^2, so F <= r^2 / (1 - 7u k^2)
    there and, F being convex, on all of [lo, hi], where every error is
    therefore below 8u k^2 r^2 once k^2 < 2^47.  Underflow adds at most
    2^-1070 (1 + 2 k r), less than 2u k^2 r^2 once k^2 r^2 > 2^-1000, and k
    itself is computed to a relative 2^-28.  So no row has a hole when
    A > 32u k^2 r^2.  Otherwise each point of [lo, hi] is tested for
    membership and its gcd with q taken.  Throughout, p and q are floats
    exactly: rows stop below 2^52, and |(p, q)| <= 1.1 reach on [lo, hi].

    Row cutoff.  Where that bound holds, the rows stop at ``_cutoff``, the
    last one a passing point can reach, well before qmax on a skewed
    lattice; the batched kernel stops at the same row.

    The certificate, also only under that bound.  From here on r^2 is the
    float radius**2 the test compares with, A, B = 2 (a b + c d) and C =
    b^2 + d^2 are exact in the float entries, s = |M|_F^2, and the exact
    roots of F = r^2 are m -+ e, e = sqrt(D) / 2A with
    D = B^2 q^2 - 4A (C q^2 - r^2) = 4 (A r^2 - det^2 q^2).  Three facts:

    1. The band.  By |f - F| <= 7u k^2 F, the underflow term and
       7u k^2 < 1/9, f > r^2 where F >= r^2 + delta and f < r^2 where
       F <= r^2 - delta, for delta = 12u k^2 r^2.
    2. The float roots.  The computed B is within 2.01u s of B however much
       a b and c d cancel, A and C within a relative 2.01u; with |B| <= s,
       A C <= s^2 / 4 and det^2 <= s^2 / 4, B B q^2 comes within
       7.1u s^2 q^2 of B^2 q^2, 4A (C q^2 - r^2) within
       8.2u s^2 q^2 + 16.4u A r^2 of its value, and the last subtraction
       adds u |D| <= u (4A r^2 + s^2 q^2).  So disc is within
       E = 24u ((s qmax)^2 + A r^2), ``err``, of D.  Let half > h,
       ``floor``, where E <= A^2 h^2 (below).  Then
       sqrt(disc) >= 2A h (1 - 5u), D >= 2.9 A^2 h^2 and e >= h/2 > 0:
       the row meets the disc, so det q < r sqrt(A), and
       |sqrt(disc) - sqrt(D)| <= E / sqrt(D) <= E / (A h).  Every exact
       root, m and e are at most W = k r / sqrt(A) in size.  half comes
       within 0.51 E / (A^2 h) + 5u W of e; mid within 5.2u W of m, as the
       error of B adds at most 1.01u s q / A < 1.01u W; the float roots
       mid -+ half within 1.1u W more; and x - floor(x) is computed within
       u.  In all a float root x is within eps = 0.51 E / (A^2 h) + 12u W
       of its exact root, and u W < 2^-28 as A > 32u k^2 r^2.
    3. The slope.  F(p) - r^2 = A (p - m + e)(p - m - e).  An integer at
       least t beyond a root has F >= r^2 + 2A e t.  An integer at least t
       inside both roots has F <= r^2 - A e t: two factors of at least t
       whose sum is 2e have a product of at least e t.

    Let tau = ``_TAU`` and h = tau + (E / A + 48u k^2 r^2) / (A tau), so
    E <= A^2 tau h <= A^2 h^2 and 0.51 E / (A^2 h) + 24u k^2 r^2 / (A h)
    <= 0.51 tau.  If half > h and both float roots have x - floor(x) in
    (tau, 1 - tau), each floor(x) lies at least t = tau - u - eps below its
    exact root and floor(x) + 1 at least t above it, where
    t >= 0.49 tau - u - 12u W + 24u k^2 r^2 / (A h) > 24u k^2 r^2 / (A h),
    so A e t >= A h t / 2 > delta.  Write x0 = floor(mid - half) and
    x1 = floor(mid + half).  By 1 and 3 the candidates x0 - 1 and x0 fail,
    x0 + 1 passes unless it is x1 + 1, which fails, and x1 passes; no holes
    puts every p between them in the run.  So lo = x0 + 1 and hi = x1, as
    the walk would find them.  The float values of E and h are within a
    relative 2^-27 of these, covered by the slack in 24, 48 and 0.49.
    """
    _check_radius(radius)
    det = abs(a * d - b * c)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    r2 = radius * radius
    A = a * a + c * c
    C = b * b + d * d
    # A r^2 < det^2, which the rule implies, is false on most lattices and
    # cheaper to test.
    if A * r2 < det * det and _in_the_cusp(det, A, C, r2):
        return 2 if A <= r2 else 0
    fr = a * a + b * b + c * c + d * d
    k = fr / det
    k2 = k * k
    one_run = _no_holes(A, k2, r2)
    qmax = _qmax(_cutoff(radius, A, det, k2) if one_run else radius * math.sqrt(fr) / det, radius)
    B = 2.0 * (a * b + c * d)
    # The row bounds below are the expressions of _windows, operation for
    # operation, with the scalar factors taken out of the loop.
    BB, A4, A2, nB = B * B, 4.0 * A, 2.0 * A, -B
    floor = math.inf  # no row is certified below the no-hole bound
    if one_run:
        # E and h of the certificate in the docstring.
        err = 24.0 * _U * (fr * fr * qmax * qmax + A * r2)
        floor = _TAU + (err / A + 48.0 * _U * k2 * r2) / (A * _TAU)
    _within_budget(qmax, budget, radius)
    table = _DIVISORS
    sqrt, ifloor, tau, untau = math.sqrt, math.floor, _TAU, _UNTAU
    upper = 0
    for q in range(1, qmax + 1):
        qq = q * q
        disc = BB * qq - A4 * (C * qq - r2)
        if not disc >= 0:
            continue
        try:
            half = sqrt(disc) / A2
            mid = nB * q / A2
            x_lo, x_hi = mid - half, mid + half
            lo, hi = ifloor(x_lo), ifloor(x_hi)
        except (ArithmeticError, ValueError):
            # A2 = 0, or a bound mid -+ half at inf or NaN.
            raise _float_range_error(radius) from None
        if half > floor and tau < x_lo - lo < untau and tau < x_hi - hi < untau:
            lo += 1
        else:
            # Not certified: walk in from the padded ends.
            lo, hi = lo - 1, hi + 1
            bq, dq = b * q, d * q
            while lo <= hi:
                t1, t2 = a * lo + bq, c * lo + dq
                if t1 * t1 + t2 * t2 <= r2:
                    break
                lo += 1
            else:
                continue
            while True:
                t1, t2 = a * hi + bq, c * hi + dq
                if t1 * t1 + t2 * t2 <= r2:
                    break
                hi -= 1
            if not one_run:
                for p in range(lo, hi + 1):
                    t1, t2 = a * p + bq, c * p + dq
                    if t1 * t1 + t2 * t2 <= r2 and math.gcd(p, q) == 1:
                        upper += 1
                continue
        try:
            plus, minus = table[q]
        except IndexError:
            table = _divisor_table(q, qmax)
            plus, minus = table[q]
        below = lo - 1
        upper += hi - below
        for dv in plus:
            upper += hi // dv - below // dv
        for dv in minus:
            upper -= hi // dv - below // dv
    return 2 * upper + (2 if A <= r2 else 0)
