"""Output invariants computed without the code under test.

Each check returns a list of problems (empty when the output is right).
They use plain integers, Fractions and floats, not saddlekit's own
arithmetic, so a bug shared by a job and its check cannot hide itself.  The
one exception is the ``is_locally_delaunay`` predicate that
``delaunay_problems`` is handed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac_pair(pair):
    return (Fraction(pair[0]), Fraction(pair[1]))


def brute_primitive_count(a: int, b: int, c: int, d: int, radius: int) -> int:
    """Primitive (p, q) with |(a p + b q, c p + d q)| <= radius, by gcd."""
    bound = radius * (abs(a) + abs(b) + abs(c) + abs(d)) + 1
    r2 = radius * radius
    total = 0
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            x, y = a * p + b * q, c * p + d * q
            if x * x + y * y <= r2 and math.gcd(p, q) == 1:
                total += 1
    return total


def negation_closed(vectors, what: str):
    vs = set(vectors)
    missing = [v for v in vs if (-v[0], -v[1]) not in vs]
    return [f"{what}: {len(missing)} vectors whose negation is missing"] if missing else []


def sqrt_interval(q: Fraction, bits: int = 64):
    """Integers-only bounds lo <= sqrt(q) <= hi."""
    scale = 1 << bits
    root = math.isqrt(q.numerator * q.denominator * scale * scale)
    den = q.denominator * scale
    return Fraction(root, den), Fraction(root + 1, den)


def chew_path_problems(path, holonomy, edge_vector, what: str):
    """A Chew path: its edges are triangulation edges, they sum to the
    connection's holonomy, and the length is within sqrt(10) of it."""
    out = []
    vectors = [(v.x, v.y) for v in path.edge_vectors]
    if len(vectors) != len(path.edges) or not vectors:
        return [f"{what}: {len(path.edges)} edges but {len(vectors)} edge vectors"]
    for (slot, direction), (x, y) in zip(path.edges, vectors):
        ex, ey = edge_vector(slot)
        if (ex * direction, ey * direction) != (x, y):
            out.append(f"{what}: edge {slot} does not carry its vector")
            break
    sx = sum((x for x, _ in vectors), Fraction(0))
    sy = sum((y for _, y in vectors), Fraction(0))
    if (sx, sy) != holonomy:
        out.append(f"{what}: edge vectors sum to {(sx, sy)}, not {holonomy}")
    if not path.sqrt10_certified:
        out.append(f"{what}: path not certified within sqrt(10)")
    else:
        lo = sum(sqrt_interval(x * x + y * y)[0] for x, y in vectors)
        bound_hi = sqrt_interval(10 * (holonomy[0] ** 2 + holonomy[1] ** 2))[1]
        if lo > bound_hi:
            out.append(f"{what}: certified path is longer than sqrt(10) times the connection")
    return out


def delaunay_problems(data: dict, is_locally_delaunay, what: str):
    """Each certificate's diamond passes through its triangle's corners
    (L1 distance checked here) and, when a predicate is given, every slot
    is locally Delaunay."""
    out = []
    tris = [[frac_pair(e) for e in t["edges"]] for t in data["triangles"]]
    certs = data["certificates"]
    if len(certs) != len(tris):
        return [f"{what}: {len(certs)} certificates for {len(tris)} triangles"]
    for t, (edges, cert) in enumerate(zip(tris, certs)):
        cx, cy = frac_pair(cert["center"])
        r = Fraction(cert["radius_l1"])
        corners = [(Fraction(0), Fraction(0)), edges[0]]
        corners.append((edges[0][0] + edges[1][0], edges[0][1] + edges[1][1]))
        if any(abs(x - cx) + abs(y - cy) != r for x, y in corners):
            out.append(f"{what}: triangle {t} corner off its certificate diamond")
            break
    if is_locally_delaunay is None:
        return out
    from saddlekit.surface import TranslationSurface

    s = TranslationSurface.from_json_dict(data)
    bad = [slot for slot in s.slots() if not is_locally_delaunay(s, slot)]
    if bad:
        out.append(f"{what}: {len(bad)} slots not locally Delaunay")
    return out


def sector_state(v, theta: float, half: float, band: float):
    """1 inside, 0 outside, None within band of a boundary ray."""
    ang = math.atan2(float(v[1]), float(v[0]))
    off = abs((ang - theta + math.pi) % (2 * math.pi) - math.pi)
    if off < half - band:
        return 1
    if off > half + band:
        return 0
    return None


def haar_mean_problems(report: dict, expected: float, what: str):
    mean, ci = report["mean"], report["ci_radius"]
    if not math.isfinite(mean) or abs(mean - expected) > 5 * ci:
        return [f"{what}: mean {mean} is more than 5 CI ({ci}) from {expected}"]
    return []
