import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from saddlekit import mc
from saddlekit.builders import (
    marked_torus,
    octagon_h2,
    slit_torus,
    square_torus,
    torus_from_matrix,
)
from saddlekit.errors import InputError
from saddlekit.exactplane import ExactMatrix, ExactVector
from saddlekit.geodesic import SaddleConnection, _start_corner, _strip
from saddlekit.surface import TranslationSurface


@pytest.fixture(scope="session")
def torus():
    return square_torus()


@pytest.fixture(scope="session")
def octagon():
    return octagon_h2()


@pytest.fixture(scope="session")
def slit_13_15():
    return slit_torus(ExactVector.of(Fraction(1, 3), Fraction(1, 5)))


@pytest.fixture(scope="session")
def thin_torus():
    return torus_from_matrix(ExactMatrix.diagonal(Fraction(1, 8), 8))


@pytest.fixture(scope="session")
def two_tori(torus):
    """Two square tori side by side, each glued only to itself."""
    n = torus.n_triangles()
    gluings = dict(torus.gluings)
    gluings.update({(t + n, i): (u + n, j) for (t, i), (u, j) in torus.gluings.items()})
    return TranslationSurface(torus.triangles * 2, gluings)


@pytest.fixture()
def torus_file(tmp_path, torus):
    path = tmp_path / "torus.json"
    path.write_text(torus.to_json())
    return str(path)


def reference_haar_matrices(n, seed, y_max=None):
    """The Haar sampler one sample at a time: r(theta) times the base matrix,
    each entry composed in plain floats, with the 1e-12 determinant check.
    y = lo / (1 - u) is the sampler's draw over the whole cusp; a finite
    y_max draws y by the inverse CDF truncated at y_max instead, which keeps
    the lattices of tests written against that truncation bit for bit."""
    rng = np.random.default_rng(seed)
    lo = math.sqrt(3.0) / 2.0
    rows = []
    while len(rows) < n:
        batch = max(16, int((n - len(rows)) * 1.2))
        xs = rng.uniform(-0.5, 0.5, batch)
        us = rng.uniform(0.0, 1.0, batch)
        if y_max is None:
            ys = lo / (1.0 - us)
        else:
            ys = 1.0 / (1.0 / lo - us * (1.0 / lo - 1.0 / y_max))
        ths = rng.uniform(0.0, 2.0 * math.pi, batch)
        for x, y, th in zip(xs, ys, ths):
            if x * x + y * y < 1.0:
                continue
            if len(rows) >= n:
                break
            sy = math.sqrt(y)
            a0, b0, c0, d0 = 1.0 / sy, x / sy, 0.0, sy
            ct, st = math.cos(th), math.sin(th)
            a, b = ct * a0 + -st * c0, ct * b0 + -st * d0
            c, d = st * a0 + ct * c0, st * b0 + ct * d0
            assert abs(a * d - b * c - 1.0) <= 1e-12
            rows.append((a, b, c, d))
    return np.array(rows, dtype=np.float64)


def increasing_by_length(vectors) -> bool:
    """Whether the vectors are strictly increasing under the Fraction key
    (|v|^2, x, y), the order of every holonomy set."""
    keys = [(v.norm_sq(), v.x, v.y) for v in vectors]
    return all(a < b for a, b in zip(keys, keys[1:]))


@functools.cache
def stratum_draws():
    """20 seed-7 draws of sample_stratum_local about each of octagon_h2(),
    slit_torus((1/3, 1/5)) and marked_torus((1/2, 1/3)): 60 surfaces."""
    bases = (
        octagon_h2(),
        slit_torus(ExactVector.of(Fraction(1, 3), Fraction(1, 5))),
        marked_torus(ExactVector.of(Fraction(1, 2), Fraction(1, 3))),
    )
    return tuple(s for base in bases for s in mc.sample_stratum_local(base, "1/20", 20, seed=7).surfaces)


def sl2q(rng):
    """A random SL(2, Q) matrix: shear, diagonal, lower shear."""
    def q():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 7)))

    p = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    m = ExactMatrix.shear(q()).compose(ExactMatrix.diagonal(p, 1 / p))
    return m.compose(ExactMatrix.of(1, 0, q(), 1))


def trace_connection(
    s: TranslationSurface, start_vertex: int, displacement: ExactVector
) -> SaddleConnection:
    """The saddle connection from a vertex with the given exact holonomy.

    Raises BlockedAtVertex if the straight segment passes through another
    vertex first, InputError if no vertex sits at the displacement, and
    InputError at a cone point, where the vertex and the holonomy leave one
    segment per sheet (`_start_corner`).
    """
    s.validate()
    if displacement.is_zero():
        raise InputError("displacement must be nonzero")
    corners = [
        (t, c)
        for t in range(s.n_triangles())
        for c in range(3)
        if s.corner_vertex((t, c)) == start_vertex
    ]
    corner = _start_corner(s, corners, displacement)
    _, _, crossings, lower, end = _strip(s, corner, displacement)
    return SaddleConnection(
        holonomy=displacement,
        start=start_vertex,
        end=end,
        crossings=tuple(crossings),
        homology_class=s.homology().class_of_slots(lower),
        start_corner=corner,
    )
