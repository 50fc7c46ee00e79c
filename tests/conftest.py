from fractions import Fraction

import pytest

from saddlekit.builders import (
    marked_torus,
    octagon_h2,
    sheared_torus,
    slit_torus,
    square_torus,
    torus_from_matrix,
)
from saddlekit.exactplane import ExactMatrix, ExactVector
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
