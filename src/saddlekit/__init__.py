"""saddlekit: exact geometry on translation surfaces.

Enumeration of saddle connections, L1 Delaunay triangulations, spanner
paths along Delaunay edges, transform statistics over holonomy sets, exact
lattice oracles, and Monte Carlo estimators for counting asymptotics.
"""

__version__ = "0.1.0"

from .exactplane import ExactMatrix, ExactVector  # noqa: F401
from .surface import StratumSignature, TranslationSurface, Triangle  # noqa: F401
