"""Kernel backend selection: compiled extension when built, numpy fallback
otherwise.  Both expose count_primitive_in_disc with identical numerics."""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels as _compiled
except ImportError:  # extension not built on this install
    _compiled = None

BACKEND = "compiled" if _compiled is not None else "python"
_active = _compiled if _compiled is not None else _kernels_py


def count_primitive_in_disc(a: float, b: float, c: float, d: float, radius: float) -> int:
    """Primitive lattice points of [[a,b],[c,d]] Z^2 inside the closed disc."""
    return _active.count_primitive_in_disc(a, b, c, d, radius)


def backends() -> dict:
    """All available backends keyed by name (for the parity test)."""
    out = {"python": _kernels_py}
    if _compiled is not None:
        out["compiled"] = _compiled
    return out
