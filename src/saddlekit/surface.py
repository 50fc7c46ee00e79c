"""Translation surfaces as glued triangulations with exact edge vectors.

A surface is a list of positively oriented triangles (three edge vectors
summing to zero) plus an involutive pairing of edge slots; paired slots must
carry opposite vectors so all transition maps are translations, and the
gluings must connect all triangles.  Validation scales the surface once by
D, the lcm of its edge-coordinate denominators, decides every invariant on
ints, and derives the cone points, their orders, the genus and the stratum
signature.  It keeps the int corner positions with
the corner->vertex map for the search, the straight-line walker and the
flips (`int_corners`).  The relative homology (`homology`) is built on first
use and kept beside them.

Slot convention: slot (t, i) is the directed edge of triangle t running from
corner i to corner (i+1) % 3; corner i sits at the tail of edge i.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import (
    AreaError,
    ConeAngleError,
    DisconnectedError,
    EdgeSumError,
    GluingInvolutionError,
    GluingOppositeError,
    InputError,
    SingularMatrixError,
)
from .exactplane import ExactMatrix, ExactVector, _ints, _scale_of

Slot = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class Triangle:
    edges: Tuple[ExactVector, ExactVector, ExactVector]

    def corner_positions(self) -> Tuple[ExactVector, ExactVector, ExactVector]:
        """Corners with corner 0 at the origin."""
        e0, e1, _ = self.edges
        return (ExactVector(Fraction(0), Fraction(0)), e0, e0 + e1)


@dataclass(frozen=True, slots=True)
class StratumSignature:
    zero_orders: Tuple[int, ...]  # sorted descending
    genus: int
    dim_relative_homology: int

    def to_json_dict(self):
        return asdict(self)


class TranslationSurface:
    """Immutable after validation; all operations are pure functions."""

    def __init__(self, triangles: List[Triangle], gluings: Dict[Slot, Slot]):
        self.triangles = tuple(triangles)
        self.gluings = dict(gluings)
        self._validated = False
        self._scale = None
        self._corners = None
        self._corner_vertex = None
        self._vertex_orders = None
        self._signature = None
        self._homology = None

    # -- structure helpers --------------------------------------------

    def slots(self):
        for t in range(len(self.triangles)):
            for i in range(3):
                yield (t, i)

    def edge_vector(self, slot: Slot) -> ExactVector:
        return self.triangles[slot[0]].edges[slot[1]]

    def opposite(self, slot: Slot) -> Slot:
        return self.gluings[slot]

    def n_triangles(self) -> int:
        return len(self.triangles)

    # -- validation ----------------------------------------------------

    def validate(self) -> StratumSignature:
        """Check all surface invariants; return the stratum signature.

        Raises a SurfaceError subclass with a distinct code per failed
        invariant.  Results are cached; revalidation is free.
        """
        if self._validated:
            return self._signature

        if not self.triangles:
            raise InputError("surface has no triangles")

        scale = _scale_of(e for tri in self.triangles for e in tri.edges)
        edges = [[_ints(e, scale) for e in tri.edges] for tri in self.triangles]
        for t, ((x0, y0), (x1, y1), (x2, y2)) in enumerate(edges):
            if x0 + x1 + x2 or y0 + y1 + y2:
                total = ExactVector(Fraction(x0 + x1 + x2, scale), Fraction(y0 + y1 + y2, scale))
                raise EdgeSumError(f"triangle {t} edges sum to {total}, not zero", triangle=t)
            if x0 * y1 - y0 * x1 <= 0:
                raise AreaError(f"triangle {t} has nonpositive signed area", triangle=t)

        all_slots = set(self.slots())
        if set(self.gluings.keys()) != all_slots:
            missing = sorted(all_slots - set(self.gluings.keys()))[:3]
            extra = sorted(set(self.gluings.keys()) - all_slots)[:3]
            raise GluingInvolutionError(
                f"gluing must pair every edge slot exactly once (missing={missing}, extra={extra})"
            )
        for slot, other in self.gluings.items():
            if other == slot:
                raise GluingInvolutionError(f"slot {slot} glued to itself")
            if other not in self.gluings or self.gluings[other] != slot:
                raise GluingInvolutionError(f"gluing not involutive at {slot}")
        for (t, i), (u, j) in self.gluings.items():
            (x, y), (ox, oy) = edges[t][i], edges[u][j]
            if x + ox or y + oy:
                raise GluingOppositeError(
                    f"glued slots {(t, i)} and {(u, j)} do not carry opposite vectors"
                )
        reached, stack = {0}, [0]
        while stack:
            t = stack.pop()
            for i in range(3):
                u = self.gluings[(t, i)][0]
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        if len(reached) < len(self.triangles):
            raise DisconnectedError(
                f"surface is disconnected: triangle 0 reaches {len(reached)} of "
                f"{len(self.triangles)} triangles through the gluings"
            )

        self._scale = scale
        self._corners = [((0, 0), (x0, y0), (x0 + x1, y0 + y1)) for (x0, y0), (x1, y1), _ in edges]
        self._corner_vertex, orders = self._derive_vertices()
        self._vertex_orders = orders
        genus = self._genus()
        if sum(orders.values()) != 2 * genus - 2:
            # Gauss-Bonnet for translation structures; unreachable when the
            # checks above passed, kept as a defensive invariant.
            raise ConeAngleError(
                f"zero orders {sorted(orders.values())} do not sum to 2g-2 for genus {genus}"
            )

        # Order-0 vertices are marked points, zeros of order 0: every vertex
        # belongs to Sigma, and H_1(S, Sigma) has rank 2g + V - 1.
        reported = tuple(sorted(orders.values(), reverse=True))
        self._signature = StratumSignature(reported, genus, 2 * genus + len(reported) - 1)
        self._validated = True
        return self._signature

    def _derive_vertices(self):
        """Group corners into vertices and compute cone angles exactly.

        The cone angle is 2*pi times the winding number of the wedge rays as
        the corner cycle is traversed; each corner turns by its interior
        angle (strictly between 0 and pi), so the winding equals the count of
        half-open corner wedges holding the +x direction.
        """
        corner_vertex: Dict[Slot, int] = {}
        orders: Dict[int, int] = {}
        for t in range(len(self.triangles)):
            for c in range(3):
                if (t, c) in corner_vertex:
                    continue
                cur, crossings = (t, c), 0
                while cur not in corner_vertex:
                    corner_vertex[cur] = len(orders)
                    crossings += _in_wedge(self._corners[cur[0]], cur[1], (1, 0))
                    # The next corner counterclockwise about the vertex.
                    cur = self.gluings[(cur[0], (cur[1] + 2) % 3)]
                if cur != (t, c):
                    raise GluingInvolutionError(
                        f"corner walk from {(t, c)} did not close up"
                    )
                if crossings < 1:
                    raise ConeAngleError(f"vertex at {(t, c)} has nonpositive cone angle")
                orders[len(orders)] = crossings - 1
        return corner_vertex, orders

    def _genus(self) -> int:
        faces = len(self.triangles)
        if (3 * faces) % 2 != 0:
            raise GluingInvolutionError("odd number of edge slots cannot be paired")
        edges = 3 * faces // 2
        chi = len(self._vertex_orders) - edges + faces
        if chi % 2 != 0:
            raise ConeAngleError(f"Euler characteristic {chi} is odd")
        return (2 - chi) // 2

    # -- validated accessors --------------------------------------------

    def signature(self) -> StratumSignature:
        return self.validate()

    def int_corners(self):
        """(D, corners): D is the lcm of the edge-coordinate denominators and
        corners[t] holds triangle t's corner positions times D as int pairs,
        corner 0 at the origin."""
        self.validate()
        return self._scale, self._corners

    def homology(self):
        """The surface's EdgeHomology, built on first use."""
        if self._homology is None:
            from .homology import EdgeHomology

            self._homology = EdgeHomology(self)
        return self._homology

    def corner_vertex(self, corner: Slot) -> int:
        self.validate()
        return self._corner_vertex[corner]

    def vertex_orders(self) -> Dict[int, int]:
        self.validate()
        return dict(self._vertex_orders)

    def n_vertices(self) -> int:
        self.validate()
        return len(self._vertex_orders)

    def min_edge_norm_sq(self) -> Fraction:
        return min(self.edge_vector(s).norm_sq() for s in self.slots())

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        pairs = set()
        for slot, other in self.gluings.items():
            pairs.add(tuple(sorted((slot, other))))
        return {
            "triangles": [
                {"edges": [e.to_json() for e in tri.edges]} for tri in self.triangles
            ],
            "gluings": [[list(a), list(b)] for a, b in sorted(pairs)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "TranslationSurface":
        try:
            triangles = [
                Triangle(tuple(ExactVector.from_json(e) for e in tri["edges"]))
                for tri in data["triangles"]
            ]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed surface JSON: {exc}")
        for tri in triangles:
            if len(tri.edges) != 3:
                raise InputError("each triangle needs exactly 3 edges")
        gluings: Dict[Slot, Slot] = {}
        try:
            for pair in data.get("gluings", []):
                (t1, e1), (t2, e2) = pair
                a, b = (t1, e1), (t2, e2)
                # A JSON integer: neither a fraction of one nor a boolean.
                if not all(type(i) is int for i in a + b):
                    raise InputError(f"malformed gluing entry: slot indices must be integers, got {pair!r}")
                gluings[a] = b
                gluings[b] = a
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed gluing entry: {exc}")
        return cls(triangles, gluings)

    @classmethod
    def from_json(cls, text: str) -> "TranslationSurface":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"surface is not valid JSON: {exc}")
        return cls.from_json_dict(data)


def _in_wedge(tri, c: int, r) -> bool:
    """The int direction r lies in the half-open wedge [out-edge, reversed
    in-edge) at corner c of the positively oriented int triangle tri."""
    (ox, oy), (ax, ay), (bx, by), (rx, ry) = tri[c], tri[(c + 1) % 3], tri[(c + 2) % 3], r
    ux, uy, wx, wy = ax - ox, ay - oy, bx - ox, by - oy
    turn = ux * ry - uy * rx
    return turn > 0 and rx * wy - ry * wx > 0 or turn == 0 and ux * rx + uy * ry > 0


def area(s: TranslationSurface) -> Fraction:
    """Total area, exact."""
    scale, corners = s.int_corners()
    return Fraction(sum(x1 * y2 - y1 * x2 for _, (x1, y1), (x2, y2) in corners), 2 * scale * scale)


def apply_surface(m: ExactMatrix, s: TranslationSurface) -> TranslationSurface:
    """Image surface with every edge vector mapped by m; combinatorics kept."""
    if m.det() == 0:
        raise SingularMatrixError("cannot apply a singular matrix to a surface")
    triangles = [Triangle(tuple(m.apply(e) for e in tri.edges)) for tri in s.triangles]
    return TranslationSurface(triangles, s.gluings)

