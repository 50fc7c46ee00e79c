"""Translation surfaces as glued triangulations with exact edge vectors.

A surface is a list of positively oriented triangles (three edge vectors
summing to zero) plus an involutive pairing of edge slots; paired slots must
carry opposite vectors so all transition maps are translations.  Validation
derives the cone points, their orders, the genus and the stratum signature.

Slot convention: slot (t, i) is the directed edge of triangle t running from
corner i to corner (i+1) % 3; corner i sits at the tail of edge i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import (
    AreaError,
    ConeAngleError,
    EdgeSumError,
    GluingInvolutionError,
    GluingOppositeError,
    InputError,
    SingularMatrixError,
)
from .exactplane import ExactMatrix, ExactVector, format_rational, to_fraction

Slot = Tuple[int, int]

_X_AXIS = ExactVector(Fraction(1), Fraction(0))


@dataclass(frozen=True, slots=True)
class Triangle:
    edges: Tuple[ExactVector, ExactVector, ExactVector]

    def corner_positions(self) -> Tuple[ExactVector, ExactVector, ExactVector]:
        """Corners with corner 0 at the origin."""
        e0, e1, _ = self.edges
        return (ExactVector(Fraction(0), Fraction(0)), e0, e0 + e1)

    def signed_area2(self) -> Fraction:
        """Twice the signed area; positive for counterclockwise triangles."""
        return self.edges[0].cross(self.edges[1])


@dataclass(frozen=True, slots=True)
class StratumSignature:
    zero_orders: Tuple[int, ...]  # sorted descending
    genus: int
    dim_relative_homology: int

    def to_json_dict(self):
        return {
            "zero_orders": list(self.zero_orders),
            "genus": self.genus,
            "dim_relative_homology": self.dim_relative_homology,
        }


class TranslationSurface:
    """Immutable after validation; all operations are pure functions."""

    def __init__(self, triangles: List[Triangle], gluings: Dict[Slot, Slot]):
        self.triangles = tuple(triangles)
        self.gluings = dict(gluings)
        self._validated = False
        self._corner_vertex = None
        self._vertex_orders = None
        self._signature = None

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

        for t, tri in enumerate(self.triangles):
            total = tri.edges[0] + tri.edges[1] + tri.edges[2]
            if not total.is_zero():
                raise EdgeSumError(f"triangle {t} edges sum to {total}, not zero", triangle=t)
            if tri.signed_area2() <= 0:
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
        for slot, other in self.gluings.items():
            if not (self.edge_vector(slot) + self.edge_vector(other)).is_zero():
                raise GluingOppositeError(
                    f"glued slots {slot} and {other} do not carry opposite vectors"
                )

        corner_vertex, orders = self._derive_vertices()
        self._corner_vertex = corner_vertex
        self._vertex_orders = orders
        genus = self._genus()
        if sum(orders.values()) != 2 * genus - 2:
            # Gauss-Bonnet for translation structures; unreachable when the
            # checks above passed, kept as a defensive invariant.
            raise ConeAngleError(
                f"zero orders {sorted(orders.values())} do not sum to 2g-2 for genus {genus}"
            )

        # Order-0 vertices are removable marked points: excluded from the
        # signature when genuine zeros exist, reported as-is otherwise
        # (marked tori have nothing else).
        positive = sorted((k for k in orders.values() if k > 0), reverse=True)
        if positive:
            reported = tuple(positive)
        else:
            reported = tuple(sorted(orders.values(), reverse=True))
        n_dim = 2 * genus + len(reported) - 1

        self._signature = StratumSignature(reported, genus, n_dim)
        self._validated = True
        return self._signature

    def _next_corner_ccw(self, corner: Slot) -> Slot:
        """Next corner encountered rotating counterclockwise about the vertex."""
        t, c = corner
        return self.gluings[(t, (c + 2) % 3)]

    def _corner_rays(self, corner: Slot) -> Tuple[ExactVector, ExactVector]:
        """The two rays of the corner wedge: outgoing edge, reversed incoming."""
        t, c = corner
        return (self.triangles[t].edges[c], -self.triangles[t].edges[(c + 2) % 3])

    def _derive_vertices(self):
        """Group corners into vertices and compute cone angles exactly.

        The cone angle is 2*pi times the winding number of the wedge rays as
        the corner cycle is traversed; each corner turns by its interior
        angle (strictly between 0 and pi), so the winding equals the count of
        half-open wedge arcs [u, w) containing the +x direction.
        """
        corner_vertex: Dict[Slot, int] = {}
        orders: Dict[int, int] = {}
        next_id = 0
        for t in range(len(self.triangles)):
            for c in range(3):
                if (t, c) in corner_vertex:
                    continue
                cycle = []
                cur = (t, c)
                while cur not in corner_vertex:
                    corner_vertex[cur] = next_id
                    cycle.append(cur)
                    cur = self._next_corner_ccw(cur)
                if cur != (t, c):
                    raise GluingInvolutionError(
                        f"corner walk from {(t, c)} did not close up"
                    )
                crossings = 0
                for corner in cycle:
                    u, w = self._corner_rays(corner)
                    if _ray_contains_half_open(u, w, _X_AXIS):
                        crossings += 1
                if crossings < 1:
                    raise ConeAngleError(f"vertex at {(t, c)} has nonpositive cone angle")
                orders[next_id] = crossings - 1
                next_id += 1
        return corner_vertex, orders

    def _genus(self) -> int:
        faces = len(self.triangles)
        if (3 * faces) % 2 != 0:
            raise GluingInvolutionError("odd number of edge slots cannot be paired")
        edges = 3 * faces // 2
        vertices = len(set(self._corner_vertex_map().values()))
        chi = vertices - edges + faces
        if chi % 2 != 0:
            raise ConeAngleError(f"Euler characteristic {chi} is odd")
        return (2 - chi) // 2

    def _corner_vertex_map(self) -> Dict[Slot, int]:
        if self._corner_vertex is None:
            self._corner_vertex, self._vertex_orders = self._derive_vertices()
        return self._corner_vertex

    # -- validated accessors --------------------------------------------

    def signature(self) -> StratumSignature:
        return self.validate()

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
                a, b = (int(t1), int(e1)), (int(t2), int(e2))
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


def _ray_contains_half_open(u: ExactVector, w: ExactVector, r: ExactVector) -> bool:
    """True iff direction r lies in the half-open ccw arc [u, w).

    Requires the arc angle to be strictly inside (0, pi), which holds for
    interior angles of nondegenerate triangles.
    """
    if u.cross(r) == 0 and u.dot(r) > 0:
        return True
    if w.cross(r) == 0 and w.dot(r) > 0:
        return False
    return u.cross(r) > 0 and r.cross(w) > 0


def area(s: TranslationSurface) -> Fraction:
    """Total area, exact."""
    s.validate()
    return sum((tri.signed_area2() for tri in s.triangles), Fraction(0)) / 2


def apply_surface(m: ExactMatrix, s: TranslationSurface) -> TranslationSurface:
    """Image surface with every edge vector mapped by m; combinatorics kept."""
    if m.det() == 0:
        raise SingularMatrixError("cannot apply a singular matrix to a surface")
    triangles = [Triangle(tuple(m.apply(e) for e in tri.edges)) for tri in s.triangles]
    return TranslationSurface(triangles, s.gluings)


def validate(s: TranslationSurface) -> StratumSignature:
    return s.validate()


def surfaces_equal(a: TranslationSurface, b: TranslationSurface) -> bool:
    """Structural equality: same triangles, same gluing pairing."""
    if len(a.triangles) != len(b.triangles):
        return False
    if any(ta.edges != tb.edges for ta, tb in zip(a.triangles, b.triangles)):
        return False
    return a.gluings == b.gluings
