"""Integer homology of a triangulated surface relative to its vertices.

Chains live in Z^E over the unoriented edges (canonical orientation: the
lexicographically smaller slot of each glued pair; columns in that order).
The relations are the triangles' oriented boundaries.  The dual graph has a
node per triangle and joins the two triangles on either side of each edge;
a spanning tree of it is chosen greedily in column order with a union-find,
and the edges off the tree are the free edges.

A chain is reduced root-first: each non-root triangle subtracts a multiple
of its own boundary to zero the tree edge to its parent, which no later
step touches again.  Every pivot is +/-1, so the reduction is integral and
linear, and the reduced tuple is supported on the free edges.  It is
canonical: a sum of triangle boundaries that vanishes on every tree edge
gives all triangles the same coefficient, hence is zero.  So two chains
are homologous iff their reduced tuples are equal, H_1(S, Sigma; Z) is free
on the free edges, and the reduced unit chain of a tree edge writes its
edge vector as an integer combination of the free edges' vectors (period
coordinates).  The tree needs a connected surface, which validation
guarantees.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .surface import Slot, TranslationSurface


class EdgeHomology:
    """Relative H_1 of a validated surface; built once per surface by
    TranslationSurface.homology()."""

    def __init__(self, s: TranslationSurface):
        s.validate()
        # The canonical slot of each edge, in column order.
        self.pairs: List[Slot] = sorted(slot for slot in s.slots() if slot < s.opposite(slot))
        self.n_edges = len(self.pairs)
        self.slot_index: Dict[Slot, Tuple[int, int]] = {}
        for idx, slot in enumerate(self.pairs):
            self.slot_index[slot] = (idx, 1)
            self.slot_index[s.opposite(slot)] = (idx, -1)

        # Spanning tree of the dual graph, greedy in column order.
        parent = list(range(s.n_triangles()))

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        tree: List[List[Tuple[int, int]]] = [[] for _ in parent]
        for idx, (t, i) in enumerate(self.pairs):
            u = s.opposite((t, i))[0]
            a, b = find(t), find(u)
            if a != b:
                parent[a] = b
                tree[t].append((u, idx))
                tree[u].append((t, idx))

        # Root-first from triangle 0: a step (e, row) zeroes tree edge e by
        # subtracting the boundary of the triangle below it, signed so that
        # its coefficient on e is 1.
        self._steps: List[Tuple[int, List[Tuple[int, int]]]] = []
        seen, order = {0}, [0]
        for t in order:
            for u, e in tree[t]:
                if u in seen:
                    continue
                seen.add(u)
                order.append(u)
                boundary = [self.slot_index[(u, i)] for i in range(3)]
                pivot = next(sign for idx, sign in boundary if idx == e)
                self._steps.append((e, [(idx, sign * pivot) for idx, sign in boundary]))
        tree_edges = {e for e, _ in self._steps}
        self.free: Tuple[int, ...] = tuple(i for i in range(self.n_edges) if i not in tree_edges)

    def chain_of_slots(self, slots) -> Tuple[int, ...]:
        row = [0] * self.n_edges
        for slot in slots:
            idx, sign = self.slot_index[slot]
            row[idx] += sign
        return tuple(row)

    def reduce(self, vec: Tuple[int, ...]) -> Tuple[int, ...]:
        """The canonical representative of vec's class, zero off the free
        edges."""
        v = list(vec)
        for e, row in self._steps:
            k = v[e]
            if k:
                for idx, c in row:
                    v[idx] -= k * c
        return tuple(v)

    def class_of_slots(self, slots) -> Tuple[int, ...]:
        return self.reduce(self.chain_of_slots(slots))

    @staticmethod
    def is_pm(class_a: Tuple[int, ...], class_b: Tuple[int, ...]) -> bool:
        """True iff [a] = [b] or [a] = -[b]."""
        return class_a == class_b or class_a == tuple(-x for x in class_b)
