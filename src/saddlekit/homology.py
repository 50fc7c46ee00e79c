"""Integer homology of a triangulated surface relative to its vertices.

Chains live in Z^E over the unoriented edges (canonical orientation: the
lexicographically smaller slot of each glued pair).  One relation per
triangle (its oriented boundary) is quotiented out by Hermite-style integer
row reduction; reduced vectors are canonical coset representatives, so
equality of classes is equality of tuples.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .surface import Slot, TranslationSurface


def hnf_rows(rows: List[List[int]]) -> List[List[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: List[List[int]] = []
    col = 0
    pending = rows
    while pending and col < ncols:
        with_pivot = [r for r in pending if r[col] != 0]
        rest = [r for r in pending if r[col] == 0]
        if not with_pivot:
            col += 1
            continue
        # Euclidean reduction on the pivot column.
        while len(with_pivot) > 1:
            with_pivot.sort(key=lambda r: abs(r[col]))
            base = with_pivot[0]
            new_rest = []
            for r in with_pivot[1:]:
                q = r[col] // base[col]
                reduced = [x - q * y for x, y in zip(r, base)]
                if reduced[col] != 0:
                    new_rest.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            with_pivot = [base] + new_rest
        pivot_row = with_pivot[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        basis.append(pivot_row)
        pending = rest
        col += 1
    # Reduce entries above pivots.
    for i in range(len(basis) - 1, -1, -1):
        pcol = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    basis.sort(key=lambda r: next(j for j, x in enumerate(r) if x != 0))
    return basis


def reduce_mod_lattice(vec: Tuple[int, ...], basis: List[List[int]]) -> Tuple[int, ...]:
    """Canonical representative of vec modulo the HNF lattice basis."""
    v = list(vec)
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        q = v[pcol] // row[pcol]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


class EdgeHomology:
    """Relative H_1 computations for a fixed triangulated surface."""

    def __init__(self, s: TranslationSurface):
        s.validate()
        self.surface = s
        self.slot_index: Dict[Slot, Tuple[int, int]] = {}
        pairs = []
        for slot in s.slots():
            other = s.opposite(slot)
            canon = min(slot, other)
            if canon == slot:
                pairs.append(slot)
        pairs.sort()
        # The canonical slot of each edge, in column order.
        self.pairs: List[Slot] = pairs
        self.n_edges = len(pairs)
        for idx, slot in enumerate(pairs):
            self.slot_index[slot] = (idx, 1)
            self.slot_index[s.opposite(slot)] = (idx, -1)

        # One row per triangle: its oriented boundary as a chain.
        self.relations: List[List[int]] = [
            list(self.chain_of_slots((t, i) for i in range(3)))
            for t in range(s.n_triangles())
        ]
        self.basis = hnf_rows(self.relations)
        self.rank = len(self.basis)

    def chain_of_slots(self, slots) -> Tuple[int, ...]:
        row = [0] * self.n_edges
        for slot in slots:
            idx, sign = self.slot_index[slot]
            row[idx] += sign
        return tuple(row)

    def reduce(self, vec: Tuple[int, ...]) -> Tuple[int, ...]:
        return reduce_mod_lattice(vec, self.basis)

    def class_of_slots(self, slots) -> Tuple[int, ...]:
        return self.reduce(self.chain_of_slots(slots))

    def is_pm(self, class_a: Tuple[int, ...], class_b: Tuple[int, ...]) -> bool:
        """True iff [a] = [b] or [a] = -[b] in the quotient."""
        if class_a == class_b:
            return True
        neg = self.reduce(tuple(-x for x in class_b))
        return class_a == neg

    def is_proportional(self, class_a: Tuple[int, ...], class_b: Tuple[int, ...]) -> bool:
        """True iff [a] = k [b] for some integer k.

        Equivalent to membership of a in the lattice spanned by the
        relations together with b.
        """
        augmented = hnf_rows([list(r) for r in self.basis] + [list(class_b)])
        return not any(reduce_mod_lattice(class_a, augmented))

    def is_zero(self, class_a: Tuple[int, ...]) -> bool:
        return not any(class_a)
