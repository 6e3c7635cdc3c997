"""The consistency graph built from broadcast OK messages.

Both Pi_WPS and Pi_VSS have every party maintain an undirected graph G_i over
the party set, with an edge (P_j, P_k) whenever OK(j, k) and OK(k, j) have
both been received from the respective broadcasts.

The graph is stored as per-vertex *bitmasks* (bit k of ``mask(j)`` set iff
the edge (j, k) is present), so the heavy queries -- iterated degree pruning,
clique checks, star containment -- cost one ``int.bit_count`` or mask test
per vertex.  ``tests/test_graph.py`` checks them over randomized graphs
against brute-force oracles that only ever call :meth:`has_edge`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple


def _iter_mask(mask: int) -> Iterable[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ConsistencyGraph:
    """Undirected graph over party ids 1..n with edge/degree helpers."""

    def __init__(self, n: int):
        self.n = n
        self._bits: Dict[int, int] = {i: 0 for i in range(1, n + 1)}

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self._bits[a] |= 1 << b
        self._bits[b] |= 1 << a

    def remove_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self._bits[a] &= ~(1 << b)
        self._bits[b] &= ~(1 << a)

    def remove_vertex_edges(self, vertex: int) -> None:
        """Remove every edge incident to ``vertex`` (the dealer's NOK pruning)."""
        for neighbor in _iter_mask(self._bits[vertex]):
            self._bits[neighbor] &= ~(1 << vertex)
        self._bits[vertex] = 0

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self._bits[a] >> b & 1)

    def neighbors(self, vertex: int) -> Set[int]:
        return set(_iter_mask(self._bits[vertex]))

    def neighbor_mask(self, vertex: int) -> int:
        """Bitmask of the vertex's neighbours (bit k <=> edge to P_k)."""
        return self._bits[vertex]

    @staticmethod
    def vertex_mask(vertices: Iterable[int]) -> int:
        """Pack an iterable of vertex ids into a bitmask."""
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return mask

    def degree(self, vertex: int) -> int:
        return self._bits[vertex].bit_count()

    def edges(self) -> List[Tuple[int, int]]:
        return [
            (a, b) for a, mask in self._bits.items() for b in _iter_mask(mask) if a < b
        ]

    def vertices(self) -> List[int]:
        return list(range(1, self.n + 1))

    def copy(self) -> "ConsistencyGraph":
        clone = ConsistencyGraph(self.n)
        clone._bits = dict(self._bits)
        return clone

    def induced_subgraph(self, vertices: Iterable[int]) -> "ConsistencyGraph":
        """Subgraph induced by ``vertices`` (other vertices become isolated)."""
        keep = set(vertices)
        keep_mask = self.vertex_mask(keep)
        clone = ConsistencyGraph(self.n)
        for a in keep:
            clone._bits[a] = self._bits[a] & keep_mask
        return clone

    def degree_within(self, vertex: int, subset: Set[int]) -> int:
        return (self._bits[vertex] & self.vertex_mask(subset)).bit_count()

    def iterated_degree_prune(self, threshold: int) -> Set[int]:
        """The paper's W computation.

        Start with the vertices that are consistent with at least
        ``threshold`` parties and repeatedly remove any vertex consistent
        with fewer than ``threshold`` parties inside the current set, until
        stable.  A party always counts as consistent with itself, so the
        conditions are on (degree + 1); this inclusive convention is what
        makes the honest parties (of which there may be exactly n - t_s)
        qualify for W.

        The removal order does not matter: pruning to a fixpoint is
        confluent (the standard k-core argument).
        """
        bits = self._bits
        current = 0
        for v in range(1, self.n + 1):
            if bits[v].bit_count() + 1 >= threshold:
                current |= 1 << v
        changed = True
        while changed:
            changed = False
            for v in _iter_mask(current):
                if (bits[v] & current).bit_count() + 1 < threshold:
                    current &= ~(1 << v)
                    changed = True
        return set(_iter_mask(current))

    def is_clique(self, vertices: Iterable[int]) -> bool:
        group = list(vertices)
        # A repeated vertex can never form a clique (no self-loops).
        if len(group) != len(set(group)):
            return False
        group_mask = self.vertex_mask(group)
        return all(group_mask & ~(1 << v) & ~self._bits[v] == 0 for v in group)

    def contains_star(self, e_set: Iterable[int], f_set: Iterable[int]) -> bool:
        """Check that every E-vertex is adjacent to every (other) F-vertex."""
        f_mask = self.vertex_mask(f_set)
        return all(f_mask & ~(1 << a) & ~self._bits[a] == 0 for a in set(e_set))

    def __repr__(self) -> str:
        return f"ConsistencyGraph(n={self.n}, edges={len(self.edges())})"
