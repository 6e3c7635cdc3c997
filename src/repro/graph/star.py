"""AlgStar: finding an (n, t)-star in the consistency graph.

Definition (Section 2.1): (E, F) with E ⊆ F ⊆ P is an (n, t)-star of graph G
if |E| >= n - 2t, |F| >= n - t, and G has an edge between every P_i ∈ E and
every P_j ∈ F.

We implement the classical matching-based STAR algorithm of [13]
(maximum matching in the complement graph, then removing matched vertices
and "triangle heads"), plus a bounded exhaustive clique search as a
fallback so that the paper's contract -- AlgStar succeeds whenever G
contains a clique of size n - t -- holds unconditionally for the party
counts we simulate.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.graph.consistency import ConsistencyGraph


class Star(NamedTuple):
    """An (n, t)-star: E ⊆ F with full E-F connectivity."""

    e_set: FrozenSet[int]
    f_set: FrozenSet[int]


def maximum_matching(vertices: List[int], edges: Set[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Maximum-cardinality matching by branch-and-bound.

    The complement of a consistency graph over n <= 16 parties is tiny, so a
    simple exhaustive search (branch on whether the first free edge is in the
    matching) is adequate and avoids pulling in a blossom implementation.
    """
    edge_list = sorted({(min(a, b), max(a, b)) for a, b in edges})

    best: List[Tuple[int, int]] = []

    def search(index: int, used: Set[int], chosen: List[Tuple[int, int]]) -> None:
        nonlocal best
        # Bound: even taking every remaining edge cannot beat the best.
        if len(chosen) + (len(edge_list) - index) <= len(best):
            return
        if index == len(edge_list):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        a, b = edge_list[index]
        if a not in used and b not in used:
            chosen.append((a, b))
            used.add(a)
            used.add(b)
            search(index + 1, used, chosen)
            used.discard(a)
            used.discard(b)
            chosen.pop()
        search(index + 1, used, chosen)

    search(0, set(), [])
    return best


def find_clique_of_size(graph: ConsistencyGraph, size: int, candidates: Optional[Set[int]] = None) -> Optional[Set[int]]:
    """Exhaustively search for a clique of the given size (small n only)."""
    pool = sorted(candidates if candidates is not None else graph.vertices())
    if size <= 0:
        return set()
    if len(pool) < size:
        return None
    # Restrict to vertices with enough degree inside the pool to be useful.
    pool = [v for v in pool if graph.degree_within(v, set(pool)) >= size - 1]
    if len(pool) < size:
        return None
    for combo in itertools.combinations(pool, size):
        if graph.is_clique(combo):
            return set(combo)
    return None


def _matching_based_star(graph: ConsistencyGraph, n: int, t: int) -> Optional[Star]:
    """The STAR algorithm of [13] on the complement graph.

    The complement adjacency is materialized as per-vertex bitmasks (one
    mask op per pair instead of a set probe), which is what the per-edge
    consistency-graph updates of Pi_WPS/Pi_VSS hit on every OK delivery at
    larger n.
    """
    vertices = graph.vertices()
    comp = {v: ~graph.neighbor_mask(v) & ~(1 << v) for v in vertices}
    complement_edges = {
        (a, b)
        for a in vertices
        for b in vertices
        if a < b and comp[a] >> b & 1
    }
    matching = maximum_matching(vertices, complement_edges)
    matched: Set[int] = {v for edge in matching for v in edge}
    triangle_heads = {
        v
        for v in vertices
        if v not in matched
        and any(comp[v] >> u & 1 and comp[v] >> w & 1 for u, w in matching)
    }
    e_set = {v for v in vertices if v not in matched and v not in triangle_heads}
    e_mask = ConsistencyGraph.vertex_mask(e_set)
    f_set = {v for v in vertices if comp[v] & e_mask == 0}
    if len(e_set) >= n - 2 * t and len(f_set) >= n - t and e_set <= f_set:
        return Star(frozenset(e_set), frozenset(f_set))
    return None


def find_star(graph: ConsistencyGraph, t: int, within: Optional[Set[int]] = None) -> Optional[Star]:
    """Find an (n, t)-star of ``graph`` (optionally of the induced subgraph).

    Tries the matching-based construction first; if it fails the size checks
    but a clique of size n - t exists, falls back to returning that clique as
    (E, F) = (K, K-extended), preserving the paper's guarantee that AlgStar
    succeeds whenever such a clique is present.
    """
    n = graph.n
    working = graph.induced_subgraph(within) if within is not None else graph
    star = _matching_based_star(working, n, t)
    if star is not None:
        return star
    clique = find_clique_of_size(working, n - t, candidates=within)
    if clique is None:
        return None
    # Extend F with every vertex adjacent to all of the clique.
    f_set = {
        v
        for v in (within if within is not None else set(working.vertices()))
        if all(v == c or working.has_edge(v, c) for c in clique)
    }
    f_set |= clique
    if len(clique) >= n - 2 * t and len(f_set) >= n - t:
        return Star(frozenset(clique), frozenset(f_set))
    return None


def verify_star(graph: ConsistencyGraph, star: Star, t: int, within: Optional[Set[int]] = None) -> bool:
    """Check that ``star`` really is an (n, t)-star of ``graph`` (or subgraph)."""
    n = graph.n
    working = graph.induced_subgraph(within) if within is not None else graph
    if not star.e_set <= star.f_set:
        return False
    if within is not None and not (star.f_set <= set(within)):
        return False
    if len(star.e_set) < n - 2 * t or len(star.f_set) < n - t:
        return False
    return working.contains_star(star.e_set, star.f_set)
