"""Tests for the consistency graph and the (n, t)-star algorithm."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.graph.consistency import ConsistencyGraph
from repro.graph.star import (
    Star,
    find_clique_of_size,
    find_star,
    maximum_matching,
    verify_star,
)


def _clique_graph(n, members):
    graph = ConsistencyGraph(n)
    for a in members:
        for b in members:
            if a < b:
                graph.add_edge(a, b)
    return graph


def test_add_edge_and_degree():
    graph = ConsistencyGraph(4)
    graph.add_edge(1, 2)
    graph.add_edge(1, 2)  # idempotent
    graph.add_edge(1, 1)  # self loops ignored
    assert graph.has_edge(1, 2) and graph.has_edge(2, 1)
    assert graph.degree(1) == 1
    assert graph.neighbors(1) == {2}
    assert graph.edges() == [(1, 2)]
    assert graph.vertices() == [1, 2, 3, 4]


def test_remove_vertex_edges():
    graph = _clique_graph(4, [1, 2, 3, 4])
    graph.remove_vertex_edges(2)
    assert graph.degree(2) == 0
    assert not graph.has_edge(1, 2)
    assert graph.has_edge(1, 3)


def test_copy_and_induced_subgraph():
    graph = _clique_graph(5, [1, 2, 3])
    clone = graph.copy()
    clone.add_edge(4, 5)
    assert not graph.has_edge(4, 5)
    induced = graph.induced_subgraph({1, 2})
    assert induced.has_edge(1, 2)
    assert not induced.has_edge(1, 3)


def test_iterated_degree_prune_keeps_clique():
    # n = 4, threshold n - ts = 3; the 3-clique must survive (inclusive count).
    graph = _clique_graph(4, [1, 2, 4])
    pruned = graph.iterated_degree_prune(3)
    assert pruned == {1, 2, 4}


def test_iterated_degree_prune_removes_weak_vertices():
    graph = _clique_graph(6, [1, 2, 3, 4])
    graph.add_edge(5, 1)  # vertex 5 hangs off the clique
    pruned = graph.iterated_degree_prune(4)
    assert pruned == {1, 2, 3, 4}


def test_is_clique_and_contains_star():
    graph = _clique_graph(5, [1, 2, 3])
    assert graph.is_clique([1, 2, 3])
    assert not graph.is_clique([1, 2, 4])
    assert graph.contains_star([1, 2], [1, 2, 3])
    assert not graph.contains_star([1, 4], [1, 2, 3])


def test_degree_within():
    graph = _clique_graph(5, [1, 2, 3, 4])
    assert graph.degree_within(1, {2, 3}) == 2
    assert graph.degree_within(5, {1, 2}) == 0


def test_maximum_matching_simple():
    # Path 1-2-3: maximum matching has one edge.
    matching = maximum_matching([1, 2, 3], {(1, 2), (2, 3)})
    assert len(matching) == 1
    # Two disjoint edges.
    matching = maximum_matching([1, 2, 3, 4], {(1, 2), (3, 4)})
    assert len(matching) == 2
    assert maximum_matching([1, 2], set()) == []


def test_find_clique_of_size():
    graph = _clique_graph(6, [2, 3, 5, 6])
    assert find_clique_of_size(graph, 4) == {2, 3, 5, 6}
    assert find_clique_of_size(graph, 5) is None
    assert find_clique_of_size(graph, 0) == set()


def test_find_star_full_graph():
    n, t = 7, 2
    graph = _clique_graph(n, range(1, n + 1))
    star = find_star(graph, t)
    assert star is not None
    assert verify_star(graph, star, t)
    assert len(star.e_set) >= n - 2 * t
    assert len(star.f_set) >= n - t


def test_find_star_with_honest_clique_only():
    # Exactly n - t honest parties forming a clique; the corrupt ones silent.
    n, t = 7, 2
    graph = _clique_graph(n, [1, 2, 3, 4, 5])
    star = find_star(graph, t)
    assert star is not None
    assert verify_star(graph, star, t)
    assert star.e_set <= {1, 2, 3, 4, 5}


def test_find_star_returns_none_without_clique():
    n, t = 4, 1
    graph = ConsistencyGraph(n)
    graph.add_edge(1, 2)
    assert find_star(graph, t) is None


def test_find_star_within_subset():
    n, t = 7, 2
    graph = _clique_graph(n, [1, 2, 3, 4, 5])
    graph.add_edge(6, 1)
    star = find_star(graph, t, within={1, 2, 3, 4, 5})
    assert star is not None
    assert star.f_set <= {1, 2, 3, 4, 5}
    assert verify_star(graph, star, t, within={1, 2, 3, 4, 5})


def test_verify_star_rejects_bad_shapes():
    n, t = 4, 1
    graph = _clique_graph(n, [1, 2, 3])
    assert not verify_star(graph, Star(frozenset({1, 4}), frozenset({1, 2, 3, 4})), t)
    assert not verify_star(graph, Star(frozenset({1}), frozenset({1, 2})), t)  # F too small
    assert not verify_star(graph, Star(frozenset({1, 2}), frozenset({2})), t)  # E not subset of F
    assert not verify_star(
        graph, Star(frozenset({1, 2}), frozenset({1, 2, 3})), t, within={1, 2}
    )  # F outside the allowed subset


# -- edge cases: no-star executions, minimal stars, NOK-heavy graphs ----------------


def test_no_star_in_empty_and_near_empty_graphs():
    """No-star executions: empty graph, matching-only graph, star-free prune."""
    n, t = 7, 2
    empty = ConsistencyGraph(n)
    assert find_star(empty, t) is None
    assert empty.iterated_degree_prune(n - t) == set()

    # A perfect-matching-only graph (max degree 1) has no (n, t)-star either.
    sparse = ConsistencyGraph(6)
    for a, b in [(1, 2), (3, 4), (5, 6)]:
        sparse.add_edge(a, b)
    assert find_star(sparse, 1) is None
    assert sparse.iterated_degree_prune(5) == set()


def test_minimal_star_exact_thresholds():
    """A minimal star: |E| = n - 2t and |F| = n - t exactly, nothing spare."""
    n, t = 7, 2
    e_members = {1, 2, 3}            # n - 2t = 3
    f_members = {1, 2, 3, 4, 5}      # n - t = 5
    graph = ConsistencyGraph(n)
    for a in e_members:
        for b in f_members:
            if a != b:
                graph.add_edge(a, b)
    star = Star(frozenset(e_members), frozenset(f_members))
    assert graph.contains_star(e_members, f_members)
    assert verify_star(graph, star, t)
    # Dropping any single E-F edge destroys the star.
    broken = graph.copy()
    broken.remove_edge(1, 5)
    assert not broken.contains_star(e_members, f_members)
    assert not verify_star(broken, star, t)


def test_minimal_ts_plus_one_clique_star():
    """The smallest interesting case: an exact (t_s+1)-sized clique core at n=4."""
    n, t = 4, 1
    graph = _clique_graph(n, [1, 2, 3])  # n - t = 3 clique, nothing else
    star = find_star(graph, t)
    assert star is not None
    assert verify_star(graph, star, t)
    assert star.e_set <= {1, 2, 3} and len(star.e_set) >= n - 2 * t


def test_nok_heavy_graph_prune_and_star():
    """NOK-heavy executions: dealer pruning strips vertices, W and stars follow."""
    n, t = 7, 2
    graph = _clique_graph(n, range(1, n + 1))
    # NOK verdicts against two parties: the dealer removes their edges.
    for noisy in (6, 7):
        graph.remove_vertex_edges(noisy)
    w_set = graph.iterated_degree_prune(n - t)
    assert w_set == {1, 2, 3, 4, 5}
    # The surviving 5-clique still yields a star within W.
    star = find_star(graph, t, within=w_set)
    assert star is not None
    assert verify_star(graph, star, t, within=w_set)
    assert star.f_set <= w_set
    # One more NOK takes the graph below the n - 2t clique bound: no star.
    graph.remove_vertex_edges(5)
    graph.remove_vertex_edges(4)
    assert find_star(graph, t, within=graph.iterated_degree_prune(n - t)) is None


def _brute_force_core(graph, vertices, threshold):
    """The k-core by definition, through ``has_edge`` only: drop any vertex
    consistent with fewer than ``threshold`` members (itself included)."""
    current = set(vertices)
    while True:
        weak = {
            v for v in current
            if 1 + sum(graph.has_edge(v, u) for u in current if u != v) < threshold
        }
        if not weak:
            return current
        current -= weak


def _all_pairs_adjacent(graph, left, right):
    return all(graph.has_edge(a, b) for a in left for b in right if a != b)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2 ** 31))
def test_property_bitmask_queries_match_brute_force_oracle(n, seed):
    """The bitmask queries agree with oracles that only ever ask ``has_edge``."""
    rng = random.Random(seed)
    t = (n - 1) // 3
    vertices = range(1, n + 1)
    graph = ConsistencyGraph(n)
    density = rng.choice([0.15, 0.5, 0.85])
    for a, b in itertools.combinations(vertices, 2):
        if rng.random() < density:
            graph.add_edge(a, b)
    if rng.random() < 0.4:  # NOK pruning happens in real executions
        graph.remove_vertex_edges(rng.randint(1, n))
    subset = set(rng.sample(vertices, rng.randint(1, n)))

    assert graph.iterated_degree_prune(n - t) == _brute_force_core(graph, vertices, n - t)
    assert graph.is_clique(subset) == _all_pairs_adjacent(graph, subset, subset)
    assert graph.contains_star(subset, set(vertices)) == _all_pairs_adjacent(
        graph, subset, vertices
    )
    assert graph.degree_within(1, subset) == sum(graph.has_edge(1, u) for u in subset)
    assert graph.neighbors(1) == {u for u in vertices if graph.has_edge(1, u)}
    assert sorted(graph.edges()) == [
        (a, b) for a, b in itertools.combinations(vertices, 2) if graph.has_edge(a, b)
    ]

    star = find_star(graph, t)
    if star is None:
        # AlgStar's contract: it may only fail when no (n - t)-clique exists.
        assert not any(
            _all_pairs_adjacent(graph, combo, combo)
            for combo in itertools.combinations(vertices, n - t)
        )
    else:
        assert star.e_set <= star.f_set <= set(vertices)
        assert len(star.e_set) >= n - 2 * t and len(star.f_set) >= n - t
        assert _all_pairs_adjacent(graph, star.e_set, star.f_set)
        assert verify_star(graph, star, t)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2 ** 31))
def test_property_star_exists_when_honest_clique_exists(n, seed):
    """AlgStar's contract: a clique of size n - t guarantees an (n, t)-star."""
    t = (n - 1) // 3
    rng = random.Random(seed)
    honest = rng.sample(range(1, n + 1), n - t)
    graph = ConsistencyGraph(n)
    for a, b in itertools.combinations(honest, 2):
        graph.add_edge(a, b)
    # Random extra edges involving the "corrupt" vertices.
    others = [v for v in range(1, n + 1) if v not in honest]
    for v in others:
        for u in range(1, n + 1):
            if u != v and rng.random() < 0.5:
                graph.add_edge(u, v)
    star = find_star(graph, t)
    assert star is not None
    assert verify_star(graph, star, t)
