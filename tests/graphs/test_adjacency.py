"""Tests for the mutable undirected graph with NoN queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ddsr import DDSROverlay
from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.graphs.generators import k_regular_graph


class TestBasicStructure:
    def test_add_nodes_and_edges(self):
        graph = UndirectedGraph()
        assert graph.add_edge(1, 2) is True
        assert graph.add_edge(2, 3) is True
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_duplicate_edge_collapses(self):
        graph = UndirectedGraph()
        assert graph.add_edge(1, 2) is True
        assert graph.add_edge(2, 1) is False
        assert graph.number_of_edges() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph().add_edge(1, 1)

    def test_edge_is_symmetric(self):
        graph = UndirectedGraph(edges=[(1, 2)])
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 1)

    def test_remove_edge(self):
        graph = UndirectedGraph(edges=[(1, 2), (2, 3)])
        assert graph.remove_edge(1, 2) is True
        assert graph.remove_edge(1, 2) is False
        assert not graph.has_edge(2, 1)
        assert graph.number_of_edges() == 1

    def test_remove_node_returns_former_neighbors(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2), (0, 3), (1, 2)])
        neighbors = graph.remove_node(0)
        assert set(neighbors) == {1, 2, 3}
        assert 0 not in graph
        assert graph.has_edge(1, 2)

    def test_remove_missing_node_raises(self):
        with pytest.raises(GraphError):
            UndirectedGraph().remove_node("nope")

    def test_constructor_with_nodes_and_edges(self):
        graph = UndirectedGraph(nodes=[1, 2, 3, 4], edges=[(1, 2)])
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 1


class TestQueries:
    def test_degree_and_degrees(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1
        assert graph.degrees() == {0: 3, 1: 1, 2: 1, 3: 1}

    def test_degree_of_missing_node_raises(self):
        with pytest.raises(GraphError):
            UndirectedGraph().degree(0)

    def test_max_degree(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2)])
        assert graph.max_degree() == 2
        assert UndirectedGraph().max_degree() == 0

    def test_neighbors_returns_copy(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        neighbors = graph.neighbors(0)
        neighbors.add(99)
        assert 99 not in graph.neighbors(0)

    def test_neighbors_of_neighbors_excludes_self_and_direct_peers(self):
        # 0 - 1 - 2 - 3 chain plus 0 - 4
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 4)])
        non = graph.neighbors_of_neighbors(0)
        assert non == {2}
        assert 0 not in non
        assert 1 not in non and 4 not in non

    def test_common_neighbors(self):
        graph = UndirectedGraph(edges=[(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        assert graph.common_neighbors(0, 1) == {2, 3}

    def test_edges_listed_once(self):
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 0)])
        assert len(graph.edges()) == 3

    def test_adjacency_view_is_frozen(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        view = graph.adjacency_view(0)
        assert view == frozenset({1})
        with pytest.raises(AttributeError):
            view.add(2)  # type: ignore[attr-defined]


class TestCopyAndSubgraph:
    def test_copy_is_independent(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert 2 not in graph
        assert graph.number_of_edges() == 1

    def test_subgraph_induces_edges(self):
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.number_of_nodes() == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(3, 0)

    def test_subgraph_with_unknown_nodes_ignores_them(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        sub = graph.subgraph([0, 1, 99])
        assert 99 not in sub

    def test_iteration_yields_nodes(self):
        graph = UndirectedGraph(nodes=[3, 1, 2])
        assert set(iter(graph)) == {1, 2, 3}



# ----------------------------------------------------------------------
# Degree index: top_degree_nodes() / max_degree() against a full scan
# ----------------------------------------------------------------------
#: Integer labels (whose repr order differs from numeric order: "10" < "9")
#: and .onion string labels, as the overlay layers use.
LABELINGS = {
    "int": lambda i: i,
    "onion": lambda i: f"{(i * 2654435761) % 10**6:06d}bot.onion",
}

#: add_edge is listed twice so graphs grow dense enough for ties and gaps.
_OPS = ("add_node", "add_edge", "add_edge", "add_leaf", "remove_edge",
        "remove_node", "copy", "subgraph")


def full_scan(graph):
    """``(top-degree nodes sorted by repr, max degree)`` from every node."""
    degrees = graph.degrees()
    top = max(degrees.values(), default=0)
    return sorted((n for n, d in degrees.items() if d == top), key=repr), top


def assert_index_matches_scan(graph):
    nodes, top = full_scan(graph)
    assert graph.top_degree_nodes() == nodes
    assert graph.max_degree() == top


class TestDegreeIndex:
    @settings(max_examples=150, deadline=None)
    @given(
        labeling=st.sampled_from(sorted(LABELINGS)),
        first_query=st.integers(min_value=0, max_value=15),
        steps=st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=10,
            max_size=120,
        ),
    )
    def test_random_mutations_match_full_scan(self, labeling, first_query, steps):
        """Every mutator keeps the index equal to a fresh scan.

        Before ``first_query`` the graph is mutated without an index; from
        then on it is queried after every step, so copies and subgraphs are
        queried both before they are taken (on the source) and after.
        """
        label = LABELINGS[labeling]
        graph = UndirectedGraph()
        for step, (op, a, b) in enumerate(steps):
            u, v = label(a), label(b)
            if op == "add_node":
                graph.add_node(u)
            elif op == "add_edge" and u != v:
                graph.add_edge(u, v)
            elif op == "add_leaf" and u != v:
                # Takes the general path when u exists or v does not.
                graph.add_leaf(u, v)
            elif op == "remove_edge":
                graph.remove_edge(u, v)
            elif op == "remove_node" and u in graph:
                graph.remove_node(u)
            elif op == "copy":
                graph = graph.copy()
            elif op == "subgraph":
                graph = graph.subgraph(n for n in graph.nodes() if n != u)
            if step >= first_query:
                assert_index_matches_scan(graph)
            else:
                assert graph.max_degree() == full_scan(graph)[1]
        assert_index_matches_scan(graph)

    def test_copy_and_subgraph_start_without_an_index(self):
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3)])
        assert graph.top_degree_nodes() == [1, 2]
        clone = graph.copy()
        sub = graph.subgraph([1, 2, 3])
        assert clone._buckets is None and sub._buckets is None
        clone.add_edge(0, 3)
        sub.remove_edge(1, 2)
        assert graph.top_degree_nodes() == [1, 2]
        assert_index_matches_scan(clone)
        assert_index_matches_scan(sub)

    def test_removing_the_lone_hub_drops_the_top_degree(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        assert graph.top_degree_nodes() == [0]
        graph.remove_node(0)
        assert graph.top_degree_nodes() == [1, 2]
        assert graph.max_degree() == 1

    def test_mutations_before_the_first_query_build_nothing(self):
        graph = UndirectedGraph(edges=[(0, 1), (1, 2)])
        graph.add_leaf(3, 2)
        graph.remove_node(0)
        assert graph.max_degree() == 2
        assert graph._buckets is None

    def test_empty_graph(self):
        graph = UndirectedGraph()
        assert graph.top_degree_nodes() == []
        assert graph.max_degree() == 0
        graph.add_edge("a", "b")
        graph.remove_node("a")
        graph.remove_node("b")
        assert graph.top_degree_nodes() == []
        assert graph.max_degree() == 0

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=30, max_value=120),
        k=st.sampled_from([4, 6, 10]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_native_wired_graph_under_a_hub_takedown(self, n, k, seed):
        """A k-regular graph (whose wiring writes ``_adjacency`` directly)
        stays in step with a scan through DDSR repair and pruning."""
        overlay = DDSROverlay(k_regular_graph(n, k, seed=seed), rng=random.Random(seed))
        graph = overlay.graph
        assert_index_matches_scan(graph)
        for _ in range(n // 3):
            overlay.remove_node(overlay.rng.choice(graph.top_degree_nodes()))
            assert_index_matches_scan(graph)
