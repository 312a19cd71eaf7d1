import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.fixtures import thirty_node_graph
from racsim.graph import (
    DirectedGraph,
    GraphError,
    InstanceTooLarge,
    LayeredVariant,
    UnsupportedGraph,
    check_alg2_condition,
    check_alg3_condition,
    check_common_normal_neighbor,
    complete_graph,
    generate_layered,
    is_detectable,
    is_f_local,
    is_k_strongly_connected,
    is_strongly_connected,
    read_edge_list,
    two_hop_middle_nodes,
    vertex_connectivity_at_least,
    write_edge_list,
)
from oracles import brute_alg3_condition, brute_k_strongly_connected, strongly_connected


def directed_cycle(n: int) -> DirectedGraph:
    return DirectedGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def random_digraph(rng: random.Random, n: int, p: float) -> DirectedGraph:
    edges = [
        (j, i)
        for j in range(1, n + 1)
        for i in range(1, n + 1)
        if j != i and rng.random() < p
    ]
    return DirectedGraph(n, edges)


class TestDirectedGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(GraphError):
            DirectedGraph(3, [(1, 1)])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            DirectedGraph(3, [(1, 4)])

    def test_undirected_flag_symmetrizes(self):
        g = DirectedGraph(3, [(1, 2)], undirected=True)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_equality_includes_the_undirected_flag(self):
        # same edges, but only the first may run sharing detection
        flagged = read_edge_list("n 2 undirected\n1 2")
        plain = DirectedGraph(2, [(1, 2), (2, 1)])
        assert flagged.edges == plain.edges
        assert flagged != plain
        assert len({flagged, plain}) == 2
        assert flagged == DirectedGraph(2, [(1, 2)], undirected=True)
        assert hash(flagged) == hash(DirectedGraph(2, [(1, 2)], undirected=True))

    def test_neighbor_queries(self):
        g = DirectedGraph(3, [(1, 2), (3, 2)])
        assert g.in_neighbors(2) == {1, 3}
        assert g.out_neighbors(1) == {2}
        assert len(g.in_neighbors(2)) == 2 and len(g.out_neighbors(2)) == 0


class TestTwoHopMiddleNodes:
    def test_complete_k4(self):
        assert two_hop_middle_nodes(complete_graph(4), 1, 2) == {3, 4}

    def test_two_node_chain_has_none(self):
        g = DirectedGraph(2, [(1, 2)])
        assert two_hop_middle_nodes(g, 1, 2) == frozenset()

    def test_layered_middle_layer(self):
        g = generate_layered(4, 1, LayeredVariant.UNDIRECTED_PATH)
        # layer 3 starts at node 7; layer 1 at node 1; layer 2 between
        assert two_hop_middle_nodes(g, 7, 1) == {4, 5, 6}

    def test_invalid_arguments(self):
        g = complete_graph(4)
        with pytest.raises(GraphError):
            two_hop_middle_nodes(g, 1, 1)
        with pytest.raises(GraphError):
            two_hop_middle_nodes(g, 0, 2)


class TestIsDetectable:
    def test_direct_edge_any_f(self):
        g = DirectedGraph(2, [(1, 2)])
        assert is_detectable(g, 10, 1, 2)

    def test_two_middles_insufficient_for_f1(self):
        # 1 reaches 4 only through middles 2 and 3
        g = DirectedGraph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        assert len(two_hop_middle_nodes(g, 1, 4)) == 2
        assert not is_detectable(g, 1, 1, 4)

    def test_layered_three_middles(self):
        g = generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)
        assert is_detectable(g, 1, 7, 1)  # layer 3 to layer 1

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    def test_monotone_in_f(self, f1, f2):
        g = complete_graph(6)
        lo, hi = min(f1, f2), max(f1, f2)
        if is_detectable(g, hi, 1, 2):
            assert is_detectable(g, lo, 1, 2)


class TestAlg3Condition:
    @pytest.mark.parametrize("n,f", [(4, 1), (5, 3), (6, 4)])
    def test_complete_graphs_pass(self, n, f):
        assert check_alg3_condition(complete_graph(n), f).satisfied

    def test_thirty_node_layered_passes(self):
        g = generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)
        assert check_alg3_condition(g, 1).satisfied

    def test_directed_cycle_fails(self):
        report = check_alg3_condition(directed_cycle(5), 1)
        assert not report.satisfied
        assert report.violations

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_undirected_shortcut_agrees_with_full_check(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        edges = []
        for a, b in itertools.combinations(range(1, n + 1), 2):
            if rng.random() < 0.6:
                edges.append((a, b))
        g = DirectedGraph(n, edges, undirected=True)
        f = rng.randint(1, 2)
        fast = check_alg3_condition(g, f)
        # the same edges without the flag get all three conditions evaluated
        full = check_alg3_condition(DirectedGraph(g.n, g.edges), f)
        assert fast.satisfied == full.satisfied

    def test_lemma_direction_min_in_degree(self):
        # an incomplete strongly connected graph that passes the
        # condition must have every in-degree at least 2f+1
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            g = random_digraph(rng, rng.randint(4, 7), 0.8)
            complete = len(g.edges) == g.n * (g.n - 1)
            if complete or not is_strongly_connected(g):
                continue
            if check_alg3_condition(g, 1).satisfied:
                checked += 1
                assert all(len(g.in_neighbors(i)) >= 3 for i in g.nodes)
        assert checked > 0


class TestAlg2Condition:
    def test_triangle_f1(self):
        assert check_alg2_condition(complete_graph(3), 1).satisfied

    def test_star_f2_fails(self):
        g = DirectedGraph(5, [(1, v) for v in (2, 3, 4, 5)], undirected=True)
        assert not check_alg2_condition(g, 2).satisfied

    def test_directed_input_rejected(self):
        with pytest.raises(UnsupportedGraph):
            check_alg2_condition(directed_cycle(4), 1)

    def test_adjacent_malicious_pair_needs_normal_common_neighbor(self):
        g = complete_graph(4)
        assert check_common_normal_neighbor(g, {1, 2}).satisfied
        # adjacent pair whose only common neighbor is itself malicious
        triangle = complete_graph(3)
        assert not check_common_normal_neighbor(triangle, {1, 2, 3}).satisfied


class TestFLocal:
    def test_empty_adversary_set(self):
        assert is_f_local(complete_graph(4), set(), 0)

    def test_k4_two_adversaries_not_1_local(self):
        assert not is_f_local(complete_graph(4), {1, 2}, 1)

    def test_thirty_node_placement(self):
        g = generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)
        assert is_f_local(g, {3, 6, 15, 18, 27, 30}, 1)

    def test_thirty_node_normal_network_connected(self):
        # the normal nodes of the golden thirty-attack placement
        g = thirty_node_graph()
        normal = set(g.nodes) - {3, 6, 15, 18, 27, 30}
        assert len(normal) == 24
        assert strongly_connected(normal, set(g.edges))


class TestKStrongConnectivity:
    def test_cycle_is_1_but_not_2(self):
        g = directed_cycle(4)
        assert is_k_strongly_connected(g, 1)
        assert not is_k_strongly_connected(g, 2)

    def test_cap_enforced(self):
        with pytest.raises(InstanceTooLarge):
            is_k_strongly_connected(directed_cycle(25), 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_independent_enumerator(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.9))
        k = rng.randint(1, 2)
        assert is_k_strongly_connected(g, k) == brute_k_strongly_connected(
            g.n, set(g.edges), k
        )


class TestVertexConnectivity:
    def test_complete_k5(self):
        assert vertex_connectivity_at_least(complete_graph(5), 4)

    def test_path_middle_cut(self):
        g = DirectedGraph(3, [(1, 2), (2, 3)], undirected=True)
        assert not vertex_connectivity_at_least(g, 2)

    def test_directed_rejected(self):
        with pytest.raises(UnsupportedGraph):
            vertex_connectivity_at_least(directed_cycle(4), 1)


class TestGenerateLayered:
    def test_two_layers_is_complete_bipartite(self):
        g = generate_layered(2, 1, LayeredVariant.UNDIRECTED_PATH)
        assert g.n == 6
        for a in (1, 2, 3):
            assert g.out_neighbors(a) == {4, 5, 6}

    def test_too_few_layers(self):
        with pytest.raises(GraphError):
            generate_layered(1, 1, LayeredVariant.UNDIRECTED_PATH)

    @pytest.mark.parametrize("layers", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_generated_graphs_pass_their_condition(self, layers, f):
        g = generate_layered(layers, f, LayeredVariant.UNDIRECTED_PATH)
        assert all(len(g.in_neighbors(i)) >= 2 * f + 1 for i in g.nodes)
        assert check_alg3_condition(g, f).satisfied


class TestEdgeListFormat:
    def test_round_trip_directed(self):
        g = directed_cycle(4)
        assert read_edge_list(write_edge_list(g)) == g

    def test_round_trip_undirected(self):
        g = complete_graph(4)
        parsed = read_edge_list(write_edge_list(g))
        assert parsed == g and parsed.undirected

    def test_bad_header(self):
        with pytest.raises(GraphError):
            read_edge_list("nodes 4\n1 2\n")

    @pytest.mark.parametrize("header", ["n 3 undirectd", "n 3 undirected junk", "n 3 directed", "n"])
    def test_header_is_a_count_and_at_most_undirected(self, header):
        with pytest.raises(GraphError, match="bad header"):
            read_edge_list(f"{header}\n1 2\n2 3\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphError):
            read_edge_list("n 4\n1 2 3\n")
