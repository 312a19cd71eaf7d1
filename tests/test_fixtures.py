import pytest

from racsim.fixtures import (
    FIXTURE_GRAPHS,
    eight_node_graph,
    five_node_graph,
    fourteen_node_graph,
    six_node_damaged,
    six_node_graph,
    thirty_node_graph,
    twelve_node_wrap_graph,
)
from racsim.golden import golden_case
from racsim.graph import (
    check_alg2_condition,
    check_alg3_condition,
    is_f_local,
    is_k_strongly_connected,
    is_strongly_connected,
    two_hop_middle_nodes,
    vertex_connectivity_at_least,
)


SIX_X0 = tuple(golden_case("six-attack").data["x0"])
FOURTEEN_X0 = tuple(golden_case("fourteen-attack").data["x0"])
EIGHT_X0 = tuple(golden_case("eight-attack").data["x0"])
FIVE_X0 = tuple(golden_case("five-sharing").data["x0"])
THIRTY_X0 = tuple(golden_case("thirty-attack").data["x0"])


class TestSixNode:
    def test_structure(self):
        g = six_node_graph()
        assert g.n == 6 and g.undirected
        assert all(len(g.in_neighbors(i)) == 4 for i in g.nodes)

    def test_supports_distributed_detection(self):
        g = six_node_graph()
        assert check_alg3_condition(g, 1).satisfied
        assert is_k_strongly_connected(g, 2)

    def test_every_two_hop_pair_has_four_middles(self):
        g = six_node_graph()
        for h, i in ((1, 2), (3, 4), (5, 6)):
            assert len(two_hop_middle_nodes(g, h, i)) == 4

    def test_initial_values(self):
        assert sum(SIX_X0) / 6 == 5.0
        assert sum(SIX_X0[:5]) / 5 == pytest.approx(4.8)


class TestSixNodeDamaged:
    def test_detection_condition_fails(self):
        assert not check_alg3_condition(six_node_damaged(), 1).satisfied

    def test_still_connected(self):
        assert is_strongly_connected(six_node_damaged())


class TestFourteenNode:
    def test_supports_distributed_detection(self):
        assert check_alg3_condition(fourteen_node_graph(), 1).satisfied

    def test_adversary_pair_is_1_local(self):
        g = fourteen_node_graph()
        assert is_f_local(g, {2, 14}, 1)

    def test_initial_values(self):
        assert sum(FOURTEEN_X0) / 14 == 6.5
        keep = [v for i, v in enumerate(FOURTEEN_X0, start=1) if i not in (2, 14)]
        assert sum(keep) / len(keep) == 6.75


class TestEightNode:
    def test_full_access_receivers(self):
        g = eight_node_graph()
        for i in (1, 8):
            assert g.in_neighbors(i) == frozenset(set(g.nodes) - {i})

    def test_node_two_hears_one_adversary(self):
        g = eight_node_graph()
        assert g.in_neighbors(2) & {3, 4, 5, 6, 7} == {3}

    def test_initial_values(self):
        keep = [EIGHT_X0[0], EIGHT_X0[1], EIGHT_X0[7]]
        assert sum(keep) / 3 == 10.0


class TestFiveNode:
    def test_supports_sharing_detection_with_two_adversaries(self):
        g = five_node_graph()
        assert g.undirected
        assert vertex_connectivity_at_least(g, 3)
        assert check_alg2_condition(g, 2).satisfied

    def test_initial_values(self):
        assert sum(FIVE_X0[:3]) / 3 == 5.0


class TestThirtyNode:
    def test_structure_and_condition(self):
        g = thirty_node_graph()
        assert g.n == 30
        assert check_alg3_condition(g, 1).satisfied

    def test_colluding_pairs_are_1_local(self):
        assert is_f_local(thirty_node_graph(), {3, 6, 15, 18, 27, 30}, 1)

    def test_initial_values(self):
        assert sum(THIRTY_X0) / 30 == pytest.approx(6.8)
        keep = [v for i, v in enumerate(THIRTY_X0, start=1)
                if i not in (3, 6, 15, 18, 27, 30)]
        assert sum(keep) / len(keep) == pytest.approx(154.0 / 24.0)


class TestTwelveWrap:
    def test_directed_and_strongly_connected(self):
        g = twelve_node_wrap_graph()
        assert g.n == 12 and not g.undirected
        assert is_strongly_connected(g)

    def test_wrap_edges_fail_the_alg3_condition(self):
        # the 4-layer path's 54 edges and 9 one-way edges from the last
        # layer to the first, which break the condition: a negative control
        g = twelve_node_wrap_graph()
        assert len(g.edges) == 63
        assert {(a, b) for a in (10, 11, 12) for b in (1, 2, 3)} <= g.edges
        assert len(check_alg3_condition(g, 1).violations) == 9


class TestRegistry:
    def test_all_fixtures_buildable(self):
        for name, build in FIXTURE_GRAPHS.items():
            g = build()
            assert g.n >= 2, name
