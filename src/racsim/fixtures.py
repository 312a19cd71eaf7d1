"""Benchmark topologies.

The small graphs here were found by constrained search (see
scripts/find_fixtures.py) so that each one satisfies the structural
conditions its experiment needs; the experiments depend only on the
consensus values, not on edge-exact topology.
"""

from __future__ import annotations

import itertools

from .graph import DirectedGraph, LayeredVariant, generate_layered


def six_node_graph() -> DirectedGraph:
    """Complete 6-node graph minus the matching (1,2), (3,4), (5,6).

    4-regular, 2-strongly connected, and every two-hop pair has four
    middle nodes, enough for majority voting with one malicious node.
    """
    skip = {(1, 2), (3, 4), (5, 6)}
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(1, 7), 2)
        if (a, b) not in skip
    ]
    return DirectedGraph(6, edges, undirected=True)


def six_node_damaged() -> DirectedGraph:
    """The six-node graph with edges (1,4), (2,5), (3,6) also removed.

    Two-hop voting coverage collapses to two middle nodes per pair, so
    the distributed-detection condition fails for one malicious node.
    """
    skip = {(1, 2), (3, 4), (5, 6), (1, 4), (2, 5), (3, 6)}
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(1, 7), 2)
        if (a, b) not in skip
    ]
    return DirectedGraph(6, edges, undirected=True)


FOURTEEN_NODE_LAYERS = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12), (13, 14))


def fourteen_node_graph() -> DirectedGraph:
    """Five layers with intra-layer cliques and complete bipartite
    links between adjacent layers. Nodes 2 and 14 sit in the first and
    last layers, so no node neighbors both and the 1-local bound holds
    for the adversary set {2, 14}."""
    edges = []
    layers = FOURTEEN_NODE_LAYERS
    for layer in layers:
        edges.extend(itertools.combinations(layer, 2))
    for a_layer, b_layer in zip(layers, layers[1:]):
        edges.extend((a, b) for a in a_layer for b in b_layer)
    return DirectedGraph(14, edges, undirected=True)


def eight_node_graph() -> DirectedGraph:
    """Almost complete 8-node graph: nodes 1 and 3..8 form a clique,
    node 2 has undirected edges to 1, 3 and 8, and directed out-only
    edges to 4..7. Nodes 1 and 8 receive from everyone (full access);
    node 2 hears from only one of the five malicious nodes 3..7."""
    clique = [1, 3, 4, 5, 6, 7, 8]
    edges = []
    for a, b in itertools.combinations(clique, 2):
        edges.append((a, b))
        edges.append((b, a))
    for b in (1, 3, 8):
        edges.append((2, b))
        edges.append((b, 2))
    for b in (4, 5, 6, 7):
        edges.append((2, b))
    return DirectedGraph(8, edges, undirected=False)


def five_node_graph() -> DirectedGraph:
    """Wheel on five nodes: hub 1 adjacent to all, rim cycle 2-3-4-5.

    3-connected and every adjacent pair shares a neighbor, which is
    what sharing detection needs with two malicious nodes."""
    edges = [(1, v) for v in (2, 3, 4, 5)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 2)]
    return DirectedGraph(5, edges, undirected=True)


def thirty_node_graph() -> DirectedGraph:
    return generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)


def twelve_node_wrap_graph() -> DirectedGraph:
    """The 4-layer path of twelve plus one-way edges from the last
    layer to the first: strongly connected, and a negative control
    that fails the distributed-detection condition."""
    path = generate_layered(4, 1, LayeredVariant.UNDIRECTED_PATH)
    return DirectedGraph(12, [*path.edges, *((a, b) for a in (10, 11, 12) for b in (1, 2, 3))])


FIXTURE_GRAPHS = {
    "six": six_node_graph,
    "six-damaged": six_node_damaged,
    "fourteen": fourteen_node_graph,
    "eight": eight_node_graph,
    "five": five_node_graph,
    "thirty": thirty_node_graph,
    "twelve-wrap": twelve_node_wrap_graph,
}
