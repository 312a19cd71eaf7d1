#!/usr/bin/env python3
"""Search for (and verify) the benchmark fixture topologies.

The experiments only pin down consensus values plus a handful of
structural requirements, so the small fixture graphs are found by
constrained search over natural graph families. Running this script
re-derives each shipped fixture and confirms it meets its experiment's
requirements; it exits non-zero if any search or check fails.
"""

from __future__ import annotations

import itertools
import sys

from racsim.adversary import AttackScript, validate_adversary_placement
from racsim.fixtures import (
    eight_node_graph,
    five_node_graph,
    fourteen_node_graph,
    six_node_damaged,
    six_node_graph,
)
from racsim.graph import (
    AdversaryKind,
    DirectedGraph,
    check_alg2_condition,
    check_alg3_condition,
    is_f_local,
    is_k_strongly_connected,
    vertex_connectivity_at_least,
)


def find_six_node() -> DirectedGraph:
    """A 6-node undirected graph with a pair of non-adjacent nodes,
    passing the distributed-detection condition for f=1 and 2-strongly
    connected. Searched over K6 minus a perfect matching."""
    nodes = list(range(1, 7))
    for matching in itertools.permutations(nodes[1:]):
        pairs = [(1, matching[0]), (matching[1], matching[2]), (matching[3], matching[4])]
        if any(a >= b for a, b in pairs):
            continue
        skip = set(pairs)
        edges = [
            (a, b)
            for a, b in itertools.combinations(nodes, 2)
            if (a, b) not in skip
        ]
        g = DirectedGraph(6, edges, undirected=True)
        if check_alg3_condition(g, 1).satisfied and is_k_strongly_connected(g, 2):
            return g
    raise SystemExit("no 6-node fixture found")


def find_five_node() -> DirectedGraph:
    """The sparsest 5-node undirected graph passing the sharing
    condition for f=2, searched by edge count."""
    all_pairs = list(itertools.combinations(range(1, 6), 2))
    for count in range(4, len(all_pairs) + 1):
        for chosen in itertools.combinations(all_pairs, count):
            g = DirectedGraph(5, chosen, undirected=True)
            if (
                vertex_connectivity_at_least(g, 3)
                and check_alg2_condition(g, 2).satisfied
            ):
                return g
    raise SystemExit("no 5-node fixture found")


def verify(label: str, ok: bool) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def main() -> int:
    results = []

    found = find_six_node()
    six = six_node_graph()
    results.append(verify("6-node search finds an admissible graph", found is not None))
    results.append(
        verify(
            "shipped 6-node fixture is admissible",
            check_alg3_condition(six, 1).satisfied and is_k_strongly_connected(six, 2),
        )
    )
    results.append(
        verify(
            "damaged 6-node variant violates the condition",
            not check_alg3_condition(six_node_damaged(), 1).satisfied,
        )
    )

    fourteen = fourteen_node_graph()
    results.append(
        verify(
            "14-node fixture passes the condition with a 1-local pair",
            check_alg3_condition(fourteen, 1).satisfied
            and is_f_local(fourteen, {2, 14}, 1),
        )
    )

    eight = eight_node_graph()
    placement = [AttackScript(v) for v in (3, 4, 5, 6, 7)]
    results.append(
        verify(
            "8-node fixture admits five adversaries via full-access receivers",
            validate_adversary_placement(eight, placement, 1, AdversaryKind.LOCAL).satisfied,
        )
    )

    found_five = find_five_node()
    five = five_node_graph()
    results.append(
        verify(
            "5-node search finds a minimal admissible graph",
            len(found_five.edges) <= len(five.edges),
        )
    )
    results.append(
        verify(
            "shipped 5-node fixture is admissible",
            vertex_connectivity_at_least(five, 3)
            and check_alg2_condition(five, 2).satisfied,
        )
    )

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
