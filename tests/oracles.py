"""Independent reference implementations used to validate the package.

These deliberately avoid the package's own data structures and code
paths: the averaging oracle works on raw mass vectors, and the graph
oracles enumerate definitions directly over plain edge sets (with
networkx for connectivity).
"""

from __future__ import annotations

import itertools

import networkx as nx


def push_sum_ratios(n: int, edges: set[tuple[int, int]], x0: list[float], rounds: int):
    """Plain mass-passing consensus: each node splits its mass evenly
    over itself and its out-neighbors every round. Returns the list of
    per-round ratio vectors, round 0 first."""
    out = {i: sorted(j for (a, j) in edges if a == i) for i in range(1, n + 1)}
    y = {i: float(x0[i - 1]) for i in range(1, n + 1)}
    z = {i: 1.0 for i in range(1, n + 1)}
    history = [[y[i] / z[i] for i in range(1, n + 1)]]
    for _ in range(rounds):
        ny = {i: 0.0 for i in range(1, n + 1)}
        nz = {i: 0.0 for i in range(1, n + 1)}
        for i in range(1, n + 1):
            share_y = y[i] / (1 + len(out[i]))
            share_z = z[i] / (1 + len(out[i]))
            ny[i] += share_y
            nz[i] += share_z
            for j in out[i]:
                ny[j] += share_y
                nz[j] += share_z
        y, z = ny, nz
        history.append([y[i] / z[i] for i in range(1, n + 1)])
    return history


def _is_f_local(n: int, edges: set[tuple[int, int]], subset: frozenset[int], f: int) -> bool:
    for i in range(1, n + 1):
        if i in subset:
            continue
        if sum(1 for j in subset if (j, i) in edges) > f:
            return False
    return True


def strongly_connected(nodes: set[int], edges: set[tuple[int, int]]) -> bool:
    if not nodes:
        return False
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from((a, b) for a, b in edges if a in nodes and b in nodes)
    return nx.is_strongly_connected(g)


def brute_k_strongly_connected(n: int, edges: set[tuple[int, int]], k: int) -> bool:
    """Definition replay: every (k-1)-local subset's removal must
    leave the rest strongly connected."""
    all_nodes = set(range(1, n + 1))
    max_size = 0
    for size in range(n):
        for combo in itertools.combinations(all_nodes, size):
            if _is_f_local(n, edges, frozenset(combo), k - 1):
                max_size = max(max_size, size)
    for size in range(max_size + 1):
        for combo in itertools.combinations(all_nodes, size):
            subset = frozenset(combo)
            if not _is_f_local(n, edges, subset, k - 1):
                continue
            if not strongly_connected(all_nodes - subset, edges):
                return False
    return True


def brute_alg3_condition(n: int, edges: set[tuple[int, int]], f: int) -> bool:
    """Definition replay of the distributed-detection condition."""

    def middles(h: int, i: int) -> int:
        return sum(
            1
            for m in range(1, n + 1)
            if m not in (h, i) and (h, m) in edges and (m, i) in edges
        )

    def detectable(h: int, i: int) -> bool:
        return (h, i) in edges or middles(h, i) >= 2 * f + 1

    for i in range(1, n + 1):
        in_nbrs = [j for j in range(1, n + 1) if (j, i) in edges]
        two_hop = {
            h
            for j in in_nbrs
            for h in range(1, n + 1)
            if (h, j) in edges and h != i
        }
        for h in two_hop:
            if not detectable(h, i):
                return False
        for q in range(1, n + 1):
            if (i, q) in edges and not detectable(q, i):
                return False
        for j in in_nbrs:
            for l in range(1, n + 1):
                if (j, l) in edges and l != i and not detectable(l, i):
                    return False
    return True


def brute_oracle_answers(n: int, edges: set[tuple[int, int]], f: int):
    """Definition replay of StructuralOracle's two answers, as sets of
    ordered pairs (must_detect (j, h), must_know_status (i, h)).

    A value of x is knowable to a if it is a's own, x -> a is an edge,
    or 2f+1 middle nodes m carry x -> m -> a. a audits h fully if every
    input of h's update (h and its in-neighbors) is knowable to a. j
    must detect h if h -> j is an edge and j audits h fully; i must know
    h's status if i is h, must detect h, or has 2f+1 in-neighbors that
    must detect h.
    """
    nodes = range(1, n + 1)

    def knowable(x: int, a: int) -> bool:
        middles = sum(
            1
            for m in nodes
            if m not in (x, a) and (x, m) in edges and (m, a) in edges
        )
        return x == a or (x, a) in edges or middles >= 2 * f + 1

    def full_audit(a: int, h: int) -> bool:
        return all(knowable(x, a) for x in nodes if x == h or (x, h) in edges)

    must_detect = {
        (j, h) for j in nodes for h in nodes if (h, j) in edges and full_audit(j, h)
    }
    must_know = set()
    for i in nodes:
        for h in nodes:
            witnesses = sum(1 for p in nodes if (p, i) in edges and (p, h) in must_detect)
            if i == h or (i, h) in must_detect or witnesses >= 2 * f + 1:
                must_know.add((i, h))
    return must_detect, must_know
