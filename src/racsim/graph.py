"""Directed-graph representation and structural condition checkers.

Nodes are integers 1..n. An edge (j, i) means j can send to i. The
checkers cover the conditions needed by the two detection algorithms:
two-hop detectability, common-neighbor counts, f-local admissibility,
k-strong connectivity, and vertex connectivity. A layered-graph
generator builds an undirected path of layers, which satisfies the
distributed-detection condition by construction, and a directed
variant that wraps the last layer to the first, which does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

DEFAULT_NODE_CAP = 20


class GraphError(ValueError):
    """Invalid graph construction or invalid checker arguments."""


class InstanceTooLarge(GraphError):
    """Exhaustive check refused because the graph exceeds the node cap."""


class UnsupportedGraph(GraphError):
    """Checker applied to a graph class it is not defined for."""


class AdversaryKind(Enum):
    TOTAL = "total"
    LOCAL = "local"


@dataclass(frozen=True)
class AdversaryModel:
    f: int
    kind: AdversaryKind = AdversaryKind.LOCAL

    def __post_init__(self) -> None:
        if self.f < 0:
            raise GraphError("f must be non-negative")


@dataclass(frozen=True)
class Violation:
    subject: tuple
    condition: str
    witness: tuple = ()


@dataclass(frozen=True)
class ConditionReport:
    violations: tuple[Violation, ...] = ()

    @property
    def satisfied(self) -> bool:
        return not self.violations


class DirectedGraph:
    """Immutable digraph; the undirected flag asserts edge symmetry."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], undirected: bool = False):
        if n < 1:
            raise GraphError("node count must be positive")
        edge_set = set()
        for j, i in edges:
            if j == i:
                raise GraphError(f"self-loop on node {j}")
            if not (1 <= j <= n and 1 <= i <= n):
                raise GraphError(f"edge ({j},{i}) outside 1..{n}")
            edge_set.add((j, i))
            if undirected:
                edge_set.add((i, j))
        self.n = n
        self.undirected = undirected
        self.edges = frozenset(edge_set)
        ins: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        outs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for j, i in edge_set:
            ins[i].add(j)
            outs[j].add(i)
        self._in = {v: frozenset(s) for v, s in ins.items()}
        self._out = {v: frozenset(s) for v, s in outs.items()}

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def _check_node(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise GraphError(f"node {v} outside 1..{self.n}")

    def in_neighbors(self, i: int) -> frozenset[int]:
        self._check_node(i)
        return self._in[i]

    def out_neighbors(self, i: int) -> frozenset[int]:
        self._check_node(i)
        return self._out[i]

    def has_edge(self, j: int, i: int) -> bool:
        return (j, i) in self.edges

    def two_hop_in_neighbors(self, i: int) -> frozenset[int]:
        """Nodes h reaching i through some middle node, excluding i."""
        self._check_node(i)
        out = set()
        for m in self._in[i]:
            out |= self._in[m]
        out.discard(i)
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        kind = "undirected" if self.undirected else "directed"
        return f"DirectedGraph(n={self.n}, |E|={len(self.edges)}, {kind})"


def complete_graph(n: int) -> DirectedGraph:
    edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    return DirectedGraph(n, edges, undirected=True)


def two_hop_middle_nodes(g: DirectedGraph, h: int, i: int) -> frozenset[int]:
    """Middle nodes m with edges h -> m and m -> i; as the graph has no
    self-loops, m is neither h nor i."""
    if h == i:
        raise GraphError("endpoints must differ")
    return g.out_neighbors(h) & g.in_neighbors(i)


def is_detectable(g: DirectedGraph, f: int, h: int, i: int) -> bool:
    """True if i can verify h directly or through 2f+1 two-hop paths."""
    if h == i:
        raise GraphError("endpoints must differ")
    if g.has_edge(h, i):
        return True
    return len(two_hop_middle_nodes(g, h, i)) >= 2 * f + 1


def check_alg3_condition(g: DirectedGraph, f: int, debug: bool = False) -> ConditionReport:
    """Structural condition for fully distributed detection.

    Every node i must be able to verify (1) each of its two-hop
    in-neighbors, (2) each of its out-neighbors, and (3) each
    out-neighbor of each of its in-neighbors. On undirected graphs
    condition (1) implies the other two; the shortcut is used unless
    debug is set, in which case all three are evaluated and compared.
    """
    two_hop = []
    for i in g.nodes:
        for h in g.two_hop_in_neighbors(i):
            if h != i and not is_detectable(g, f, h, i):
                two_hop.append(Violation((h, i), "two_hop_in_neighbor"))
    if g.undirected and not debug:
        return ConditionReport(tuple(two_hop))
    extra = []
    for i in g.nodes:
        for q in g.out_neighbors(i):
            if not is_detectable(g, f, q, i):
                extra.append(Violation((q, i), "out_neighbor"))
        for j in g.in_neighbors(i):
            for l in g.out_neighbors(j):
                if l != i and not is_detectable(g, f, l, i):
                    extra.append(Violation((l, i), "in_neighbors_out_neighbor", (j,)))
    if g.undirected and debug:
        # on undirected graphs the two-hop check alone must already
        # decide the verdict; cross-check against the full evaluation
        if not two_hop and extra:
            raise RuntimeError("undirected shortcut disagrees with full check")
    return ConditionReport(tuple(two_hop + extra))


def check_alg2_condition(g: DirectedGraph, f: int) -> ConditionReport:
    """Every adjacent pair must share at least max(f-1, 0) neighbors."""
    if not g.undirected:
        raise UnsupportedGraph("sharing detection is defined on undirected graphs")
    need = max(f - 1, 0)
    violations = []
    seen = set()
    for j, i in g.edges:
        pair = (min(j, i), max(j, i))
        if pair in seen:
            continue
        seen.add(pair)
        common = (g.in_neighbors(j) & g.in_neighbors(i)) - {j, i}
        if len(common) < need:
            violations.append(Violation(pair, "common_neighbors", tuple(sorted(common))))
    return ConditionReport(tuple(violations))


def check_common_normal_neighbor(g: DirectedGraph, adversaries: set[int]) -> ConditionReport:
    """Every adjacent adversary pair needs a normal common neighbor."""
    if not g.undirected:
        raise UnsupportedGraph("sharing detection is defined on undirected graphs")
    violations = []
    adv = sorted(adversaries)
    for a, b in itertools.combinations(adv, 2):
        if not g.has_edge(a, b):
            continue
        common = (g.in_neighbors(a) & g.in_neighbors(b)) - set(adversaries)
        if not common:
            violations.append(Violation((a, b), "normal_common_neighbor"))
    return ConditionReport(tuple(violations))


def is_f_local(g: DirectedGraph, adversaries: set[int], f: int) -> bool:
    """Each non-adversary node has at most f adversary in-neighbors."""
    adv = set(adversaries)
    for v in adv:
        g._check_node(v)
    return all(
        len(g.in_neighbors(i) & adv) <= f for i in g.nodes if i not in adv
    )


def _iter_local_sets(g: DirectedGraph, f: int) -> Iterator[frozenset[int]]:
    """All node subsets that respect the f-local bound, excluding V."""
    nodes = list(g.nodes)
    for size in range(0, g.n):
        for combo in itertools.combinations(nodes, size):
            s = set(combo)
            if is_f_local(g, s, f):
                yield frozenset(s)


def is_strongly_connected(g: DirectedGraph) -> bool:
    return _subset_strongly_connected(g, frozenset(g.nodes))


def _subset_strongly_connected(g: DirectedGraph, nodes: frozenset[int]) -> bool:
    if not nodes:
        return False
    root = next(iter(nodes))
    for neigh in (g.out_neighbors, g.in_neighbors):
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in neigh(v):
                if w in nodes and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != nodes:
            return False
    return True


def is_k_strongly_connected(g: DirectedGraph, k: int, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Removal of any (k-1)-local node set leaves a strongly connected graph."""
    if k < 1:
        raise GraphError("k must be at least 1")
    if g.n > node_cap:
        raise InstanceTooLarge(f"n={g.n} exceeds cap {node_cap}")
    if k == 1:
        # only the empty set is 0-local in a strongly connected graph,
        # and a disconnected graph already fails on the empty set
        return is_strongly_connected(g)
    all_nodes = frozenset(g.nodes)
    for s in _iter_local_sets(g, k - 1):
        if not _subset_strongly_connected(g, all_nodes - s):
            return False
    return True


def vertex_connectivity_at_least(g: DirectedGraph, k: int, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """No removal of k-1 nodes disconnects the undirected graph."""
    if not g.undirected:
        raise UnsupportedGraph("vertex connectivity is defined for undirected graphs")
    if k < 1:
        raise GraphError("k must be at least 1")
    if g.n > node_cap:
        raise InstanceTooLarge(f"n={g.n} exceeds cap {node_cap}")
    if g.n < k + 1:
        return False
    all_nodes = frozenset(g.nodes)
    for combo in itertools.combinations(g.nodes, k - 1):
        rest = all_nodes - set(combo)
        if not _subset_strongly_connected(g, rest):
            return False
    return True


class LayeredVariant(Enum):
    UNDIRECTED_PATH = "undirected-path"
    DIRECTED_WRAP = "directed-wrap"


def generate_layered(layers: int, f: int, variant: LayeredVariant) -> DirectedGraph:
    """Path of layers, each of size 2f+1, complete bipartite between
    adjacent layers. Node ids are layer-major: layer t holds nodes
    (t-1)*(2f+1)+1 .. t*(2f+1). The wrap variant adds directed edges
    from every last-layer node to every first-layer node.
    """
    if layers < 2:
        raise GraphError("need at least 2 layers")
    if f < 1:
        raise GraphError("f must be at least 1")
    width = 2 * f + 1
    n = layers * width

    def layer_nodes(t: int) -> range:
        return range((t - 1) * width + 1, t * width + 1)

    edges = []
    for t in range(1, layers):
        for a in layer_nodes(t):
            for b in layer_nodes(t + 1):
                edges.append((a, b))
                edges.append((b, a))
    if variant is LayeredVariant.DIRECTED_WRAP:
        for a in layer_nodes(layers):
            for b in layer_nodes(1):
                edges.append((a, b))
        return DirectedGraph(n, edges, undirected=False)
    return DirectedGraph(n, edges, undirected=True)


def read_edge_list(text: str) -> DirectedGraph:
    """Parse the plain-text format: header `n <count> [undirected]`,
    then one `j i` pair per line. Undirected files list each edge once.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    header = lines[0].split()
    if len(header) < 2 or header[0] != "n":
        raise GraphError(f"bad header: {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise GraphError(f"bad node count: {header[1]!r}") from exc
    undirected = len(header) > 2 and header[2] == "undirected"
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"bad edge line: {ln!r}") from exc
        edges.append((j, i))
    return DirectedGraph(n, edges, undirected=undirected)


def write_edge_list(g: DirectedGraph) -> str:
    lines = []
    if g.undirected:
        pairs = sorted({(min(j, i), max(j, i)) for j, i in g.edges})
        lines.append(f"n {g.n} undirected")
    else:
        pairs = sorted(g.edges)
        lines.append(f"n {g.n}")
    lines.extend(f"{j} {i}" for j, i in pairs)
    return "\n".join(lines) + "\n"
