"""Honest-node state machine for running-sum ratio consensus.

A node is one flat record, NodeState. It keeps dual mass values y and
z whose ratio tracks the average of initial values. Instead of raw
masses, nodes broadcast cumulative running sums (lam for y, gam for
z); receivers difference consecutive values to recover per-round
contributions. Every detection is in the record's detection set
before the update, which zeroes a detected in-neighbor's ledger entry
to remove its accumulated contribution and compensates mass sent to a
detected out-neighbor back into the node's own values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

Number = Union[int, float, Fraction]
Pair = tuple[Number, Number]

Z_FLOOR = 1e-12
DEFAULT_TOL = 1e-9

ZERO_PAIR: Pair = (0, 0)


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class ValueRule:
    """Equality and guard rules for protocol values.

    Float mode compares with an absolute tolerance; exact mode runs the
    whole protocol over rationals and compares exactly.
    """

    exact: bool = False
    tol: float = DEFAULT_TOL

    def convert(self, x: Number) -> Number:
        return Fraction(x) if self.exact else x

    def eq(self, a: Number, b: Number) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tol

    def pair_eq(self, a: Pair, b: Pair) -> bool:
        if self.exact:
            return a[0] == b[0] and a[1] == b[1]
        tol = self.tol
        return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol

    def z_ok(self, z: Number) -> bool:
        if self.exact:
            return z > 0
        return z > Z_FLOOR


@dataclass(frozen=True)
class InformationSet:
    """The per-round broadcast message of one node.

    self_next carries the running sums the sender will difference from
    next round; relayed carries the sender's current ledger, including
    an entry for the sender itself. The declared fields expose the
    sender's effective out-degree and the number of out-neighbors it
    removed this round, both needed by receivers to replay its update.
    """

    sender: int
    round: int
    detected: frozenset[int]
    self_next: Pair
    relayed: Mapping[int, Pair]
    declared_out_degree: int
    declared_removed_out: int = 0

    def __post_init__(self) -> None:
        assert self.sender in self.relayed, "message must relay the sender's own entry"
        assert self.declared_out_degree >= 0
        assert self.declared_removed_out >= 0


@dataclass
class NodeState:
    id: int
    round: int
    in_nbrs: frozenset[int]
    out_nbrs: frozenset[int]
    y: Number
    z: Number
    # the running sums the node broadcasts as its next ones
    lam: Number
    gam: Number
    ratio: Number
    # the running sums read this round, per in-neighbor, then the node's
    # own, one step behind lam and gam: exactly what the node relays
    ledger: dict[int, Pair]
    detected: set[int] = field(default_factory=set)
    detected_two_hop: set[int] = field(default_factory=set)
    active_out: frozenset[int] = frozenset()  # its size is the out-degree
    removed_out_count: int = 0
    # the round each two-hop claim (claimer, claimed) was first seen; the
    # check set is not kept, as it is the public values of the node's
    # in-neighbors and itself plus this round's votes
    claim_first_seen: dict[tuple[int, int], int] = field(default_factory=dict)


def initial_share(x0: Number, out_degree: int, rule: ValueRule) -> Pair:
    """Running sums transmitted in the first exchange."""
    x0 = rule.convert(x0)
    one = rule.convert(1)
    return (x0 / (1 + out_degree), one / (1 + out_degree))


def bootstrap(g, i: int, x0: Number, rule: ValueRule) -> NodeState:
    """Build the state of node i of graph g before the first exchange.

    All running sums start at zero, so the first exchange is an
    ordinary round: the node broadcasts its initial share as its next
    running sums and relays a zero ledger.
    """
    if isinstance(x0, float) and not math.isfinite(x0):
        raise ProtocolError(f"initial value must be finite, got {x0!r}")
    x0 = rule.convert(x0)
    in_nbrs, out_nbrs = g.in_neighbors(i), g.out_neighbors(i)
    lam1, gam1 = initial_share(x0, len(out_nbrs), rule)
    ledger = {j: ZERO_PAIR for j in in_nbrs}
    ledger[i] = ZERO_PAIR
    return NodeState(
        id=i,
        round=0,
        in_nbrs=in_nbrs,
        out_nbrs=out_nbrs,
        y=x0,
        z=rule.convert(1),
        lam=lam1,
        gam=gam1,
        ratio=x0,
        ledger=ledger,
        active_out=out_nbrs,
    )


def build_information_set(s: NodeState) -> InformationSet:
    """The message a node broadcasts after finishing its round. It
    relays the ledger itself, which honest_round replaces and never
    changes in place."""
    return InformationSet(
        s.id, s.round, frozenset(s.detected), (s.lam, s.gam), s.ledger,
        len(s.active_out), s.removed_out_count,
    )


def honest_round(s: NodeState, inbox: Mapping[int, InformationSet], rule: ValueRule) -> None:
    """Advance one round in place.

    s.detected already holds this round's detections. inbox may hold
    the messages of non-neighbors, such as the engine's whole broadcast
    table; an in-neighbor that sent nothing has crashed and is detected
    as well.
    """
    detected = s.detected
    lam_k, gam_k = s.lam, s.gam
    old_ledger = s.ledger
    ledger: dict[int, Pair] = {}
    own_y, own_z = old_ledger[s.id]
    y = lam_k - own_y
    z = gam_k - own_z
    for j in s.in_nbrs:
        if j in detected:
            pair = ZERO_PAIR
        else:
            msg = inbox.get(j)
            if msg is None:
                detected.add(j)  # crashed
                pair = ZERO_PAIR
            else:
                pair = msg.self_next
        ledger[j] = pair
        new_y, new_z = pair
        old_y, old_z = old_ledger[j]
        y = y + (new_y - old_y)
        z = z + (new_z - old_z)
    active_out = s.out_nbrs - detected
    n_removed = len(s.active_out - active_out)
    d_out = len(active_out)
    # mass previously sent to newly removed out-neighbors comes back
    y = y + n_removed * lam_k
    z = z + n_removed * gam_k

    ratio = y / z if rule.z_ok(z) else s.ratio

    ledger[s.id] = (lam_k, gam_k)
    s.ledger = ledger
    s.y, s.z, s.ratio = y, z, ratio
    s.lam, s.gam = lam_k + y / (1 + d_out), gam_k + z / (1 + d_out)
    s.round += 1
    s.active_out = active_out
    s.removed_out_count = n_removed
