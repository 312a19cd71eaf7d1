"""Honest-node state machine for running-sum ratio consensus.

A node is one flat record, NodeState: its neighbors, dual mass values
y and z whose ratio tracks the average of initial values, its
detection sets, and the message it broadcasts next. That message, an
InformationSet, is an immutable tuple of named fields whose
constructor and _replace both check its invariants. It carries
cumulative running sums (lam for y, gam for z), which receivers
difference to recover per-round contributions, and the ledger of the
sums the node read last. The ledger's order is its summation order:
the node's own entry first, then its in-neighbors in in_nbrs order.
A normal node keeps the flow of its ledger (NodeState.flow), which the
replay of its message takes; an adversary's broadcast is summed by
ledger_flow, which adds in ledger order as honest_round does.
honest_round zeroes a detected in-neighbor's ledger entry to remove
its accumulated contribution, compensates mass sent to a detected
out-neighbor back into the node's own values, and builds the next
message. update holds the update formula, which the replay of a
message takes too. Over Fractions, ledger_flow, update and the ratio
combine integer numerators and denominators and normalise once per
value they return, in place of a gcd per Fraction operator; a forged
float still takes the operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, itemgetter, sub
from typing import Mapping, NamedTuple, Union

Number = Union[int, float, Fraction]
Pair = tuple[Number, Number]

Z_FLOOR = 1e-12

ZERO_PAIR: Pair = (0, 0)


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class ValueRule:
    """Equality and guard rules for protocol values.

    Exact mode runs the whole protocol over rationals; float mode over
    floats. Both compare exactly: an honest replay adds the sender's
    floats in the sender's order, so it has zero residual in both.
    """

    exact: bool = False

    def convert(self, x: Number) -> Number:
        return Fraction(x) if self.exact else x

    def pair_eq(self, a: Pair, b: Pair) -> bool:
        """Both differences are zero: false for inf and NaN, whose
        differences are NaN. A float minus a Fraction is a float, so a
        forged float meets a Fraction in float arithmetic. Fractions are
        in lowest terms, so four compare by their integer parts."""
        if self.exact and Fraction is type(a[0]) is type(a[1]) is type(b[0]) is type(b[1]):
            return a[0].as_integer_ratio() == b[0].as_integer_ratio() and (
                a[1].as_integer_ratio() == b[1].as_integer_ratio()
            )
        return a[0] - b[0] == 0 and a[1] - b[1] == 0

    def z_ok(self, z: Number) -> bool:
        if self.exact:
            # a Fraction's sign is its numerator's; its > runs an ABC check
            return (z.numerator if type(z) is Fraction else z) > 0
        return z > Z_FLOOR


class _Fields(NamedTuple):
    sender: int
    round: int
    detected: frozenset[int]
    self_next: Pair
    relayed: Mapping[int, Pair]
    declared_out_degree: int
    declared_removed_out: int = 0


class InformationSet(_Fields):
    """The per-round broadcast message of one node: an immutable tuple
    of named fields.

    self_next carries the running sums the sender will difference from
    next round; relayed carries the sender's current ledger, in the
    order the sender summed it, its own entry first. The declared
    fields expose the sender's effective out-degree and the number of
    out-neighbors it removed this round, both needed by receivers to
    replay its update. The constructor checks the message's invariants,
    and so does _replace, which builds its copy through the constructor.
    """

    __slots__ = ()

    # the fields spelled out again: forwarding *args to the base's
    # constructor costs about twice as much per message
    def __new__(
        cls, sender, round, detected, self_next, relayed, declared_out_degree, declared_removed_out=0
    ) -> InformationSet:
        assert sender in relayed, "message must relay the sender's own entry"
        assert declared_out_degree >= 0
        assert declared_removed_out >= 0
        return tuple.__new__(
            cls, (sender, round, detected, self_next, relayed, declared_out_degree, declared_removed_out)
        )

    def _replace(self, /, **changes) -> InformationSet:
        msg = InformationSet(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"unexpected field names: {sorted(changes)}")
        return msg


@dataclass
class NodeState:
    id: int
    in_nbrs: frozenset[int]
    out_nbrs: frozenset[int]
    y: Number
    z: Number
    ratio: Number
    # the message the node broadcasts next; the ledger it relays holds the
    # running sums it read last, its own first, then per in-neighbor
    next: InformationSet
    detected: set[int] = field(default_factory=set)
    detected_two_hop: set[int] = field(default_factory=set)
    # the flow of next's ledger since the node's previous message, which
    # the replay of next takes; ZERO_PAIR is the flow of the all-zero
    # first ledger
    flow: Pair = ZERO_PAIR


def declared_fields(out_nbrs: frozenset[int], claims, claimed_before) -> tuple[int, int]:
    """The out-degree and removed count a broadcast declares: how many
    out-neighbors of its sender it does not claim, and how many of them
    it claims that its previous broadcast (claims claimed_before) did not."""
    if not claims:
        return len(out_nbrs), 0
    return len(out_nbrs - claims), len((out_nbrs - claimed_before) & claims)


def initial_share(x0: Number, out_degree: int, rule: ValueRule) -> Pair:
    """Running sums transmitted in the first exchange."""
    x0 = rule.convert(x0)
    one = rule.convert(1)
    return (x0 / (1 + out_degree), one / (1 + out_degree))


def bootstrap(g, i: int, x0: Number, rule: ValueRule) -> NodeState:
    """Build the state of node i of graph g before the first exchange.

    All running sums start at zero, so the first exchange is an
    ordinary round: the node broadcasts its initial share as its next
    running sums and relays a zero ledger, whose flow is NodeState.flow's
    ZERO_PAIR.
    """
    if isinstance(x0, float) and not math.isfinite(x0):
        raise ProtocolError(f"initial value must be finite, got {x0!r}")
    x0 = rule.convert(x0)
    in_nbrs, out_nbrs = g.in_neighbors(i), g.out_neighbors(i)
    ledger = dict.fromkeys((i, *in_nbrs), ZERO_PAIR)
    share = initial_share(x0, len(out_nbrs), rule)
    first = build_information_set(i, 0, (), share, ledger, len(out_nbrs), 0)
    return NodeState(i, in_nbrs, out_nbrs, x0, rule.convert(1), x0, first)


def build_information_set(
    i: int, k: int, detected, self_next: Pair, ledger: dict[int, Pair], d_out: int, n_removed: int
) -> InformationSet:
    """The message node i broadcasts after finishing round k, claiming
    its detection set as it stands. It relays the ledger itself, which
    honest_round replaces and never changes in place."""
    return InformationSet(i, k, frozenset(detected), self_next, ledger, d_out, n_removed)


def ledger_flow(now: Mapping[int, Pair], before: Mapping[int, Pair], rule: ValueRule) -> Pair:
    """The ledger flow, the sum over now's ids h of now[h] - before[h]
    (ZERO_PAIR for an id before lacks), as the sender adds it: the left
    fold in ledger order from the first term. In exact arithmetic it
    has the fold's value and type. A column of ints and Fractions reads
    each term's integer parts once, sums the numerators per denominator,
    and adds those sums over a common denominator that grows only by a
    denominator it is not a multiple of; it builds one Fraction. A
    column holding a float (a forged value) is the fold."""
    if not rule.exact:
        # an empty ledger flows ZERO_PAIR
        items = iter(now.items())
        h, (y, z) = next(items, (None, ZERO_PAIR))
        y_before, z_before = before.get(h, ZERO_PAIR)
        y, z = y - y_before, z - z_before
        for h, (new_y, new_z) in items:
            old_y, old_z = before.get(h, ZERO_PAIR)
            y = y + (new_y - old_y)
            z = z + (new_z - old_z)
        return y, z
    then = [before.get(h, ZERO_PAIR) for h in now]
    flow = []
    for get in (itemgetter(0), itemgetter(1)):
        new, old = list(map(get, now.values())), list(map(get, then))
        kinds = {*map(type, new), *map(type, old)}
        if kinds <= {int}:
            flow.append(sum(new) - sum(old))
        elif kinds <= {int, Fraction}:
            by_den: dict[int, int] = {}
            for sign, terms in ((1, new), (-1, old)):
                for x in terms:
                    n, q = x.as_integer_ratio()
                    by_den[q] = by_den.get(q, 0) + sign * n
            total, d = 0, 1
            for q, n in by_den.items():
                if d % q:
                    grow = q // math.gcd(d, q)
                    total, d = total * grow, d * grow
                total += n * (d // q)
            flow.append(Fraction(total, d))
        else:
            # not sum(), which compensates float sums from Python 3.12 on
            flow.append(reduce(add, map(sub, new, old)))
    return flow[0], flow[1]


def _plus(a: Fraction, b: Fraction, m: int, k: int) -> Fraction:
    """a + b·m/k (k > 0) from the integer parts, normalised once."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    g = math.gcd(ad, bd)
    return Fraction(an * (bd // g) * k + bn * m * (ad // g), ad // g * bd * k)


def update(own: Pair, flow: Pair, d_out: int, n_removed: int) -> tuple[Pair, Pair]:
    """A node's values (y, z) = flow + n_removed·own, where
    n_removed·own is the mass it had sent to the out-neighbors removed
    this round, and its next running sums own + (y, z) / (1 + d_out).
    Over four Fractions, one Fraction per result from integer parts;
    otherwise (ints, floats, or a float forged into an exact run) the
    operators, in that order."""
    lam, gam = own
    y, z = flow
    d = 1 + d_out
    if Fraction is type(lam) is type(gam) is type(y) is type(z):
        if n_removed:
            y, z = _plus(y, lam, n_removed, 1), _plus(z, gam, n_removed, 1)
        return (y, z), (_plus(lam, y, 1, d), _plus(gam, z, 1, d))
    y = y + n_removed * lam
    z = z + n_removed * gam
    return (y, z), (lam + y / d, gam + z / d)


def honest_round(s: NodeState, inbox: Mapping[int, InformationSet], rule: ValueRule) -> None:
    """Advance one round in place, from the message the node broadcast
    this round (s.next) to the one it broadcasts next.

    s.detected already holds this round's detections. inbox may hold
    the messages of non-neighbors, such as the engine's whole broadcast
    table; an in-neighbor that sent nothing has crashed and is detected
    as well.
    """
    detected = s.detected
    sent = s.next
    lam_k, gam_k = sent.self_next
    old_ledger = sent.relayed
    if rule.exact:
        # the ledger as the loop below reads it, summed by ledger_flow
        ledger: dict[int, Pair] = {s.id: (lam_k, gam_k)}
        for j in s.in_nbrs:
            if j not in detected and j not in inbox:
                detected.add(j)  # crashed
            ledger[j] = ZERO_PAIR if j in detected else inbox[j].self_next
        s.flow = ledger_flow(ledger, old_ledger, rule)
        d_out, n_removed = declared_fields(s.out_nbrs, detected, sent.detected)
        (y, z), self_next = update((lam_k, gam_k), s.flow, d_out, n_removed)
        if not rule.z_ok(z):
            ratio = s.ratio
        elif Fraction is type(y) is type(z):
            ratio = Fraction(y.numerator * z.denominator, y.denominator * z.numerator)
        else:
            ratio = y / z
    else:
        # ledger_flow's float fold and update's operators, fused with
        # building the ledger: built first and then summed by
        # ledger_flow, layered-none ran about 10% slower. The own entry
        # first: the ledger's order is the order of the sums
        ledger = {s.id: (lam_k, gam_k)}
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
        s.flow = (y, z)
        d_out, n_removed = declared_fields(s.out_nbrs, detected, sent.detected)
        # mass previously sent to newly removed out-neighbors comes back
        y = y + n_removed * lam_k
        z = z + n_removed * gam_k
        self_next = (lam_k + y / (1 + d_out), gam_k + z / (1 + d_out))
        ratio = y / z if rule.z_ok(z) else s.ratio

    s.y, s.z, s.ratio = y, z, ratio
    s.next = build_information_set(s.id, sent.round + 1, detected, self_next, ledger, d_out, n_removed)
