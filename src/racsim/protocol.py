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
The flow of a ledger since an earlier one is how far its running sums
moved: the sum, over the ids either ledger relays, of each entry less
its earlier one, an id a ledger lacks counting as ZERO_PAIR there.
ledger_flow is its one definition. A normal node keeps the flow of its
ledger (NodeState.flow), which the replay of its message takes; an
adversary's broadcast is summed by ledger_flow, which adds in ledger
order as honest_round does.
honest_round zeroes a detected in-neighbor's ledger entry to remove
its accumulated contribution, compensates mass sent to a detected
out-neighbor back into the node's own values, and builds the next
message. While the node's detection set equals the claims of the
message it sent, the next message claims that same frozenset object,
so an unchanged claim set is one object from round to round and the
checks that compare it with the previous claims (declared_fields, the
audits in detection) test identity first. update holds the update
formula, which the replay of a message checks through matches_update;
in float runs matches_update applies update's operators in update's
order and then pair_eq's two differences, with neither called.

Over Fractions, ledger_flow and update combine integer numerators and
denominators and normalise once per value they return, in place of a
gcd per Fraction operator. An exact round keeps the column sums of
the ledger it builds (NodeState.sums), so the next round's flow reads
the terms of its new ledger alone; matches_update compares reported
running sums with update's by cross-multiplying integer parts and
builds no Fraction; pair_eq compares ints and Fractions by their
integer parts. Each gives the value, type and verdict of the
operators, and a forged float still takes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, sub
from typing import Mapping, NamedTuple, Optional, Union

Number = Union[int, float, Fraction]
Pair = tuple[Number, Number]

Z_FLOOR = 1e-12

ZERO_PAIR: Pair = (0, 0)

# the exact types, whose values compare by their integer parts
RATIONALS = (int, Fraction)

# The exact sum of a ledger column: an int for a column of ints, else
# the integer parts (numerator, denominator) of a sum holding a
# Fraction, unnormalised; None for a column holding a float. Sums holds
# a ledger's y and z column sums.
ColumnSum = Union[int, tuple[int, int], None]
Sums = tuple[ColumnSum, ColumnSum]


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
        in lowest terms, so ints and Fractions compare by their integer
        parts."""
        if self.exact:
            a0, a1 = a
            b0, b1 = b
            if (type(a0) in RATIONALS and type(a1) in RATIONALS
                    and type(b0) in RATIONALS and type(b1) in RATIONALS):
                return a0.as_integer_ratio() == b0.as_integer_ratio() and (
                    a1.as_integer_ratio() == b1.as_integer_ratio()
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
    # an exact round's ledger and its ledger_sums, which the next exact
    # round's flow takes while that ledger is the one next relays
    sums: Optional[tuple[Mapping[int, Pair], Sums]] = None


def declared_fields(out_nbrs: frozenset[int], claims, claimed_before) -> tuple[int, int]:
    """The out-degree and removed count a broadcast declares: how many
    out-neighbors of its sender it does not claim, and how many of them
    it claims that its previous broadcast (claims claimed_before) did not.
    A claim set kept from the previous broadcast removes no one."""
    if not claims:
        return len(out_nbrs), 0
    if claims is claimed_before:
        return len(out_nbrs - claims), 0
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


def _common(parts) -> tuple[int, int]:
    """The sum of n/q over the (q, n) of parts (each q > 0) as integer
    parts (total, d), unnormalised: d starts at the first q and grows
    only by a q it is not a multiple of."""
    parts = iter(parts)
    d, total = next(parts, (1, 0))
    for q, n in parts:
        k, r = divmod(d, q)
        if r:
            g = math.gcd(d, q)
            total, d = total * (q // g) + n * (d // g), d // g * q
        else:
            total += n * k
    return total, d


def _column_sum(terms) -> ColumnSum:
    """The exact sum of a ledger column (see ColumnSum): each term's
    integer parts read once, the numerators summed per denominator."""
    by_den: dict[int, int] = {}
    ints = True
    for x in terms:
        kind = type(x)
        if kind is Fraction:
            ints = False
        elif kind is not int:
            return None
        n, q = x.as_integer_ratio()
        by_den[q] = by_den.get(q, 0) + n
    return by_den.get(1, 0) if ints else _common(by_den.items())


def ledger_sums(ledger: Mapping[int, Pair]) -> Sums:
    """The exact sums of a ledger's y and z columns."""
    return _column_sum([y for y, _ in ledger.values()]), _column_sum([z for _, z in ledger.values()])


def ledger_flow(
    now: Mapping[int, Pair], before: Mapping[int, Pair], kept: Optional[tuple[Sums, Sums]] = None
) -> Pair:
    """The ledger flow, the sum of now[h] - before[h] over the ids h
    either ledger relays (an id a ledger lacks counts as ZERO_PAIR
    there), as the sender adds it: the left fold over now's ids in
    ledger order from the first term, continued by subtracting before's
    entries for its other ids in before's order, with the fold's value
    and type. A column of ints is their sum. A column of ints and
    Fractions is the difference of the two ledgers' exact column sums,
    one Fraction built from their integer parts, with no alignment of
    ids. A column holding a float is the fold.

    kept, if given, holds ledger_sums(now) and ledger_sums(before): a
    column whose two kept sums are exact is their difference, with no
    term read again."""
    flow = []
    for c in (0, 1):
        if kept is not None and kept[0][c] is not None and kept[1][c] is not None:
            new_sum, old_sum = kept[0][c], kept[1][c]
        else:
            new = [pair[c] for pair in now.values()]
            new_sum = _column_sum(new)
            old_sum = None if new_sum is None else _column_sum([pair[c] for pair in before.values()])
            if old_sum is None:
                old = [before.get(h, ZERO_PAIR)[c] for h in now]
                gone = [pair[c] for h, pair in before.items() if h not in now]
                # not sum(), which compensates float sums from Python 3.12 on
                flow.append(reduce(sub, gone, reduce(add, map(sub, new, old)) if new else 0))
                continue
        if type(new_sum) is int and type(old_sum) is int:
            flow.append(new_sum - old_sum)
        else:
            n, d = new_sum if type(new_sum) is tuple else (new_sum, 1)
            m, e = old_sum if type(old_sum) is tuple else (old_sum, 1)
            flow.append(Fraction(*_common(((d, n), (e, -m)))))
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


def matches_update(
    reported: Pair, own: Pair, flow: Pair, d_out: int, n_removed: int, rule: ValueRule
) -> bool:
    """rule.pair_eq(reported, update(own, flow, d_out, n_removed)[1]):
    the running sums a replay of update expects. In exact runs, when
    own and flow are four Fractions and reported holds ints and
    Fractions, each reported a/b is compared with update's
    own + (flow + n_removed·own) / (1 + d_out) by cross-multiplying the
    integer parts, with no Fraction built; both sides are then exact,
    so the verdict is pair_eq's. In float runs, update's operators in
    update's order and then pair_eq's two differences, inline."""
    if not rule.exact:
        lam, gam = own
        y = flow[0] + n_removed * lam
        z = flow[1] + n_removed * gam
        d = 1 + d_out
        lam_next, gam_next = lam + y / d, gam + z / d
        return reported[0] - lam_next == 0 and reported[1] - gam_next == 0
    if Fraction is type(own[0]) is type(own[1]) is type(flow[0]) is type(flow[1]) and (
        type(reported[0]) in RATIONALS and type(reported[1]) in RATIONALS
    ):
        d = 1 + d_out
        for x, held, moved in zip(reported, own, flow):
            a, b = x.as_integer_ratio()
            p, q = held.as_integer_ratio()
            u, v = moved.as_integer_ratio()
            # a/b == p/q + (u/v + n_removed·p/q)/d, over positive denominators
            if a * q * v * d != b * (p * v * (d + n_removed) + u * q):
                return False
        return True
    return rule.pair_eq(reported, update(own, flow, d_out, n_removed)[1])


def honest_round(s: NodeState, inbox: Mapping[int, InformationSet], rule: ValueRule) -> None:
    """Advance one round in place, from the message the node broadcast
    this round (s.next) to the one it broadcasts next.

    s.detected already holds this round's detections. inbox may hold
    the messages of non-neighbors, such as the engine's whole broadcast
    table; an in-neighbor that sent nothing has crashed and is detected
    as well. The next message claims the detection set, as the sent
    message's claims object itself when the two are equal.
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
        # the sums kept last round are the old ledger's unless next was
        # built by hand
        sums, kept = ledger_sums(ledger), s.sums
        if kept is not None and kept[0] is old_ledger:
            s.flow = ledger_flow(ledger, old_ledger, (sums, kept[1]))
        else:
            s.flow = ledger_flow(ledger, old_ledger)
        s.sums = ledger, sums
        claims = sent.detected if detected == sent.detected else frozenset(detected)
        d_out, n_removed = declared_fields(s.out_nbrs, claims, sent.detected)
        (y, z), self_next = update((lam_k, gam_k), s.flow, d_out, n_removed)
        ratio = y / z if rule.z_ok(z) else s.ratio
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
        claims = sent.detected if detected == sent.detected else frozenset(detected)
        d_out, n_removed = declared_fields(s.out_nbrs, claims, sent.detected)
        # mass previously sent to newly removed out-neighbors comes back
        y = y + n_removed * lam_k
        z = z + n_removed * gam_k
        self_next = (lam_k + y / (1 + d_out), gam_k + z / (1 + d_out))
        ratio = y / z if rule.z_ok(z) else s.ratio

    s.y, s.z, s.ratio = y, z, ratio
    s.next = build_information_set(s.id, sent.round + 1, claims, self_next, ledger, d_out, n_removed)
