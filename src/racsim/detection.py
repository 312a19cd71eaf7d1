"""Malicious-node detection.

RoundPlan is a run's whole detection phase: the engine makes one detect
call per round. The plan keeps the StructuralOracle, the previous
broadcasts, the public values and the shared set; it audits the
broadcasts, runs the detectors and, under sharing, merges the shared set.

Each node-round of detection is one pipeline: the crash check, the
ascending set of reporting in-neighbors, and one audit per reporter
ending in the per-edge checks (Step 2 to Step 4). A node's check set,
the relayed values it expects, is not stored: it is the public values
(what each node broadcast as its next running sums last round) of its
in-neighbors and itself, plus the two-hop values voted this round.
The two detectors differ only in their claim policy, how a node treats
the detection sets its in-neighbors claim:

* sharing detection: a trusted oracle shares every verified detection
  network-wide within the round, and each claim set must equal the
  shared set.
* fully distributed detection: no oracle; nodes extend their check
  sets to two-hop in-neighbors by majority voting over relayed copies,
  accept detection claims corroborated by f+1 distinct reporters, and
  audit claim sets for uncorroborated, omitted or vanishing
  accusations against the sender's previous claims, which its
  per-sender audit carries.

Every receiver audits the same broadcast, so audit_broadcast runs once
per message some detecting node hears. Its update replay reads the
ledger flow: a normal sender's flow is handed over (NodeState.flow),
and an adversary's broadcast is summed by ledger_flow, in ledger
order, the order an honest sender sums in, so every comparison is
exact. The off-public ids are those whose entries are not == their
public values, and the previous ledger is walked again only for the
ids it relays and the current one lacks. A detector that runs votes on
every two-hop id it does not know and runs Step 3 against its own
check set for every reporter without a field finding.

The audit also decides, by one conservative rule, whether a broadcast
is quiet: it has no finding, keeps its previous claims, relays zero
for each id it claims (its own, if claimed, its public value), and
relays exactly the public value, finite, for every other id. Finite
is read off the ledger flow, which must pass pair_eq against itself;
a non-finite entry would make the flow inf or NaN for good. A finite
entry == its public value then passes Step 3 against it, so Step 3
needs a test only on the claimed ids. Finite entries whose flow
overflows fail the rule, and such a broadcast only takes the full
pipeline.

A node-round learns nothing new when every sender it hears (an
in-neighbor it has not detected) sent a quiet broadcast that, under
the sharing policy, claims exactly the shared set; under the
distributed policy, it claims only nodes this node knew of before the
round (known), and every one of them that is its own in-neighbor.
RoundPlan skips such a node-round with no detector call; _detect
holds only the crash check and the full pipeline. The checks skipped
cannot fire:

* no finding and Step 3 passes against the public values, so no
  field, replay or per-edge Step 3 verdict, as long as no vote
  differs from a public value;
* claims are a subset of known, which the snapshot holds, so neither
  the uncorroborated nor the persisted audit fires;
* the previous claims are a subset of the claims, so the vanished
  audit does not fire;
* known ∩ in(j) is a subset of the claims, so the omitted audit does
  not fire;
* every claimed id is already known, so corroboration adds no one;
* for a two-hop id this node does not know, every report is == its
  public value, since each reporter claims its off-public ids and
  claims only known ones, so its vote gives that value or no
  majority.

The omission rule reads in(j) here because the omitted audit does; a
wider omission rule must widen in(j) in this condition too. RoundPlan
keeps each node's claim check until an input changes: known grows (it
only grows, so its size shows it; a sender stops being heard only by
being detected), a heard sender's claims differ from claimed_before, or
the shared set changes. Once attacks are cut off, nearly every
node-round is skipped, as is every one of a run without attacks.

Every detection lands in the detecting node's state as it is made: a
neighbor in its detection set, any other node in its two-hop set. All
checks are conservative: a value that cannot be verified (no majority,
not enough reporters, insufficient structural coverage) never produces
a detection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

from .graph import DirectedGraph, is_detectable
from .protocol import (
    InformationSet,
    NodeState,
    Pair,
    ValueRule,
    ZERO_PAIR,
    declared_fields,
    ledger_flow,
    matches_update,
    update,
)


class Cause(Enum):
    STEP1 = "Step1"
    STEP1A = "Step1a"
    STEP1B = "Step1b"
    STEP2 = "Step2"
    STEP3 = "Step3"
    STEP4 = "Step4"
    CRASH = "Crash"
    INIT_RANGE = "InitRange"
    VOTE_MAJORITY = "VoteMajority"


@dataclass(frozen=True)
class DetectionVerdict:
    suspect: int
    detector: int
    round: int
    cause: Cause
    evidence: tuple = ()


Finding = tuple[Cause, tuple]  # cause and evidence of one verdict


NO_MAJORITY = None  # vote_value's answer when no value has a strict majority


def vote_value(reports: list[Pair], rule: ValueRule) -> Optional[Pair]:
    """Value pair reported by strictly more than half, as first reported,
    else NO_MAJORITY. A report unequal to itself under rule (inf or NaN)
    never counts."""
    if not reports:
        raise ValueError("reports must be non-empty")
    # Counter hashes each report once and keeps the first-reported key
    counts = Counter(v for v in reports if rule.pair_eq(v, v))
    for v, count in counts.items():
        if 2 * count > len(reports):
            return v
    return NO_MAJORITY


def reconstruct_running_sums(phi_now: InformationSet, flow: Pair, rule: ValueRule) -> Optional[Finding]:
    """Replay the sender's update from its relayed ledger's flow.

    flow sums how far each entry of the sender's ledger moved since its
    previous message (an entry that only one of the two relays counts
    against zero). protocol.update takes it with the declared fields to
    the next running sums the sender must report. Returns the Step 4
    finding, or None when the reported self_next equals that replay
    under rule, as protocol.matches_update decides; update's values are
    built only as a finding's evidence.
    """
    own = phi_now.relayed[phi_now.sender]
    d_out, n_removed = phi_now.declared_out_degree, phi_now.declared_removed_out
    if matches_update(phi_now.self_next, own, flow, d_out, n_removed, rule):
        return None
    _, pred = update(own, flow, d_out, n_removed)
    return Cause.STEP4, (("reported", phi_now.self_next), ("reconstructed", pred))


class StructuralOracle:
    """Topology-derived answers about who can verify whom.

    auditors[h] holds the out-neighbors a of h that can audit h fully,
    that is, every input of h's update (its in-neighbors and h) is a
    itself or passes is_detectable(g, f, x, a): a hears it directly or
    through 2f+1 two-hop middle nodes. Both answers read that table
    alone, so they read the topology up to three hops back from the
    asking node (x -> h -> p -> i). Only the distributed detector reads
    auditors and two_hop_relays, so each is built on its first read.
    """

    def __init__(self, g: DirectedGraph, f: int):
        self._g = g
        self.f = f
        # each node's neighbor sets, looked up by the detectors
        self.in_nbrs = {i: g.in_neighbors(i) for i in g.nodes}
        self.out_nbrs = {i: g.out_neighbors(i) for i in g.nodes}
        # the ids an honest broadcast of i relays: its in-neighbors and i
        self.relay_ids = {i: self.in_nbrs[i] | {i} for i in g.nodes}

    @cached_property
    def auditors(self) -> dict[int, frozenset[int]]:
        g, f = self._g, self.f
        return {
            h: frozenset(
                a for a in self.out_nbrs[h]
                if all(x == a or is_detectable(g, f, x, a) for x in self.relay_ids[h])
            )
            for h in g.nodes
        }

    @cached_property
    def two_hop_relays(self) -> dict[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """Per detector i: each two-hop in-neighbor h beyond i's
        in-neighbors, ascending, with the in-neighbors of i relaying h."""
        tables = {}
        for i in self._g.nodes:
            in_i = self.in_nbrs[i]
            relays: dict[int, list[int]] = {}
            for p in sorted(in_i):
                for h in self.in_nbrs[p]:
                    if h != i and h not in in_i:
                        relays.setdefault(h, []).append(p)
            tables[i] = tuple((h, tuple(relays[h])) for h in sorted(relays))
        return tables

    def must_detect(self, j: int, h: int) -> bool:
        """j is guaranteed to detect a misbehaving h on its own."""
        return j in self.auditors[h]

    def must_know_status(self, i: int, h: int) -> bool:
        """i is guaranteed to learn of h's detection, directly or by a
        vote among 2f+1 in-neighbors that each audit h fully."""
        return h == i or i in self.auditors[h] or (
            len(self.auditors[h] & self.in_nbrs[i]) >= 2 * self.f + 1
        )


def init_range_check(
    x_reported: float, interval: Optional[tuple[float, float]]
) -> Optional[Finding]:
    """First-exchange sanity check against a configured safety interval."""
    if interval is None:
        return None
    lo, hi = interval
    if lo <= x_reported <= hi:
        return None
    return Cause.INIT_RANGE, (("reported", x_reported), ("interval", interval))


class SenderAudit(NamedTuple):
    """The receiver-independent part of auditing one broadcast.

    Every receiver audits the same message, so RoundPlan computes this
    once per message that some normal node hears. fields is the first
    Step 2 (id sanity) or Step 4 declared-field finding. Without one,
    replay is the Step 4 update-replay finding (the safety-interval
    finding for a first message). claimed_before holds the claims of
    the sender's previous message (none for a first message), whatever
    the findings. quiet holds when the broadcast follows the quiet rule
    of the module docstring; a receiver that already knows what a quiet
    broadcast claims learns nothing from it (see RoundPlan).
    """

    fields: Optional[Finding]
    replay: Optional[Finding] = None
    claimed_before: frozenset[int] = frozenset()
    quiet: bool = False


def audit_broadcast(
    msg: InformationSet,
    prev_msg: Optional[InformationSet],
    public: Mapping[int, Pair],
    oracle: StructuralOracle,
    rule: ValueRule,
    interval: Optional[tuple[float, float]] = None,
    flow: Optional[Pair] = None,
) -> SenderAudit:
    """Id sanity, declared-field cross-checks, the full arithmetic
    replay of the sender's update from its two consecutive messages,
    and the quiet rule of the module docstring. A first message
    (prev_msg None) is screened against the safety interval instead of
    replayed. flow is the flow of msg's ledger since prev_msg's: a
    normal sender's is handed over, and an adversary's (flow None) is
    summed by ledger_flow."""
    j = msg.sender
    relayed = msg.relayed
    claims = msg.detected
    # read by Step 1b, whose verdicts precede every finding below
    claimed_before = prev_msg.detected if prev_msg is not None else frozenset()
    before = prev_msg.relayed if prev_msg is not None else {}
    if flow is None:
        flow = ledger_flow(relayed, before)
    expected_ids = oracle.relay_ids[j]
    fields = None
    if relayed.keys() != expected_ids:
        foreign = relayed.keys() - expected_ids
        if foreign:
            evidence = ("foreign_ids", tuple(sorted(foreign)))
        else:
            evidence = ("missing_ids", tuple(sorted(expected_ids - relayed.keys())))
        fields = Cause.STEP2, (evidence,)
    else:
        expected_d, expected_removed = declared_fields(oracle.out_nbrs[j], claims, claimed_before)
        if msg.declared_out_degree != expected_d:
            fields = Cause.STEP4, (("declared_out_degree", msg.declared_out_degree, expected_d),)
        elif msg.declared_removed_out != expected_removed:
            fields = Cause.STEP4, (("declared_removed_out", msg.declared_removed_out, expected_removed),)
    if fields is not None:
        return SenderAudit(fields, claimed_before=claimed_before)
    if prev_msg is None:
        lam, gam = msg.self_next
        replay = init_range_check(float(lam / gam) if gam != 0 else float("inf"), interval)
    else:
        # the replay counts an id the previous ledger relays and this
        # one does not against zero; the quiet rule reads the flow over
        # the relayed entries alone
        flow_y, flow_z = flow
        if not before.keys() <= relayed.keys():
            for h, (y_before, z_before) in before.items():
                if h not in relayed:
                    flow_y -= y_before
                    flow_z -= z_before
        replay = reconstruct_running_sums(msg, (flow_y, flow_z), rule)
    # the quiet rule of the module docstring; the items test compares as
    # == does, identity first, and != takes a missing public value too
    quiet = (
        replay is None
        and claimed_before <= claims
        and (relayed.items() <= public.items()
             or claims.issuperset(h for h, val in relayed.items() if public.get(h) != val))
        and rule.pair_eq(flow, flow)
        and (not claims or _step3(msg, public, rule, claims) is None)
    )
    return SenderAudit(None, replay, claimed_before, quiet)


def _step3(
    msg: InformationSet, values: Mapping[int, Pair], rule: ValueRule, ids=None
) -> Optional[Finding]:
    """Step 3: the first relayed entry (in ledger order, or in the order
    of ids if given, skipping ids the sender does not relay) unequal to
    ZERO_PAIR if the sender claims its id (not its own), else to its
    entry in values, if any."""
    j = msg.sender
    claims = msg.detected
    relayed = msg.relayed
    entries = relayed.items() if ids is None else [(h, relayed[h]) for h in ids if h in relayed]
    for h, val in entries:
        expected = ZERO_PAIR if h != j and h in claims else values.get(h)
        if expected is not None and not rule.pair_eq(val, expected):
            return Cause.STEP3, (("id", h), ("relayed", val), ("expected", expected))
    return None


class RoundPlan:
    """The run's detection phase (see the module docstring). states maps
    every node to its state; normals names the nodes that detect, in the
    order their verdicts are returned."""

    def __init__(self, states: Mapping[int, NodeState], normals: list[int], g: DirectedGraph, f: int,
                 rule: ValueRule, interval: Optional[tuple[float, float]], sharing: bool):
        self.oracle = StructuralOracle(g, f)
        self._states, self._normals = states, frozenset(normals)
        self._rule, self._interval = rule, interval
        # per normal node: its state, and as of its last check its known
        # set (a copy), the senders it hears and whether their claims passed
        self._nodes = [[states[i], None, frozenset(), None] for i in normals]
        # each sender's previous broadcast is in last round's table: a node
        # that sends now sent then too (crashes last, forge_round grows)
        self._prev: Mapping[int, InformationSet] = {}
        # what each node broadcast as its next running sums last round;
        # every running sum starts at zero
        self.public: Mapping[int, Pair] = dict.fromkeys(states, ZERO_PAIR)
        # the union of the normal nodes' detection sets as of the last
        # round's merge; None under the distributed claim policy
        self.shared = frozenset() if sharing else None

    def detect(self, sent: Mapping[int, InformationSet]) -> list[DetectionVerdict]:
        """The round's verdicts, in normals order, from its broadcast table."""
        states, normals, oracle, rule = self._states, self._normals, self.oracle, self._rule
        public, shared = self.public, self.shared
        for node in self._nodes:
            s, known = node[0], node[1]
            # the two sets are disjoint and only grow
            if known is None or len(known) != len(s.detected) + len(s.detected_two_hop):
                node[1:] = s.detected | s.detected_two_hop, s.in_nbrs - s.detected, None
        heard = frozenset().union(*(node[2] for node in self._nodes))
        # a normal sender's flow is handed over, and an adversary's
        # broadcast is summed by ledger_flow
        audits = {j: audit_broadcast(sent[j], self._prev.get(j), public, oracle, rule, self._interval,
                                     states[j].flow if j in normals else None)
                  for j in heard if j in sent}
        alarms = {j for j, a in audits.items() if not a.quiet}
        alarms.update(heard.difference(sent))  # crashed
        changed = {j for j, a in audits.items() if a.claimed_before != sent[j].detected}
        verdicts: list[DetectionVerdict] = []
        for node in self._nodes:
            s, known, hears, ok = node
            if ok is None or not changed.isdisjoint(hears):
                # a crashed sender claims nothing
                claims = [(j, sent[j].detected) for j in hears if j in sent]
                if shared is None:
                    ok = all(c <= known and known & oracle.in_nbrs[j] <= c for j, c in claims)
                else:
                    ok = all(c == shared for _, c in claims)
                node[3] = ok
            if not ok or not alarms.isdisjoint(hears):
                if shared is None:
                    verdicts += detect_alg3(s, sent, audits, public, oracle, rule)
                else:
                    verdicts += detect_alg2(s, sent, audits, public, shared, rule)
        if shared is not None:
            # the oracle hands this round's detections to every node that
            # updates, which is every node that sent
            merged = frozenset().union(*(node[0].detected for node in self._nodes))
            for i in sent:
                states[i].detected |= merged - {i}
            if merged != shared:
                # every claim check compared its claims with the old set
                for node in self._nodes:
                    node[3] = None
            self.shared = merged
        self._prev = sent
        self.public = {j: msg.self_next for j, msg in sent.items()}
        return verdicts


def _detect(
    state: NodeState,
    inbox: Mapping[int, InformationSet],
    audits: Mapping[int, SenderAudit],
    public: Mapping[int, Pair],
    oracle: Optional[StructuralOracle],
    rule: ValueRule,
    shared: Optional[frozenset[int]],
) -> list[DetectionVerdict]:
    """One node-round of detection, under the sharing claim policy when
    shared is given and the distributed one when it is None; see
    detect_alg2 and detect_alg3."""
    i = state.id
    k = state.next.round + 1
    in_nbrs = state.in_nbrs
    detected = state.detected
    two_hop_detected = state.detected_two_hop
    # j composed its claims a round ago, so it can only be expected to
    # know what this node had detected before this round
    known_before = detected | two_hop_detected
    active_in = sorted(in_nbrs - detected)
    verdicts: list[DetectionVerdict] = []

    def condemn(suspect: int, cause: Cause, *evidence) -> None:
        if suspect == i or suspect in detected or suspect in two_hop_detected:
            return
        verdicts.append(DetectionVerdict(suspect, i, k, cause, evidence))
        if suspect in in_nbrs or suspect in state.out_nbrs:
            detected.add(suspect)
        else:
            two_hop_detected.add(suspect)

    # an in-neighbor that sent nothing has crashed
    for j in active_in:
        if j not in inbox:
            condemn(j, Cause.CRASH)

    # ascending, the order of the per-reporter audits below
    reporters = {j: inbox[j] for j in active_in if j in inbox}

    # the public values of the node's in-neighbors and itself, which
    # the votes below extend
    check = {h: public[h] for h in (*in_nbrs, i) if h in public}
    if shared is None:
        f = oracle.f
        # vote on the two-hop values of nodes not yet known
        for h, relays in oracle.two_hop_relays[i]:
            if h in detected or h in two_hop_detected:
                continue
            reports = [
                reporters[p].relayed[h]
                for p in relays
                if p in reporters and h in reporters[p].relayed
            ]
            if len(reports) < 2 * f + 1:
                continue
            value = vote_value(reports, rule)
            if value is not NO_MAJORITY:
                check[h] = value

        # corroborated detection claims
        counts: dict[int, int] = {}
        for msg in reporters.values():
            for m in msg.detected:
                counts[m] = counts.get(m, 0) + 1
        for m in sorted(counts):
            if counts[m] >= f + 1:
                condemn(m, Cause.VOTE_MAJORITY, ("reporters", counts[m]))
        snapshot = detected | two_hop_detected

    for j, msg in reporters.items():
        if j in detected:
            continue
        # the claim policy; the distributed claim audits run in this
        # order, as the first verdict on j wins
        claims = msg.detected
        audit = audits[j]
        if shared is None:
            in_j = oracle.in_nbrs[j]

            # claims about j's own in-neighbors
            for h in sorted(claims & in_j):
                if h not in snapshot and oracle.must_know_status(i, h):
                    condemn(j, Cause.STEP1A, ("uncorroborated", h))
            for h in sorted((known_before & in_j) - claims):
                if oracle.must_detect(j, h):
                    condemn(j, Cause.STEP1A, ("omitted", h))

            # two-hop claims: must never vanish from the claim set, and
            # must be corroborated once repeated; both read j's previous
            # claims, which hold every earlier one that has not vanished
            claimed_before = audit.claimed_before
            if not claimed_before <= claims:
                condemn(j, Cause.STEP1B, ("vanished", tuple(sorted(claimed_before - claims))))
            for m in sorted((claims & claimed_before) - in_j - {j}):
                if m not in snapshot and oracle.must_know_status(i, m):
                    condemn(j, Cause.STEP1B, ("persisted_uncorroborated", m))
        elif claims != shared:
            claimed = ("claimed", tuple(sorted(claims)))
            condemn(j, Cause.STEP1, claimed, ("shared", tuple(sorted(shared))))

        if j in detected:
            continue
        # Step 2 and the Step 4 declared fields, Step 3 against the check
        # set, the Step 4 replay
        finding = audit.fields or _step3(msg, check, rule) or audit.replay
        if finding is not None:
            condemn(j, finding[0], *finding[1])
    return verdicts


def detect_alg2(
    state: NodeState,
    inbox: Mapping[int, InformationSet],
    audits: Mapping[int, SenderAudit],
    public: Mapping[int, Pair],
    shared: frozenset[int],
    rule: ValueRule,
) -> list[DetectionVerdict]:
    """One round of sharing detection for one node.

    inbox maps senders to this round's messages, and may hold those of
    non-neighbors (RoundPlan passes the whole broadcast table); only
    in-neighbors' are read. audits holds this round's audit_broadcast
    result for every sender the node hears, made against the public
    values; shared is the oracle-distributed detection set as of last
    round, and every honest claim set must equal it exactly. Returns
    the verdicts, whose suspects are already in state.detected.
    perfbench/tracer.py times each detector under its own name, so the
    two stay separate functions.
    """
    return _detect(state, inbox, audits, public, None, rule, shared)


def detect_alg3(
    state: NodeState,
    inbox: Mapping[int, InformationSet],
    audits: Mapping[int, SenderAudit],
    public: Mapping[int, Pair],
    oracle: StructuralOracle,
    rule: ValueRule,
) -> list[DetectionVerdict]:
    """One round of fully distributed detection for one node.

    inbox and audits are read as in detect_alg2. Returns the verdicts,
    whose suspects are already in state.detected (neighbors) or
    state.detected_two_hop (any other node). perfbench/tracer.py times
    each detector under its own name, so the two stay separate
    functions.
    """
    return _detect(state, inbox, audits, public, oracle, rule, None)
