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
per message some detecting node hears. Its update replay and the quiet
rule read one ledger flow, protocol.ledger_flow's: a normal sender's
flow is handed over (NodeState.flow), and an adversary's broadcast,
once its ids and declared fields pass, is summed by ledger_flow, in
ledger order, the order an honest sender sums in, so every comparison
is exact. A normal sender's claim set keeps one object while its
detection set is unchanged (see protocol.honest_round), so the claims
comparisons of a steady state, the declared fields, the vanished test
and RoundPlan's changed set, test identity first; each gives the value
of its general path. A detector that runs votes on every two-hop id
it does not know and runs Step 3 against its own check set for every
reporter without a field finding.

The audit also decides, by one conservative rule, whether a broadcast
is quiet: it has no finding, keeps its previous claims, relays zero
for each id it claims (its own, if claimed, its public value), and
relays exactly the public value, finite, for every other id. Finite
is read off the ledger flow, which must pass pair_eq against itself;
a non-finite entry would make the flow inf or NaN for good. A finite
entry == its public value then passes Step 3 against it, so Step 3
needs a test only on the claimed ids. The entries are tested in one
walk over the ledger (_quiet_entries): a claimed id by Step 3's
comparison, any other by == against its public value; without claims,
this is the C-level test that the ledger's items are public items.
Finite entries whose flow overflows fail the rule, and such a
broadcast only takes the full pipeline. A broadcast that claims no one
after one that claimed no one is decided in one pass: its declared
fields must be its sender's out-degree and 0, its entries take the
items test, and a quiet one gets the one shared quiet SenderAudit; its
replay still runs.

A node-round learns nothing new when every sender it hears (an
in-neighbor it has not detected) sent a quiet broadcast whose claims
pass the detector's own claim policy (_claim_finding), given known,
what the node knew before the round, both as what it knew before and
as what it knows after its votes; under the distributed policy every
claim must also be in known. RoundPlan skips such a node-round with no
detector call; _detect holds only the crash check and the full
pipeline. The checks skipped cannot fire:

* no finding and Step 3 passes against the public values, so no
  field, replay or per-edge Step 3 verdict, as long as no vote
  differs from a public value;
* every claimed id is already known, so corroboration adds no one and
  the detector's claim policy reads what the plan's read: it finds
  nothing;
* for a two-hop id this node does not know, every report is == its
  public value, since each reporter claims its off-public ids and
  claims only known ones, so its vote gives that value or no
  majority.

A round examines only the nodes it can change. RoundPlan keeps, per
heard sender, its listeners (the normal nodes that hear it), and only
senders with listeners are audited. Per node it keeps its known set,
its heard set and its claim check. Only the detection phase changes a
normal node's detection sets: honest_round adds a crashed in-neighbor,
but a node that hears a crashed sender runs its detector, whose crash
check condemned it first. So a node's sets are re-read only before the
round after its detector ran, or after a merge that grew the shared
set (every node then), and the listener table is rebuilt only when a
re-read heard set differs. A re-read node whose known set grew (it
only grows, so its size shows it; a sender stops being heard only by
being detected) drops its kept check. The claim check and the choice
to run the detector are made, in normals order, only for the re-read
nodes whose check is unset or failed and for the listeners of the
senders that alarm (crashed, or not quiet) or whose claims differ from
claimed_before. Any other node holds a passed check and hears only
quiet senders with unchanged claims: its round costs nothing.
Claims equal to claimed_before pass the vanished audit, and claims
within known pass the uncorroborated and persisted ones, so a passed
check holds as claimed_before moves.
A change of the shared set needs no check of its own. The merge hands
the new set, less itself, to every node that sent, and a forgery only
adds claims, so each heard sender's next claims hold that set less
itself (a sender heard now sent in the last round too). A kept check
that failed ran the detector, which condemned by Step 1 the sender
whose claims differ from the shared set, so known grew. A kept check
that passed found each heard sender claiming the old set; if a
sender's claims stay so while the set changes, the new set adds only
that sender, which the merge hands to this node too, so known grows.
The merge itself runs only when some detector ran and the union of the
normal nodes' detection sets differs from the shared set: every node
that sent got the shared set, less itself, from the last merge, and a
detection set only grows. Once attacks are cut off, nearly every round
examines no node, as every round after the first does in a run without
attacks.

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


# the audit of every quiet broadcast that claims no one after one that
# claimed no one
_QUIET = SenderAudit(None, claimed_before=frozenset(), quiet=True)


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
    summed by ledger_flow once the ids and declared fields pass."""
    j, _, claims, _, relayed, d_out, n_removed = msg
    expected_ids = oracle.relay_ids[j]
    if not claims and prev_msg is not None and not prev_msg.detected:
        # claims no one after a broadcast that claimed no one: the declared
        # fields expected are the out-degree and 0, and the entry test is
        # the items test
        if relayed.keys() == expected_ids and d_out == len(oracle.out_nbrs[j]) and n_removed == 0:
            if flow is None:
                flow = ledger_flow(relayed, prev_msg.relayed)
            replay = reconstruct_running_sums(msg, flow, rule)
            if replay is None and relayed.items() <= public.items() and rule.pair_eq(flow, flow):
                return _QUIET
            return SenderAudit(None, replay, prev_msg.detected)
    # read by Step 1b, whose verdicts precede every finding below
    claimed_before = prev_msg.detected if prev_msg is not None else frozenset()
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
        if d_out != expected_d:
            fields = Cause.STEP4, (("declared_out_degree", d_out, expected_d),)
        elif n_removed != expected_removed:
            fields = Cause.STEP4, (("declared_removed_out", n_removed, expected_removed),)
    if fields is not None:
        return SenderAudit(fields, claimed_before=claimed_before)
    if flow is None:
        flow = ledger_flow(relayed, prev_msg.relayed if prev_msg is not None else {})
    if prev_msg is None:
        lam, gam = msg.self_next
        replay = init_range_check(float(lam / gam) if gam != 0 else float("inf"), interval)
    else:
        replay = reconstruct_running_sums(msg, flow, rule)
    # the quiet rule of the module docstring
    quiet = (
        replay is None
        and (claimed_before is claims or claimed_before <= claims)
        and _quiet_entries(msg, public, rule)
        and rule.pair_eq(flow, flow)
    )
    return SenderAudit(None, replay, claimed_before, quiet)


def _quiet_entries(msg: InformationSet, public: Mapping[int, Pair], rule: ValueRule) -> bool:
    """The quiet rule's test of the relayed entries, in one walk: zero
    for each id the sender claims (its own, if claimed, its public value,
    if any), as Step 3 compares, and == the public value for every other
    id. == compares identity first, and != takes a missing public value
    too. Without claims, it is the C-level items test."""
    j = msg.sender
    claims = msg.detected
    relayed = msg.relayed
    if not claims:
        return relayed.items() <= public.items()
    for h, val in relayed.items():
        if h in claims:
            expected = ZERO_PAIR if h != j else public.get(h)
            if expected is not None and not rule.pair_eq(val, expected):
                return False
        elif public.get(h) != val:
            return False
    return True


def _step3(msg: InformationSet, values: Mapping[int, Pair], rule: ValueRule) -> Optional[Finding]:
    """Step 3: the first relayed entry, in ledger order, unequal to
    ZERO_PAIR if the sender claims its id (not its own), else to its
    entry in values, if any."""
    j = msg.sender
    claims = msg.detected
    for h, val in msg.relayed.items():
        expected = ZERO_PAIR if h != j and h in claims else values.get(h)
        if expected is not None and not rule.pair_eq(val, expected):
            return Cause.STEP3, (("id", h), ("relayed", val), ("expected", expected))
    return None


def _claim_finding(i: int, msg: InformationSet, claimed_before: frozenset[int], known_before: set[int],
                   snapshot: set[int], oracle: Optional[StructuralOracle],
                   shared: Optional[frozenset[int]]) -> Optional[Finding]:
    """The claim policy: node i's first finding on msg's claims, Step 1
    against shared when it is given, else the distributed audits in
    order, against what i knew before the round and after its votes."""
    claims = msg.detected
    if shared is not None:
        if claims == shared:
            return None
        return Cause.STEP1, (("claimed", tuple(sorted(claims))), ("shared", tuple(sorted(shared))))
    j = msg.sender
    in_j = oracle.in_nbrs[j]
    # claims about j's own in-neighbors
    for h in sorted(claims & in_j):
        if h not in snapshot and oracle.must_know_status(i, h):
            return Cause.STEP1A, (("uncorroborated", h),)
    for h in sorted((known_before & in_j) - claims):
        if oracle.must_detect(j, h):
            return Cause.STEP1A, (("omitted", h),)
    # two-hop claims: must never vanish from the claim set, and must be
    # corroborated once repeated; both read j's previous claims, which
    # hold every earlier one that has not vanished
    if not claimed_before <= claims:
        return Cause.STEP1B, (("vanished", tuple(sorted(claimed_before - claims))),)
    for m in sorted((claims & claimed_before) - in_j - {j}):
        if m not in snapshot and oracle.must_know_status(i, m):
            return Cause.STEP1B, (("persisted_uncorroborated", m),)
    return None


class RoundPlan:
    """The run's detection phase (see the module docstring). states maps
    every node to its state; normals names the nodes that detect, in the
    order their verdicts are returned.

    A round examines only the nodes it can change (see the module
    docstring): the nodes it re-reads, after their detector ran or a
    merge grew the shared set, whose kept claim check is then unset or
    failed, and the listeners of the senders that alarm or changed
    their claims. The listener table, per heard sender the normal nodes
    that hear it, is rebuilt only when a re-read heard set differs, and
    the merge loop runs only when the merged set differs from the shared
    set.
    """

    def __init__(self, states: Mapping[int, NodeState], normals: list[int], g: DirectedGraph, f: int,
                 rule: ValueRule, interval: Optional[tuple[float, float]], sharing: bool):
        self.oracle = StructuralOracle(g, f)
        self._states, self._normals = states, frozenset(normals)
        self._rule, self._interval = rule, interval
        # per normal node: its state, and as of its last re-read its known
        # set (a copy), the senders it hears and whether their claims passed
        self._nodes = [[states[i], None, frozenset(), None] for i in normals]
        # the positions in normals of the nodes to re-read before the next
        # round, and per heard sender the positions of its listeners,
        # ascending
        self._stale = range(len(normals))
        self._listeners: dict[int, list[int]] = {}
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
        public, shared, nodes = self.public, self.shared, self._nodes
        examine = set()
        moved = False
        for x in self._stale:
            node = nodes[x]
            s, known = node[0], node[1]
            # the two sets are disjoint and only grow
            if known is None or len(known) != len(s.detected) + len(s.detected_two_hop):
                hears = s.in_nbrs - s.detected
                moved = moved or hears != node[2]
                node[1:] = s.detected | s.detected_two_hop, hears, None
            if not node[3]:
                examine.add(x)
        listeners = self._listeners
        if moved:
            listeners = self._listeners = {}
            for x, node in enumerate(nodes):
                for j in node[2]:
                    listeners.setdefault(j, []).append(x)
        # a normal sender's flow is handed over, and an adversary's
        # broadcast is summed by ledger_flow
        audits, alarms, changed, prev = {}, set(), set(), self._prev
        for j in listeners:
            msg = sent.get(j)
            if msg is None:
                alarms.add(j)  # crashed
                continue
            audit = audits[j] = audit_broadcast(msg, prev.get(j), public, oracle, rule, self._interval,
                                                states[j].flow if j in normals else None)
            if not audit.quiet:
                alarms.add(j)
            if audit.claimed_before is not msg.detected and audit.claimed_before != msg.detected:
                changed.add(j)
        for j in alarms | changed:
            examine.update(listeners[j])
        verdicts: list[DetectionVerdict] = []
        ran = []
        for x in sorted(examine):
            node = nodes[x]
            s, known, hears, ok = node
            if ok is None or not changed.isdisjoint(hears):
                # the detector's claim policy; a crashed sender claims nothing
                ok = all((shared is not None or sent[j].detected <= known)
                         and _claim_finding(s.id, sent[j], audits[j].claimed_before, known, known, oracle,
                                            shared) is None
                         for j in hears if j in sent)
                node[3] = ok
            if not ok or not alarms.isdisjoint(hears):
                if shared is None:
                    verdicts += detect_alg3(s, sent, audits, public, oracle, rule)
                else:
                    verdicts += detect_alg2(s, sent, audits, public, shared, rule)
                ran.append(x)
        self._stale = ran
        if shared is not None and ran:
            # the oracle hands this round's detections to every node that
            # updates, which is every node that sent
            merged = frozenset().union(*(node[0].detected for node in nodes))
            if merged != shared:
                for i in sent:
                    states[i].detected |= merged - {i}
                self.shared = merged
                self._stale = range(len(nodes))
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
        audit = audits[j]
        # the first finding on j wins: the claim policy, Step 2 and the
        # Step 4 declared fields, Step 3 against the check set, the Step 4
        # replay
        finding = (_claim_finding(i, msg, audit.claimed_before, known_before, snapshot, oracle, shared)
                   or audit.fields or _step3(msg, check, rule) or audit.replay)
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
