"""Malicious-node detection.

Each node-round of detection is one pipeline: the crash check, the
ascending set of reporting in-neighbors, and one audit per reporter
ending in the per-edge checks (Step 2 to Step 4). A node's check set,
the relayed values it expects, is not stored: it is the public values
(what each node broadcast as its next running sums last round) of its
in-neighbors and itself, plus the two-hop values voted this round. So
a reporter whose broadcast passed Step 3 against the public values
needs the per-edge Step 3 again only if it relays a voted id whose
vote is not == its public value. The two detectors differ only in
their claim policy, how a node treats the detection sets its
in-neighbors claim:

* sharing detection: a trusted oracle shares every verified detection
  network-wide within the round, and each claim set must equal the
  shared set.
* fully distributed detection: no oracle; nodes extend their check
  sets to two-hop in-neighbors by majority voting over relayed copies,
  accept detection claims corroborated by f+1 distinct reporters, and
  audit claim sets for uncorroborated or vanishing accusations.

Every detection lands in the detecting node's state as it is made: a
neighbor in its detection set, any other node in its two-hop set. All
checks are conservative: a value that cannot be verified (no majority,
not enough reporters, insufficient structural coverage) never produces
a detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .graph import DirectedGraph, is_detectable
from .protocol import (
    InformationSet,
    NodeState,
    Pair,
    ValueRule,
    ZERO_PAIR,
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
    ORACLE_SHARED = "OracleShared"
    VOTE_MAJORITY = "VoteMajority"


@dataclass(frozen=True)
class DetectionVerdict:
    suspect: int
    detector: int
    round: int
    cause: Cause
    evidence: tuple = ()


class _NoMajority:
    def __repr__(self) -> str:
        return "NoMajority"


NO_MAJORITY = _NoMajority()


@dataclass(frozen=True)
class ReconstructionResult:
    lam_pred: object
    gam_pred: object
    eps_lam: object
    eps_gam: object

    def clean(self, rule: ValueRule) -> bool:
        return rule.eq(self.eps_lam, 0) and rule.eq(self.eps_gam, 0)


def vote_value(reports: list[tuple[int, Pair]], rule: ValueRule):
    """Value pair reported by strictly more than half, else NO_MAJORITY."""
    if not reports:
        raise ValueError("reports must be non-empty")
    m = len(reports)
    for _, candidate in reports:
        count = sum(1 for _, v in reports if rule.pair_eq(v, candidate))
        if 2 * count > m:
            return candidate
    return NO_MAJORITY


def reconstruct_running_sums(
    phi_now: InformationSet,
    phi_prev: InformationSet,
    rule: ValueRule,
) -> ReconstructionResult:
    """Replay the sender's update from its own two consecutive messages.

    The sender's relayed ledger difference plus its declared
    compensation term determines what its next running sums must be;
    the residuals measure how far the reported self_next values are
    from that replay.
    """
    j = phi_now.sender
    d = 1 + phi_now.declared_out_degree
    self_now = phi_now.relayed[j]
    now, prev = phi_now.relayed, phi_prev.relayed
    flow_y = flow_z = 0
    for h, (y, z) in now.items():
        y_before, z_before = prev.get(h, ZERO_PAIR)
        flow_y += y - y_before
        flow_z += z - z_before
    for h, (y_before, z_before) in prev.items():
        if h not in now:
            flow_y -= y_before
            flow_z -= z_before
    y_prev = flow_y + phi_now.declared_removed_out * self_now[0]
    z_prev = flow_z + phi_now.declared_removed_out * self_now[1]
    lam_pred = self_now[0] + y_prev / d
    gam_pred = self_now[1] + z_prev / d
    return ReconstructionResult(
        lam_pred=lam_pred,
        gam_pred=gam_pred,
        eps_lam=phi_now.self_next[0] - lam_pred,
        eps_gam=phi_now.self_next[1] - gam_pred,
    )


class StructuralOracle:
    """Topology-derived answers about who can verify whom.

    The constructor builds one table: auditors[h] holds the
    out-neighbors a of h that can audit h fully, that is, every input
    of h's update (its in-neighbors and h) is a itself or passes
    is_detectable(g, f, x, a): a hears it directly or through 2f+1
    two-hop middle nodes. Both answers read that table alone, so they
    read the topology up to three hops back from the asking node
    (x -> h -> p -> i).
    """

    def __init__(self, g: DirectedGraph, f: int):
        self.f = f
        self._in = {i: g.in_neighbors(i) for i in g.nodes}
        self._out = {i: g.out_neighbors(i) for i in g.nodes}
        # the ids an honest broadcast of i relays: its in-neighbors and i
        self.relay_ids = {i: self._in[i] | {i} for i in g.nodes}
        self.auditors = {
            h: frozenset(
                a for a in self._out[h]
                if all(x == a or is_detectable(g, f, x, a) for x in self.relay_ids[h])
            )
            for h in g.nodes
        }
        # per detector i: each two-hop in-neighbor h beyond i's
        # in-neighbors, ascending, with the in-neighbors of i relaying h
        self.two_hop_relays: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        for i in g.nodes:
            in_i = self._in[i]
            relays: dict[int, list[int]] = {}
            for p in sorted(in_i):
                for h in self._in[p]:
                    if h != i and h not in in_i:
                        relays.setdefault(h, []).append(p)
            self.two_hop_relays[i] = tuple((h, tuple(relays[h])) for h in sorted(relays))

    def in_nbrs(self, i: int) -> frozenset[int]:
        return self._in[i]

    def out_nbrs(self, i: int) -> frozenset[int]:
        return self._out[i]

    def must_detect(self, j: int, h: int) -> bool:
        """j is guaranteed to detect a misbehaving h on its own."""
        return j in self.auditors[h]

    def must_know_status(self, i: int, h: int) -> bool:
        """i is guaranteed to learn of h's detection, directly or by a
        vote among 2f+1 in-neighbors that each audit h fully."""
        return h == i or i in self.auditors[h] or (
            len(self.auditors[h] & self._in[i]) >= 2 * self.f + 1
        )


Finding = tuple[Cause, tuple]  # cause and evidence of one verdict


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


@dataclass(frozen=True)
class SenderAudit:
    """The receiver-independent part of auditing one broadcast.

    Every receiver audits the same message, so the engine computes this
    once per message sent. fields is the first Step 2 (id sanity) or
    Step 4 declared-field finding. Without one, replay is the Step 4
    update-replay finding (the safety-interval finding for a first
    message), and consistent and faithful say that every relayed entry
    passes Step 3 against, and is ==, the public value: what its id
    broadcast as its next running sums last round. vanished holds the
    ids the sender claimed in its previous message and no longer
    claims, whatever the other findings.
    """

    fields: Optional[Finding]
    replay: Optional[Finding] = None
    consistent: bool = False
    faithful: bool = False
    vanished: frozenset[int] = frozenset()


def audit_broadcast(
    msg: InformationSet,
    prev_msg: Optional[InformationSet],
    public: Mapping[int, Pair],
    oracle: StructuralOracle,
    rule: ValueRule,
    interval: Optional[tuple[float, float]] = None,
) -> SenderAudit:
    """Id sanity, declared-field cross-checks, the full arithmetic
    replay of the sender's update from its two consecutive messages,
    and Step 3 against the public values. A first message (prev_msg
    None) is screened against the safety interval instead of replayed."""
    j = msg.sender
    relayed = msg.relayed
    claims = msg.detected
    claimed_before = prev_msg.detected if prev_msg is not None else frozenset()
    # Step 1b, whose verdict precedes every finding below
    vanished = claimed_before - claims
    expected_ids = oracle.relay_ids[j]
    if relayed.keys() != expected_ids:
        foreign = relayed.keys() - expected_ids
        if foreign:
            evidence = ("foreign_ids", tuple(sorted(foreign)))
        else:
            evidence = ("missing_ids", tuple(sorted(expected_ids - relayed.keys())))
        return SenderAudit((Cause.STEP2, (evidence,)), vanished=vanished)
    out_j = oracle.out_nbrs(j)
    if claims:
        expected_d = len(out_j - claims)
        expected_removed = len((out_j - claimed_before) & claims)
    else:
        expected_d, expected_removed = len(out_j), 0
    if msg.declared_out_degree != expected_d:
        evidence = ("declared_out_degree", msg.declared_out_degree, expected_d)
        return SenderAudit((Cause.STEP4, (evidence,)), vanished=vanished)
    if msg.declared_removed_out != expected_removed:
        evidence = ("declared_removed_out", msg.declared_removed_out, expected_removed)
        return SenderAudit((Cause.STEP4, (evidence,)), vanished=vanished)
    if prev_msg is None:
        lam, gam = msg.self_next
        replay = init_range_check(float(lam / gam) if gam != 0 else float("inf"), interval)
    else:
        rec = reconstruct_running_sums(msg, prev_msg, rule)
        replay = None
        if not rec.clean(rule):
            evidence = (("reported", msg.self_next), ("reconstructed", (rec.lam_pred, rec.gam_pred)))
            replay = (Cause.STEP4, evidence)
    # faithful compares with == and not pair_eq, since tolerance
    # comparisons are not transitive; consistent is Step 3 (see _step3)
    # and is not implied by faithful: a NaN object is == itself
    faithful = consistent = True
    for h, val in relayed.items():
        value = public.get(h)
        if value != val:
            faithful = False
        expected = ZERO_PAIR if h != j and h in claims else value
        if consistent and expected is not None and not rule.pair_eq(val, expected):
            consistent = False
    return SenderAudit(None, replay, consistent, faithful, vanished)


def _step3(msg: InformationSet, values: Mapping[int, Pair], rule: ValueRule) -> Optional[Finding]:
    """Step 3: the first relayed entry unequal to ZERO_PAIR if the sender
    claims its id (not its own), else to its entry in values, if any."""
    j = msg.sender
    claims = msg.detected
    for h, val in msg.relayed.items():
        expected = ZERO_PAIR if h != j and h in claims else values.get(h)
        if expected is not None and not rule.pair_eq(val, expected):
            return Cause.STEP3, (("id", h), ("relayed", val), ("expected", expected))
    return None


def _audit_edge(
    msg: InformationSet,
    audit: SenderAudit,
    check: Mapping[int, Pair],
    deviating: set[int],
    rule: ValueRule,
) -> Optional[Finding]:
    """First finding of one receiver on one in-neighbor's message, in
    check order: Step 2, Step 4 declared fields, Step 3 value
    consistency against the receiver's check set, Step 4 replay. A
    consistent sender relaying no id in deviating, the ids whose check
    value is not == their public value, passes Step 3 here."""
    if audit.fields is not None:
        return audit.fields
    if not audit.consistent or not deviating.isdisjoint(msg.relayed):
        finding = _step3(msg, check, rule)
        if finding is not None:
            return finding
    return audit.replay


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
    k = state.round + 1
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

    for j in active_in:
        if j not in inbox:
            condemn(j, Cause.CRASH)

    # ascending, the order of the per-reporter audits below
    reporters = {j: inbox[j] for j in active_in if j in inbox}

    # the public values of the node's in-neighbors and itself, which
    # the votes below extend; only a voted value can deviate from them
    check = {h: public[h] for h in (*in_nbrs, i) if h in public}
    deviating: set[int] = set()
    if shared is None:
        f = oracle.f
        # vote on two-hop values; if every report is == its public
        # value, so is a vote, and Step 3 needs none
        if not all(audits[j].consistent and audits[j].faithful for j in reporters):
            for h, relays in oracle.two_hop_relays[i]:
                if h in detected or h in two_hop_detected:
                    continue
                reports = [
                    (p, reporters[p].relayed[h])
                    for p in relays
                    if p in reporters and h in reporters[p].relayed
                ]
                if len(reports) < 2 * f + 1:
                    continue
                value = vote_value(reports, rule)
                if value is NO_MAJORITY:
                    continue
                check[h] = value
                if public.get(h) != value:
                    deviating.add(h)

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
        # order, as the first verdict on j wins, and only on non-empty
        # input: most claim sets are empty
        claims = msg.detected
        if shared is None:
            in_j = oracle.in_nbrs(j)

            # claims about j's own in-neighbors
            if claims:
                for h in sorted(claims & in_j):
                    if h not in snapshot and oracle.must_know_status(i, h):
                        condemn(j, Cause.STEP1A, ("uncorroborated", h))
            if known_before:
                for h in sorted((known_before & in_j) - claims):
                    if oracle.must_detect(j, h):
                        condemn(j, Cause.STEP1A, ("omitted", h))

            # two-hop claims: must be corroborated once repeated, and
            # must never vanish from the claim set
            vanished = audits[j].vanished
            if vanished:
                condemn(j, Cause.STEP1B, ("vanished", tuple(sorted(vanished))))
            if claims:
                for m in sorted(claims - in_j - {j}):
                    if m in snapshot:
                        continue
                    first = state.claim_first_seen.get((j, m))
                    if first is None:
                        state.claim_first_seen[(j, m)] = k
                    elif first < k and oracle.must_know_status(i, m):
                        condemn(j, Cause.STEP1B, ("persisted_uncorroborated", m))
        elif claims != shared:
            claimed = ("claimed", tuple(sorted(claims)))
            condemn(j, Cause.STEP1, claimed, ("shared", tuple(sorted(shared))))

        if j in detected:
            continue
        finding = _audit_edge(msg, audits[j], check, deviating, rule)
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
    non-neighbors (the engine passes its whole broadcast table); only
    in-neighbors' are read. audits holds this round's audit_broadcast
    result per sender, made against the public values; shared is the
    oracle-distributed detection set as of last round, and every
    honest claim set must equal it exactly. Returns the verdicts, whose
    suspects are already in state.detected. perfbench/tracer.py times
    each detector under its own name, so the two stay separate
    functions.
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
