"""The once-per-broadcast audit and the skipped node-rounds.

A receiver's check set is the public values (what each node broadcast
as its next running sums last round) of its in-neighbors and itself,
plus the two-hop values it votes on this round. audit_broadcast runs
once per broadcast some normal node hears and decides whether it is
quiet, by the rule in the racsim.detection docstring. The engine skips
a node-round that learns nothing new, where every sender the node
hears sent a quiet broadcast that claims only what the node knew
(under sharing detection, exactly the shared set); any other
node-round runs the detector, which votes on every unknown two-hop id
and runs Step 3 per edge against its check set. These tests check that
the skipped node-rounds are exactly those, that the full pipeline
gives none of them a verdict, and that the one-walk audit_broadcast
and replay give what their multi-pass reference versions below give.
"""

import math
import random
import sys
from collections import Counter
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.adversary import ActionKind, AttackAction, AttackScript
from racsim.detection import (
    Cause,
    RoundPlan,
    SenderAudit,
    StructuralOracle,
    _step3,
    audit_broadcast,
    detect_alg2,
    detect_alg3,
    init_range_check,
)
from racsim.fixtures import six_node_graph
from racsim.golden import GOLDEN_CASES, golden_case
from racsim.graph import DirectedGraph, complete_graph
from racsim.protocol import (
    ZERO_PAIR,
    InformationSet,
    ValueRule,
    bootstrap,
    honest_round,
)
from racsim import sim
from scenario_fuzz import random_scenario


SIX_X0 = tuple(golden_case("six-attack").data["x0"])

FLOAT = ValueRule()
EXACT = ValueRule(exact=True)

NAN = float("nan")
OTHER_NAN = float("nan")

K5 = complete_graph(5)
K5_ORACLE = StructuralOracle(K5, 1)


def _reference_replay(phi_now, phi_prev, rule):
    """The replay of audit_broadcast, its ledger flow taken as two sums
    of differences over the union of both ledgers' ids: the predicted
    running sums and the residuals of the reported ones. Float sums are
    pinned to one order, the later ledger's and then the ids only the
    earlier one relays, and taken left to right: sum() compensates from
    Python 3.12, and with ±float max in the pools the order matters."""
    j = phi_now.sender
    d = 1 + phi_now.declared_out_degree
    self_now = phi_now.relayed[j]
    flow_y = flow_z = 0
    for h in [*phi_now.relayed, *(h for h in phi_prev.relayed if h not in phi_now.relayed)]:
        now, before = phi_now.relayed.get(h, ZERO_PAIR), phi_prev.relayed.get(h, ZERO_PAIR)
        flow_y += now[0] - before[0]
        flow_z += now[1] - before[1]
    y_prev = flow_y + phi_now.declared_removed_out * self_now[0]
    z_prev = flow_z + phi_now.declared_removed_out * self_now[1]
    lam_pred = self_now[0] + y_prev / d
    gam_pred = self_now[1] + z_prev / d
    residuals = (phi_now.self_next[0] - lam_pred, phi_now.self_next[1] - gam_pred)
    return (lam_pred, gam_pred), residuals


def _clean(residuals) -> bool:
    return residuals[0] == 0 and residuals[1] == 0


def _off_public(msg, public):
    """The relayed ids whose entries are not == their public values."""
    return tuple(h for h, val in msg.relayed.items() if public.get(h) != val)


def _walked_flow(msg, prev_msg):
    """The ledger flow as audit_broadcast's walk sums it, over the
    relayed entries in ledger order."""
    before = prev_msg.relayed if prev_msg is not None else {}
    flow_y = flow_z = 0
    for h, (y, z) in msg.relayed.items():
        y_before, z_before = before.get(h, ZERO_PAIR)
        flow_y += y - y_before
        flow_z += z - z_before
    return flow_y, flow_z


def _reference_audit(msg, prev_msg, public, oracle, rule, interval=None):
    """audit_broadcast with every set built, the off-public ids as a
    comprehension over the relayed entries and Step 3 as a second walk
    over all of them; quiet reads both, and not the flow, so it is
    audit_broadcast's quiet without the finite-flow condition."""
    j = msg.sender
    in_j, out_j = oracle.in_nbrs[j], oracle.out_nbrs[j]
    ids = set(msg.relayed)
    foreign = ids - in_j - {j}
    missing = (in_j | {j}) - ids
    claimed_before = prev_msg.detected if prev_msg is not None else frozenset()
    known = {"claimed_before": claimed_before}
    expected_d = len(out_j - msg.detected)
    expected_removed = len((out_j - claimed_before) & msg.detected)
    if foreign:
        return SenderAudit((Cause.STEP2, (("foreign_ids", tuple(sorted(foreign))),)), **known)
    if missing:
        return SenderAudit((Cause.STEP2, (("missing_ids", tuple(sorted(missing))),)), **known)
    if msg.declared_out_degree != expected_d:
        evidence = ("declared_out_degree", msg.declared_out_degree, expected_d)
        return SenderAudit((Cause.STEP4, (evidence,)), **known)
    if msg.declared_removed_out != expected_removed:
        evidence = ("declared_removed_out", msg.declared_removed_out, expected_removed)
        return SenderAudit((Cause.STEP4, (evidence,)), **known)
    if prev_msg is None:
        lam, gam = msg.self_next
        replay = init_range_check(float(lam / gam) if gam != 0 else float("inf"), interval)
    else:
        predicted, residuals = _reference_replay(msg, prev_msg, rule)
        replay = None
        if not _clean(residuals):
            evidence = (("reported", msg.self_next), ("reconstructed", predicted))
            replay = (Cause.STEP4, evidence)
    consistent = True
    for h, val in msg.relayed.items():
        expected = ZERO_PAIR if h != j and h in msg.detected else public.get(h)
        if expected is not None and not rule.pair_eq(val, expected):
            consistent = False
            break
    quiet = (
        replay is None
        and consistent
        and claimed_before <= msg.detected
        and set(_off_public(msg, public)) <= msg.detected
    )
    return SenderAudit(None, replay, claimed_before, quiet)


def _same(a, b) -> bool:
    """Equal, of the same type, where any two NaNs count as equal."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


# dyadic offsets of 2**-31 and 2**-29, each unequal to 1.0 under the
# exact rule; ±float max gives finite entries whose flow overflows or
# rounds away the offsets; inf and NaN make the flow non-finite, in an
# exact run as forged floats
BIG = sys.float_info.max
DYADIC_PARTS = (1.0, 1.0 + 2**-31, 1.0 + 2**-29, 0, 0.0, -0.0, math.inf, NAN, OTHER_NAN, BIG, -BIG)
FRACTION_PARTS = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), 1, Fraction(1), 0, Fraction(0), math.inf, NAN)
# K5's ids plus two ids outside the graph
AUDIT_IDS = range(1, 8)


@st.composite
def broadcasts(draw):
    """A broadcast from node 1 of K5, its predecessor (or None) and a
    public table: foreign, missing and claimed ids, ids that only the
    predecessor relays, declared fields that are often right and
    reported values that often replay cleanly."""
    rule = draw(st.sampled_from([FLOAT, EXACT]))
    parts = DYADIC_PARTS if rule is FLOAT else FRACTION_PARTS
    if draw(st.booleans()):
        # finite values only, so that audits are often consistent and
        # claims often quiet
        parts = tuple(v for v in parts if math.isfinite(v))
    pairs = st.tuples(*[st.sampled_from(parts)] * 2)
    out = K5.out_neighbors(1)

    def often(right, wrong):
        return right if draw(st.integers(0, 3)) else draw(wrong)

    def message(claimed_before):
        ids = often(range(1, 6), st.lists(st.sampled_from(AUDIT_IDS), unique=True))
        # as in a run, a claim set is often empty, and a claimed id
        # often relayed as zero
        claims = frozenset() if draw(st.booleans()) else draw(st.frozensets(st.sampled_from(AUDIT_IDS)))
        return InformationSet(
            sender=1,
            round=3,
            detected=claims,
            self_next=draw(pairs),
            relayed={
                h: often(ZERO_PAIR, pairs) if h in claims else draw(pairs) for h in [*ids, 1]
            },
            declared_out_degree=often(len(out - claims), st.integers(0, 5)),
            declared_removed_out=often(len((out - claimed_before) & claims), st.integers(0, 5)),
        )

    prev = message(frozenset()) if draw(st.booleans()) else None
    msg = message(prev.detected if prev is not None else frozenset())
    if prev is not None and draw(st.booleans()):
        # report the replay's own values, so that the replay is often
        # clean and the audit often quiet
        predicted, _ = _reference_replay(msg, prev, rule)
        msg = msg._replace(self_next=predicted)
    # the relayed entries, with up to three ids dropped or redrawn, often
    # claimed ones: in a run, a claimed in-neighbor's public value is
    # its last broadcast, and the claim relays zero
    ids = sorted(msg.detected) if msg.detected and draw(st.booleans()) else AUDIT_IDS
    public = dict(msg.relayed)
    for h in draw(st.lists(st.sampled_from(ids), unique=True, max_size=3)):
        if draw(st.booleans()):
            public.pop(h, None)
        else:
            public[h] = draw(pairs)
    interval = draw(st.sampled_from([None, (0.0, 1.0), (-1.0, 0.25)]))
    return msg, prev, public, interval, rule


@settings(max_examples=500, deadline=None)
@given(broadcasts())
def test_audit_broadcast_matches_the_multi_pass_reference(case):
    msg, prev, public, interval, rule = case
    got = audit_broadcast(msg, prev, public, K5_ORACLE, rule, interval)
    want = _reference_audit(msg, prev, public, K5_ORACLE, rule, interval)
    assert _same((got.fields, got.replay), (want.fields, want.replay))
    assert got.claimed_before == want.claimed_before
    # the quiet rule is the reference's, and also asks for a finite flow
    if got.quiet:
        assert want.quiet
    flow = _walked_flow(msg, prev)
    if rule.pair_eq(flow, flow):
        assert got.quiet is want.quiet


def _honest_second_message(claimed):
    """Node 1 of K5's first two honest messages and the public values
    its second is audited against; node 1 has detected the nodes in
    claimed by its second exchange."""
    states = {i: bootstrap(K5, i, float(i), FLOAT) for i in K5.nodes}
    first = {i: states[i].next for i in K5.nodes}
    states[1].detected |= claimed
    for i in K5.nodes:
        honest_round(states[i], first, FLOAT)
    public = {i: m.self_next for i, m in first.items()}
    return states[1].next, first[1], public


# per change: what node 1 has detected by its second exchange, the
# off-public ids, whether the broadcast passes Step 3 against the public
# values and whether its audit is quiet
_QUIET_CASES = {
    "none": (set(), (), True, True),
    # a claim on itself changes neither declared field nor Step 3, and
    # a claim alone breaks no condition
    "claims": (set(), (), True, True),
    "claimed_before": (set(), (), True, False),
    # one float spacing off the public value: off-public, and Step 3
    # fails, as comparisons are exact
    "unfaithful": (set(), (2,), False, False),
    "replay": (set(), (), True, False),
    # an unclaimed in-neighbor with no public value: off-public, and
    # Step 3 has nothing to check it against
    "unpublished": (set(), (2,), True, False),
    # an honest claim: the in-neighbor 2 relayed as zero, off-public
    "claimed_zero": ({2}, (2,), True, True),
    # the same, with 3 off-public and not claimed
    "unclaimed_off_public": ({2}, (2, 3), False, False),
    # the claimed 2 relayed at its public value, not as zero
    "claimed_not_zero": ({2}, (), False, False),
    # finite entries, each at its public value, whose flow overflows
    "overflowing_flow": (set(), (), True, False),
}


@pytest.mark.parametrize("change", list(_QUIET_CASES))
def test_quiet_fails_with_any_one_of_its_conditions(change):
    """An honest second message is quiet, with or without claims; each
    change below breaks one condition of quiet and leaves the others
    holding, except that an unclaimed entry off its public value also
    fails Step 3. The overflowing flow is shown on a first message, which is
    screened and not replayed, since a replay of an infinite flow
    fails."""
    claimed, off_public, consistent, quiet = _QUIET_CASES[change]
    msg, prev, public = _honest_second_message(claimed)
    if change == "claims":
        msg = msg._replace(detected=frozenset({1}))
    elif change == "claimed_before":
        prev = prev._replace(detected=frozenset({3}))
    elif change == "unfaithful":
        y, z = public[2]
        public[2] = (math.nextafter(y, math.inf), z)
    elif change == "replay":
        msg = msg._replace(self_next=(msg.self_next[0] + 1.0, msg.self_next[1]))
    elif change == "unclaimed_off_public":
        y, z = public[3]
        public[3] = (math.nextafter(y, math.inf), z)
    elif change == "unpublished":
        del public[2]
    elif change == "claimed_not_zero":
        msg = msg._replace(relayed={**msg.relayed, 2: public[2]})
        # the sums the replay predicts, so that only Step 3 fails
        msg = msg._replace(self_next=_reference_replay(msg, prev, FLOAT)[0])
    elif change == "overflowing_flow":
        big = (0.0, 1.797e308)
        msg, prev = prev._replace(relayed={**prev.relayed, 1: big, 5: big}), None
        public = dict(msg.relayed)
    assert _off_public(msg, public) == off_public
    assert (_step3(msg, public, FLOAT) is None) == consistent
    audit = audit_broadcast(msg, prev, public, K5_ORACLE, FLOAT)
    assert audit.fields is None
    assert (audit.replay is None) == (change != "replay")
    assert audit.claimed_before == (prev.detected if prev is not None else frozenset())
    assert audit.quiet == quiet


@st.composite
def ledgers(draw):
    """Two consecutive messages of node 1 of K5. The later one passes
    Step 2 and the declared-field checks, with its ids in any order; the
    earlier one relays any ids, so it may lack ids the later one relays
    and relay ids the later one lacks."""
    rule = draw(st.sampled_from([FLOAT, EXACT]))
    if rule is FLOAT:
        numbers = st.floats(-10.0, 10.0)
    else:
        numbers = st.builds(Fraction, st.integers(-600, 600), st.integers(1, 60))
    pairs = st.tuples(numbers, numbers)
    out = K5.out_neighbors(1)

    def message(ids, claims, claimed_before):
        return InformationSet(
            sender=1,
            round=3,
            detected=claims,
            self_next=draw(pairs),
            relayed={h: draw(pairs) for h in [*ids, 1]},
            declared_out_degree=len(out - claims),
            declared_removed_out=len((out - claimed_before) & claims),
        )

    claims_before = draw(st.frozensets(st.sampled_from(sorted(out))))
    claims = draw(st.frozensets(st.sampled_from(sorted(out))))
    prev = message(draw(st.lists(st.sampled_from(AUDIT_IDS), unique=True)), claims_before, frozenset())
    now = message(draw(st.permutations(range(1, 6))), claims | claims_before, claims_before)
    return now, prev, rule


@settings(max_examples=300, deadline=None)
@given(ledgers())
def test_replay_matches_the_union_reference(case):
    now, prev, rule = case
    got = audit_broadcast(now, prev, {}, K5_ORACLE, rule)
    want, residuals = _reference_replay(now, prev, rule)
    assert got.fields is None
    assert (got.replay is None) == _clean(residuals)
    if got.replay is not None:
        (_, reported), (_, predicted) = got.replay[1]
        assert reported == now.self_next
        # both sum the flow in ledger order
        assert predicted == want


# node 1 hears 2, 3 and 4, which each hear two-hop node 5
DIAMOND = DirectedGraph(5, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)], undirected=True)
VOTED = (1.0, 1.0)


@pytest.mark.parametrize(
    "copy_4",
    [(50.0, 50.0), (math.nextafter(1.0, 2.0), 1.0)],
    ids=["differs", "one-spacing"],
)
@pytest.mark.parametrize(
    "public_5",
    [VOTED, (NAN, 1.0), (math.nextafter(1.0, 2.0), 1.0), None],
    ids=["public-is-vote", "public-nan", "public-one-spacing", "no-public"],
)
def test_a_relayer_whose_copy_differs_from_the_vote_fails_step3(public_5, copy_4):
    """2 and 3 relay two-hop node 5 at the vote and 4 relays its own
    copy. No audit is quiet, so node 1 votes on 5 and runs Step 3 on
    every edge: 4 fails it whenever its copy differs from the vote,
    even by one float spacing, whatever 5's public value."""
    oracle = StructuralOracle(DIAMOND, 1)
    state = bootstrap(DIAMOND, 1, 1.0, FLOAT)
    public = {h: (float(h), 1.0) for h in range(1, 5)}
    if public_5 is not None:
        public[5] = public_5
    relayed_5 = {2: VOTED, 3: VOTED, 4: copy_4}
    inbox = {
        j: InformationSet(j, 1, frozenset(), (9.0, 1.0), {1: public[1], 5: relayed_5[j], j: public[j]}, 1)
        for j in (2, 3, 4)
    }
    audits = {j: SenderAudit(None) for j in inbox}
    verdicts = detect_alg3(state, inbox, audits, public, oracle, FLOAT)
    step3 = (4, Cause.STEP3, (("id", 5), ("relayed", copy_4), ("expected", VOTED)))
    assert [(v.suspect, v.cause, v.evidence) for v in verdicts] == [step3]


# one forged action per ActionKind, from round 3
_ACTIONS = {
    ActionKind.COMPLY: AttackAction(ActionKind.COMPLY),
    ActionKind.CRASH: AttackAction(ActionKind.CRASH),
    ActionKind.SET_SELF_VALUE: AttackAction(ActionKind.SET_SELF_VALUE, value=42.0),
    ActionKind.TAMPER_RELAYED: AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0),
    ActionKind.INJECT_FAKE_ID: AttackAction(
        ActionKind.INJECT_FAKE_ID, target=5, fake_values=(1.0, 1.0)
    ),
    ActionKind.DROP_RELAYED_ENTRY: AttackAction(ActionKind.DROP_RELAYED_ENTRY, target=1),
    ActionKind.FALSELY_ACCUSE: AttackAction(ActionKind.FALSELY_ACCUSE, target=3),
    ActionKind.LIE_DECLARED_DEGREE: AttackAction(ActionKind.LIE_DECLARED_DEGREE, value=1),
}

# graph, initial values, adversary, ALG3 (else ALG2)
_NETWORKS = {
    "six-alg3": (six_node_graph(), SIX_X0, 6, True),
    "k4-alg2": (complete_graph(4), (2.0, 4.0, 6.0, 20.0), 4, False),
}


def _exit_scenarios():
    """Each golden case, and each one with adversaries once more with
    every adversary crashing from round 3, run to round 40; then the
    first 40 fuzz draws at seed 7, which cover every ActionKind, both
    arithmetics and crashes. The flags say whether the run has
    adversaries and whether they all crash."""
    for case in GOLDEN_CASES:
        attacked = bool(case.data["adversaries"])
        yield pytest.param(case.build(), attacked, False, id=case.name)
        if attacked:
            data = deepcopy(case.data)
            for entry in data["adversaries"]:
                entry["schedule"] = [{"from_round": 3, "action": {"kind": "Crash"}}]
            data["horizon"] = 40
            yield pytest.param(sim.scenario_from_json(data), False, True, id=f"{case.name}-crash")
    rng = random.Random(7)
    for n in range(40):
        yield pytest.param(random_scenario(rng), False, False, id=f"fuzz-seed7-{n}")


def _action_scenarios():
    """Each ActionKind from round 3 on each of _NETWORKS, in float and
    exact arithmetic, run to round 8. The flag says whether the one
    adversary acts, so that it must be caught."""
    for network, (g, x0, adversary, alg3) in _NETWORKS.items():
        for kind, action in _ACTIONS.items():
            for arithmetic in ("float", "exact"):
                scenario = sim.Scenario(
                    graph=g,
                    x0=x0,
                    detection=sim.DetectionMode.ALG3 if alg3 else sim.DetectionMode.ALG2,
                    sharing_oracle=not alg3,
                    adversaries=(AttackScript(node=adversary, schedule=((3, action),)),),
                    horizon=8,
                    exact=arithmetic == "exact",
                )
                acting = kind is not ActionKind.COMPLY
                yield pytest.param(scenario, acting, id=f"{network}-{kind.value}-{arithmetic}")


def _learns_nothing(state, inbox, audits, policy, sharing) -> bool:
    """The skip rule of RoundPlan, restated: every sender the node hears
    (an in-neighbor it has not detected) that sent is quiet, and claims
    the shared set, or only what the node knew and every known
    in-neighbor of its own. A crashed sender is passed over here."""
    known = state.detected | state.detected_two_hop
    for j in state.in_nbrs - state.detected:
        if j not in inbox:
            continue
        claims = inbox[j].detected
        if not audits[j].quiet:
            return False
        if sharing:
            if claims != policy:
                return False
        elif not (claims <= known and known & policy.in_nbrs[j] <= claims):
            return False
    return True


def _hears_a_crash(state, inbox) -> bool:
    return any(j not in inbox for j in state.in_nbrs - state.detected)


def _twin(state):
    return replace(state, detected=set(state.detected), detected_two_hop=set(state.detected_two_hop))


def _checked_run(scenario, monkeypatch, *, loud, per_receiver):
    """sim.run(scenario), checked each round against the full pipeline.

    The engine must run a node's detector exactly where _learns_nothing
    fails or the node hears a crashed sender. Each node-round it skips
    is replayed through the detector on a copy of the node's state: it
    must give no verdict and leave the copy's detection sets as they
    were. With per_receiver, each detector call is repeated on a copy
    reading a per-receiver inbox of the node's in-neighbors' messages
    in place of the engine's whole broadcast table, and must give the
    call's verdicts and detection sets. With loud, the run is repeated
    with every audit's quiet forced False, so that every node that hears
    a sender runs its detector, and must give the same verdicts.
    Returns the counts of skipped node-rounds, skipped node-rounds of a
    node that knew of a detection (under sharing detection, held a
    non-empty shared set), detector calls that only the crash check
    sent to the detector and that gave a crash verdict, quiet audits
    and verdicts."""
    counts = Counter()
    rule = ValueRule(exact=scenario.exact)
    if loud:
        with monkeypatch.context() as m:
            m.setattr(sim, "audit_broadcast", lambda *args: audit_broadcast(*args)._replace(quiet=False))
            loud_events = sim.run(scenario).events

    class CheckedPlan(sim.RoundPlan):
        def __init__(self, states, oracle):
            super().__init__(states, oracle)
            self.states, self.oracle = states, oracle
            self.public = {i: ZERO_PAIR for i in scenario.graph.nodes}

        def to_run(self, sent, audits, shared=None):
            run = super().to_run(sent, audits, shared)
            counts["quiet_audits"] += sum(a.quiet for a in audits.values())
            sharing = shared is not None
            detect, policy = (detect_alg2, shared) if sharing else (detect_alg3, self.oracle)
            for state in self.states:
                learns = not _learns_nothing(state, sent, audits, policy, sharing)
                ran = any(state is s for s in run)
                assert ran == (learns or _hears_a_crash(state, sent))
                if ran:
                    continue
                twin = _twin(state)
                assert detect(twin, sent, audits, self.public, policy, rule) == []
                assert twin.detected == state.detected
                assert twin.detected_two_hop == state.detected_two_hop
                informed = shared if sharing else state.detected | state.detected_two_hop
                counts["skips"] += 1
                counts["informed_skips"] += bool(informed)
            # the public values of the next round
            self.public = {j: msg.self_next for j, msg in sent.items()}
            return run

    def checked(detect, sharing):
        def wrapper(state, inbox, audits, public, policy, rule):
            if per_receiver:
                twin = _twin(state)
                own_inbox = {j: inbox[j] for j in state.in_nbrs if j in inbox}
                twin_verdicts = detect(twin, own_inbox, audits, public, policy, rule)
            crash_only = _learns_nothing(state, inbox, audits, policy, sharing)
            got = detect(state, inbox, audits, public, policy, rule)
            if per_receiver:
                assert got == twin_verdicts
                assert state.detected == twin.detected
                assert state.detected_two_hop == twin.detected_two_hop
            counts["crash_runs"] += crash_only and any(v.cause is Cause.CRASH for v in got)
            counts["verdicts"] += len(got)
            return got

        return wrapper

    monkeypatch.setattr(sim, "RoundPlan", CheckedPlan)
    monkeypatch.setattr(sim, "detect_alg2", checked(detect_alg2, True))
    monkeypatch.setattr(sim, "detect_alg3", checked(detect_alg3, False))
    events = sim.run(scenario).events
    if loud:
        # repr, as a NaN in the evidence equals only itself
        assert repr(events) == repr(loud_events)
    return counts


def _flow_checked_run(scenario, monkeypatch):
    """sim.run(scenario) with every audit_broadcast call that was given
    the sender's flow repeated without it, so that the audit sums the
    ledger itself: both must give the same SenderAudit, repr for repr.
    Every normal node's broadcast, its first included, must come with a
    flow, and no adversary's may. Returns the trace and the number of
    calls given a flow."""
    adversaries = {s.node for s in scenario.adversaries}
    given_flow = 0

    def checked(msg, prev_msg, public, oracle, rule, interval=None, flow=None):
        nonlocal given_flow
        got = audit_broadcast(msg, prev_msg, public, oracle, rule, interval, flow)
        assert (flow is None) == (msg.sender in adversaries)
        if flow is not None:
            given_flow += 1
            assert repr(got) == repr(audit_broadcast(msg, prev_msg, public, oracle, rule, interval))
        return got

    monkeypatch.setattr(sim, "audit_broadcast", checked)
    return sim.run(scenario), given_flow


def _flow_scenarios():
    """The golden cases in float and, at the exact-golden benchmark's
    horizon 60, in exact arithmetic; every action of _action_scenarios;
    the first 60 fuzz draws at seed 7."""
    for case in GOLDEN_CASES:
        sc = case.build()
        yield pytest.param(sc, id=f"{case.name}-float")
        yield pytest.param(replace(sc, exact=True, horizon=60), id=f"{case.name}-exact")
    for param in _action_scenarios():
        yield pytest.param(param.values[0], id=param.id)
    rng = random.Random(7)
    for n in range(60):
        yield pytest.param(random_scenario(rng), id=f"fuzz-seed7-{n}")


@pytest.mark.parametrize("scenario", list(_flow_scenarios()))
def test_the_senders_flow_gives_the_audit_of_the_audits_own_sum(scenario, monkeypatch):
    """A normal node's replay takes the flow the node summed in its
    update; the audit that sums the ledger itself must give the same
    findings, evidence and quiet flag. Every run with detection in
    which a normal node hears a normal node hands some audit a flow."""
    _, given_flow = _flow_checked_run(scenario, monkeypatch)
    g = scenario.graph
    normals = set(g.nodes) - {s.node for s in scenario.adversaries}
    if scenario.detection is not sim.DetectionMode.NONE and any(g.in_neighbors(i) & normals for i in normals):
        assert given_flow > 0


@pytest.mark.parametrize("scenario, attacked, crashing", list(_exit_scenarios()))
def test_quiet_exit_gives_the_verdicts_of_the_full_pipeline(scenario, attacked, crashing, monkeypatch):
    """The engine skips exactly the node-rounds that learn nothing, each
    of which the full pipeline passes without a verdict, and every
    detector call gives the verdicts and detection sets of its
    per-receiver repeat and the run those of its loud repeat (see
    _checked_run). Every run with detection has a quiet audit and skips
    a node-round; in every crashing run the crash check alone sends
    some node-round to its detector; in every golden run with
    adversaries a node that already knew of a detection is skipped."""
    counts = _checked_run(scenario, monkeypatch, loud=True, per_receiver=True)
    if scenario.detection is not sim.DetectionMode.NONE:
        assert counts["quiet_audits"] > 0
        assert counts["skips"] > 0
    if crashing:
        assert counts["crash_runs"] > 0
    if attacked:
        assert counts["informed_skips"] > 0


@pytest.mark.parametrize("scenario, acting", list(_action_scenarios()))
def test_empty_public_table_gives_the_same_detection(scenario, acting, monkeypatch):
    """Audits that are never quiet send every node-round that hears a
    sender to its detector; the verdicts must not change. Some audit of
    the run is quiet, so node-rounds are skipped."""
    counts = _checked_run(scenario, monkeypatch, loud=True, per_receiver=False)
    assert counts["quiet_audits"] > 0
    assert counts["skips"] > 0


@pytest.mark.parametrize("scenario, acting", list(_action_scenarios()))
def test_whole_broadcast_table_gives_the_same_detection(scenario, acting, monkeypatch):
    """The engine hands each detector the round's whole broadcast
    table; it must give the verdicts and the state that a per-receiver
    inbox gives. Every acting adversary draws a verdict."""
    counts = _checked_run(scenario, monkeypatch, loud=False, per_receiver=True)
    if acting:
        assert counts["verdicts"] > 0


def test_a_broadcast_no_normal_node_hears_is_not_audited(monkeypatch):
    """On eight-attack each sender's broadcast is audited up to the
    round in which the last normal node that hears it condemns it, and
    in every round if one never does: each adversary's in rounds 1 to 4,
    and then no more, so 980 of the run's 1,600 broadcasts go
    unaudited."""
    scenario = golden_case("eight-attack").build()
    audited = Counter()

    def counted(msg, *args):
        audited[msg.sender] += 1
        return audit_broadcast(msg, *args)

    monkeypatch.setattr(sim, "audit_broadcast", counted)
    trace = sim.run(scenario)
    g = scenario.graph
    adversaries = {s.node for s in scenario.adversaries}
    normals = set(g.nodes) - adversaries
    condemned = {(e.detector, e.suspect): e.round for e in trace.events}
    for j in g.nodes:
        hearers = [i for i in normals if j in g.in_neighbors(i)]
        assert audited[j] == max((condemned.get((i, j), scenario.horizon) for i in hearers), default=0)
    assert {audited[a] for a in adversaries} == {4}
    assert scenario.horizon * g.n - sum(audited.values()) == 980


def test_a_shared_set_keeps_quiet_broadcasts_from_the_exit():
    """Under sharing detection a node that knew of no detection, handed
    a non-empty shared set (here its own id, which the engine leaves
    out of its detection set), still runs its detector on quiet
    broadcasts, which audits their claims: each empty claim set is a
    Step 1 verdict. Handed the empty set, it is skipped."""
    g = complete_graph(4)
    oracle = StructuralOracle(g, 1)
    public = {i: ZERO_PAIR for i in g.nodes}
    sent = {i: bootstrap(g, i, float(i), FLOAT).next for i in g.nodes}
    audits = {j: audit_broadcast(m, None, public, oracle, FLOAT) for j, m in sent.items()}
    assert all(a.quiet for a in audits.values())
    state = bootstrap(g, 1, 1.0, FLOAT)
    plan = RoundPlan([state], oracle)
    assert plan.heard() == {2, 3, 4}
    assert plan.to_run(sent, audits, frozenset()) == []
    assert plan.to_run(sent, audits, frozenset({1})) == [state]
    verdicts = detect_alg2(state, sent, audits, public, frozenset({1}), FLOAT)
    assert [(v.suspect, v.cause) for v in verdicts] == [(j, Cause.STEP1) for j in (2, 3, 4)]
    assert state.detected == {2, 3, 4}


def test_the_plan_checks_a_node_again_when_its_inputs_change():
    """RoundPlan keeps a node's claim check across rounds: a quiet
    broadcast with claims the node cannot vouch for sends it to its
    detector, in the round the claims change and in every round they
    persist, and a node that detects an in-neighbor stops hearing it."""
    g = complete_graph(4)
    oracle = StructuralOracle(g, 1)
    sent = {i: bootstrap(g, i, float(i), FLOAT).next for i in g.nodes}
    quiet = {j: SenderAudit(None, quiet=True) for j in sent}
    state = bootstrap(g, 1, 1.0, FLOAT)
    plan = RoundPlan([state], oracle)
    assert plan.heard() == {2, 3, 4}
    assert plan.to_run(sent, quiet) == []
    # 2 claims 4, which node 1 does not know of
    accusing = {**sent, 2: sent[2]._replace(detected=frozenset({4}))}
    assert plan.heard() == {2, 3, 4}
    assert plan.to_run(accusing, quiet) == [state]
    persisted = {**quiet, 2: SenderAudit(None, claimed_before=frozenset({4}), quiet=True)}
    assert plan.heard() == {2, 3, 4}
    assert plan.to_run(accusing, persisted) == [state]
    # node 1 detects 3, so it hears 2 and 4 alone
    state.detected.add(3)
    assert plan.heard() == {2, 4}
