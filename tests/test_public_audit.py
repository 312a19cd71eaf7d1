"""Step 3 once per broadcast against the public values.

A receiver's check set is the public values (what each node broadcast
as its next running sums last round) of its in-neighbors and itself,
plus the two-hop values it votes on this round. It runs its votes only
if some reporter's broadcast is not == the public values, and repeats
Step 3 per edge only for a reporter whose broadcast failed Step 3
against the public values or that relays a voted id whose vote is not
== its public value. These tests check that the shortcut gives exactly
the verdicts of the full per-receiver path, and that the one-walk
audit_broadcast and replay give what their multi-pass reference
versions below give.
"""

import math
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.adversary import (
    ActionKind,
    AttackAction,
    AttackScript,
    adversary_rng,
    forge_information_set,
    tampered_inbox,
)
from racsim.detection import (
    Cause,
    ReconstructionResult,
    SenderAudit,
    StructuralOracle,
    _audit_edge,
    audit_broadcast,
    detect_alg2,
    detect_alg3,
    init_range_check,
    reconstruct_running_sums,
)
from racsim.fixtures import X0_SIX, six_node_graph
from racsim.graph import DirectedGraph, complete_graph
from racsim.protocol import (
    ZERO_PAIR,
    InformationSet,
    ValueRule,
    bootstrap,
    build_information_set,
    honest_round,
)

FLOAT = ValueRule()
EXACT = ValueRule(exact=True)

NAN = float("nan")
OTHER_NAN = float("nan")
# equal, within the default tolerance 1e-9 and just beyond it; int and
# float zeros of both signs; inf and two distinct NaN objects
FLOAT_PARTS = (1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 0, 0.0, -0.0, math.inf, NAN, OTHER_NAN)
EXACT_PARTS = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), 0.5, 1, Fraction(1), 0, Fraction(0))

K5 = complete_graph(5)
K5_ORACLE = StructuralOracle(K5, 1)


@st.composite
def edges(draw):
    """One broadcast from node 1 of K5 that passes Step 2 and the
    declared-field checks, with a public table and a receiver's check
    set drawn so that values often coincide."""
    rule = draw(st.sampled_from([FLOAT, EXACT]))
    pairs = st.tuples(*[st.sampled_from(FLOAT_PARTS if rule is FLOAT else EXACT_PARTS)] * 2)
    ids = range(1, 6)
    public = {h: draw(pairs) for h in ids if draw(st.booleans())}

    def near(h):
        return st.one_of(st.just(public[h]), pairs) if h in public else pairs

    claims = draw(st.frozensets(st.sampled_from(ids)))
    relayed = {h: draw(st.one_of(near(h), st.just(ZERO_PAIR))) for h in ids}
    check = {h: draw(near(h)) for h in ids if draw(st.integers(0, 3))}
    out = K5.out_neighbors(1)
    msg = InformationSet(
        sender=1,
        round=3,
        detected=claims,
        self_next=draw(pairs),
        relayed=relayed,
        declared_out_degree=len(out - claims),
        declared_removed_out=len(out & claims),
    )
    return msg, public, check, rule


@settings(max_examples=500, deadline=None)
@given(edges())
def test_shortcut_matches_treating_every_check_id_as_deviating(case):
    msg, public, check, rule = case
    prev = build_information_set(bootstrap(K5, 1, 1.0, rule))
    audit = audit_broadcast(msg, prev, public, K5_ORACLE, rule)
    assert audit.fields is None
    deviating = {h for h, v in check.items() if public.get(h) != v}
    shortcut = _audit_edge(msg, audit, check, deviating, rule)
    assert shortcut == _audit_edge(msg, audit, check, set(check), rule)
    assert shortcut == _audit_edge(msg, replace(audit, consistent=False), check, set(), rule)


def _reference_replay(phi_now, phi_prev, rule):
    """reconstruct_running_sums as two generator sums over the union of
    both ledgers' ids."""
    j = phi_now.sender
    d = 1 + phi_now.declared_out_degree
    self_now = phi_now.relayed[j]
    keys = set(phi_now.relayed) | set(phi_prev.relayed)
    flow_y = sum(
        phi_now.relayed.get(h, ZERO_PAIR)[0] - phi_prev.relayed.get(h, ZERO_PAIR)[0]
        for h in keys
    )
    flow_z = sum(
        phi_now.relayed.get(h, ZERO_PAIR)[1] - phi_prev.relayed.get(h, ZERO_PAIR)[1]
        for h in keys
    )
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


def _reference_audit(msg, prev_msg, public, oracle, rule, interval=None):
    """audit_broadcast with every set built, faithful as an all() over
    the relayed entries and Step 3 as a second walk over them."""
    j = msg.sender
    in_j, out_j = oracle.in_nbrs(j), oracle.out_nbrs(j)
    ids = set(msg.relayed)
    foreign = ids - in_j - {j}
    missing = (in_j | {j}) - ids
    claimed_before = prev_msg.detected if prev_msg is not None else frozenset()
    vanished = frozenset(h for h in claimed_before if h not in msg.detected)
    expected_d = len(out_j - msg.detected)
    expected_removed = len((out_j - claimed_before) & msg.detected)
    if foreign:
        return SenderAudit((Cause.STEP2, (("foreign_ids", tuple(sorted(foreign))),)), vanished=vanished)
    if missing:
        return SenderAudit((Cause.STEP2, (("missing_ids", tuple(sorted(missing))),)), vanished=vanished)
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
        rec = _reference_replay(msg, prev_msg, rule)
        replay = None
        if not rec.clean(rule):
            evidence = (("reported", msg.self_next), ("reconstructed", (rec.lam_pred, rec.gam_pred)))
            replay = (Cause.STEP4, evidence)
    faithful = all(public.get(h) == val for h, val in msg.relayed.items())
    consistent = True
    for h, val in msg.relayed.items():
        expected = ZERO_PAIR if h != j and h in msg.detected else public.get(h)
        if expected is not None and not rule.pair_eq(val, expected):
            consistent = False
            break
    return SenderAudit(None, replay, consistent, faithful, vanished)


def _same(a, b) -> bool:
    """Equal, of the same type, where any two NaNs count as equal."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


# dyadic offsets keep float sums exact, so the order of a sum cannot
# move its result: 2**-31 is within the default tolerance, 2**-29 beyond
DYADIC_PARTS = (1.0, 1.0 + 2**-31, 1.0 + 2**-29, 0, 0.0, -0.0, math.inf, NAN, OTHER_NAN)
FRACTION_PARTS = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), 1, Fraction(1), 0, Fraction(0))
# K5's ids plus two ids outside the graph
AUDIT_IDS = range(1, 8)


@st.composite
def broadcasts(draw):
    """A broadcast from node 1 of K5, its predecessor (or None) and a
    public table: foreign, missing and claimed ids, ids that only the
    predecessor relays, and declared fields that are often right."""
    rule = draw(st.sampled_from([FLOAT, EXACT]))
    pairs = st.tuples(*[st.sampled_from(DYADIC_PARTS if rule is FLOAT else FRACTION_PARTS)] * 2)
    out = K5.out_neighbors(1)

    def often(right, wrong):
        return right if draw(st.integers(0, 3)) else draw(wrong)

    def message(claimed_before):
        ids = often(range(1, 6), st.lists(st.sampled_from(AUDIT_IDS), unique=True))
        claims = draw(st.frozensets(st.sampled_from(AUDIT_IDS)))
        return InformationSet(
            sender=1,
            round=3,
            detected=claims,
            self_next=draw(pairs),
            relayed={h: draw(pairs) for h in [*ids, 1]},
            declared_out_degree=often(len(out - claims), st.integers(0, 5)),
            declared_removed_out=often(len((out - claimed_before) & claims), st.integers(0, 5)),
        )

    prev = message(frozenset()) if draw(st.booleans()) else None
    msg = message(prev.detected if prev is not None else frozenset())
    # the relayed entries, with up to three ids dropped or redrawn
    public = dict(msg.relayed)
    for h in draw(st.lists(st.sampled_from(AUDIT_IDS), unique=True, max_size=3)):
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
    assert _same(
        (got.fields, got.replay, got.consistent, got.faithful),
        (want.fields, want.replay, want.consistent, want.faithful),
    )
    assert got.vanished == want.vanished


@st.composite
def ledgers(draw):
    """Two consecutive messages of node 1 with any ids in any order."""
    rule = draw(st.sampled_from([FLOAT, EXACT]))
    if rule is FLOAT:
        numbers = st.floats(-10.0, 10.0)
    else:
        numbers = st.builds(Fraction, st.integers(-600, 600), st.integers(1, 60))
    pairs = st.tuples(numbers, numbers)

    def message():
        ids = draw(st.lists(st.sampled_from(AUDIT_IDS), unique=True))
        return InformationSet(
            sender=1,
            round=3,
            detected=frozenset(),
            self_next=draw(pairs),
            relayed={h: draw(pairs) for h in [*ids, 1]},
            declared_out_degree=draw(st.integers(0, 4)),
            declared_removed_out=draw(st.integers(0, 4)),
        )

    return message(), message(), rule


@settings(max_examples=300, deadline=None)
@given(ledgers())
def test_replay_matches_the_union_reference(case):
    now, prev, rule = case
    got = reconstruct_running_sums(now, prev, rule)
    want = _reference_replay(now, prev, rule)
    fields = ("lam_pred", "gam_pred", "eps_lam", "eps_gam")
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if rule is EXACT:
            assert a == b
        else:
            assert abs(a - b) <= 1e-12


# node 1 hears 2, 3 and 4, which each hear two-hop node 5
DIAMOND = DirectedGraph(5, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)], undirected=True)
VOTED = (1.0, 1.0)


@pytest.mark.parametrize(
    "vote, public_5, deviates",
    [
        ((0, 0.0), (0.0, -0.0), False),  # int and float zeros of both signs are ==
        (VOTED, VOTED, False),
        (VOTED, (NAN, 1.0), True),  # a NaN is never == a vote
        (VOTED, (1.0 + 6e-10, 1.0), True),  # within tolerance, but not ==
        (VOTED, None, True),  # public holds no value for 5
    ],
    ids=["signed-zeros", "same-pair", "nan", "within-tol", "missing"],
)
def test_a_vote_that_is_not_public_reruns_step3(vote, public_5, deviates):
    """A voted id sends the reporters relaying it through Step 3 per
    edge exactly when its vote is not == its public value. Every audit
    says its broadcast passed Step 3 against the public values, so only
    the vote decides: 2 and 3 relay the vote, and 4's differing copy of
    it fails Step 3 if Step 3 reruns."""
    oracle = StructuralOracle(DIAMOND, 1)
    state = bootstrap(DIAMOND, 1, 1.0, FLOAT)
    public = {h: (float(h), 1.0) for h in range(1, 5)}
    if public_5 is not None:
        public[5] = public_5
    relayed_5 = {2: vote, 3: vote, 4: (50.0, 50.0)}
    inbox = {
        j: InformationSet(j, 1, frozenset(), (9.0, 1.0), {1: public[1], 5: relayed_5[j], j: public[j]}, 1)
        for j in (2, 3, 4)
    }
    audits = {j: SenderAudit(None, None, consistent=True, faithful=False) for j in inbox}
    verdicts = detect_alg3(state, inbox, audits, public, oracle, FLOAT)
    step3 = (4, Cause.STEP3, (("id", 5), ("relayed", (50.0, 50.0)), ("expected", vote)))
    assert [(v.suspect, v.cause, v.evidence) for v in verdicts] == ([step3] if deviates else [])


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
    "six-alg3": (six_node_graph(), X0_SIX, 6, True),
    "k4-alg2": (complete_graph(4), (2.0, 4.0, 6.0, 20.0), 4, False),
}


@pytest.mark.parametrize("rule", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("kind", list(ActionKind), ids=lambda k: k.value)
@pytest.mark.parametrize("network", list(_NETWORKS))
def test_empty_public_table_gives_the_same_detection(network, kind, rule):
    """Audits that promise nothing, neither consistent nor faithful,
    send every edge down the per-receiver Step 3 and run every vote;
    the detectors must not notice. The twin reads the same public
    table, since the check set is built from it."""
    g, x0, adversary, alg3 = _NETWORKS[network]
    oracle = StructuralOracle(g, 1)
    script = AttackScript(node=adversary, schedule=((3, _ACTIONS[kind]),))
    rng = adversary_rng(0, adversary)
    normal = [i for i in g.nodes if i != adversary]
    states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
    prev = {i: build_information_set(states[i]) for i in g.nodes}
    public = {i: m.self_next for i, m in prev.items()}
    for i in g.nodes:
        honest_round(states[i], {j: prev[j] for j in states[i].in_nbrs}, rule)
    shortcuts = 0
    for k in range(2, 9):
        msgs = {i: build_information_set(states[i]) for i in g.nodes}
        msgs[adversary] = forge_information_set(msgs[adversary], script, k - 1, rng)
        sent = {j: m for j, m in msgs.items() if m is not None}
        audits = {j: audit_broadcast(m, prev[j], public, oracle, rule) for j, m in sent.items()}
        blind = {j: replace(a, consistent=False, faithful=False) for j, a in audits.items()}
        shortcuts += sum(a.consistent and a.faithful for a in audits.values())
        prev.update(sent)
        inboxes = {i: {j: sent[j] for j in states[i].in_nbrs if j in sent} for i in g.nodes}
        shared = frozenset().union(*(states[i].detected for i in normal))
        for i in normal:
            state, twin = deepcopy(states[i]), deepcopy(states[i])
            if alg3:
                got = detect_alg3(state, inboxes[i], audits, public, oracle, rule)
                want = detect_alg3(twin, inboxes[i], blind, public, oracle, rule)
            else:
                got = detect_alg2(state, inboxes[i], audits, public, shared, rule)
                want = detect_alg2(twin, inboxes[i], blind, public, shared, rule)
            assert got == want
            assert state == twin
            states[i] = state
        if not alg3:
            # the sharing oracle merges the detections into every sender, as in the engine
            shared = frozenset().union(*(states[i].detected for i in normal))
            for i in sent:
                states[i].detected |= shared - {i}
        public = {j: m.self_next for j, m in sent.items()}
        # the adversary's own view is tampered, as in the engine
        inboxes[adversary] = tampered_inbox(inboxes[adversary], script, k)
        for i in g.nodes:
            if msgs[i] is None:
                continue
            honest_round(states[i], inboxes[i], rule)
    assert shortcuts > 0


@pytest.mark.parametrize("rule", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("kind", list(ActionKind), ids=lambda k: k.value)
@pytest.mark.parametrize("network", list(_NETWORKS))
def test_whole_broadcast_table_gives_the_same_detection(network, kind, rule):
    """The engine hands each detector the round's whole broadcast
    table; it must give the verdicts and the state that a per-receiver
    inbox gives."""
    g, x0, adversary, alg3 = _NETWORKS[network]
    oracle = StructuralOracle(g, 1)
    script = AttackScript(node=adversary, schedule=((3, _ACTIONS[kind]),))
    rng = adversary_rng(0, adversary)
    normal = [i for i in g.nodes if i != adversary]
    states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
    prev, public, verdicts = {}, {i: ZERO_PAIR for i in g.nodes}, 0
    for k in range(1, 9):
        msgs = {i: build_information_set(states[i]) for i in g.nodes}
        msgs[adversary] = forge_information_set(msgs[adversary], script, max(k - 1, 1), rng)
        sent = {j: m for j, m in msgs.items() if m is not None}
        audits = {j: audit_broadcast(m, prev.get(j), public, oracle, rule) for j, m in sent.items()}
        prev.update(sent)
        shared = frozenset().union(*(states[i].detected for i in normal))
        for i in normal:
            inbox = {j: sent[j] for j in states[i].in_nbrs if j in sent}
            state, twin = states[i], deepcopy(states[i])
            if alg3:
                got = detect_alg3(state, sent, audits, public, oracle, rule)
                want = detect_alg3(twin, inbox, audits, public, oracle, rule)
            else:
                got = detect_alg2(state, sent, audits, public, shared, rule)
                want = detect_alg2(twin, inbox, audits, public, shared, rule)
            verdicts += len(got)
            assert got == want
            assert state == twin
        if not alg3:
            # the sharing oracle merges the detections into every sender, as in the engine
            shared = frozenset().union(*(states[i].detected for i in normal))
            for i in sent:
                states[i].detected |= shared - {i}
        public = {j: m.self_next for j, m in sent.items()}
        for i in normal:
            honest_round(states[i], sent, rule)
        if msgs[adversary] is not None:
            inbox = {j: sent[j] for j in states[adversary].in_nbrs if j in sent}
            honest_round(states[adversary], tampered_inbox(inbox, script, k), rule)
    if kind is not ActionKind.COMPLY:
        assert verdicts > 0
