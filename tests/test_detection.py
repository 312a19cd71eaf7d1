import itertools
import random
from dataclasses import replace
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.detection import (
    NO_MAJORITY,
    Cause,
    StructuralOracle,
    audit_broadcast,
    detect_alg2,
    detect_alg3,
    init_range_check,
    reconstruct_running_sums,
    vote_value,
)
from racsim.adversary import ActionKind, AttackAction, AttackScript
from racsim.fixtures import (
    X0_FOURTEEN,
    X0_SIX,
    fourteen_node_graph,
    six_node_damaged,
    six_node_graph,
)
from racsim.graph import DirectedGraph, complete_graph, is_detectable, two_hop_middle_nodes
from racsim.protocol import (
    ZERO_PAIR,
    ValueRule,
    bootstrap,
    build_information_set,
    honest_round,
)
from racsim.sim import DetectionMode, Scenario, run, summary
from oracles import brute_oracle_answers

FLOAT = ValueRule()
EXACT = ValueRule(exact=True)


class TestVoteValue:
    def test_unanimous(self):
        assert vote_value([(1, (2.0, 1.0)), (2, (2.0, 1.0))], FLOAT) == (2.0, 1.0)

    def test_majority_beats_minority(self):
        reports = [(1, (2.0, 1.0)), (2, (2.0, 1.0)), (3, (9.0, 9.0))]
        assert vote_value(reports, FLOAT) == (2.0, 1.0)

    def test_even_split_has_no_majority(self):
        reports = [(1, (2.0, 1.0)), (2, (9.0, 9.0))]
        assert vote_value(reports, FLOAT) is NO_MAJORITY

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            vote_value([], FLOAT)

    def test_tolerance_merges_near_equal_values(self):
        rule = ValueRule(tol=1e-6)
        reports = [(1, (2.0, 1.0)), (2, (2.0 + 1e-9, 1.0)), (3, (5.0, 5.0))]
        voted = vote_value(reports, rule)
        assert voted is not NO_MAJORITY and rule.pair_eq(voted, (2.0, 1.0))

    @pytest.mark.parametrize("f", [1, 2])
    def test_any_forger_placement_loses(self, f):
        # with 2f+1 reporters and at most f forgers, the true value
        # always holds a strict majority, whatever the forgers say
        m = 2 * f + 1
        truth = (1.0, 2.0)
        for size in range(f + 1):
            for forgers in itertools.combinations(range(m), size):
                reports = []
                for p in range(m):
                    if p in forgers:
                        reports.append((p, (100.0 + p, float(p))))
                    else:
                        reports.append((p, truth))
                assert vote_value(reports, FLOAT) == truth


def _detect_at_node_5(
    claims: Optional[dict[int, frozenset]] = None,
    claimed_before: Optional[dict[int, frozenset]] = None,
    foreign: Optional[dict[int, dict]] = None,
) -> tuple:
    """Node 5 of the six-node fixture (it hears nodes 1-4, which hear 6)
    runs detect_alg3 in round 2, with node j's message claiming
    claims[j] and also relaying the entries foreign[j], and its round-0
    message claiming claimed_before[j]; returns node 5's state before
    detection and the detection arguments."""
    g = six_node_graph()
    oracle = StructuralOracle(g, 1)
    states = {i: bootstrap(g, i, X0_SIX[i - 1], FLOAT) for i in g.nodes}
    first = {i: build_information_set(states[i]) for i in g.nodes}
    for i in g.nodes:
        honest_round(states[i], {j: first[j] for j in states[i].in_nbrs}, FLOAT)
    msgs = {i: build_information_set(states[i]) for i in g.nodes}
    for j, claimed in (claims or {}).items():
        msgs[j] = replace(msgs[j], detected=claimed)
    for j, entries in (foreign or {}).items():
        msgs[j] = replace(msgs[j], relayed={**msgs[j].relayed, **entries})
    for j, claimed in (claimed_before or {}).items():
        first[j] = replace(first[j], detected=claimed)
    public = {j: m.self_next for j, m in first.items()}
    audits = {j: audit_broadcast(m, first[j], public, oracle, FLOAT) for j, m in msgs.items()}
    inbox = {j: msgs[j] for j in states[5].in_nbrs}
    return states[5], (inbox, audits, public, oracle, FLOAT)


class TestClaimCorroboration:
    """detect_alg3 accepts a claimed id once f+1 distinct reporters
    claim it (VoteMajority)."""

    def _votes(self, reporters):
        state, args = _detect_at_node_5({j: frozenset({6}) for j in reporters})
        verdicts = detect_alg3(state, *args)
        return [v for v in verdicts if v.cause is Cause.VOTE_MAJORITY]

    def test_threshold_is_f_plus_one(self):
        votes = self._votes((1, 2))
        assert [(v.detector, v.suspect, v.evidence) for v in votes] == [(5, 6, (("reporters", 2),))]

    def test_single_reporter_insufficient(self):
        assert self._votes((1,)) == []


class TestClaimAudits:
    """The per-reporter claim audits of detect_alg3 run only on
    non-empty input, and in the order uncorroborated, omitted, vanished,
    persisted, the first verdict on a reporter winning."""

    @staticmethod
    def _verdicts(verdicts):
        return [(v.suspect, v.cause, v.evidence) for v in verdicts]

    def test_emptied_claim_set_vanishes(self):
        # node 1 claimed two-hop node 2 last round and claims nothing now
        state, args = _detect_at_node_5(claimed_before={1: frozenset({2})})
        audits = args[1]
        assert audits[1].vanished == {2}
        result = detect_alg3(state, *args)
        assert self._verdicts(result) == [(1, Cause.STEP1B, (("vanished", (2,)),))]

    def test_vanished_claim_outranks_a_foreign_id(self):
        # Step 1b runs before Step 2, so a claim dropped by a message
        # that also relays an id outside the graph is what condemns it
        state, args = _detect_at_node_5(
            claimed_before={1: frozenset({2})}, foreign={1: {9: (1.0, 1.0)}}
        )
        audit = args[1][1]
        assert audit.fields == (Cause.STEP2, (("foreign_ids", (9,)),))
        assert audit.vanished == {2}
        result = detect_alg3(state, *args)
        assert self._verdicts(result) == [(1, Cause.STEP1B, (("vanished", (2,)),))]

    def test_uncorroborated_claim_wins_over_omission(self):
        # node 5 already knows 6, an in-neighbor of 1-4 that each of
        # them must detect; node 1 claims its in-neighbor 3 instead
        state, args = _detect_at_node_5({1: frozenset({3})})
        state.detected_two_hop = {6}
        result = detect_alg3(state, *args)
        assert self._verdicts(result) == [
            (1, Cause.STEP1A, (("uncorroborated", 3),)),
            (2, Cause.STEP1A, (("omitted", 6),)),
            (3, Cause.STEP1A, (("omitted", 6),)),
            (4, Cause.STEP1A, (("omitted", 6),)),
        ]


@pytest.mark.parametrize("alg3", [True, False], ids=["alg3", "alg2"])
def test_detections_land_in_state(alg3):
    """A detector adds each suspect to the node's state as it condemns
    it: a neighbor to detected, any other node to detected_two_hop."""
    # in-neighbor 4 has crashed, and 1 and 2 claim two-hop node 6 without
    # lowering their declared out-degrees
    state, (inbox, audits, public, oracle, rule) = _detect_at_node_5(
        {1: frozenset({6}), 2: frozenset({6})}
    )
    del inbox[4]
    detected, two_hop = set(state.detected), set(state.detected_two_hop)
    if alg3:
        verdicts = detect_alg3(state, inbox, audits, public, oracle, rule)
    else:
        verdicts = detect_alg2(state, inbox, audits, public, frozenset(), rule)
    suspects = {v.suspect for v in verdicts}
    assert suspects == ({1, 2, 4, 6} if alg3 else {1, 2, 4})
    neighbors = state.in_nbrs | state.out_nbrs
    assert state.detected == detected | (suspects & neighbors)
    assert state.detected_two_hop == two_hop | (suspects - neighbors)


class TestReconstruction:
    def _exact_messages(self, rounds: int):
        """Every node's messages of rounds 0 (the first exchange) to rounds."""
        g = complete_graph(3)
        x0 = [Fraction(3), Fraction(6), Fraction(9)]
        states = {i: bootstrap(g, i, x0[i - 1], EXACT) for i in g.nodes}
        per_round = [{i: build_information_set(states[i]) for i in g.nodes}]
        for _ in range(rounds):
            for i in g.nodes:
                inbox = {j: per_round[-1][j] for j in states[i].in_nbrs}
                honest_round(states[i], inbox, EXACT)
            per_round.append({i: build_information_set(states[i]) for i in g.nodes})
        return per_round

    def test_honest_messages_replay_exactly(self):
        per_round = self._exact_messages(5)
        for prev, now in zip(per_round, per_round[1:]):
            for i in (1, 2, 3):
                rec = reconstruct_running_sums(now[i], prev[i], EXACT)
                assert rec.eps_lam == 0 and rec.eps_gam == 0
                assert rec.clean(EXACT)

    def test_first_message_replays_against_round_zero_message(self):
        per_round = self._exact_messages(1)
        assert set(per_round[0][1].relayed.values()) == {ZERO_PAIR}
        rec = reconstruct_running_sums(per_round[1][1], per_round[0][1], EXACT)
        assert rec.clean(EXACT)

    def test_perturbed_self_value_is_dirty(self):
        per_round = self._exact_messages(3)
        msg = per_round[3][1]
        forged = replace(msg, self_next=(msg.self_next[0] + 1, msg.self_next[1]))
        rec = reconstruct_running_sums(forged, per_round[2][1], EXACT)
        assert not rec.clean(EXACT)
        assert rec.eps_lam == 1

    def test_tampered_relayed_entry_is_dirty(self):
        per_round = self._exact_messages(3)
        msg = per_round[3][1]
        relayed = dict(msg.relayed)
        relayed[2] = (relayed[2][0] + 5, relayed[2][1])
        forged = replace(msg, relayed=relayed)
        rec = reconstruct_running_sums(forged, per_round[2][1], EXACT)
        assert not rec.clean(EXACT)


class TestStructuralOracle:
    def test_complete_graph_full_audit(self):
        g = complete_graph(5)
        oracle = StructuralOracle(g, 1)
        # besides the edge, three middles relay 2 to 1: enough to vote
        assert len(two_hop_middle_nodes(g, 2, 1)) == 3
        assert is_detectable(g, 1, 2, 1)
        assert oracle.auditors[2] == {1, 3, 4, 5}
        assert oracle.must_detect(1, 2)
        assert oracle.must_know_status(1, 2)

    def test_six_node_fixture_covers_non_neighbors(self):
        g = six_node_graph()
        oracle = StructuralOracle(g, 1)
        # 5 and 6 are not adjacent, but four middles relay between them
        assert not g.has_edge(6, 5)
        assert is_detectable(g, 1, 6, 5)
        assert oracle.auditors[6] == {1, 2, 3, 4}
        assert not oracle.must_detect(5, 6)
        assert oracle.must_know_status(5, 6)

    def test_damaged_fixture_loses_coverage(self):
        g = six_node_damaged()
        oracle = StructuralOracle(g, 1)
        assert not is_detectable(g, 1, 6, 5)
        assert all(not a for a in oracle.auditors.values())
        assert not oracle.must_detect(1, 6)
        assert not oracle.must_know_status(5, 6)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_answers_match_definition_replay(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        undirected = rng.random() < 0.5
        p = rng.uniform(0.3, 0.95)
        pairs = itertools.combinations if undirected else itertools.permutations
        g = DirectedGraph(
            n, [e for e in pairs(range(1, n + 1), 2) if rng.random() < p], undirected
        )
        for f in range(3):
            oracle = StructuralOracle(g, f)
            must_detect, must_know = brute_oracle_answers(n, set(g.edges), f)
            for i, h in itertools.product(g.nodes, repeat=2):
                assert oracle.must_detect(i, h) == ((i, h) in must_detect)
                assert oracle.must_know_status(i, h) == ((i, h) in must_know)


class TestInitRangeCheck:
    def test_no_interval_no_check(self):
        assert init_range_check(1e9, None) is None

    def test_inside_interval_passes(self):
        assert init_range_check(5.0, (0.0, 10.0)) is None

    def test_outside_interval_condemns(self):
        finding = init_range_check(50.0, (0.0, 10.0))
        assert finding == (Cause.INIT_RANGE, (("reported", 50.0), ("interval", (0.0, 10.0))))


def _six_scenario(*actions: tuple[int, AttackAction], node: int = 6) -> Scenario:
    return Scenario(
        graph=six_node_graph(),
        x0=X0_SIX,
        f=1,
        detection=DetectionMode.ALG3,
        adversaries=(AttackScript(node=node, schedule=actions),),
        horizon=40,
    )


def _suspects(trace):
    return {e.suspect for e in trace.events}


def _first_cause(trace, suspect):
    events = sorted((e for e in trace.events if e.suspect == suspect), key=lambda e: e.round)
    return events[0].cause


class TestDistributedDetectionEndToEnd:
    def test_ledger_tamper_caught_by_cross_check(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)))
        )
        assert _suspects(trace) == {6}
        assert _first_cause(trace, 6) is Cause.STEP3
        first = min(e.round for e in trace.events)
        assert first == 4
        detectors = {e.detector for e in trace.events if e.round == 4}
        assert detectors == {1, 2, 3, 4}

    def test_non_neighbors_learn_by_vote(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)))
        )
        vote_events = [e for e in trace.events if e.cause is Cause.VOTE_MAJORITY]
        assert {(e.detector, e.suspect) for e in vote_events} == {(5, 6)}

    def test_false_accusation_condemns_the_accuser(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.FALSELY_ACCUSE, target=3)))
        )
        assert 3 not in _suspects(trace)
        assert 6 in _suspects(trace)
        assert _first_cause(trace, 6) is Cause.STEP1A

    def test_foreign_ledger_id_condemned(self):
        # node 5 is not an in-neighbor of 6, so relaying it is illegal
        trace = run(
            _six_scenario(
                (3, AttackAction(ActionKind.INJECT_FAKE_ID, target=5, fake_values=(1.0, 1.0)))
            )
        )
        assert 6 in _suspects(trace)
        assert _first_cause(trace, 6) is Cause.STEP2

    def test_dropped_ledger_entry_condemned(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.DROP_RELAYED_ENTRY, target=1)))
        )
        assert 6 in _suspects(trace)
        assert _first_cause(trace, 6) is Cause.STEP2

    def test_misdeclared_out_degree_condemned(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.LIE_DECLARED_DEGREE, value=1)))
        )
        assert 6 in _suspects(trace)
        assert _first_cause(trace, 6) is Cause.STEP4

    def test_crash_detected_by_all_in_neighbors(self):
        # a neighbor that learns of the crash by vote is not blamed for
        # omitting it from claims composed before the crash was seen
        for start in (1, 3, 8):
            trace = run(_six_scenario((start, AttackAction(ActionKind.CRASH))))
            crash_events = [e for e in trace.events if e.cause is Cause.CRASH]
            assert {e.suspect for e in crash_events} == {6}
            assert {e.detector for e in crash_events} == {1, 2, 3, 4}
            assert _suspects(trace) == {6}

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a false accusation makes ALG3 condemn normal nodes",
    )
    def test_false_accusation_on_fourteen_spares_normal_nodes(self):
        trace = run(
            Scenario(
                graph=fourteen_node_graph(),
                x0=X0_FOURTEEN,
                f=1,
                detection=DetectionMode.ALG3,
                adversaries=(
                    AttackScript(
                        node=2, schedule=((1, AttackAction(ActionKind.FALSELY_ACCUSE, target=12)),)
                    ),
                ),
                horizon=60,
            )
        )
        assert _suspects(trace) <= {2}
        assert summary(trace)["converged_round"] is not None

    def test_forged_self_value_caught_by_replay(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.SET_SELF_VALUE, value=42.0)))
        )
        assert _suspects(trace) == {6}
        assert _first_cause(trace, 6) is Cause.STEP4

    def test_no_attack_means_no_events(self):
        trace = run(
            Scenario(graph=six_node_graph(), x0=X0_SIX, f=1,
                     detection=DetectionMode.ALG3, horizon=40)
        )
        assert trace.events == []

    def test_damaged_graph_stays_conservative(self):
        # without voting coverage only the structurally able detectors
        # fire, and no normal node is ever accused
        trace = run(
            Scenario(
                graph=six_node_damaged(),
                x0=X0_SIX,
                f=1,
                detection=DetectionMode.ALG3,
                adversaries=(
                    AttackScript(
                        node=6,
                        schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
                    ),
                ),
                horizon=40,
            )
        )
        assert _suspects(trace) <= {6}
        assert {e.detector for e in trace.events} == {2, 4}


class TestSharingDetectionEndToEnd:
    def _k4_scenario(self, detection: DetectionMode) -> Scenario:
        return Scenario(
            graph=complete_graph(4),
            x0=(2.0, 4.0, 6.0, 20.0),
            f=1,
            detection=detection,
            sharing_oracle=detection is DetectionMode.ALG2,
            adversaries=(
                AttackScript(
                    node=4,
                    schedule=((3, AttackAction(ActionKind.SET_SELF_VALUE, value=50.0)),),
                ),
            ),
            horizon=40,
        )

    def test_sharing_and_distributed_agree_on_k4(self):
        shared = run(self._k4_scenario(DetectionMode.ALG2))
        distributed = run(self._k4_scenario(DetectionMode.ALG3))
        assert _suspects(shared) == _suspects(distributed) == {4}
        for trace in (shared, distributed):
            for i in (1, 2, 3):
                assert float(trace.r[i][-1]) == pytest.approx(4.0, abs=1e-9)

    def test_sharing_oracle_spreads_verdicts_in_one_round(self):
        trace = run(self._k4_scenario(DetectionMode.ALG2))
        first = min(e.round for e in trace.events)
        counts = [trace.detected_count[i][first] for i in (1, 2, 3)]
        assert counts == [1, 1, 1]


# Scripts whose first verdict comes from a check that each receiver
# used to repeat per edge; all actions start in round 3 unless
# _SLOW_PATH_SETUPS says otherwise.
_AUDITED_ACTIONS = {
    "InjectFakeId": (AttackAction(ActionKind.INJECT_FAKE_ID, target=5, fake_values=(1.0, 1.0)),),
    "DropRelayedEntry": (AttackAction(ActionKind.DROP_RELAYED_ENTRY, target=1),),
    "LieDeclaredDegree": (AttackAction(ActionKind.LIE_DECLARED_DEGREE, value=1),),
    "SetSelfValue": (AttackAction(ActionKind.SET_SELF_VALUE, value=42.0),),
    "TamperRelayed": (AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0),),
    # Step 2 comes before Step 3 and the replay
    "combined": (
        AttackAction(ActionKind.INJECT_FAKE_ID, target=5, fake_values=(1.0, 1.0)),
        AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0),
        AttackAction(ActionKind.SET_SELF_VALUE, value=42.0),
    ),
    # Step 3 comes before the replay
    "TamperRelayed+SetSelfValue": (
        AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0),
        AttackAction(ActionKind.SET_SELF_VALUE, value=42.0),
    ),
    "screened-SetSelfValue": (AttackAction(ActionKind.SET_SELF_VALUE, value=50.0),),
    "ZeroRelayForClaim": (AttackAction(ActionKind.SET_SELF_VALUE, value=42.0),),
    "TwoHopRelayDisagrees": (AttackAction(ActionKind.TAMPER_RELAYED, target=6, amount=30.0),),
}

# Scripts under which a receiver leaves the once-per-broadcast Step 3
# for its per-edge loop, or runs its two-hop votes, and how their
# set-up differs from the others
_SLOW_PATH_SETUPS = {
    # round-1 safety-interval screening: the forged first share is public
    "screened-SetSelfValue": {"start": 1, "interval": (0.0, 12.0)},
    # node 2 hears node 1's accusers relay ZERO_PAIR for the id they claim
    "ZeroRelayForClaim": {"node": 1},
    # node 5 votes on node 6 over relays that disagree, one tampered by node 1
    "TwoHopRelayDisagrees": {"node": 1},
}


def _audited_scenario(
    network: str, actions, node: int = 6, start: int = 3, interval=None
) -> Scenario:
    schedule = tuple((start, a) for a in actions)
    if network == "six-alg3":
        return replace(_six_scenario(*schedule, node=node), safety_interval=interval)
    return Scenario(
        graph=complete_graph(4),
        x0=(2.0, 4.0, 6.0, 20.0),
        f=1,
        detection=DetectionMode.ALG2,
        sharing_oracle=True,
        adversaries=(AttackScript(node=4, schedule=schedule),),
        horizon=40,
        safety_interval=interval,
    )


@pytest.mark.parametrize(
    "network, script, expected",
    [
    pytest.param(
        "six-alg3",
        "InjectFakeId",
        [
            (4, 1, 6, "Step2", (("foreign_ids", (5,)),)),
            (4, 2, 6, "Step2", (("foreign_ids", (5,)),)),
            (4, 3, 6, "Step2", (("foreign_ids", (5,)),)),
            (4, 4, 6, "Step2", (("foreign_ids", (5,)),)),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-InjectFakeId",
    ),
    pytest.param(
        "six-alg3",
        "DropRelayedEntry",
        [
            (4, 1, 6, "Step2", (("missing_ids", (1,)),)),
            (4, 2, 6, "Step2", (("missing_ids", (1,)),)),
            (4, 3, 6, "Step2", (("missing_ids", (1,)),)),
            (4, 4, 6, "Step2", (("missing_ids", (1,)),)),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-DropRelayedEntry",
    ),
    pytest.param(
        "six-alg3",
        "LieDeclaredDegree",
        [
            (4, 1, 6, "Step4", (("declared_out_degree", 1, 4),)),
            (4, 2, 6, "Step4", (("declared_out_degree", 1, 4),)),
            (4, 3, 6, "Step4", (("declared_out_degree", 1, 4),)),
            (4, 4, 6, "Step4", (("declared_out_degree", 1, 4),)),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-LieDeclaredDegree",
    ),
    pytest.param(
        "six-alg3",
        "SetSelfValue",
        [
            (4, 1, 6, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.2496, 0.8000000000000002)))),
            (4, 2, 6, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.2496, 0.8000000000000002)))),
            (4, 3, 6, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.2496, 0.8000000000000002)))),
            (4, 4, 6, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.2496, 0.8000000000000002)))),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-SetSelfValue",
    ),
    pytest.param(
        "six-alg3",
        "TamperRelayed",
        [
            (4, 1, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (4, 2, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (4, 3, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (4, 4, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-TamperRelayed",
    ),
    pytest.param(
        "six-alg3",
        "combined",
        [
            (4, 1, 6, "Step2", (("foreign_ids", (5,)),)),
            (4, 2, 6, "Step2", (("foreign_ids", (5,)),)),
            (4, 3, 6, "Step2", (("foreign_ids", (5,)),)),
            (4, 4, 6, "Step2", (("foreign_ids", (5,)),)),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-combined",
    ),
    pytest.param(
        "six-alg3",
        "TamperRelayed+SetSelfValue",
        [
            (4, 1, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (4, 2, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (4, 3, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (4, 4, 6, "Step3", (("id", 2), ("relayed", (33.256, 0.6000000000000001)), ("expected", (3.2560000000000002, 0.6000000000000001)))),
            (5, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-TamperRelayed+SetSelfValue",
    ),
    pytest.param(
        "k4-alg2",
        "InjectFakeId",
        [
            (4, 1, 4, "Step2", (("foreign_ids", (5,)),)),
            (4, 2, 4, "Step2", (("foreign_ids", (5,)),)),
            (4, 3, 4, "Step2", (("foreign_ids", (5,)),)),
        ],
        id="k4-alg2-InjectFakeId",
    ),
    pytest.param(
        "k4-alg2",
        "DropRelayedEntry",
        [
            (4, 1, 4, "Step2", (("missing_ids", (1,)),)),
            (4, 2, 4, "Step2", (("missing_ids", (1,)),)),
            (4, 3, 4, "Step2", (("missing_ids", (1,)),)),
        ],
        id="k4-alg2-DropRelayedEntry",
    ),
    pytest.param(
        "k4-alg2",
        "LieDeclaredDegree",
        [
            (4, 1, 4, "Step4", (("declared_out_degree", 1, 3),)),
            (4, 2, 4, "Step4", (("declared_out_degree", 1, 3),)),
            (4, 3, 4, "Step4", (("declared_out_degree", 1, 3),)),
        ],
        id="k4-alg2-LieDeclaredDegree",
    ),
    pytest.param(
        "k4-alg2",
        "SetSelfValue",
        [
            (4, 1, 4, "Step4", (("reported", (42.0, 1.0)), ("reconstructed", (11.0, 1.0)))),
            (4, 2, 4, "Step4", (("reported", (42.0, 1.0)), ("reconstructed", (11.0, 1.0)))),
            (4, 3, 4, "Step4", (("reported", (42.0, 1.0)), ("reconstructed", (11.0, 1.0)))),
        ],
        id="k4-alg2-SetSelfValue",
    ),
    pytest.param(
        "k4-alg2",
        "TamperRelayed",
        [
            (4, 1, 4, "Step3", (("id", 2), ("relayed", (35.0, 0.75)), ("expected", (5.0, 0.75)))),
            (4, 2, 4, "Step3", (("id", 2), ("relayed", (35.0, 0.75)), ("expected", (5.0, 0.75)))),
            (4, 3, 4, "Step3", (("id", 2), ("relayed", (35.0, 0.75)), ("expected", (5.0, 0.75)))),
        ],
        id="k4-alg2-TamperRelayed",
    ),
    pytest.param(
        "k4-alg2",
        "combined",
        [
            (4, 1, 4, "Step2", (("foreign_ids", (5,)),)),
            (4, 2, 4, "Step2", (("foreign_ids", (5,)),)),
            (4, 3, 4, "Step2", (("foreign_ids", (5,)),)),
        ],
        id="k4-alg2-combined",
    ),
    pytest.param(
        "k4-alg2",
        "TamperRelayed+SetSelfValue",
        [
            (4, 1, 4, "Step3", (("id", 2), ("relayed", (35.0, 0.75)), ("expected", (5.0, 0.75)))),
            (4, 2, 4, "Step3", (("id", 2), ("relayed", (35.0, 0.75)), ("expected", (5.0, 0.75)))),
            (4, 3, 4, "Step3", (("id", 2), ("relayed", (35.0, 0.75)), ("expected", (5.0, 0.75)))),
        ],
        id="k4-alg2-TamperRelayed+SetSelfValue",
    ),
    pytest.param(
        "six-alg3",
        "screened-SetSelfValue",
        [
            (1, 1, 6, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
            (1, 2, 6, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
            (1, 3, 6, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
            (1, 4, 6, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
            (2, 5, 6, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-screened-SetSelfValue",
    ),
    pytest.param(
        "k4-alg2",
        "screened-SetSelfValue",
        [
            (1, 1, 4, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
            (1, 2, 4, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
            (1, 3, 4, "InitRange", (("reported", 50.0), ("interval", (0.0, 12.0)))),
        ],
        id="k4-alg2-screened-SetSelfValue",
    ),
    pytest.param(
        "six-alg3",
        "ZeroRelayForClaim",
        [
            (4, 3, 1, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.7488, 0.8000000000000002)))),
            (4, 4, 1, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.7488, 0.8000000000000002)))),
            (4, 5, 1, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.7488, 0.8000000000000002)))),
            (4, 6, 1, "Step4", (("reported", (42.0, 0.8000000000000002)), ("reconstructed", (4.7488, 0.8000000000000002)))),
            (5, 2, 1, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-ZeroRelayForClaim",
    ),
    pytest.param(
        "six-alg3",
        "TwoHopRelayDisagrees",
        [
            (4, 3, 1, "Step3", (("id", 6), ("relayed", (33.248, 0.6000000000000001)), ("expected", (3.248, 0.6000000000000001)))),
            (4, 4, 1, "Step3", (("id", 6), ("relayed", (33.248, 0.6000000000000001)), ("expected", (3.248, 0.6000000000000001)))),
            (4, 5, 1, "Step3", (("id", 6), ("relayed", (33.248, 0.6000000000000001)), ("expected", (3.248, 0.6000000000000001)))),
            (4, 6, 1, "Step3", (("id", 6), ("relayed", (33.248, 0.6000000000000001)), ("expected", (3.248, 0.6000000000000001)))),
            (5, 2, 1, "VoteMajority", (("reporters", 4),)),
        ],
        id="six-alg3-TwoHopRelayDisagrees",
    ),
    ],
)
def test_audit_verdicts_are_pinned(network, script, expected):
    """Every (round, detector, suspect, cause, evidence), in order."""
    setup = _SLOW_PATH_SETUPS.get(script, {})
    trace = run(_audited_scenario(network, _AUDITED_ACTIONS[script], **setup))
    got = [(e.round, e.detector, e.suspect, e.cause.value, e.evidence) for e in trace.events]
    assert got == expected


# Actions from round 1 act on the first exchange, an ordinary round: its
# messages get every audit, except that a first message, having no
# predecessor, is range-screened instead of replayed.
_ROUND_ONE = {
    "Crash": AttackAction(ActionKind.CRASH),
    "InjectFakeId": AttackAction(ActionKind.INJECT_FAKE_ID, target=5, fake_values=(1.0, 1.0)),
    # a nonzero relay for a real in-neighbor: Step 3 against the zero
    # check set every node starts with
    "FakeRelay": AttackAction(ActionKind.INJECT_FAKE_ID, target=2, fake_values=(1.0, 1.0)),
    "SetSelfValue": AttackAction(ActionKind.SET_SELF_VALUE, value=42.0),
}


_ROUND_ONE_VERDICTS = [
    ("six-alg3", "Crash", [(1, 1, 6, "Crash"), (1, 2, 6, "Crash"), (1, 3, 6, "Crash"),
                           (1, 4, 6, "Crash"), (2, 5, 6, "VoteMajority")]),
    ("six-alg3", "InjectFakeId", [(1, 1, 6, "Step2"), (1, 2, 6, "Step2"), (1, 3, 6, "Step2"),
                                  (1, 4, 6, "Step2"), (2, 5, 6, "VoteMajority")]),
    ("six-alg3", "FakeRelay", [(1, 1, 6, "Step3"), (1, 2, 6, "Step3"), (1, 3, 6, "Step3"),
                               (1, 4, 6, "Step3"), (2, 5, 6, "VoteMajority")]),
    # the forged share is absorbed in round 1; the next message relays
    # the true share, which Step 3 holds against it
    ("six-alg3", "SetSelfValue", [(2, 1, 6, "Step3"), (2, 2, 6, "Step3"), (2, 3, 6, "Step3"),
                                  (2, 4, 6, "Step3"), (3, 5, 6, "VoteMajority")]),
    ("k4-alg2", "Crash", [(1, 1, 4, "Crash"), (1, 2, 4, "Crash"), (1, 3, 4, "Crash")]),
    ("k4-alg2", "InjectFakeId", [(1, 1, 4, "Step2"), (1, 2, 4, "Step2"), (1, 3, 4, "Step2")]),
    ("k4-alg2", "FakeRelay", [(1, 1, 4, "Step3"), (1, 2, 4, "Step3"), (1, 3, 4, "Step3")]),
    ("k4-alg2", "SetSelfValue", [(2, 1, 4, "Step3"), (2, 2, 4, "Step3"), (2, 3, 4, "Step3")]),
]


@pytest.mark.parametrize(
    "network, script, expected",
    _ROUND_ONE_VERDICTS,
    ids=[f"{network}-{script}" for network, script, _ in _ROUND_ONE_VERDICTS],
)
def test_round_one_attacks_act_on_the_first_exchange(network, script, expected):
    sc = _audited_scenario(network, (_ROUND_ONE[script],), start=1)
    float_trace, exact_trace = run(sc), run(replace(sc, exact=True))
    got = [(e.round, e.detector, e.suspect, e.cause.value) for e in float_trace.events]
    assert got == expected
    assert [(e.round, e.detector, e.suspect, e.cause.value) for e in exact_trace.events] == got
    adversary = sc.adversaries[0].node
    assert _suspects(float_trace) == _suspects(exact_trace) == {adversary}
    # the forged share stays rational in exact arithmetic
    assert all(isinstance(exact_trace.y[i][-1], Fraction) for i in exact_trace.normal_nodes)
    for i in float_trace.normal_nodes:
        assert float(exact_trace.r[i][-1]) == pytest.approx(float_trace.target_average(), abs=1e-9)
