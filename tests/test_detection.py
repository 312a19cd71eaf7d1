import itertools
import math
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
    vote_value,
)
from racsim.adversary import ActionKind, AttackAction, AttackScript, TamperMode
from racsim.fixtures import (
    FIXTURE_GRAPHS,
    eight_node_graph,
    fourteen_node_graph,
    six_node_damaged,
    six_node_graph,
    thirty_node_graph,
)
from racsim.golden import GOLDEN_CASES, golden_case
from racsim.graph import DirectedGraph, complete_graph, is_detectable, two_hop_middle_nodes
from racsim.protocol import (
    ZERO_PAIR,
    InformationSet,
    ValueRule,
    bootstrap,
    honest_round,
    ledger_flow,
    update,
)
from racsim import detection, sim
from racsim.sim import DetectionMode, Scenario, mass_sums, run, summary
from oracles import brute_oracle_answers
from test_public_audit import _flow_checked_run


SIX_X0 = tuple(golden_case("six-attack").data["x0"])
FOURTEEN_X0 = tuple(golden_case("fourteen-attack").data["x0"])
EIGHT_X0 = tuple(golden_case("eight-attack").data["x0"])
THIRTY_X0 = tuple(golden_case("thirty-attack").data["x0"])

FLOAT = ValueRule()
EXACT = ValueRule(exact=True)


class TestVoteValue:
    def test_unanimous(self):
        assert vote_value([(2.0, 1.0), (2.0, 1.0)], FLOAT) == (2.0, 1.0)

    def test_majority_beats_minority(self):
        reports = [(2.0, 1.0), (2.0, 1.0), (9.0, 9.0)]
        assert vote_value(reports, FLOAT) == (2.0, 1.0)

    def test_even_split_has_no_majority(self):
        reports = [(2.0, 1.0), (9.0, 9.0)]
        assert vote_value(reports, FLOAT) is NO_MAJORITY

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            vote_value([], FLOAT)

    def test_values_one_spacing_apart_do_not_merge(self):
        reports = [(2.0, 1.0), (math.nextafter(2.0, 3.0), 1.0), (5.0, 5.0)]
        assert vote_value(reports, FLOAT) is NO_MAJORITY
        assert vote_value([*reports, (2.0, 1.0)], FLOAT) is NO_MAJORITY
        assert vote_value([*reports, (2.0, 1.0), (2.0, 1.0)], FLOAT) == (2.0, 1.0)

    def test_equal_values_merge_across_types_and_the_first_report_wins(self):
        reports = [(Fraction(2), Fraction(1)), (2.0, 1.0), (5, 5)]
        voted = vote_value(reports, EXACT)
        assert voted == (2, 1) and type(voted[0]) is Fraction

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_reports_are_never_counted(self, bad):
        # one tuple object, which a dict would count as one value
        same = (bad, 1.0)
        assert vote_value([same, same, (2.0, 1.0)], FLOAT) is NO_MAJORITY
        assert vote_value([same, (2.0, 1.0), (2.0, 1.0)], FLOAT) == (2.0, 1.0)

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
                        reports.append((100.0 + p, float(p)))
                    else:
                        reports.append(truth)
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
    states = {i: bootstrap(g, i, SIX_X0[i - 1], FLOAT) for i in g.nodes}
    first = {i: states[i].next for i in g.nodes}
    for i in g.nodes:
        honest_round(states[i], {j: first[j] for j in states[i].in_nbrs}, FLOAT)
    msgs = {i: states[i].next for i in g.nodes}
    for j, claimed in (claims or {}).items():
        msgs[j] = msgs[j]._replace(detected=claimed)
    for j, entries in (foreign or {}).items():
        msgs[j] = msgs[j]._replace(relayed={**msgs[j].relayed, **entries})
    for j, claimed in (claimed_before or {}).items():
        first[j] = first[j]._replace(detected=claimed)
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
        assert audits[1].claimed_before == {2}
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
        assert audit.claimed_before == {2}
        result = detect_alg3(state, *args)
        assert self._verdicts(result) == [(1, Cause.STEP1B, (("vanished", (2,)),))]

    def test_repeated_two_hop_claim_must_be_corroborated(self):
        # node 1 claims two-hop node 2, which node 5 must know the status
        # of, in this message and its previous one; nobody corroborates it
        state, args = _detect_at_node_5(
            claims={1: frozenset({2})}, claimed_before={1: frozenset({2})}
        )
        result = detect_alg3(state, *args)
        assert self._verdicts(result) == [(1, Cause.STEP1B, (("persisted_uncorroborated", 2),))]

    def test_first_two_hop_claim_is_not_yet_condemned(self):
        state, args = _detect_at_node_5(claims={1: frozenset({2})})
        assert detect_alg3(state, *args) == []

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
    """The Step 4 replay, through the one walk of audit_broadcast that
    sums the ledger flow it reads."""

    ORACLE = StructuralOracle(complete_graph(3), 1)

    def _messages(self, rounds: int, rule=EXACT, x0=(Fraction(3), Fraction(6), Fraction(9))):
        """Every node's messages of rounds 0 (the first exchange) to rounds."""
        g = complete_graph(3)
        states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
        per_round = [{i: states[i].next for i in g.nodes}]
        for _ in range(rounds):
            for i in g.nodes:
                inbox = {j: per_round[-1][j] for j in states[i].in_nbrs}
                honest_round(states[i], inbox, rule)
            per_round.append({i: states[i].next for i in g.nodes})
        return per_round

    def _replay(self, now, prev, rule=EXACT):
        """The replay finding of now after prev, summed by the audit
        itself; None when its residuals are both zero."""
        audit = audit_broadcast(now, prev, {}, self.ORACLE, rule)
        assert audit.fields is None
        return audit.replay

    @pytest.mark.parametrize("rule, x0, rounds", [
        pytest.param(EXACT, (Fraction(3), Fraction(6), Fraction(9)), 5, id="exact"),
        # at x0 × 1e100 the running sums round, so a replay that adds
        # out of the sender's order misses
        pytest.param(FLOAT, tuple(v * 1e100 for v in (3.1, 6.7, 9.3)), 8, id="float"),
    ])
    def test_honest_messages_replay_exactly(self, rule, x0, rounds):
        per_round = self._messages(rounds, rule, x0)
        for prev, now in zip(per_round, per_round[1:]):
            for i in (1, 2, 3):
                assert self._replay(now[i], prev[i], rule) is None

    def test_first_message_replays_against_round_zero_message(self):
        per_round = self._messages(1)
        assert set(per_round[0][1].relayed.values()) == {ZERO_PAIR}
        assert self._replay(per_round[1][1], per_round[0][1]) is None

    def test_perturbed_self_value_is_dirty(self):
        per_round = self._messages(3)
        msg = per_round[3][1]
        forged = msg._replace(self_next=(msg.self_next[0] + 1, msg.self_next[1]))
        cause, ((_, reported), (_, (lam_pred, gam_pred))) = self._replay(forged, per_round[2][1])
        assert cause is Cause.STEP4
        assert reported[0] - lam_pred == 1 and reported[1] - gam_pred == 0

    def test_nudged_exact_broadcast_gets_updates_fractions_as_evidence(self, monkeypatch):
        # in an exact run, the running sums node 1 broadcasts in round 3
        # (its message of round 2) move by 1/3**40: the replay compares
        # by cross-multiplication, and the evidence is update's Fraction
        # pair, built from the sender's flow
        want = []

        class Nudged(sim.RoundPlan):
            def detect(self, sent):
                msg = sent[1]
                if msg.round == 2:
                    lam, gam = msg.self_next
                    sent[1] = msg._replace(self_next=(lam + Fraction(1, 3**40), gam))
                    flow = self._states[1].flow
                    d_out, n_removed = msg.declared_out_degree, msg.declared_removed_out
                    want.append(update(msg.relayed[1], flow, d_out, n_removed)[1])
                return super().detect(sent)

        monkeypatch.setattr(sim, "RoundPlan", Nudged)
        trace = run(replace(golden_case("fourteen-no-attack").build(), exact=True, horizon=6))
        [pred] = want
        assert type(pred[0]) is type(pred[1]) is Fraction
        step4 = [v for v in trace.events if v.suspect == 1 and v.cause is Cause.STEP4]
        assert step4 and all(v.round == 3 and v.evidence[1] == ("reconstructed", pred) for v in step4)
        assert repr(step4[0].evidence[1][1]) == repr(pred)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(FIXTURE_GRAPHS)), st.data())
    def test_honest_float_messages_replay_bit_for_bit(self, name, data):
        """In a float run whose x0 magnitudes range from 1e-8 to 1e250,
        with one node crashing so that others zero its entry and take
        back its share, the replay of every honest broadcast adds the
        sender's floats in the sender's order: no finding, and the
        reconstructed sums are the reported ones, bit for bit."""
        g = FIXTURE_GRAPHS[name]()
        oracle = StructuralOracle(g, 1)
        magnitudes = st.floats(1.0, 10.0).flatmap(
            lambda m: st.integers(-8, 249).map(lambda e: m * 10.0**e)
        )
        x0 = data.draw(st.lists(st.tuples(magnitudes, st.booleans()), min_size=g.n, max_size=g.n))
        crashed, crash_round = data.draw(st.tuples(st.sampled_from(list(g.nodes)), st.integers(1, 8)))
        states = {i: bootstrap(g, i, -v if neg else v, FLOAT) for i, (v, neg) in zip(g.nodes, x0)}
        prev, public = {}, {i: ZERO_PAIR for i in g.nodes}
        for k in range(1, 9):
            sent = {i: s.next for i, s in states.items() if not (i == crashed and k >= crash_round)}
            for j in prev.keys() & sent.keys():
                audit = audit_broadcast(sent[j], prev[j], public, oracle, FLOAT)
                assert audit.fields is None and audit.replay is None
                # a NaN report draws the finding, whose evidence is the replay
                forged = sent[j]._replace(self_next=(math.nan, math.nan))
                _, (_, (_, reconstructed)) = audit_broadcast(forged, prev[j], public, oracle, FLOAT).replay
                assert repr(reconstructed) == repr(sent[j].self_next)
            prev, public = sent, {j: m.self_next for j, m in sent.items()}
            for i in sent:
                honest_round(states[i], sent, FLOAT)

    def test_tampered_relayed_entry_is_dirty(self):
        per_round = self._messages(3)
        msg = per_round[3][1]
        relayed = dict(msg.relayed)
        relayed[2] = (relayed[2][0] + 5, relayed[2][1])
        forged = msg._replace(relayed=relayed)
        assert self._replay(forged, per_round[2][1])[0] is Cause.STEP4


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

    # six-damaged's detectors read both under the distributed policy
    @pytest.mark.parametrize("name, built", [
        ("five-sharing", set()), ("six-damaged", {"auditors", "two_hop_relays"}),
    ])
    def test_only_the_distributed_detector_builds_its_tables(self, monkeypatch, name, built):
        # sharing detection reads relay_ids, out_nbrs and in_nbrs alone
        oracles = []

        class Recorded(StructuralOracle):
            def __init__(self, *args):
                super().__init__(*args)
                oracles.append(self)

        monkeypatch.setattr(detection, "StructuralOracle", Recorded)
        assert run(golden_case(name).build()).events
        [oracle] = oracles
        assert {"auditors", "two_hop_relays"} & vars(oracle).keys() == built


class TestInitRangeCheck:
    def test_no_interval_no_check(self):
        assert init_range_check(1e9, None) is None

    def test_inside_interval_passes(self):
        assert init_range_check(5.0, (0.0, 10.0)) is None

    def test_outside_interval_condemns(self):
        finding = init_range_check(50.0, (0.0, 10.0))
        assert finding == (Cause.INIT_RANGE, (("reported", 50.0), ("interval", (0.0, 10.0))))

    @pytest.mark.parametrize("x, inside", [
        (0.25, True), (12.0, True),
        (math.nextafter(0.25, -math.inf), False), (math.nextafter(12.0, math.inf), False),
    ])
    def test_a_first_message_at_a_bound_passes_and_one_float_beyond_fails(self, x, inside):
        """The interval is closed: a first message announcing exactly lo
        or hi passes, and one float spacing outside is screened out."""
        interval = (0.25, 12.0)
        assert (init_range_check(x, interval) is None) == inside
        # x / 4 and 1 / 4 are exact, so the audit's ratio is x itself
        msg = InformationSet(1, 0, frozenset(), (x / 4, 0.25), dict.fromkeys((1, 2, 3), ZERO_PAIR), 2)
        audit = audit_broadcast(msg, None, {}, StructuralOracle(complete_graph(3), 1), ValueRule(), interval)
        assert audit.fields is None
        assert audit.replay == (None if inside else (Cause.INIT_RANGE, (("reported", x), ("interval", interval))))


def _six_scenario(*actions: tuple[int, AttackAction], node: int = 6) -> Scenario:
    return Scenario(
        graph=six_node_graph(),
        x0=SIX_X0,
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

    def test_no_ledger_flow_reads_a_ledger_that_fails_step2(self, monkeypatch):
        # an adversary's broadcast is summed only once its ids pass Step
        # 2; from round 3 every one of 6's broadcasts relays node 5
        summed = []

        def recorded(now, before, *kept):
            summed.append((now, before))
            return ledger_flow(now, before, *kept)

        monkeypatch.setattr(detection, "ledger_flow", recorded)
        trace = run(
            _six_scenario(
                (3, AttackAction(ActionKind.INJECT_FAKE_ID, target=5, fake_values=(1.0, 1.0)))
            )
        )
        assert _first_cause(trace, 6) is Cause.STEP2
        ids = six_node_graph().in_neighbors(6) | {6}
        assert summed and all(now.keys() == ids and before.keys() <= ids for now, before in summed)

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
        reason="ROADMAP item 3 (defect A): a false accusation makes ALG3 condemn normal nodes by the Step 1a omitted audit",
    )
    def test_false_accusation_on_fourteen_spares_normal_nodes(self):
        trace = run(
            Scenario(
                graph=fourteen_node_graph(),
                x0=FOURTEEN_X0,
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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: an adversary that only complies keeps feeding a condemned out-neighbour",
    )
    def test_complying_adversary_isolates_its_condemned_out_neighbour(self):
        # 2 -> 7 is one of eight's one-way edges; 2 runs no detector, so
        # it keeps sending 7 a share after the normal nodes condemn 7
        trace = run(
            Scenario(
                graph=eight_node_graph(),
                x0=EIGHT_X0,
                f=1,
                detection=DetectionMode.ALG3,
                adversaries=(
                    AttackScript(2),
                    AttackScript(
                        node=7, schedule=((3, AttackAction(ActionKind.SET_SELF_VALUE, value=50.0)),)
                    ),
                ),
                horizon=150,
            )
        )
        assert _suspects(trace) == {7}
        survivors = sorted(trace.never_detected)
        sy, _ = mass_sums(trace, survivors)[-1]
        assert abs(sy - sum(EIGHT_X0[i - 1] for i in survivors)) <= trace.scenario.tol
        assert summary(trace)["converged_round"] is not None

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3 (defect C): a relayer's (0, 0) for a node it claims counts in the two-hop vote",
    )
    def test_relayed_zero_for_a_claimed_node_condemns_no_normal_node_by_step3(self):
        # nodes 4, 5 and 6 condemn 7 in round 5 and relay (0, 0) for it;
        # in round 6 that zero wins node 8's and 9's vote on 7, and at
        # the parent both condemn normal nodes 10 and 11 by Step3 ('id', 7)
        trace = run(
            Scenario(
                graph=thirty_node_graph(),
                x0=THIRTY_X0,
                f=1,
                detection=DetectionMode.ALG3,
                adversaries=(
                    AttackScript(
                        node=7,
                        schedule=((7, AttackAction(
                            ActionKind.TAMPER_RELAYED, target=6, mode=TamperMode.SET, amount=-5.5
                        )),),
                    ),
                    AttackScript(
                        node=12,
                        schedule=(
                            (2, AttackAction(ActionKind.FALSELY_ACCUSE, target=3)),
                            (8, AttackAction(ActionKind.FALSELY_ACCUSE, target=26)),
                        ),
                    ),
                ),
                horizon=8,
                seed=860,
            )
        )
        normals = trace.normal_nodes
        assert [e for e in trace.events if e.cause is Cause.STEP3 and e.suspect in normals] == []

    def test_large_initial_values_draw_no_verdict(self, monkeypatch):
        # no adversary; at x0 × 1e8 the running sums round, and the
        # replays match only because they add in the senders' order; each
        # replay given its sender's flow is repeated on the audit's own sum
        trace, _ = _flow_checked_run(
            Scenario(
                graph=fourteen_node_graph(),
                x0=tuple(v * 1e8 for v in golden_case("fourteen-no-attack").data["x0"]),
                f=1,
                detection=DetectionMode.ALG3,
                horizon=30,
            ),
            monkeypatch,
        )
        assert trace.events == []

    @pytest.mark.parametrize("scale", [1e100, 1e250])
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
    def test_golden_graphs_at_large_initial_values_draw_no_verdict(self, case, scale, monkeypatch):
        # every golden graph and detector with its adversaries removed,
        # x0 × scale; the wrapper repeats each replay on ledger_flow's own
        # sum. With that sum in reverse ledger order every case but one
        # fails at each scale (five-sharing at 1e100, six-damaged at
        # 1e250), so the two scales together pin the order on every graph
        sc = case.build()
        scenario = replace(sc, x0=tuple(v * scale for v in sc.x0), adversaries=(), horizon=12)
        trace, _ = _flow_checked_run(scenario, monkeypatch)
        assert trace.events == []

    def test_forged_self_value_caught_by_replay(self):
        trace = run(
            _six_scenario((3, AttackAction(ActionKind.SET_SELF_VALUE, value=42.0)))
        )
        assert _suspects(trace) == {6}
        assert _first_cause(trace, 6) is Cause.STEP4

    def test_no_attack_means_no_events(self):
        trace = run(
            Scenario(graph=six_node_graph(), x0=SIX_X0, f=1,
                     detection=DetectionMode.ALG3, horizon=40)
        )
        assert trace.events == []

    def test_damaged_graph_stays_conservative(self):
        # without voting coverage only the structurally able detectors
        # fire, and no normal node is ever accused
        trace = run(
            Scenario(
                graph=six_node_damaged(),
                x0=SIX_X0,
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

    def test_claims_are_the_shared_set_beyond_the_neighbors(self, monkeypatch):
        """A node under sharing detection claims the whole shared set,
        not only its neighbors. On five-sharing, node 3, no neighbor of
        5, claims it in every message it builds from round 5 on, and
        node 2, no neighbor of 4, claims 4 from round 14 on; every
        normal node's claim set is the shared set."""
        normals = {1, 2, 3}
        beyond: dict[tuple, list[int]] = {}
        detect, update = detection.detect_alg2, sim.honest_round

        def checked(state, inbox, audits, public, shared, rule):
            for j in normals & inbox.keys():
                assert inbox[j].detected == shared
            return detect(state, inbox, audits, public, shared, rule)

        def recorded(s, inbox, rule):
            update(s, inbox, rule)
            far = s.next.detected - s.in_nbrs - s.out_nbrs
            if far:
                beyond.setdefault((s.id, far), []).append(s.next.round)

        monkeypatch.setattr(detection, "detect_alg2", checked)
        monkeypatch.setattr(sim, "honest_round", recorded)
        sim.run(golden_case("five-sharing").build())
        assert {key: (rounds[0], len(rounds)) for key, rounds in beyond.items()} == {
            (3, frozenset({5})): (5, 196),
            (2, frozenset({4})): (14, 187),
        }


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

# Scripts whose verdicts need their own set-up: a first message
# screened against the safety interval, a claimed id relayed as zero,
# and a two-hop vote over relays that disagree
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


# network -> graph, x0, f, detection, accuser, accused: one false
# accusation per claim audit
_ACCUSATIONS = {
    # 5 is two hops from 6
    "six-two-hop": (six_node_graph(), SIX_X0, 1, DetectionMode.ALG3, 6, 5),
    # 2 is an in-neighbor of 5
    "six-in-neighbor": (six_node_graph(), SIX_X0, 1, DetectionMode.ALG3, 5, 2),
    "k4-alg2": (complete_graph(4), (1.0, 2.0, 3.0, 6.0), 2, DetectionMode.ALG2, 2, 3),
}


def _accusation(network: str) -> Scenario:
    """The accuser runs FalselyAccuse from round 5, to H 60."""
    graph, x0, f, detection, node, target = _ACCUSATIONS[network]
    action = AttackAction(ActionKind.FALSELY_ACCUSE, target=target)
    return Scenario(
        graph=graph,
        x0=x0,
        f=f,
        detection=detection,
        sharing_oracle=detection is DetectionMode.ALG2,
        adversaries=(AttackScript(node=node, schedule=((5, action),)),),
        horizon=60,
    )


@pytest.mark.parametrize(
    "network, expected, converged",
    [
        pytest.param(
            "six-two-hop",
            [
                *[(7, i, 6, "Step1b", (("persisted_uncorroborated", 5),)) for i in (1, 2, 3, 4)],
                (8, 5, 6, "VoteMajority", (("reporters", 4),)),
            ],
            17,
            id="six-alg3-Step1b-persisted",
        ),
        pytest.param(
            "six-in-neighbor",
            [
                *[(6, i, 5, "Step1a", (("uncorroborated", 2),)) for i in (1, 2, 3, 4)],
                (7, 6, 5, "VoteMajority", (("reporters", 4),)),
            ],
            16,
            id="six-alg3-Step1a-uncorroborated",
        ),
        pytest.param(
            "k4-alg2",
            [(6, i, 2, "Step1", (("claimed", (3,)), ("shared", ()))) for i in (1, 3, 4)],
            7,
            id="k4-alg2-Step1",
        ),
    ],
)
def test_claim_audit_verdicts_are_pinned(network, expected, converged):
    """A false accusation is caught by the claim audit of its kind, and
    only the accuser is suspected."""
    trace = run(_accusation(network))
    got = [(e.round, e.detector, e.suspect, e.cause.value, e.evidence) for e in trace.events]
    assert got == expected
    assert summary(trace)["converged_round"] == converged


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
