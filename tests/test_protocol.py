import math
import random
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.graph import DirectedGraph, complete_graph, is_strongly_connected
from racsim.protocol import (
    ZERO_PAIR,
    InformationSet,
    NodeState,
    ProtocolError,
    ValueRule,
    bootstrap,
    build_information_set,
    honest_round,
    initial_share,
)
from oracles import push_sum_ratios

FLOAT = ValueRule()
EXACT = ValueRule(exact=True)


def first_exchange(g: DirectedGraph, x0, rule: ValueRule = FLOAT, nodes=None):
    """Bootstrap every node and run round 1 for the given nodes
    (default all), each hearing all its in-neighbors; return the states
    and the round-0 messages."""
    states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
    first = {i: build_information_set(states[i]) for i in g.nodes}
    for i in g.nodes if nodes is None else nodes:
        honest_round(states[i], {j: first[j] for j in states[i].in_nbrs}, rule)
    return states, first


def mini_run(g: DirectedGraph, x0, rounds: int, rule: ValueRule = FLOAT):
    """Drive the honest state machine directly, no detection, and
    return per-round ratio vectors starting from round 1."""
    states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
    history = []
    for _ in range(rounds):
        msgs = {i: build_information_set(states[i]) for i in g.nodes}
        for i in g.nodes:
            inbox = {j: msgs[j] for j in states[i].in_nbrs}
            honest_round(states[i], inbox, rule)
        history.append([states[i].ratio for i in g.nodes])
    return states, history


class TestInitialShare:
    def test_splits_over_self_and_out_neighbors(self):
        lam, gam = initial_share(6.0, 2, FLOAT)
        assert lam == pytest.approx(2.0)
        assert gam == pytest.approx(1.0 / 3.0)

    def test_exact_mode_uses_fractions(self):
        lam, gam = initial_share(1, 2, EXACT)
        assert lam == Fraction(1, 3) and isinstance(lam, Fraction)
        assert gam == Fraction(1, 3)


class TestBootstrap:
    def test_round_zero_state(self):
        # all running sums start at zero and the initial share goes out next
        s = bootstrap(complete_graph(3), 1, 3.0, FLOAT)
        assert s.round == 0
        assert (s.y, s.z, s.ratio) == (3.0, 1, 3.0)
        assert (s.lam, s.gam) == initial_share(3.0, 2, FLOAT)
        # the in-neighbors' entries, then the node's own, last
        assert list(s.ledger.items()) == [(2, ZERO_PAIR), (3, ZERO_PAIR), (1, ZERO_PAIR)]
        assert s.detected == set()
        assert (len(s.active_out), s.removed_out_count) == (2, 0)

    def test_three_node_values(self):
        g = complete_graph(3)
        states, _ = mini_run(g, [3.0, 6.0, 9.0], 1)
        # each node absorbs its own share plus both neighbors' shares:
        # y = (3 + 6 + 9) / 3, z = 1
        for i in g.nodes:
            assert states[i].y == pytest.approx(6.0)
            assert states[i].z == pytest.approx(1.0)
            assert states[i].ratio == pytest.approx(6.0)

    def test_missing_sender_starts_detected(self):
        g = complete_graph(3)
        states, first = first_exchange(g, [3.0, 6.0, 9.0], nodes=())
        s = states[1]
        honest_round(s, {2: first[2]}, FLOAT)
        assert s.detected == {3}
        assert s.ledger[3] == ZERO_PAIR

    def test_pre_detected_out_neighbor_compensated(self):
        g = complete_graph(3)
        states, first = first_exchange(g, [3.0, 6.0, 9.0], nodes=(1,))
        clean = states[1]
        s = bootstrap(g, 1, 3.0, FLOAT)
        s.detected.add(3)
        honest_round(s, {2: first[2]}, FLOAT)
        # node 3's share is dropped and the share sent to it comes back
        lam1 = initial_share(3.0, 2, FLOAT)[0]
        assert s.y == pytest.approx(clean.y - initial_share(9.0, 2, FLOAT)[0] + lam1)
        assert len(s.active_out) == 1
        assert s.removed_out_count == 1

    def test_non_finite_initial_value_rejected(self):
        g = complete_graph(2)
        with pytest.raises(ProtocolError):
            bootstrap(g, 1, math.nan, FLOAT)
        with pytest.raises(ProtocolError):
            bootstrap(g, 1, math.inf, FLOAT)


class TestAgainstMassPassingOracle:
    def test_two_node_exchange(self):
        g = DirectedGraph(2, [(1, 2), (2, 1)])
        _, history = mini_run(g, [4.0, 8.0], 10)
        oracle = push_sum_ratios(2, set(g.edges), [4.0, 8.0], 10)
        for got, want in zip(history, oracle[1:]):
            assert got == pytest.approx(want, abs=1e-9)

    def test_directed_ring_with_chords(self):
        g = DirectedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (3, 5)])
        x0 = [2.0, -1.0, 7.5, 0.0, 3.25]
        _, history = mini_run(g, x0, 40)
        oracle = push_sum_ratios(5, set(g.edges), x0, 40)
        for got, want in zip(history, oracle[1:]):
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_strongly_connected_digraphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        edges = {(i, i % n + 1) for i in range(1, n + 1)}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b and rng.random() < 0.4:
                    edges.add((a, b))
        g = DirectedGraph(n, edges)
        assert is_strongly_connected(g)
        x0 = [rng.uniform(-10, 10) for _ in range(n)]
        _, history = mini_run(g, x0, 15)
        oracle = push_sum_ratios(n, set(g.edges), x0, 15)
        for got, want in zip(history, oracle[1:]):
            assert got == pytest.approx(want, abs=1e-8)


class TestConservationAndInvariance:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_total_mass_conserved_without_detection(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        edges = {(i, i % n + 1) for i in range(1, n + 1)}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b and rng.random() < 0.5:
                    edges.add((a, b))
        g = DirectedGraph(n, edges)
        x0 = [Fraction(rng.randint(-20, 20)) for _ in range(n)]
        states, _ = mini_run(g, x0, 8, EXACT)
        assert sum(states[i].y for i in g.nodes) == sum(x0)
        assert sum(states[i].z for i in g.nodes) == n

    def test_ratio_scales_with_initial_values(self):
        g = complete_graph(4)
        x0 = [Fraction(3), Fraction(-5), Fraction(7), Fraction(1)]
        _, base = mini_run(g, x0, 6, EXACT)
        _, scaled = mini_run(g, [10 * v for v in x0], 6, EXACT)
        for r_base, r_scaled in zip(base, scaled):
            assert [10 * r for r in r_base] == r_scaled

    def test_negative_scaling_in_float_mode(self):
        g = complete_graph(4)
        x0 = [3.0, -5.0, 7.0, 1.0]
        _, base = mini_run(g, x0, 6)
        _, scaled = mini_run(g, [-v for v in x0], 6)
        for r_base, r_scaled in zip(base, scaled):
            assert [-r for r in r_base] == pytest.approx(r_scaled, abs=1e-9)


class TestHonestRound:
    def test_detected_neighbor_contribution_removed(self):
        # once node 3 is detected, nodes 1 and 2 converge to avg(x1, x2)
        g = complete_graph(3)
        x0 = [3.0, 6.0, 30.0]
        states, _ = first_exchange(g, x0)
        for k in range(2, 40):
            msgs = {i: build_information_set(states[i]) for i in g.nodes}
            for i in (1, 2):
                inbox = {j: msgs[j] for j in states[i].in_nbrs}
                if k == 2:
                    states[i].detected.add(3)
                honest_round(states[i], inbox, FLOAT)
        assert states[1].ledger[3] == ZERO_PAIR
        assert states[1].ratio == pytest.approx(4.5, abs=1e-9)
        assert states[2].ratio == pytest.approx(4.5, abs=1e-9)

    def test_removed_out_neighbor_mass_returns(self):
        g = complete_graph(3)
        x0 = [3.0, 6.0, 30.0]
        states, _ = first_exchange(g, x0)
        s = states[1]
        lam_k = s.lam
        msgs = {i: build_information_set(states[i]) for i in (2, 3)}
        twin = deepcopy(s)
        honest_round(twin, msgs, FLOAT)
        s.detected.add(3)
        honest_round(s, msgs, FLOAT)
        # same inbox, but detecting 3 zeroes its ledger entry and adds
        # back the lam mass previously sent to it
        assert s.y == pytest.approx(twin.y - msgs[3].self_next[0] + lam_k)
        assert s.removed_out_count == 1
        assert len(s.active_out) == 1

    def test_silent_neighbor_marked_crashed(self):
        g = complete_graph(3)
        x0 = [3.0, 6.0, 9.0]
        states, _ = first_exchange(g, x0)
        msgs = {i: build_information_set(states[i]) for i in g.nodes}
        honest_round(states[1], {2: msgs[2]}, FLOAT)
        assert states[1].detected == {3}
        assert 3 in states[1].detected
        assert states[1].ledger[3] == ZERO_PAIR

    def test_low_mass_guard_carries_previous_ratio(self):
        g = complete_graph(2)
        shares = {i: initial_share(v, 1, FLOAT) for i, v in ((1, 4.0), (2, 8.0))}
        states, _ = first_exchange(g, [4.0, 8.0], nodes=(1,))
        s = states[1]
        before = s.ratio
        # a forged message that claws back nearly all gam drives z to zero
        forged = InformationSet(
            sender=2,
            round=1,
            detected=frozenset(),
            self_next=(shares[2][0], shares[2][1] - s.z),
            relayed={2: shares[2]},
            declared_out_degree=1,
        )
        honest_round(s, {2: forged}, FLOAT)
        assert not FLOAT.z_ok(s.z)
        assert s.ratio == before


class TestInformationSet:
    def test_broadcast_includes_own_previous_sums(self):
        g = complete_graph(3)
        states, _ = mini_run(g, [3.0, 6.0, 9.0], 2)
        before = {i: build_information_set(states[i]) for i in g.nodes}
        for i in g.nodes:
            honest_round(states[i], before, FLOAT)
        msg = build_information_set(states[1])
        assert msg.sender == 1
        assert msg.round == states[1].round
        # the ledger itself, whose last entry is the node's own sums
        # as it broadcast them a round ago
        assert msg.relayed is states[1].ledger
        assert list(msg.relayed.items())[-1] == (1, before[1].self_next)
        assert msg.self_next == (states[1].lam, states[1].gam)
        assert msg.declared_out_degree == 2
        assert msg.declared_removed_out == 0

    def test_must_relay_own_entry(self):
        with pytest.raises(AssertionError):
            InformationSet(
                sender=1,
                round=2,
                detected=frozenset(),
                self_next=(1.0, 1.0),
                relayed={2: (0.5, 0.5)},
                declared_out_degree=1,
            )


def _reference_honest_round(s, inbox, rule):
    """honest_round with a crash set and indexed pairs: the reference
    the one-walk version must match."""
    k = s.round + 1
    crashed = frozenset(j for j in s.in_nbrs if j not in s.detected and j not in inbox)
    s.detected |= crashed
    prev_active_out = s.active_out
    active_out = s.out_nbrs - s.detected
    removed_out = prev_active_out - active_out
    d_out = len(active_out)

    lam_k, gam_k = s.lam, s.gam
    new_ledger = {}
    y = lam_k - s.ledger[s.id][0]
    z = gam_k - s.ledger[s.id][1]
    for j in s.in_nbrs:
        if j in s.detected:
            new_ledger[j] = ZERO_PAIR
        else:
            new_ledger[j] = inbox[j].self_next
        y = y + (new_ledger[j][0] - s.ledger[j][0])
        z = z + (new_ledger[j][1] - s.ledger[j][1])
    y = y + len(removed_out) * lam_k
    z = z + len(removed_out) * gam_k

    ratio = y / z if rule.z_ok(z) else s.ratio

    new_ledger[s.id] = (lam_k, gam_k)
    s.ledger = new_ledger
    s.y, s.z, s.ratio = y, z, ratio
    s.lam, s.gam = lam_k + y / (1 + d_out), gam_k + z / (1 + d_out)
    s.round = k
    s.active_out = active_out
    s.removed_out_count = len(removed_out)


# zeros of every type and sign, a NaN, an infinity and values whose
# sums round; Fractions and ints under EXACT
ROUND_FLOATS = (0, 0.0, -0.0, 1.0, -2.5, 1.0 + 2**-40, 1e300, math.inf, math.nan)
ROUND_FRACTIONS = (0, Fraction(0), 1, Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2))
ROUND_IDS = range(1, 9)


@st.composite
def node_rounds(draw):
    """A node 1 state and one round's inputs: an inbox that may hold
    any node's message, the receiver's own included, and may lack
    in-neighbors (crashes); detections of in- and out-neighbors made
    before the round and, already in state.detected, in it."""
    rule = draw(st.sampled_from([FLOAT, EXACT]))
    values = st.sampled_from(ROUND_FLOATS if rule is FLOAT else ROUND_FRACTIONS)
    pairs = st.tuples(values, values)
    others = st.sampled_from(ROUND_IDS[1:])
    in_nbrs = draw(st.frozensets(others, max_size=6))
    out_nbrs = draw(st.frozensets(others, max_size=6))
    detected_before = draw(st.frozensets(others, max_size=4))
    new_detected = draw(st.frozensets(others, max_size=4))
    y, z, lam, gam, ratio = (draw(values) for _ in range(5))
    state = NodeState(
        id=1,
        round=draw(st.integers(0, 5)),
        in_nbrs=in_nbrs,
        out_nbrs=out_nbrs,
        y=y, z=z, lam=lam, gam=gam, ratio=ratio,
        ledger={**{j: draw(pairs) for j in in_nbrs}, 1: draw(pairs)},
        detected=set(detected_before | new_detected),
        active_out=out_nbrs - detected_before,
        removed_out_count=draw(st.integers(0, 2)),
    )
    senders = draw(st.lists(st.sampled_from(ROUND_IDS), unique=True))
    inbox = {
        j: InformationSet(j, state.round, frozenset(), draw(pairs), {j: ZERO_PAIR}, 0)
        for j in senders
    }
    return state, inbox, rule


@settings(max_examples=500, deadline=None)
@given(node_rounds())
def test_honest_round_matches_the_reference(case):
    state, inbox, rule = case
    got, want = deepcopy(state), deepcopy(state)
    honest_round(got, inbox, rule)
    _reference_honest_round(want, inbox, rule)

    # repr tells -0.0 from 0.0 and a Fraction from an int, and shows
    # the ledger's order; every NaN prints alike
    def outcome(s):
        return repr((
            s.round, s.y, s.z, s.lam, s.gam, s.ratio, list(s.ledger.items()),
            sorted(s.detected), sorted(s.active_out), s.removed_out_count,
        ))

    assert outcome(got) == outcome(want)
