import math
import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racsim import detection, protocol
from racsim.golden import golden_case
from racsim.graph import DirectedGraph, complete_graph, is_strongly_connected
from racsim.protocol import (
    ZERO_PAIR,
    InformationSet,
    NodeState,
    ProtocolError,
    ValueRule,
    bootstrap,
    build_information_set,
    declared_fields,
    honest_round,
    initial_share,
    ledger_flow,
    update,
)
from racsim.sim import run
from oracles import push_sum_ratios

FLOAT = ValueRule()
EXACT = ValueRule(exact=True)


def first_exchange(g: DirectedGraph, x0, rule: ValueRule = FLOAT, nodes=None):
    """Bootstrap every node and run round 1 for the given nodes
    (default all), each hearing all its in-neighbors; return the states
    and the round-0 messages."""
    states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
    first = {i: states[i].next for i in g.nodes}
    for i in g.nodes if nodes is None else nodes:
        honest_round(states[i], {j: first[j] for j in states[i].in_nbrs}, rule)
    return states, first


def mini_run(g: DirectedGraph, x0, rounds: int, rule: ValueRule = FLOAT):
    """Drive the honest state machine directly, no detection, and
    return per-round ratio vectors starting from round 1."""
    states = {i: bootstrap(g, i, x0[i - 1], rule) for i in g.nodes}
    history = []
    for _ in range(rounds):
        msgs = {i: states[i].next for i in g.nodes}
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


class TestDeclaredFields:
    def test_no_claims_declare_every_out_neighbor(self):
        assert declared_fields(frozenset({2, 3, 4}), frozenset(), frozenset({3})) == (3, 0)

    def test_only_first_claims_of_out_neighbors_count_as_removed(self):
        # 3 was claimed before, 4 is claimed first now, 9 is no out-neighbor
        assert declared_fields(frozenset({2, 3, 4}), {3, 4, 9}, frozenset({3})) == (1, 1)


class TestBootstrap:
    def test_round_zero_state(self):
        # all running sums start at zero and the initial share goes out next
        s = bootstrap(complete_graph(3), 1, 3.0, FLOAT)
        assert s.next.round == 0
        assert (s.y, s.z, s.ratio) == (3.0, 1, 3.0)
        assert s.next.self_next == initial_share(3.0, 2, FLOAT)
        # the node's own entry first, then the in-neighbors' in in_nbrs
        # order: the order in which honest_round sums the ledger
        assert list(s.next.relayed.items()) == [(1, ZERO_PAIR), (2, ZERO_PAIR), (3, ZERO_PAIR)]
        assert s.detected == set() and s.next.detected == frozenset()
        assert (s.next.declared_out_degree, s.next.declared_removed_out) == (2, 0)

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
        assert s.next.relayed[3] == ZERO_PAIR

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
        assert s.next.declared_out_degree == 1
        assert s.next.declared_removed_out == 1

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
            msgs = {i: states[i].next for i in g.nodes}
            for i in (1, 2):
                inbox = {j: msgs[j] for j in states[i].in_nbrs}
                if k == 2:
                    states[i].detected.add(3)
                honest_round(states[i], inbox, FLOAT)
        assert states[1].next.relayed[3] == ZERO_PAIR
        assert states[1].ratio == pytest.approx(4.5, abs=1e-9)
        assert states[2].ratio == pytest.approx(4.5, abs=1e-9)

    def test_removed_out_neighbor_mass_returns(self):
        g = complete_graph(3)
        x0 = [3.0, 6.0, 30.0]
        states, _ = first_exchange(g, x0)
        s = states[1]
        lam_k = s.next.self_next[0]
        msgs = {i: states[i].next for i in (2, 3)}
        twin = deepcopy(s)
        honest_round(twin, msgs, FLOAT)
        s.detected.add(3)
        honest_round(s, msgs, FLOAT)
        # same inbox, but detecting 3 zeroes its ledger entry and adds
        # back the lam mass previously sent to it
        assert s.y == pytest.approx(twin.y - msgs[3].self_next[0] + lam_k)
        assert s.next.declared_removed_out == 1
        assert s.next.declared_out_degree == 1

    def test_silent_neighbor_marked_crashed(self):
        g = complete_graph(3)
        x0 = [3.0, 6.0, 9.0]
        states, _ = first_exchange(g, x0)
        msgs = {i: states[i].next for i in g.nodes}
        honest_round(states[1], {2: msgs[2]}, FLOAT)
        assert states[1].detected == {3}
        assert 3 in states[1].detected
        assert states[1].next.relayed[3] == ZERO_PAIR

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
        before = {i: states[i].next for i in g.nodes}
        for i in g.nodes:
            honest_round(states[i], before, FLOAT)
        msg = states[1].next
        assert msg.sender == 1
        assert msg.round == 3
        # the ledger's first entry is the node's own sums as it
        # broadcast them a round ago, then the in-neighbors' in in_nbrs order
        assert list(msg.relayed.items()) == [
            (1, before[1].self_next), *((j, before[j].self_next) for j in states[1].in_nbrs)
        ]
        lam, gam = before[1].self_next
        assert msg.self_next == (lam + states[1].y / 3, gam + states[1].z / 3)
        assert msg.declared_out_degree == 2
        assert msg.declared_removed_out == 0

    def test_relays_the_ledger_itself_and_freezes_the_claims(self):
        ledger = {2: (0.5, 0.5), 1: ZERO_PAIR}
        detected = {2}
        msg = build_information_set(1, 4, detected, (1.0, 1.0), ledger, 1, 1)
        detected.add(3)
        assert msg.relayed is ledger
        assert msg.detected == frozenset({2})
        assert (msg.sender, msg.round, msg.self_next) == (1, 4, (1.0, 1.0))
        assert (msg.declared_out_degree, msg.declared_removed_out) == (1, 1)

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


# one valid message, as keyword arguments, and one change that breaks
# each invariant of the type
VALID = dict(
    sender=1,
    round=2,
    detected=frozenset(),
    self_next=(1.0, 1.0),
    relayed={1: (0.5, 0.5), 2: (0.5, 0.5)},
    declared_out_degree=1,
    declared_removed_out=0,
)
BROKEN = {
    "unrelayed-sender": {"sender": 3},
    "negative-degree": {"declared_out_degree": -1},
    "negative-removed": {"declared_removed_out": -1},
}


class TestInformationSetContract:
    def test_is_immutable(self):
        msg = InformationSet(**VALID)
        with pytest.raises(AttributeError):
            msg.round = 3
        with pytest.raises(AttributeError):
            msg.note = "extra"

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    @pytest.mark.parametrize("how", ["positional", "keyword", "_replace"])
    def test_every_constructor_checks_the_invariants(self, broken, how):
        fields = {**VALID, **BROKEN[broken]}
        with pytest.raises(AssertionError):
            if how == "positional":
                InformationSet(*fields.values())
            elif how == "keyword":
                InformationSet(**fields)
            else:
                InformationSet(**VALID)._replace(**BROKEN[broken])

    def test_replace_returns_an_information_set(self):
        msg = InformationSet(**VALID)._replace(round=5)
        assert type(msg) is InformationSet
        assert msg == InformationSet(**{**VALID, "round": 5})
        with pytest.raises(ValueError):
            msg._replace(rounds=6)


def _reference_honest_round(s, inbox, rule):
    """honest_round with a crash set, indexed pairs and the out-degree
    and removed count as set differences: the reference the one-walk
    version must match."""
    sent = s.next
    crashed = frozenset(j for j in s.in_nbrs if j not in s.detected and j not in inbox)
    s.detected |= crashed
    prev_active_out = s.out_nbrs - sent.detected
    active_out = s.out_nbrs - s.detected
    removed_out = prev_active_out - active_out
    d_out = len(active_out)

    lam_k, gam_k = sent.self_next
    old_ledger = sent.relayed
    new_ledger = {s.id: (lam_k, gam_k)}
    y = lam_k - old_ledger[s.id][0]
    z = gam_k - old_ledger[s.id][1]
    for j in s.in_nbrs:
        if j in s.detected:
            new_ledger[j] = ZERO_PAIR
        else:
            new_ledger[j] = inbox[j].self_next
        y = y + (new_ledger[j][0] - old_ledger[j][0])
        z = z + (new_ledger[j][1] - old_ledger[j][1])
    y = y + len(removed_out) * lam_k
    z = z + len(removed_out) * gam_k

    ratio = y / z if rule.z_ok(z) else s.ratio

    s.y, s.z, s.ratio = y, z, ratio
    s.next = InformationSet(
        s.id, sent.round + 1, frozenset(s.detected),
        (lam_k + y / (1 + d_out), gam_k + z / (1 + d_out)), new_ledger,
        d_out, len(removed_out),
    )


# zeros of every type and sign, a NaN, an infinity and values whose
# sums round; Fractions and ints under EXACT, with a large denominator
# and a float (a forged value) that take update's integer path and its
# fallback
ROUND_FLOATS = (0, 0.0, -0.0, 1.0, -2.5, 1.0 + 2**-40, 1e300, math.inf, math.nan)
ROUND_FRACTIONS = (
    0, Fraction(0), 1, Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(2**70 + 1, 3**40), 0.5,
)
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
    k = draw(st.integers(0, 5))
    state = NodeState(
        id=1,
        in_nbrs=in_nbrs,
        out_nbrs=out_nbrs,
        y=y, z=z, ratio=ratio,
        next=InformationSet(
            1, k, detected_before, (lam, gam),
            {**{j: draw(pairs) for j in in_nbrs}, 1: draw(pairs)},
            len(out_nbrs - detected_before), draw(st.integers(0, 2)),
        ),
        detected=set(detected_before | new_detected),
    )
    senders = draw(st.lists(st.sampled_from(ROUND_IDS), unique=True))
    inbox = {
        j: InformationSet(j, k, frozenset(), draw(pairs), {j: ZERO_PAIR}, 0)
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
        m = s.next
        return repr((
            m.sender, m.round, s.y, s.z, m.self_next, s.ratio, list(m.relayed.items()),
            sorted(s.detected), sorted(m.detected), m.declared_out_degree, m.declared_removed_out,
        ))

    assert outcome(got) == outcome(want)


# ints, negative Fractions, integral Fractions and Fractions whose
# denominators are large; a float in some examples
FLOW_FRACTIONS = st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from((1, 2, 7, 3**40, 2**61 - 1)))
FLOW_RATIONALS = st.one_of(st.integers(-10**6, 10**6), FLOW_FRACTIONS)
FLOW_FLOATS = st.floats(-1e6, 1e6)


@st.composite
def flow_ledgers(draw):
    """An arithmetic and two ledgers over ids 1-6, each in any order,
    each possibly with ids the other lacks: in float arithmetic floats
    and int zeros, in exact arithmetic rationals and some floats."""
    rule = draw(st.sampled_from((FLOAT, EXACT)))
    if rule.exact:
        values = draw(st.sampled_from((FLOW_RATIONALS, st.one_of(FLOW_RATIONALS, FLOW_FLOATS))))
    else:
        values = st.one_of(FLOW_FLOATS, st.just(0))
    pairs = st.tuples(values, values)
    ids = st.lists(st.integers(1, 6), unique=True, max_size=6)
    now = {h: draw(pairs) for h in draw(ids)}
    before = {h: draw(pairs) for h in draw(ids)}
    return rule, now, before


@settings(max_examples=500, deadline=None)
@given(flow_ledgers())
# a float in y alone: z is still the exact Fraction
@example((EXACT, {1: (0.5, Fraction(1, 3)), 2: (1, Fraction(2, 7))}, {1: (Fraction(1, 3), Fraction(1, 5))}))
# a leading -0.0 stays -0.0, as the sender's walk keeps it
@example((EXACT, {1: (-0.0, 1), 2: (-0.0, 2)}, {2: (0, 1)}))
@example((FLOAT, {1: (-0.0, 1), 2: (-0.0, 2)}, {2: (0, 1)}))
def test_ledger_flow_matches_the_ordered_walk_in_value_and_type(ledgers):
    rule, now, before = ledgers
    got = ledger_flow(now, before, rule)
    # the left fold in now's order from its first term, as honest_round
    # adds
    want = []
    for c in (0, 1):
        terms = [pair[c] - before.get(h, ZERO_PAIR)[c] for h, pair in now.items()]
        acc = terms[0] if terms else 0
        for t in terms[1:]:
            acc = acc + t
        want.append(acc)
    # repr tells -0.0 from 0.0 and a Fraction from an int
    assert repr(got) == repr(tuple(want))


def test_an_exact_run_without_forged_floats_sums_every_flow_exactly(monkeypatch):
    # every flow of an exact run on rationals alone is the exact sum
    # over one denominator
    results = []

    def recorded(now, before, rule):
        results.append(ledger_flow(now, before, rule))
        return results[-1]

    monkeypatch.setattr(protocol, "ledger_flow", recorded)
    monkeypatch.setattr(detection, "ledger_flow", recorded)
    sc = golden_case("fourteen-no-attack").build()
    run(replace(sc, exact=True, horizon=10))
    # each round, 14 updates; with no adversary every replay takes its
    # sender's flow
    assert len(results) == 14 * 10
    assert not any(isinstance(v, float) for flow in results for v in flow)


@st.composite
def update_inputs(draw):
    """An arithmetic and update's four arguments: under EXACT
    Fractions alone, or rationals with ints, or with floats too; under
    FLOAT floats of every kind."""
    rule = draw(st.sampled_from((FLOAT, EXACT)))
    if rule.exact:
        values = draw(st.sampled_from((FLOW_FRACTIONS, FLOW_RATIONALS, st.one_of(FLOW_RATIONALS, FLOW_FLOATS))))
    else:
        values = st.one_of(FLOW_FLOATS, st.sampled_from(ROUND_FLOATS))
    pairs = st.tuples(values, values)
    return draw(pairs), draw(pairs), draw(st.integers(0, 8)), draw(st.integers(0, 3))


@settings(max_examples=500, deadline=None)
@given(update_inputs())
@example(((Fraction(1, 3**40), Fraction(-5, 2**61 - 1)), (Fraction(7, 2), Fraction(3, 7)), 8, 3))
@example(((-0.0, 1.0), (-0.0, 0.5), 2, 0))
@example(((Fraction(1, 3), Fraction(2, 7)), (0.25, Fraction(1, 5)), 1, 1))
def test_update_matches_the_operator_formula_in_value_and_type(inputs):
    own, flow, d_out, n_removed = inputs
    y = flow[0] + n_removed * own[0]
    z = flow[1] + n_removed * own[1]
    want = (y, z), (own[0] + y / (1 + d_out), own[1] + z / (1 + d_out))
    # repr tells -0.0 from 0.0 and a Fraction from an int or a float
    assert repr(update(own, flow, d_out, n_removed)) == repr(want)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from((FLOW_FRACTIONS, FLOW_RATIONALS, st.one_of(FLOW_RATIONALS, FLOW_FLOATS))).flatmap(
    lambda values: st.tuples(values, values)
))
@example((Fraction(-7, 3**40), Fraction(2**61 - 1, 3)))
@example((Fraction(5, 2), Fraction(0)))
@example((Fraction(5, 2), Fraction(-1, 7)))
@example((Fraction(1, 3), 0.25))
@example((0.5, Fraction(2, 7)))
def test_exact_ratio_and_z_guard_match_the_operators_in_value_and_type(sums):
    """An exact node-round's ratio is y / z while z > 0, else the ratio
    the node held; over two Fractions it is built from their integer
    parts, and must equal the operators' in value and type, as must the
    guard over every value."""
    held = Fraction(7)
    # a node with no neighbors, whose running sums moved by sums from zero
    first = InformationSet(1, 0, frozenset(), sums, {1: ZERO_PAIR}, 0)
    state = NodeState(1, frozenset(), frozenset(), 0, 1, held, first)
    honest_round(state, {}, EXACT)
    y, z = state.y, state.z
    assert EXACT.z_ok(z) == (z > 0)
    # repr tells a Fraction from an int or a float
    assert repr(state.ratio) == repr(y / z if z > 0 else held)


PAIR_EQ_VALUES = st.one_of(
    FLOW_RATIONALS,
    FLOW_FLOATS,
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1 / 3, Fraction(1, 3), 1, 0)),
)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from((FLOAT, EXACT)),
    st.tuples(PAIR_EQ_VALUES, PAIR_EQ_VALUES),
    st.tuples(PAIR_EQ_VALUES, PAIR_EQ_VALUES),
)
# equal only once the Fraction is rounded to a float
@example(EXACT, (Fraction(1, 3), 1), (1 / 3, 1))
@example(EXACT, (Fraction(2**70 + 1, 3**40), Fraction(1, 7)), (Fraction(2**70 + 1, 3**40), Fraction(1, 7)))
@example(EXACT, (Fraction(1, 7), Fraction(0)), (Fraction(1, 7), 0))
# equal numerators, or equal denominators, over unequal values
@example(EXACT, (Fraction(1, 3), Fraction(2, 7)), (Fraction(1, 3), Fraction(2, 9)))
@example(EXACT, (Fraction(1, 3), Fraction(2, 7)), (Fraction(2, 3), Fraction(2, 7)))
@example(EXACT, (0.0, math.nan), (-0.0, math.nan))
@example(FLOAT, (math.inf, 1.0), (math.inf, 1.0))
def test_pair_eq_is_zero_differences_under_both_rules(rule, a, b):
    assert rule.pair_eq(a, b) == (a[0] - b[0] == 0 and a[1] - b[1] == 0)
    # a pair meets itself, unless it holds inf or NaN
    assert rule.pair_eq(a, a) == all(map(math.isfinite, a))
