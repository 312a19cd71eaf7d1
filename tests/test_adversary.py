
import pytest

from racsim.adversary import (
    RANDOM_VALUE_RANGE,
    ActionKind,
    AttackAction,
    AttackScript,
    TamperMode,
    adversary_rng,
    forge_information_set,
    make_colluding_tamper,
    scripted_self_value,
    tampered_inbox,
    validate_adversary_placement,
)
from racsim.fixtures import eight_node_graph, fourteen_node_graph
from racsim.graph import AdversaryKind, DirectedGraph, complete_graph
from racsim.protocol import InformationSet, ValueRule, bootstrap

# node 6 hears 2 and 3 and sends to 1 and 2
NODE_6_GRAPH = DirectedGraph(6, [(2, 6), (3, 6), (6, 1), (6, 2)])


def honest_message(sender: int = 6) -> InformationSet:
    return InformationSet(
        sender=sender,
        round=5,
        detected=frozenset(),
        self_next=(10.0, 1.0),
        relayed={sender: (8.0, 0.9), 2: (3.0, 0.5), 3: (4.0, 0.4)},
        declared_out_degree=2,
        declared_removed_out=0,
    )


class TestAttackScript:
    def test_schedule_must_be_sorted(self):
        with pytest.raises(ValueError):
            AttackScript(
                node=1,
                schedule=(
                    (5, AttackAction(ActionKind.CRASH)),
                    (3, AttackAction(ActionKind.COMPLY)),
                ),
            )

    def test_actions_activate_at_their_round(self):
        script = AttackScript(
            node=1, schedule=((4, AttackAction(ActionKind.CRASH)),)
        )
        assert script.active_actions(3) == ()
        assert len(script.active_actions(4)) == 1
        assert len(script.active_actions(9)) == 1

    def test_target_required_where_meaningful(self):
        with pytest.raises(ValueError):
            AttackAction(ActionKind.TAMPER_RELAYED)
        with pytest.raises(ValueError):
            AttackAction(ActionKind.FALSELY_ACCUSE)


class TestForgeInformationSet:
    def test_comply_is_identity(self):
        truth = honest_message()
        rng = adversary_rng(0, 6)
        forged = forge_information_set(truth, AttackScript(6), 5, rng)
        assert forged == truth

    def test_crash_emits_nothing(self):
        script = AttackScript(node=6, schedule=((3, AttackAction(ActionKind.CRASH)),))
        assert forge_information_set(honest_message(), script, 3, adversary_rng(0, 6)) is None

    def test_fixed_self_value_keeps_true_weight(self):
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.SET_SELF_VALUE, value=42.0)),),
        )
        truth = honest_message()
        forged = forge_information_set(truth, script, 5, adversary_rng(0, 6))
        assert forged.self_next == (42.0, truth.self_next[1])

    @pytest.mark.parametrize("rule", [ValueRule(), ValueRule(exact=True)], ids=["float", "exact"])
    def test_first_exchange_announces_a_share_of_the_self_value(self, rule):
        # a round-0 message carries initial shares, so the forged value
        # is split like x0, in the run's arithmetic
        truth = bootstrap(NODE_6_GRAPH, 6, 9.0, rule).next
        script = AttackScript(
            node=6, schedule=((1, AttackAction(ActionKind.SET_SELF_VALUE, value=42.0)),)
        )
        forged = forge_information_set(truth, script, 1, adversary_rng(0, 6), rule=rule)
        assert forged.self_next == (rule.convert(42.0) / 3, truth.self_next[1])
        assert type(forged.self_next[0]) is type(truth.self_next[0])

    def test_first_exchange_random_self_value_draws_once(self):
        truth = bootstrap(NODE_6_GRAPH, 6, 9.0, ValueRule()).next
        script = AttackScript(node=6, schedule=((1, AttackAction(ActionKind.SET_SELF_VALUE)),))
        rng = adversary_rng(0, 6)
        forged = forge_information_set(truth, script, 1, rng)
        replay = adversary_rng(0, 6)
        assert forged.self_next[0] == replay.uniform(*RANDOM_VALUE_RANGE) / 3
        assert rng.getstate() == replay.getstate()

    @pytest.mark.parametrize("mode", list(TamperMode), ids=lambda m: m.value)
    def test_tamper_relayed_leaves_the_message_alone(self, mode):
        # the tamper reaches the broadcast through tampered_inbox
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2,
                                       mode=mode, amount=30.0)),),
        )
        truth = honest_message()
        assert forge_information_set(truth, script, 5, adversary_rng(0, 6)) == truth

    @pytest.mark.parametrize("schedule", [
        (),
        ((3, AttackAction(ActionKind.COMPLY)),),
        ((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
        ((3, AttackAction(ActionKind.COMPLY)), (4, AttackAction(ActionKind.TAMPER_RELAYED, target=3))),
        ((9, AttackAction(ActionKind.FALSELY_ACCUSE, target=1)),),
    ], ids=["none", "comply", "tamper", "comply-then-tamper", "not-yet-active"])
    def test_a_message_no_active_action_rewrites_is_sent_as_it_is(self, schedule):
        # no copy is made: the honest message itself goes out
        truth = honest_message()
        assert forge_information_set(truth, AttackScript(6, schedule), 5, adversary_rng(0, 6)) is truth

    def test_a_rewriting_action_next_to_a_tamper_builds_a_new_message(self):
        script = AttackScript(node=6, schedule=(
            (3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),
            (4, AttackAction(ActionKind.FALSELY_ACCUSE, target=1)),
        ))
        truth = honest_message()
        forged = forge_information_set(truth, script, 5, adversary_rng(0, 6))
        assert forged is not truth
        assert forged == truth._replace(detected=frozenset({1}))

    def test_dropping_own_entry_is_restored(self):
        # the message type requires the own entry, so the drop does
        # nothing: the entry keeps its place, first, which is the order
        # the sender summed in and the replay adds in
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.DROP_RELAYED_ENTRY, target=6)),),
        )
        truth = honest_message()
        forged = forge_information_set(truth, script, 5, adversary_rng(0, 6))
        assert list(forged.relayed.items()) == list(truth.relayed.items())

    def test_random_draws_are_deterministic_per_seed_and_node(self):
        script = AttackScript(
            node=6, schedule=((3, AttackAction(ActionKind.SET_SELF_VALUE)),)
        )
        a = forge_information_set(honest_message(), script, 5, adversary_rng(7, 6))
        b = forge_information_set(honest_message(), script, 5, adversary_rng(7, 6))
        c = forge_information_set(honest_message(), script, 5, adversary_rng(7, 5))
        assert a == b
        assert a.self_next != c.self_next


class TestTamperedInbox:
    def test_target_view_is_perturbed(self):
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
        )
        msg = honest_message(sender=2)
        out = tampered_inbox({2: msg}, script, 5)
        assert out[2].self_next == (msg.self_next[0] + 30.0, msg.self_next[1])

    def test_offset_tamper_shifts_target_entry(self):
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
        )
        msg2, msg3 = honest_message(sender=2), honest_message(sender=3)
        inbox = {2: msg2, 3: msg3}
        out = tampered_inbox(inbox, script, 5)
        assert out[2] == msg2._replace(self_next=(msg2.self_next[0] + 30.0, msg2.self_next[1]))
        assert out[3] is msg3
        assert inbox == {2: msg2, 3: msg3}

    def test_set_tamper_overwrites_target_entry(self):
        script = AttackScript(
            node=6,
            schedule=(
                (3, AttackAction(ActionKind.TAMPER_RELAYED, target=2,
                                 mode=TamperMode.SET, amount=7.0)),
            ),
        )
        msg2 = honest_message(sender=2)
        out = tampered_inbox({2: msg2}, script, 5)
        assert out[2] == msg2._replace(self_next=(7.0, msg2.self_next[1]))

    @pytest.mark.parametrize("schedule", [
        (),
        ((3, AttackAction(ActionKind.SET_SELF_VALUE, value=1.0)),),
        ((9, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
    ], ids=["none", "other-action", "not-yet-active"])
    def test_without_an_active_tamper_the_table_itself_is_returned(self, schedule):
        inbox = {2: honest_message(sender=2), 3: honest_message(sender=3)}
        assert tampered_inbox(inbox, AttackScript(6, schedule), 5) is inbox

    def test_an_active_tamper_reads_a_copy_of_the_table(self):
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
        )
        msg2 = honest_message(sender=2)
        inbox = {2: msg2}
        out = tampered_inbox(inbox, script, 5)
        assert out is not inbox
        assert inbox[2] is msg2

    def test_other_senders_untouched(self):
        script = AttackScript(
            node=6,
            schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
        )
        msg3 = honest_message(sender=3)
        out = tampered_inbox({3: msg3}, script, 5)
        assert out[3] == msg3


class TestColludingTamper:
    def test_amounts_are_mirrored(self):
        a, b = make_colluding_tamper(3, 6, from_round=9, amount=25.0)
        (_, act_a), = a.schedule
        (_, act_b), = b.schedule
        assert act_a.target == 6 and act_b.target == 3
        assert act_a.amount == -act_b.amount == 25.0


class TestScriptedSelfValue:
    def test_reports_active_fixed_value(self):
        script = AttackScript(
            node=6, schedule=((4, AttackAction(ActionKind.SET_SELF_VALUE, value=13.0)),)
        )
        assert scripted_self_value(script, 3) is None
        assert scripted_self_value(script, 4) == 13.0

    def test_random_value_not_reported(self):
        script = AttackScript(
            node=6, schedule=((4, AttackAction(ActionKind.SET_SELF_VALUE)),)
        )
        assert scripted_self_value(script, 9) is None


class TestPlacementValidation:
    def test_total_model_counts_adversaries(self):
        g = complete_graph(5)
        scripts = [AttackScript(v) for v in (1, 2)]
        assert validate_adversary_placement(g, scripts, 2, AdversaryKind.TOTAL).satisfied
        assert not validate_adversary_placement(g, scripts, 1, AdversaryKind.TOTAL).satisfied

    def test_local_model_bounds_per_neighborhood(self):
        g = fourteen_node_graph()
        ok = [AttackScript(v) for v in (2, 14)]
        assert validate_adversary_placement(g, ok, 1, AdversaryKind.LOCAL).satisfied
        bad = [AttackScript(v) for v in (1, 2)]
        assert not validate_adversary_placement(g, bad, 1, AdversaryKind.LOCAL).satisfied

    def test_full_access_nodes_exempt_from_local_bound(self):
        # nodes 1 and 8 receive from everyone, so five malicious
        # in-neighbors do not violate their local bound
        g = eight_node_graph()
        scripts = [AttackScript(v) for v in (3, 4, 5, 6, 7)]
        assert validate_adversary_placement(g, scripts, 1, AdversaryKind.LOCAL).satisfied

    def test_unknown_node_rejected(self):
        g = complete_graph(3)
        report = validate_adversary_placement(g, [AttackScript(9)], 1, AdversaryKind.LOCAL)
        assert not report.satisfied
